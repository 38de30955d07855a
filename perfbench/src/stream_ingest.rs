//! `stream_ingest`: a live feed kept fresh through the serve line protocol.
//!
//! A session opens a stream and ingests one interval per `push_interval`
//! line from the Section 5.2 generator. After each push come the standing
//! queries and `stream_top_k`. One operation is one push: it is timed from
//! handing the push line to the session until the last standing answer for
//! that interval is returned. The feed is replayed from the start by a
//! fresh session until the time is spent, so every run covers whole feeds.
//!
//! The traced run replays the session's steps through the layers' public
//! calls (parse, push, snapshot, incremental install, query, top-k) and
//! renders the responses itself; they must match the session's transcript
//! byte for byte, as the session's must match the oracle executor's.

use std::time::{Duration, Instant};

use bsc_core::cluster_graph::ClusterNodeId;
use bsc_core::problem::KlStableParams;
use bsc_core::streaming::OnlineStableClusters;
use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
use bsc_service::engine::{EngineConfig, QueryEngine};
use bsc_service::protocol::{ok_response, parse_request, paths_to_json, Request};
use bsc_service::session::Session;
use bsc_util::JsonValue;

use crate::report::Report;
use crate::speed::HostSpeed;
use crate::stats::{median, ms, quantile, Fnv};
use crate::trace::Tracer;
use crate::{repeated_setup, Args, ENGINE_WORKERS};

/// Intervals in one feed: long enough that push-to-answer time visibly
/// grows with the stream, short enough that the oracle executor, which
/// cold-solves every standing query, checks a run in under half a minute.
pub const INTERVALS: usize = 60;
/// Cluster nodes per interval.
pub const NODES: u32 = 200;
/// Average out-degree.
pub const DEGREE: u32 = 5;
/// Maximum gap.
pub const GAP: u32 = 1;
/// Online top-k size and tracked length.
pub const K: usize = 10;
/// Online tracked path length.
pub const L: u32 = 3;
/// The standing queries answered after every push.
pub const STANDING: [&str; 2] = [
    r#"{"op":"query","algorithm":"bfs","spec":"exact:3","k":10}"#,
    r#"{"op":"query","algorithm":"bfs","spec":"exact:5","k":10}"#,
];
const TOP_K: &str = r#"{"op":"stream_top_k"}"#;

/// The `open_stream` line.
pub fn open_line() -> String {
    format!(r#"{{"op":"open_stream","k":{K},"l":{L},"gap":{GAP}}}"#)
}

/// The feed for `seed`: one `push_interval` line per interval.
pub fn feed(seed: u64) -> Vec<String> {
    let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
        num_intervals: INTERVALS,
        nodes_per_interval: NODES,
        avg_out_degree: DEGREE,
        gap: GAP,
        seed,
    })
    .generate();
    (0..INTERVALS as u32)
        .map(|interval| {
            let mut edges = Vec::new();
            for (node, parents) in graph.interval_parent_edges(interval).iter().enumerate() {
                for (parent, weight) in parents {
                    edges.push(format!(
                        "[{},{},{node},{weight}]",
                        parent.interval, parent.index
                    ));
                }
            }
            format!(
                r#"{{"op":"push_interval","nodes":{},"edges":[{}]}}"#,
                graph.nodes_in_interval(interval),
                edges.join(",")
            )
        })
        .collect()
}

/// FNV over every line of a feed.
pub fn feed_hash(feed: &[String]) -> u64 {
    let mut hash = Fnv::default();
    for line in feed {
        hash.mix_str(line);
    }
    hash.finish()
}

fn engine_config() -> EngineConfig {
    EngineConfig::default().workers(ENGINE_WORKERS)
}

fn answer(session: &mut Session, line: &str, transcript: &mut Vec<String>) {
    if let (Some(response), _) = session.handle_line(line) {
        transcript.push(response);
    }
}

/// One feed through a session: when and for how long each push waited for
/// its answers, and the transcript. The host speed, if given, is kept up to
/// date between pushes.
fn session_pass(
    session: &mut Session,
    feed: &[String],
    mut speed: Option<&mut HostSpeed>,
) -> (Vec<(Instant, Duration)>, Vec<String>) {
    let mut transcript = Vec::new();
    let mut fresh = Vec::with_capacity(feed.len());
    answer(session, &open_line(), &mut transcript);
    for push in feed {
        if let Some(speed) = speed.as_deref_mut() {
            speed.tick();
        }
        let begun = Instant::now();
        answer(session, push, &mut transcript);
        for query in STANDING {
            answer(session, query, &mut transcript);
        }
        answer(session, TOP_K, &mut transcript);
        fresh.push((begun, begun.elapsed()));
    }
    (fresh, transcript)
}

/// Work counters of one traced replay.
#[derive(Debug, Default)]
struct ReplayCounts {
    windows_resolved: u64,
    windows_spliced: u64,
    carried_forward: u64,
}

/// The session's steps for one feed, through public calls, each inside a
/// span under one `stream.push` root per push. Returns the rendered
/// transcript and work counters.
fn replay_pass(
    feed: &[String],
    tracer: &Tracer,
    first_request: u64,
) -> Result<(Vec<String>, ReplayCounts), String> {
    let mut engine = QueryEngine::new(engine_config()).map_err(|e| e.to_string())?;
    let mut online = OnlineStableClusters::new(KlStableParams::new(K, L), GAP);
    let mut counts = ReplayCounts::default();
    let mut transcript = vec![ok_response(
        "open_stream",
        vec![
            ("k", JsonValue::from(K)),
            ("l", JsonValue::from(u64::from(L))),
            ("gap", JsonValue::from(u64::from(GAP))),
        ],
    )];
    for (i, push) in feed.iter().enumerate() {
        let request = first_request + i as u64;
        tracer.span("stream.push", None, request, |root| -> Result<(), String> {
            let root = Some(root);
            let parsed = tracer.span("service.protocol.parse", root, request, |_| {
                parse_request(push)
            })?;
            let Request::PushInterval { nodes, edges } = parsed else {
                return Err(format!("feed line {i} is not a push"));
            };
            let mut parent_edges: Vec<Vec<(ClusterNodeId, f64)>> = vec![Vec::new(); nodes as usize];
            for (parent, node, weight) in edges {
                parent_edges[node as usize].push((parent, weight));
            }
            tracer.span("core.streaming.push", root, request, |_| {
                online.push_interval(parent_edges)
            });
            let snapshot = tracer.span("core.streaming.snapshot", root, request, |_| {
                online.snapshot()
            });
            let installed = tracer.span("service.engine.install", root, request, |_| {
                engine.install_incremental(snapshot)
            });
            transcript.push(ok_response(
                "push_interval",
                vec![
                    ("epoch", JsonValue::from(installed.epoch())),
                    ("intervals", JsonValue::from(online.num_intervals())),
                    ("edges_ingested", JsonValue::from(online.edges_ingested())),
                ],
            ));
            for line in STANDING {
                let parsed = tracer.span("service.protocol.parse", root, request, |_| {
                    parse_request(line)
                })?;
                let Request::Query(query) = parsed else {
                    return Err("standing query line does not parse as a query".to_string());
                };
                let mut fields = vec![
                    ("algorithm", JsonValue::from(query.algorithm.to_string())),
                    ("spec", JsonValue::from(query.spec.to_string())),
                    ("k", JsonValue::from(query.k)),
                ];
                let response = tracer
                    .span("service.engine.query", root, request, |_| {
                        engine.query(query)
                    })
                    .map_err(|e| format!("standing query failed: {e}"))?;
                counts.windows_resolved += response.solution.stats.windows_resolved;
                counts.windows_spliced += response.solution.stats.windows_spliced;
                fields.push(("epoch", JsonValue::from(response.epoch)));
                fields.push(("paths", paths_to_json(&response.solution.paths)));
                transcript.push(ok_response("query", fields));
            }
            let top = tracer.span("core.streaming.top_k", root, request, |_| {
                online.current_top_k()
            });
            transcript.push(ok_response(
                "stream_top_k",
                vec![("paths", paths_to_json(&top))],
            ));
            Ok(())
        })?;
    }
    counts.carried_forward = engine.stats().cache.carried_forward;
    engine.shutdown();
    Ok((transcript, counts))
}

/// The set-up: the feed generated and a session started.
struct Fed {
    feed: Vec<String>,
    session: Session,
}

fn setup(seed: u64) -> Result<Fed, String> {
    let feed = feed(seed);
    let session = Session::engine(engine_config()).map_err(|e| e.to_string())?;
    Ok(Fed { feed, session })
}

/// Run the workload.
pub fn run(
    args: &Args,
    report: &mut Report,
    tracer: &Tracer,
    speed: &mut HostSpeed,
) -> Result<(), String> {
    let (mut states, setup_s) = repeated_setup(speed, |_| setup(args.seed))?;
    let Fed { feed, mut session } = states.pop().expect("repeated_setup keeps a state");
    drop(states);
    report.note(format!(
        "stream_ingest: {INTERVALS} intervals of n={NODES}, d={DEGREE}, g={GAP}; standing \
         BFS exact:3 and exact:5 (k=10) plus stream_top_k after every push; feed fnv {:016x}",
        feed_hash(&feed)
    ));
    let begun = Instant::now();
    let (_, oracle) = session_pass(&mut Session::oracle(), &feed, None);
    report.note(format!(
        "oracle transcript: {} lines in {} s (untimed)",
        oracle.len(),
        begun.elapsed().as_secs_f64()
    ));
    let budget = Duration::from_secs_f64(args.seconds * if report.traced() { 0.5 } else { 1.0 });

    // Whole feeds, each through a fresh session, until the budget is spent.
    let mut times = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < budget {
        let (pass, transcript) = session_pass(&mut session, &feed, Some(&mut *speed));
        times.extend(pass);
        passes += 1;
        check(&transcript, &oracle, "session", report);
        session = Session::engine(engine_config()).map_err(|e| e.to_string())?;
    }
    drop(session);
    speed.calibrate();
    let raw: Vec<f64> = times.iter().map(|&(_, took)| ms(took)).collect();
    let fresh: Vec<f64> = times
        .iter()
        .map(|&(begun, took)| speed.scaled_ms(begun, took))
        .collect();

    if !report.traced() {
        report.note(format!(
            "fresh_p50_ms = {} ms, fresh_p90_ms = {} ms at the reference speed; {} ms and {} ms \
             as measured (n={} pushes, {passes} feeds)",
            median(&fresh),
            quantile(&fresh, 0.9),
            median(&raw),
            quantile(&raw, 0.9),
            fresh.len()
        ));
        report.set("setup_s", setup_s);
        report.set("uncached_ms", median(&fresh));
        report.set("uncached_p90_ms", quantile(&fresh, 0.9));
        report.set(
            "throughput_per_s",
            1e3 * fresh.len() as f64 / fresh.iter().sum::<f64>(),
        );
        return Ok(());
    }

    let mut replays = 0u64;
    let mut counts = ReplayCounts::default();
    let start = Instant::now();
    while replays == 0 || start.elapsed() < budget {
        let (transcript, pass) = replay_pass(&feed, tracer, replays * INTERVALS as u64)?;
        check(&transcript, &oracle, "replay", report);
        counts = pass;
        replays += 1;
    }
    for (metric, layer) in [
        ("service.protocol.parse_ms", "service.protocol.parse"),
        ("core.streaming.push_ms", "core.streaming.push"),
        ("core.streaming.snapshot_ms", "core.streaming.snapshot"),
        ("service.engine.install_ms", "service.engine.install"),
        ("service.engine.query_ms", "service.engine.query"),
        ("core.streaming.top_k_ms", "core.streaming.top_k"),
    ] {
        report.set(metric, median(&tracer.layer_ms(layer)));
    }
    report.set(
        "core.delta.windows_resolved",
        counts.windows_resolved as f64,
    );
    report.set("core.delta.windows_spliced", counts.windows_spliced as f64);
    report.set(
        "service.cache.carried_forward",
        counts.carried_forward as f64,
    );
    let traced_fresh = tracer.duration_ms("stream.push");
    report.set(
        "bench.trace.overhead_ms",
        median(&traced_fresh) - median(&raw),
    );
    report.note(format!(
        "trace: fresh p50 {} ms traced vs {} ms untraced (n={} / n={}); counters per feed",
        median(&traced_fresh),
        median(&raw),
        traced_fresh.len(),
        raw.len()
    ));
    Ok(())
}

/// Compare a transcript with the oracle's, one operation per push.
fn check(transcript: &[String], oracle: &[String], what: &str, report: &mut Report) {
    let per_push = 2 + STANDING.len();
    if transcript.len() != oracle.len() || transcript.first() != oracle.first() {
        report.note(format!(
            "MISMATCH stream_ingest: {what} transcript differs in shape"
        ));
        report.outcome(false);
        return;
    }
    for (ours, theirs) in transcript[1..]
        .chunks(per_push)
        .zip(oracle[1..].chunks(per_push))
    {
        let ok = ours == theirs;
        if !ok {
            report.note(format!(
                "MISMATCH stream_ingest: {what} differs from the oracle"
            ));
        }
        report.outcome(ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_feed_is_a_pure_function_of_the_seed() {
        assert_eq!(feed_hash(&feed(3)), feed_hash(&feed(3)));
        assert_ne!(feed_hash(&feed(3)), feed_hash(&feed(4)));
        assert_eq!(feed(3).len(), INTERVALS);
    }

    #[test]
    fn the_replay_renders_the_oracle_transcript() {
        let feed: Vec<String> = feed(5).into_iter().take(12).collect();
        let (_, oracle) = session_pass(&mut Session::oracle(), &feed, None);
        let (_, served) = session_pass(&mut Session::engine(engine_config()).unwrap(), &feed, None);
        assert_eq!(served, oracle);
        let tracer = Tracer::default();
        let (replayed, counts) = replay_pass(&feed, &tracer, 0).expect("replay");
        assert_eq!(replayed, oracle);
        assert!(counts.windows_spliced > 0, "the delta splice never engaged");
        assert_eq!(tracer.duration_ms("stream.push").len(), 12);
    }
}
