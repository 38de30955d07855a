//! `fanout_query`: a coordinator session fanning windows out to loopback
//! cluster workers.
//!
//! Two in-process `WorkerServer`s listen on 127.0.0.1; a coordinator
//! `Session` sends every decomposable query to them (`default_fanout`).
//! One client drives it in a closed loop: rounds of `load` (a new epoch,
//! whose graph the coordinator ships to the workers on first use), each
//! followed by distinct window-decomposable BFS and auto queries. One
//! operation is one query line. The transcript must match the oracle
//! executor's on the same lines byte for byte.

use std::time::{Duration, Instant};

use bsc_cluster::{WorkerConfig, WorkerHandle, WorkerServer};
use bsc_core::distributed::FanoutSpec;
use bsc_core::solver::SolverOptions;
use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
use bsc_service::engine::EngineConfig;
use bsc_service::protocol::{parse_request, Request};
use bsc_service::session::Session;
use bsc_util::{DetRng, JsonValue};

use crate::report::Report;
use crate::speed::HostSpeed;
use crate::stats::{median, ms, quantile};
use crate::trace::Tracer;
use crate::{repeated_setup, Args, ENGINE_WORKERS};

/// Loopback workers.
pub const CLUSTER_WORKERS: usize = 2;
/// Graph shape shipped by every `load`: intervals, nodes, degree, gap.
pub const SHAPE: (usize, u32, u32, u32) = (12, 200, 5, 1);
/// Distinct queries after each `load`: half the pool, so every two rounds
/// send the whole pool once and every run sends the same mix.
pub const QUERIES_PER_ROUND: usize = 8;

/// Window-decomposable queries a round draws from without repetition.
const POOL: [(&str, u32, usize); 16] = [
    ("bfs", 2, 10),
    ("bfs", 3, 10),
    ("bfs", 4, 10),
    ("bfs", 5, 10),
    ("bfs", 6, 10),
    ("bfs", 3, 5),
    ("bfs", 4, 20),
    ("bfs", 5, 5),
    ("auto", 2, 5),
    ("auto", 3, 10),
    ("auto", 4, 5),
    ("auto", 5, 20),
    ("auto", 6, 10),
    ("auto", 3, 20),
    ("bfs", 2, 20),
    ("bfs", 6, 5),
];

/// The rounds of a run: a pure function of the seed, drawn in order.
pub struct Rounds {
    rng: DetRng,
    /// Pool picks not sent yet in the current pass over the pool.
    pending: Vec<usize>,
}

impl Rounds {
    /// The round sequence for `seed`.
    pub fn new(seed: u64) -> Rounds {
        Rounds {
            rng: DetRng::seed_from_u64(seed),
            pending: Vec::new(),
        }
    }

    /// The next round: its graph seed and lines (`load`, then queries).
    pub fn next_round(&mut self) -> (u64, Vec<String>) {
        let (m, n, d, g) = SHAPE;
        // Below 2^53, so the seed survives JSON's f64 numbers exactly.
        let graph_seed = self.rng.below(1 << 48);
        let mut lines = vec![format!(
            r#"{{"op":"load","num_intervals":{m},"nodes_per_interval":{n},"avg_out_degree":{d},"gap":{g},"seed":{graph_seed}}}"#
        )];
        if self.pending.is_empty() {
            self.pending = (0..POOL.len()).collect();
            self.rng.shuffle(&mut self.pending);
        }
        let picks: Vec<usize> = self.pending.drain(..QUERIES_PER_ROUND).collect();
        for pick in picks {
            let (algorithm, l, k) = POOL[pick];
            lines.push(format!(
                r#"{{"op":"query","algorithm":"{algorithm}","spec":"exact:{l}","k":{k}}}"#
            ));
        }
        (graph_seed, lines)
    }
}

/// Loopback workers and the coordinator session over them.
struct Fleet {
    workers: Vec<WorkerHandle>,
    spec: FanoutSpec,
    session: Session,
}

fn setup() -> Result<Fleet, String> {
    bsc_cluster::install_transport();
    let workers = (0..CLUSTER_WORKERS)
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
                .map(WorkerServer::spawn)
                .map_err(|e| format!("cannot bind a loopback worker: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let spec = FanoutSpec::new(workers.iter().map(|w| w.addr().to_string()).collect())
        .ok_or("empty worker set")?;
    let session = Session::engine(EngineConfig::default().workers(ENGINE_WORKERS))
        .map_err(|e| e.to_string())?
        .default_fanout(Some(spec.clone()));
    Ok(Fleet {
        workers,
        spec,
        session,
    })
}

/// What a closed-loop pass measured.
#[derive(Default)]
struct Pass {
    lines: Vec<String>,
    transcript: Vec<String>,
    /// Per query line.
    query_ms: Vec<f64>,
    /// Every line's ms, loads too.
    total_ms: f64,
}

/// Whole rounds through the coordinator until `budget` is spent. When
/// tracing, every line runs inside a span and each query is also solved in
/// process (sharded the same way, outside the spans) for the wire-overhead
/// comparison.
fn closed_loop(
    session: &mut Session,
    seed: u64,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> Result<(Pass, Vec<f64>), String> {
    let mut rounds = Rounds::new(seed);
    let mut pass = Pass::default();
    let mut local_ms = Vec::new();
    let start = Instant::now();
    while pass.lines.is_empty() || start.elapsed() < budget {
        let (graph_seed, lines) = rounds.next_round();
        let graph = tracer.map(|_| {
            let (num_intervals, nodes_per_interval, avg_out_degree, gap) = SHAPE;
            ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals,
                nodes_per_interval,
                avg_out_degree,
                gap,
                seed: graph_seed,
            })
            .generate()
        });
        for (i, line) in lines.iter().enumerate() {
            let request = pass.lines.len() as u64;
            let name = if i == 0 {
                "service.session.load"
            } else {
                "fanout.query"
            };
            let begun = Instant::now();
            let (response, _) = match tracer {
                Some(tracer) => tracer.span(name, None, request, |_| session.handle_line(line)),
                None => session.handle_line(line),
            };
            let elapsed = ms(begun.elapsed());
            pass.total_ms += elapsed;
            if i > 0 {
                pass.query_ms.push(elapsed);
            }
            pass.transcript.push(response.unwrap_or_default());
            pass.lines.push(line.clone());
            if let (Some(graph), true) = (&graph, i > 0) {
                local_ms.push(solve_locally(line, graph)?);
            }
        }
    }
    Ok((pass, local_ms))
}

/// The same query sharded over as many in-process shards as there are
/// workers: the coordinator's answer minus the wire. Returns its ms.
fn solve_locally(line: &str, graph: &bsc_core::cluster_graph::ClusterGraph) -> Result<f64, String> {
    let Ok(Request::Query(query)) = parse_request(line) else {
        return Err(format!("not a query line: {line}"));
    };
    let mut solver = query
        .algorithm
        .build_with_options(
            query.spec,
            query.k,
            graph.num_intervals(),
            SolverOptions::default().shards(CLUSTER_WORKERS),
        )
        .map_err(|e| e.to_string())?;
    let begun = Instant::now();
    solver.solve(graph).map_err(|e| e.to_string())?;
    Ok(ms(begun.elapsed()))
}

/// Replay the pass's lines through the oracle executor; one outcome per
/// query line, a load counting with the queries after it.
fn check(pass: &Pass, report: &mut Report) {
    let mut oracle = Session::oracle();
    for (line, ours) in pass.lines.iter().zip(&pass.transcript) {
        let (theirs, _) = oracle.handle_line(line);
        let ok = theirs.as_deref() == Some(ours.as_str());
        if !ok {
            report.note(format!("MISMATCH fanout_query: {line} answered {ours}"));
        }
        report.outcome(ok);
    }
}

/// Check that every worker of a fleet answers a health probe.
fn healthy(fleet: &Fleet) -> Result<(), String> {
    for health in bsc_cluster::client_for(&fleet.spec).health() {
        if !health.healthy {
            return Err(format!(
                "worker {} unhealthy: {:?}",
                health.addr, health.error
            ));
        }
    }
    Ok(())
}

/// Sum (or average, for the p50) the coordinator's per-worker RPC counters.
fn rpc_counters(spec: &FanoutSpec) -> (f64, f64, f64) {
    let stats = bsc_cluster::client_for(spec).stats_json();
    let workers = stats.as_array().unwrap_or_default();
    let field = |w: &JsonValue, key: &str| w.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let rpcs = workers.iter().map(|w| field(w, "rpcs")).sum();
    let failures = workers.iter().map(|w| field(w, "failures")).sum();
    let p50 = workers
        .iter()
        .map(|w| field(w, "rpc_p50_micros"))
        .sum::<f64>()
        / workers.len().max(1) as f64;
    (rpcs, failures, p50)
}

/// Run the workload.
pub fn run(
    args: &Args,
    report: &mut Report,
    tracer: &Tracer,
    speed: &mut HostSpeed,
) -> Result<(), String> {
    let (mut fleets, setup_s) = repeated_setup(speed, |_| setup())?;
    // Untimed, like the other checks: the probe's wait is mostly each
    // worker's accept poll, a 5 ms timer.
    for fleet in &fleets {
        healthy(fleet)?;
    }
    let mut fleet = fleets.pop().expect("repeated_setup keeps a state");
    let (m, n, d, g) = SHAPE;
    report.note(format!(
        "fanout_query: {CLUSTER_WORKERS} loopback workers, 1 closed-loop client; rounds of \
         load (m={m}, n={n}, d={d}, g={g}) + {QUERIES_PER_ROUND} distinct BFS/auto exact-length queries"
    ));
    let share = if report.traced() { 0.5 } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds * share);
    let (pass, _) = closed_loop(&mut fleet.session, args.seed, budget, None)?;
    check(&pass, report);

    if !report.traced() {
        report.note(format!(
            "query_p50_ms = {} ms, query_p90_ms = {} ms (n={} queries, {} lines)",
            median(&pass.query_ms),
            quantile(&pass.query_ms, 0.9),
            pass.query_ms.len(),
            pass.lines.len()
        ));
        report.set("setup_s", setup_s);
        report.set("uncached_ms", median(&pass.query_ms));
        report.set("uncached_p90_ms", quantile(&pass.query_ms, 0.9));
        report.set(
            "throughput_per_s",
            1e3 * pass.query_ms.len() as f64 / pass.total_ms,
        );
        return Ok(());
    }

    let mut second = fleets.pop().expect("repeated_setup keeps two states");
    let (traced, local_ms) = closed_loop(&mut second.session, args.seed, budget, Some(tracer))?;
    check(&traced, report);
    let (rpcs, failures, p50_us) = rpc_counters(&second.spec);
    let windows = bsc_cluster::client_for(&second.spec).window_cache_json();
    report.set("cluster.rpcs", rpcs);
    report.set("cluster.rpc_failures", failures);
    report.set("cluster.rpc_p50_us", p50_us);
    report.set(
        "cluster.window_cache.hits",
        windows
            .get("hits")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
    );
    report.set(
        "cluster.worker.solves",
        second.workers.iter().map(|w| w.solves() as f64).sum(),
    );
    report.set(
        "cluster.worker.installs",
        second.workers.iter().map(|w| w.installs() as f64).sum(),
    );
    report.set(
        "service.session.load_ms",
        median(&tracer.layer_ms("service.session.load")),
    );
    report.set("core.solve.local_ms", median(&local_ms));
    let traced_query = tracer.duration_ms("fanout.query");
    report.set(
        "bench.trace.overhead_ms",
        median(&traced_query) - median(&pass.query_ms),
    );
    report.note(format!(
        "trace: query p50 {} ms traced vs {} ms untraced, {} ms sharded in process \
         (n={} / n={} / n={})",
        median(&traced_query),
        median(&pass.query_ms),
        median(&local_ms),
        traced_query.len(),
        pass.query_ms.len(),
        local_ms.len()
    ));
    for worker in fleet.workers.iter_mut().chain(second.workers.iter_mut()) {
        worker.kill();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut rounds = Rounds::new(seed);
            (0..3).map(|_| rounds.next_round()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        for (_, lines) in draw(9) {
            assert_eq!(lines.len(), 1 + QUERIES_PER_ROUND);
            let mut queries = lines[1..].to_vec();
            queries.sort();
            queries.dedup();
            assert_eq!(
                queries.len(),
                QUERIES_PER_ROUND,
                "queries in a round are distinct"
            );
        }
    }

    #[test]
    fn the_coordinator_transcript_matches_the_oracle() {
        let mut fleet = setup().expect("loopback fleet");
        healthy(&fleet).expect("healthy workers");
        let (pass, _) =
            closed_loop(&mut fleet.session, 4, Duration::from_millis(1), None).expect("pass");
        assert_eq!(pass.lines.len(), 1 + QUERIES_PER_ROUND);
        let mut report = Report::new(false);
        check(&pass, &mut report);
        assert_eq!(report.failed, 0);
        assert_eq!(report.attempted, pass.lines.len() as u64);
        assert!(fleet.workers.iter().map(|w| w.solves()).sum::<u64>() > 0);
    }
}
