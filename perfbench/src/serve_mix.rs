//! `serve_mix`: a resident query engine answering a skewed query mix.
//!
//! The engine holds the cluster graph `week_batch` builds (from one fixed
//! corpus). An open-loop generator sends queries on a Poisson schedule
//! whatever the engine's state, picking among query templates by a Zipf
//! law, so popular ones hit the bounded cache and the rest solve. A second
//! engine holds the same graph without a cache: one client per core sends
//! it every template in turn (the solve capacity), then one client alone
//! (the solve path, with nothing queued ahead). These give the workload's
//! gated figures. Last, a closed loop with one client per core on the
//! cached engine gives the mix's peak rate. The open loop's percentiles and
//! the peak rate are printed, not gated: on a 2-core machine they move with
//! thread hand-offs and queueing more than with the program. Problem 2
//! (normalized) queries are not served; see [`normalized_templates`].
//!
//! Each query is timed from its *scheduled* send time to the receipt of its
//! own answer. Every admitted ticket is awaited on its own thread, so a
//! query that finishes before an earlier one is not held behind it (the
//! bias of awaiting tickets in submission order is avoided, not bounded).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bsc_baselines::exhaustive::ExhaustiveSolver;
use bsc_core::error::BscError;
use bsc_core::pipeline::{Pipeline, PipelineParams};
use bsc_core::problem::StableClusterSpec;
use bsc_core::snapshot::GraphSnapshot;
use bsc_core::solver::{AlgorithmKind, Solution, StableClusterSolver};
use bsc_corpus::synthetic::{SyntheticBlogosphere, ZipfSampler};
use bsc_service::engine::{EngineConfig, QueryEngine, QueryRequest, QueryResponse};
use bsc_util::DetRng;

use crate::report::Report;
use crate::speed::HostSpeed;
use crate::stats::{beyond, median, ms, ms_between, paths_digest, quantile, Fnv};
use crate::trace::{traced, Tracer};
use crate::{repeated_setup, Args, ENGINE_WORKERS};

/// Solution-cache entries: fewer than the templates, so the tail misses.
pub const CACHE_CAPACITY: usize = 12;
/// Admission-queue capacity: deep enough that the open loop never sheds at
/// its rate.
pub const QUEUE_CAPACITY: usize = 1_024;
/// Corpus seed of the served graph. The graph is the same in every run, so
/// runs differ in their traffic (`--seed`) and not in what each template
/// costs to solve: seed-to-seed differences in the week's cluster graph
/// moved the solve-path latencies by more than the benchmark's bounds.
pub const CORPUS_SEED: u64 = 1;
/// Zipf exponent of the template pick.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Shares of an untraced run's seconds: the open loop, the solve capacity,
/// the solve path and the cached closed loop.
pub const OPEN_LOOP_SHARE: f64 = 0.35;
/// See [`OPEN_LOOP_SHARE`].
pub const CAPACITY_SHARE: f64 = 0.25;
/// See [`OPEN_LOOP_SHARE`].
pub const SOLVE_PATH_SHARE: f64 = 0.3;
/// See [`OPEN_LOOP_SHARE`].
pub const CLOSED_LOOP_SHARE: f64 = 0.1;
/// Queries in a closed-loop client's deck.
pub const DECK: usize = 300;
/// The serve latency limit on the 99th percentile.
pub const P99_LIMIT_MS: f64 = 100.0;

/// Closed-loop clients: one per core.
pub fn clients() -> usize {
    crate::stats::cores()
}

/// One query shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Template {
    /// Answering algorithm.
    pub algorithm: AlgorithmKind,
    /// Problem.
    pub spec: StableClusterSpec,
    /// Results wanted.
    pub k: usize,
}

impl Template {
    fn request(self) -> QueryRequest {
        QueryRequest::new(self.algorithm, self.spec, self.k)
    }
}

fn parse_templates(pool: &[(&str, &str, usize)]) -> Vec<Template> {
    pool.iter()
        .map(|&(algorithm, spec, k)| Template {
            algorithm: AlgorithmKind::parse(algorithm).expect("known algorithm"),
            spec: StableClusterSpec::parse(spec).expect("known spec"),
            k,
        })
        .collect()
}

/// The served templates, most popular first: BFS, DFS, TA and the auto
/// policy over several (spec, k). TA answers full-length paths only (6
/// hops over a week). The count is odd, so the median of the solve path,
/// which weighs every template alike, falls inside one template's times
/// rather than on the step between two.
pub fn templates() -> Vec<Template> {
    parse_templates(&[
        ("bfs", "exact:3", 10),
        ("auto", "exact:3", 10),
        ("bfs", "exact:2", 10),
        ("bfs", "full", 10),
        ("ta", "full", 10),
        ("dfs", "exact:3", 10),
        ("bfs", "exact:4", 5),
        ("auto", "exact:5", 10),
        ("bfs", "exact:5", 20),
        ("dfs", "exact:2", 5),
        ("ta", "full", 5),
        ("auto", "full", 5),
        ("bfs", "exact:6", 10),
        ("dfs", "exact:4", 10),
        ("ta", "full", 20),
        ("auto", "exact:2", 20),
        ("bfs", "exact:3", 20),
        ("dfs", "full", 5),
        ("auto", "exact:4", 5),
        ("bfs", "exact:2", 5),
        ("dfs", "exact:6", 10),
        ("ta", "exact:6", 5),
        ("bfs", "exact:4", 20),
    ])
}

/// Problem 2 (normalized stability) templates. They are left out of the
/// served mix: on the week's cluster graph the normalized solver's answer
/// differs from the normalized-exhaustive oracle (its Theorem 1 prefix
/// drop discards a prefix that a weaker extension later needs), so no run
/// serving them could be correct. [`normalized_probe`] solves them once
/// per run, reports the disagreement and times the solver.
pub fn normalized_templates() -> Vec<Template> {
    parse_templates(&[
        ("normalized", "normalized:2", 10),
        ("normalized", "normalized:3", 5),
        ("normalized", "normalized:4", 10),
        ("normalized", "normalized:2", 20),
        ("auto", "normalized:3", 10),
    ])
}

/// The open-loop schedule: `(scheduled µs from start, template index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Arrivals in time order.
    pub arrivals: Vec<(u64, usize)>,
    /// FNV-1a over the rate, length, seed and every arrival.
    pub hash: u64,
}

/// Poisson arrivals at `qps` for `millis`, templates by Zipf rank: a pure
/// function of its arguments.
pub fn schedule(seed: u64, qps: f64, millis: u64, templates: usize) -> Schedule {
    let zipf = ZipfSampler::new(templates, ZIPF_EXPONENT);
    let mut rng = DetRng::seed_from_u64(seed);
    let mean_gap_us = 1e6 / qps;
    let mut arrivals = Vec::new();
    let mut clock = 0.0f64;
    loop {
        // Exponential gap: -ln(1 - u) * mean, with 1 - u in (0, 1].
        clock += -(1.0 - rng.next_f64()).ln() * mean_gap_us;
        let at = clock as u64;
        if at >= millis * 1_000 {
            break;
        }
        arrivals.push((at, zipf.sample(&mut rng)));
    }
    let mut hash = Fnv::default();
    for value in [qps.to_bits(), millis, seed, templates as u64] {
        hash.mix(value);
    }
    for &(at, template) in &arrivals {
        hash.mix(at);
        hash.mix(template as u64);
    }
    Schedule {
        arrivals,
        hash: hash.finish(),
    }
}

/// A started engine over the week's cluster graph.
pub struct Served {
    engine: QueryEngine,
    /// The same graph behind an engine without a cache, for the solve path.
    uncached: QueryEngine,
    snapshot: GraphSnapshot,
}

fn setup(seed: u64) -> Result<Served, String> {
    let corpus = SyntheticBlogosphere::new(crate::week_batch::corpus_config(seed)).generate();
    let build = Pipeline::new(PipelineParams::default())
        .and_then(|pipeline| pipeline.build_snapshot(&corpus.timeline))
        .map_err(|e| format!("graph build failed: {e}"))?;
    let start = |cache| {
        QueryEngine::new(
            EngineConfig::default()
                .workers(ENGINE_WORKERS)
                .queue_capacity(QUEUE_CAPACITY)
                .cache_capacity(cache),
        )
        .map_err(|e| format!("engine start failed: {e}"))
    };
    let engine = start(CACHE_CAPACITY)?;
    let uncached = start(0)?;
    uncached.install(build.snapshot.clone());
    let snapshot = engine.install(build.snapshot);
    Ok(Served {
        engine,
        uncached,
        snapshot,
    })
}

/// The one-shot answers every engine answer must reproduce bit for bit,
/// each checked against the exhaustive oracle; with each template's direct
/// solve time (median of `repeats`) and work counters.
struct Expected {
    digests: Vec<u64>,
    solve_ms: Vec<f64>,
    paths_generated: u64,
    node_reads: u64,
    node_writes: u64,
}

/// Solve `template` directly `repeats` times: the last solution, the median
/// solve time and whether it matches the exhaustive oracle.
fn solve_checked(
    snapshot: &GraphSnapshot,
    template: &Template,
    repeats: usize,
) -> Result<(Solution, f64, bool), String> {
    let mut times = Vec::new();
    let mut solution = None;
    for _ in 0..repeats {
        let mut solver = template
            .algorithm
            .build(template.spec, template.k, snapshot.num_intervals())
            .map_err(|e| format!("{template:?}: {e}"))?;
        let begun = Instant::now();
        let solved = solver
            .solve_snapshot(snapshot)
            .map_err(|e| format!("{template:?}: {e}"))?;
        times.push(ms(begun.elapsed()));
        solution = Some(solved);
    }
    let solution = solution.expect("at least one repeat");
    let oracle = ExhaustiveSolver::new(template.spec, template.k)
        .solve(snapshot.graph())
        .map_err(|e| format!("oracle: {e}"))?;
    let ok = crate::stats::matches_oracle(template.spec, &solution.paths, &oracle.paths);
    Ok((solution, median(&times), ok))
}

fn expected(
    snapshot: &GraphSnapshot,
    templates: &[Template],
    repeats: usize,
    report: &mut Report,
) -> Result<Expected, String> {
    let mut out = Expected {
        digests: Vec::new(),
        solve_ms: Vec::new(),
        paths_generated: 0,
        node_reads: 0,
        node_writes: 0,
    };
    for template in templates {
        let (solution, time, ok) = solve_checked(snapshot, template, repeats)?;
        if !ok {
            report.note(format!(
                "MISMATCH serve_mix: {template:?} differs from the oracle"
            ));
        }
        report.outcome(ok);
        out.digests.push(paths_digest(&solution.paths));
        out.solve_ms.push(time);
        out.paths_generated += solution.stats.paths_generated;
        out.node_reads += solution.stats.node_reads;
        out.node_writes += solution.stats.node_writes;
    }
    Ok(out)
}

/// Solve the Problem 2 templates once outside the engine, report whether
/// each agrees with the oracle, and return their solve times.
fn normalized_probe(
    snapshot: &GraphSnapshot,
    repeats: usize,
    report: &Report,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for template in normalized_templates() {
        let (_, time, ok) = solve_checked(snapshot, &template, repeats)?;
        report.note(format!(
            "normalized probe (not served): {} {} k={}: {} the oracle",
            template.algorithm,
            template.spec,
            template.k,
            if ok {
                "agrees with"
            } else {
                "KNOWN DEFECT, disagrees with"
            }
        ));
        times.push(time);
    }
    Ok(times)
}

/// What an open-loop pass measured.
#[derive(Debug, Default)]
struct OpenLoop {
    latency_ms: Vec<f64>,
    uncached_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    offered: u64,
    shed: u64,
    errors: u64,
    wrong: u64,
}

fn open_loop(
    engine: &QueryEngine,
    schedule: &Schedule,
    templates: &[Template],
    digests: &[u64],
    tracer: Option<&Tracer>,
) -> OpenLoop {
    type Answer = (
        usize,
        Instant,
        Option<u64>,
        Instant,
        Result<QueryResponse, BscError>,
    );
    let mut out = OpenLoop {
        offered: schedule.arrivals.len() as u64,
        ..OpenLoop::default()
    };
    let (sender, answers) = mpsc::channel::<Answer>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, &(at, template)) in schedule.arrivals.iter().enumerate() {
            let due = start + Duration::from_micros(at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            out.lag_ms.push(ms_between(due, sent));
            let root = tracer.map(Tracer::reserve);
            let submitted = traced(tracer, "service.admission.submit", root, i as u64, |_| {
                engine.try_submit_at(templates[template].request(), at)
            });
            match submitted {
                Ok(ticket) => {
                    let sender = sender.clone();
                    scope.spawn(move || {
                        let answer = ticket.wait();
                        let done = Instant::now();
                        // The receiver outlives the scope; a send cannot fail.
                        let _ = sender.send((template, due, root, done, answer));
                    });
                }
                Err(BscError::Saturated { .. }) => out.shed += 1,
                Err(_) => out.errors += 1,
            }
        }
    });
    drop(sender);
    for (request, (template, due, root, done, answer)) in answers.into_iter().enumerate() {
        if let (Some(tracer), Some(root)) = (tracer, root) {
            tracer.record(root, "serve.query", None, request as u64, due, done);
        }
        match answer {
            Ok(response) => {
                let latency = ms_between(due, done);
                out.latency_ms.push(latency);
                if !response.cached {
                    out.uncached_ms.push(latency);
                }
                if paths_digest(&response.solution.paths) != digests[template] {
                    out.wrong += 1;
                }
            }
            Err(_) => out.errors += 1,
        }
    }
    out
}

/// Template picks in exact Zipf proportions over about [`DECK`] queries,
/// in an order shuffled by `seed`. A closed-loop client cycles through its
/// own deck, so every run sends the same mix of templates (and so of cache
/// misses and solves) and runs differ only in its order.
pub fn deck(templates: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=templates)
        .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut deck = Vec::new();
    for (template, weight) in weights.iter().enumerate() {
        let copies = ((DECK as f64 * weight / total).round() as usize).max(1);
        deck.extend(std::iter::repeat_n(template, copies));
    }
    DetRng::seed_from_u64(seed).shuffle(&mut deck);
    deck
}

/// The cached mix's decks for `round`: one per client, each a [`deck`]
/// shuffled afresh by the seed, so the median is over many orders.
fn zipf_decks(templates: usize, seed: u64, round: u64) -> Vec<Vec<usize>> {
    (0..clients() as u64)
        .map(|client| {
            let stream = round << 8 | client;
            deck(
                templates,
                seed ^ (stream + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
        })
        .collect()
}

/// The solve-capacity decks: every template once per client in the fixed
/// order, client `c` starting `c / clients` of the way in, so no two
/// clients ask for the same template at once and nothing coalesces. Every
/// round does the same work.
fn capacity_decks(templates: usize) -> Vec<Vec<usize>> {
    let clients = clients();
    (0..clients)
        .map(|client| {
            let offset = client * templates / clients;
            (0..templates).map(|i| (i + offset) % templates).collect()
        })
        .collect()
}

/// What a closed loop measured.
struct ClosedLoop {
    answered: u64,
    failed: u64,
    /// Median over rounds of answers per second at the reference speed.
    rate: f64,
    /// Answers per second over all rounds, as measured.
    raw_rate: f64,
}

/// Closed loop: one thread per deck sends its next query as soon as the
/// previous one is answered. The budget is spent in rounds; in each, every
/// client goes once through its deck (`decks(round)`), after the host speed
/// is measured.
fn closed_loop(
    engine: &QueryEngine,
    templates: &[Template],
    digests: &[u64],
    decks: impl Fn(u64) -> Vec<Vec<usize>>,
    budget: Duration,
    speed: &mut HostSpeed,
) -> ClosedLoop {
    let (mut answered, mut failed) = (0u64, 0u64);
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < budget {
        let decks = decks(rounds.len() as u64);
        speed.calibrate();
        let begun = Instant::now();
        let per_client: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = decks
                .iter()
                .map(|deck| {
                    scope.spawn(move || {
                        let (mut answered, mut failed) = (0u64, 0u64);
                        for &template in deck {
                            match engine.query(templates[template].request()) {
                                Ok(response)
                                    if paths_digest(&response.solution.paths)
                                        == digests[template] =>
                                {
                                    answered += 1;
                                }
                                _ => failed += 1,
                            }
                        }
                        (answered, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client panicked"))
                .collect()
        });
        let round: u64 = per_client.iter().map(|c| c.0).sum();
        rounds.push((begun, begun.elapsed(), round));
        answered += round;
        failed += per_client.iter().map(|c| c.1).sum::<u64>();
    }
    speed.calibrate();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|&(begun, took, n)| 1e3 * n as f64 / speed.scaled_ms(begun, took))
        .collect();
    let wall_s: f64 = rounds.iter().map(|r| r.1.as_secs_f64()).sum();
    ClosedLoop {
        answered,
        failed,
        rate: median(&rates),
        raw_rate: answered as f64 / wall_s,
    }
}

/// What the solve path measured.
struct SolvePath {
    /// Each template's median latency in ms, as measured.
    raw_ms: Vec<f64>,
    /// The same at the reference host speed.
    scaled_ms: Vec<f64>,
    /// Each pass's mean latency over the templates in ms, as measured.
    raw_pass_ms: Vec<f64>,
    /// The same at the reference host speed.
    scaled_pass_ms: Vec<f64>,
    /// Queries answered.
    answered: u64,
    /// Errors or wrong answers.
    failed: u64,
}

/// The solve path: one client cycles through every template, in their
/// fixed order, against the engine without a cache, each query sent when
/// the previous one is answered. Every query is admitted, handed to a
/// worker, solved and answered with nothing queued ahead of it, and the
/// template mix is the same in every run. Each template's latency is the
/// median over its turns, so percentiles over templates weigh every
/// template alike and one slow turn moves none of them; each pass over the
/// templates gives their mean latency.
fn solve_path(
    engine: &QueryEngine,
    templates: &[Template],
    digests: &[u64],
    budget: Duration,
    speed: &mut HostSpeed,
) -> SolvePath {
    let mut times = vec![Vec::new(); templates.len()];
    let (mut answered, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    for template in (0..templates.len()).cycle() {
        if template == 0 && answered + failed > 0 && start.elapsed() >= budget {
            break;
        }
        speed.tick();
        let begun = Instant::now();
        match engine.query(templates[template].request()) {
            Ok(response) if paths_digest(&response.solution.paths) == digests[template] => {
                times[template].push((begun, begun.elapsed()));
                answered += 1;
            }
            _ => failed += 1,
        }
    }
    speed.calibrate();
    let medians = |time: &dyn Fn(Instant, Duration) -> f64| -> Vec<f64> {
        times
            .iter()
            .map(|turns| {
                let ms: Vec<f64> = turns
                    .iter()
                    .map(|&(begun, took)| time(begun, took))
                    .collect();
                median(&ms)
            })
            .collect()
    };
    let passes = times.iter().map(Vec::len).min().unwrap_or(0);
    let pass_means = |time: &dyn Fn(Instant, Duration) -> f64| -> Vec<f64> {
        (0..passes)
            .map(|pass| {
                let total: f64 = times
                    .iter()
                    .map(|turns| time(turns[pass].0, turns[pass].1))
                    .sum();
                total / times.len() as f64
            })
            .collect()
    };
    SolvePath {
        raw_ms: medians(&|_, took| ms(took)),
        scaled_ms: medians(&|begun, took| speed.scaled_ms(begun, took)),
        raw_pass_ms: pass_means(&|_, took| ms(took)),
        scaled_pass_ms: pass_means(&|begun, took| speed.scaled_ms(begun, took)),
        answered,
        failed,
    }
}

fn count_open_loop(pass: &OpenLoop, report: &mut Report) {
    report.outcomes(pass.offered, pass.shed + pass.errors + pass.wrong);
}

/// Run the workload.
pub fn run(
    args: &Args,
    report: &mut Report,
    tracer: &Tracer,
    speed: &mut HostSpeed,
) -> Result<(), String> {
    let qps = args.serve_qps.ok_or("serve_mix needs --serve-qps")?;
    let (mut states, setup_s) = repeated_setup(speed, |_| setup(CORPUS_SEED))?;
    let templates = templates();
    let served = states.pop().expect("repeated_setup keeps a state");
    report.note(format!(
        "serve_mix: cluster graph {} nodes / {} edges over {} intervals; {} templates, \
         Zipf s={ZIPF_EXPONENT}, cache {CACHE_CAPACITY} entries, open loop at {} qps, \
         each ticket awaited on its own thread (submission-order bias avoided)",
        served.snapshot.num_nodes(),
        served.snapshot.num_edges(),
        served.snapshot.num_intervals(),
        templates.len(),
        qps
    ));
    let repeats = if report.traced() { 3 } else { 1 };
    let expected = expected(&served.snapshot, &templates, repeats, report)?;
    let normalized_ms = normalized_probe(&served.snapshot, repeats, report)?;
    // Untraced: open loop, then the solve path, then the peak rate.
    // Traced: the open loop twice (untraced, traced).
    let open_share = if report.traced() {
        0.4
    } else {
        OPEN_LOOP_SHARE
    };
    let millis = (args.seconds * open_share * 1e3) as u64;
    let schedule = schedule(args.seed, qps, millis, templates.len());
    report.note(format!(
        "schedule: {} arrivals over {millis} ms, fnv {:016x}",
        schedule.arrivals.len(),
        schedule.hash
    ));

    if !report.traced() {
        let pass = open_loop(
            &served.engine,
            &schedule,
            &templates,
            &expected.digests,
            None,
        );
        count_open_loop(&pass, report);
        let capacity = closed_loop(
            &served.uncached,
            &templates,
            &expected.digests,
            |_| capacity_decks(templates.len()),
            Duration::from_secs_f64(args.seconds * CAPACITY_SHARE),
            speed,
        );
        report.outcomes(capacity.answered + capacity.failed, capacity.failed);
        let solve = solve_path(
            &served.uncached,
            &templates,
            &expected.digests,
            Duration::from_secs_f64(args.seconds * SOLVE_PATH_SHARE),
            speed,
        );
        report.outcomes(solve.answered + solve.failed, solve.failed);
        let peak = closed_loop(
            &served.engine,
            &templates,
            &expected.digests,
            |round| zipf_decks(templates.len(), args.seed, round),
            Duration::from_secs_f64(args.seconds * CLOSED_LOOP_SHARE),
            speed,
        );
        report.outcomes(peak.answered + peak.failed, peak.failed);
        let n = pass.latency_ms.len();
        let p99 = quantile(&pass.latency_ms, 0.99);
        report.note(format!(
            "query_p50_ms = {} ms, query_p99_ms = {p99} ms (n={n}, {} beyond; limit \
             {P99_LIMIT_MS} ms {}), query_solve_p50_ms = {} ms (n={})",
            median(&pass.latency_ms),
            beyond(&pass.latency_ms, 0.99),
            if p99 <= P99_LIMIT_MS && pass.shed + pass.errors == 0 {
                "met"
            } else {
                "MISSED"
            },
            median(&pass.uncached_ms),
            pass.uncached_ms.len()
        ));
        report.note(format!(
            "solve path (cache-less engine, 1 client, every template in turn): mean latency \
             of a pass {} ms at the reference speed, {} ms as measured (median of {} passes); \
             over the {} templates' medians p50 {} ms, p90 {} ms at the reference speed, {} ms \
             and {} ms as measured (n={} queries)",
            median(&solve.scaled_pass_ms),
            median(&solve.raw_pass_ms),
            solve.scaled_pass_ms.len(),
            templates.len(),
            median(&solve.scaled_ms),
            quantile(&solve.scaled_ms, 0.9),
            median(&solve.raw_ms),
            quantile(&solve.raw_ms, 0.9),
            solve.answered
        ));
        report.note(format!(
            "query_fail_ratio = {} (shed {}, errors {}, wrong {} of {} offered); \
             peak_qps = {} 1/s at the reference speed, {} 1/s as measured (cached Zipf \
             mix, {} clients, n={}; not gated: its rate swung by a factor of two between \
             rounds of one run); bench.gen.lag_p99_ms = {} ms",
            (pass.shed + pass.errors + pass.wrong) as f64 / pass.offered.max(1) as f64,
            pass.shed,
            pass.errors,
            pass.wrong,
            pass.offered,
            peak.rate,
            peak.raw_rate,
            clients(),
            peak.answered,
            quantile(&pass.lag_ms, 0.99)
        ));
        report.note(format!(
            "solve capacity (cache-less engine, {} clients, every template in turn): {} 1/s \
             at the reference speed, {} 1/s as measured (n={})",
            clients(),
            capacity.rate,
            capacity.raw_rate,
            capacity.answered
        ));
        report.set("setup_s", setup_s);
        report.set("uncached_ms", median(&solve.scaled_pass_ms));
        report.set("uncached_p90_ms", quantile(&solve.scaled_ms, 0.9));
        report.set("throughput_per_s", capacity.rate);
        return Ok(());
    }

    // Traced run: the same schedule untraced on one engine, traced on an
    // identical second one, so the engine counters belong to one pass.
    let untraced = open_loop(
        &served.engine,
        &schedule,
        &templates,
        &expected.digests,
        None,
    );
    count_open_loop(&untraced, report);
    let second = states.pop().expect("repeated_setup keeps two states");
    let pass = open_loop(
        &second.engine,
        &schedule,
        &templates,
        &expected.digests,
        Some(tracer),
    );
    count_open_loop(&pass, report);
    report.set("core.solve.normalized.p50_ms", median(&normalized_ms));
    for name in ["bfs", "dfs", "ta", "auto"] {
        let times: Vec<f64> = templates
            .iter()
            .zip(&expected.solve_ms)
            .filter(|(t, _)| t.algorithm.name() == name)
            .map(|(_, &time)| time)
            .collect();
        report.set(&format!("core.solve.{name}.p50_ms"), median(&times));
    }
    report.set(
        "core.solve.paths_generated",
        expected.paths_generated as f64,
    );
    report.set("storage.node_reads", expected.node_reads as f64);
    report.set("storage.node_writes", expected.node_writes as f64);
    let stats = second.engine.stats();
    let lookups = stats.cache.hits + stats.cache.misses;
    report.set(
        "service.cache.hit_ratio",
        stats.cache.hits as f64 / lookups.max(1) as f64,
    );
    report.set("service.batch.coalesced", stats.coalesced as f64);
    report.set(
        "service.admission.submit_us",
        median(&tracer.layer_ms("service.admission.submit")) * 1e3,
    );
    report.set(
        "service.admission.queue_wait_p99_ms",
        stats.queue_wait.p99_micros() as f64 / 1e3,
    );
    report.set("service.admission.shed", pass.shed as f64);
    report.set("bench.gen.lag_p99_ms", quantile(&untraced.lag_ms, 0.99));
    report.set(
        "bench.trace.overhead_ms",
        median(&pass.latency_ms) - median(&untraced.latency_ms),
    );
    report.note(format!(
        "trace: query p50 {} ms traced vs {} ms untraced (n={} / n={})",
        median(&pass.latency_ms),
        median(&untraced.latency_ms),
        pass.latency_ms.len(),
        untraced.latency_ms.len()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(11, 200.0, 500, 27);
        assert_eq!(a, schedule(11, 200.0, 500, 27));
        assert!(!a.arrivals.is_empty());
        let b = schedule(12, 200.0, 500, 27);
        assert_ne!(a.hash, b.hash);
        assert_ne!(a.arrivals, b.arrivals);
        assert!(a.arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.arrivals.iter().all(|&(at, t)| at < 500_000 && t < 27));
    }

    #[test]
    fn every_template_is_distinct_and_buildable_on_a_week() {
        let mut templates = templates();
        templates.extend(normalized_templates());
        for (i, t) in templates.iter().enumerate() {
            assert!(t.algorithm.supports(t.spec, 7), "{t:?}");
            assert!(!templates[..i].contains(t), "duplicate {t:?}");
        }
    }
}
