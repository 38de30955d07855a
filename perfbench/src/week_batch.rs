//! `week_batch`: corpus → stable clusters, the paper's batch pipeline.
//!
//! One operation is one `Pipeline::run` over a generated week of posts with
//! the default parameters (BFS, exact length 3, k = 10). The traced run
//! replays the same stages call by call, with a span around each, and must
//! rebuild a byte-identical cluster graph and top-k.

use std::time::{Duration, Instant};

use bsc_baselines::exhaustive::ExhaustiveSolver;
use bsc_core::cluster_graph::{ClusterGraph, ClusterGraphBuilder};
use bsc_core::pipeline::{Pipeline, PipelineOutcome, PipelineParams};
use bsc_core::snapshot::GraphSnapshot;
use bsc_core::solver::StableClusterSolver;
use bsc_corpus::pairs::PairCounter;
use bsc_corpus::synthetic::{GeneratedCorpus, SyntheticBlogosphere, SyntheticConfig};
use bsc_graph::keyword_graph::KeywordGraphBuilder;

use crate::report::Report;
use crate::speed::HostSpeed;
use crate::stats::{median, ms, paths_digest, quantile, Fnv};
use crate::trace::{traced, Tracer};
use crate::{repeated_setup, Args};

/// Posts per day: at the paper's 2000 the cluster graph is too small for
/// the stages after clustering to register.
pub const POSTS_PER_DAY: usize = 4_000;

/// The stages of one run, in pipeline order (span names).
pub const STAGES: [&str; 6] = [
    "corpus.pairs",
    "graph.keyword_graph",
    "graph.prune",
    "graph.extract",
    "core.cluster_graph",
    "core.solve",
];

/// The generated week for `seed`.
pub fn corpus_config(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        posts_per_interval: POSTS_PER_DAY,
        ..SyntheticConfig::week_jan_2007()
    }
    .with_seed(seed)
}

/// A corpus and the pipeline that runs over it.
pub struct Batch {
    /// The generated posts.
    pub corpus: GeneratedCorpus,
    /// Default-parameter pipeline.
    pub pipeline: Pipeline,
}

/// Generate the corpus (the workload's set-up).
pub fn setup(config: &SyntheticConfig, tracer: Option<&Tracer>, request: u64) -> Batch {
    let corpus = traced(tracer, "corpus.generate", None, request, |_| {
        SyntheticBlogosphere::new(config.clone()).generate()
    });
    Batch {
        corpus,
        pipeline: Pipeline::new(PipelineParams::default()).expect("default parameters validate"),
    }
}

/// Bitwise digest of a cluster graph: shape, every edge and weight bit.
pub fn graph_digest(graph: &ClusterGraph) -> u64 {
    let mut hash = Fnv::default();
    hash.mix(graph.num_intervals() as u64);
    hash.mix(u64::from(graph.gap()));
    for interval in 0..graph.num_intervals() as u32 {
        hash.mix(u64::from(graph.nodes_in_interval(interval)));
    }
    for (from, to, weight) in graph.edges() {
        hash.mix(from.to_u64());
        hash.mix(to.to_u64());
        hash.mix(weight.to_bits());
    }
    hash.finish()
}

/// The cluster-graph and top-k digests of a finished run.
fn outcome_digests(outcome: &PipelineOutcome) -> (u64, u64) {
    (
        graph_digest(&outcome.cluster_graph),
        paths_digest(&outcome.stable_paths),
    )
}

/// What a stage-by-stage replay built and counted.
#[derive(Debug)]
pub struct Replay {
    /// [`graph_digest`] of the cluster graph.
    pub graph: u64,
    /// [`paths_digest`] of the top-k.
    pub paths: u64,
    /// Σ keyword pairs counted over the intervals.
    pub pairs: u64,
    /// Σ keyword-graph edges.
    pub keyword_edges: u64,
    /// Σ edges entering the prune.
    pub prune_in: u64,
    /// Σ edges surviving it.
    pub prune_kept: u64,
    /// Σ clusters extracted.
    pub clusters: u64,
    /// Cluster-graph edges.
    pub cluster_edges: u64,
}

/// The same run as `Pipeline::run`, stage by stage through the layers'
/// public calls, each inside a span under one `week.run` root.
pub fn replay(batch: &Batch, tracer: &Tracer, request: u64) -> Result<Replay, String> {
    // The clusters and graph leave the root span alive, as `Pipeline::run`
    // hands them to its caller.
    let (snapshot, paths, _clusters, mut replay) =
        tracer.span("week.run", None, request, |root| {
            let params = batch.pipeline.params();
            let root = Some(root);
            let counter = PairCounter::with_config(params.pair_counting.clone());
            let mut replay = Replay {
                graph: 0,
                paths: 0,
                pairs: 0,
                keyword_edges: 0,
                prune_in: 0,
                prune_kept: 0,
                clusters: 0,
                cluster_edges: 0,
            };
            let mut interval_clusters = Vec::new();
            for (interval, documents) in batch.corpus.timeline.iter() {
                let counts = tracer
                    .span(STAGES[0], root, request, |_| counter.count(documents))
                    .map_err(|e| format!("pair counting failed: {e}"))?;
                let keywords = tracer.span(STAGES[1], root, request, |_| {
                    KeywordGraphBuilder::from_pair_counts(&counts)
                });
                let (pruned, prune) =
                    tracer.span(STAGES[2], root, request, |_| params.prune.prune(&keywords));
                let clusters = tracer
                    .span(STAGES[3], root, request, |_| {
                        params.extractor.extract(&pruned, interval)
                    })
                    .map_err(|e| format!("cluster extraction failed: {e}"))?;
                replay.pairs += counts.num_pairs() as u64;
                replay.keyword_edges += keywords.num_edges() as u64;
                replay.prune_in += prune.input_edges as u64;
                replay.prune_kept += prune.surviving_edges as u64;
                replay.clusters += clusters.len() as u64;
                interval_clusters.push(clusters);
                // `Pipeline::run` frees each interval's intermediate structures
                // inside its loop too; each layer is charged for freeing its own.
                tracer.span(STAGES[0], root, request, |_| drop(counts));
                tracer.span(STAGES[1], root, request, |_| drop(keywords));
                tracer.span(STAGES[2], root, request, |_| drop(pruned));
            }
            let affinity = params.affinity.build();
            let graph = tracer.span(STAGES[4], root, request, |_| {
                ClusterGraphBuilder::from_clusters(
                    &interval_clusters,
                    affinity.as_ref(),
                    params.gap,
                    params.theta,
                )
            });
            replay.cluster_edges = graph.num_edges() as u64;
            let snapshot = GraphSnapshot::new(graph);
            let solution = tracer
                .span(STAGES[5], root, request, |_| {
                    batch.pipeline.solve_snapshot(&snapshot)
                })
                .map_err(|e| format!("solve failed: {e}"))?;
            Ok::<_, String>((snapshot, solution.paths, interval_clusters, replay))
        })?;
    // Digests are taken outside the root span: they are the check, not
    // part of the run.
    replay.graph = graph_digest(snapshot.graph());
    replay.paths = paths_digest(&paths);
    Ok(replay)
}

/// Check a run against the exhaustive oracle; returns its digests.
fn oracle_checked(batch: &Batch, report: &mut Report) -> Result<(u64, u64), String> {
    let outcome = batch
        .pipeline
        .run(&batch.corpus)
        .map_err(|e| format!("pipeline run failed: {e}"))?;
    let params = batch.pipeline.params();
    let oracle = ExhaustiveSolver::new(params.spec, params.k)
        .solve(outcome.cluster_graph.graph())
        .map_err(|e| format!("oracle failed: {e}"))?;
    let ok = crate::stats::matches_oracle(params.spec, &outcome.stable_paths, &oracle.paths);
    if !ok {
        report.note("MISMATCH week_batch: top-k differs from the exhaustive oracle");
    }
    report.outcome(ok);
    Ok(outcome_digests(&outcome))
}

/// Untraced runs until `budget` is spent: per-run ms as measured and at
/// the reference host speed. Every run must reproduce `expected`.
fn untraced_runs(
    batch: &Batch,
    budget: Duration,
    expected: (u64, u64),
    report: &mut Report,
    speed: &mut HostSpeed,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.is_empty() || start.elapsed() < budget {
        speed.tick();
        let begun = Instant::now();
        let outcome = batch
            .pipeline
            .run(&batch.corpus)
            .map_err(|e| format!("pipeline run failed: {e}"))?;
        times.push((begun, begun.elapsed()));
        report.outcome(outcome_digests(&outcome) == expected);
    }
    speed.calibrate();
    Ok((
        times.iter().map(|&(_, took)| ms(took)).collect(),
        times
            .iter()
            .map(|&(begun, took)| speed.scaled_ms(begun, took))
            .collect(),
    ))
}

/// Run the workload.
pub fn run(
    args: &Args,
    report: &mut Report,
    tracer: &Tracer,
    speed: &mut HostSpeed,
) -> Result<(), String> {
    let config = corpus_config(args.seed);
    let trace = report.traced().then_some(tracer);
    let (mut batches, setup_s) = repeated_setup(speed, |i| {
        Ok(setup(&config, trace, 1_000_000 + u64::from(i)))
    })?;
    let batch = batches.pop().expect("repeated_setup keeps a state");
    report.note(format!(
        "week_batch: {} posts over {} days, BFS exact:3 k=10 (default parameters)",
        batch.corpus.timeline.num_documents(),
        batch.corpus.timeline.num_intervals()
    ));
    // Warm-up run, checked against the oracle; every later run must
    // reproduce its digests bit for bit.
    let expected = oracle_checked(&batch, report)?;
    let budget = Duration::from_secs_f64(args.seconds);

    if !report.traced() {
        let (raw, samples) = untraced_runs(&batch, budget, expected, report, speed)?;
        report.note(format!(
            "batch_s = {} s at the reference speed, {} s as measured (median of n={} runs)",
            median(&samples) / 1e3,
            median(&raw) / 1e3,
            samples.len()
        ));
        report.set("setup_s", setup_s);
        report.set("uncached_ms", median(&samples));
        report.set("uncached_p90_ms", quantile(&samples, 0.9));
        report.set(
            "throughput_per_s",
            1e3 * samples.len() as f64 / samples.iter().sum::<f64>(),
        );
        return Ok(());
    }

    // Untraced runs and traced replays alternate, so a drift in machine
    // speed reaches both sides of the overhead comparison alike.
    let mut untraced = Vec::new();
    let mut replays = Vec::new();
    let start = Instant::now();
    while replays.is_empty() || start.elapsed() < budget {
        let (raw, _) = untraced_runs(&batch, Duration::ZERO, expected, report, speed)?;
        untraced.extend(raw);
        let replay = replay(&batch, tracer, replays.len() as u64)?;
        let identical = (replay.graph, replay.paths) == expected;
        if !identical {
            report.note("MISMATCH week_batch: the stage replay built a different graph or top-k");
        }
        report.outcome(identical);
        replays.push(replay);
    }
    let last = replays.last().expect("at least one replay");
    let mut stage_sum = 0.0;
    for (stage, metric) in STAGES.iter().zip([
        "corpus.pairs.busy_ms",
        "graph.keyword_graph.busy_ms",
        "graph.prune.busy_ms",
        "graph.extract.busy_ms",
        "core.cluster_graph.busy_ms",
        "core.solve.busy_ms",
    ]) {
        let busy = median(&tracer.layer_ms(stage));
        stage_sum += busy;
        report.set(metric, busy);
    }
    report.set(
        "corpus.generate.busy_ms",
        median(&tracer.layer_ms("corpus.generate")),
    );
    report.set("corpus.pairs.count", last.pairs as f64);
    report.set("graph.keyword_graph.edges", last.keyword_edges as f64);
    report.set(
        "graph.prune.kept_ratio",
        last.prune_kept as f64 / last.prune_in.max(1) as f64,
    );
    report.set("graph.extract.clusters", last.clusters as f64);
    report.set("core.cluster_graph.edges", last.cluster_edges as f64);
    let batch_ms = median(&untraced);
    let overhead = median(&tracer.duration_ms("week.run")) - batch_ms;
    report.set("bench.trace.overhead_ms", overhead);
    report.note(format!(
        "trace: stage busy times sum to {stage_sum} ms against batch_s {batch_ms} ms untraced \
         (n={} traced, n={} untraced runs): gap {} ms, tracing overhead {overhead} ms",
        replays.len(),
        untraced.len(),
        stage_sum - batch_ms
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_once(batch: &Batch) -> Result<(u64, u64), String> {
        let outcome = batch
            .pipeline
            .run(&batch.corpus)
            .map_err(|e| e.to_string())?;
        Ok(outcome_digests(&outcome))
    }

    fn small(seed: u64) -> Batch {
        setup(&SyntheticConfig::small().with_seed(seed), None, 0)
    }

    #[test]
    fn the_replay_rebuilds_what_pipeline_run_builds() {
        let batch = small(3);
        let tracer = Tracer::default();
        let replay = replay(&batch, &tracer, 0).expect("replay");
        assert_eq!((replay.graph, replay.paths), run_once(&batch).unwrap());
        for stage in STAGES {
            assert_eq!(tracer.layer_ms(stage).len(), 1, "{stage} recorded");
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_answer_digests() {
        assert_eq!(run_once(&small(5)).unwrap(), run_once(&small(5)).unwrap());
        assert_ne!(run_once(&small(5)).unwrap(), run_once(&small(6)).unwrap());
    }

    /// A stall injected into the benchmark's own span around one layer
    /// call shows up in that layer's busy time and in no other.
    #[test]
    fn a_slowed_stage_moves_only_its_own_metric() {
        let batch = small(3);
        let stall = Duration::from_millis(15);
        let busy = |tracer: &Tracer| -> Vec<f64> {
            for request in 0..3 {
                replay(&batch, tracer, request).expect("replay");
            }
            STAGES
                .iter()
                .map(|stage| median(&tracer.layer_ms(stage)))
                .collect()
        };
        let plain = busy(&Tracer::default());
        let slowed = busy(&Tracer::default().with_delay("graph.prune", stall));
        let intervals = batch.corpus.timeline.num_intervals() as f64;
        let added = ms(stall) * intervals;
        for ((stage, before), after) in STAGES.iter().zip(&plain).zip(&slowed) {
            if *stage == "graph.prune" {
                assert!(
                    after - before >= 0.9 * added,
                    "{stage}: {before} -> {after}"
                );
            } else {
                assert!(
                    (after - before).abs() < 0.25 * added,
                    "{stage} moved: {before} -> {after}"
                );
            }
        }
    }
}
