//! Metric names, units and the report a run prints.
//!
//! The lists below are the benchmark's contract with `BENCHMARK.json`: an
//! untraced run prints every end-to-end metric, a traced run every
//! per-layer metric (0 for a layer the workload does not drive). A test
//! checks that the two stay in step.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Each workload defines its own
/// operation; see the benchmark's README for the table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("uncached_ms", "ms"),
    ("uncached_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // corpus
    ("corpus.generate.busy_ms", "ms"),
    ("corpus.pairs.busy_ms", "ms"),
    ("corpus.pairs.count", "count"),
    // graph
    ("graph.keyword_graph.busy_ms", "ms"),
    ("graph.keyword_graph.edges", "count"),
    ("graph.prune.busy_ms", "ms"),
    ("graph.prune.kept_ratio", "ratio"),
    ("graph.extract.busy_ms", "ms"),
    ("graph.extract.clusters", "count"),
    // core
    ("core.cluster_graph.busy_ms", "ms"),
    ("core.cluster_graph.edges", "count"),
    ("core.solve.busy_ms", "ms"),
    ("core.solve.bfs.p50_ms", "ms"),
    ("core.solve.dfs.p50_ms", "ms"),
    ("core.solve.ta.p50_ms", "ms"),
    ("core.solve.normalized.p50_ms", "ms"),
    ("core.solve.auto.p50_ms", "ms"),
    ("core.solve.paths_generated", "count"),
    ("core.solve.local_ms", "ms"),
    ("core.streaming.push_ms", "ms"),
    ("core.streaming.snapshot_ms", "ms"),
    ("core.streaming.top_k_ms", "ms"),
    ("core.delta.windows_resolved", "count"),
    ("core.delta.windows_spliced", "count"),
    // storage
    ("storage.node_reads", "count"),
    ("storage.node_writes", "count"),
    // service
    ("service.protocol.parse_ms", "ms"),
    ("service.session.load_ms", "ms"),
    ("service.admission.submit_us", "us"),
    ("service.admission.queue_wait_p99_ms", "ms"),
    ("service.admission.shed", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.carried_forward", "count"),
    ("service.batch.coalesced", "count"),
    ("service.engine.install_ms", "ms"),
    ("service.engine.query_ms", "ms"),
    // cluster
    ("cluster.rpcs", "count"),
    ("cluster.rpc_failures", "count"),
    ("cluster.rpc_p50_us", "us"),
    ("cluster.window_cache.hits", "count"),
    ("cluster.worker.solves", "count"),
    ("cluster.worker.installs", "count"),
    // the benchmark itself
    ("bench.gen.lag_p99_ms", "ms"),
    ("bench.trace.overhead_ms", "ms"),
    ("bench.trace.spans", "count"),
];

/// What one run prints: human-readable lines as it goes, then one JSON
/// line with the metrics of its mode.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (at least 1 in a finished run).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
}

impl Report {
    /// A report for an untraced (`trace == false`) or traced run. Traced
    /// runs start every per-layer metric at 0: a layer the workload does
    /// not drive did no work.
    pub fn new(trace: bool) -> Report {
        let values = if trace {
            PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
        } else {
            BTreeMap::new()
        };
        Report {
            trace,
            values,
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.trace
    }

    fn metrics(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Set a metric of this run's mode; a name outside the mode's list is
    /// a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .metrics()
            .iter()
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's list"));
        println!("metric {name} = {value} {unit}");
        self.values.insert(name, value);
    }

    /// Print a line of the human-readable report.
    pub fn note(&self, line: impl AsRef<str>) {
        println!("{}", line.as_ref());
    }

    /// Count one operation and whether it succeeded.
    pub fn outcome(&mut self, ok: bool) {
        self.outcomes(1, u64::from(!ok));
    }

    /// Count `attempted` operations of which `failed` did not succeed.
    pub fn outcomes(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The final JSON line, or why the run cannot produce one.
    pub fn json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for &(name, unit) in self.metrics() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was never measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_util::json::{self, JsonValue};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_match_what_the_runs_print() {
        let doc = manifest();
        for (key, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let expected: Vec<(String, String)> = printed
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed(&doc, key), expected, "{key}");
            for (name, unit) in expected {
                assert!(valid_name(&name), "bad metric name {name}");
                assert!(!unit.is_empty(), "{name} has no unit");
            }
        }
        let workloads = doc.get("workloads").and_then(JsonValue::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
        assert!(names.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for trace in [false, true] {
            let mut report = Report::new(trace);
            let list = if trace { PER_LAYER } else { END_TO_END };
            for (i, &(name, _)) in list.iter().enumerate() {
                report.set(name, i as f64 + 0.5);
            }
            report.outcome(true);
            let line = report.json().expect("complete report");
            let doc = json::parse(&line).expect("the result line is JSON");
            let metrics = doc.get("metrics").and_then(JsonValue::as_object).unwrap();
            assert_eq!(metrics.len(), list.len());
            for &(name, unit) in list {
                assert_eq!(
                    metrics[name].get("unit").and_then(JsonValue::as_str),
                    Some(unit)
                );
            }
        }
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_fails_the_report() {
        let mut report = Report::new(false);
        report.outcome(true);
        assert!(report.json().is_err());
    }
}
