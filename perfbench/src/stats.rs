//! Order statistics, digests and the process readings every workload uses.

use std::time::{Duration, Instant};

use bsc_core::path::ClusterPath;
use bsc_core::problem::StableClusterSpec;

/// The value at quantile `q` of `samples`, linearly interpolated between
/// the two nearest order statistics (the "linear" method of numpy and of
/// Python's `statistics.quantiles(method="inclusive")`). 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the quantile-`q` value: the support
/// behind a tail percentile (a percentile is reported with at least ten).
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Milliseconds from `from` to `to` (0 if `to` is earlier).
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    ms(to.saturating_duration_since(from))
}

/// FNV-1a, the hash the repository uses for schedule and result digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix one 64-bit value in, byte by byte.
    pub fn mix(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix a string in (its length first, so concatenations differ).
    pub fn mix_str(&mut self, text: &str) {
        self.mix(text.len() as u64);
        for byte in text.bytes() {
            self.mix(u64::from(byte));
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Bitwise digest of a top-k answer: node ids and exact weight bits.
pub fn paths_digest(paths: &[ClusterPath]) -> u64 {
    let mut hash = Fnv::default();
    hash.mix(paths.len() as u64);
    for path in paths {
        hash.mix(path.nodes().len() as u64);
        for node in path.nodes() {
            hash.mix(node.to_u64());
        }
        hash.mix(path.weight().to_bits());
    }
    hash.finish()
}

/// The repository's oracle rule: the same number of results, and at every
/// rank a score (weight, or stability for Problem 2) within 1e-9 of the
/// oracle's. Solvers sum edge weights in different orders, so the last bit
/// of a weight may differ; node order among equal scores may too.
pub fn matches_oracle(
    spec: StableClusterSpec,
    got: &[ClusterPath],
    oracle: &[ClusterPath],
) -> bool {
    let score = |path: &ClusterPath| match spec {
        StableClusterSpec::Normalized { .. } => path.stability(),
        _ => path.weight(),
    };
    got.len() == oracle.len()
        && got
            .iter()
            .zip(oracle)
            .all(|(g, o)| (score(g) - score(o)).abs() < 1e-9)
}

/// Peak resident memory of this process (VmHWM) in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(median(&samples), 2.5);
        assert_eq!(median(&[]), 0.0);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&many, 0.99), 10);
    }

    #[test]
    fn fnv_separates_concatenations() {
        let mut a = Fnv::default();
        a.mix_str("ab");
        a.mix_str("c");
        let mut b = Fnv::default();
        b.mix_str("a");
        b.mix_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
