//! Host-speed normalisation of the benchmark's times.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! over seconds to minutes: on a 2-vCPU guest a fixed CPU loop's median
//! moved from 80 to 108 ms between 5-second windows of one two-minute run,
//! with the guest reporting no stolen time. A drift of that size between
//! runs swamps any change in the program, so every timed metric is reported
//! at a reference host speed.
//!
//! A fixed kernel of the benchmark's own (hash-map updates, a sort and
//! look-ups over pseudo-random keys; nothing from the repository) runs
//! between the timed operations, at least every [`INTERVAL`]. When the run
//! is over, each timed sample is scaled by `REFERENCE_MS / kernel time`,
//! the kernel time being the median of the kernel runs within [`WINDOW`] of
//! the sample's midpoint (the nearest run if none is). A change in the
//! program moves the scaled figure as much as the raw one; a change in host
//! speed moves the kernel alike and cancels. Every scaled workload prints
//! its raw figures beside the scaled ones; a workload whose times do not
//! follow the kernel's is not scaled ([`HostSpeed::off`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed, in ms (about what it takes on
/// a 2.1 GHz Xeon vCPU).
pub const REFERENCE_MS: f64 = 20.0;
/// Longest time between two kernel runs.
pub const INTERVAL: Duration = Duration::from_millis(250);
/// How far from a sample's midpoint a kernel run still counts for it.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Pseudo-random keys the kernel draws.
const KEYS: u64 = 300_000;
/// Distinct hash-map entries they fall on.
const ENTRIES: u64 = 75_000;

type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The kernel's buffers, kept between runs so that no run pays for fresh
/// pages.
#[derive(Debug)]
struct Buffers {
    table: Table,
    keys: Vec<u64>,
}

impl Buffers {
    fn new() -> Buffers {
        Buffers {
            table: Table::with_capacity_and_hasher(ENTRIES as usize, Default::default()),
            keys: Vec::with_capacity(KEYS as usize),
        }
    }

    fn kernel(&mut self) -> u64 {
        kernel(&mut self.table, &mut self.keys)
    }
}

/// One run of the kernel; returns a value that depends on all of its work.
fn kernel(table: &mut Table, keys: &mut Vec<u64>) -> u64 {
    table.clear();
    keys.clear();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *table.entry(x % ENTRIES).or_insert(0) += i;
        keys.push(x);
    }
    keys.sort_unstable();
    let mut sum = keys[keys.len() / 2];
    for key in 0..ENTRIES {
        sum = sum.wrapping_add(table.get(&key).copied().unwrap_or(0));
    }
    sum
}

/// The host's speed over a run, as the kernel's times.
#[derive(Debug)]
pub struct HostSpeed {
    /// Each kernel run's midpoint and ms.
    runs: Vec<(Instant, f64)>,
    last: Instant,
    sink: u64,
    /// The kernel's buffers, or `None` when times are left as measured.
    buffers: Option<Buffers>,
}

impl HostSpeed {
    /// Scale to the reference speed; the kernel is warmed up once first.
    pub fn new() -> HostSpeed {
        let mut speed = HostSpeed {
            runs: Vec::new(),
            last: Instant::now(),
            sink: 0,
            buffers: Some(Buffers::new()),
        };
        speed.calibrate();
        speed.runs.clear();
        speed.calibrate();
        speed
    }

    /// Leave every time as measured and never run the kernel: for a
    /// workload whose times do not follow the kernel's.
    pub fn off() -> HostSpeed {
        HostSpeed {
            runs: Vec::new(),
            last: Instant::now(),
            sink: 0,
            buffers: None,
        }
    }

    /// Run the kernel now.
    pub fn calibrate(&mut self) {
        let Some(buffers) = self.buffers.as_mut() else {
            return;
        };
        let begun = Instant::now();
        self.sink ^= std::hint::black_box(buffers.kernel());
        let took = begun.elapsed();
        self.runs.push((begun + took / 2, crate::stats::ms(took)));
        self.last = Instant::now();
    }

    /// Run the kernel if [`INTERVAL`] has passed since it last ran.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.calibrate();
        }
    }

    /// The kernel's ms around `at`: the median of its runs within
    /// [`WINDOW`], or its nearest run.
    fn kernel_ms(&self, at: Instant) -> f64 {
        let distance = |run: &(Instant, f64)| {
            if run.0 > at {
                run.0 - at
            } else {
                at - run.0
            }
        };
        let near: Vec<f64> = self
            .runs
            .iter()
            .filter(|run| distance(run) <= WINDOW)
            .map(|run| run.1)
            .collect();
        if near.is_empty() {
            self.runs
                .iter()
                .min_by_key(|run| distance(run))
                .map_or(REFERENCE_MS, |run| run.1)
        } else {
            crate::stats::median(&near)
        }
    }

    /// The ms of a sample that began at `begun` and took `took`, at the
    /// reference speed. Call it once the run is over (after a last
    /// [`HostSpeed::calibrate`]), so kernel runs on both sides count.
    pub fn scaled_ms(&self, begun: Instant, took: Duration) -> f64 {
        if self.buffers.is_none() {
            return crate::stats::ms(took);
        }
        crate::stats::ms(took) * REFERENCE_MS / self.kernel_ms(begun + took / 2)
    }

    /// A line for the report: how often the kernel ran and how long it took.
    pub fn summary(&self) -> String {
        if self.buffers.is_none() {
            return "host speed: not measured; timed metrics are as measured".to_string();
        }
        let times: Vec<f64> = self.runs.iter().map(|run| run.1).collect();
        format!(
            "host speed: kernel median {} ms against {REFERENCE_MS} ms reference (n={}, \
             min {} ms, max {} ms; check {:x}); timed metrics are scaled to the reference",
            crate::stats::median(&times),
            times.len(),
            times.iter().copied().fold(f64::INFINITY, f64::min),
            times.iter().copied().fold(0.0, f64::max),
            self.sink & 0xf
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut table, mut keys) = (Table::default(), Vec::new());
        let first = kernel(&mut table, &mut keys);
        assert_eq!(first, kernel(&mut table, &mut keys));
    }

    #[test]
    fn an_unscaled_run_reports_times_as_measured() {
        let mut speed = HostSpeed::off();
        speed.calibrate();
        assert!(speed.runs.is_empty());
        let took = Duration::from_millis(7);
        assert_eq!(speed.scaled_ms(Instant::now(), took), 7.0);
    }

    #[test]
    fn a_sample_is_scaled_by_the_kernel_runs_around_it() {
        let mut speed = HostSpeed::new();
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        speed.runs = vec![
            (at(0), 2.0 * REFERENCE_MS),
            (at(400), 2.0 * REFERENCE_MS),
            (at(5_000), REFERENCE_MS),
        ];
        // Both runs near the first sample count; only the last for the second.
        let took = Duration::from_millis(100);
        assert_eq!(speed.scaled_ms(at(150), took), 50.0);
        assert_eq!(speed.scaled_ms(at(4_000), took), 100.0);
        // Nothing within the window: the nearest run.
        assert_eq!(speed.scaled_ms(at(2_000), took), 50.0);
    }
}
