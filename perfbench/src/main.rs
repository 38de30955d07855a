//! The repository's benchmark: end-to-end and per-layer metrics of the
//! stable-cluster stack over four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--serve-qps <q>]
//! ```
//!
//! The inputs are generated from `--seed`; answers are checked against the
//! repository's oracles; the last line of standard output is one JSON
//! object with the run's metrics (end-to-end with `--trace 0`, per-layer
//! with `--trace 1`). See `README.md` beside this crate.

mod fanout_query;
mod report;
mod serve_mix;
mod speed;
mod stats;
mod stream_ingest;
mod trace;
mod week_batch;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;
use speed::HostSpeed;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["week_batch", "serve_mix", "stream_ingest", "fanout_query"];

const USAGE: &str =
    "usage: bsc-perfbench --workload <week_batch|serve_mix|stream_ingest|fanout_query> \
--seed <n> --seconds <s> --trace <0|1> [--serve-qps <q>]";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measurement runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Open-loop arrival rate of `serve_mix`, in queries per second. It is
    /// part of the command in `BENCHMARK.json`, so the rate every run uses
    /// is recorded there.
    pub serve_qps: Option<f64>,
}

impl Args {
    fn parse(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            serve_qps: None,
        };
        let (mut seed, mut seconds, mut trace) = (false, false, false);
        while let Some(flag) = words.next() {
            let value = words
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => {
                    args.seed = value.parse().map_err(|_| bad("a whole number"))?;
                    seed = true;
                }
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                    seconds = args.seconds > 0.0 && args.seconds <= 600.0;
                    if !seconds {
                        return Err(bad("between 0 and 600 seconds"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    };
                    trace = true;
                }
                "--serve-qps" => {
                    let qps: f64 = value.parse().map_err(|_| bad("a rate"))?;
                    if !(qps > 0.0 && qps <= 10_000.0) {
                        return Err(bad("a rate in (0, 10000]"));
                    }
                    args.serve_qps = Some(qps);
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if !(seed && seconds && trace) {
            return Err("--seed, --seconds and --trace are required".to_string());
        }
        if args.workload == "serve_mix" && args.serve_qps.is_none() {
            return Err("serve_mix needs --serve-qps".to_string());
        }
        Ok(args)
    }
}

/// Query-engine workers every engine-backed workload starts.
pub const ENGINE_WORKERS: usize = 2;

/// Run `setup` at least three times and until a second has gone (at most
/// 40 times), and return the last two states with the median set-up time in
/// seconds at the reference host speed. Set-up is repeated so that its
/// median is steady; two states are kept so a traced run can measure
/// untraced and traced passes on separate, identical states.
pub fn repeated_setup<S>(
    speed: &mut HostSpeed,
    mut setup: impl FnMut(u32) -> Result<S, String>,
) -> Result<(Vec<S>, f64), String> {
    let mut kept: Vec<S> = Vec::new();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || (start.elapsed().as_secs_f64() < 1.0 && times.len() < 40) {
        speed.tick();
        let begun = Instant::now();
        let state = setup(times.len() as u32)?;
        times.push((begun, begun.elapsed()));
        kept.push(state);
        if kept.len() > 2 {
            kept.remove(0);
        }
    }
    speed.calibrate();
    let seconds: Vec<f64> = times
        .iter()
        .map(|&(begun, took)| speed.scaled_ms(begun, took) / 1e3)
        .collect();
    Ok((kept, stats::median(&seconds)))
}

fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bsc-perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new(args.trace);
    let tracer = Tracer::default();
    // (generator, engine, cluster) threads, for the environment record.
    let (generator, engine, cluster) = match args.workload.as_str() {
        "week_batch" => (1, 0, 0),
        "serve_mix" => (serve_mix::clients(), ENGINE_WORKERS, 0),
        "stream_ingest" => (1, ENGINE_WORKERS, 0),
        _ => (1, ENGINE_WORKERS, fanout_query::CLUSTER_WORKERS),
    };
    // The fan-out's times did not follow the kernel's: between batches of
    // runs they drifted apart in both directions, and scaling them widened
    // their spread, so they are reported as measured.
    let mut speed = if args.workload == "fanout_query" {
        HostSpeed::off()
    } else {
        HostSpeed::new()
    };
    report.note(format!(
        "env: workload={} seed={} seconds={} trace={} cores={} generator_threads={generator} \
         engine_workers={engine} cluster_workers={cluster} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::cores(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    ));
    let outcome = match args.workload.as_str() {
        "week_batch" => week_batch::run(&args, &mut report, &tracer, &mut speed),
        "serve_mix" => serve_mix::run(&args, &mut report, &tracer, &mut speed),
        "stream_ingest" => stream_ingest::run(&args, &mut report, &tracer, &mut speed),
        _ => fanout_query::run(&args, &mut report, &tracer, &mut speed),
    };
    report.note(speed.summary());
    if let Err(message) = outcome {
        eprintln!("bsc-perfbench: {} failed: {message}", args.workload);
        std::process::exit(1);
    }
    if args.trace {
        let spans = tracer.spans().len();
        report.set("bench.trace.spans", spans as f64);
        let path = trace_path(&args);
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note(format!(
                "trace: {spans} spans written to {}",
                path.display()
            )),
            Err(e) => eprintln!("bsc-perfbench: cannot write {}: {e}", path.display()),
        }
    } else {
        match stats::peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb),
            None => {
                eprintln!("bsc-perfbench: peak resident memory is unreadable here");
                std::process::exit(1);
            }
        }
    }
    match report.json() {
        Ok(line) => {
            println!("{line}");
            if report.failed > 0 {
                eprintln!(
                    "bsc-perfbench: {} of {} operations failed or answered wrongly",
                    report.failed, report.attempted
                );
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("bsc-perfbench: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let args = parse("--workload serve_mix --seed 7 --seconds 10 --trace 1 --serve-qps 120")
            .expect("valid");
        assert_eq!(args.workload, "serve_mix");
        assert_eq!(args.seed, 7);
        assert!(args.trace);
        assert_eq!(args.serve_qps, Some(120.0));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload week_batch --seconds 1 --trace 0").is_err());
        assert!(parse("--workload week_batch --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload week_batch --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve_mix --seed 1 --seconds 1 --trace 0").is_err());
    }
}
