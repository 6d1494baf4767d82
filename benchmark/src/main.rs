//! Benchmark of the ViFi reproduction: runs one workload in a closed loop
//! for a fixed wall-clock budget and prints its metrics as JSON.
//!
//! ```text
//! vifi-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced runs.
//! `--trace 1` spends half the budget on untraced runs and half on traced
//! ones, and reports the per-layer metrics, the model outputs and the
//! tracing overhead; its spans are written to
//! `benchmark/out/spans-<workload>-seed<N>.jsonl` at exit.
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! describes the run (host, design, run count, tail percentile, failures).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux CPU-time clocks and /proc; build it on 64-bit Linux");

mod adapter;
mod host;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use workloads::Workload;

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The first seed of the documented default set (1..=10).
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 50.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad --seconds {value} (want 0 < s <= 120)"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required: {}", names.join(", ")))?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run::execute(&args, Duration::from_secs_f64(args.seconds));
    if args.trace {
        if let Err(e) = report::write_spans(&args, &result.spans) {
            eprintln!("warning: spans not written: {e}");
        }
    }
    println!("{}", report::summary_line(&args, &result));
    println!("{}", report::result_line(&args, &result));
    if result.hung {
        // A timed-out run's thread cannot be joined; ending the process
        // ends it.
        std::process::exit(0);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload metro_nested --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::MetroNested,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        let d = parse_args(&argv("--workload paper_drive")).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (1, 50.0, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload paper_drive --trace 2",
            "--workload paper_drive --seconds 0",
            "--workload paper_drive --seed x",
            "--workload paper_drive --seed",
            "--workload paper_drive --color red",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
