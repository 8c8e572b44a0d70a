//! The dosgi benchmark: `serve`, `migrate` and `dependability` workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer ones. The last stdout line is
//! the result object; the line before it records the workload and seed.
//! Any output-check violation fails the run with exit code 1.
//!
//! The process runs on one CPU: on a shared virtual machine, a wake-up
//! sent to another, idle virtual CPU waits for the hypervisor to schedule
//! it, which measures the host rather than the system under test.

mod alloc;
mod calib;
mod dependability;
mod migrate;
mod procfs;
mod report;
mod serve;
mod stats;
mod timed_store;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Command-line arguments, checked.
#[derive(Debug, Clone)]
pub struct Args {
    /// `serve`, `migrate` or `dependability`.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["serve", "migrate", "dependability"];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <serve|migrate|dependability> --seed <u64> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = procfs::pin_to_current_cpu() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "serve" => serve::run(&args),
        "migrate" => migrate::run(&args),
        _ => dependability::run(&args),
    };
    for v in &outcome.violations {
        eprintln!("perfbench: output check failed: {v}");
    }
    let metrics = if args.trace {
        eprint!("{}", outcome.layers.table());
        Ok(outcome.layers.metrics())
    } else {
        outcome.end_to_end.metrics()
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.violations.is_empty();
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    println!(
        "{}",
        report::result_json(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload migrate --seed 42 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, "migrate");
        assert_eq!(a.seed, 42);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve --seed -1 --seconds 1 --trace 0",
            "--workload serve --seed 1 --seconds 0 --trace 0",
            "--workload serve --seed 1 --seconds 1 --trace 2",
            "--workload serve --seed 1 --seconds 1",
            "--workload serve --seed 1 --seconds 1 --trace",
            "--workload serve --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
