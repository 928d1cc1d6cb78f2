//! `perf` — the repo benchmark (see `BENCHMARK.json` and `perf/README.md`).
//!
//! ```text
//! perf --workload W [--seed S] [--seconds T] [--trace 0|1]
//!     One run of one workload. Prints every metric by name with its unit;
//!     the last line of stdout is the result as one JSON object. This is
//!     the form BENCHMARK.json's `command` is completed to.
//! perf [--seed S] [--seconds T] [--out FILE]
//!     Every workload, each run in its own child process: one untraced and
//!     one traced run per workload, collected into FILE
//!     (default perf/out/suite.json).
//! perf compare A.json[,A2.json…] B.json[,B2.json…]
//!     Applies BENCHMARK.json's bounds to two sets of suite files, base
//!     first; the files of one side are merged run by run, which is how a
//!     side gets more than one run per workload.
//! perf selfcheck [--seed S] [--seconds T]
//!     Runs the untraced suite twice on this build and compares the two.
//! ```
//!
//! Exit code 0 means every operation verified (and, for `compare` and
//! `selfcheck`, nothing regressed); 1 a failed operation or regression;
//! 2 a usage error.

mod alloc;
mod inputs;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use inputs::{Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  perf --workload <name> [--seed S] [--seconds T] [--trace 0|1]
  perf [--seed S] [--seconds T] [--out FILE]
  perf compare A.json[,A2.json...] B.json[,B2.json...]
  perf selfcheck [--seed S] [--seconds T]
workloads: cold-ba256 cold-ring128 warm-churn-hier128 chaos-hier128";

/// The flags shared by the run forms.
#[derive(Debug)]
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                flags.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => flags.seed = number()?,
            "--seconds" => flags.seconds = number()?,
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--out" => flags.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(flags)
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a, b, false),
            _ => Err("compare takes two suite files".to_string()),
        },
        Some("selfcheck") => {
            let flags = parse_flags(&args[1..])?;
            suite::selfcheck(flags.seed, flags.seconds)
        }
        _ => {
            let flags = parse_flags(args)?;
            let Some(workload) = flags.workload else {
                return suite::run_suite(&suite::SuiteOptions {
                    seed: flags.seed,
                    seconds: flags.seconds,
                    traced: true,
                    out: flags
                        .out
                        .unwrap_or_else(|| layers::out_dir().join("suite.json")),
                });
            };
            println!(
                "workload    {} seed {} ({})",
                workload.name(),
                flags.seed,
                if flags.trace {
                    "traced: per-layer metrics"
                } else {
                    "untraced: end-to-end metrics"
                }
            );
            let result = if flags.trace {
                layers::traced(workload, flags.seed, flags.seconds as f64)
            } else {
                run::end_to_end(workload, flags.seed, flags.seconds as f64)
            };
            println!("{}", result.to_json().render());
            Ok(result.correct)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
