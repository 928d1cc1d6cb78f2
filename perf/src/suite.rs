//! The whole suite, `compare`, and `selfcheck`.
//!
//! The suite runs every workload in its own child process (so `VmHWM` is
//! per workload), untraced once and traced once, and collects
//! the children's result lines into one JSON file. `compare` applies the
//! bounds of `BENCHMARK.json` to two such files; `selfcheck` is `compare`
//! of the build with itself.

use crate::inputs::Workload;
use crate::layers::out_dir;
use crate::metrics::{Better, RunResult, END_TO_END, PER_LAYER};
use crate::stats;
use bgpvcg_telemetry::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What the suite was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: u64,
    /// Whether to add the traced run to the untraced one.
    pub traced: bool,
    pub out: PathBuf,
}

/// Runs one workload in a child process and parses its result line.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last)
        .ok()
        .and_then(|value| RunResult::from_json(&value))
        .ok_or_else(|| format!("{}: child printed no result line", workload.name()))?;
    if !output.status.success() && result.correct {
        return Err(format!(
            "{}: child exited with {}",
            workload.name(),
            output.status
        ));
    }
    Ok(result)
}

/// Runs the suite, writes its JSON, and returns whether every run was
/// correct.
pub fn run_suite(options: &SuiteOptions) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for traced in std::iter::once(false).chain(options.traced.then_some(true)) {
            println!(
                "=== {} seed {} {}",
                workload.name(),
                options.seed,
                if traced { "traced" } else { "end to end" }
            );
            let result = run_child(workload, options.seed, options.seconds, traced)?;
            all_correct &= result.correct;
            rows.push(JsonValue::Object(BTreeMap::from([
                (
                    "workload".to_string(),
                    JsonValue::String(workload.name().to_string()),
                ),
                ("trace".to_string(), JsonValue::UInt(u64::from(traced))),
                ("result".to_string(), result.to_json()),
            ])));
        }
    }
    let json = JsonValue::Object(BTreeMap::from([
        ("seed".to_string(), JsonValue::UInt(options.seed)),
        ("seconds".to_string(), JsonValue::UInt(options.seconds)),
        ("rows".to_string(), JsonValue::Array(rows)),
    ]));
    if let Some(dir) = options.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&options.out, json.render() + "\n")
        .map_err(|e| format!("{}: {e}", options.out.display()))?;
    println!("=== suite written to {}", options.out.display());
    Ok(all_correct)
}

/// One side of a comparison — one suite file or several merged: the seed
/// (`None` if the files disagree) and, per `(workload, traced)`, every
/// run's value of every metric.
struct SuiteFile {
    seed: Option<u64>,
    values: BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>,
}

/// Loads `paths`, a comma-separated list of suite files, as one side.
fn load(paths: &str) -> Result<SuiteFile, String> {
    let mut side = SuiteFile {
        seed: None,
        values: BTreeMap::new(),
    };
    for (i, path) in paths.split(',').enumerate() {
        let seed = load_into(Path::new(path), &mut side.values)?;
        side.seed = if i == 0 {
            Some(seed)
        } else {
            side.seed.filter(|&s| s == seed)
        };
    }
    Ok(side)
}

/// Adds one suite file's rows to `values` and returns its seed.
fn load_into(
    path: &Path,
    values: &mut BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>,
) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let malformed = || format!("{}: not a suite file", path.display());
    let seed = json
        .get("seed")
        .and_then(JsonValue::as_u64)
        .ok_or_else(malformed)?;
    let Some(JsonValue::Array(rows)) = json.get("rows") else {
        return Err(malformed());
    };
    for row in rows {
        let workload = row
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(malformed)?;
        let traced = row
            .get("trace")
            .and_then(JsonValue::as_u64)
            .ok_or_else(malformed)?
            == 1;
        let result = row
            .get("result")
            .and_then(RunResult::from_json)
            .ok_or_else(malformed)?;
        let metrics = values.entry((workload.to_string(), traced)).or_default();
        for (name, (value, _)) in result.metrics {
            metrics.entry(name).or_default().push(value);
        }
    }
    Ok(seed)
}

/// How one `(workload, metric)` row of `compare` came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The spread between runs is wider than the bound, so the medians
    /// cannot tell a regression from noise.
    Unresolved,
    Regression,
}

/// Which rule a row is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `compare`: the candidate may be worse than the base by the bound.
    Change,
    /// `selfcheck`: two runs of one build may differ by the bound in either
    /// direction.
    SameBuild,
}

/// Judges candidate runs `b` against base runs `a` for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, rule: Rule) -> Verdict {
    let (base, candidate) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => candidate / base - 1.0,
        Better::Higher => 1.0 - candidate / base,
    };
    if widest_spread(a, b).is_some_and(|spread| spread > bound) {
        let every_run_better = match better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        return if every_run_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let off = if rule == Rule::SameBuild {
        worse_by.abs()
    } else {
        worse_by
    };
    if off > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// `k/n`: of `n` pairs (run `i` of the base with run `i` of the candidate,
/// in file order) the candidate read better in `k`; ties count for neither.
/// `-` when the two sides are not paired runs.
fn pair_wins(a: &[f64], b: &[f64], better: Better) -> String {
    if a.len() != b.len() || a.len() < 2 {
        return "-".to_string();
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(a, b)| match better {
            Better::Lower => b < a,
            Better::Higher => b > a,
        })
        .count();
    format!("{wins}/{}", a.len())
}

/// The wider of the two sides' quartile spreads; `None` for single runs.
fn widest_spread(a: &[f64], b: &[f64]) -> Option<f64> {
    stats::spread(a)
        .into_iter()
        .chain(stats::spread(b))
        .reduce(f64::max)
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Prints every `(workload, metric)` row of `b` against `a` and returns
/// whether no row regressed; under `strict` the two sides are runs of one
/// build and a row that moved by more than its bound either way counts.
pub fn compare(a: &str, b: &str, strict: bool) -> Result<bool, String> {
    let (base, candidate) = (load(a)?, load(b)?);
    let same_seed = base.seed.is_some() && base.seed == candidate.seed;
    let seed = |side: &SuiteFile| side.seed.map_or("mixed".to_string(), |s| s.to_string());
    println!("base      {a} (seed {})", seed(&base));
    println!("candidate {b} (seed {})", seed(&candidate));
    let (mut bad, mut unresolved) = (0, 0);
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7} {:>7}  {:>5}  verdict",
        "workload", "metric", "base median", "cand. median", "cand/base", "spread", "bound", "wins"
    );
    for workload in Workload::ALL {
        let key = (workload.name().to_string(), false);
        let (Some(base_metrics), Some(cand_metrics)) =
            (base.values.get(&key), candidate.values.get(&key))
        else {
            println!("{:<20} missing from one of the files", workload.name());
            bad += 1;
            continue;
        };
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (base_metrics.get(metric.name), cand_metrics.get(metric.name))
            else {
                println!(
                    "{:<20} {:<16} missing from one of the files",
                    workload.name(),
                    metric.name
                );
                bad += 1;
                continue;
            };
            // On one seed the protocol counts repeat exactly, so any
            // worsening between two builds is the change's doing, and any
            // difference within one build a defect: the bound in
            // BENCHMARK.json only has to absorb the move between seeds.
            let exact = metric.exact_per_seed && same_seed;
            let bound = if exact { 0.0 } else { metric.bound };
            let rule = if strict {
                Rule::SameBuild
            } else {
                Rule::Change
            };
            let verdict = judge(a, b, metric.better, bound, rule);
            println!(
                "{:<20} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>7} {:>6.0}%  {:>5}  {}",
                workload.name(),
                metric.name,
                stats::median(a),
                stats::median(b),
                stats::median(b) / stats::median(a),
                widest_spread(a, b).map_or(format!("n={}", a.len().min(b.len())), |s| format!(
                    "{:.1}%",
                    s * 100.0
                )),
                bound * 100.0,
                pair_wins(a, b, metric.better),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
                    Verdict::Regression if exact => "REGRESSION (exact per seed)",
                    Verdict::Regression => "REGRESSION",
                }
            );
            match verdict {
                Verdict::Ok => {}
                Verdict::Unresolved => unresolved += 1,
                Verdict::Regression => bad += 1,
            }
        }
    }
    // Per-layer ratios carry no bound: they say where a change sits.
    for workload in Workload::ALL {
        let key = (workload.name().to_string(), true);
        let (Some(base_metrics), Some(cand_metrics)) =
            (base.values.get(&key), candidate.values.get(&key))
        else {
            continue;
        };
        println!(
            "--- {} per layer (candidate / base, base stated)",
            workload.name()
        );
        for &(name, unit, _) in &PER_LAYER {
            let (Some(a), Some(b)) = (base_metrics.get(name), cand_metrics.get(name)) else {
                continue;
            };
            let (a, b) = (stats::median(a), stats::median(b));
            if a != 0.0 || b != 0.0 {
                println!(
                    "{name:<44} {:>9.4}  (base {a:.4} {unit})",
                    if a == 0.0 { f64::NAN } else { b / a }
                );
            }
        }
    }
    println!("{bad} regressed, {unresolved} unresolved");
    Ok(bad == 0)
}

/// Runs the untraced suite twice on this build and compares the two.
pub fn selfcheck(seed: u64, seconds: u64) -> Result<bool, String> {
    let mut files = Vec::new();
    for name in ["selfcheck-a.json", "selfcheck-b.json"] {
        let options = SuiteOptions {
            seed,
            seconds,
            traced: false,
            out: out_dir().join(name),
        };
        if !run_suite(&options)? {
            return Ok(false);
        }
        files.push(options.out.display().to_string());
    }
    compare(&files[0], &files[1], true)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;

    #[test]
    fn a_median_worse_by_more_than_the_bound_is_a_regression() {
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(
                &base,
                &[105.0, 106.0, 104.0, 105.0],
                LOWER,
                0.08,
                Rule::Change
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &base,
                &[110.0, 111.0, 109.0, 110.0],
                LOWER,
                0.08,
                Rule::Change
            ),
            Verdict::Regression
        );
        // An improvement is never a regression, however large …
        assert_eq!(
            judge(&base, &[50.0, 51.0, 49.0, 50.0], LOWER, 0.08, Rule::Change),
            Verdict::Ok
        );
        // … except in selfcheck, where the two sides are the same build.
        assert_eq!(
            judge(
                &base,
                &[50.0, 51.0, 49.0, 50.0],
                LOWER,
                0.08,
                Rule::SameBuild
            ),
            Verdict::Regression
        );
        assert_eq!(
            judge(
                &base,
                &[90.0, 91.0, 89.0, 90.0],
                Better::Higher,
                0.08,
                Rule::Change
            ),
            Verdict::Regression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0];
        assert_eq!(
            judge(
                &noisy,
                &[100.0, 121.0, 79.0, 111.0, 91.0],
                LOWER,
                0.08,
                Rule::Change
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &noisy,
                &[60.0, 70.0, 50.0, 65.0, 55.0],
                LOWER,
                0.08,
                Rule::Change
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn single_runs_have_no_spread_and_are_judged_on_the_value() {
        assert_eq!(
            judge(&[100.0], &[107.0], LOWER, 0.08, Rule::Change),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[100.0], &[109.0], LOWER, 0.08, Rule::Change),
            Verdict::Regression
        );
    }

    #[test]
    fn pair_wins_count_strictly_better_candidate_runs_in_order() {
        assert_eq!(
            pair_wins(&[10.0, 10.0, 10.0], &[9.0, 10.0, 11.0], LOWER),
            "1/3"
        );
        assert_eq!(
            pair_wins(&[10.0, 10.0], &[11.0, 12.0], Better::Higher),
            "2/2"
        );
        assert_eq!(pair_wins(&[10.0], &[9.0], LOWER), "-");
        assert_eq!(pair_wins(&[10.0, 10.0], &[9.0], LOWER), "-");
    }

    #[test]
    fn on_one_seed_counts_are_judged_with_a_bound_of_zero() {
        // `selfcheck`: any difference, either way.
        assert_eq!(
            judge(&[9591.0], &[9591.0], LOWER, 0.0, Rule::SameBuild),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[9591.0], &[9590.0], LOWER, 0.0, Rule::SameBuild),
            Verdict::Regression
        );
        // Between builds one more message is a regression, one fewer is not.
        assert_eq!(
            judge(
                &[9591.0, 9591.0],
                &[9592.0, 9592.0],
                LOWER,
                0.0,
                Rule::Change
            ),
            Verdict::Regression
        );
        assert_eq!(
            judge(&[9591.0], &[9590.0], LOWER, 0.0, Rule::Change),
            Verdict::Ok
        );
        // On different seeds a count is held to its bound like any metric.
        assert_eq!(
            judge(&[9591.0], &[9592.0], LOWER, 0.15, Rule::Change),
            Verdict::Ok
        );
    }
}
