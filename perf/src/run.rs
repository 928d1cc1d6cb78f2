//! The end-to-end run (`--trace 0`): set-up, untraced passes, verification.

use crate::inputs::{self, Workload, DEFAULT_SEED};
use crate::metrics::{RunResult, END_TO_END};
use crate::stats;
use crate::workloads::{self, Counts, Observe, Prepared, SetupTimes};
use std::collections::BTreeMap;
use std::time::Instant;

/// Times the whole pool is set up; `setup_s` is the sum over inputs of the
/// per-input median.
const SETUP_REPS: usize = 3;

/// Sets the pool up `reps` times and returns the last copy with every
/// repetition's set-up times, per input.
fn set_up_pool(
    workload: Workload,
    seed: u64,
    reps: usize,
) -> (Vec<Prepared>, Vec<Vec<SetupTimes>>) {
    let mut samples = vec![Vec::new(); workload.pool_size()];
    let mut pool = Vec::new();
    for _ in 0..reps {
        // One pool alive at a time, so peak memory is not a set-up artefact.
        pool.clear();
        for (index, times) in samples.iter_mut().enumerate() {
            let (prepared, setup) = workloads::prepare(workload, seed, index);
            times.push(setup);
            pool.push(prepared);
        }
    }
    (pool, samples)
}

/// Checks the pool's inputs against the pinned fingerprint (default seed
/// only) and prints the input summary. Returns `false` on drift.
/// Generating the inputs again costs milliseconds; the references and
/// priming convergences are what make set-up slow.
pub fn check_inputs(workload: Workload, seed: u64) -> bool {
    let pool = inputs::pool(workload, seed);
    let fingerprint = inputs::fingerprint(&pool);
    let first = &pool[0].graph;
    println!(
        "inputs      {} x (n={}, links={} on input 0)  fnv1a={fingerprint:016x}",
        pool.len(),
        first.node_count(),
        first.link_count(),
    );
    if seed == DEFAULT_SEED && fingerprint != workload.pinned_fingerprint() {
        println!(
            "INPUT DRIFT: seed {DEFAULT_SEED} is pinned to {:016x}; a generator changed, \
             so earlier baselines no longer describe these inputs",
            workload.pinned_fingerprint()
        );
        return false;
    }
    true
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// A `kB` field of `/proc/self/status` in MiB; 0 where there is none.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set (`5` to `clear_refs`, Linux
/// 4.0 and later). Where the kernel refuses, the mark still holds set-up's
/// peak and `peak_rss_mb` reads high.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Per-input samples of the measurement loop.
#[derive(Debug, Default, Clone)]
struct InputSamples {
    bare_ms: Vec<f64>,
    observed_ms: Vec<f64>,
    counts: Option<Counts>,
}

/// Runs `workload` untraced for about `seconds` and returns every
/// end-to-end metric.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let (mut pool, setup) = set_up_pool(workload, seed, SETUP_REPS);
    let setup_s = setup
        .iter()
        .map(|reps| {
            let totals: Vec<f64> = reps.iter().map(|t| t.total_ns() as f64).collect();
            stats::median(&totals)
        })
        .sum::<f64>()
        / 1e9;
    let mut correct = check_inputs(workload, seed);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // One discarded bare pass per input: first-touch page faults and
    // allocator growth are paid once per process, not once per convergence.
    // Their high-water mark, counted from the end of set-up and read before
    // any instrument is attached, is `peak_rss_mb`: the resident pool plus
    // the engines' own state, without set-up's reference computations and
    // without the observability stack's memory.
    reset_peak_rss();
    let resident_mb = status_mib("VmRSS:");
    for prepared in &mut pool {
        let warm_up = workloads::pass(prepared, Observe::Bare);
        attempted += warm_up.ops;
        failed += warm_up.failed;
    }
    let peak_rss_mb = peak_rss_mib();
    println!(
        "memory      {resident_mb:.1} MiB resident after set-up, peak {peak_rss_mb:.1} MiB over {} bare warm-up passes",
        pool.len()
    );

    let mut samples = vec![InputSamples::default(); pool.len()];
    let started = Instant::now();
    let mut cycles = 0usize;
    'measure: loop {
        for (prepared, sample) in pool.iter_mut().zip(&mut samples) {
            // After one full cycle every input has a sample; stop as soon
            // as the time is up rather than finishing the cycle.
            if cycles > 0 && started.elapsed().as_secs_f64() >= seconds {
                break 'measure;
            }
            for observe in [Observe::Bare, Observe::Full] {
                let out = workloads::pass(prepared, observe);
                attempted += out.ops;
                failed += out.failed;
                // Counts must repeat exactly, pass after pass and with the
                // instruments on.
                if *sample.counts.get_or_insert(out.counts) != out.counts {
                    failed += 1;
                }
                let ms = out.wall_ns as f64 / 1e6;
                match observe {
                    Observe::Bare => sample.bare_ms.push(ms),
                    _ => sample.observed_ms.push(ms),
                }
            }
        }
        cycles += 1;
    }
    let measured_s = started.elapsed().as_secs_f64();
    correct &= failed == 0;

    let k = pool.len() as f64;
    let mean_of_medians = |pick: fn(&InputSamples) -> &Vec<f64>| {
        samples.iter().map(|s| stats::median(pick(s))).sum::<f64>() / k
    };
    let mean_count = |pick: fn(&Counts) -> u64| {
        samples
            .iter()
            .map(|s| pick(s.counts.as_ref().expect("every input ran at least once")) as f64)
            .sum::<f64>()
            / k
    };
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("run_ms", mean_of_medians(|s| &s.bare_ms)),
        ("observed_run_ms", mean_of_medians(|s| &s.observed_ms)),
        ("stages", mean_count(|c| c.stages)),
        ("messages", mean_count(|c| c.messages)),
        ("wire_bytes_v2", mean_count(|c| c.wire_bytes_v2)),
        ("peak_rss_mb", peak_rss_mb),
    ]);

    let all_bare: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.bare_ms.iter().copied())
        .collect();
    let all_observed: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.observed_ms.iter().copied())
        .collect();
    println!(
        "measured    {measured_s:.1} s: {} bare + {} observed passes over {} inputs ({cycles} full cycles)",
        all_bare.len(),
        all_observed.len(),
        pool.len()
    );
    for (index, sample) in samples.iter().enumerate() {
        println!(
            "input {index}     bare {:.1?} ms, observed {:.1?} ms",
            sample.bare_ms, sample.observed_ms
        );
    }
    // With this few samples nothing above the median is claimed.
    for (label, passes) in [("bare pass", &all_bare), ("observed pass", &all_observed)] {
        if let Some((q1, q3)) = stats::quartiles(passes) {
            println!(
                "{label:<14} median {:.2} ms, quartiles {q1:.2} / {q3:.2} ms over {} passes (inputs differ)",
                stats::median(passes),
                passes.len()
            );
        }
    }
    let mut metrics = BTreeMap::new();
    for metric in &END_TO_END {
        let value = values[metric.name];
        println!(
            "{:<16} {value:>14.4} {:<6} ({} is better, regression bound {:.0} %)",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.bound * 100.0
        );
        metrics.insert(metric.name.to_string(), (value, metric.unit.to_string()));
    }
    println!("failed_ops  {failed} of {attempted} ops");
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
    }
}
