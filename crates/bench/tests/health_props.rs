//! Convergence health monitor properties over the benchmark families.
//!
//! The streaming SLO analyzer (`bgpvcg_telemetry::health`) must hold two
//! contracts under sweep pressure: honest converged runs raise *zero*
//! findings on every family, size, and seed (the monitor is a
//! zero-false-positive detector, like the online auditor); and the verdict
//! is a pure function of the deterministic event stream, so serial and
//! parallel engines at any worker count see the same findings over the
//! same stages.

use bgpvcg_bench::families::Family;
use bgpvcg_core::protocol;
use bgpvcg_telemetry::{HealthConfig, HealthFinding};
use proptest::prelude::*;

/// Runs the pricing protocol on `graph` with the health monitor attached
/// and returns the monitor's findings and the stages it saw.
fn health_report(
    graph: &bgpvcg_netgraph::AsGraph,
    workers: usize,
) -> Result<(Vec<HealthFinding>, u64), TestCaseError> {
    let mut engine = if workers <= 1 {
        protocol::build_sync_engine(graph)
    } else {
        protocol::build_sync_engine_parallel(graph, workers)
    }
    .expect("benchmark families satisfy the mechanism preconditions");
    engine.attach_health(HealthConfig::default());
    prop_assert!(engine.run_to_convergence().converged);
    let sink = engine.health_sink().expect("health attached");
    let monitor = sink.snapshot();
    prop_assert!(
        monitor.findings().is_empty(),
        "honest run raised findings: {:?}",
        monitor.findings()
    );
    prop_assert!(!monitor.stalled());
    prop_assert!(monitor.stages_seen() > 0);
    Ok((monitor.findings().to_vec(), monitor.stages_seen()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Honest converged runs are the SLO baseline: zero findings and no
    /// stall — on every family, size, and seed.
    #[test]
    fn honest_runs_raise_zero_findings(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0xB10C_ED11);
        health_report(&graph, 1)?;
    }

    /// The health verdict is a function of the (deterministic) event
    /// stream, not of the execution strategy: the parallel engine's
    /// findings and stage count equal the serial ones at every worker
    /// count.
    #[test]
    fn verdict_is_worker_count_invariant(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..14,
        seed in 0u64..u64::MAX,
        workers in 2usize..9,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0x9EA1_7447);
        let serial = health_report(&graph, 1)?;
        let parallel = health_report(&graph, workers)?;
        prop_assert_eq!(
            serial,
            parallel,
            "{} n={n} workers={workers}: health verdict depends on worker count",
            family.name()
        );
    }
}
