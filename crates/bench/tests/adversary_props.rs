//! Property sweeps for the Byzantine adversary layer and the online
//! auditor (see `docs/ROBUSTNESS.md`, Byzantine tier).
//!
//! Two contracts, each swept over `Family::ALL` × sizes × seeds × worker
//! counts:
//!
//! 1. **Zero false positives** — an honest audited run never draws an
//!    accusation, never quarantines, and extracts an outcome bit-identical
//!    to the unaudited run, for any worker count (the auditor observes the
//!    engine's canonical broadcast order, which is worker-invariant).
//! 2. **Quarantine-and-reconverge parity** — when the auditor quarantines
//!    a wire adversary, the post-recovery fixpoint is bit-identical to a
//!    run the adversary never joined (honest convergence followed by the
//!    same `NodeDown`), and serial vs. parallel adversarial runs agree on
//!    everything: accusations, quarantine set, and outcome.

use bgpvcg_bench::families::Family;
use bgpvcg_bgp::chaos::FaultPlan;
use bgpvcg_bgp::{Adversary, Strategy, TopologyEvent};
use bgpvcg_core::protocol;
use bgpvcg_netgraph::{AsGraph, AsId};
use proptest::prelude::*;

/// A node whose removal keeps the graph biconnected (so quarantine is a
/// valid recovery), or `None` when no node qualifies.
fn removable_node(g: &AsGraph) -> Option<AsId> {
    (0..g.node_count() as u32).map(AsId::new).find(|&k| {
        let mut engine = protocol::build_sync_engine(g).unwrap();
        engine.run_to_convergence();
        engine.try_apply_event(TopologyEvent::NodeDown(k)).is_ok()
    })
}

/// `set_adversary` turns delta encoding off on the tapped node so every
/// strategy sees full advertisements; a later engine-wide
/// `set_delta_encoding(true)` must not turn it back on there, or the node's
/// price-only revisions leave as `PriceDelta`s no strategy touches. Checked
/// on both engines: the tap injects exactly as much with the later call as
/// without it.
#[test]
fn engine_wide_delta_switch_leaves_a_wire_tap_armed() {
    let graph = Family::BarabasiAlbert.build(40, 7);
    let liar = AsId::new(3);
    let tap = || Adversary::new(Strategy::PriceInflate, 4);
    let injected_sync = |rearm: bool| {
        let mut engine = protocol::build_sync_engine(&graph).unwrap();
        engine.set_adversary(liar, tap());
        if rearm {
            engine.set_delta_encoding(true);
        }
        assert!(engine.run_to_convergence().converged);
        engine.adversary(liar).map(Adversary::injected)
    };
    let injected_chaos = |rearm: bool| {
        let mut engine = protocol::build_chaos_engine(&graph, FaultPlan::quiet()).unwrap();
        engine.set_adversary(liar, tap());
        if rearm {
            engine.set_delta_encoding(true);
        }
        assert!(engine.run_to_stable(2_000).converged);
        engine.adversary(liar).map(Adversary::injected)
    };
    assert!(injected_sync(false) > Some(0), "the tap fires at all");
    assert_eq!(injected_sync(true), injected_sync(false));
    assert!(injected_chaos(false) > Some(0), "the tap fires at all");
    assert_eq!(injected_chaos(true), injected_chaos(false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Honest runs draw zero accusations across families, seeds, and
    /// worker counts 1–8, and auditing never perturbs the outcome.
    #[test]
    fn honest_runs_are_never_accused(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..14,
        seed in 0u64..u64::MAX,
        workers in 1usize..9,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0xAD5E_11A2);
        let reference = protocol::run_sync(&graph).unwrap();
        let mut engine = protocol::build_audited_sync_engine(&graph)
            .unwrap()
            .with_parallelism(workers);
        let report = engine.run_to_convergence();
        prop_assert!(report.converged, "{}: {report:?}", family.name());
        prop_assert!(
            engine.accusations().is_empty(),
            "{} workers {workers}: honest run accused: {:?}",
            family.name(),
            engine.accusations()
        );
        prop_assert!(engine.quarantined().is_empty());
        let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
        prop_assert_eq!(outcome, reference.outcome, "{} workers {workers}", family.name());
    }

    /// Quarantine recovery is exact and worker-invariant: a quarantined
    /// adversary leaves a fixpoint bit-identical to the run it never
    /// joined, and serial vs. parallel adversarial runs agree on the
    /// accusations, the quarantine set, and the outcome.
    #[test]
    fn quarantine_reconvergence_parity_serial_equals_parallel(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..14,
        seed in 0u64..u64::MAX,
        strategy_idx in 0usize..Strategy::ALL.len(),
        workers in 2usize..9,
    ) {
        let family = Family::ALL[family_idx];
        let strategy = Strategy::ALL[strategy_idx];
        let graph = family.build(n, seed ^ 0x0B5E_55ED);
        let Some(culprit) = removable_node(&graph) else {
            // No quarantine is valid on this topology (e.g. the ring);
            // the e20 experiment covers the recorded-only path.
            return Ok(());
        };

        let run = |workers: usize| {
            let mut engine = protocol::build_audited_sync_engine(&graph)
                .unwrap()
                .with_parallelism(workers);
            engine.set_adversary(culprit, Adversary::new(strategy, seed % 101));
            let report = engine.run_to_convergence();
            assert!(report.converged, "{}/{}", family.name(), strategy.name());
            let accusations = engine.accusations().to_vec();
            let quarantined = engine.quarantined().to_vec();
            let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
            (accusations, quarantined, outcome)
        };
        let (accusations, quarantined, outcome) = run(1);
        let (par_accusations, par_quarantined, par_outcome) = run(workers);
        prop_assert_eq!(&accusations, &par_accusations, "workers {}", workers);
        prop_assert_eq!(&quarantined, &par_quarantined, "workers {}", workers);
        prop_assert_eq!(&outcome, &par_outcome, "workers {}", workers);

        if quarantined == [culprit] {
            // The adversary fired and was cut out: parity with the run it
            // never joined.
            let mut reference = protocol::build_sync_engine(&graph).unwrap();
            reference.run_to_convergence();
            reference
                .try_apply_event(TopologyEvent::NodeDown(culprit))
                .expect("culprit chosen removable");
            let reference = protocol::outcome_from_nodes(&reference.into_nodes()).unwrap();
            prop_assert_eq!(
                outcome,
                reference,
                "{}/{}: post-quarantine fixpoint must match the adversary-never-joined run",
                family.name(),
                strategy.name()
            );
        } else {
            // The tap never fired (idle adversary): the run must be
            // indistinguishable from honest.
            prop_assert!(quarantined.is_empty());
            prop_assert!(accusations.is_empty(), "{:?}", accusations);
            let honest = protocol::run_sync(&graph).unwrap();
            prop_assert_eq!(outcome, honest.outcome);
        }
    }
}
