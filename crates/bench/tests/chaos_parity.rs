//! Self-stabilization parity suite.
//!
//! The paper's mechanism has a unique `(routes, prices)` fixpoint, and the
//! chaos session layer guarantees eventual delivery of every routing
//! exchange. Together these make a strong testable claim: no matter what a
//! seeded fault schedule does to the network — drops, duplicates, delays,
//! link flaps, silent cuts, node crashes — once the faults cease, every
//! engine must reconverge to the *bit-identical* outcome of a fault-free
//! run. These properties sweep that claim over the benchmark topology
//! families × fault seeds.

use bgpvcg_bench::families::Family;
use bgpvcg_bgp::chaos::{ChaosEngine, FaultPlan};
use bgpvcg_bgp::TopologyEvent;
use bgpvcg_core::neighbor_costs::{self, NcPricingNode, NeighborCostGraph};
use bgpvcg_core::protocol;
use bgpvcg_netgraph::generators::structured::hypercube;
use bgpvcg_netgraph::{AsId, Cost};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generous stage budget: recovery after the fault horizon is bounded by a
/// few retransmit/hold rounds plus one reconvergence, far below this.
const MAX_STAGES: u64 = 5_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lossy channels: every topology family, any fault seed — the chaos
    /// run self-stabilizes to the fault-free pricing fixpoint.
    #[test]
    fn lossy_chaos_matches_fault_free_fixpoint(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..13,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0x9E37_79B9);
        let reference = protocol::run_sync(&graph).unwrap().outcome;
        let (outcome, report) =
            protocol::run_chaos(&graph, FaultPlan::lossy(seed, 16), MAX_STAGES).unwrap();
        prop_assert!(report.converged, "did not quiesce: {report}");
        prop_assert_eq!(outcome, reference);
    }

    /// Crash and restart under loss: a node loses all state mid-run and
    /// rejoins from scratch; the network still reaches the fault-free
    /// fixpoint.
    #[test]
    fn crash_restart_chaos_matches_fault_free_fixpoint(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..13,
        seed in 0u64..u64::MAX,
        victim in 0u32..1000,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0x5851_F42D);
        let reference = protocol::run_sync(&graph).unwrap().outcome;
        let plan = FaultPlan::lossy(seed, 16)
            .with_crash(4, AsId::new(victim % n as u32), 11);
        let (outcome, report) = protocol::run_chaos(&graph, plan, MAX_STAGES).unwrap();
        prop_assert!(report.converged, "did not quiesce: {report}");
        prop_assert!(report.crashes == 1 && report.restarts == 1);
        prop_assert_eq!(outcome, reference);
    }

    /// Asynchrony — per-link FIFO delivery in a seed-drawn interleaving —
    /// reaches the same fixpoint as the synchronous reference for any seed,
    /// without one session restart.
    #[test]
    fn asynchronous_matches_fault_free_fixpoint(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..13,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0xA076_1D64);
        let reference = protocol::run_sync(&graph).unwrap().outcome;
        let plan = FaultPlan::asynchronous(seed);
        let (outcome, report) = protocol::run_chaos(&graph, plan, MAX_STAGES).unwrap();
        prop_assert!(report.converged, "did not quiesce: {report}");
        prop_assert_eq!(report.holds_fired, 0);
        prop_assert_eq!(report.session_resets, 2 * graph.link_count() as u64);
        prop_assert_eq!(outcome, reference);
    }

    /// Per-neighbour receive costs under loss, and under loss with a crash
    /// and restart: every link that comes back up, by re-establishment or
    /// restart, must declare its receive cost again for the margins to
    /// reach the fault-free fixpoint.
    #[test]
    fn neighbor_cost_chaos_matches_fault_free_fixpoint(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..13,
        seed in 0u64..u64::MAX,
        crash in any::<bool>(),
        victim in 0u32..1000,
    ) {
        let family = Family::ALL[family_idx];
        let base = family.build(n, seed ^ 0x2545_F491);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = NeighborCostGraph::uniform(&base);
        for k in base.nodes() {
            for &a in base.neighbors(k) {
                graph = graph.with_recv_cost(k, a, Cost::new(rng.gen_range(0..12))).unwrap();
            }
        }
        let (reference, _) = neighbor_costs::run_nc_sync(&graph).unwrap();
        let mut plan = FaultPlan::lossy(seed, 16);
        if crash {
            plan = plan.with_crash(4, AsId::new(victim % n as u32), 11);
        }
        let nodes = NcPricingNode::from_graph(&graph);
        let mut engine = ChaosEngine::new(&base, nodes, plan);
        let report = engine.run_to_stable(MAX_STAGES);
        prop_assert!(report.converged, "did not quiesce: {report}");
        prop_assert_eq!(report.crashes, u64::from(crash));
        let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
        prop_assert_eq!(outcome, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: hold-timer implicit withdrawal ≡ explicit `LinkDown`.
    ///
    /// A silently cut link (frames vanish forever, no event delivered) must
    /// drive the chaos engine — via hold-timer expiry alone — to exactly
    /// the fixpoint the synchronous engine reaches when told about the
    /// failure explicitly, and that explicit fixpoint (outcome *and*
    /// report) must itself be identical across worker pools 1–8.
    #[test]
    fn hold_timer_cut_equals_explicit_link_down(seed in 0u64..u64::MAX) {
        // Q3 is 3-connected, so removing one edge keeps the mechanism's
        // biconnectivity precondition intact and all prices finite.
        let graph = hypercube(3, Cost::new(1 + seed % 7));
        let (a, b) = (AsId::new(0), AsId::new(1));

        // Reference: converge, then apply the explicit event — across
        // every worker count, demanding bit-identical outcome and report.
        let mut reference = None;
        for workers in 1..=8 {
            let mut engine =
                protocol::build_sync_engine_parallel(&graph, workers).unwrap();
            engine.run_to_convergence();
            let report = engine.apply_event(TopologyEvent::LinkDown(a, b));
            prop_assert!(report.converged);
            let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
            match &reference {
                None => reference = Some((outcome, report)),
                Some((ref_outcome, ref_report)) => {
                    prop_assert_eq!(&outcome, ref_outcome, "workers={}", workers);
                    prop_assert_eq!(&report, ref_report, "workers={}", workers);
                }
            }
        }
        let (ref_outcome, _) = reference.unwrap();

        // Chaos: same link dies silently at stage 3; only the hold timer
        // can discover it.
        let plan = FaultPlan::quiet().with_cut(3, a, b);
        let (outcome, report) = protocol::run_chaos(&graph, plan, MAX_STAGES).unwrap();
        prop_assert!(report.converged, "did not quiesce: {report}");
        prop_assert!(report.holds_fired >= 2, "both endpoints must time out");
        prop_assert_eq!(outcome, ref_outcome);
    }
}
