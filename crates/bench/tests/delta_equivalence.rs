//! Delta-stream ≡ full-advertisement equivalence suite.
//!
//! Wire v2's biggest win is the price-delta advertisement: when a node's
//! selected path for a destination is unchanged and only prices relaxed,
//! it sends `(index, price)` pairs against the previously advertised
//! path instead of repeating the whole annotated path. That is a pure
//! *encoding* optimization — receivers reassemble the full advertisement
//! from their adj-RIB-in before route selection ever sees it — so a run
//! with deltas enabled (the default) must be indistinguishable from one
//! with them disabled everywhere except the byte counters. These
//! properties sweep that claim over the benchmark topology families,
//! through topology dynamics, and under chaos-layer fault schedules.

use bgpvcg_bench::families::Family;
use bgpvcg_bgp::chaos::FaultPlan;
use bgpvcg_bgp::TopologyEvent;
use bgpvcg_core::protocol;
use bgpvcg_netgraph::{AsId, Cost};
use proptest::prelude::*;

const MAX_STAGES: u64 = 5_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cold-start convergence: deltas change bytes, nothing else. The
    /// `(routes, prices)` fixpoint and the stage/message/entry counters
    /// are bit-identical; the encoded stream only ever shrinks.
    #[test]
    fn delta_stream_reaches_the_full_advertisement_fixpoint(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0xD317_A5ED);

        let mut full = protocol::build_sync_engine(&graph).unwrap();
        full.set_delta_encoding(false);
        let full_report = full.run_to_convergence();
        prop_assert!(full_report.converged);
        let full_outcome = protocol::outcome_from_nodes(&full.into_nodes()).unwrap();

        let mut delta = protocol::build_sync_engine(&graph).unwrap();
        let delta_report = delta.run_to_convergence();
        prop_assert!(delta_report.converged);
        let delta_outcome =
            protocol::outcome_from_nodes(&delta.into_nodes()).unwrap();

        prop_assert_eq!(delta_outcome, full_outcome);
        prop_assert_eq!(delta_report.stages, full_report.stages);
        prop_assert_eq!(delta_report.messages, full_report.messages);
        prop_assert_eq!(delta_report.entries, full_report.entries);
        // A delta entry is never larger than the full one it replaces plus
        // its fixed 8-byte base-path hash. So on toy graphs with 2-hop
        // paths and 1-byte varints a delta can exceed the full ad; the
        // win needs paths of length Θ(d) to amortise the hash.
        prop_assert!(delta_report.bytes_v2 <= full_report.bytes_v2 + 8 * delta_report.entries);
    }

    /// Topology dynamics: a cost perturbation after convergence drives
    /// exactly the price-relaxation traffic deltas compress; the
    /// reconverged fixpoints must still match.
    #[test]
    fn delta_stream_survives_cost_changes(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..16,
        seed in 0u64..u64::MAX,
        node in 0u32..1000,
        cost in 0u64..50,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0x00C0_57ED);
        let event =
            TopologyEvent::CostChange(AsId::new(node % n as u32), Cost::new(cost));

        let mut full = protocol::build_sync_engine(&graph).unwrap();
        full.set_delta_encoding(false);
        full.run_to_convergence();
        let full_report = full.apply_event(event);
        prop_assert!(full_report.converged);
        let full_outcome = protocol::outcome_from_nodes(&full.into_nodes()).unwrap();

        let mut delta = protocol::build_sync_engine(&graph).unwrap();
        delta.run_to_convergence();
        let delta_report = delta.apply_event(event);
        prop_assert!(delta_report.converged);
        let delta_outcome =
            protocol::outcome_from_nodes(&delta.into_nodes()).unwrap();

        prop_assert_eq!(delta_outcome, full_outcome);
        prop_assert_eq!(delta_report.stages, full_report.stages);
        prop_assert_eq!(delta_report.messages, full_report.messages);
        prop_assert_eq!(delta_report.entries, full_report.entries);
        prop_assert!(delta_report.bytes_v2 <= full_report.bytes_v2 + 8 * delta_report.entries);
    }

    /// Chaos parity with deltas disabled: the self-stabilization claim is
    /// independent of the encoding mode, so a delta-free chaos run must
    /// also land on the fault-free (delta-encoded) fixpoint.
    #[test]
    fn delta_free_chaos_matches_fault_free_fixpoint(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..13,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0xDE17_AFE1);
        let reference = protocol::run_sync(&graph).unwrap().outcome;

        let mut engine =
            protocol::build_chaos_engine(&graph, FaultPlan::lossy(seed, 16)).unwrap();
        engine.set_delta_encoding(false);
        let report = engine.run_to_stable(MAX_STAGES);
        prop_assert!(report.converged, "did not quiesce: {report}");
        let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
        prop_assert_eq!(outcome, reference);
    }
}
