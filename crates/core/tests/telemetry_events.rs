//! Cross-engine telemetry equivalence on the paper's Fig. 1.
//!
//! A synchronous run and an asynchronous one (per-link FIFO, seed-drawn
//! interleaving) schedule message deliveries completely differently, so
//! the *trajectories* of price relaxation (how many intermediate values a
//! `p^k_ij` cell passes through, and at what stage) are legitimately
//! schedule-dependent. What the mechanism guarantees — and what these tests
//! pin — is the *fixpoint projection*: for every `(node, dest, k)` cell,
//! the last `PriceRelaxed.new` value both runs trace is the same, and it
//! equals the converged Theorem-1 price.

use bgpvcg_bgp::chaos::FaultPlan;
use bgpvcg_core::{protocol, vcg};
use bgpvcg_netgraph::generators::structured::fig1;
use bgpvcg_netgraph::AsId;
use bgpvcg_telemetry::{Telemetry, TraceEvent, INFINITE};
use std::collections::BTreeMap;

/// Last traced value per `(node, dest, k)` cell, plus the paper's "prices
/// relax monotonically downward from ∞": each cell's successive traced
/// values strictly decrease.
fn fixpoint_projection(events: &[TraceEvent]) -> BTreeMap<(u32, u32, u32), u64> {
    let mut last: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
    for event in events {
        if let TraceEvent::PriceRelaxed {
            node, dest, k, new, ..
        } = event
        {
            let key = (*node, *dest, *k);
            let previous = last.insert(key, *new).unwrap_or(INFINITE);
            assert!(
                *new < previous,
                "cell {key:?}: prices only relax downward ({previous} -> {new})"
            );
        }
    }
    last
}

#[test]
fn sync_and_asynchronous_price_relaxations_project_to_the_same_fixpoint() {
    let g = fig1();

    let (sync_tel, sync_ring) = Telemetry::ring(1 << 16);
    let mut engine = protocol::build_sync_engine(&g).unwrap();
    engine.attach_telemetry(&sync_tel);
    assert!(engine.run_to_convergence().converged);
    let sync_outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
    let sync_prices = fixpoint_projection(&sync_ring.events());

    // No session restarts: a link bounce would legitimately raise prices
    // and break the downward chains.
    let (async_tel, async_ring) = Telemetry::ring(1 << 16);
    let mut engine = protocol::build_chaos_engine(&g, FaultPlan::asynchronous(7)).unwrap();
    engine.attach_telemetry(&async_tel);
    let report = engine.run_to_stable(1_000);
    assert!(report.converged && report.frames_delayed > 0, "{report}");
    assert_eq!(report.holds_fired, 0, "{report}");
    assert_eq!(report.session_resets, 2 * g.link_count() as u64, "{report}");
    let async_outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
    let async_prices = fixpoint_projection(&async_ring.events());

    assert_eq!(
        sync_prices, async_prices,
        "both runs must relax every price cell to the same fixpoint"
    );
    assert_eq!(sync_outcome, async_outcome);

    // The traced fixpoint is the converged Theorem-1 price table: every
    // extracted finite price appears as some cell's final traced value.
    let reference = vcg::compute(&g).unwrap();
    let n = g.node_count();
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            let Some(pair) = reference.pair(AsId::new(i), AsId::new(j)) else {
                continue;
            };
            for (k, price) in pair.prices() {
                assert_eq!(
                    sync_prices.get(&(i, j, k.raw())).copied(),
                    price.finite(),
                    "traced fixpoint for ({i} -> {j} via {k})"
                );
            }
        }
    }
}
