//! A converged network to microbench the per-node layers on.
//!
//! The selector and pricing benches replay the same steady-state
//! message against the same node, so that their numbers add up: AS 0 of a
//! converged network — the hub, on Barabási–Albert graphs — receives its
//! first neighbour's full table, alternating with a copy whose every price
//! is one higher. Each delivery overwrites the neighbour's whole Rib-In
//! column, which is the shape of a Sect. 6 relaxation round.

use crate::families::Family;
use bgpvcg_bgp::{ProtocolNode, RouteInfo, Update};
use bgpvcg_core::{protocol, PricingBgpNode};
use bgpvcg_netgraph::Cost;

/// The converged pricing nodes of `family` at size `n` (seed 61, the
/// repo's yardstick seed) and the two tables AS 0's first neighbour
/// alternates between.
///
/// # Panics
///
/// Panics if the graph fails validation or the run does not converge —
/// neither happens for the Barabási–Albert and ring families.
pub fn converged(family: Family, n: usize) -> (Vec<PricingBgpNode>, [Update; 2]) {
    let g = family.build(n, 61);
    let mut engine = protocol::build_sync_engine(&g).expect("valid graph");
    assert!(engine.run_to_convergence().converged);
    let nodes = engine.into_nodes();
    let neighbor = nodes[0].selector().neighbors().next().expect("biconnected");
    let table = nodes[neighbor.index()].full_table().expect("converged");
    let mut repriced = table.clone();
    for ad in &mut repriced.advertisements {
        if let RouteInfo::Reachable { prices, .. } = &mut ad.info {
            prices.iter_mut().for_each(|p| *p += Cost::new(1));
        }
    }
    (nodes, [table, repriced])
}
