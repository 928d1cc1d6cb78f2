//! Mechanism invariant hooks.
//!
//! These functions hold `debug_assert!`-based audits at the mechanism's
//! extraction and precondition points, so every debug build (every
//! `cargo test`) runs them and release builds compile them to nothing.
//! (The per-pass relaxation audit lives with the relaxation, in
//! `bgpvcg-bgp`.) `cargo xtask audit` verifies that the hooks stay wired
//! in.

use bgpvcg_bgp::{PathEntry, PricePolicy};
use bgpvcg_netgraph::{AsGraph, Cost};

/// Audits one extracted pair of a quiescent network: Theorem 1 prices are
/// `p^k = c_k + margin` with `margin ≥ 0`, so at the fixpoint every price
/// — each entry of `row` read back through `P::price` against the transit
/// entry it is aligned with — is at least that transit node's declared
/// cost on the selected route (`INFINITE` entries — monopoly positions
/// after topology damage — satisfy the bound trivially).
pub(crate) fn converged_prices<P: PricePolicy>(transit: &[PathEntry], row: &[Cost]) {
    if cfg!(debug_assertions) {
        for (k, &stored) in transit.iter().zip(row) {
            let price = P::price(k, stored);
            debug_assert!(
                price >= k.cost,
                "converged price {price} of {} below its declared cost {}",
                k.node,
                k.cost
            );
        }
    }
}

/// Audits the mechanism's graph preconditions after validation: a graph
/// that passed [`AsGraph::validate_for_mechanism`] really is biconnected,
/// which is what guarantees every k-avoiding path (and hence every price)
/// exists.
pub(crate) fn mechanism_preconditions(graph: &AsGraph) {
    debug_assert!(
        graph.is_biconnected(),
        "validated mechanism input must be biconnected"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::ring;
    use bgpvcg_netgraph::AsId;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be biconnected")]
    fn a_non_biconnected_precondition_trips_the_hook() {
        // A path is connected but not biconnected.
        let g = ring(4, Cost::new(1))
            .without_link(AsId::new(0), AsId::new(3))
            .unwrap();
        mechanism_preconditions(&g);
    }
}
