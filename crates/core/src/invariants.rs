//! Feature-gated mechanism invariant hooks.
//!
//! With the `invariant-checks` cargo feature enabled, these functions
//! install `debug_assert!`-based audits at the mechanism's extraction and
//! precondition points; without it they compile to nothing. (The per-pass
//! relaxation audit lives with the relaxation, in `bgpvcg-bgp`.) `cargo
//! xtask audit` verifies both that the hooks stay wired in and that the
//! feature-enabled test suite passes.

#[cfg(feature = "invariant-checks")]
use bgpvcg_bgp::SelectedRoute;
#[cfg(feature = "invariant-checks")]
use bgpvcg_netgraph::{AsGraph, AsId, Cost};

/// Audits one extracted pair of a quiescent network: Theorem 1 prices are
/// `p^k = c_k + margin` with `margin ≥ 0`, so at the fixpoint every price
/// is at least the transit node's declared cost on the selected route
/// (`INFINITE` entries — monopoly positions after topology damage — satisfy
/// the bound trivially).
#[cfg(feature = "invariant-checks")]
pub(crate) fn converged_prices(route: Option<&SelectedRoute>, prices: &[(AsId, Cost)]) {
    let Some(route) = route else {
        debug_assert!(prices.is_empty(), "prices extracted without a route");
        return;
    };
    for &(k, price) in prices {
        let declared = route
            .path
            .iter()
            .find(|e| e.node == k)
            .map(|e| e.cost)
            .unwrap_or(Cost::INFINITE);
        debug_assert!(
            price >= declared,
            "converged price {price} of {k} below its declared cost {declared}"
        );
    }
}

#[cfg(not(feature = "invariant-checks"))]
#[inline(always)]
pub(crate) fn converged_prices<R, P>(_route: Option<&R>, _prices: &[P]) {}

/// Audits the mechanism's graph preconditions after validation: a graph
/// that passed [`AsGraph::validate_for_mechanism`] really is biconnected,
/// which is what guarantees every k-avoiding path (and hence every price)
/// exists.
#[cfg(feature = "invariant-checks")]
pub(crate) fn mechanism_preconditions(graph: &AsGraph) {
    debug_assert!(
        graph.is_biconnected(),
        "validated mechanism input must be biconnected"
    );
}

#[cfg(not(feature = "invariant-checks"))]
#[inline(always)]
pub(crate) fn mechanism_preconditions<G>(_graph: &G) {}
