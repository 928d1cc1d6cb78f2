//! Mechanism invariant hooks.
//!
//! These functions audit the mechanism's extraction and precondition
//! points. The extraction check runs in every build and returns what it
//! finds as a [`MechanismError`]; the precondition audit is a
//! `debug_assert!`, run by every debug build (every `cargo test`) and
//! compiled to nothing in release builds. (The per-pass relaxation audit
//! lives with the relaxation, in `bgpvcg-bgp`.) `cargo xtask audit`
//! verifies that the hooks stay wired in.

use crate::errors::MechanismError;
use bgpvcg_bgp::{PathEntry, PricePolicy};
use bgpvcg_netgraph::{AsGraph, AsId, Cost};

/// Checks one extracted pair `(source, destination)` of a quiescent
/// network: Theorem 1 prices are `p^k = c_k + margin` with `margin ≥ 0`,
/// so at the fixpoint every price — each entry of `row` read back through
/// `P::price` against the transit entry it is aligned with — is at least
/// that transit node's declared cost on the selected route (`INFINITE`
/// entries — monopoly positions after topology damage — satisfy the bound
/// trivially). The first price below it is returned as
/// [`MechanismError::PriceBelowCost`].
pub(crate) fn converged_prices<P: PricePolicy>(
    (source, destination): (AsId, AsId),
    transit: &[PathEntry],
    row: &[Cost],
) -> Result<(), MechanismError> {
    let priced = transit
        .iter()
        .zip(row)
        .map(|(k, &stored)| (k, P::price(k, stored)));
    match priced.into_iter().find(|(k, price)| *price < k.cost) {
        None => Ok(()),
        Some((k, price)) => Err(MechanismError::PriceBelowCost {
            source,
            destination,
            transit: k.node,
            price,
            cost: k.cost,
        }),
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
    use crate::pricing_node::Fpss;
    use bgpvcg_netgraph::generators::structured::ring;

    #[test]
    fn a_price_below_its_declared_cost_is_returned() {
        // In every build: k is priced at 2 against its declared cost 3; ∞
        // satisfies the bound.
        let (pair, k) = ((AsId::new(0), AsId::new(4)), AsId::new(2));
        let transit = [PathEntry {
            node: k,
            cost: Cost::new(3),
        }];
        let below = MechanismError::PriceBelowCost {
            source: pair.0,
            destination: pair.1,
            transit: k,
            price: Cost::new(2),
            cost: Cost::new(3),
        };
        let check = |price| converged_prices::<Fpss>(pair, &transit, &[price]);
        assert_eq!(check(Cost::new(2)), Err(below));
        assert_eq!(check(Cost::INFINITE), Ok(()));
    }

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
