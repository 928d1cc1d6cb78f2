//! The distributed price computation as a BGP extension (paper, Sect. 6).
//!
//! A [`PricingBgpNode`] is a BGP speaker whose UPDATE messages additionally
//! carry, for every advertised route, the sender's current price entries for
//! the route's transit nodes. Price entries start at `∞` and relax downward
//! via the paper's four neighbor-case rules (Fig. 3) — implemented as one
//! unified bound in [`bgpvcg_bgp::Node`]'s relaxation; Lemma 1 shows the
//! component-wise minimum over neighbors is exactly the VCG price, and
//! Lemma 2 bounds convergence at `max(d, d′)` stages.
//!
//! No new message types are introduced and all communication stays between
//! physical neighbors — the paper's design constraint that makes the
//! mechanism deployable as "a straightforward extension to BGP".

use bgpvcg_bgp::{Node, PricePolicy};
use bgpvcg_netgraph::AsGraph;

/// The paper's cost model (FPSS): one scalar transit cost `c_k` per node.
/// Every term of the relaxation bound is [`PricePolicy`]'s default: the
/// cost neighbor `a` charges is the `c_a` heading its advertised path, the
/// case-(iv) base is `c_k`, and a stored entry *is* the price `p^k_ij`.
#[derive(Debug, Clone, Copy)]
pub struct Fpss;

impl PricePolicy for Fpss {
    type Graph = AsGraph;
}

/// A BGP speaker extended with the paper's distributed VCG price
/// computation.
///
/// Route selection is byte-identical to [`bgpvcg_bgp::PlainBgpNode`] (the
/// same [`Node`] drives the shared [`bgpvcg_bgp::RouteSelector`]); the
/// extension adds a per-destination price array aligned with the selected
/// route's transit nodes, relaxed from neighbors' advertised arrays.
///
/// # Example
///
/// ```
/// use bgpvcg_core::PricingBgpNode;
/// use bgpvcg_netgraph::generators::structured::fig1;
///
/// let g = fig1();
/// let nodes = PricingBgpNode::from_graph(&g);
/// assert_eq!(nodes.len(), g.node_count());
/// ```
pub type PricingBgpNode = Node<Fpss>;

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_bgp::{
        Adversary, PathEntry, ProtocolNode, RouteAdvertisement, RouteInfo, Strategy, Update,
    };
    use bgpvcg_netgraph::generators::from_edges;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::{AsId, Cost};
    use std::sync::Arc;

    /// One reachable advertisement from the path's first node for its
    /// last, with the given cost-annotated path, path cost and prices.
    fn advertises(path: &[(AsId, u64)], path_cost: u64, prices: &[Cost]) -> Arc<Update> {
        let entries: Vec<PathEntry> = path
            .iter()
            .map(|&(node, cost)| PathEntry {
                node,
                cost: Cost::new(cost),
            })
            .collect();
        let ad = RouteAdvertisement {
            destination: path[path.len() - 1].0,
            info: RouteInfo::Reachable {
                path: entries.into(),
                path_cost: Cost::new(path_cost),
                prices: prices.to_vec(),
            },
        };
        Arc::new(Update::if_nonempty(path[0].0, vec![ad]).unwrap())
    }

    /// B's route `B D Z` (transit cost 1, D not yet priced).
    fn via_b() -> Arc<Update> {
        advertises(
            &[(Fig1::B, 2), (Fig1::D, 1), (Fig1::Z, 0)],
            1,
            &[Cost::INFINITE],
        )
    }

    /// A's direct route `A Z`.
    fn via_a() -> Arc<Update> {
        advertises(&[(Fig1::A, 5), (Fig1::Z, 0)], 0, &[])
    }

    #[test]
    fn case_iv_bound_applies_from_unrelated_neighbor() {
        // Hand-drive a tiny interaction: node X learns route X,B,D,Z and an
        // unrelated route via A; the case-(iv) bound for both B and D is
        // c_k + c_A + c(A,Z) − c(X,Z) = c_k + 5 + 0 − 3 = c_k + 2.
        let mut x = PricingBgpNode::new(&fig1(), Fig1::X);
        x.handle(&[via_b(), via_a()]);
        // Selected route must be X,B,D,Z at cost 3.
        assert_eq!(x.selector().route_cost(Fig1::Z), Cost::new(3));
        assert_eq!(x.price(Fig1::Z, Fig1::B), Some(Cost::new(4)));
        assert_eq!(x.price(Fig1::Z, Fig1::D), Some(Cost::new(3)));
    }

    #[test]
    fn extraction_reports_a_price_below_its_declared_cost() {
        // B lies that D's price is 0, below D's declared cost 1. X prices D
        // from B's array (case (i)), so the extracted outcome would pay D
        // less than it declared: an error in every build, not a panic.
        let g = fig1();
        let mut nodes = PricingBgpNode::from_graph(&g);
        let lying_b = advertises(
            &[(Fig1::B, 2), (Fig1::D, 1), (Fig1::Z, 0)],
            1,
            &[Cost::ZERO],
        );
        nodes[Fig1::X.index()].handle(&[lying_b, via_a()]);
        assert_eq!(
            crate::protocol::outcome_from_nodes(&nodes),
            Err(crate::MechanismError::PriceBelowCost {
                source: Fig1::X,
                destination: Fig1::Z,
                transit: Fig1::D,
                price: Cost::ZERO,
                cost: Cost::new(1),
            })
        );
    }

    #[test]
    fn route_change_resets_prices() {
        let mut x = PricingBgpNode::new(&fig1(), Fig1::X);
        // First: only the expensive route via A is known.
        x.handle(&[via_a()]);
        assert_eq!(x.selector().route_cost(Fig1::Z), Cost::new(5));
        assert_eq!(x.price(Fig1::Z, Fig1::A), Some(Cost::INFINITE));
        assert_eq!(x.state().price_entries, 1);
        // Then the better route via B arrives: the array must track the new
        // route's transit nodes (B, D), not A.
        x.handle(&[via_b()]);
        assert_eq!(x.selector().route_cost(Fig1::Z), Cost::new(3));
        assert_eq!(x.state().price_entries, 2);
        assert_eq!(x.price(Fig1::Z, Fig1::B), Some(Cost::new(4)));
        assert_eq!(x.price(Fig1::Z, Fig1::A), None);
    }

    #[test]
    fn a_detour_ending_at_the_destination_charges_it_nothing() {
        // A triangle whose AS 2 equivocates: AS 0, its second neighbor,
        // hears 2's origin route with the path cost inflated by 6, so it
        // routes to 2 via 1. The detour around 1 is the direct link, and
        // `decide` adds nothing for a destination: it costs the advertised
        // 6, so `p^1` = c_1 + 6 − c(0, 2) = 6. Were 2's own entry to carry
        // c_2, the bound would charge it too and read 8.
        let g = from_edges(
            vec![Cost::new(1), Cost::new(1), Cost::new(2)],
            &[(0, 1), (1, 2), (2, 0)],
        );
        let (i, x, j) = (AsId::new(0), AsId::new(1), AsId::new(2));
        let origin = PricingBgpNode::new(&g, j).start().expect("an origin route");
        let lie = Adversary::new(Strategy::Equivocate, 5)
            .perturb(i, 1, &origin)
            .expect("a second neighbor hears the inflated cost");
        let lied = lie.advertisements[0].info.path_cost();
        assert_eq!(lied, Some(Cost::new(6)));
        let relay = PricingBgpNode::new(&g, x).handle(&[Arc::new(origin)]);
        let via_x = relay.expect("1 advertises its route to 2");

        let mut node = PricingBgpNode::new(&g, i);
        node.handle(&[Arc::new(lie), Arc::new(via_x)]);
        let route = node.selector().selected(j).expect("a route to 2");
        assert_eq!(route.next_hop(), Some(x));
        assert_eq!(route.cost, Cost::new(1));
        assert_eq!(route.path.last().map(|e| e.cost), Some(Cost::ZERO));
        assert_eq!(node.price(j, x), Some(Cost::new(6)));
    }

    #[test]
    fn malformed_price_arrays_are_dropped_before_any_table_is_indexed() {
        // The price table and the position table are indexed by AS number:
        // an id outside the graph must never get that far, priced or not.
        let mut x = PricingBgpNode::new(&fig1(), Fig1::X);
        let huge = AsId::new(u32::MAX);
        let before = x.state();
        let priced = [Cost::new(2)];
        let hostile = advertises(&[(Fig1::A, 5), (huge, 1), (Fig1::Z, 0)], 1, &priced);
        assert!(x.handle(&[hostile]).is_none());
        assert_eq!(x.state(), before);
        assert_eq!(x.price(huge, Fig1::A), None);
        assert_eq!(x.selector().route_cost(Fig1::Z), Cost::INFINITE);
    }
}
