//! Theorem 1: the unique strategyproof pricing scheme, computed centrally.
//!
//! For a biconnected AS graph with declared costs `c`, routing along LCPs,
//! the only strategyproof payment scheme that gives nothing to nodes
//! carrying no transit traffic pays each transit node `k` on the LCP from
//! `i` to `j` the per-packet price
//!
//! ```text
//! p^k_ij = c_k + Cost(P_{-k}(c; i, j)) − Cost(P(c; i, j))
//! ```
//!
//! where `P` is the selected LCP and `P_{-k}` the lowest-cost k-avoiding
//! path. Under the per-neighbour costs of [`crate::neighbor_costs`], `c_k`
//! is `c_k(pred)`, what `k` incurs receiving from its predecessor on `P`.
//! This module computes those prices from the centralized routing
//! structures of `bgpvcg-lcp`; it is the ground truth against which the
//! distributed protocol is checked (Theorem 2), and the reference
//! implementation used by the strategyproofness harness.

use crate::outcome::RoutingOutcome;
use bgpvcg_lcp::{avoiding, AllPairsLcp, CostModel};
use bgpvcg_netgraph::{Cost, GraphError};
use std::iter;

/// Computes the full VCG outcome — all LCPs and all prices — for a
/// biconnected graph, under either cost model ([`CostModel`]: node costs
/// on an [`AsGraph`](bgpvcg_netgraph::AsGraph), or the per-neighbour costs
/// of [`crate::neighbor_costs`]).
///
/// The table's layout depends only on the LCP hop counts, so every cell
/// is placed first, prices at `∞`; the subtree-local pass
/// ([`avoiding::for_each_destination`], Lemma 1) then writes each price
/// into its cell, holding nothing beyond the LCP trees and `O(n + m)`
/// scratch.
///
/// # Errors
///
/// Returns the graph-validation error if the graph violates the mechanism's
/// preconditions (too small, disconnected, or not biconnected — in the last
/// case some price would be undefined, the paper's monopoly situation).
///
/// # Example
///
/// ```
/// use bgpvcg_core::vcg;
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_netgraph::Cost;
///
/// # fn main() -> Result<(), bgpvcg_netgraph::GraphError> {
/// let outcome = vcg::compute(&fig1())?;
/// // Sect. 4's overcharging example: D is paid 9 per Y→Z packet even
/// // though its declared cost is 1.
/// assert_eq!(outcome.price(Fig1::Y, Fig1::Z, Fig1::D), Some(Cost::new(9)));
/// # Ok(())
/// # }
/// ```
pub fn compute<C: CostModel + ?Sized>(graph: &C) -> Result<RoutingOutcome, GraphError> {
    let topology = graph.topology();
    topology.validate_for_mechanism()?;
    let lcp = &AllPairsLcp::compute(graph);
    // Every routed pair with its hop count: hops + 1 node cells and
    // hops − 1 price cells.
    let routes = || {
        topology.nodes().flat_map(move |i| {
            let others = topology.nodes().filter(move |&j| j != i);
            others.filter_map(move |j| Some((i, j, lcp.tree(j).hops(i)?)))
        })
    };
    let transit = routes().map(|(_, _, hops)| hops - 1).sum();
    let mut table = RoutingOutcome::builder(topology.node_count());
    table.reserve(transit + 2 * routes().count(), transit);
    for (i, j, hops) in routes() {
        let tree = lcp.tree(j);
        let unpriced = iter::repeat_n(Cost::INFINITE, hops - 1);
        table.push(i, j, tree.cost(i), tree.path(i), unpriced);
    }
    let mut outcome = table.finish();
    // The pass visits each price cell once: p^k_ij = c_k(pred) + Cost(P_{-k})
    // − Cost(P), where k receives from the route's node at `slot`. With no
    // k-avoiding path the margin is `None` and the cell stays ∞.
    let mut priced = 0;
    avoiding::for_each_destination(graph, lcp, |j, i, slot, entry| {
        if let Some(margin) = entry.cost.checked_sub(lcp.tree(j).cost(i)) {
            let (route, prices) = outcome.price_row_mut(i, j);
            prices[slot] = graph.transit_cost(route[slot + 1], route[slot]) + margin;
            priced += 1;
        }
    });
    if priced < transit {
        return Err(GraphError::NotBiconnected);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, ring, wheel, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, from_edges, random_costs};
    use bgpvcg_netgraph::{AsGraph, AsId, Cost};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_worked_example_x_to_z() {
        // Sect. 4: "D should be paid c_D + [5 − 3] = 3. Similarly, AS B is
        // paid c_B + [5 − 3] = 4."
        let outcome = compute(&fig1()).unwrap();
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::D), Some(Cost::new(3)));
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::B), Some(Cost::new(4)));
    }

    #[test]
    fn paper_worked_example_y_to_z_overcharges() {
        // Sect. 4: "D's payment for this packet is 1 + [9 − 1] = 9, even
        // though D's cost is still 1."
        let outcome = compute(&fig1()).unwrap();
        assert_eq!(outcome.price(Fig1::Y, Fig1::Z, Fig1::D), Some(Cost::new(9)));
        // Y D Z has a single transit node.
        assert_eq!(outcome.pair(Fig1::Y, Fig1::Z).unwrap().prices().len(), 1);
    }

    #[test]
    fn price_at_least_declared_cost() {
        // p^k = c_k + (avoiding − lcp) and avoiding ≥ lcp, so p^k ≥ c_k.
        let mut rng = StdRng::seed_from_u64(1);
        let costs = random_costs(15, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let outcome = compute(&g).unwrap();
        for (_, _, pair) in outcome.pairs() {
            for (k, p) in pair.prices() {
                assert!(p >= g.cost(k), "price {p} below cost {} of {k}", g.cost(k));
            }
        }
    }

    #[test]
    fn off_route_nodes_have_no_price() {
        let outcome = compute(&fig1()).unwrap();
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::A), None);
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::Y), None);
        // Endpoints never have prices either.
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::X), None);
        assert_eq!(outcome.price(Fig1::X, Fig1::Z, Fig1::Z), None);
    }

    #[test]
    fn rejects_non_biconnected_graphs() {
        let path = from_edges(vec![Cost::new(1); 3], &[(0, 1), (1, 2)]);
        assert_eq!(compute(&path).unwrap_err(), GraphError::NotBiconnected);
    }

    #[test]
    fn rejects_tiny_graphs() {
        let mut b = bgpvcg_netgraph::AsGraph::builder();
        b.add_node(Cost::ZERO);
        assert!(matches!(
            compute(&b.build()).unwrap_err(),
            GraphError::TooSmall { .. }
        ));
    }

    #[test]
    fn symmetric_prices_on_uniform_ring() {
        // On a uniform ring the mechanism is symmetric: reversing a pair
        // reverses the route and preserves the price of each transit node.
        let g = ring(7, Cost::new(2));
        let outcome = compute(&g).unwrap();
        for i in g.nodes() {
            for j in g.nodes() {
                if i == j {
                    continue;
                }
                let fwd = outcome.pair(i, j).unwrap();
                let back = outcome.pair(j, i).unwrap();
                for (k, p) in fwd.prices() {
                    assert_eq!(back.price_of(k), Some(p), "{i}->{j} vs {j}->{i} at {k}");
                }
            }
        }
    }

    #[test]
    fn wheel_hub_extracts_rim_detour_surplus() {
        // Wheel with free hub and expensive rim: rim-to-rim LCPs use the
        // hub; the hub's price includes the full detour margin.
        let g = wheel(6, Cost::ZERO, Cost::new(10));
        let outcome = compute(&g).unwrap();
        let hub = AsId::new(0);
        // Opposite rim nodes 1 and 3: LCP is 1,0,3 (cost 0); best
        // hub-avoiding path is 1,2,3 (cost 10).
        let pair = outcome.pair(AsId::new(1), AsId::new(3)).unwrap();
        assert_eq!(pair.nodes(), &[AsId::new(1), hub, AsId::new(3)]);
        assert_eq!(pair.price_of(hub), Some(Cost::new(10)));
    }

    #[test]
    fn prices_match_exhaustive_path_enumeration() {
        // Ground truth from first principles: enumerate ALL simple paths,
        // take the minimum cost and the minimum k-avoiding cost directly
        // from the definition, and compare with the production pipeline.
        fn all_simple_path_costs(g: &AsGraph, i: AsId, j: AsId) -> Vec<(Vec<AsId>, u64)> {
            fn dfs(
                g: &AsGraph,
                at: AsId,
                j: AsId,
                path: &mut Vec<AsId>,
                out: &mut Vec<(Vec<AsId>, u64)>,
            ) {
                if at == j {
                    let cost: u64 = path[1..path.len() - 1]
                        .iter()
                        .map(|&k| g.cost(k).finite().unwrap())
                        .sum();
                    out.push((path.clone(), cost));
                    return;
                }
                for &next in g.neighbors(at) {
                    if !path.contains(&next) {
                        path.push(next);
                        dfs(g, next, j, path, out);
                        path.pop();
                    }
                }
            }
            let mut out = Vec::new();
            let mut path = vec![i];
            dfs(g, i, j, &mut path, &mut out);
            out
        }

        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let costs = random_costs(8, 0, 7, &mut rng);
            let g = erdos_renyi(costs, 0.4, &mut rng);
            let outcome = compute(&g).unwrap();
            for i in g.nodes() {
                for j in g.nodes() {
                    if i == j {
                        continue;
                    }
                    let paths = all_simple_path_costs(&g, i, j);
                    let lcp_cost = paths.iter().map(|(_, c)| *c).min().unwrap();
                    let pair = outcome.pair(i, j).unwrap();
                    assert_eq!(
                        pair.transit_cost(),
                        Cost::new(lcp_cost),
                        "seed {seed}: LCP cost {i}->{j}"
                    );
                    for (k, price) in pair.prices() {
                        let avoid_cost = paths
                            .iter()
                            .filter(|(p, _)| !p.contains(&k))
                            .map(|(_, c)| *c)
                            .min()
                            .expect("biconnected");
                        let expected = g.cost(k).finite().unwrap() + avoid_cost - lcp_cost;
                        assert_eq!(
                            price,
                            Cost::new(expected),
                            "seed {seed}: price of {k} on {i}->{j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_reachable_pair_is_priced() {
        let mut rng = StdRng::seed_from_u64(5);
        let costs = random_costs(12, 1, 6, &mut rng);
        let g = erdos_renyi(costs, 0.4, &mut rng);
        let outcome = compute(&g).unwrap();
        let n = g.node_count();
        assert_eq!(outcome.pairs().count(), n * (n - 1));
    }
}
