//! Synchronous Bellman–Ford fixpoint with protocol semantics.
//!
//! The paper's BGP model (Sect. 5) computes routes by synchronous stages:
//! each stage, every node ingests its neighbors' previously advertised
//! routes, re-selects, and advertises on change. This module runs that exact
//! computation centrally, which serves two purposes:
//!
//! * it is an independent cross-check that [`shortest_tree`] (Dijkstra)
//!   selects the same routes the staged protocol converges to, and
//! * it measures the number of stages to convergence, the quantity bounded
//!   by `d` in the paper's Sect. 5 claim.
//!
//! [`shortest_tree`]: crate::shortest_tree

use crate::route::Route;
use crate::tree::DestinationTree;
use bgpvcg_netgraph::{AsGraph, AsId, Cost};

/// Result of the staged fixpoint computation for one destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixpointResult {
    /// The selected-routes tree at convergence.
    pub tree: DestinationTree,
    /// Number of stages until no route changed (a graph of diameter `d`
    /// converges in `d` stages; the final, change-free stage is not
    /// counted).
    pub stages: usize,
}

/// Runs the synchronous path-vector fixpoint for one destination.
///
/// Stage semantics (paper, Sect. 5): all nodes simultaneously read the
/// routes their neighbors selected at the end of the previous stage, pick
/// the best loop-free extension under the deterministic route order, and
/// expose the result to the next stage. Iteration stops at the first stage
/// in which nothing changed.
///
/// # Panics
///
/// Panics if `destination` is not a node of `graph`.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_lcp::{bellman, shortest_tree};
///
/// let g = fig1();
/// let fix = bellman::fixpoint(&g, Fig1::Z);
/// assert_eq!(fix.tree, shortest_tree(&g, Fig1::Z));
/// ```
pub fn fixpoint(graph: &AsGraph, destination: AsId) -> FixpointResult {
    assert!(
        graph.contains_node(destination),
        "destination {destination} not in graph"
    );
    let n = graph.node_count();
    let mut current: Vec<Option<Route>> = vec![None; n];
    current[destination.index()] = Some(Route::trivial(destination));

    let mut stages = 0;
    loop {
        let mut next = current.clone();
        let mut changed = false;
        for u in graph.nodes() {
            if u == destination {
                continue;
            }
            let mut best: Option<Route> = None;
            for &a in graph.neighbors(u) {
                let Some(advertised) = &current[a.index()] else {
                    continue;
                };
                if advertised.contains(u) {
                    continue; // loop suppression
                }
                let candidate = advertised.extend(u, graph.cost(a));
                if best.as_ref().is_none_or(|b| candidate < *b) {
                    best = Some(candidate);
                }
            }
            if best != current[u.index()] {
                changed = true;
            }
            next[u.index()] = best;
        }
        if !changed {
            break;
        }
        current = next;
        stages += 1;
    }

    let parents = current
        .iter()
        .map(|r| r.as_ref().and_then(|r| r.nodes().get(1).copied()))
        .collect();
    let costs = current
        .iter()
        .map(|r| r.as_ref().map_or(Cost::INFINITE, Route::transit_cost))
        .collect();
    let hops = current
        .iter()
        .map(|r| r.as_ref().map_or(0, Route::hops))
        .collect();
    FixpointResult {
        tree: DestinationTree::from_parts(destination, parents, costs, hops),
        stages,
    }
}

/// Runs [`fixpoint`] for every destination and returns the maximum stage
/// count — the whole-protocol convergence time under synchronous stages.
pub fn max_stages(graph: &AsGraph) -> usize {
    graph
        .nodes()
        .map(|j| fixpoint(graph, j).stages)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diameter;
    use crate::dijkstra::shortest_tree;
    use crate::AllPairsLcp;
    use bgpvcg_netgraph::generators::structured::{fig1, ring, torus, Fig1};
    use bgpvcg_netgraph::generators::{
        barabasi_albert, erdos_renyi, random_costs, waxman, WaxmanConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixpoint_matches_dijkstra_on_fig1() {
        let g = fig1();
        for j in g.nodes() {
            let fix = fixpoint(&g, j);
            assert_eq!(fix.tree, shortest_tree(&g, j), "destination {j}");
        }
    }

    #[test]
    fn fixpoint_matches_dijkstra_on_random_families() {
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let costs = random_costs(24, 0, 9, &mut rng);
            let g = match seed % 3 {
                0 => erdos_renyi(costs, 0.2, &mut rng),
                1 => barabasi_albert(costs, 2, &mut rng),
                _ => waxman(costs, WaxmanConfig::default(), &mut rng),
            };
            for j in g.nodes() {
                let fix = fixpoint(&g, j);
                assert_eq!(fix.tree, shortest_tree(&g, j), "seed {seed} dest {j}");
            }
        }
    }

    #[test]
    fn stage_count_equals_route_depth_on_ring() {
        // On an n-ring the deepest LCP has ceil(n/2) hops... but the paper's
        // bound is stages <= d where d is the max LCP hop count.
        let g = ring(9, Cost::new(1));
        let fix = fixpoint(&g, AsId::new(0));
        let d = g.nodes().filter_map(|i| fix.tree.hops(i)).max().unwrap();
        assert!(fix.stages <= d, "stages {} > d {}", fix.stages, d);
        assert!(
            fix.stages >= d,
            "must take at least d stages to reach depth-d nodes"
        );
    }

    #[test]
    fn stage_count_bounded_by_lcp_diameter() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(50 + seed);
            let costs = random_costs(30, 1, 10, &mut rng);
            let g = erdos_renyi(costs, 0.15, &mut rng);
            let lcp = AllPairsLcp::compute(&g);
            let d = diameter::lcp_hop_diameter(&lcp);
            for j in g.nodes() {
                let fix = fixpoint(&g, j);
                assert!(
                    fix.stages <= d,
                    "seed {seed}: stages {} exceed d {}",
                    fix.stages,
                    d
                );
            }
        }
    }

    #[test]
    fn torus_converges() {
        let g = torus(4, 4, Cost::new(2));
        for j in g.nodes() {
            let fix = fixpoint(&g, j);
            assert_eq!(fix.tree, shortest_tree(&g, j));
        }
    }

    #[test]
    fn max_stages_spans_destinations() {
        let g = fig1();
        let per_dest: Vec<usize> = g.nodes().map(|j| fixpoint(&g, j).stages).collect();
        assert_eq!(max_stages(&g), per_dest.into_iter().max().unwrap());
    }

    #[test]
    fn disconnected_nodes_never_get_routes() {
        use bgpvcg_netgraph::generators::from_edges;
        let g = from_edges(vec![Cost::ZERO; 4], &[(0, 1), (2, 3)]);
        let fix = fixpoint(&g, AsId::new(0));
        assert!(fix.tree.route(AsId::new(2)).is_none());
        assert!(fix.tree.route(AsId::new(3)).is_none());
        assert!(fix.tree.route(AsId::new(1)).is_some());
    }

    #[test]
    fn fig1_converges_in_at_most_three_stages() {
        // The deepest route to Z is X B D Z (3 hops).
        let g = fig1();
        let fix = fixpoint(&g, Fig1::Z);
        assert!(fix.stages <= 3);
    }
}
