//! The one Dijkstra, under the deterministic route order, for both cost
//! models.

use crate::tree::DestinationTree;
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The cost side of a graph, as the route extension rule reads it: what a
/// transit node charges to carry a packet handed to it by a neighbour.
///
/// [`AsGraph`] implements it with the paper's node costs (`c_u`, whoever
/// hands the packet over); `bgpvcg-core` implements it for the Sect. 3
/// extension to per-neighbour receive costs (`c_u(from)`). Every solver in
/// this crate is generic over it, so both cost models share one Dijkstra,
/// one avoidance pass and one set of oracles.
pub trait CostModel {
    /// The topology the costs are declared on.
    fn topology(&self) -> &AsGraph;

    /// What `transit` charges per packet it receives from its neighbour
    /// `from` and forwards.
    fn transit_cost(&self, transit: AsId, from: AsId) -> Cost;
}

impl CostModel for AsGraph {
    fn topology(&self) -> &AsGraph {
        self
    }

    fn transit_cost(&self, transit: AsId, _from: AsId) -> Cost {
        self.cost(transit)
    }
}

/// Computes the tree `T(j)` of selected lowest-cost routes to `destination`.
///
/// This is Dijkstra's algorithm run *from the destination outward*, with the
/// composite route order `(transit cost, hops, lexicographic path)` as the
/// priority. Because the order is total and monotone under extension, the
/// selected route for every node is unique, the selected routes form a tree,
/// and — crucially — the result coincides with the stable state of the
/// distributed path-vector protocol (tested extensively in `bgpvcg-bgp`).
///
/// Nodes unreachable from `destination` get no route.
///
/// # Complexity
///
/// `O(m log n)` heap operations on `(cost, hops, parent, node)` keys; each
/// settled node stores its key, so the tree is `O(n)` words.
///
/// # Panics
///
/// Panics if `destination` is not in the graph.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_lcp::shortest_tree;
/// use bgpvcg_netgraph::Cost;
///
/// let g = fig1();
/// let t = shortest_tree(&g, Fig1::Z);
/// assert_eq!(t.cost(Fig1::X), Cost::new(3));
/// ```
pub fn shortest_tree<C: CostModel + ?Sized>(graph: &C, destination: AsId) -> DestinationTree {
    assert!(
        graph.topology().contains_node(destination),
        "destination {destination} not in graph"
    );
    dijkstra(graph, destination, None)
}

/// Dijkstra toward `destination` on the graph with `avoid` (if any) removed.
///
/// Two candidate routes to `v` are `v` prepended to two selected routes,
/// and they first differ at `v`'s parent — so the route order's
/// lexicographic tie-break is exactly "smaller parent id", and the heap
/// carries `(cost, hops, parent)` keys instead of routes. A node's key at
/// settling is its entry in the tree.
pub(crate) fn dijkstra<C: CostModel + ?Sized>(
    graph: &C,
    destination: AsId,
    avoid: Option<AsId>,
) -> DestinationTree {
    let topology = graph.topology();
    let n = topology.node_count();
    let mut parents: Vec<Option<AsId>> = vec![None; n];
    let mut costs = vec![Cost::INFINITE; n];
    let mut depths = vec![0; n];
    let mut best: Vec<Option<(Cost, usize, AsId)>> = vec![None; n];
    // Pre-settling `avoid` (with no route) keeps pops and relaxations from
    // ever touching it.
    let mut settled = vec![false; n];
    if let Some(k) = avoid {
        settled[k.index()] = true;
    }
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((Cost::ZERO, 0, destination, destination)));
    while let Some(Reverse((cost, hops, parent, u))) = heap.pop() {
        if settled[u.index()] {
            continue; // stale entry
        }
        settled[u.index()] = true;
        // The destination, popped first, is its own "parent".
        parents[u.index()] = (u != destination).then_some(parent);
        costs[u.index()] = cost;
        depths[u.index()] = hops;
        for &v in topology.neighbors(u) {
            if settled[v.index()] {
                continue;
            }
            // v → u → …: u turns transit unless it is the destination.
            let through = if u == destination {
                Cost::ZERO
            } else {
                graph.transit_cost(u, v)
            };
            let key = (cost + through, hops + 1, u);
            if best[v.index()].is_none_or(|b| key < b) {
                best[v.index()] = Some(key);
                heap.push(Reverse((key.0, key.1, u, v)));
            }
        }
    }
    DestinationTree::from_parts(destination, parents, costs, depths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Route;
    use bgpvcg_netgraph::generators::structured::{complete, fig1, ring, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, from_edges, random_costs};
    use bgpvcg_netgraph::Cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig1_lcp_to_z_matches_paper() {
        let g = fig1();
        let t = shortest_tree(&g, Fig1::Z);
        let x_route = t.route(Fig1::X).unwrap();
        assert_eq!(x_route.nodes(), &[Fig1::X, Fig1::B, Fig1::D, Fig1::Z]);
        assert_eq!(x_route.transit_cost(), Cost::new(3));
        let y_route = t.route(Fig1::Y).unwrap();
        assert_eq!(y_route.nodes(), &[Fig1::Y, Fig1::D, Fig1::Z]);
        assert_eq!(y_route.transit_cost(), Cost::new(1));
    }

    #[test]
    fn destination_route_is_trivial() {
        let g = fig1();
        let t = shortest_tree(&g, Fig1::Z);
        assert_eq!(t.route(Fig1::Z).unwrap(), Route::trivial(Fig1::Z));
    }

    #[test]
    fn ring_routes_take_shorter_arc() {
        let g = ring(6, Cost::new(1));
        let t = shortest_tree(&g, AsId::new(0));
        // Node 2 reaches 0 via 1 (one transit node) rather than via 3,4,5.
        assert_eq!(
            t.route(AsId::new(2)).unwrap().nodes(),
            &[AsId::new(2), AsId::new(1), AsId::new(0)]
        );
        assert_eq!(t.cost(AsId::new(2)), Cost::new(1));
        // The antipode (node 3) has two equal-cost 3-hop arcs:
        // 3,2,1,0 and 3,4,5,0. The lexicographic tie-break picks 3,2,1,0.
        assert_eq!(
            t.route(AsId::new(3)).unwrap().nodes(),
            &[AsId::new(3), AsId::new(2), AsId::new(1), AsId::new(0)]
        );
    }

    #[test]
    fn zero_cost_ties_break_by_hops_then_lex() {
        let g = complete(5, Cost::ZERO);
        let t = shortest_tree(&g, AsId::new(4));
        // Every node has a direct link to 4; with all costs zero the 1-hop
        // route still wins on the hop count.
        for i in 0..4u32 {
            assert_eq!(t.hops(AsId::new(i)), Some(1));
        }
    }

    #[test]
    fn expensive_direct_link_is_bypassed() {
        // 0 -- 1 -- 2 and 0 -- 2, with node 1 cheap: does 0 -> 2 go via 1?
        // Path 0,1,2 transit cost = c_1 = 1; path 0,2 cost = 0. Direct wins.
        let g = from_edges(
            vec![Cost::new(5), Cost::new(1), Cost::new(5)],
            &[(0, 1), (1, 2), (0, 2)],
        );
        let t = shortest_tree(&g, AsId::new(2));
        assert_eq!(t.route(AsId::new(0)).unwrap().hops(), 1);
        assert_eq!(t.cost(AsId::new(0)), Cost::ZERO);
    }

    #[test]
    fn transit_cost_drives_selection() {
        // 0 -- 1 -- 3 (via cheap 1) vs 0 -- 2 -- 3 (via dear 2).
        let g = from_edges(
            vec![Cost::new(1), Cost::new(2), Cost::new(7), Cost::new(1)],
            &[(0, 1), (1, 3), (0, 2), (2, 3)],
        );
        let t = shortest_tree(&g, AsId::new(3));
        assert_eq!(
            t.route(AsId::new(0)).unwrap().nodes(),
            &[AsId::new(0), AsId::new(1), AsId::new(3)]
        );
        assert_eq!(t.cost(AsId::new(0)), Cost::new(2));
    }

    #[test]
    fn unreachable_nodes_have_no_route() {
        let g = from_edges(vec![Cost::ZERO; 4], &[(0, 1), (2, 3)]);
        let t = shortest_tree(&g, AsId::new(0));
        assert!(t.route(AsId::new(1)).is_some());
        assert!(t.route(AsId::new(2)).is_none());
        assert_eq!(t.cost(AsId::new(3)), Cost::INFINITE);
    }

    #[test]
    fn all_trees_are_consistent_on_random_graphs() {
        // Every node of a connected graph is one hop deeper than its
        // parent; `route_order_props` checks the whole suffix property.
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let costs = random_costs(30, 0, 10, &mut rng);
            let g = erdos_renyi(costs, 0.15, &mut rng);
            for j in g.nodes() {
                let t = shortest_tree(&g, j);
                assert_eq!(t.reachable().count(), g.node_count());
                for i in g.nodes().filter(|&i| i != j) {
                    let parent = t.parent(i).unwrap();
                    assert_eq!(t.hops(i), t.hops(parent).map(|h| h + 1));
                }
            }
        }
    }

    #[test]
    fn routes_are_optimal_versus_brute_force() {
        // Exhaustive DFS enumeration of all simple paths on small graphs.
        fn best_route_brute(g: &AsGraph, i: AsId, j: AsId) -> Route {
            fn dfs(
                g: &AsGraph,
                current: AsId,
                j: AsId,
                path: &mut Vec<AsId>,
                best: &mut Option<Route>,
            ) {
                if current == j {
                    let r = Route::from_nodes(g, path.clone());
                    if best.as_ref().is_none_or(|b| r < *b) {
                        *best = Some(r);
                    }
                    return;
                }
                for &next in g.neighbors(current) {
                    if !path.contains(&next) {
                        path.push(next);
                        dfs(g, next, j, path, best);
                        path.pop();
                    }
                }
            }
            let mut best = None;
            let mut path = vec![i];
            dfs(g, i, j, &mut path, &mut best);
            best.expect("connected")
        }

        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let costs = random_costs(8, 0, 6, &mut rng);
            let g = erdos_renyi(costs, 0.4, &mut rng);
            for j in g.nodes() {
                let t = shortest_tree(&g, j);
                for i in g.nodes() {
                    if i == j {
                        continue;
                    }
                    let expected = best_route_brute(&g, i, j);
                    assert_eq!(t.route(i).unwrap(), expected, "seed {seed}, {i}->{j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn rejects_unknown_destination() {
        let g = fig1();
        let _ = shortest_tree(&g, AsId::new(99));
    }
}
