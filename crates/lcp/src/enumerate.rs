//! Exhaustive simple-path enumeration — the brute-force oracle.
//!
//! Exponential in the graph size and only usable on small instances, which
//! is exactly its role: an implementation-independent ground truth that the
//! production algorithms (Dijkstra, the Bellman–Ford fixpoint, the
//! avoidance tables, the VCG prices) are differentially tested against.
//! Kept public so downstream test suites can use the same oracle.

use crate::route::Route;
use bgpvcg_netgraph::{AsGraph, AsId};

/// Enumerates **every** simple path from `source` to `destination` as
/// [`Route`]s (in DFS discovery order, not sorted).
///
/// # Complexity
///
/// Exponential; intended for graphs of at most a dozen nodes.
///
/// # Panics
///
/// Panics if either endpoint is not in the graph.
///
/// # Example
///
/// ```
/// use bgpvcg_lcp::enumerate::all_simple_routes;
/// use bgpvcg_lcp::shortest_tree;
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
///
/// let g = fig1();
/// let all = all_simple_routes(&g, Fig1::X, Fig1::Z);
/// // The production LCP is the minimum of the exhaustive enumeration.
/// let best = all.iter().min().unwrap();
/// let tree = shortest_tree(&g, Fig1::Z);
/// assert_eq!(tree.route(Fig1::X).as_ref(), Some(best));
/// ```
pub fn all_simple_routes(graph: &AsGraph, source: AsId, destination: AsId) -> Vec<Route> {
    assert!(
        graph.contains_node(source) && graph.contains_node(destination),
        "endpoints must be in the graph"
    );
    fn dfs(
        graph: &AsGraph,
        at: AsId,
        destination: AsId,
        path: &mut Vec<AsId>,
        out: &mut Vec<Route>,
    ) {
        if at == destination {
            out.push(Route::from_nodes(graph, path.clone()));
            return;
        }
        for &next in graph.neighbors(at) {
            if !path.contains(&next) {
                path.push(next);
                dfs(graph, next, destination, path, out);
                path.pop();
            }
        }
    }
    let mut out = Vec::new();
    let mut path = vec![source];
    dfs(graph, source, destination, &mut path, &mut out);
    out
}

/// The brute-force lowest-cost route under the deterministic order, or
/// `None` if the pair is disconnected.
pub fn brute_force_lcp(graph: &AsGraph, source: AsId, destination: AsId) -> Option<Route> {
    all_simple_routes(graph, source, destination)
        .into_iter()
        .min()
}

/// The brute-force lowest-cost `avoid`-avoiding route under the
/// deterministic order, or `None` if none exists.
pub fn brute_force_avoiding(
    graph: &AsGraph,
    source: AsId,
    destination: AsId,
    avoid: AsId,
) -> Option<Route> {
    all_simple_routes(graph, source, destination)
        .into_iter()
        .filter(|r| !r.contains(avoid))
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avoiding::avoiding_tree;
    use crate::shortest_tree;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use bgpvcg_netgraph::Cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig1_enumeration_counts() {
        let g = fig1();
        let all = all_simple_routes(&g, Fig1::X, Fig1::Z);
        // X to Z: XAZ, XBDZ, XBYDZ — and that is all.
        assert_eq!(all.len(), 3);
        assert!(all.iter().any(|r| r.nodes() == [Fig1::X, Fig1::A, Fig1::Z]));
        assert!(all
            .iter()
            .any(|r| r.nodes() == [Fig1::X, Fig1::B, Fig1::D, Fig1::Z]));
        assert!(all
            .iter()
            .any(|r| r.nodes() == [Fig1::X, Fig1::B, Fig1::Y, Fig1::D, Fig1::Z]));
    }

    #[test]
    fn brute_force_matches_dijkstra_everywhere() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let costs = random_costs(8, 0, 7, &mut rng);
            let g = erdos_renyi(costs, 0.4, &mut rng);
            for j in g.nodes() {
                let tree = shortest_tree(&g, j);
                for i in g.nodes() {
                    if i == j {
                        continue;
                    }
                    assert_eq!(
                        tree.route(i),
                        brute_force_lcp(&g, i, j),
                        "seed {seed}: {i}->{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn brute_force_matches_avoiding_dijkstra() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(10 + seed);
            let costs = random_costs(8, 0, 7, &mut rng);
            let g = erdos_renyi(costs, 0.45, &mut rng);
            for j in g.nodes() {
                for k in g.nodes() {
                    if k == j {
                        continue;
                    }
                    let tree = avoiding_tree(&g, j, k);
                    for i in g.nodes() {
                        if i == j || i == k {
                            continue;
                        }
                        assert_eq!(
                            tree.route(i),
                            brute_force_avoiding(&g, i, j, k),
                            "seed {seed}: {i}->{j} avoiding {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_pair_enumerates_itself() {
        let g = fig1();
        let all = all_simple_routes(&g, Fig1::Z, Fig1::Z);
        assert_eq!(all, vec![crate::Route::trivial(Fig1::Z)]);
        assert_eq!(
            brute_force_lcp(&g, Fig1::Z, Fig1::Z),
            Some(crate::Route::trivial(Fig1::Z))
        );
    }

    #[test]
    fn avoiding_nonexistent_alternative_is_none() {
        // Path graph 0-1-2: avoiding 1 leaves no 0->2 route.
        let g = bgpvcg_netgraph::generators::from_edges(vec![Cost::new(1); 3], &[(0, 1), (1, 2)]);
        assert_eq!(
            brute_force_avoiding(&g, AsId::new(0), AsId::new(2), AsId::new(1)),
            None
        );
    }
}
