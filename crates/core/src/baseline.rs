//! The predecessors the paper contrasts itself with.
//!
//! * [`single_pair_node_vcg`] — the centralized, single-pair, node-agent
//!   mechanism: what running the paper's mechanism "one instance at a time"
//!   looks like. Mathematically it agrees with the all-pairs mechanism on
//!   each pair; computationally it is the `n²`-invocation baseline whose
//!   scaling experiment E9 measures against the distributed protocol.
//! * [`EdgeWeightedGraph`] / [`edge_vcg`] — Nisan–Ronen's original LCP
//!   mechanism, in which the *links* are the strategic agents and each
//!   link is paid `d_{G | c_e = ∞} − d_{G | c_e = 0}`. Included because the
//!   paper positions its node-agent formulation as the realistic
//!   replacement for this model.

use crate::vcg;
use bgpvcg_netgraph::{AsGraph, AsId, Cost, GraphError};
use std::collections::BinaryHeap;

/// Prices for the transit nodes of one source–destination pair, computed by
/// a fresh centralized single-pair run (the [12, 16] computational model).
///
/// # Errors
///
/// Returns the graph-validation error if the graph violates the mechanism's
/// preconditions.
///
/// # Example
///
/// ```
/// use bgpvcg_core::baseline::single_pair_node_vcg;
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_netgraph::Cost;
///
/// # fn main() -> Result<(), bgpvcg_netgraph::GraphError> {
/// let prices = single_pair_node_vcg(&fig1(), Fig1::X, Fig1::Z)?;
/// assert_eq!(prices, vec![(Fig1::B, Cost::new(4)), (Fig1::D, Cost::new(3))]);
/// # Ok(())
/// # }
/// ```
pub fn single_pair_node_vcg(
    graph: &AsGraph,
    source: AsId,
    destination: AsId,
) -> Result<Vec<(AsId, Cost)>, GraphError> {
    graph.validate_for_mechanism()?;
    let tree = bgpvcg_lcp::shortest_tree(graph, destination);
    let Some(route) = tree.route(source) else {
        return Ok(Vec::new());
    };
    let lcp_cost = route.transit_cost();
    let mut prices = Vec::new();
    for &k in route.transit_nodes() {
        let avoiding = bgpvcg_lcp::avoiding::avoiding_tree(graph, destination, k);
        let avoid_cost = avoiding.cost(source);
        let margin = avoid_cost
            .checked_sub(lcp_cost)
            .ok_or(GraphError::NotBiconnected)?;
        prices.push((k, graph.cost(k) + margin));
    }
    Ok(prices)
}

/// A small undirected graph with costs on the *edges* — the input model of
/// Nisan–Ronen's LCP mechanism, where edges are the strategic agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeWeightedGraph {
    n: usize,
    /// `(u, v, cost)`, normalized `u < v`.
    edges: Vec<(usize, usize, u64)>,
}

impl EdgeWeightedGraph {
    /// Builds a graph on `n` nodes from an edge list.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn new(n: usize, edges: &[(usize, usize, u64)]) -> Self {
        let mut normalized = Vec::with_capacity(edges.len());
        for &(u, v, c) in edges {
            assert!(u != v, "self-loop");
            assert!(u < n && v < n, "endpoint out of range");
            let e = (u.min(v), u.max(v), c);
            assert!(
                !normalized.iter().any(|&(a, b, _)| (a, b) == (e.0, e.1)),
                "duplicate edge"
            );
            normalized.push(e);
        }
        EdgeWeightedGraph {
            n,
            edges: normalized,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Shortest-path distance from `s` to `t` with edge `skip` (by index)
    /// either removed (`replace = None`) or re-weighted (`replace =
    /// Some(c)`); `None` overall if disconnected.
    fn distance(&self, s: usize, t: usize, skip: Option<(usize, Option<u64>)>) -> Option<u64> {
        let mut adjacency: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.n];
        for (idx, &(u, v, c)) in self.edges.iter().enumerate() {
            let cost = match skip {
                Some((e, replacement)) if e == idx => match replacement {
                    Some(c2) => c2,
                    None => continue, // removed
                },
                _ => c,
            };
            adjacency[u].push((v, cost));
            adjacency[v].push((u, cost));
        }
        let mut dist = vec![u64::MAX; self.n];
        dist[s] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, s)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == t {
                return Some(d);
            }
            for &(v, c) in &adjacency[u] {
                let nd = d.saturating_add(c);
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        None
    }

    /// The shortest `s`–`t` distance, if connected.
    pub fn shortest_distance(&self, s: usize, t: usize) -> Option<u64> {
        self.distance(s, t, None)
    }
}

/// One edge's VCG payment in the Nisan–Ronen mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgePayment {
    /// Edge endpoints (normalized `u < v`).
    pub edge: (usize, usize),
    /// Declared cost of the edge.
    pub declared: u64,
    /// The VCG payment `d_{G|e=∞} − d_{G|e=0}`; zero for edges off every
    /// shortest path.
    pub payment: u64,
}

/// Computes Nisan–Ronen edge payments for a single `s`–`t` instance.
///
/// The mechanism: an edge `e` on the selected shortest path is paid
/// `d_{G | c_e = ∞} − d_{G | c_e = 0}`; every other edge is paid nothing.
/// The graph must be 2-edge-connected between `s` and `t` or a shortest-path
/// edge would have an undefined (monopoly) payment.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if `t` is unreachable from `s`, and
/// [`GraphError::NotBiconnected`] if removing some shortest-path edge
/// disconnects the pair.
pub fn edge_vcg(
    graph: &EdgeWeightedGraph,
    s: usize,
    t: usize,
) -> Result<Vec<EdgePayment>, GraphError> {
    let base = graph
        .shortest_distance(s, t)
        .ok_or(GraphError::Disconnected)?;
    let mut payments = Vec::new();
    for (idx, &(u, v, c)) in graph.edges.iter().enumerate() {
        // e is on SOME shortest path iff zeroing it shortens the distance
        // below the base by exactly c... the standard membership test:
        let with_zero = graph
            .distance(s, t, Some((idx, Some(0))))
            .ok_or(GraphError::Disconnected)?;
        let on_shortest_path = with_zero + c == base;
        let payment = if on_shortest_path {
            let without = graph
                .distance(s, t, Some((idx, None)))
                .ok_or(GraphError::NotBiconnected)?;
            without - with_zero
        } else {
            0
        };
        payments.push(EdgePayment {
            edge: (u, v),
            declared: c,
            payment,
        });
    }
    Ok(payments)
}

/// Convenience check used by E9: the single-pair mechanism run on every
/// pair agrees with the all-pairs mechanism (they are the same mathematical
/// object computed two ways).
///
/// # Errors
///
/// Returns the graph-validation error if the graph violates the mechanism's
/// preconditions.
pub fn all_pairs_via_single_pair_matches(graph: &AsGraph) -> Result<bool, GraphError> {
    let reference = vcg::compute(graph)?;
    for i in graph.nodes() {
        for j in graph.nodes() {
            if i == j {
                continue;
            }
            let single = single_pair_node_vcg(graph, i, j)?;
            let expected: Vec<(AsId, Cost)> = reference
                .pair(i, j)
                .map(|p| p.prices().collect())
                .unwrap_or_default();
            if single != expected {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_pair_matches_paper_example() {
        let prices = single_pair_node_vcg(&fig1(), Fig1::X, Fig1::Z).unwrap();
        assert_eq!(
            prices,
            vec![(Fig1::B, Cost::new(4)), (Fig1::D, Cost::new(3))]
        );
    }

    #[test]
    fn single_pair_agrees_with_all_pairs_mechanism() {
        let mut rng = StdRng::seed_from_u64(1);
        let costs = random_costs(10, 0, 7, &mut rng);
        let g = erdos_renyi(costs, 0.4, &mut rng);
        assert!(all_pairs_via_single_pair_matches(&g).unwrap());
    }

    #[test]
    fn edge_graph_construction_and_distance() {
        let g = EdgeWeightedGraph::new(4, &[(0, 1, 2), (1, 2, 3), (0, 2, 10), (2, 3, 1)]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.shortest_distance(0, 3), Some(6)); // 0-1-2-3
        assert_eq!(g.shortest_distance(3, 0), Some(6));
    }

    #[test]
    fn edge_vcg_on_two_parallel_paths() {
        // s=0, t=1 via direct edge (cost 3) or via node 2 (cost 2+2=4).
        let g = EdgeWeightedGraph::new(3, &[(0, 1, 3), (0, 2, 2), (2, 1, 2)]);
        let payments = edge_vcg(&g, 0, 1).unwrap();
        let direct = payments.iter().find(|p| p.edge == (0, 1)).unwrap();
        // Without the direct edge: 4; with it zeroed: 0. Payment 4.
        assert_eq!(direct.payment, 4);
        for p in payments.iter().filter(|p| p.edge != (0, 1)) {
            assert_eq!(p.payment, 0, "off-path edges are paid nothing");
        }
    }

    #[test]
    fn edge_vcg_payment_at_least_declared_cost() {
        // Strategyproof individual rationality: payment ≥ declared cost for
        // on-path edges.
        let g = EdgeWeightedGraph::new(
            5,
            &[
                (0, 1, 1),
                (1, 4, 2),
                (0, 2, 2),
                (2, 4, 3),
                (0, 3, 5),
                (3, 4, 5),
            ],
        );
        let payments = edge_vcg(&g, 0, 4).unwrap();
        let on_path: Vec<_> = payments.iter().filter(|p| p.payment > 0).collect();
        assert!(!on_path.is_empty());
        for p in on_path {
            assert!(p.payment >= p.declared, "{p:?}");
        }
    }

    #[test]
    fn edge_vcg_detects_monopoly() {
        // A bridge edge has no alternative: the mechanism must refuse.
        let g = EdgeWeightedGraph::new(3, &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(edge_vcg(&g, 0, 2).unwrap_err(), GraphError::NotBiconnected);
    }

    #[test]
    fn edge_vcg_disconnected_pair() {
        let g = EdgeWeightedGraph::new(4, &[(0, 1, 1), (2, 3, 1)]);
        assert_eq!(edge_vcg(&g, 0, 3).unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn edge_graph_rejects_duplicates() {
        let _ = EdgeWeightedGraph::new(3, &[(0, 1, 1), (1, 0, 2)]);
    }
}
