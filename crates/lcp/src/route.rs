//! Routes and the deterministic route order.

use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A simple path through the AS graph, from a source to a destination,
/// together with its transit cost.
///
/// The node sequence includes **both endpoints**; the transit cost counts
/// **only the intermediate nodes** (paper, Sect. 3: endpoints are never paid
/// and never counted). A route from a node to itself is the trivial
/// single-node path with cost zero.
///
/// Routes are totally ordered by `(transit cost, hop count, lexicographic
/// node sequence)` — see [`Ord`] below. The order is *monotone under
/// extension* (prepending the same node to two routes preserves their
/// order), which is what lets Dijkstra, the Bellman–Ford fixpoint, and the
/// distributed path-vector protocol all converge to the same selected route
/// for every pair. That agreement is what makes exact equality between the
/// centralized Theorem-1 prices and the distributed protocol's prices
/// testable.
///
/// # Example
///
/// ```
/// use bgpvcg_lcp::Route;
/// use bgpvcg_netgraph::{AsId, Cost};
///
/// let r = Route::from_parts(
///     vec![AsId::new(0), AsId::new(4), AsId::new(3), AsId::new(2)],
///     Cost::new(3),
/// );
/// assert_eq!(r.source(), AsId::new(0));
/// assert_eq!(r.destination(), AsId::new(2));
/// assert_eq!(r.hops(), 3);
/// assert_eq!(r.transit_nodes(), &[AsId::new(4), AsId::new(3)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Route {
    nodes: Vec<AsId>,
    transit_cost: Cost,
}

/// The intermediate nodes of a node sequence; empty for sequences of one
/// or two nodes (endpoints are never transit).
fn transit_slice(nodes: &[AsId]) -> &[AsId] {
    if nodes.len() <= 2 {
        &[]
    } else {
        &nodes[1..nodes.len() - 1]
    }
}

impl Route {
    /// The trivial route from a node to itself (zero hops, zero cost).
    pub fn trivial(node: AsId) -> Self {
        Route {
            nodes: vec![node],
            transit_cost: Cost::ZERO,
        }
    }

    /// Builds a route from an explicit node sequence, computing the transit
    /// cost from the graph's declared costs.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty, repeats a node, or traverses a
    /// non-existent link.
    pub fn from_nodes(graph: &AsGraph, nodes: Vec<AsId>) -> Self {
        assert!(!nodes.is_empty(), "a route has at least one node");
        for w in nodes.windows(2) {
            assert!(
                graph.has_link(w[0], w[1]),
                "no link between {} and {}",
                w[0],
                w[1]
            );
        }
        let mut seen = vec![false; graph.node_count()];
        for &k in &nodes {
            assert!(!seen[k.index()], "route repeats {k}");
            seen[k.index()] = true;
        }
        let transit_cost = transit_slice(&nodes).iter().map(|&k| graph.cost(k)).sum();
        Route {
            nodes,
            transit_cost,
        }
    }

    /// Builds a route from a node sequence and a precomputed transit cost.
    ///
    /// Used where the graph is not at hand (e.g. reconstructing a route from
    /// a protocol message). The caller is responsible for consistency.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty.
    pub fn from_parts(nodes: Vec<AsId>, transit_cost: Cost) -> Self {
        assert!(!nodes.is_empty(), "a route has at least one node");
        Route {
            nodes,
            transit_cost,
        }
    }

    /// Extends this route by prepending a new source `head`, adding the old
    /// source's cost (`head_neighbor_cost`) to the transit cost — unless the
    /// old source *is* the destination, in which case it remains an endpoint
    /// and contributes nothing.
    ///
    /// This is exactly the operation a path-vector node performs when it
    /// selects a neighbor's advertised route.
    ///
    /// # Panics
    ///
    /// Panics if `head` already appears on the route (the extension would
    /// not be a simple path).
    pub fn extend(&self, head: AsId, old_source_cost: Cost) -> Route {
        assert!(
            !self.contains(head),
            "extending route {self} with {head} creates a loop"
        );
        let added = if self.nodes.len() == 1 {
            // Old source is the destination itself: it stays an endpoint.
            Cost::ZERO
        } else {
            old_source_cost
        };
        let mut nodes = Vec::with_capacity(self.nodes.len() + 1);
        nodes.push(head);
        nodes.extend_from_slice(&self.nodes);
        Route {
            nodes,
            transit_cost: self.transit_cost + added,
        }
    }

    /// The full node sequence, source first.
    pub fn nodes(&self) -> &[AsId] {
        &self.nodes
    }

    /// The source AS.
    pub fn source(&self) -> AsId {
        self.nodes[0]
    }

    /// The destination AS.
    pub fn destination(&self) -> AsId {
        *self.nodes.last().expect("routes are non-empty")
    }

    /// Number of hops (links) on the route; zero for the trivial route.
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The transit (intermediate) nodes, in path order.
    pub fn transit_nodes(&self) -> &[AsId] {
        transit_slice(&self.nodes)
    }

    /// The transit cost `c(i, j)` of the route: the sum of its intermediate
    /// nodes' declared costs.
    pub fn transit_cost(&self) -> Cost {
        self.transit_cost
    }

    /// Returns `true` if `k` appears anywhere on the route (endpoints
    /// included).
    pub fn contains(&self, k: AsId) -> bool {
        self.nodes.contains(&k)
    }
}

impl PartialOrd for Route {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Route {
    /// The deterministic route order: transit cost, then hop count, then
    /// lexicographic node sequence.
    ///
    /// Two distinct simple routes between the same pair always differ in the
    /// node sequence, so the order is total and tie-free per pair — the
    /// "appropriate way to break ties" the paper assumes (Sect. 3).
    fn cmp(&self, other: &Self) -> Ordering {
        self.transit_cost
            .cmp(&other.transit_cost)
            .then_with(|| self.nodes.len().cmp(&other.nodes.len()))
            .then_with(|| self.nodes.cmp(&other.nodes))
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.nodes.iter().map(|k| k.to_string()).collect();
        write!(f, "{} (cost {})", names.join(" → "), self.transit_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};

    #[test]
    fn trivial_route() {
        let r = Route::trivial(AsId::new(3));
        assert_eq!(r.source(), AsId::new(3));
        assert_eq!(r.destination(), AsId::new(3));
        assert_eq!(r.hops(), 0);
        assert_eq!(r.transit_cost(), Cost::ZERO);
        assert!(r.transit_nodes().is_empty());
    }

    #[test]
    fn from_nodes_computes_transit_cost() {
        let g = fig1();
        let r = Route::from_nodes(&g, vec![Fig1::X, Fig1::B, Fig1::D, Fig1::Z]);
        assert_eq!(r.transit_cost(), Cost::new(3)); // c_B + c_D = 2 + 1
        assert_eq!(r.transit_nodes(), &[Fig1::B, Fig1::D]);
    }

    #[test]
    fn two_hop_route_has_one_transit_node() {
        let g = fig1();
        let r = Route::from_nodes(&g, vec![Fig1::X, Fig1::A, Fig1::Z]);
        assert_eq!(r.transit_cost(), Cost::new(5)); // c_A
        assert_eq!(r.transit_nodes(), &[Fig1::A]);
    }

    #[test]
    fn one_hop_route_is_free() {
        let g = fig1();
        let r = Route::from_nodes(&g, vec![Fig1::D, Fig1::Z]);
        assert_eq!(r.transit_cost(), Cost::ZERO);
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn from_nodes_rejects_missing_link() {
        let g = fig1();
        let _ = Route::from_nodes(&g, vec![Fig1::X, Fig1::Z]);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn from_nodes_rejects_loops() {
        let g = fig1();
        let _ = Route::from_nodes(&g, vec![Fig1::X, Fig1::B, Fig1::X]);
    }

    #[test]
    fn extend_adds_old_source_cost() {
        let g = fig1();
        let dz = Route::from_nodes(&g, vec![Fig1::D, Fig1::Z]);
        let bdz = dz.extend(Fig1::B, g.cost(Fig1::D));
        assert_eq!(bdz.nodes(), &[Fig1::B, Fig1::D, Fig1::Z]);
        assert_eq!(bdz.transit_cost(), Cost::new(1)); // c_D
        let xbdz = bdz.extend(Fig1::X, g.cost(Fig1::B));
        assert_eq!(xbdz.transit_cost(), Cost::new(3)); // c_D + c_B
    }

    #[test]
    fn extend_from_trivial_costs_nothing() {
        let z = Route::trivial(Fig1::Z);
        let dz = z.extend(Fig1::D, Cost::new(999));
        assert_eq!(dz.transit_cost(), Cost::ZERO, "destination is an endpoint");
    }

    #[test]
    #[should_panic(expected = "loop")]
    fn extend_rejects_loops() {
        let g = fig1();
        let r = Route::from_nodes(&g, vec![Fig1::B, Fig1::D, Fig1::Z]);
        let _ = r.extend(Fig1::D, Cost::ZERO);
    }

    #[test]
    fn order_prefers_cheaper() {
        let g = fig1();
        let cheap = Route::from_nodes(&g, vec![Fig1::X, Fig1::B, Fig1::D, Fig1::Z]);
        let dear = Route::from_nodes(&g, vec![Fig1::X, Fig1::A, Fig1::Z]);
        assert!(cheap < dear, "cost 3 beats cost 5 despite more hops");
    }

    #[test]
    fn order_breaks_cost_ties_by_hops_then_lex() {
        let a = Route::from_parts(vec![AsId::new(0), AsId::new(9), AsId::new(5)], Cost::new(4));
        let b = Route::from_parts(
            vec![AsId::new(0), AsId::new(1), AsId::new(2), AsId::new(5)],
            Cost::new(4),
        );
        assert!(a < b, "equal cost: fewer hops wins");
        let c = Route::from_parts(vec![AsId::new(0), AsId::new(3), AsId::new(5)], Cost::new(4));
        assert!(
            c < a,
            "equal cost and hops: lexicographically smaller path wins"
        );
    }

    #[test]
    fn order_is_monotone_under_extension() {
        // If r1 < r2 (same source), then extending both by the same head
        // preserves the order.
        let r1 = Route::from_parts(vec![AsId::new(1), AsId::new(5)], Cost::new(2));
        let r2 = Route::from_parts(vec![AsId::new(1), AsId::new(3), AsId::new(5)], Cost::new(2));
        assert!(r1 < r2);
        let e1 = r1.extend(AsId::new(7), Cost::new(4));
        let e2 = r2.extend(AsId::new(7), Cost::new(4));
        assert!(e1 < e2);
    }

    #[test]
    fn transit_nodes_exclude_endpoints() {
        let g = fig1();
        let r = Route::from_nodes(&g, vec![Fig1::X, Fig1::B, Fig1::D, Fig1::Z]);
        assert_eq!(r.transit_nodes(), &[Fig1::B, Fig1::D]);
        assert!(r.contains(Fig1::X));
    }

    #[test]
    fn display_shows_path_and_cost() {
        let g = fig1();
        let r = Route::from_nodes(&g, vec![Fig1::D, Fig1::Z]);
        let text = r.to_string();
        assert!(text.contains("AS3"));
        assert!(text.contains("AS2"));
        assert!(text.contains("cost 0"));
    }
}
