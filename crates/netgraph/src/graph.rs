//! The AS graph: topology plus declared transit costs.

use crate::biconnectivity;
use crate::cost::Cost;
use crate::error::GraphError;
use crate::id::AsId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An undirected link between two Autonomous Systems.
///
/// Endpoints are stored in normalized order (`a < b`), so two `Link`s are
/// equal iff they connect the same AS pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Link {
    a: AsId,
    b: AsId,
}

impl Link {
    /// Creates a normalized link between two distinct nodes.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; the model has no self-loops.
    pub fn new(a: AsId, b: AsId) -> Self {
        assert!(a != b, "self-loop at {a}");
        if a < b {
            Link { a, b }
        } else {
            Link { a: b, b: a }
        }
    }

    /// The lower-numbered endpoint.
    pub fn a(self) -> AsId {
        self.a
    }

    /// The higher-numbered endpoint.
    pub fn b(self) -> AsId {
        self.b
    }

    /// Given one endpoint, returns the other, or `None` if `id` is not an
    /// endpoint of this link.
    pub fn other(self, id: AsId) -> Option<AsId> {
        if id == self.a {
            Some(self.b)
        } else if id == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}--{}", self.a, self.b)
    }
}

/// The AS graph of the paper: a set of nodes `N` (Autonomous Systems), a set
/// `L` of bidirectional links, and a declared per-packet transit cost `c_k`
/// for every node `k`.
///
/// Nodes are numbered densely from `AS0`, so `AsId::index` indexes directly
/// into per-node arrays. The graph is immutable once built; construct it with
/// [`AsGraph::builder`] and mutate topology only through the explicit
/// derivation methods ([`AsGraph::with_cost`], [`AsGraph::without_link`],
/// [`AsGraph::with_link`]), which model the paper's dynamic events (declared
/// cost changes, link deletion/insertion).
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::{AsGraph, Cost};
///
/// # fn main() -> Result<(), bgpvcg_netgraph::GraphError> {
/// let mut b = AsGraph::builder();
/// let x = b.add_node(Cost::new(2));
/// let y = b.add_node(Cost::new(3));
/// let z = b.add_node(Cost::new(4));
/// b.add_link(x, y)?;
/// b.add_link(y, z)?;
/// b.add_link(z, x)?;
/// let g = b.build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.neighbors(y), &[x, z]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsGraph {
    costs: Vec<Cost>,
    /// Sorted adjacency list per node.
    adjacency: Vec<Vec<AsId>>,
    /// Normalized, sorted list of links.
    links: Vec<Link>,
}

impl AsGraph {
    /// Starts building a graph.
    pub fn builder() -> AsGraphBuilder {
        AsGraphBuilder::new()
    }

    /// Number of nodes `n = |N|`.
    pub fn node_count(&self) -> usize {
        self.costs.len()
    }

    /// Number of links `|L|`.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all node identifiers in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = AsId> + '_ {
        (0..self.costs.len() as u32).map(AsId::new)
    }

    /// All links in normalized sorted order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The declared transit cost `c_k` of node `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a node of this graph.
    pub fn cost(&self, k: AsId) -> Cost {
        self.costs[k.index()]
    }

    /// The full declared cost vector `c`, indexed by `AsId::index`.
    pub fn costs(&self) -> &[Cost] {
        &self.costs
    }

    /// Neighbors of `k` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a node of this graph.
    pub fn neighbors(&self, k: AsId) -> &[AsId] {
        &self.adjacency[k.index()]
    }

    /// Degree of node `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a node of this graph.
    pub fn degree(&self, k: AsId) -> usize {
        self.adjacency[k.index()].len()
    }

    /// Returns `true` if `k` is a node of this graph.
    pub fn contains_node(&self, k: AsId) -> bool {
        k.index() < self.costs.len()
    }

    /// Returns `true` if nodes `a` and `b` are directly interconnected.
    pub fn has_link(&self, a: AsId, b: AsId) -> bool {
        if a == b || !self.contains_node(a) || !self.contains_node(b) {
            return false;
        }
        self.adjacency[a.index()].binary_search(&b).is_ok()
    }

    /// Returns `true` if the graph is connected (trivially true for the
    /// empty graph).
    pub fn is_connected(&self) -> bool {
        biconnectivity::is_connected(self)
    }

    /// Returns `true` if the graph is biconnected: connected, with at least
    /// three nodes, and with no articulation point whose removal would
    /// disconnect it.
    ///
    /// Biconnectivity is the paper's standing assumption (Sect. 3): without
    /// it some node `k` is a monopoly transit provider and its VCG price is
    /// undefined.
    pub fn is_biconnected(&self) -> bool {
        biconnectivity::is_biconnected(self)
    }

    /// Returns all articulation points (cut vertices) of the graph.
    pub fn articulation_points(&self) -> Vec<AsId> {
        biconnectivity::articulation_points(self)
    }

    /// Validates that the graph satisfies the mechanism's preconditions.
    ///
    /// # Errors
    ///
    /// * [`GraphError::TooSmall`] if there are fewer than three nodes.
    /// * [`GraphError::Disconnected`] if the graph is not connected.
    /// * [`GraphError::NotBiconnected`] if it has an articulation point.
    pub fn validate_for_mechanism(&self) -> Result<(), GraphError> {
        if self.node_count() < 3 {
            return Err(GraphError::TooSmall {
                nodes: self.node_count(),
            });
        }
        if !self.is_connected() {
            return Err(GraphError::Disconnected);
        }
        if !self.is_biconnected() {
            return Err(GraphError::NotBiconnected);
        }
        Ok(())
    }

    /// Returns a copy of this graph with node `k`'s declared cost replaced.
    ///
    /// This models a strategic deviation (node `k` declaring `x` instead of
    /// its true cost) or a dynamic cost change: the paper's notation
    /// `c|^k x`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a node of this graph.
    pub fn with_cost(&self, k: AsId, declared: Cost) -> AsGraph {
        let mut clone = self.clone();
        clone.costs[k.index()] = declared;
        clone
    }

    /// Returns a copy of this graph with one link removed, modelling a link
    /// failure.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if an endpoint does not exist and
    /// [`GraphError::Disconnected`] if the link is not present (removing a
    /// non-existent link would silently diverge from the caller's intent).
    pub fn without_link(&self, a: AsId, b: AsId) -> Result<AsGraph, GraphError> {
        for id in [a, b] {
            if !self.contains_node(id) {
                return Err(GraphError::UnknownNode(id));
            }
        }
        if !self.has_link(a, b) {
            return Err(GraphError::Disconnected);
        }
        let link = Link::new(a, b);
        let mut clone = self.clone();
        clone.links.retain(|l| *l != link);
        clone.adjacency[a.index()].retain(|x| *x != b);
        clone.adjacency[b.index()].retain(|x| *x != a);
        Ok(clone)
    }

    /// Returns a copy of this graph with one link added, modelling a link
    /// coming up.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`], [`GraphError::SelfLoop`], or
    /// [`GraphError::DuplicateLink`] on invalid input.
    pub fn with_link(&self, a: AsId, b: AsId) -> Result<AsGraph, GraphError> {
        for id in [a, b] {
            if !self.contains_node(id) {
                return Err(GraphError::UnknownNode(id));
            }
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if self.has_link(a, b) {
            return Err(GraphError::DuplicateLink(a, b));
        }
        let mut clone = self.clone();
        let link = Link::new(a, b);
        let pos = clone.links.binary_search(&link).unwrap_err();
        clone.links.insert(pos, link);
        let pos_a = clone.adjacency[a.index()].binary_search(&b).unwrap_err();
        clone.adjacency[a.index()].insert(pos_a, b);
        let pos_b = clone.adjacency[b.index()].binary_search(&a).unwrap_err();
        clone.adjacency[b.index()].insert(pos_b, a);
        Ok(clone)
    }
}

impl AsRef<AsGraph> for AsGraph {
    fn as_ref(&self) -> &AsGraph {
        self
    }
}

impl fmt::Display for AsGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "AsGraph: {} nodes, {} links",
            self.node_count(),
            self.link_count()
        )?;
        for k in self.nodes() {
            writeln!(
                f,
                "  {k} (c={}) -> {}",
                self.cost(k),
                self.neighbors(k)
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        Ok(())
    }
}

/// Incremental builder for [`AsGraph`].
///
/// Nodes receive dense AS numbers in insertion order. Links are validated as
/// they are added.
#[derive(Debug, Clone, Default)]
pub struct AsGraphBuilder {
    costs: Vec<Cost>,
    links: Vec<Link>,
}

impl AsGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        AsGraphBuilder::default()
    }

    /// Adds a node with declared transit cost `cost`, returning its AS
    /// number.
    pub fn add_node(&mut self, cost: Cost) -> AsId {
        let id = AsId::new(self.costs.len() as u32);
        self.costs.push(cost);
        id
    }

    /// Adds `n` nodes with the given costs, returning their AS numbers.
    pub fn add_nodes<I: IntoIterator<Item = Cost>>(&mut self, costs: I) -> Vec<AsId> {
        costs.into_iter().map(|c| self.add_node(c)).collect()
    }

    /// Adds a bidirectional link between two existing nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`], [`GraphError::SelfLoop`], or
    /// [`GraphError::DuplicateLink`] on invalid input.
    pub fn add_link(&mut self, a: AsId, b: AsId) -> Result<&mut Self, GraphError> {
        for id in [a, b] {
            if id.index() >= self.costs.len() {
                return Err(GraphError::UnknownNode(id));
            }
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        let link = Link::new(a, b);
        if self.links.contains(&link) {
            return Err(GraphError::DuplicateLink(a, b));
        }
        self.links.push(link);
        Ok(self)
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.costs.len()
    }

    /// Returns `true` if the link is already present.
    pub fn has_link(&self, a: AsId, b: AsId) -> bool {
        a != b && self.links.contains(&Link::new(a, b))
    }

    /// Finishes construction.
    pub fn build(self) -> AsGraph {
        let n = self.costs.len();
        let mut adjacency = vec![Vec::new(); n];
        for link in &self.links {
            adjacency[link.a().index()].push(link.b());
            adjacency[link.b().index()].push(link.a());
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        let mut links = self.links;
        links.sort_unstable();
        AsGraph {
            costs: self.costs,
            adjacency,
            links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> AsGraph {
        let mut b = AsGraph::builder();
        let x = b.add_node(Cost::new(1));
        let y = b.add_node(Cost::new(2));
        let z = b.add_node(Cost::new(3));
        b.add_link(x, y).unwrap();
        b.add_link(y, z).unwrap();
        b.add_link(z, x).unwrap();
        b.build()
    }

    #[test]
    fn link_normalizes_endpoints() {
        let l1 = Link::new(AsId::new(2), AsId::new(5));
        let l2 = Link::new(AsId::new(5), AsId::new(2));
        assert_eq!(l1, l2);
        assert_eq!(l1.a(), AsId::new(2));
        assert_eq!(l1.b(), AsId::new(5));
    }

    #[test]
    fn link_other_endpoint() {
        let l = Link::new(AsId::new(1), AsId::new(4));
        assert_eq!(l.other(AsId::new(1)), Some(AsId::new(4)));
        assert_eq!(l.other(AsId::new(4)), Some(AsId::new(1)));
        assert_eq!(l.other(AsId::new(9)), None);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn link_rejects_self_loop() {
        let _ = Link::new(AsId::new(3), AsId::new(3));
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = AsGraph::builder();
        assert_eq!(b.add_node(Cost::ZERO), AsId::new(0));
        assert_eq!(b.add_node(Cost::ZERO), AsId::new(1));
        assert_eq!(b.add_node(Cost::ZERO), AsId::new(2));
        assert_eq!(b.node_count(), 3);
    }

    #[test]
    fn builder_rejects_bad_links() {
        let mut b = AsGraph::builder();
        let x = b.add_node(Cost::ZERO);
        let y = b.add_node(Cost::ZERO);
        assert_eq!(
            b.add_link(x, AsId::new(9)).unwrap_err(),
            GraphError::UnknownNode(AsId::new(9))
        );
        assert_eq!(b.add_link(x, x).unwrap_err(), GraphError::SelfLoop(x));
        b.add_link(x, y).unwrap();
        assert_eq!(
            b.add_link(y, x).unwrap_err(),
            GraphError::DuplicateLink(y, x)
        );
    }

    #[test]
    fn graph_queries() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.cost(AsId::new(1)), Cost::new(2));
        assert_eq!(g.degree(AsId::new(0)), 2);
        assert!(g.has_link(AsId::new(0), AsId::new(1)));
        assert!(!g.has_link(AsId::new(0), AsId::new(0)));
        assert!(g.contains_node(AsId::new(2)));
        assert!(!g.contains_node(AsId::new(3)));
        assert_eq!(
            g.nodes().collect::<Vec<_>>(),
            vec![AsId::new(0), AsId::new(1), AsId::new(2)]
        );
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = AsGraph::builder();
        let ids = b.add_nodes(vec![Cost::ZERO; 4]);
        b.add_link(ids[3], ids[0]).unwrap();
        b.add_link(ids[1], ids[0]).unwrap();
        b.add_link(ids[2], ids[0]).unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(ids[0]), &[ids[1], ids[2], ids[3]]);
    }

    #[test]
    fn with_cost_replaces_declaration() {
        let g = triangle();
        let g2 = g.with_cost(AsId::new(0), Cost::new(99));
        assert_eq!(g2.cost(AsId::new(0)), Cost::new(99));
        assert_eq!(g.cost(AsId::new(0)), Cost::new(1), "original untouched");
        assert_eq!(g2.links(), g.links());
    }

    #[test]
    fn without_link_removes_both_directions() {
        let g = triangle();
        let g2 = g.without_link(AsId::new(0), AsId::new(1)).unwrap();
        assert!(!g2.has_link(AsId::new(0), AsId::new(1)));
        assert!(!g2.has_link(AsId::new(1), AsId::new(0)));
        assert_eq!(g2.link_count(), 2);
        assert!(g2.without_link(AsId::new(0), AsId::new(1)).is_err());
    }

    #[test]
    fn with_link_adds_and_validates() {
        let g = triangle();
        let g2 = g.without_link(AsId::new(0), AsId::new(1)).unwrap();
        let g3 = g2.with_link(AsId::new(0), AsId::new(1)).unwrap();
        assert_eq!(g3, g);
        assert_eq!(
            g.with_link(AsId::new(0), AsId::new(1)).unwrap_err(),
            GraphError::DuplicateLink(AsId::new(0), AsId::new(1))
        );
        assert_eq!(
            g.with_link(AsId::new(0), AsId::new(0)).unwrap_err(),
            GraphError::SelfLoop(AsId::new(0))
        );
        assert_eq!(
            g.with_link(AsId::new(0), AsId::new(7)).unwrap_err(),
            GraphError::UnknownNode(AsId::new(7))
        );
    }

    #[test]
    fn validate_for_mechanism_accepts_triangle() {
        assert_eq!(triangle().validate_for_mechanism(), Ok(()));
    }

    #[test]
    fn validate_rejects_small_graphs() {
        let mut b = AsGraph::builder();
        b.add_node(Cost::ZERO);
        b.add_node(Cost::ZERO);
        let g = b.build();
        assert_eq!(
            g.validate_for_mechanism(),
            Err(GraphError::TooSmall { nodes: 2 })
        );
    }

    #[test]
    fn validate_rejects_disconnected() {
        let mut b = AsGraph::builder();
        let ids = b.add_nodes(vec![Cost::ZERO; 4]);
        b.add_link(ids[0], ids[1]).unwrap();
        b.add_link(ids[2], ids[3]).unwrap();
        let g = b.build();
        assert_eq!(g.validate_for_mechanism(), Err(GraphError::Disconnected));
    }

    #[test]
    fn validate_rejects_path_graph() {
        let mut b = AsGraph::builder();
        let ids = b.add_nodes(vec![Cost::ZERO; 3]);
        b.add_link(ids[0], ids[1]).unwrap();
        b.add_link(ids[1], ids[2]).unwrap();
        let g = b.build();
        assert_eq!(g.validate_for_mechanism(), Err(GraphError::NotBiconnected));
    }

    #[test]
    fn display_mentions_every_node() {
        let text = triangle().to_string();
        for k in 0..3 {
            assert!(text.contains(&format!("AS{k}")));
        }
    }
}
