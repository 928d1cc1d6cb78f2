//! Per-destination routing trees `T(j)`.

use crate::route::Route;
use bgpvcg_netgraph::{AsId, Cost};

/// The selected-routes tree `T(j)` for one destination `j`: every node's
/// lowest-cost route to `j` under the deterministic route order, arranged as
/// a tree rooted at `j` (paper, Sect. 6: "the LCPs selected form a tree
/// rooted at `j`").
///
/// A selected route is its source followed by its parent's selected route,
/// so the tree stores one parent per node, with that node's LCP cost and
/// hop count; [`path`](Self::path) walks a route off the parent array. A
/// node disconnected from `j` has no parent and infinite cost.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_lcp::shortest_tree;
///
/// let g = fig1();
/// let t = shortest_tree(&g, Fig1::Z);
/// // Fig. 2 of the paper: in T(Z), D is the parent of B.
/// assert_eq!(t.parent(Fig1::B), Some(Fig1::D));
/// assert!(t.path(Fig1::X).eq([Fig1::X, Fig1::B, Fig1::D, Fig1::Z]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestinationTree {
    destination: AsId,
    /// Parent per node (`None` for the destination and unreachable nodes).
    parents: Vec<Option<AsId>>,
    /// LCP cost per node ([`Cost::INFINITE`] when unreachable).
    costs: Vec<Cost>,
    /// Hop count per node (`0` for the destination and unreachable nodes).
    hops: Vec<usize>,
}

impl DestinationTree {
    /// Assembles a tree from its per-node parents, costs and hop counts.
    /// The callers settle each node from its parent's entry, so the arrays
    /// describe a tree by construction; the route-order property test
    /// checks it.
    pub(crate) fn from_parts(
        destination: AsId,
        parents: Vec<Option<AsId>>,
        costs: Vec<Cost>,
        hops: Vec<usize>,
    ) -> Self {
        debug_assert!(parents.len() == costs.len() && costs.len() == hops.len());
        DestinationTree {
            destination,
            parents,
            costs,
            hops,
        }
    }

    /// The destination (root) of the tree.
    pub fn destination(&self) -> AsId {
        self.destination
    }

    /// Number of nodes the tree covers (the graph's node count).
    pub fn node_count(&self) -> usize {
        self.parents.len()
    }

    /// The selected route from `i` to the destination, source first: `i`,
    /// then its parent, up to the destination. Empty if `i` is
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn path(&self, i: AsId) -> impl Iterator<Item = AsId> + Clone + '_ {
        let reachable = i == self.destination || self.parents[i.index()].is_some();
        std::iter::successors(reachable.then_some(i), |at| self.parents[at.index()])
    }

    /// The selected route from `i` to the destination, or `None` if `i` is
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn route(&self, i: AsId) -> Option<Route> {
        let hops = self.hops(i)?;
        let mut nodes = Vec::with_capacity(hops + 1);
        nodes.extend(self.path(i));
        Some(Route::from_parts(nodes, self.cost(i)))
    }

    /// The LCP cost `c(i, j)`, or [`Cost::INFINITE`] if unreachable.
    pub fn cost(&self, i: AsId) -> Cost {
        self.costs[i.index()]
    }

    /// The number of hops on `i`'s selected route, or `None` if
    /// unreachable.
    pub fn hops(&self, i: AsId) -> Option<usize> {
        self.path(i).next().map(|_| self.hops[i.index()])
    }

    /// The largest hop count of any selected route (`0` if only the
    /// destination is reachable).
    pub(crate) fn depth(&self) -> usize {
        self.hops.iter().copied().max().unwrap_or(0)
    }

    /// `i`'s parent in `T(j)` (`None` for the destination and unreachable
    /// nodes).
    pub fn parent(&self, i: AsId) -> Option<AsId> {
        self.parents[i.index()]
    }

    /// All reachable sources, ascending (includes the destination itself).
    pub fn reachable(&self) -> impl Iterator<Item = AsId> + '_ {
        (0..self.node_count())
            .map(|idx| AsId::new(idx as u32))
            .filter(|&i| self.hops(i).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_tree;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::AsGraph;

    fn t_z() -> (AsGraph, DestinationTree) {
        let g = fig1();
        let t = shortest_tree(&g, Fig1::Z);
        (g, t)
    }

    #[test]
    fn fig2_tree_shape() {
        // The paper's Fig. 2: T(Z) has A and D as children of Z, B and Y as
        // children of D, and X as a child of B.
        let (_, t) = t_z();
        assert_eq!(t.parent(Fig1::A), Some(Fig1::Z));
        assert_eq!(t.parent(Fig1::D), Some(Fig1::Z));
        assert_eq!(t.parent(Fig1::B), Some(Fig1::D));
        assert_eq!(t.parent(Fig1::Y), Some(Fig1::D));
        assert_eq!(t.parent(Fig1::X), Some(Fig1::B));
        assert_eq!(t.parent(Fig1::Z), None);
    }

    #[test]
    fn costs_match_paper() {
        let (_, t) = t_z();
        assert_eq!(t.cost(Fig1::X), Cost::new(3)); // X B D Z
        assert_eq!(t.cost(Fig1::Y), Cost::new(1)); // Y D Z
        assert_eq!(t.cost(Fig1::B), Cost::new(1)); // B D Z
        assert_eq!(t.cost(Fig1::D), Cost::ZERO); // D Z
        assert_eq!(t.cost(Fig1::A), Cost::ZERO); // A Z
        assert_eq!(t.cost(Fig1::Z), Cost::ZERO); // trivial
    }

    #[test]
    fn path_walks_parents_to_the_root() {
        let (_, t) = t_z();
        assert!(t.path(Fig1::X).eq([Fig1::X, Fig1::B, Fig1::D, Fig1::Z]));
        assert!(t.path(Fig1::Z).eq([Fig1::Z]));
        let route = t.route(Fig1::X).unwrap();
        assert_eq!(route.transit_nodes(), &[Fig1::B, Fig1::D]);
        assert_eq!(route.transit_cost(), Cost::new(3));
    }

    #[test]
    fn reachable_lists_everyone_in_connected_graph() {
        let (g, t) = t_z();
        assert_eq!(t.reachable().count(), g.node_count());
    }

    #[test]
    fn hops_counts_links() {
        let (_, t) = t_z();
        assert_eq!(t.hops(Fig1::X), Some(3));
        assert_eq!(t.hops(Fig1::Z), Some(0));
        assert_eq!(t.depth(), 3);
    }
}
