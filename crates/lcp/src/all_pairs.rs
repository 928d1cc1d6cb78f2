//! All-pairs lowest-cost routes.

use crate::dijkstra::{shortest_tree, CostModel};
use crate::route::Route;
use crate::tree::DestinationTree;
use bgpvcg_netgraph::AsId;

/// Lowest-cost routes for **all** source–destination pairs: one
/// [`DestinationTree`] per destination.
///
/// This is the all-pairs formulation that distinguishes the paper from the
/// single-pair mechanisms of Nisan–Ronen and Hershberger–Suri: the mechanism
/// must produce `n²` routes and the prices for every transit node on each.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_lcp::AllPairsLcp;
///
/// let g = fig1();
/// let lcp = AllPairsLcp::compute(&g);
/// let route = lcp.route(Fig1::X, Fig1::Z).expect("connected");
/// assert_eq!(route.transit_nodes(), &[Fig1::B, Fig1::D]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllPairsLcp {
    trees: Vec<DestinationTree>,
}

impl AllPairsLcp {
    /// Computes selected routes for every destination by running
    /// per-destination Dijkstra `n` times.
    pub fn compute<C: CostModel + ?Sized>(graph: &C) -> Self {
        let trees = graph
            .topology()
            .nodes()
            .map(|j| shortest_tree(graph, j))
            .collect();
        AllPairsLcp { trees }
    }

    /// Number of ASs covered.
    pub fn node_count(&self) -> usize {
        self.trees.len()
    }

    /// The tree `T(j)` for destination `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn tree(&self, j: AsId) -> &DestinationTree {
        &self.trees[j.index()]
    }

    /// Iterates over all destination trees in destination order.
    pub fn trees(&self) -> impl Iterator<Item = &DestinationTree> {
        self.trees.iter()
    }

    /// The selected route from `i` to `j` (`None` if unreachable; the
    /// trivial route if `i == j`).
    pub fn route(&self, i: AsId, j: AsId) -> Option<Route> {
        self.trees[j.index()].route(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, ring, Fig1};
    use bgpvcg_netgraph::Cost;

    #[test]
    fn computes_every_tree() {
        let g = fig1();
        let lcp = AllPairsLcp::compute(&g);
        assert_eq!(lcp.node_count(), 6);
        for j in g.nodes() {
            assert_eq!(lcp.tree(j).destination(), j);
        }
        assert_eq!(lcp.trees().count(), 6);
    }

    #[test]
    fn route_delegates_to_trees() {
        let g = fig1();
        let lcp = AllPairsLcp::compute(&g);
        assert_eq!(
            lcp.route(Fig1::Y, Fig1::Z).unwrap().nodes(),
            &[Fig1::Y, Fig1::D, Fig1::Z]
        );
    }

    #[test]
    fn symmetric_costs_on_symmetric_graph() {
        // Uniform ring: cost(i, j) must equal cost(j, i) because transit
        // sets coincide on the reversed path.
        let g = ring(7, Cost::new(2));
        let lcp = AllPairsLcp::compute(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(lcp.tree(j).cost(i), lcp.tree(i).cost(j));
            }
        }
    }
}
