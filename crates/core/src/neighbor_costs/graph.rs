//! AS graphs with per-neighbor (receive-side) transit costs.

use bgpvcg_lcp::CostModel;
use bgpvcg_netgraph::{AsGraph, AsId, Cost, GraphError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An AS graph in the generalized cost model: node `k` declares, for each
/// adjacent link, the per-packet cost of carrying a transit packet
/// *received over* that link.
///
/// The topology (and its biconnectivity machinery) is borrowed from
/// [`AsGraph`]; the node-uniform costs stored there are ignored in favour
/// of the per-neighbor table.
///
/// # Example
///
/// ```
/// use bgpvcg_core::neighbor_costs::NeighborCostGraph;
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_netgraph::Cost;
///
/// // Uniform per-neighbor costs reduce to the base model...
/// let g = NeighborCostGraph::uniform(&fig1());
/// assert_eq!(g.recv_cost(Fig1::D, Fig1::B), Cost::new(1));
/// // ...and individual links can then be re-priced.
/// let g = g.with_recv_cost(Fig1::D, Fig1::B, Cost::new(7)).unwrap();
/// assert_eq!(g.recv_cost(Fig1::D, Fig1::B), Cost::new(7));
/// assert_eq!(g.recv_cost(Fig1::D, Fig1::Y), Cost::new(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeighborCostGraph {
    topology: AsGraph,
    /// `recv_costs[k][from]`: cost node `k` incurs per transit packet
    /// received from neighbor `from`. One entry per adjacency.
    recv_costs: Vec<BTreeMap<AsId, Cost>>,
}

impl NeighborCostGraph {
    /// Starts building a graph from scratch.
    pub fn builder() -> NeighborCostGraphBuilder {
        NeighborCostGraphBuilder::default()
    }

    /// Lifts a node-uniform graph into the generalized model: every link of
    /// node `k` receives cost `c_k`. The generalized mechanism on this
    /// graph coincides with the base mechanism on the original.
    pub fn uniform(base: &AsGraph) -> Self {
        let recv_costs = base
            .nodes()
            .map(|k| {
                base.neighbors(k)
                    .iter()
                    .map(|&a| (a, base.cost(k)))
                    .collect()
            })
            .collect();
        NeighborCostGraph {
            topology: base.clone(),
            recv_costs,
        }
    }

    /// The underlying topology (node-uniform costs therein are unused).
    pub fn topology(&self) -> &AsGraph {
        &self.topology
    }

    /// Number of ASs.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// Iterates over all AS numbers.
    pub fn nodes(&self) -> impl Iterator<Item = AsId> + '_ {
        self.topology.nodes()
    }

    /// Neighbors of `k`, ascending.
    pub fn neighbors(&self, k: AsId) -> &[AsId] {
        self.topology.neighbors(k)
    }

    /// The cost node `k` incurs for a transit packet received from
    /// neighbor `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a neighbor of `k`.
    pub fn recv_cost(&self, k: AsId, from: AsId) -> Cost {
        *self.recv_costs[k.index()]
            .get(&from)
            .unwrap_or_else(|| panic!("{from} is not a neighbor of {k}")) // lint:allow(documented # Panics contract: non-neighbor lookup is a caller bug)
    }

    /// The full declared cost vector of node `k`: `(neighbor, cost)` pairs
    /// in ascending neighbor order — the node's *type* in the mechanism.
    pub fn cost_vector(&self, k: AsId) -> Vec<(AsId, Cost)> {
        self.recv_costs[k.index()]
            .iter()
            .map(|(&a, &c)| (a, c))
            .collect()
    }

    /// A copy with one link's receive cost changed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `from` is not a neighbor of
    /// `k` (or either node is absent).
    pub fn with_recv_cost(&self, k: AsId, from: AsId, cost: Cost) -> Result<Self, GraphError> {
        if !self.topology.contains_node(k) {
            return Err(GraphError::UnknownNode(k));
        }
        if !self.topology.has_link(k, from) {
            return Err(GraphError::UnknownNode(from));
        }
        let mut clone = self.clone();
        clone.recv_costs[k.index()].insert(from, cost);
        Ok(clone)
    }

    /// A copy with node `k`'s entire declared vector replaced — the
    /// deviation move in the generalized game.
    ///
    /// # Panics
    ///
    /// Panics if the vector does not cover exactly `k`'s neighbors.
    pub fn with_cost_vector(&self, k: AsId, vector: &[(AsId, Cost)]) -> Self {
        let expected: Vec<AsId> = self.neighbors(k).to_vec();
        let provided: Vec<AsId> = vector.iter().map(|&(a, _)| a).collect();
        assert_eq!(
            provided, expected,
            "vector must cover exactly the neighbors of {k}"
        );
        let mut clone = self.clone();
        clone.recv_costs[k.index()] = vector.iter().copied().collect();
        clone
    }

    /// Validates the mechanism preconditions (size, connectivity,
    /// biconnectivity) — identical to the base model's.
    ///
    /// # Errors
    ///
    /// See [`AsGraph::validate_for_mechanism`].
    pub fn validate_for_mechanism(&self) -> Result<(), GraphError> {
        self.topology.validate_for_mechanism()
    }
}

/// The receive-side extension rule: prepending `from` to a route whose
/// source is `transit` adds `c_transit(from)`. It depends on the new link's
/// two ends only, so the route order, Dijkstra, the tree types and the
/// subtree-local avoidance pass of `bgpvcg-lcp` all carry over unchanged.
impl CostModel for NeighborCostGraph {
    fn topology(&self) -> &AsGraph {
        &self.topology
    }

    fn transit_cost(&self, transit: AsId, from: AsId) -> Cost {
        self.recv_cost(transit, from)
    }
}

impl AsRef<AsGraph> for NeighborCostGraph {
    fn as_ref(&self) -> &AsGraph {
        &self.topology
    }
}

impl fmt::Display for NeighborCostGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "NeighborCostGraph: {} nodes, {} links",
            self.node_count(),
            self.topology.link_count()
        )?;
        for k in self.nodes() {
            let costs: Vec<String> = self
                .cost_vector(k)
                .iter()
                .map(|(a, c)| format!("{a}:{c}"))
                .collect();
            writeln!(f, "  {k} <- [{}]", costs.join(", "))?;
        }
        Ok(())
    }
}

/// Builder for [`NeighborCostGraph`].
#[derive(Debug, Clone, Default)]
pub struct NeighborCostGraphBuilder {
    nodes: usize,
    links: Vec<(AsId, AsId, Cost, Cost)>,
}

impl NeighborCostGraphBuilder {
    /// Adds a node, returning its AS number.
    pub fn add_node(&mut self) -> AsId {
        let id = AsId::new(self.nodes as u32);
        self.nodes += 1;
        id
    }

    /// Adds a link; `cost_at_a` is what `a` incurs receiving from `b`, and
    /// `cost_at_b` what `b` incurs receiving from `a`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`bgpvcg_netgraph::AsGraphBuilder::add_link`]
    /// (validated at [`build`](Self::build)).
    pub fn add_link(&mut self, a: AsId, b: AsId, cost_at_a: Cost, cost_at_b: Cost) -> &mut Self {
        self.links.push((a, b, cost_at_a, cost_at_b));
        self
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// Returns the first link-validation error (unknown node, self-loop,
    /// duplicate).
    pub fn build(self) -> Result<NeighborCostGraph, GraphError> {
        let mut topo = AsGraph::builder();
        for _ in 0..self.nodes {
            topo.add_node(Cost::ZERO);
        }
        for &(a, b, _, _) in &self.links {
            topo.add_link(a, b)?;
        }
        let topology = topo.build();
        let mut recv_costs: Vec<BTreeMap<AsId, Cost>> = vec![BTreeMap::new(); self.nodes];
        for (a, b, cost_at_a, cost_at_b) in self.links {
            recv_costs[a.index()].insert(b, cost_at_a);
            recv_costs[b.index()].insert(a, cost_at_b);
        }
        Ok(NeighborCostGraph {
            topology,
            recv_costs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_lcp::avoiding::avoiding_tree;
    use bgpvcg_lcp::shortest_tree;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_lift_copies_node_costs() {
        let base = fig1();
        let g = NeighborCostGraph::uniform(&base);
        for k in base.nodes() {
            for &a in base.neighbors(k) {
                assert_eq!(g.recv_cost(k, a), base.cost(k));
            }
        }
        assert!(g.validate_for_mechanism().is_ok());
    }

    #[test]
    fn cost_vector_covers_neighbors() {
        let g = NeighborCostGraph::uniform(&fig1());
        let v = g.cost_vector(Fig1::D);
        let neighbors: Vec<AsId> = v.iter().map(|&(a, _)| a).collect();
        assert_eq!(neighbors, g.neighbors(Fig1::D));
    }

    #[test]
    fn with_recv_cost_changes_one_direction() {
        let g = NeighborCostGraph::uniform(&fig1());
        let g2 = g.with_recv_cost(Fig1::D, Fig1::B, Cost::new(9)).unwrap();
        assert_eq!(g2.recv_cost(Fig1::D, Fig1::B), Cost::new(9));
        assert_eq!(
            g2.recv_cost(Fig1::B, Fig1::D),
            Cost::new(2),
            "other side untouched"
        );
        assert!(
            g.with_recv_cost(Fig1::D, Fig1::A, Cost::ZERO).is_err(),
            "not adjacent"
        );
    }

    #[test]
    fn with_cost_vector_replaces_type() {
        let g = NeighborCostGraph::uniform(&fig1());
        let mut v = g.cost_vector(Fig1::D);
        for (_, c) in &mut v {
            *c = Cost::new(5);
        }
        let g2 = g.with_cost_vector(Fig1::D, &v);
        for &a in g2.neighbors(Fig1::D) {
            assert_eq!(g2.recv_cost(Fig1::D, a), Cost::new(5));
        }
    }

    #[test]
    #[should_panic(expected = "cover exactly the neighbors")]
    fn with_cost_vector_rejects_wrong_shape() {
        let g = NeighborCostGraph::uniform(&fig1());
        g.with_cost_vector(Fig1::D, &[(Fig1::A, Cost::ZERO)]);
    }

    #[test]
    fn builder_constructs_asymmetric_costs() {
        let mut b = NeighborCostGraph::builder();
        let x = b.add_node();
        let y = b.add_node();
        let z = b.add_node();
        b.add_link(x, y, Cost::new(1), Cost::new(2));
        b.add_link(y, z, Cost::new(3), Cost::new(4));
        b.add_link(z, x, Cost::new(5), Cost::new(6));
        let g = b.build().unwrap();
        assert_eq!(g.recv_cost(x, y), Cost::new(1));
        assert_eq!(g.recv_cost(y, x), Cost::new(2));
        assert_eq!(g.recv_cost(y, z), Cost::new(3));
        assert_eq!(g.recv_cost(z, y), Cost::new(4));
        assert_eq!(g.recv_cost(z, x), Cost::new(5));
        assert_eq!(g.recv_cost(x, z), Cost::new(6));
        assert!(g.validate_for_mechanism().is_ok());
    }

    #[test]
    fn builder_rejects_duplicate_links() {
        let mut b = NeighborCostGraph::builder();
        let x = b.add_node();
        let y = b.add_node();
        b.add_link(x, y, Cost::ZERO, Cost::ZERO);
        b.add_link(y, x, Cost::ZERO, Cost::ZERO);
        assert!(b.build().is_err());
    }

    #[test]
    fn uniform_costs_reduce_to_base_routing() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = erdos_renyi(random_costs(15, 0, 9, &mut rng), 0.3, &mut rng);
        let g = NeighborCostGraph::uniform(&base);
        for j in base.nodes() {
            assert_eq!(shortest_tree(&g, j), shortest_tree(&base, j), "dest {j}");
            for k in base.nodes() {
                if k != j {
                    assert_eq!(
                        avoiding_tree(&g, j, k),
                        avoiding_tree(&base, j, k),
                        "dest {j} avoid {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn expensive_incoming_link_is_routed_around() {
        // Base Fig. 1: X->Z goes X B D Z. Make D's B-facing link ruinous;
        // the LCP must shift to X A Z (cost 5).
        let g = NeighborCostGraph::uniform(&fig1())
            .with_recv_cost(Fig1::D, Fig1::B, Cost::new(50))
            .unwrap();
        let t = shortest_tree(&g, Fig1::Z);
        let route = t.route(Fig1::X).unwrap();
        assert_eq!(route.nodes(), &[Fig1::X, Fig1::A, Fig1::Z]);
        assert_eq!(route.transit_cost(), Cost::new(5));
        // D itself is still fine via its Y-facing link for Y's traffic.
        assert_eq!(
            t.route(Fig1::Y).unwrap().nodes(),
            &[Fig1::Y, Fig1::D, Fig1::Z]
        );
        // Avoiding D leaves X on X A Z.
        assert_eq!(
            avoiding_tree(&g, Fig1::Z, Fig1::D).cost(Fig1::X),
            Cost::new(5)
        );
    }

    #[test]
    fn asymmetric_costs_make_routing_direction_dependent() {
        // Square x-y-z-w-x plus the diagonal y-w, where y's x-facing link is
        // dear: x routes to z around y, while y itself goes direct.
        let mut b = NeighborCostGraph::builder();
        let x = b.add_node();
        let y = b.add_node();
        let z = b.add_node();
        let w = b.add_node();
        b.add_link(x, y, Cost::ZERO, Cost::new(10)); // y pays 10 receiving from x
        b.add_link(y, z, Cost::new(1), Cost::new(1));
        b.add_link(z, w, Cost::new(1), Cost::new(1));
        b.add_link(w, x, Cost::new(1), Cost::new(1));
        b.add_link(y, w, Cost::new(1), Cost::new(1));
        let g = b.build().unwrap();
        let t = shortest_tree(&g, z);
        // x -> z: via y costs 10 (y's receive from x), via w costs 1.
        assert_eq!(t.route(x).unwrap().nodes(), &[x, w, z]);
        assert_eq!(t.route(y).unwrap().nodes(), &[y, z]);
    }

    #[test]
    fn display_lists_cost_vectors() {
        let g = NeighborCostGraph::uniform(&fig1());
        let text = g.to_string();
        assert!(text.contains("AS3"));
        assert!(text.contains("<-"));
    }
}
