//! The distributed price computation under per-neighbor costs.
//!
//! The paper only sketches the per-edge-cost extension; this module shows
//! its BGP-based protocol extends too. One rewriting makes it go through:
//! relax the **margin** `m^k_ij = Cost(P_{-k}(i,j)) − c(i,j)` instead of
//! the price. The price `p^k_ij = c_k(pred) + m^k_ij` depends on `k`'s
//! predecessor on the selected route, which differs between neighbors'
//! routes — but the margin does not, so neighbors' advertised margin
//! arrays compose exactly like the base model's price arrays:
//!
//! ```text
//! m^k_ij ≤ m^k_aj + c_a(i) + c(a,j) − c(i,j)      (k on a's path)
//! m^k_ij ≤          c_a(i) + c(a,j) − c(i,j)      (k not on a's path)
//! ```
//!
//! where `c_a(i)` is `a`'s receive cost from `i`, known from `a`'s
//! advertised cost vector (carried once per UPDATE — `O(degree)` extra).
//! In the base model (`c_a(i) = c_a` for all `i`) the first rule is the
//! paper's unified case (i)–(iii) bound minus the constant `c_k`, and the
//! second is case (iv) minus `c_k`.

use super::graph::NeighborCostGraph;
use crate::errors::MechanismError;
use crate::outcome::{PairOutcome, RoutingOutcome};
use bgpvcg_bgp::engine::{RunReport, SyncEngine};
use bgpvcg_bgp::{
    uncaused, AdjRibOut, LocalEvent, ProtocolNode, RouteInfo, RouteSelector, StateSnapshot, Update,
};
use bgpvcg_netgraph::{AsId, Cost};
use std::sync::Arc;

/// A BGP speaker computing VCG prices under per-neighbor (receive-side)
/// transit costs, by distributed margin relaxation.
///
/// # Example
///
/// ```
/// use bgpvcg_core::neighbor_costs::{self, NcPricingNode, NeighborCostGraph};
/// use bgpvcg_netgraph::generators::structured::fig1;
///
/// # fn main() -> Result<(), bgpvcg_core::MechanismError> {
/// let g = NeighborCostGraph::uniform(&fig1());
/// let (outcome, _) = neighbor_costs::run_nc_sync(&g)?;
/// assert_eq!(outcome, neighbor_costs::compute(&g)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NcPricingNode {
    selector: RouteSelector,
    /// This node's declared receive-cost vector, attached to every UPDATE.
    vector: Vec<(AsId, Cost)>,
    /// Per destination (index `dest.index()`): margin entries aligned with
    /// the selected route's transit nodes (empty where it has none),
    /// recomputed from scratch on every refresh (same rationale as the base
    /// `PricingBgpNode`).
    margins: Vec<Vec<Cost>>,
    /// Change suppression and delta compression of what goes out.
    out: AdjRibOut,
    /// The array `refresh_margins` relaxes into, reused across calls.
    scratch: Vec<Cost>,
}

impl NcPricingNode {
    /// Creates the node for AS `id` of the generalized graph.
    ///
    /// The selector's scalar declared cost is zero: in this model a node's
    /// cost lives on its links, and each path entry is restamped by the
    /// extender with the cost matching the entry's predecessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the graph.
    pub fn new(graph: &NeighborCostGraph, id: AsId) -> Self {
        let n = graph.node_count();
        NcPricingNode {
            selector: RouteSelector::with_node_count(
                id,
                Cost::ZERO,
                graph.neighbors(id).iter().copied(),
                n,
            ),
            vector: graph.cost_vector(id),
            margins: vec![Vec::new(); n],
            out: AdjRibOut::new(n),
            scratch: Vec::new(),
        }
    }

    /// Enables or disables [`RouteInfo::PriceDelta`] compression of change
    /// advertisements (on by default). The delta-stream equivalence
    /// proptests run both settings and assert identical fixpoints.
    pub fn set_delta_encoding(&mut self, on: bool) {
        self.out.set_delta_encoding(on);
    }

    /// One node per AS, in AS order.
    pub fn from_graph(graph: &NeighborCostGraph) -> Vec<Self> {
        graph
            .nodes()
            .map(|id| NcPricingNode::new(graph, id))
            .collect()
    }

    /// Read access to the routing decision process.
    pub fn selector(&self) -> &RouteSelector {
        &self.selector
    }

    /// The current price `p^k = c_k(pred) + margin` for transit node `k` of
    /// the selected route to `dest`.
    pub fn price(&self, dest: AsId, k: AsId) -> Option<Cost> {
        let route = self.selector.selected(dest)?;
        if route.path.len() < 3 {
            return None;
        }
        let transit = &route.path[1..route.path.len() - 1];
        let pos = transit.iter().position(|e| e.node == k)?;
        let margin = self.margins.get(dest.index())?.get(pos).copied()?;
        // The path entry carries c_k(pred) for this path (restamped on
        // extension).
        // lint:allow(bounds: pos is a position hit over transit itself)
        Some(transit[pos].cost + margin)
    }

    /// Recomputes the margin array for `dest` from the current Rib-In;
    /// returns `true` if it changed.
    fn refresh_margins(&mut self, dest: AsId) -> bool {
        let Some(stored) = self.margins.get_mut(dest.index()) else {
            return false;
        };
        let transit = match self.selector.selected(dest) {
            Some(route) if dest != self.selector.id() => &route.path[1..route.path.len() - 1],
            _ => &[],
        };
        if transit.is_empty() {
            // Own destination, no route, or a route without transit nodes.
            let had_margins = !stored.is_empty();
            stored.clear();
            return had_margins;
        }
        let my_route_cost = self.selector.route_cost(dest);
        let arr = &mut self.scratch;
        arr.clear();
        arr.resize(transit.len(), Cost::INFINITE);

        // Neighbors outer, transit inner: the per-advertisement values
        // (receive cost, shift) hoist out of the transit scan and the
        // Rib-In row is walked once. The component-wise minimum is
        // order-independent, so the array is identical either way.
        for (a, info) in self.selector.rib_for(dest) {
            // c_a(i): a's receive cost from us, from a's vector.
            let Some(a_recv_from_me) = self.selector.recv_cost_from(a) else {
                continue;
            };
            let RouteInfo::Reachable {
                path: a_path,
                path_cost: a_route_cost,
                prices: a_margins,
            } = info
            else {
                continue;
            };
            let Some(shift) = (a_recv_from_me + *a_route_cost).checked_sub(my_route_cost) else {
                continue;
            };
            for (k_entry, cell) in transit.iter().zip(arr.iter_mut()) {
                let k = k_entry.node;
                if a == k {
                    continue; // the link i–a is never on a k-avoiding path
                }
                // One scan of a's path places k on it.
                let bound = match a_path.iter().position(|e| e.node == k) {
                    // a's path is itself k-avoiding once extended by i–a.
                    None => shift,
                    // k is transit on a's path: compose margins.
                    Some(at) if at + 1 < a_path.len() => match a_margins.get(at - 1) {
                        Some(&m) => m + shift,
                        None => continue, // a margin array shorter than its path
                    },
                    Some(_) => continue, // k is an endpoint of a's path (only k == dest)
                };
                if bound < *cell {
                    *cell = bound;
                }
            }
        }
        crate::invariants::margin_step(transit, arr.as_slice());
        let changed = stored != arr;
        if changed {
            stored.clone_from(arr);
        }
        changed
    }

    /// Advertises whichever of `dests` changed since last advertised, with
    /// this node's receive-cost vector attached. Margin-only movement on an
    /// unchanged path compresses to a delta exactly like the base model's
    /// price relaxation.
    fn emit(&mut self, dests: impl IntoIterator<Item = (AsId, u64)>) -> Option<Update> {
        self.out
            .emit(&self.selector, dests, |dest| &self.margins[dest.index()])
            .map(|u| u.with_sender_costs(self.vector.clone()))
    }
}

impl ProtocolNode for NcPricingNode {
    fn id(&self) -> AsId {
        self.selector.id()
    }

    fn configure_delta_encoding(&mut self, on: bool) {
        self.set_delta_encoding(on);
    }

    fn start(&mut self) -> Option<Update> {
        self.emit(uncaused([self.selector.id()]))
    }

    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update> {
        let mut dirty = self.out.ingest(&mut self.selector, updates);
        dirty.retain(|&(dest, _)| {
            let route_changed = self.selector.decide(dest);
            self.refresh_margins(dest) || route_changed
        });
        let update = self.emit(dirty.iter().copied());
        self.out.recycle(dirty);
        update
    }

    fn apply_event(&mut self, event: LocalEvent) -> Option<Update> {
        match event {
            LocalEvent::LinkDown(neighbor) => {
                if !self.selector.has_neighbor(neighbor) {
                    return None;
                }
                // Only destinations the vanished Rib-In covered can change
                // (bounds and candidates for `dest` come exclusively from
                // rib entries for `dest`; a margin refresh recomputes from
                // scratch off the current Rib-In) — same argument as the
                // base `PricingBgpNode`.
                let affected = self.selector.rib_destinations(neighbor);
                self.selector.link_down(neighbor); // re-decides `affected`
                                                   // The dead link's entry leaves our declared vector; it is
                                                   // attached to whatever this emit (and later ones) sends.
                self.vector.retain(|&(a, _)| a != neighbor);
                for &dest in &affected {
                    self.refresh_margins(dest);
                }
                self.emit(uncaused(affected))
            }
            LocalEvent::LinkUp(neighbor) => {
                self.selector.link_up(neighbor);
                None // the engine delivers full_table to the new neighbor
            }
            // A scalar cost change has no meaning in the per-neighbor
            // model; vector re-declarations are a static-model concern
            // (rebuild the node set for a new NeighborCostGraph instead).
            LocalEvent::CostChange(_) => None,
        }
    }

    fn full_table(&self) -> Option<Update> {
        AdjRibOut::full_table(&self.selector, |dest| &self.margins[dest.index()])
            .map(|u| u.with_sender_costs(self.vector.clone()))
    }

    fn reset(&mut self) {
        // The declared vector is configuration, not learned state: a
        // restarted node still charges the same per-neighbor receive costs.
        self.selector.reset();
        self.margins.iter_mut().for_each(Vec::clear);
        self.out.reset();
    }

    fn state(&self) -> StateSnapshot {
        // One margin per transit node of the selected route; a deployable
        // encoding labels each with that node's AS number (one cell each).
        let mut snapshot = self.selector.state();
        snapshot.price_entries = self.margins.iter().map(Vec::len).sum();
        snapshot.price_path_nodes = snapshot.price_entries;
        snapshot
    }
}

/// Runs the generalized pricing protocol to convergence on the synchronous
/// engine and extracts the outcome (directly comparable with
/// [`super::compute`]).
///
/// # Errors
///
/// Returns the graph-validation error if the topology violates the
/// mechanism's preconditions.
pub fn run_nc_sync(
    graph: &NeighborCostGraph,
) -> Result<(RoutingOutcome, RunReport), MechanismError> {
    graph.validate_for_mechanism()?;
    let mut engine = SyncEngine::new(graph.topology(), NcPricingNode::from_graph(graph));
    let report = engine.run_to_convergence();
    let outcome = outcome_from_nc_nodes(&engine.into_nodes())?;
    Ok((outcome, report))
}

/// Extracts the distributed state of converged NC nodes into a
/// [`RoutingOutcome`].
///
/// # Errors
///
/// Returns [`MechanismError::MissingPrice`] if a selected route carries a
/// transit node without a converged margin entry — i.e. the nodes were
/// read before the relaxation fixpoint was reached.
fn outcome_from_nc_nodes(nodes: &[NcPricingNode]) -> Result<RoutingOutcome, MechanismError> {
    let n = nodes.len();
    let mut pairs: Vec<Option<PairOutcome>> = vec![None; n * n];
    for node in nodes {
        let i = node.id();
        for j in node.selector().destinations().collect::<Vec<_>>() {
            if j == i {
                continue;
            }
            let Some(route) = node.selector().route(j) else {
                continue;
            };
            let mut prices = Vec::with_capacity(route.transit_nodes().len());
            for &k in route.transit_nodes() {
                let price = node.price(j, k).ok_or(MechanismError::MissingPrice {
                    source: i,
                    destination: j,
                    transit: k,
                })?;
                prices.push((k, price));
            }
            pairs[i.index() * n + j.index()] = Some(PairOutcome::new(route, prices));
        }
    }
    Ok(RoutingOutcome::from_pairs(n, pairs))
}

/// Runs the generalized pricing protocol on the asynchronous engine until
/// quiescence, in the delivery order `seed` draws; the margin relaxation's
/// fixpoint is unique, so the result equals [`run_nc_sync`]'s (and
/// [`super::compute`]'s) for any interleaving.
///
/// # Errors
///
/// Returns the graph-validation error if the topology violates the
/// mechanism's preconditions.
pub fn run_nc_async(
    graph: &NeighborCostGraph,
    seed: u64,
) -> Result<(RoutingOutcome, bgpvcg_bgp::engine::EventReport), MechanismError> {
    graph.validate_for_mechanism()?;
    let nodes = NcPricingNode::from_graph(graph);
    let (nodes, report) =
        bgpvcg_bgp::engine::run_event_driven(graph.topology(), nodes, seed, 0.0, None);
    Ok((outcome_from_nc_nodes(&nodes)?, report))
}

#[cfg(test)]
mod tests {
    use super::super::mechanism::compute;
    use super::*;
    use bgpvcg_bgp::TopologyEvent;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_nc_graph(n: usize, seed: u64) -> NeighborCostGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = erdos_renyi(random_costs(n, 0, 9, &mut rng), 0.3, &mut rng);
        let mut g = NeighborCostGraph::uniform(&base);
        for k in base.nodes() {
            for &a in base.neighbors(k) {
                g = g
                    .with_recv_cost(k, a, Cost::new(rng.gen_range(0..10)))
                    .unwrap();
            }
        }
        g
    }

    #[test]
    fn distributed_equals_centralized_on_uniform_fig1() {
        let g = NeighborCostGraph::uniform(&fig1());
        let (outcome, report) = run_nc_sync(&g).unwrap();
        assert!(report.converged);
        assert_eq!(outcome, compute(&g).unwrap());
        // ... and therefore also equals the base mechanism.
        assert_eq!(outcome, crate::vcg::compute(&fig1()).unwrap());
    }

    #[test]
    fn distributed_equals_centralized_on_heterogeneous_links() {
        for seed in 0..6 {
            let g = random_nc_graph(14, 200 + seed);
            let (outcome, report) = run_nc_sync(&g).unwrap();
            assert!(report.converged, "seed {seed}");
            assert_eq!(outcome, compute(&g).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn expensive_link_repricing_matches_centralized() {
        let g = NeighborCostGraph::uniform(&fig1())
            .with_recv_cost(Fig1::D, Fig1::B, Cost::new(2))
            .unwrap();
        let (outcome, _) = run_nc_sync(&g).unwrap();
        assert_eq!(outcome, compute(&g).unwrap());
        let pair = outcome.pair(Fig1::X, Fig1::Z).unwrap();
        assert_eq!(pair.price_of(Fig1::D), Some(Cost::new(3)));
        assert_eq!(pair.price_of(Fig1::B), Some(Cost::new(3)));
    }

    #[test]
    fn link_failure_reconverges_to_centralized() {
        let g = random_nc_graph(12, 300);
        let mut engine = SyncEngine::new(g.topology(), NcPricingNode::from_graph(&g));
        engine.run_to_convergence();
        // Find a removable link that keeps the topology biconnected.
        let link = g
            .topology()
            .links()
            .iter()
            .find(|l| {
                g.topology()
                    .without_link(l.a(), l.b())
                    .is_ok_and(|t| t.is_biconnected())
            })
            .copied()
            .expect("a removable link exists");
        let report = engine.apply_event(TopologyEvent::LinkDown(link.a(), link.b()));
        assert!(report.converged);

        // The expected state: the NC graph on the reduced topology.
        let mut b = NeighborCostGraph::builder();
        for _ in g.nodes() {
            b.add_node();
        }
        for l in g.topology().links() {
            if *l == link {
                continue;
            }
            b.add_link(
                l.a(),
                l.b(),
                g.recv_cost(l.a(), l.b()),
                g.recv_cost(l.b(), l.a()),
            );
        }
        let reduced = b.build().unwrap();
        let reference = compute(&reduced).unwrap();

        let nodes = engine.into_nodes();
        for node in &nodes {
            let i = node.id();
            for j in g.nodes() {
                if i == j {
                    continue;
                }
                let route = node.selector().route(j).expect("still biconnected");
                let expected_pair = reference.pair(i, j).unwrap();
                assert_eq!(&route, expected_pair.route(), "{i}->{j} route");
                for &(k, p) in expected_pair.prices() {
                    assert_eq!(node.price(j, k), Some(p), "{i}->{j} price of {k}");
                }
            }
        }
    }

    #[test]
    fn run_nc_async_matches_centralized() {
        let g = random_nc_graph(12, 500);
        let reference = compute(&g).unwrap();
        let (outcome, report) = run_nc_async(&g, 0).unwrap();
        assert!(report.messages > 0);
        assert_eq!(outcome, reference);
    }

    #[test]
    fn async_engine_matches_centralized_nc() {
        // The asynchronous engine is generic over ProtocolNode, so the
        // generalized pricing node runs on it unchanged; the margin
        // relaxation must reach the same unique fixpoint under arbitrary
        // interleavings.
        use bgpvcg_bgp::engine::run_event_driven;
        let g = random_nc_graph(12, 400);
        let reference = compute(&g).unwrap();
        for seed in 0..2 {
            let nodes = NcPricingNode::from_graph(&g);
            let (nodes, _) = run_event_driven(g.topology(), nodes, seed, 0.0, None);
            for node in &nodes {
                let i = node.id();
                for j in g.nodes() {
                    if i == j {
                        continue;
                    }
                    let pair = reference.pair(i, j).unwrap();
                    assert_eq!(
                        node.selector().route(j).as_ref(),
                        Some(pair.route()),
                        "{i}->{j} route"
                    );
                    for &(k, price) in pair.prices() {
                        assert_eq!(node.price(j, k), Some(price), "{i}->{j} price of {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn price_uses_predecessor_specific_cost() {
        // Asymmetric: D's B-facing link costs 4, its Y-facing link 1.
        let g = NeighborCostGraph::uniform(&fig1())
            .with_recv_cost(Fig1::D, Fig1::B, Cost::new(4))
            .unwrap();
        let (outcome, _) = run_nc_sync(&g).unwrap();
        assert_eq!(outcome, compute(&g).unwrap());
        // Y->Z still goes Y D Z with D's Y-facing cost (1)...
        let yz = outcome.pair(Fig1::Y, Fig1::Z).unwrap();
        assert_eq!(yz.route().nodes(), &[Fig1::Y, Fig1::D, Fig1::Z]);
        // ...while X->Z now weighs D at 4 via B: X B D Z costs 2+4=6 > 5,
        // so the LCP flips to X A Z.
        let xz = outcome.pair(Fig1::X, Fig1::Z).unwrap();
        assert_eq!(xz.route().nodes(), &[Fig1::X, Fig1::A, Fig1::Z]);
    }
}
