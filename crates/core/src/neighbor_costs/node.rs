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
use crate::outcome::RoutingOutcome;
use crate::protocol::outcome_from_nodes;
use bgpvcg_bgp::engine::{RunReport, SyncEngine};
use bgpvcg_bgp::{Node, PathEntry, PricePolicy, RouteSelector, SharedPath};
use bgpvcg_netgraph::{AsId, Cost};

/// The per-neighbor (receive-side) cost model: what the node stores and
/// relaxes is the margin `m^k_ij`, and the terms of the bound that differ
/// from the base model are exactly the two in the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Margins;

impl PricePolicy for Margins {
    type Graph = NeighborCostGraph;
    // A scalar cost change has no meaning in the per-neighbor model.
    const SCALAR_COST: bool = false;

    /// Zero: in this model a node's cost lives on its links, and each path
    /// entry is restamped by the extender with the cost matching the
    /// entry's predecessor.
    fn declared_cost(_graph: &NeighborCostGraph, _id: AsId) -> Cost {
        Cost::ZERO
    }

    fn sender_costs(graph: &NeighborCostGraph, id: AsId) -> Vec<(AsId, Cost)> {
        graph.cost_vector(id)
    }

    /// `c_a(i)`: `a`'s receive cost from us, from `a`'s advertised vector.
    fn charged_by(selector: &RouteSelector, a: AsId, _a_path: &SharedPath) -> Option<Cost> {
        selector.recv_cost_from(a)
    }

    /// Nothing: a margin has `c_k(pred)` already subtracted, so a's path,
    /// itself k-avoiding once extended by i–a, bounds it by the shift alone.
    fn detour_base(_k: &PathEntry) -> Cost {
        Cost::ZERO
    }

    /// `p^k = c_k(pred) + m^k`: the path entry carries `c_k(pred)` for this
    /// path (restamped on extension).
    fn price(k: &PathEntry, margin: Cost) -> Cost {
        k.cost + margin
    }
}

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
pub type NcPricingNode = Node<Margins>;

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
    let outcome = outcome_from_nodes(&engine.into_nodes())?;
    Ok((outcome, report))
}

#[cfg(test)]
mod tests {
    use super::super::mechanism::compute;
    use super::*;
    use bgpvcg_bgp::{ProtocolNode, TopologyEvent};
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
                assert_eq!(route, expected_pair.route(), "{i}->{j} route");
                for (k, p) in expected_pair.prices() {
                    assert_eq!(node.price(j, k), Some(p), "{i}->{j} price of {k}");
                }
            }
        }
    }

    #[test]
    fn a_bounced_link_declares_its_receive_cost_again() {
        // Down and up again is no change at all: the fixpoint is the
        // original graph's, whichever link bounced (of those whose loss
        // keeps every price finite).
        let g = random_nc_graph(12, 400);
        let reference = compute(&g).unwrap();
        let links = g.topology().links().iter().filter(|l| {
            let without = g.topology().without_link(l.a(), l.b());
            without.is_ok_and(|t| t.is_biconnected())
        });
        let mut bounced = 0;
        for link in links {
            bounced += 1;
            let mut engine = SyncEngine::new(g.topology(), NcPricingNode::from_graph(&g));
            engine.run_to_convergence();
            for event in [
                TopologyEvent::LinkDown(link.a(), link.b()),
                TopologyEvent::LinkUp(link.a(), link.b()),
            ] {
                assert!(engine.apply_event(event).converged, "{event:?}");
            }
            let outcome = outcome_from_nodes(&engine.into_nodes()).unwrap();
            assert_eq!(outcome, reference, "{link:?} bounced");
        }
        assert!(bounced > 5, "only {bounced} links bounced");
    }

    #[test]
    fn asynchronous_runs_match_centralized() {
        // The margin relaxation reaches the same unique fixpoint under
        // seed-drawn interleavings of per-link FIFO delivery.
        use bgpvcg_bgp::chaos::{ChaosEngine, FaultPlan};
        let g = random_nc_graph(12, 400);
        let reference = compute(&g).unwrap();
        for seed in 0..2 {
            let nodes = NcPricingNode::from_graph(&g);
            let mut engine = ChaosEngine::new(g.topology(), nodes, FaultPlan::asynchronous(seed));
            let report = engine.run_to_stable(1_000);
            assert!(report.converged, "seed {seed}: {report}");
            assert_eq!(report.holds_fired, 0, "seed {seed}: {report}");
            let opens = 2 * g.topology().link_count() as u64;
            assert_eq!(report.session_resets, opens, "seed {seed}: {report}");
            let outcome = outcome_from_nodes(&engine.into_nodes()).unwrap();
            assert_eq!(outcome, reference, "seed {seed}");
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
        assert_eq!(yz.nodes(), &[Fig1::Y, Fig1::D, Fig1::Z]);
        // ...while X->Z now weighs D at 4 via B: X B D Z costs 2+4=6 > 5,
        // so the LCP flips to X A Z.
        let xz = outcome.pair(Fig1::X, Fig1::Z).unwrap();
        assert_eq!(xz.nodes(), &[Fig1::X, Fig1::A, Fig1::Z]);
    }
}
