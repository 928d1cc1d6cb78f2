//! The VCG mechanism under per-neighbor costs.
//!
//! Green–Laffont applies exactly as in the paper's Theorem 1 — the agents
//! are still the nodes, their type is now a cost *vector* (one entry per
//! adjacent link), and the unique strategyproof payment that gives nothing
//! to non-transit nodes is
//!
//! ```text
//! p^k_ij = c_k(pred) + Cost(P_{-k}(c; i, j)) − Cost(P(c; i, j))
//! ```
//!
//! where `pred` is the node that hands `k` the packet on the selected LCP,
//! so `c_k(pred)` is `k`'s actual incurred cost on that route.

use super::graph::NeighborCostGraph;
use crate::accounting::PaymentLedger;
use crate::errors::MechanismError;
use crate::outcome::RoutingOutcome;
use crate::vcg;
use bgpvcg_netgraph::{AsId, Cost, GraphError, TrafficMatrix};
use rand::Rng;

/// Computes the full generalized-VCG outcome: all lowest-cost routes and
/// all per-packet prices under per-neighbor costs — [`vcg::compute`]'s
/// one solver, with the receive-cost extension rule.
///
/// # Errors
///
/// Returns the graph-validation error if the topology violates the
/// mechanism's preconditions (biconnectivity etc.).
///
/// # Example
///
/// ```
/// use bgpvcg_core::{neighbor_costs, vcg};
/// use bgpvcg_netgraph::generators::structured::fig1;
///
/// # fn main() -> Result<(), bgpvcg_netgraph::GraphError> {
/// let base = fig1();
/// let lifted = neighbor_costs::NeighborCostGraph::uniform(&base);
/// // Uniform per-neighbor costs reduce to the base mechanism exactly.
/// assert_eq!(neighbor_costs::compute(&lifted)?, vcg::compute(&base)?);
/// # Ok(())
/// # }
/// ```
pub fn compute(graph: &NeighborCostGraph) -> Result<RoutingOutcome, GraphError> {
    vcg::compute(graph)
}

/// Agent `k`'s view of one declaration profile in the generalized game.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborCostView {
    /// What `k` declared (its full cost vector).
    pub declared: Vec<(AsId, Cost)>,
    /// Payment received.
    pub payment: u128,
    /// Transit packets carried.
    pub packets_carried: u128,
    /// Utility: payment minus *true* incurred costs (per received link).
    pub utility: i128,
}

/// Evaluates agent `k` declaring `declared` while everyone else declares
/// the vectors in `graph`; incurred costs use `graph`'s (true) vectors.
/// Payments settle through the [`PaymentLedger`]; only the incurred cost
/// `Σ c_k(pred)·t` is particular to per-neighbor costs.
///
/// # Errors
///
/// Returns [`MechanismError::Graph`] if the topology violates the
/// mechanism's preconditions, and the ledger's errors otherwise.
///
/// # Panics
///
/// Panics if `declared` does not cover exactly `k`'s neighbors.
pub fn evaluate(
    graph: &NeighborCostGraph,
    k: AsId,
    declared: &[(AsId, Cost)],
    traffic: &TrafficMatrix,
) -> Result<NeighborCostView, MechanismError> {
    let outcome = compute(&graph.with_cost_vector(k, declared))?;
    let ledger = PaymentLedger::settle(&outcome, traffic)?;
    let mut incurred: u128 = 0;
    for (i, j, t) in traffic.flows() {
        // The ledger settled every flow, so every pair is routed.
        let Some(pair) = outcome.pair(i, j) else {
            continue;
        };
        // `k` carries the flow when it is a transit node: the node before
        // it hands it the packet.
        let Some(hop) = pair.nodes().windows(2).find(|hop| hop[1] == k && k != j) else {
            continue;
        };
        let true_cost = graph
            .recv_cost(k, hop[0])
            .finite()
            .expect("declared cost vectors are validated finite"); // lint:allow(NeighborCostGraph construction rejects infinite costs)
        incurred += u128::from(true_cost) * u128::from(t);
    }
    let payment = ledger.payment(k);
    Ok(NeighborCostView {
        declared: declared.to_vec(),
        payment,
        packets_carried: ledger.packets_carried(k),
        utility: payment as i128 - incurred as i128,
    })
}

/// One deviation test in the generalized game.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborCostDeviation {
    /// The deviating agent.
    pub agent: AsId,
    /// Its view under the truthful vector.
    pub truthful: NeighborCostView,
    /// Its view under the lie.
    pub deviant: NeighborCostView,
}

impl NeighborCostDeviation {
    /// `true` iff the lie strictly increased utility (never expected).
    pub fn profitable(&self) -> bool {
        self.deviant.utility > self.truthful.utility
    }
}

/// Evaluates a random vector lie for agent `k`: each link entry is drawn
/// uniformly from `[0, ceiling]`.
///
/// # Errors
///
/// As [`evaluate`].
pub fn deviate<R: Rng + ?Sized>(
    graph: &NeighborCostGraph,
    k: AsId,
    ceiling: u64,
    traffic: &TrafficMatrix,
    rng: &mut R,
) -> Result<NeighborCostDeviation, MechanismError> {
    let truth = graph.cost_vector(k);
    let lie: Vec<(AsId, Cost)> = truth
        .iter()
        .map(|&(a, _)| (a, Cost::new(rng.gen_range(0..=ceiling))))
        .collect();
    Ok(NeighborCostDeviation {
        agent: k,
        truthful: evaluate(graph, k, &truth, traffic)?,
        deviant: evaluate(graph, k, &lie, traffic)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A random per-neighbor-cost graph: random biconnected topology, then
    /// independent receive costs per directed adjacency.
    fn random_nc_graph(n: usize, seed: u64) -> NeighborCostGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = erdos_renyi(random_costs(n, 0, 9, &mut rng), 0.35, &mut rng);
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
    fn uniform_reduces_to_base_mechanism() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = erdos_renyi(random_costs(14, 0, 9, &mut rng), 0.3, &mut rng);
        let lifted = NeighborCostGraph::uniform(&base);
        assert_eq!(compute(&lifted).unwrap(), vcg::compute(&base).unwrap());
    }

    #[test]
    fn prices_cover_incurred_costs() {
        let g = random_nc_graph(12, 5);
        let outcome = compute(&g).unwrap();
        for (_, _, pair) in outcome.pairs() {
            let nodes = pair.nodes();
            for (k, p) in pair.prices() {
                let pos = nodes.iter().position(|&x| x == k).unwrap();
                let incurred = g.recv_cost(k, nodes[pos - 1]);
                assert!(p >= incurred, "{k}: price {p} below incurred {incurred}");
            }
        }
    }

    #[test]
    fn fig1_with_one_expensive_link_reprices() {
        // Base: X->Z via B,D with p_D = 3. Raising D's cost of receiving
        // from B shifts the LCP to X A Z once it exceeds the margin.
        let g = NeighborCostGraph::uniform(&fig1())
            .with_recv_cost(Fig1::D, Fig1::B, Cost::new(2))
            .unwrap();
        // New LCP cost X B D Z = c_B + c_D(B) = 2 + 2 = 4 < 5, still wins.
        let outcome = compute(&g).unwrap();
        let pair = outcome.pair(Fig1::X, Fig1::Z).unwrap();
        assert_eq!(pair.transit_cost(), Cost::new(4));
        // p_D = incurred 2 + (5 - 4) = 3; p_B = 2 + (5 - 4) = 3.
        assert_eq!(pair.price_of(Fig1::D), Some(Cost::new(3)));
        assert_eq!(pair.price_of(Fig1::B), Some(Cost::new(3)));
    }

    #[test]
    fn no_profitable_vector_lie_on_fig1() {
        let g = NeighborCostGraph::uniform(&fig1());
        let traffic = TrafficMatrix::uniform(6, 1);
        let mut rng = StdRng::seed_from_u64(7);
        for k in g.nodes() {
            for _ in 0..8 {
                let dev = deviate(&g, k, 12, &traffic, &mut rng).unwrap();
                assert!(!dev.profitable(), "{dev:?}");
            }
        }
    }

    #[test]
    fn no_profitable_vector_lie_on_random_graphs() {
        let traffic_n = 10;
        for seed in 0..3 {
            let g = random_nc_graph(traffic_n, 40 + seed);
            let traffic = TrafficMatrix::uniform(traffic_n, 1);
            let mut rng = StdRng::seed_from_u64(seed);
            for k in g.nodes() {
                for _ in 0..4 {
                    let dev = deviate(&g, k, 12, &traffic, &mut rng).unwrap();
                    assert!(!dev.profitable(), "seed {seed}: {dev:?}");
                }
            }
        }
    }

    #[test]
    fn truthful_utility_nonnegative() {
        let g = random_nc_graph(12, 9);
        let traffic = TrafficMatrix::uniform(12, 1);
        for k in g.nodes() {
            let truth = g.cost_vector(k);
            let view = evaluate(&g, k, &truth, &traffic).unwrap();
            assert!(view.utility >= 0, "{k}: {view:?}");
        }
    }

    #[test]
    fn rejects_invalid_topology() {
        let mut b = NeighborCostGraph::builder();
        let x = b.add_node();
        let y = b.add_node();
        let z = b.add_node();
        b.add_link(x, y, Cost::ZERO, Cost::ZERO);
        b.add_link(y, z, Cost::ZERO, Cost::ZERO);
        let g = b.build().unwrap();
        assert_eq!(compute(&g).unwrap_err(), GraphError::NotBiconnected);
    }
}
