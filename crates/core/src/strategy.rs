//! The game-theoretic harness: utilities, deviations, strategyproofness.
//!
//! The mechanism's point is Theorem 1: with VCG prices, *truthful cost
//! declaration is a dominant strategy* — no AS can increase its utility
//! `τ_k = p_k − (true cost incurred)` by declaring any cost other than its
//! true one, regardless of what everyone else declares. This module computes
//! utilities under arbitrary declarations and provides a deviation-testing
//! harness used by experiment E2 and the property-based test suite.

use crate::accounting::PaymentLedger;
use crate::errors::MechanismError;
use crate::vcg;
use bgpvcg_netgraph::{AsGraph, AsId, Cost, GraphError, TrafficMatrix};
use rand::Rng;

/// The result of evaluating one declaration profile from agent `k`'s
/// perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentView {
    /// What `k` declared.
    pub declared: Cost,
    /// Payment `p_k` received under that declaration.
    pub payment: u128,
    /// Transit packets `k` carried under that declaration.
    pub packets_carried: u128,
    /// Utility `τ_k`: payment minus *true*-cost-weighted carried traffic.
    pub utility: i128,
}

/// Computes agent `k`'s utility when it declares `declared` while everyone
/// else declares the costs recorded in `graph` (the paper's `c|^k x`
/// profile). The *incurred* cost is always computed with `k`'s **true**
/// cost, `graph.cost(k)` — that asymmetry is what makes lying potentially
/// attractive and is exactly what the VCG prices neutralize.
///
/// # Errors
///
/// Returns the graph-validation error if the graph violates the mechanism's
/// preconditions.
///
/// # Example
///
/// ```
/// use bgpvcg_core::strategy;
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_netgraph::{Cost, TrafficMatrix};
///
/// # fn main() -> Result<(), bgpvcg_core::MechanismError> {
/// let g = fig1();
/// let t = TrafficMatrix::uniform(g.node_count(), 1);
/// let truthful = strategy::evaluate(&g, Fig1::D, g.cost(Fig1::D), &t)?;
/// let lying = strategy::evaluate(&g, Fig1::D, Cost::new(8), &t)?;
/// assert!(truthful.utility >= lying.utility, "lying must not pay off");
/// # Ok(())
/// # }
/// ```
pub fn evaluate(
    graph: &AsGraph,
    k: AsId,
    declared: Cost,
    traffic: &TrafficMatrix,
) -> Result<AgentView, MechanismError> {
    let declared_graph = graph.with_cost(k, declared);
    let outcome = vcg::compute(&declared_graph)?;
    let ledger = PaymentLedger::settle(&outcome, traffic)?;
    Ok(AgentView {
        declared,
        payment: ledger.payment(k),
        packets_carried: ledger.packets_carried(k),
        utility: ledger.welfare(k, graph.cost(k)),
    })
}

/// A single deviation test: did declaring `lie` beat the truth for agent
/// `k`?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviationOutcome {
    /// The agent that deviated.
    pub agent: AsId,
    /// Its view under truthful declaration.
    pub truthful: AgentView,
    /// Its view under the lie.
    pub deviant: AgentView,
}

impl DeviationOutcome {
    /// `true` iff the lie strictly increased utility — a strategyproofness
    /// violation (never expected).
    pub fn profitable(&self) -> bool {
        self.deviant.utility > self.truthful.utility
    }

    /// How much utility the lie cost the agent (≥ 0 when strategyproof).
    pub fn regret(&self) -> i128 {
        self.truthful.utility - self.deviant.utility
    }
}

/// Evaluates one explicit deviation.
///
/// # Errors
///
/// Returns the graph-validation error if the graph violates the mechanism's
/// preconditions.
pub fn deviate(
    graph: &AsGraph,
    k: AsId,
    lie: Cost,
    traffic: &TrafficMatrix,
) -> Result<DeviationOutcome, MechanismError> {
    Ok(DeviationOutcome {
        agent: k,
        truthful: evaluate(graph, k, graph.cost(k), traffic)?,
        deviant: evaluate(graph, k, lie, traffic)?,
    })
}

/// The network-efficiency consequence of one declaration profile: the
/// total *true* cost `V(c)` of routing all traffic along the routes
/// selected under the *declared* costs.
///
/// This is the quantity the mechanism exists to protect (paper, Sect. 1:
/// lying "would cause traffic to take non-optimal routes and thereby
/// interfere with overall network efficiency"): routes are computed from
/// declarations, but society pays true costs, so `V` is minimized exactly
/// when everyone declares truthfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EfficiencyView {
    /// Total true cost under truthful routing — the optimum.
    pub truthful_total_cost: u128,
    /// Total true cost along the routes selected under the deviant
    /// declarations. Never smaller than the truthful total.
    pub deviant_total_cost: u128,
}

impl EfficiencyView {
    /// The absolute efficiency loss the lie inflicts on the network.
    pub fn loss(&self) -> u128 {
        self.deviant_total_cost - self.truthful_total_cost
    }
}

/// Measures the efficiency loss of agent `k` declaring `lie`: total true
/// cost of the traffic under truthful routes vs under the routes the lie
/// induces.
///
/// # Errors
///
/// Returns the graph-validation error if the graph violates the
/// mechanism's preconditions.
///
/// # Example
///
/// ```
/// use bgpvcg_core::strategy;
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_netgraph::{Cost, TrafficMatrix};
///
/// # fn main() -> Result<(), bgpvcg_netgraph::GraphError> {
/// let g = fig1();
/// let t = TrafficMatrix::uniform(g.node_count(), 1);
/// // A understating its cost drags traffic onto genuinely expensive paths.
/// let eff = strategy::efficiency_loss(&g, Fig1::A, Cost::ZERO, &t)?;
/// assert!(eff.loss() > 0);
/// # Ok(())
/// # }
/// ```
pub fn efficiency_loss(
    graph: &AsGraph,
    k: AsId,
    lie: Cost,
    traffic: &TrafficMatrix,
) -> Result<EfficiencyView, GraphError> {
    let true_outcome = vcg::compute(graph)?;
    let deviant_outcome = vcg::compute(&graph.with_cost(k, lie))?;
    let true_cost_of = |outcome: &crate::RoutingOutcome| -> u128 {
        let mut total: u128 = 0;
        for (i, j, t) in traffic.flows() {
            let pair = outcome
                .pair(i, j)
                .expect("validated graphs route every pair"); // lint:allow(vcg::compute validated connectivity two lines up)
            let route_true_cost: u128 = pair
                .transit_nodes()
                .iter()
                .map(|&x| u128::from(graph.cost(x).finite().expect("finite true costs"))) // lint:allow(AsGraph construction rejects infinite node costs)
                .sum();
            total += route_true_cost * u128::from(t);
        }
        total
    };
    Ok(EfficiencyView {
        truthful_total_cost: true_cost_of(&true_outcome),
        deviant_total_cost: true_cost_of(&deviant_outcome),
    })
}

/// Sweeps random deviations for every agent and returns them all; the
/// strategyproofness assertion is that none is
/// [`profitable`](DeviationOutcome::profitable).
///
/// `lies_per_agent` random declarations are drawn per agent from
/// `[0, lie_ceiling]`, plus the two structured lies everyone tries first:
/// zero (maximal traffic attraction) and `lie_ceiling` (maximal price
/// extraction) — the two temptations footnote 1 of the paper describes.
///
/// # Errors
///
/// Returns the graph-validation error if the graph violates the mechanism's
/// preconditions.
///
/// # Example
///
/// ```
/// use bgpvcg_core::strategy;
/// use bgpvcg_netgraph::generators::structured::fig1;
/// use bgpvcg_netgraph::TrafficMatrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), bgpvcg_core::MechanismError> {
/// let g = fig1();
/// let traffic = TrafficMatrix::uniform(g.node_count(), 1);
/// let mut rng = StdRng::seed_from_u64(1);
/// let outcomes = strategy::sweep_deviations(&g, &traffic, 3, 12, &mut rng)?;
/// assert!(outcomes.iter().all(|d| !d.profitable()), "Theorem 1");
/// # Ok(())
/// # }
/// ```
pub fn sweep_deviations<R: Rng + ?Sized>(
    graph: &AsGraph,
    traffic: &TrafficMatrix,
    lies_per_agent: usize,
    lie_ceiling: u64,
    rng: &mut R,
) -> Result<Vec<DeviationOutcome>, MechanismError> {
    let mut outcomes = Vec::new();
    for k in graph.nodes() {
        let mut lies = vec![Cost::ZERO, Cost::new(lie_ceiling)];
        for _ in 0..lies_per_agent {
            lies.push(Cost::new(rng.gen_range(0..=lie_ceiling)));
        }
        for lie in lies {
            if lie == graph.cost(k) {
                continue; // not a deviation
            }
            outcomes.push(deviate(graph, k, lie, traffic)?);
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform(g: &AsGraph) -> TrafficMatrix {
        TrafficMatrix::uniform(g.node_count(), 1)
    }

    #[test]
    fn truthful_utility_is_nonnegative() {
        let g = fig1();
        let t = uniform(&g);
        for k in g.nodes() {
            let view = evaluate(&g, k, g.cost(k), &t).unwrap();
            assert!(view.utility >= 0, "{k}: {view:?}");
        }
    }

    #[test]
    fn overstating_cost_loses_traffic_not_profit() {
        // D's true cost is 1; declaring 8 pushes D off many LCPs. Utility
        // must not rise.
        let g = fig1();
        let t = uniform(&g);
        let dev = deviate(&g, Fig1::D, Cost::new(8), &t).unwrap();
        assert!(!dev.profitable(), "{dev:?}");
        assert!(
            dev.deviant.packets_carried < dev.truthful.packets_carried,
            "a big overstatement must shed traffic"
        );
    }

    #[test]
    fn understating_cost_attracts_traffic_not_profit() {
        // A's true cost is 5; declaring 0 pulls traffic onto A, but the VCG
        // price is declaration-independent given the route, so A now
        // carries packets paid below its true cost.
        let g = fig1();
        let t = uniform(&g);
        let dev = deviate(&g, Fig1::A, Cost::ZERO, &t).unwrap();
        assert!(!dev.profitable(), "{dev:?}");
        assert!(
            dev.deviant.packets_carried > dev.truthful.packets_carried,
            "a big understatement must attract traffic"
        );
    }

    #[test]
    fn fig1_full_sweep_has_no_profitable_deviation() {
        let g = fig1();
        let t = uniform(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let outcomes = sweep_deviations(&g, &t, 6, 12, &mut rng).unwrap();
        assert!(!outcomes.is_empty());
        for dev in &outcomes {
            assert!(!dev.profitable(), "profitable lie found: {dev:?}");
            assert!(dev.regret() >= 0);
        }
    }

    #[test]
    fn random_graph_sweep_has_no_profitable_deviation() {
        let mut rng = StdRng::seed_from_u64(11);
        let costs = random_costs(10, 0, 8, &mut rng);
        let g = erdos_renyi(costs, 0.35, &mut rng);
        let t = TrafficMatrix::random(g.node_count(), 1, 5, &mut rng);
        let outcomes = sweep_deviations(&g, &t, 4, 10, &mut rng).unwrap();
        for dev in &outcomes {
            assert!(!dev.profitable(), "profitable lie found: {dev:?}");
        }
    }

    #[test]
    fn deviation_to_truth_is_skipped_by_sweep() {
        let g = fig1();
        let t = uniform(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let outcomes = sweep_deviations(&g, &t, 0, 12, &mut rng).unwrap();
        for dev in &outcomes {
            assert_ne!(dev.deviant.declared, g.cost(dev.agent));
        }
    }

    #[test]
    fn truth_minimizes_total_cost() {
        // V(c) is minimized by truthful declarations: any unilateral lie
        // can only keep or raise the true social cost.
        let g = fig1();
        let t = uniform(&g);
        for k in g.nodes() {
            for lie in [0u64, 1, 4, 8, 20] {
                if Cost::new(lie) == g.cost(k) {
                    continue;
                }
                let eff = efficiency_loss(&g, k, Cost::new(lie), &t).unwrap();
                assert!(
                    eff.deviant_total_cost >= eff.truthful_total_cost,
                    "{k} declaring {lie}: {eff:?}"
                );
            }
        }
    }

    #[test]
    fn understatement_inflicts_measurable_loss() {
        // A's true cost is 5; declaring 0 pulls X<->Z traffic onto the
        // genuinely more expensive X A Z path.
        let g = fig1();
        let t = uniform(&g);
        let eff = efficiency_loss(&g, Fig1::A, Cost::ZERO, &t).unwrap();
        assert!(eff.loss() > 0, "{eff:?}");
    }

    #[test]
    fn truthful_profile_has_zero_loss_against_itself() {
        let g = fig1();
        let t = uniform(&g);
        let eff = efficiency_loss(&g, Fig1::D, g.cost(Fig1::D), &t).unwrap();
        assert_eq!(eff.loss(), 0);
    }

    #[test]
    fn utility_can_be_negative_under_lies() {
        // Understating so hard you carry traffic below cost: utility < 0 is
        // possible (and is the deterrent).
        let g = fig1();
        let t = uniform(&g);
        let view = evaluate(&g, Fig1::A, Cost::ZERO, &t).unwrap();
        // A (true cost 5) now carries packets with prices computed from its
        // declared 0 → utility must be strictly less than truthful.
        let truthful = evaluate(&g, Fig1::A, Cost::new(5), &t).unwrap();
        assert!(view.utility < truthful.utility);
    }
}
