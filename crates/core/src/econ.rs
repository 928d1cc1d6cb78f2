//! Per-stage economic attribution: overpayment premiums and welfare.
//!
//! The mechanism pays each transit node `k` on the `i → j` lowest-cost
//! path the VCG price `p^k_{ij} ≥ c_k` (Theorem 1). The difference
//! `p^k_{ij} − c_k` is node `k`'s *overpayment premium* on that flow, and
//! under the uniform one-packet-per-pair traffic matrix the per-AS sum of
//! premiums equals the node's settled ledger welfare
//! `τ_k = payment − incurred cost` ([`crate::accounting`]) — the identity
//! `e18_overcharge_vs_diversity` asserts.
//!
//! [`premiums`] computes these premiums from live node state. Called from
//! the closure of
//! [`run_to_convergence_traced`](bgpvcg_bgp::engine::Engine::run_to_convergence_traced)
//! it samples them after every executed stage — the convergence trajectory
//! of the economy, not just its fixpoint.

use crate::pricing_node::PricingBgpNode;
use bgpvcg_bgp::ProtocolNode;
use bgpvcg_netgraph::Cost;

/// The premium vector at a point in time: for each AS `k`, the sum over
/// all source/destination pairs whose currently-selected route transits
/// `k` of `p^k_{ij} − c_k` (pairs whose price entry is still infinite —
/// not yet relaxed — contribute nothing). At the fixpoint under uniform
/// 1-packet-per-pair traffic this equals the settled ledger welfare
/// `τ_k`.
pub fn premiums(true_costs: &[Cost], nodes: &[PricingBgpNode]) -> Vec<u64> {
    let mut premium = vec![0u64; true_costs.len()];
    for node in nodes {
        let i = node.id();
        for j in node.selector().destinations().collect::<Vec<_>>() {
            if j == i {
                continue;
            }
            let Some(route) = node.selector().route(j) else {
                continue;
            };
            for &k in route.transit_nodes() {
                let Some(price) = node.price(j, k) else {
                    continue;
                };
                if let (Some(p), Some(c)) = (price.finite(), true_costs[k.index()].finite()) {
                    premium[k.index()] += p.saturating_sub(c);
                }
            }
        }
    }
    premium
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::PaymentLedger;
    use crate::protocol;
    use bgpvcg_netgraph::generators::structured::{fig1, petersen};
    use bgpvcg_netgraph::{AsGraph, AsId, TrafficMatrix};

    /// Runs the protocol on `g`, sampling `(stage, premiums)` after every
    /// stage, and returns the samples with the converged nodes.
    fn sampled_run(g: &AsGraph) -> (Vec<(usize, Vec<u64>)>, Vec<PricingBgpNode>) {
        let mut engine = protocol::build_sync_engine(g).unwrap();
        let mut samples = Vec::new();
        let report = engine.run_to_convergence_traced(|t, nodes| {
            samples.push((t.stage, premiums(g.costs(), nodes)))
        });
        assert!(report.converged);
        (samples, engine.into_nodes())
    }

    fn premium_equals_settled_welfare(g: &AsGraph) {
        let (samples, nodes) = sampled_run(g);
        let finals = &samples.last().unwrap().1;
        let traffic = TrafficMatrix::uniform(g.node_count(), 1);
        let ledger = PaymentLedger::settle_from_nodes(&nodes, &traffic).unwrap();
        for k in g.nodes() {
            let welfare = ledger.welfare(k, g.cost(k));
            assert!(welfare >= 0, "truthful welfare must be non-negative");
            assert_eq!(
                i128::from(finals[k.index()]),
                welfare,
                "premium({k}) != settled welfare"
            );
        }
    }

    #[test]
    fn fig1_premiums_match_ledger() {
        premium_equals_settled_welfare(&fig1());
    }

    #[test]
    fn petersen_premiums_match_ledger() {
        premium_equals_settled_welfare(&petersen(Cost::new(3)));
    }

    #[test]
    fn premium_trajectory_is_stage_keyed_and_settles() {
        // Mid-run premiums are not monotone (routes and transit sets
        // switch while prices relax), but the trajectory must be keyed by
        // ascending execution stage and settle: the final point repeats
        // once tables stop changing, and it equals the fixpoint total.
        let g = fig1();
        let (samples, nodes) = sampled_run(&g);
        let points: Vec<(usize, u64)> = samples
            .iter()
            .map(|(stage, premiums)| (*stage, premiums.iter().sum()))
            .collect();
        assert!(points.len() >= 2);
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0));
        let settled: u64 = premiums(g.costs(), &nodes).iter().sum();
        assert_eq!(points.last().unwrap().1, settled);
        // The drain stage recomputes on final tables: same value twice.
        assert_eq!(points[points.len() - 2].1, settled);
    }

    #[test]
    fn premiums_ignore_unpriced_routes() {
        let g = fig1();
        let nodes: Vec<PricingBgpNode> = PricingBgpNode::from_graph(&g);
        // Fresh nodes have no selected routes yet: zero premium all round.
        assert!(premiums(g.costs(), &nodes).iter().all(|&p| p == 0));
        let _ = AsId::new(0);
    }
}
