//! Payment accounting (paper, Sect. 6.4).
//!
//! Once prices have converged, revenue collection is mechanical: every
//! packet from `i` to `j` increments, at each transit node `k` of the
//! selected route, a running tally by `p^k_ij`. The total payment to `k` is
//! `p_k = Σ_ij T_ij · p^k_ij`; totals are submitted to the clearing system
//! out of band ("at various intervals" — the paper assumes this traffic is
//! negligible, and so does this module).

use crate::errors::MechanismError;
use crate::outcome::RoutingOutcome;
use crate::pricing_node::PricingBgpNode;
use bgpvcg_bgp::forwarding::{self, ForwardingError};
use bgpvcg_bgp::RouteSelector;
use bgpvcg_netgraph::{AsId, Cost, TrafficMatrix};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-node payment tallies accumulated from routed traffic.
///
/// # Example
///
/// ```
/// use bgpvcg_core::{accounting::PaymentLedger, vcg};
/// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
/// use bgpvcg_netgraph::TrafficMatrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = fig1();
/// let outcome = vcg::compute(&g)?;
/// // One packet from X to Z: D is owed 3, B is owed 4, A nothing.
/// let mut t = TrafficMatrix::zero(g.node_count());
/// t.set(Fig1::X, Fig1::Z, 1);
/// let ledger = PaymentLedger::settle(&outcome, &t)?;
/// assert_eq!(ledger.payment(Fig1::D), 3);
/// assert_eq!(ledger.payment(Fig1::B), 4);
/// assert_eq!(ledger.payment(Fig1::A), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaymentLedger {
    /// Total payment owed to each node, indexed by `AsId::index`.
    payments: Vec<u128>,
    /// Total true transit volume handled by each node (packets carried).
    packets_carried: Vec<u128>,
}

impl PaymentLedger {
    /// Settles the whole traffic matrix against converged prices by
    /// simulating the per-packet counters of Sect. 6.4.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::UnroutedPair`] if traffic is demanded for a
    /// pair no selected route serves, and [`MechanismError::MissingPrice`]
    /// if some price on a demanded route has not converged (is infinite).
    ///
    /// # Panics
    ///
    /// Panics if the matrix covers a different node count than the outcome.
    pub fn settle(
        outcome: &RoutingOutcome,
        traffic: &TrafficMatrix,
    ) -> Result<Self, MechanismError> {
        assert_eq!(
            outcome.node_count(),
            traffic.node_count(),
            "matrix and outcome must cover the same ASs"
        );
        let mut ledger = PaymentLedger {
            payments: vec![0; outcome.node_count()],
            packets_carried: vec![0; outcome.node_count()],
        };
        for (i, j, packets) in traffic.flows() {
            let pair = outcome.pair(i, j).ok_or(MechanismError::UnroutedPair {
                source: i,
                destination: j,
            })?;
            for (k, price) in pair.prices() {
                let per_packet = price.finite().ok_or(MechanismError::MissingPrice {
                    source: i,
                    destination: j,
                    transit: k,
                })?;
                ledger.payments[k.index()] += u128::from(per_packet) * u128::from(packets);
                ledger.packets_carried[k.index()] += u128::from(packets);
            }
        }
        Ok(ledger)
    }

    /// Settles traffic **using only distributed node state**, the way the
    /// paper's Sect. 6.4 actually deploys: the *source* of every packet
    /// holds the full price vector for its route, so tallies accumulate at
    /// sources ("each node i keep\[s\] running tallies of owed charges") and
    /// are submitted to the clearing system out of band. Each flow's packet
    /// is additionally forwarded hop-by-hop across the converged tables, so
    /// settlement only succeeds if the data plane really delivers along the
    /// priced route.
    ///
    /// The result is identical to [`PaymentLedger::settle`] on the
    /// extracted outcome — asserted in the tests — but it exercises the
    /// distributed code path end to end.
    ///
    /// # Example
    ///
    /// ```
    /// use bgpvcg_core::{accounting::PaymentLedger, protocol};
    /// use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    /// use bgpvcg_netgraph::TrafficMatrix;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = fig1();
    /// let mut engine = protocol::build_sync_engine(&g)?;
    /// engine.run_to_convergence();
    /// let nodes = engine.into_nodes();
    /// let mut t = TrafficMatrix::zero(g.node_count());
    /// t.set(Fig1::Y, Fig1::Z, 1);
    /// let ledger = PaymentLedger::settle_from_nodes(&nodes, &t)?;
    /// assert_eq!(ledger.payment(Fig1::D), 9); // the paper's overcharged packet
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::Forwarding`] if some demanded flow cannot
    /// be delivered (no route, loop, unknown hop) or if the forwarding path
    /// diverges from the source's priced route, and
    /// [`MechanismError::MissingPrice`] if a price on a demanded route has
    /// not converged.
    ///
    /// # Panics
    ///
    /// Panics if node count and matrix disagree.
    pub fn settle_from_nodes(
        nodes: &[PricingBgpNode],
        traffic: &TrafficMatrix,
    ) -> Result<Self, MechanismError> {
        assert_eq!(nodes.len(), traffic.node_count(), "one node per AS");
        let selectors: Vec<&RouteSelector> = nodes.iter().map(PricingBgpNode::selector).collect();
        let mut ledger = PaymentLedger {
            payments: vec![0; nodes.len()],
            packets_carried: vec![0; nodes.len()],
        };
        for (i, j, packets) in traffic.flows() {
            let delivered = forwarding::forward_packet(&selectors, i, j)?;
            let source = &nodes[i.index()];
            let route = source.selector().route(j).ok_or(ForwardingError::NoRoute {
                at: i,
                destination: j,
            })?;
            // Data plane must match the priced control-plane route.
            if delivered != route.nodes() {
                return Err(ForwardingError::NoRoute {
                    at: i,
                    destination: j,
                }
                .into());
            }
            for &k in route.transit_nodes() {
                let price = source.price(j, k).and_then(Cost::finite).ok_or(
                    MechanismError::MissingPrice {
                        source: i,
                        destination: j,
                        transit: k,
                    },
                )?;
                ledger.payments[k.index()] += u128::from(price) * u128::from(packets);
                ledger.packets_carried[k.index()] += u128::from(packets);
            }
        }
        Ok(ledger)
    }

    /// The total payment `p_k` owed to node `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn payment(&self, k: AsId) -> u128 {
        self.payments[k.index()]
    }

    /// Total transit packets node `k` carried.
    pub fn packets_carried(&self, k: AsId) -> u128 {
        self.packets_carried[k.index()]
    }

    /// The true cost node `k` incurred (`u_k(c) = c_k · packets carried`),
    /// given its *true* per-packet cost.
    pub fn incurred_cost(&self, k: AsId, true_cost: Cost) -> u128 {
        u128::from(true_cost.finite().expect("true costs are finite")) // lint:allow(caller passes a node's declared cost, finite by AsGraph construction)
            * self.packets_carried[k.index()]
    }

    /// Node `k`'s welfare `τ_k = p_k − u_k(c)`: payment minus incurred cost.
    /// Non-negative for truthful nodes (the mechanism pays at least cost).
    pub fn welfare(&self, k: AsId, true_cost: Cost) -> i128 {
        self.payment(k) as i128 - self.incurred_cost(k, true_cost) as i128
    }

    /// Sum of payments over all nodes — the mechanism's total disbursement.
    pub fn total_payments(&self) -> u128 {
        self.payments.iter().sum()
    }

    /// Number of ASs covered.
    pub fn node_count(&self) -> usize {
        self.payments.len()
    }
}

impl fmt::Display for PaymentLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PaymentLedger:")?;
        for (idx, (p, carried)) in self.payments.iter().zip(&self.packets_carried).enumerate() {
            writeln!(
                f,
                "  {}: paid {p} for {carried} transit packets",
                AsId::new(idx as u32)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcg;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_packet_example() {
        let g = fig1();
        let outcome = vcg::compute(&g).unwrap();
        let mut t = TrafficMatrix::zero(6);
        t.set(Fig1::Y, Fig1::Z, 1);
        let ledger = PaymentLedger::settle(&outcome, &t).unwrap();
        assert_eq!(ledger.payment(Fig1::D), 9);
        assert_eq!(ledger.packets_carried(Fig1::D), 1);
        assert_eq!(ledger.total_payments(), 9);
        assert_eq!(ledger.incurred_cost(Fig1::D, g.cost(Fig1::D)), 1);
        assert_eq!(ledger.welfare(Fig1::D, g.cost(Fig1::D)), 8);
    }

    #[test]
    fn payments_scale_linearly_with_traffic() {
        // Theorem 1: payments are per-packet prices summed over the matrix,
        // so doubling every demand doubles every payment.
        let g = fig1();
        let outcome = vcg::compute(&g).unwrap();
        let t1 = TrafficMatrix::uniform(6, 1);
        let t2 = TrafficMatrix::uniform(6, 2);
        let l1 = PaymentLedger::settle(&outcome, &t1).unwrap();
        let l2 = PaymentLedger::settle(&outcome, &t2).unwrap();
        for k in g.nodes() {
            assert_eq!(l2.payment(k), 2 * l1.payment(k));
        }
    }

    #[test]
    fn zero_traffic_means_zero_payments() {
        let g = fig1();
        let outcome = vcg::compute(&g).unwrap();
        let ledger = PaymentLedger::settle(&outcome, &TrafficMatrix::zero(6)).unwrap();
        assert_eq!(ledger.total_payments(), 0);
        for k in g.nodes() {
            assert_eq!(ledger.payment(k), 0);
            assert_eq!(ledger.packets_carried(k), 0);
        }
    }

    #[test]
    fn nodes_carrying_no_transit_get_nothing() {
        // The defining normalization of Theorem 1.
        let mut rng = StdRng::seed_from_u64(3);
        let costs = random_costs(12, 1, 8, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let outcome = vcg::compute(&g).unwrap();
        let t = TrafficMatrix::uniform(g.node_count(), 1);
        let ledger = PaymentLedger::settle(&outcome, &t).unwrap();
        for k in g.nodes() {
            if ledger.packets_carried(k) == 0 {
                assert_eq!(ledger.payment(k), 0);
            }
        }
    }

    #[test]
    fn welfare_is_nonnegative_under_truth() {
        // p^k ≥ c_k per packet, so payment ≥ incurred cost.
        let mut rng = StdRng::seed_from_u64(4);
        let costs = random_costs(12, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let outcome = vcg::compute(&g).unwrap();
        let t = TrafficMatrix::uniform(g.node_count(), 3);
        let ledger = PaymentLedger::settle(&outcome, &t).unwrap();
        for k in g.nodes() {
            assert!(ledger.welfare(k, g.cost(k)) >= 0, "{k}");
        }
    }

    #[test]
    #[should_panic(expected = "same ASs")]
    fn settle_rejects_mismatched_sizes() {
        let g = fig1();
        let outcome = vcg::compute(&g).unwrap();
        let _ = PaymentLedger::settle(&outcome, &TrafficMatrix::zero(4));
    }

    #[test]
    fn distributed_settlement_matches_closed_form() {
        let g = fig1();
        let run = crate::protocol::run_sync(&g).unwrap();
        let nodes = {
            let mut engine = crate::protocol::build_sync_engine(&g).unwrap();
            engine.run_to_convergence();
            engine.into_nodes()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let traffic = TrafficMatrix::random(6, 0, 4, &mut rng);
        let distributed = PaymentLedger::settle_from_nodes(&nodes, &traffic).unwrap();
        let closed_form = PaymentLedger::settle(&run.outcome, &traffic).unwrap();
        assert_eq!(distributed, closed_form);
    }

    #[test]
    fn distributed_settlement_fails_before_convergence() {
        let g = fig1();
        let nodes = crate::pricing_node::PricingBgpNode::from_graph(&g);
        let mut t = TrafficMatrix::zero(6);
        t.set(Fig1::X, Fig1::Z, 1);
        assert!(PaymentLedger::settle_from_nodes(&nodes, &t).is_err());
    }
}
