//! Overcharging analysis (paper, Sect. 7).
//!
//! VCG payments exceed actual path costs: for a `Y→Z` packet in the paper's
//! Fig. 1 the single transit node is paid 9 against a path cost of 1. This
//! module quantifies that premium across all pairs — the ratio
//! `Σ_k p^k_ij / c(i, j)` and the absolute surplus — which the paper leaves
//! as a (still essentially open) concern and experiment E8 reproduces.

use crate::outcome::RoutingOutcome;
use bgpvcg_netgraph::AsId;
use std::fmt;

/// The payment premium for one source–destination pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairPremium {
    /// Source.
    pub source: AsId,
    /// Destination.
    pub destination: AsId,
    /// True (declared) cost of the selected route.
    pub route_cost: u64,
    /// Total per-packet payments across the route's transit nodes.
    pub total_payment: u64,
}

impl PairPremium {
    /// The absolute surplus `payments − cost` (≥ 0).
    pub fn surplus(&self) -> u64 {
        self.total_payment - self.route_cost
    }

    /// The overcharging ratio `payments / cost`; `None` for free routes
    /// (cost zero — ratio undefined; use [`surplus`](Self::surplus)).
    pub fn ratio(&self) -> Option<f64> {
        if self.route_cost == 0 {
            None
        } else {
            Some(self.total_payment as f64 / self.route_cost as f64)
        }
    }
}

/// Aggregate overcharging statistics over all pairs of an outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct OverchargeReport {
    /// Per-pair premiums for every pair with at least one transit node.
    pub pairs: Vec<PairPremium>,
}

impl OverchargeReport {
    /// Computes premiums from a converged outcome.
    ///
    /// Pairs whose route has no transit nodes (directly linked ASs) carry
    /// no payments and are skipped.
    ///
    /// # Panics
    ///
    /// Panics if some price has not converged (is infinite).
    pub fn analyze(outcome: &RoutingOutcome) -> Self {
        let mut pairs = Vec::new();
        for (i, j, pair) in outcome.pairs() {
            if pair.transit_nodes().is_empty() {
                continue;
            }
            let route_cost = pair
                .transit_cost()
                .finite()
                .expect("selected routes have finite cost"); // lint:allow(documented # Panics contract: caller passes a converged outcome)
            let total_payment = pair
                .prices()
                .map(|(_, p)| p.finite().expect("converged prices are finite")) // lint:allow(documented # Panics contract: caller passes a converged outcome)
                .sum();
            pairs.push(PairPremium {
                source: i,
                destination: j,
                route_cost,
                total_payment,
            });
        }
        OverchargeReport { pairs }
    }

    /// The worst ratio across pairs with non-zero cost.
    pub fn max_ratio(&self) -> Option<f64> {
        self.pairs
            .iter()
            .filter_map(PairPremium::ratio)
            .max_by(|a, b| a.total_cmp(b))
    }

    /// The mean ratio across pairs with non-zero cost.
    pub fn mean_ratio(&self) -> Option<f64> {
        let ratios: Vec<f64> = self.pairs.iter().filter_map(PairPremium::ratio).collect();
        if ratios.is_empty() {
            None
        } else {
            Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
        }
    }

    /// Total payments and total true cost over all analyzed pairs — the
    /// network-wide premium under uniform traffic.
    pub fn totals(&self) -> (u64, u64) {
        let payment = self.pairs.iter().map(|p| p.total_payment).sum();
        let cost = self.pairs.iter().map(|p| p.route_cost).sum();
        (payment, cost)
    }

    /// The pair with the largest absolute surplus.
    pub fn worst_pair(&self) -> Option<&PairPremium> {
        self.pairs.iter().max_by_key(|p| p.surplus())
    }

    /// Since every per-node price satisfies `p^k ≥ c_k`, payments dominate
    /// costs pair-wise; exposed for tests and sanity checks.
    pub fn payments_dominate_costs(&self) -> bool {
        self.pairs.iter().all(|p| p.total_payment >= p.route_cost)
    }
}

impl fmt::Display for OverchargeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (payment, cost) = self.totals();
        write!(
            f,
            "{} transit pairs; total payments {payment} vs costs {cost}; max ratio {:?}",
            self.pairs.len(),
            self.max_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcg;
    use bgpvcg_netgraph::generators::structured::{fig1, wheel, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use bgpvcg_netgraph::Cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig1_y_to_z_is_the_papers_extreme_example() {
        let outcome = vcg::compute(&fig1()).unwrap();
        let report = OverchargeReport::analyze(&outcome);
        let yz = report
            .pairs
            .iter()
            .find(|p| p.source == Fig1::Y && p.destination == Fig1::Z)
            .unwrap();
        assert_eq!(yz.route_cost, 1);
        assert_eq!(yz.total_payment, 9);
        assert_eq!(yz.surplus(), 8);
        assert_eq!(yz.ratio(), Some(9.0));
    }

    #[test]
    fn fig1_x_to_z_premium() {
        // Payments 3 + 4 = 7 against cost 3.
        let outcome = vcg::compute(&fig1()).unwrap();
        let report = OverchargeReport::analyze(&outcome);
        let xz = report
            .pairs
            .iter()
            .find(|p| p.source == Fig1::X && p.destination == Fig1::Z)
            .unwrap();
        assert_eq!(xz.total_payment, 7);
        assert_eq!(xz.route_cost, 3);
    }

    #[test]
    fn payments_always_dominate_costs() {
        let mut rng = StdRng::seed_from_u64(5);
        let costs = random_costs(14, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let outcome = vcg::compute(&g).unwrap();
        let report = OverchargeReport::analyze(&outcome);
        assert!(report.payments_dominate_costs());
        if let Some(r) = report.max_ratio() {
            assert!(r >= 1.0);
        }
    }

    #[test]
    fn wheel_hub_premium_is_extreme() {
        // Free hub, expensive rim: every hub price carries the full rim
        // detour, so surplus is large while route cost is zero.
        let g = wheel(8, Cost::ZERO, Cost::new(10));
        let outcome = vcg::compute(&g).unwrap();
        let report = OverchargeReport::analyze(&outcome);
        let worst = report.worst_pair().unwrap();
        assert_eq!(worst.route_cost, 0, "hub routes are free");
        assert!(worst.surplus() >= 10, "hub extracts at least one rim hop");
        assert_eq!(worst.ratio(), None, "ratio undefined at zero cost");
    }

    #[test]
    fn mean_ratio_between_one_and_max() {
        let outcome = vcg::compute(&fig1()).unwrap();
        let report = OverchargeReport::analyze(&outcome);
        let mean = report.mean_ratio().unwrap();
        let max = report.max_ratio().unwrap();
        assert!(mean >= 1.0);
        assert!(mean <= max);
    }

    #[test]
    fn direct_links_are_skipped() {
        let outcome = vcg::compute(&fig1()).unwrap();
        let report = OverchargeReport::analyze(&outcome);
        for p in &report.pairs {
            assert!(
                p.total_payment > 0 || p.route_cost == 0,
                "transit pairs only"
            );
        }
        // X–B are adjacent: no premium entry.
        assert!(!report
            .pairs
            .iter()
            .any(|p| p.source == Fig1::X && p.destination == Fig1::B));
    }
}
