//! Property-based tests (proptest) for the mechanism's core invariants.
//!
//! Random biconnected graphs are generated from a `(size, density, seed)`
//! triple so failures shrink to small, reproducible instances.

use bgp_vcg::core::accounting::PaymentLedger;
use bgp_vcg::core::audit;
use bgp_vcg::core::neighbor_costs;
use bgp_vcg::core::overcharge::OverchargeReport;
use bgp_vcg::core::strategy;
use bgp_vcg::lcp::avoiding::{avoiding_tree, AvoidanceTable};
use bgp_vcg::lcp::{diameter, shortest_tree, AllPairsLcp, Route};
use bgp_vcg::netgraph::generators::{erdos_renyi, random_costs};
use bgp_vcg::{protocol, vcg, AsGraph, AsId, Cost, TrafficMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random biconnected graph with costs in `[0, max_cost]`.
fn graph_from(n: usize, density: f64, max_cost: u64, seed: u64) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = random_costs(n, 0, max_cost, &mut rng);
    erdos_renyi(costs, density, &mut rng)
}

/// A proptest strategy over graph parameters: small enough to run many
/// cases, varied enough to hit ties, zero costs, and sparse/dense regimes.
fn graph_params() -> impl Strategy<Value = (usize, f64, u64, u64)> {
    (6usize..14, 0.15f64..0.7, 0u64..12, 0u64..u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 2: the distributed protocol's output equals the centralized
    /// Theorem-1 prices exactly, on arbitrary graphs.
    #[test]
    fn protocol_equals_vcg((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        let run = protocol::run_sync(&g).expect("generated graphs are valid");
        prop_assert!(run.report.converged);
        prop_assert_eq!(run.outcome, vcg::compute(&g).unwrap());
    }

    /// Corollary 1: convergence within max(d, d') synchronous stages.
    #[test]
    fn convergence_bound_holds((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        let lcp = AllPairsLcp::compute(&g);
        let bound = diameter::convergence_bound(&g, &lcp);
        let run = protocol::run_sync(&g).unwrap();
        prop_assert!(
            run.report.stages <= bound,
            "{} stages > max(d, d') = {}", run.report.stages, bound
        );
    }

    /// Theorem 1 (individual rationality): on-path prices are at least the
    /// declared cost; off-path nodes have no price.
    #[test]
    fn prices_cover_costs((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        let outcome = vcg::compute(&g).unwrap();
        for (_, _, pair) in outcome.pairs() {
            for (k, p) in pair.prices() {
                prop_assert!(p >= g.cost(k));
                prop_assert!(pair.transit_nodes().contains(&k));
            }
        }
    }

    /// Theorem 1 (strategyproofness): a random unilateral lie never
    /// strictly increases utility.
    #[test]
    fn no_profitable_lie(
        (n, density, max_cost, seed) in graph_params(),
        agent_pick in 0usize..64,
        lie in 0u64..25,
    ) {
        let g = graph_from(n, density, max_cost, seed);
        let k = AsId::new((agent_pick % n) as u32);
        prop_assume!(Cost::new(lie) != g.cost(k));
        let traffic = TrafficMatrix::uniform(n, 1);
        let dev = strategy::deviate(&g, k, Cost::new(lie), &traffic).unwrap();
        prop_assert!(
            !dev.profitable(),
            "agent {} profits from declaring {} (truth {}): {:?}",
            k, lie, g.cost(k), dev
        );
    }

    /// The normalization that makes the mechanism unique: zero payment to
    /// nodes carrying no transit traffic.
    #[test]
    fn zero_payment_without_transit((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        let outcome = vcg::compute(&g).unwrap();
        let ledger = PaymentLedger::settle(&outcome, &TrafficMatrix::uniform(n, 2)).unwrap();
        for k in g.nodes() {
            if ledger.packets_carried(k) == 0 {
                prop_assert_eq!(ledger.payment(k), 0);
            }
        }
    }

    /// Sect. 7: total payments dominate true path costs on every pair.
    #[test]
    fn payments_dominate((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        let outcome = vcg::compute(&g).unwrap();
        let report = OverchargeReport::analyze(&outcome);
        prop_assert!(report.payments_dominate_costs());
    }

    /// Payments are linear in the traffic matrix (prices are per-packet and
    /// traffic-independent — the surprising part of Theorem 1).
    #[test]
    fn payments_linear_in_traffic(
        (n, density, max_cost, seed) in graph_params(),
        scale in 1u64..5,
    ) {
        let g = graph_from(n, density, max_cost, seed);
        let outcome = vcg::compute(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let base = TrafficMatrix::random(n, 0, 6, &mut rng);
        let mut scaled = TrafficMatrix::zero(n);
        for (i, j, t) in base.flows() {
            scaled.set(i, j, t * scale);
        }
        let l1 = PaymentLedger::settle(&outcome, &base).unwrap();
        let l2 = PaymentLedger::settle(&outcome, &scaled).unwrap();
        for k in g.nodes() {
            prop_assert_eq!(l2.payment(k), l1.payment(k) * u128::from(scale));
        }
    }

    /// Sect. 6.2's structural fact: every suffix of a lowest-cost
    /// k-avoiding path is itself either the LCP from that node or its
    /// lowest-cost k-avoiding path — the invariant behind Lemma 2.
    #[test]
    fn avoiding_path_suffix_property((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        for j in g.nodes() {
            let plain = shortest_tree(&g, j);
            for k in g.nodes() {
                if k == j {
                    continue;
                }
                let avoid = avoiding_tree(&g, j, k);
                for i in g.nodes() {
                    if i == j {
                        continue;
                    }
                    let Some(route) = avoid.route(i) else { continue };
                    let nodes = route.nodes();
                    for (at, &s) in nodes.iter().enumerate().take(nodes.len() - 1).skip(1) {
                        let suffix = Route::from_nodes(&g, nodes[at..].to_vec());
                        let suffix_cost = suffix.transit_cost();
                        let is_lcp_cost = plain.cost(s) == suffix_cost;
                        let is_avoid_cost = avoid.cost(s) == suffix_cost;
                        prop_assert!(
                            is_lcp_cost || is_avoid_cost,
                            "suffix of P_-k from {s} is neither LCP nor k-avoiding optimal"
                        );
                    }
                }
            }
        }
    }

    /// Avoiding-path costs never beat the unrestricted LCP, and avoiding a
    /// node off the LCP leaves the cost unchanged.
    #[test]
    fn avoidance_table_consistency((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        let lcp = AllPairsLcp::compute(&g);
        let table = AvoidanceTable::compute_fast(&g, &lcp);
        for j in g.nodes() {
            for i in g.nodes().filter(|&i| i != j) {
                let transit = lcp.route(i, j).unwrap().transit_nodes().len();
                prop_assert_eq!(table.entries(i, j).len(), transit);
            }
            for k in g.nodes().filter(|&k| k != j) {
                let avoid = avoiding_tree(&g, j, k);
                for i in g.nodes().filter(|&i| i != j && i != k) {
                    let route = lcp.route(i, j).unwrap();
                    match route.transit_nodes().iter().position(|&t| t == k) {
                        Some(slot) => {
                            let entry = table.entries(i, j)[slot];
                            prop_assert!(entry.cost >= route.transit_cost());
                            prop_assert_eq!(entry.cost, avoid.cost(i));
                        }
                        None => prop_assert_eq!(avoid.cost(i), route.transit_cost()),
                    }
                }
            }
        }
    }

    /// The Sect. 3 extension: with random per-link receive costs, the
    /// distributed margin protocol equals the centralized generalized
    /// mechanism exactly.
    #[test]
    fn nc_distributed_equals_centralized((n, density, max_cost, seed) in graph_params()) {
        let base = graph_from(n, density, max_cost, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let mut g = neighbor_costs::NeighborCostGraph::uniform(&base);
        for k in base.nodes() {
            for &a in base.neighbors(k) {
                g = g
                    .with_recv_cost(k, a, Cost::new(rng.gen_range(0..=max_cost)))
                    .unwrap();
            }
        }
        let (distributed, report) = neighbor_costs::run_nc_sync(&g).unwrap();
        prop_assert!(report.converged);
        prop_assert_eq!(distributed, neighbor_costs::compute(&g).unwrap());
    }

    /// Sect. 7's audit: every honest converged network passes with zero
    /// findings.
    #[test]
    fn honest_networks_pass_audit((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        let mut engine = protocol::build_sync_engine(&g).unwrap();
        prop_assert!(engine.run_to_convergence().converged);
        let nodes = engine.into_nodes();
        prop_assert!(audit::audit_network(&g, &nodes).is_empty());
    }

    /// The total-cost objective V(c) is minimized by the selected routes:
    /// no single route swap to a neighbor-advertised alternative lowers it
    /// (spot-check of LCP optimality through the public API).
    #[test]
    fn selected_routes_minimize_pair_costs((n, density, max_cost, seed) in graph_params()) {
        let g = graph_from(n, density, max_cost, seed);
        let lcp = AllPairsLcp::compute(&g);
        for j in g.nodes() {
            let tree = lcp.tree(j);
            for i in g.nodes() {
                if i == j {
                    continue;
                }
                // Any one-hop deviation through a neighbor cannot be cheaper.
                for &a in g.neighbors(i) {
                    if a == j {
                        // Adjacent to the destination: the direct link is
                        // free, so the selected cost must be zero.
                        prop_assert_eq!(tree.cost(i), Cost::ZERO);
                        continue;
                    }
                    let via = tree.cost(a) + g.cost(a);
                    prop_assert!(
                        tree.cost(i) <= via,
                        "{i}->{j}: selected {} beats via {a} = {via}", tree.cost(i)
                    );
                }
            }
        }
    }
}
