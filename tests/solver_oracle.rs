//! The one centralized Theorem-1 solver against its oracles.
//!
//! The subtree-local pass (`avoiding::for_each_destination`, collected by
//! `AvoidanceTable::compute_fast`) must equal the punctured oracle
//! `AvoidanceTable::compute` — costs, hops *and* entry order — with each
//! slot's cost that of a punctured Dijkstra around the route's transit node
//! there; `vcg::compute`, which writes its prices straight from the pass,
//! must equal the outcome the oracle table gives through the per-pair
//! Theorem-1 formula; and `shortest_tree` must equal the staged fixpoint
//! and, on small graphs, exhaustive enumeration. Inputs: every experiment
//! family, zero-cost rings and complete graphs (maximal ties), costs in
//! `0..=3`, and random per-neighbour receive costs.

use bgp_vcg::core::neighbor_costs::{self, NeighborCostGraph};
use bgp_vcg::core::RoutingOutcome;
use bgp_vcg::lcp::avoiding::{avoiding_tree, AvoidanceTable};
use bgp_vcg::lcp::{bellman, enumerate, shortest_tree, AllPairsLcp, CostModel};
use bgp_vcg::netgraph::generators::structured::{complete, ring};
use bgp_vcg::{vcg, AsGraph, Cost};
use bgpvcg_bench::families::Family;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One of the five experiment families at size `n`.
fn family_graph(family: usize, n: usize, seed: u64) -> AsGraph {
    Family::ALL[family % Family::ALL.len()].build(n, seed)
}

/// A zero-cost ring or complete graph: every tie the route order has to
/// break.
fn maximal_ties(n: usize, dense: bool) -> AsGraph {
    if dense {
        complete(n, Cost::ZERO)
    } else {
        ring(n, Cost::ZERO)
    }
}

/// `base`'s topology with an independent receive cost in `[0, max_cost]`
/// per directed adjacency.
fn receive_costs(base: &AsGraph, max_cost: u64, seed: u64) -> NeighborCostGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = NeighborCostGraph::uniform(base);
    for k in base.nodes() {
        for &a in base.neighbors(k) {
            let cost = Cost::new(rng.gen_range(0..=max_cost));
            g = g.with_recv_cost(k, a, cost).expect("a is k's neighbour");
        }
    }
    g
}

/// One family graph with every declared cost redrawn from `0..=3`: zero
/// costs and many equal-cost ties.
fn small_costs(family: usize, n: usize, seed: u64) -> AsGraph {
    let base = family_graph(family, n, seed);
    let mut rng = StdRng::seed_from_u64(!seed);
    base.nodes().fold(base.clone(), |g, k| {
        g.with_cost(k, Cost::new(rng.gen_range(0..=3)))
    })
}

/// The fast table equals the oracle, and each `(i, j)` list holds one
/// entry per transit node of the route, whose cost is the punctured
/// Dijkstra's around the transit node at that slot.
fn tables_agree<C: CostModel>(graph: &C) -> Result<(), TestCaseError> {
    let lcp = AllPairsLcp::compute(graph);
    let fast = AvoidanceTable::compute_fast(graph, &lcp);
    prop_assert_eq!(&fast, &AvoidanceTable::compute(graph, &lcp));
    for tree in lcp.trees() {
        let j = tree.destination();
        for i in tree.reachable() {
            let route = tree.route(i).expect("reachable");
            let entries = fast.entries(i, j);
            prop_assert_eq!(entries.len(), route.transit_nodes().len());
            for (slot, &k) in route.transit_nodes().iter().enumerate() {
                prop_assert_eq!(entries[slot].cost, avoiding_tree(graph, j, k).cost(i));
            }
        }
    }
    Ok(())
}

/// The outcome Theorem 1 defines, assembled pair by pair from the
/// punctured oracle's table: `p^k_ij = c_k(pred) + Cost(P_{-k}) −
/// Cost(P)`, entry `m` pricing the route's node `m + 1`.
fn oracle_outcome<C: CostModel>(graph: &C) -> RoutingOutcome {
    let lcp = AllPairsLcp::compute(graph);
    let table = AvoidanceTable::compute(graph, &lcp);
    let mut outcome = RoutingOutcome::builder(graph.topology().node_count());
    for i in graph.topology().nodes() {
        for j in graph.topology().nodes().filter(|&j| j != i) {
            let route = lcp.route(i, j).expect("family graphs are connected");
            let prices: Vec<Cost> = table
                .entries(i, j)
                .iter()
                .zip(route.nodes().windows(2))
                .map(|(entry, hop)| {
                    let margin = entry.cost.checked_sub(route.transit_cost());
                    graph.transit_cost(hop[1], hop[0]) + margin.expect("biconnected")
                })
                .collect();
            let nodes = route.nodes().iter().copied();
            outcome.push(i, j, route.transit_cost(), nodes, prices);
        }
    }
    outcome.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    fn fast_table_equals_oracle_on_every_family(
        family in 0usize..5,
        n in 8usize..28,
        seed in any::<u64>(),
    ) {
        tables_agree(&family_graph(family, n, seed))?;
    }

    fn fast_table_equals_oracle_under_maximal_ties(n in 4usize..18, dense in any::<bool>()) {
        tables_agree(&maximal_ties(n, dense))?;
    }

    fn fast_table_equals_oracle_under_receive_costs(
        family in 0usize..5,
        n in 8usize..24,
        max_cost in 0u64..12,
        seed in any::<u64>(),
    ) {
        tables_agree(&receive_costs(&family_graph(family, n, seed), max_cost, !seed))?;
    }

    fn vcg_compute_equals_the_oracle_outcome(
        family in 0usize..5,
        n in 8usize..24,
        seed in any::<u64>(),
    ) {
        let g = small_costs(family, n, seed);
        prop_assert_eq!(vcg::compute(&g), Ok(oracle_outcome(&g)));
    }

    fn vcg_compute_equals_the_oracle_outcome_under_receive_costs(
        family in 0usize..5,
        n in 8usize..24,
        max_cost in 0u64..12,
        seed in any::<u64>(),
    ) {
        let g = receive_costs(&family_graph(family, n, seed), max_cost, !seed);
        prop_assert_eq!(vcg::compute(&g), Ok(oracle_outcome(&g)));
    }

    fn dijkstra_equals_fixpoint_and_brute_force(
        pick in 0usize..7,
        n in 8usize..10,
        seed in any::<u64>(),
    ) {
        // Picks 5 and 6 are the zero-cost ring and complete graph, kept at
        // n ≤ 7 so that enumerating the complete graph's paths stays cheap.
        let g = if pick < 5 { family_graph(pick, n, seed) } else { maximal_ties(n - 2, pick == 6) };
        for j in g.nodes() {
            let tree = shortest_tree(&g, j);
            prop_assert_eq!(&tree, &bellman::fixpoint(&g, j).tree);
            for i in g.nodes() {
                let brute = enumerate::brute_force_lcp(&g, i, j);
                prop_assert_eq!(tree.route(i), brute);
            }
        }
    }

    fn uniform_lift_equals_base_mechanism(
        family in 0usize..5,
        n in 8usize..24,
        seed in any::<u64>(),
    ) {
        let g = family_graph(family, n, seed);
        prop_assert_eq!(
            neighbor_costs::compute(&NeighborCostGraph::uniform(&g)),
            vcg::compute(&g)
        );
    }
}
