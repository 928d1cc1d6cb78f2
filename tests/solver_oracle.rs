//! The one centralized Theorem-1 solver against its oracles.
//!
//! `AvoidanceTable::compute_fast` (subtree-local) must equal the punctured
//! oracle `AvoidanceTable::compute` — costs, hops *and* entry order — and
//! `shortest_tree` must equal the staged fixpoint and, on small graphs,
//! exhaustive enumeration. Inputs: every experiment family, zero-cost
//! rings and complete graphs (maximal ties), and random per-neighbour
//! receive costs.

use bgp_vcg::core::neighbor_costs::{self, NeighborCostGraph};
use bgp_vcg::lcp::avoiding::AvoidanceTable;
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

/// The fast table equals the oracle, and each `(i, j)` list names the
/// route's transit nodes in path order.
fn tables_agree<C: CostModel>(graph: &C) -> Result<(), TestCaseError> {
    let lcp = AllPairsLcp::compute(graph);
    let fast = AvoidanceTable::compute_fast(graph, &lcp);
    prop_assert_eq!(&fast, &AvoidanceTable::compute(graph, &lcp));
    for tree in lcp.trees() {
        for i in tree.reachable() {
            let route = tree.route(i).expect("reachable");
            let avoided: Vec<_> = fast
                .entries(i, tree.destination())
                .iter()
                .map(|e| e.avoided)
                .collect();
            prop_assert_eq!(avoided.as_slice(), route.transit_nodes());
        }
    }
    Ok(())
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
