//! Property tests for the deterministic route order and the routing
//! algorithms built on it. The order's totality and monotonicity are what
//! let Dijkstra, the Bellman–Ford fixpoint, and the distributed protocol
//! agree on selected routes — the precondition of every exact-equality test
//! in the workspace.

use bgpvcg_lcp::avoiding::avoiding_tree;
use bgpvcg_lcp::{bellman, shortest_tree, CostModel, DestinationTree, Route};
use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary routes (not necessarily realizable in a graph — the order is
/// defined on the data alone).
fn route_strategy() -> impl Strategy<Value = Route> {
    (proptest::collection::vec(0u32..40, 1..8), 0u64..1000).prop_map(|(mut raw, cost)| {
        raw.dedup();
        // Ensure simple path (unique nodes) by disambiguating repeats.
        let mut seen = std::collections::BTreeSet::new();
        let nodes: Vec<AsId> = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let mut v = r;
                while !seen.insert(v) {
                    v = v.wrapping_add(41 + i as u32);
                }
                AsId::new(v)
            })
            .collect();
        Route::from_parts(nodes, Cost::new(cost))
    })
}

fn graph_from(n: usize, density: f64, seed: u64) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = random_costs(n, 0, 9, &mut rng);
    erdos_renyi(costs, density, &mut rng)
}

/// Per-neighbour receive costs on a graph's topology: transit `t` charges
/// its node cost plus a surcharge that depends on who hands the packet
/// over, so trees differ from the node-cost ones.
struct PerNeighbour(AsGraph);

impl CostModel for PerNeighbour {
    fn topology(&self) -> &AsGraph {
        &self.0
    }

    fn transit_cost(&self, transit: AsId, from: AsId) -> Cost {
        let surcharge = (u64::from(transit.raw()) * 7 + u64::from(from.raw()) * 3) % 5;
        self.0.cost(transit) + Cost::new(surcharge)
    }
}

/// Every reachable node's entry in `tree` is a walk up the parent array:
/// a simple, linked path ending at the destination, whose route is the node
/// followed by its parent's route, with the cost and hop count the path
/// implies, and which never touches `avoid`. Unreachable nodes have no
/// path, route, parent or finite cost.
fn check_tree<C: CostModel>(
    graph: &C,
    tree: &DestinationTree,
    avoid: Option<AsId>,
) -> Result<(), TestCaseError> {
    let topology = graph.topology();
    let j = tree.destination();
    for i in topology.nodes() {
        let path: Vec<AsId> = tree.path(i).collect();
        let Some(hops) = tree.hops(i) else {
            prop_assert!(path.is_empty(), "{} unreachable but has a path", i);
            prop_assert_eq!(tree.route(i), None);
            prop_assert_eq!(tree.parent(i), None);
            prop_assert_eq!(tree.cost(i), Cost::INFINITE);
            continue;
        };
        prop_assert_eq!(path.first(), Some(&i));
        prop_assert_eq!(path.last(), Some(&j));
        prop_assert_eq!(hops, path.len() - 1, "hops of {}", i);
        let mut seen = std::collections::BTreeSet::new();
        prop_assert!(path.iter().all(|&v| seen.insert(v)), "{} walks a loop", i);
        for w in path.windows(2) {
            prop_assert!(
                topology.has_link(w[0], w[1]),
                "{} and {} unlinked",
                w[0],
                w[1]
            );
        }
        if let Some(k) = avoid {
            prop_assert!(!path.contains(&k), "{}'s route passes avoided {}", i, k);
        }
        let recomputed: Cost = path
            .windows(3)
            .map(|w| graph.transit_cost(w[1], w[0]))
            .sum();
        prop_assert_eq!(tree.cost(i), recomputed, "cost of {}", i);
        let route = tree.route(i).expect("reachable");
        prop_assert_eq!(route.nodes(), path.as_slice());
        prop_assert_eq!(route.transit_cost(), recomputed);
        if i == j {
            prop_assert_eq!(tree.parent(i), None);
        } else {
            let parent = tree.parent(i).expect("a routed node has a parent");
            let up = tree.route(parent).expect("a parent is reachable");
            prop_assert_eq!(&route.nodes()[1..], up.nodes());
        }
    }
    if let Some(k) = avoid {
        prop_assert_eq!(tree.hops(k), None, "avoided {} is routed", k);
    }
    Ok(())
}

/// [`check_tree`] over every destination's shortest tree and every
/// `(destination, avoided)` pair's avoiding tree.
fn check_all_trees<C: CostModel>(graph: &C) -> Result<(), TestCaseError> {
    for j in graph.topology().nodes() {
        check_tree(graph, &shortest_tree(graph, j), None)?;
        for k in graph.topology().nodes().filter(|&k| k != j) {
            check_tree(graph, &avoiding_tree(graph, j, k), Some(k))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tree invariant of Sect. 6, under both cost models: every
    /// selected route and every avoiding route is its node followed by its
    /// parent's route.
    #[test]
    fn trees_are_parent_walks(
        n in 5usize..16,
        density in 0.15f64..0.8,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        check_all_trees(&g)?;
        check_all_trees(&PerNeighbour(g))?;
    }

    /// The order is total and antisymmetric: exactly one of <, ==, > holds,
    /// and equality only for identical routes.
    #[test]
    fn order_is_total_and_antisymmetric(a in route_strategy(), b in route_strategy()) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(&a, &b),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
    }

    /// Transitivity (sorting sanity): sorting three routes twice gives the
    /// same result as sorting once.
    #[test]
    fn order_sorts_consistently(
        a in route_strategy(),
        b in route_strategy(),
        c in route_strategy(),
    ) {
        let mut v1 = vec![a.clone(), b.clone(), c.clone()];
        v1.sort();
        let mut v2 = vec![c, a, b];
        v2.sort();
        prop_assert_eq!(v1, v2);
    }

    /// Monotonicity under extension: prepending the same head with the same
    /// added cost preserves strict order between two routes from the same
    /// source.
    #[test]
    fn order_monotone_under_extension(
        a in route_strategy(),
        b in route_strategy(),
        head in 100u32..200,
        added in 0u64..50,
    ) {
        let head = AsId::new(head + 1000); // disjoint from route nodes
        prop_assume!(!a.contains(head) && !b.contains(head));
        prop_assume!(a < b);
        // Only comparable when both routes have >1 node or both trivial
        // (the trivial route's extension adds no cost); align by skipping
        // mixed cases.
        prop_assume!((a.nodes().len() == 1) == (b.nodes().len() == 1));
        let ea = a.extend(head, Cost::new(added));
        let eb = b.extend(head, Cost::new(added));
        prop_assert!(ea < eb, "{ea} vs {eb}");
    }

    /// Dijkstra and the synchronous Bellman–Ford fixpoint select identical
    /// trees on arbitrary graphs — the static heart of Theorem 2's
    /// "distributed equals centralized".
    #[test]
    fn dijkstra_equals_bellman(
        n in 5usize..16,
        density in 0.15f64..0.8,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        for j in g.nodes() {
            prop_assert_eq!(shortest_tree(&g, j), bellman::fixpoint(&g, j).tree, "dest {}", j);
        }
    }

    /// Suffix optimality: every suffix of a selected route is itself the
    /// selected route of its source (the tree property of Sect. 6).
    #[test]
    fn selected_routes_have_optimal_suffixes(
        n in 5usize..16,
        density in 0.15f64..0.8,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        for j in g.nodes() {
            let tree = shortest_tree(&g, j);
            for i in g.nodes() {
                let Some(route) = tree.route(i) else { continue };
                for (at, &s) in route.nodes().iter().enumerate() {
                    let suffix = Route::from_nodes(&g, route.nodes()[at..].to_vec());
                    prop_assert_eq!(tree.route(s), Some(suffix), "suffix from {}", s);
                }
            }
        }
    }

    /// Stage counts of the fixpoint equal the depth of the final tree.
    #[test]
    fn fixpoint_stages_equal_tree_depth(
        n in 5usize..16,
        density in 0.15f64..0.8,
        seed in 0u64..u64::MAX,
    ) {
        let g = graph_from(n, density, seed);
        for j in g.nodes() {
            let fix = bellman::fixpoint(&g, j);
            let depth = g
                .nodes()
                .filter_map(|i| fix.tree.hops(i))
                .max()
                .unwrap_or(0);
            prop_assert_eq!(fix.stages, depth, "dest {}", j);
        }
    }
}
