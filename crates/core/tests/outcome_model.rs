//! The flat `RoutingOutcome` table against a plain model: one
//! `Option<(nodes, transit cost, prices)>` per cell, row-major.
//!
//! Seeded random tables go through both; every accessor, `Display` and
//! `==` (under single-cell mutations) must agree with the model, and the
//! builder must refuse the pushes its contract rules out.

use bgpvcg_core::RoutingOutcome;
use bgpvcg_lcp::Route;
use bgpvcg_netgraph::{AsId, Cost};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One cell of the model: the route's nodes (endpoints included), its
/// transit cost, and one price per transit node.
type Cell = Option<(Vec<AsId>, Cost, Vec<Cost>)>;

/// A table over `n` ASs, `n²` cells, row-major.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    n: usize,
    cells: Vec<Cell>,
}

fn id(x: usize) -> AsId {
    AsId::new(x as u32)
}

fn random_cost(rng: &mut StdRng) -> Cost {
    if rng.gen_bool(0.1) {
        Cost::INFINITE
    } else {
        Cost::new(rng.gen_range(0..50u64))
    }
}

fn random_route(rng: &mut StdRng, n: usize, i: usize, j: usize) -> (Vec<AsId>, Cost, Vec<Cost>) {
    let mut nodes = vec![id(i)];
    let hops = rng.gen_range(0..=n.saturating_sub(2).min(4));
    for _ in 0..hops {
        let k = rng.gen_range(0..n);
        if k != i && k != j && !nodes.contains(&id(k)) {
            nodes.push(id(k));
        }
    }
    nodes.push(id(j));
    let prices = (2..nodes.len()).map(|_| random_cost(rng)).collect();
    (nodes, Cost::new(rng.gen_range(0..100u64)), prices)
}

fn random_model(rng: &mut StdRng) -> Model {
    let n = rng.gen_range(0..=7usize);
    let mut cells = vec![None; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_bool(0.7) {
                cells[i * n + j] = Some(random_route(rng, n, i, j));
            }
        }
    }
    Model { n, cells }
}

fn build(model: &Model) -> RoutingOutcome {
    let mut table = RoutingOutcome::builder(model.n);
    for (p, cell) in model.cells.iter().enumerate() {
        if let Some((nodes, cost, prices)) = cell {
            let (i, j) = (id(p / model.n), id(p % model.n));
            table.push(i, j, *cost, nodes.iter().copied(), prices.iter().copied());
        }
    }
    table.finish()
}

/// What `Display` must print for the model.
fn render(model: &Model) -> String {
    let mut out = format!("RoutingOutcome over {} ASs:\n", model.n);
    for (p, cell) in model.cells.iter().enumerate() {
        let Some((nodes, cost, prices)) = cell else {
            continue;
        };
        let route = Route::from_parts(nodes.clone(), *cost);
        let shown: Vec<String> = nodes[1..nodes.len() - 1]
            .iter()
            .zip(prices)
            .map(|(k, p)| format!("{k}={p}"))
            .collect();
        out += &format!(
            "  {} -> {}: {route} prices [{}]\n",
            id(p / model.n),
            id(p % model.n),
            shown.join(", ")
        );
    }
    out
}

fn check_accessors(model: &Model, table: &RoutingOutcome) {
    let n = model.n;
    assert_eq!(table.node_count(), n);
    for i in 0..n {
        for j in 0..n {
            let cell = &model.cells[i * n + j];
            let pair = table.pair(id(i), id(j));
            assert_eq!(pair.is_some(), cell.is_some(), "presence of {i}->{j}");
            let (Some(pair), Some((nodes, cost, prices))) = (pair, cell) else {
                for k in 0..n {
                    assert_eq!(table.price(id(i), id(j), id(k)), None);
                }
                continue;
            };
            let transit = &nodes[1..nodes.len() - 1];
            assert_eq!(pair.nodes(), nodes.as_slice());
            assert_eq!(pair.transit_nodes(), transit);
            assert_eq!(pair.transit_cost(), *cost);
            let expected: Vec<(AsId, Cost)> = transit
                .iter()
                .copied()
                .zip(prices.iter().copied())
                .collect();
            assert_eq!(pair.prices().len(), expected.len());
            assert_eq!(pair.prices().collect::<Vec<_>>(), expected);
            for k in 0..n {
                let want = expected.iter().find(|(x, _)| *x == id(k)).map(|&(_, p)| p);
                assert_eq!(pair.price_of(id(k)), want, "{i}->{j} price of {k}");
                assert_eq!(table.price(id(i), id(j), id(k)), want);
            }
            assert_eq!(pair.route(), Route::from_parts(nodes.clone(), *cost));
        }
    }
    let listed: Vec<(AsId, AsId, Vec<AsId>)> = table
        .pairs()
        .map(|(i, j, pair)| (i, j, pair.nodes().to_vec()))
        .collect();
    let present: Vec<(AsId, AsId, Vec<AsId>)> = model
        .cells
        .iter()
        .enumerate()
        .filter_map(|(p, cell)| {
            let (nodes, _, _) = cell.as_ref()?;
            Some((id(p / n), id(p % n), nodes.clone()))
        })
        .collect();
    assert_eq!(
        listed, present,
        "pairs() lists the model's pairs, row-major"
    );
    assert_eq!(table.to_string(), render(model));
}

#[test]
fn every_accessor_and_display_agree_with_the_model() {
    for seed in 0..200 {
        let model = random_model(&mut StdRng::seed_from_u64(seed));
        check_accessors(&model, &build(&model));
    }
}

/// The single-cell mutations `==` must notice exactly when the model
/// changes: one node, one price, one transit cost, one pair added, one
/// pair removed.
fn mutate(model: &Model, kind: usize, rng: &mut StdRng) -> Model {
    let mut out = model.clone();
    let n = model.n;
    let present: Vec<usize> = (0..n * n).filter(|&p| model.cells[p].is_some()).collect();
    let absent: Vec<usize> = (0..n * n)
        .filter(|&p| model.cells[p].is_none() && p / n != p % n)
        .collect();
    match kind {
        0 if !present.is_empty() => {
            let p = present[rng.gen_range(0..present.len())];
            let (nodes, _, _) = out.cells[p].as_mut().unwrap();
            let at = rng.gen_range(0..nodes.len());
            nodes[at] = id(rng.gen_range(0..n));
        }
        1 if present
            .iter()
            .any(|&p| !model.cells[p].as_ref().unwrap().2.is_empty()) =>
        {
            let priced: Vec<usize> = present
                .iter()
                .copied()
                .filter(|&p| !model.cells[p].as_ref().unwrap().2.is_empty())
                .collect();
            let p = priced[rng.gen_range(0..priced.len())];
            let (_, _, prices) = out.cells[p].as_mut().unwrap();
            let at = rng.gen_range(0..prices.len());
            prices[at] = random_cost(rng);
        }
        2 if !present.is_empty() => {
            let p = present[rng.gen_range(0..present.len())];
            let (_, cost, _) = out.cells[p].as_mut().unwrap();
            *cost = Cost::new(rng.gen_range(0..100u64));
        }
        3 if !absent.is_empty() => {
            let p = absent[rng.gen_range(0..absent.len())];
            out.cells[p] = Some(random_route(rng, n, p / n, p % n));
        }
        4 if !present.is_empty() => {
            let p = present[rng.gen_range(0..present.len())];
            out.cells[p] = None;
        }
        _ => {}
    }
    out
}

#[test]
fn equality_agrees_with_the_model_under_single_cell_mutations() {
    let mut changed = [0usize; 5];
    for seed in 0..300 {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(&mut rng);
        let table = build(&model);
        assert_eq!(table, build(&model), "a table equals its rebuild");
        for (kind, count) in changed.iter_mut().enumerate() {
            let other = mutate(&model, kind, &mut rng);
            let same = other == model;
            assert_eq!(
                table == build(&other),
                same,
                "seed {seed}, mutation {kind}: model equal = {same}"
            );
            *count += usize::from(!same);
        }
    }
    // Every kind of mutation really changed some tables.
    assert!(changed.iter().all(|&c| c > 50), "{changed:?}");
}

#[test]
fn tables_over_different_node_counts_differ() {
    assert_ne!(
        RoutingOutcome::builder(3).finish(),
        RoutingOutcome::builder(4).finish()
    );
    assert_eq!(
        RoutingOutcome::builder(3).finish(),
        RoutingOutcome::builder(3).finish()
    );
}

#[test]
#[should_panic(expected = "row-major order")]
fn the_builder_rejects_an_out_of_order_push() {
    let mut table = RoutingOutcome::builder(4);
    table.push(id(1), id(0), Cost::ZERO, [id(1), id(0)], []);
    table.push(id(0), id(1), Cost::ZERO, [id(0), id(1)], []);
}

#[test]
#[should_panic(expected = "row-major order")]
fn the_builder_rejects_a_pair_pushed_twice() {
    let mut table = RoutingOutcome::builder(4);
    table.push(id(0), id(1), Cost::ZERO, [id(0), id(1)], []);
    table.push(id(0), id(1), Cost::ZERO, [id(0), id(1)], []);
}

#[test]
#[should_panic(expected = "diagonal")]
fn the_builder_rejects_a_diagonal_push() {
    let mut table = RoutingOutcome::builder(4);
    table.push(id(2), id(2), Cost::ZERO, [id(2), id(2)], []);
}

#[test]
#[should_panic(expected = "one price per transit node")]
fn the_builder_rejects_a_price_too_many() {
    let mut table = RoutingOutcome::builder(4);
    table.push(
        id(0),
        id(3),
        Cost::new(1),
        [id(0), id(1), id(3)],
        [Cost::new(1), Cost::new(2)],
    );
}

#[test]
#[should_panic(expected = "one price per transit node")]
fn the_builder_rejects_a_missing_price() {
    let mut table = RoutingOutcome::builder(4);
    table.push(id(0), id(3), Cost::new(1), [id(0), id(1), id(3)], []);
}

#[test]
#[should_panic(expected = "both endpoints")]
fn the_builder_rejects_a_route_without_both_endpoints() {
    let mut table = RoutingOutcome::builder(4);
    table.push(id(0), id(3), Cost::ZERO, [id(0)], []);
}

#[test]
#[should_panic(expected = "out of range")]
fn the_builder_rejects_a_pair_out_of_range() {
    let mut table = RoutingOutcome::builder(4);
    table.push(id(0), id(4), Cost::ZERO, [id(0), id(4)], []);
}
