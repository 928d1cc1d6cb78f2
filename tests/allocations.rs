//! Allocations, counted. The shared counting allocator runs a table of
//! deterministic scenarios on the seed-61 graphs of the repo benchmark —
//! the two-tier hierarchy, Barabási–Albert n = 256 and the 128-ring — and
//! asserts how many heap blocks each asks for: none where nothing is
//! output, otherwise the output's own blocks. A count is an allocation
//! event (`alloc`, `alloc_zeroed` or `realloc`), so a buffer that grows is
//! seen as well as one that is made. The memory budgets, read from the
//! same allocator, are `tests/engine_heap_budget.rs` and
//! `tests/vcg_heap_budget.rs`.
//!
//! This binary installs the allocator and holds one test, so no other
//! test's thread allocates while it counts. Every failed expectation is
//! reported before the test fails.

mod counting;

use bgp_vcg::bgp::engine::SyncEngine;
use bgp_vcg::bgp::wire::{encode_update_v2_into, update_size_v2_with};
use bgp_vcg::bgp::{
    Accusation, FaultPlan, LocalEvent, ProtocolNode, TopologyEvent, Update, WireAuditor,
};
use bgp_vcg::core::neighbor_costs::{NcPricingNode, NeighborCostGraph};
use bgp_vcg::{protocol, vcg, AsGraph, AsId, Cost};
use bgpvcg_telemetry::{HealthConfig, Telemetry};
use counting::{ba, counted, hier128, ring128, Ledger};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The allocation events of `f`.
fn events<R>(f: impl FnOnce() -> R) -> usize {
    counted(f).1.events
}

/// The hierarchy with a receive cost of 1..=9 on each end of every link,
/// drawn from seed 61.
fn hier128_margins() -> NeighborCostGraph {
    let base = hier128();
    let mut rng = StdRng::seed_from_u64(61);
    let mut g = NeighborCostGraph::uniform(&base);
    for k in base.nodes() {
        for &a in base.neighbors(k) {
            let cost = Cost::new(rng.gen_range(1..10));
            g = g.with_recv_cost(k, a, cost).expect("a link of the graph");
        }
    }
    g
}

/// An auditor that reads nothing: what the wire tap costs by itself.
struct Deaf;

impl WireAuditor for Deaf {
    fn on_wire(&mut self, _: AsId, _: AsId, _: &Arc<Update>) {}
    fn on_topology(&mut self, _: &TopologyEvent) {}
    fn on_local_event(&mut self, _: AsId, _: &LocalEvent) {}
    fn end_stage(&mut self, _: u64) -> Vec<Accusation> {
        Vec::new()
    }
}

/// The last AS's declared cost raised by one and restored, applied
/// through `apply`: the allocation events of each half.
fn cost_change(g: &AsGraph, mut apply: impl FnMut(TopologyEvent)) -> (usize, usize) {
    let last = AsId::new(g.node_count() as u32 - 1);
    let cost = g.cost(last);
    let up = events(|| apply(TopologyEvent::CostChange(last, cost + Cost::new(1))));
    let back = events(|| apply(TopologyEvent::CostChange(last, cost)));
    (up, back)
}

/// The allocation events of every node handling a verbatim repeat of each
/// neighbor's full table, and how many such calls there were.
fn verbatim_repeats<N: ProtocolNode>(g: &AsGraph, nodes: &mut [N]) -> (usize, usize) {
    let (mut total, mut calls) = (0, 0);
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            let batch = [Arc::new(nodes[v.index()].full_table().expect("a table"))];
            let node = &mut nodes[u.index()];
            total += events(|| assert!(node.handle(&batch).is_none()));
            calls += 1;
        }
    }
    (total, calls)
}

/// What one graph's lock-step scenarios are expected to read.
struct Expected {
    name: &'static str,
    graph: AsGraph,
    /// The cost change, up and back.
    serial: (usize, usize),
    /// What the tracer and the health monitor add to the cost change.
    observed: (usize, usize),
    /// `outcome_from_nodes` and `vcg::compute`.
    extract: usize,
    central: usize,
    /// The (node, neighbor) pairs of the verbatim repeats.
    pairs: usize,
}

/// The lock-step scenarios on one graph.
fn lock_step(ledger: &mut Ledger, e: Expected) {
    let (name, g) = (e.name, &e.graph);
    let case = |what: &str| format!("{name}: {what}");

    let mut engine = protocol::build_sync_engine(g).expect("biconnected");
    assert!(engine.run_to_convergence().converged);

    // Nothing is delivered, so nothing is allocated.
    let rerun = events(|| engine.run_to_convergence());
    ledger.exact(&case("a second run to convergence"), rerun, 0);

    // The last AS re-stamps every route it holds. On the hierarchy: 127
    // path nodes, 125 price arrays (its routes with transit nodes), its
    // re-stamped list (1), touched list (1) and advertisement list (1),
    // the update's `Arc` (1) and the event's local view (1); its two
    // neighbors re-select nothing. On BA, 255 + 253 + 1 + 1 + 1 + 1 + 1,
    // and 25 updates by other nodes: an `Arc` and an advertisement list
    // each, 4 re-selected routes' path nodes and price arrays, and 54
    // price deltas' entry lists. On the ring the change re-routes around
    // the ring: per update an `Arc` and an advertisement list (3 048 up,
    // 2 981 back), a path node per re-selected route (3 672), a price
    // array per full advertisement (3 670), a price delta's entry list,
    // copied out at its size (15 737 and 15 618), the same 1 + 1 + 1 at
    // the last AS, and on the way up only, buffers growing to a new
    // high-water mark (1 822: the dirty and affected lists, the price
    // slabs and the wire scratch).
    let (up, back) = cost_change(g, |event| {
        engine.apply_event(event);
    });
    ledger.exact(&case("a cost change"), up, e.serial.0);
    ledger.exact(&case("the cost change undone"), back, e.serial.1);

    // The same engine on two workers: nothing to deliver is still nothing.
    let mut engine = engine.with_parallelism(2);
    let rerun = events(|| engine.run_to_convergence());
    ledger.exact(&case("a second run on two workers"), rerun, 0);

    // A no-op auditor on the wire tap allocates nothing: a cold run and a
    // cost change read what an untapped engine does (the first engine
    // above has grown the thread's announce buffer for both).
    let mut untapped = protocol::build_sync_engine(g).expect("biconnected");
    let mut tapped = protocol::build_sync_engine(g).expect("biconnected");
    tapped.attach_auditor(Box::new(Deaf));
    let plain = events(|| untapped.run_to_convergence());
    ledger.exact(
        &case("a tapped cold run"),
        events(|| tapped.run_to_convergence()),
        plain,
    );
    let plain = cost_change(g, |event| {
        untapped.apply_event(event);
    });
    let audited = cost_change(g, |event| {
        tapped.apply_event(event);
    });
    ledger.exact(&case("a tapped cost change"), audited.0, plain.0);
    ledger.exact(&case("undone, tapped"), audited.1, plain.1);

    // Null-sink telemetry, the health monitor and the span profiler
    // together add nothing to a second run. To a cost change they add the
    // tracer's event buffer growing to a new high-water mark (1 on BA, 6
    // on the ring: none on a second change).
    let mut observed = protocol::build_sync_engine(g).expect("biconnected");
    observed.attach_telemetry(&Telemetry::null());
    observed.attach_health(HealthConfig::default());
    observed.attach_profiler();
    assert!(observed.run_to_convergence().converged);
    let rerun = events(|| observed.run_to_convergence());
    ledger.exact(&case("a second observed run"), rerun, 0);
    let (up, back) = cost_change(g, |event| {
        observed.apply_event(event);
    });
    ledger.exact(
        &case("an observed cost change"),
        up,
        e.serial.0 + e.observed.0,
    );
    ledger.exact(&case("undone, observed"), back, e.serial.1 + e.observed.1);

    // The outcome's four arrays, reserved once, and the one path scratch
    // buffer doubling up to the longest route (1, 3 and 6 events): never a
    // block per pair.
    let nodes = engine.into_nodes();
    let extract = events(|| protocol::outcome_from_nodes(&nodes).expect("priced"));
    ledger.exact(&case("outcome_from_nodes"), extract, e.extract);
    ledger.at_most(&case("outcome_from_nodes"), extract, 16);

    // The outcome's four arrays, the validation's and the avoidance pass's
    // scratch, and 12 blocks per destination's Dijkstra (6 on the ring):
    // O(n), never one per (i, j, k) fact.
    let central = events(|| vcg::compute(g).expect("biconnected"));
    ledger.exact(&case("vcg::compute"), central, e.central);
    ledger.at_most(&case("vcg::compute"), central, 16 * g.node_count());

    // A repeat changes no Rib-In cell, so no destination is touched.
    let mut nodes = nodes;
    let (repeats, calls) = verbatim_repeats(g, &mut nodes);
    ledger.exact(&case("verbatim repeats"), calls, e.pairs);
    ledger.exact(&case("handling a verbatim repeat"), repeats, 0);

    // The wire codec writes into the caller's scratch, here already as
    // large as the largest full table.
    let tables: Vec<Update> = nodes.iter().filter_map(ProtocolNode::full_table).collect();
    let mut scratch = Vec::new();
    for table in &tables {
        encode_update_v2_into(&mut scratch, table);
    }
    let encoded = events(|| {
        let mut bytes = 0;
        for table in &tables {
            encode_update_v2_into(&mut scratch, table);
            bytes += scratch.len() + update_size_v2_with(&mut scratch, table);
        }
        bytes
    });
    ledger.exact(&case("encoding every full table"), encoded, 0);
}

/// The worker pool on the hierarchy, where the last AS's two neighbors
/// handle its cost change in one pooled stage and re-select nothing.
fn worker_pool(ledger: &mut Ledger) {
    let g = hier128();
    let mut serial = protocol::build_sync_engine(&g).expect("biconnected");
    let mut pooled = protocol::build_sync_engine_parallel(&g, 2).expect("biconnected");
    assert!(serial.run_to_convergence().converged);
    assert!(pooled.run_to_convergence().converged);
    // What two scoped threads cost by themselves: the scope, and each
    // thread's handle, result packet and boxed closure (more while the test
    // harness captures their output).
    let scope = events(|| {
        std::thread::scope(|scope| {
            scope.spawn(|| ());
            scope.spawn(|| ());
        })
    });
    let serial = cost_change(&g, |event| {
        serial.apply_event(event);
    });
    let pooled = cost_change(&g, |event| {
        pooled.apply_event(event);
    });
    // The serial count, plus the pooled stage's slot list and scope.
    ledger.exact(
        "hier128: a cost change on two workers",
        pooled.0,
        serial.0 + 1 + scope,
    );
    ledger.exact(
        "hier128: undone on two workers",
        pooled.1,
        serial.1 + 1 + scope,
    );
}

/// The session layer on the hierarchy under a quiet plan.
fn sessions(ledger: &mut Ledger) {
    let g = hier128();
    let mut chaos = protocol::build_chaos_engine(&g, FaultPlan::quiet()).expect("biconnected");
    assert!(chaos.run_to_stable(400).converged);
    // Keepalives, acks and hold timers only: the stage's channel keys, due
    // frames and peer lists are reused buffers.
    let stable = events(|| (0..8).for_each(|_| chaos.step()));
    ledger.exact("hier128: eight stable session stages", stable, 0);
    // What the lock-step engine allocates for the same change, no more:
    // frames share the update by `Arc`.
    let (up, back) = cost_change(&g, |event| {
        chaos.apply_event(event);
    });
    ledger.exact("hier128: a cost change over sessions", up, 257);
    ledger.exact("hier128: undone over sessions", back, 257);
}

/// The per-neighbor cost model's node on the hierarchy.
fn margins(ledger: &mut Ledger) {
    let g = hier128_margins();
    let topology = g.topology();
    let mut engine = SyncEngine::new(topology, NcPricingNode::from_graph(&g));
    assert!(engine.run_to_convergence().converged);
    let mut nodes = engine.into_nodes();
    let (repeats, calls) = verbatim_repeats(topology, &mut nodes);
    ledger.exact("margins: verbatim repeats", calls, 596);
    ledger.exact("margins: handling a verbatim repeat", repeats, 0);

    // This model's cost change: the last AS's first neighbor raises its
    // receive cost from it by one, and restores it. Every route through
    // that neighbor is re-priced: two path nodes for each of the 115 it
    // re-selects (its own entry, and the neighbor's entry re-stamped with
    // the new cost), 115 price arrays, 10 price deltas' entry lists, and
    // the update's advertisement list and cost vector.
    let last = AsId::new(topology.node_count() as u32 - 1);
    let neighbor = topology.neighbors(last)[0];
    let table = nodes[neighbor.index()].full_table().expect("a table");
    let mut raised = table.clone();
    for (from, cost) in &mut raised.sender_costs {
        if *from == last {
            *cost += Cost::new(1);
        }
    }
    let node = &mut nodes[last.index()];
    let (raised, table) = ([Arc::new(raised)], [Arc::new(table)]);
    let up = events(|| node.handle(&raised));
    let back = events(|| node.handle(&table));
    ledger.exact("margins: a receive-cost change", up, 357);
    ledger.exact("margins: undone", back, 357);
}

#[test]
fn every_scenario_allocates_only_its_output() {
    let mut ledger = Ledger::default();
    let graphs = [
        Expected {
            name: "hier128",
            graph: hier128(),
            serial: (257, 257),
            observed: (0, 0),
            extract: 5,
            central: 1_599,
            pairs: 596,
        },
        Expected {
            name: "BA n=256",
            graph: ba(256),
            serial: (625, 625),
            observed: (1, 0),
            extract: 7,
            central: 3_146,
            pairs: 1_018,
        },
        Expected {
            name: "ring128",
            graph: ring128(),
            serial: (31_000, 28_925),
            observed: (6, 0),
            extract: 10,
            central: 820,
            pairs: 256,
        },
    ];
    for expected in graphs {
        lock_step(&mut ledger, expected);
    }
    worker_pool(&mut ledger);
    sessions(&mut ledger);
    margins(&mut ledger);
    ledger.check();
}
