//! The traced run (`--trace 1`): per-layer numbers, measured from outside.
//!
//! Every layer is timed by bracketing calls into its public functions with
//! spans recorded here; nothing inside the measured crates changes. The
//! traced run works on the pool's first input only and takes its own bare
//! pass as the base of every ratio it prints.
//!
//! For the cold workloads the traced pass is a *replay driver* owned by the
//! benchmark: it drives `PricingBgpNode::{start, handle}` in lock-step
//! exactly as `SyncEngine`'s serial path does, feeds the same update stream
//! to a shadow `RouteSelector` per node to split `handle` into ingest,
//! decide and the rest, and pushes every emitted update through the v2
//! codec. Its numbers are only printed if its message count, v2 byte total
//! and fixpoint equal the engine's.

use crate::alloc;
use crate::inputs::Workload;
use crate::metrics::{RunResult, PER_LAYER};
use crate::run::{check_inputs, peak_rss_mib};
use crate::spans::{self_times, Recorder};
use crate::stats;
use crate::workloads::{
    self, chaos_pass, churn_pass, cold_pass, prime, timed, Counts, Observe, PassOutcome, Prepared,
    Ring,
};
use bgpvcg_bgp::chaos::FaultPlan;
use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::{
    wire, LocalEvent, PlainBgpNode, ProtocolNode, RouteInfo, RouteSelector, StateSnapshot, Update,
};
use bgpvcg_core::accounting::PaymentLedger;
use bgpvcg_core::{protocol, vcg, PricingBgpNode, RoutingOutcome};
use bgpvcg_lcp::avoiding::AvoidanceTable;
use bgpvcg_lcp::AllPairsLcp;
use bgpvcg_netgraph::{AsGraph, TrafficMatrix};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Traced rounds per run at most; each round is one traced pass plus the
/// variant passes, and the reported value is the median over rounds.
const MAX_ROUNDS: u32 = 3;

/// Converged nodes sampled for the node-level probes.
const PROBE_NODES: usize = 16;

const INSTRUMENT_VARIANTS: [(Observe, &str); 5] = [
    (Observe::NullSink, "telemetry.null_sink_ratio"),
    (Observe::RingSink, "telemetry.ring_sink_ratio"),
    (Observe::Profiler, "telemetry.profiler_ratio"),
    (Observe::Health, "telemetry.health_ratio"),
    (Observe::Full, "telemetry.full_ratio"),
];

/// Where `perf/out/` lies: beside the manifest this binary was built from,
/// i.e. inside the checkout whatever the working directory is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run's accumulating state.
struct Trace {
    rec: Recorder,
    round: u32,
    /// One value per round and metric; the median is reported.
    values: BTreeMap<&'static str, Vec<f64>>,
    /// Churn only: per-round event latencies, in script order.
    event_rounds: Vec<Vec<u64>>,
    /// `vcg::compute` on the first input, the yardstick of the cold runs.
    central_ms: f64,
    attempted: u64,
    failed: u64,
}

impl Trace {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// Books a verified pass; returns its wall time in ms.
    fn book(&mut self, out: &PassOutcome) -> f64 {
        self.attempted += out.ops;
        self.failed += out.failed;
        ms(out.wall_ns)
    }

    /// Books a harness-level check (replay validation, bit-identity).
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    /// Share of the traced pass's wall time (the span `root`) that the
    /// layer spans under it account for; the rest is the harness's own
    /// `perf.*` spans. Returns the share.
    fn put_layer_coverage(&mut self, root: u32) -> f64 {
        let own = self_times(self.rec.spans(), root);
        let total: u64 = own.values().sum();
        let layers: u64 = own
            .iter()
            .filter(|(name, _)| !name.starts_with("perf."))
            .map(|(_, &ns)| ns)
            .sum();
        let coverage = ratio(layers as f64, total as f64);
        self.put("trace.layer_coverage", coverage);
        coverage
    }
}

/// Runs `workload` traced and returns every per-layer metric.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let started = Instant::now();
    let mut trace = Trace {
        rec: Recorder::new(),
        round: 0,
        values: BTreeMap::new(),
        event_rounds: Vec::new(),
        central_ms: 0.0,
        attempted: 0,
        failed: 0,
    };

    // Set-up layers, on the pool's first input.
    trace.rec.enter("perf.setup");
    let inputs_ok = check_inputs(workload, seed);
    let (mut prepared, setup) = workloads::prepare(workload, seed, 0);
    trace.put("netgraph.generate_ms", ms(setup.generate_ns));
    trace.put("netgraph.validate_ms", ms(setup.validate_ns));
    let graph = prepared.input.graph.clone();
    let (lcp, ns) = trace
        .rec
        .time("lcp.all_pairs", || AllPairsLcp::compute(&graph));
    trace.put("lcp.all_pairs_ms", ms(ns));
    let (avoidance, ns) = trace.rec.time("lcp.avoidance", || {
        AvoidanceTable::compute_fast(&graph, &lcp)
    });
    trace.put("lcp.avoidance_ms", ms(ns));
    black_box((lcp, avoidance));
    let (central, compute_ns) = trace.rec.time("core.vcg.compute", || vcg::compute(&graph));
    trace.put("core.vcg.compute_ms", ms(compute_ns));
    trace.central_ms = ms(compute_ns);
    trace.check(
        central.as_ref() == Ok(&prepared.reference),
        "vcg::compute repeats",
    );
    let (ledger, ns) = trace.rec.time("core.accounting.settle", || {
        PaymentLedger::settle(
            &prepared.reference,
            &TrafficMatrix::uniform(graph.node_count(), 1),
        )
    });
    trace.put("core.accounting.settle_ms", ms(ns));
    trace.check(
        ledger.is_ok(),
        "PaymentLedger::settle on the reference outcome",
    );
    // One discarded pass, as in the end-to-end run, so that the first
    // round's bare pass is not the process's first.
    let warm_up = workloads::pass(&mut prepared, Observe::Bare);
    trace.book(&warm_up);
    trace.rec.exit();

    loop {
        trace.rec.set_pass(trace.round);
        match workload {
            Workload::ColdBa256 | Workload::ColdRing128 => cold_round(&mut trace, &prepared),
            Workload::WarmChurnHier128 => warm_round(&mut trace, &mut prepared),
            Workload::ChaosHier128 => chaos_round(&mut trace, &prepared),
        }
        trace.round += 1;
        if trace.round >= MAX_ROUNDS || started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    finish(workload, trace, inputs_ok)
}

/// Median per metric over the rounds, the churn percentiles, the trace
/// file, and the result.
fn finish(workload: Workload, mut trace: Trace, inputs_ok: bool) -> RunResult {
    if !trace.event_rounds.is_empty() {
        // Per event, the median latency across rounds; then percentiles
        // over the script's events.
        let events = trace.event_rounds[0].len();
        let per_event: Vec<f64> = (0..events)
            .map(|e| {
                let across: Vec<f64> = trace.event_rounds.iter().map(|r| r[e] as f64).collect();
                stats::median(&across)
            })
            .collect();
        for (name, p) in [
            ("bgp.engine.sync.event_p50_ms", 50.0),
            ("bgp.engine.sync.event_p90_ms", 90.0),
        ] {
            if let Some(ns) = stats::percentile(&per_event, p) {
                trace.put(name, ns / 1e6);
            }
        }
        let floor = per_event.iter().copied().fold(f64::INFINITY, f64::min);
        trace.put("bgp.engine.sync.event_floor_us", floor / 1e3);
    }
    trace.put(
        "trace.spans",
        trace.rec.spans().len() as f64 / f64::from(trace.round),
    );

    let path = out_dir().join(format!("{}.trace.json", workload.name()));
    // Later rounds repeat the first; the file holds the first only.
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, trace.rec.to_json(0)));
    match written {
        Ok(()) => println!(
            "trace       {} spans -> {}",
            trace.rec.spans().len(),
            path.display()
        ),
        Err(error) => println!("trace       not written to {}: {error}", path.display()),
    }

    for name in trace.values.keys() {
        assert!(
            PER_LAYER.iter().any(|&(listed, _, _)| listed == *name),
            "{name} is not in the per-layer catalogue"
        );
    }
    let mut metrics = BTreeMap::new();
    for &(name, unit, better) in &PER_LAYER {
        let value = trace.values.get(name).map_or(0.0, |v| stats::median(v));
        let note = if trace.values.contains_key(name) {
            ""
        } else {
            "  (not measured on this workload)"
        };
        println!(
            "{name:<44} {value:>16.4} {unit:<6} ({} is better){note}",
            better.as_str()
        );
        metrics.insert(name.to_string(), (value, unit.to_string()));
    }
    println!("rounds      {}", trace.round);
    println!(
        "failed_ops  {} of {} ops and checks",
        trace.failed, trace.attempted
    );
    RunResult {
        correct: inputs_ok && trace.failed == 0,
        attempted: trace.attempted,
        failed: trace.failed,
        metrics,
    }
}

// ---------------------------------------------------------------- shared

/// Each instrument configuration's pass over the bare pass.
fn instrument_ratios(
    trace: &mut Trace,
    bare_ms: f64,
    mut run: impl FnMut(Observe) -> (PassOutcome, Ring),
) {
    for (observe, name) in INSTRUMENT_VARIANTS {
        let (out, ring) = run(observe);
        let variant_ms = trace.book(&out);
        trace.put(name, ratio(variant_ms, bare_ms));
        if let Some(ring) = ring {
            trace.put("telemetry.events", ring.total_recorded() as f64);
        }
    }
}

/// Allocation totals of one bare pass.
fn alloc_totals(trace: &mut Trace, run: impl FnOnce() -> PassOutcome) {
    alloc::start();
    let out = run();
    let counts = alloc::stop();
    trace.book(&out);
    trace.put("alloc.run_allocs", counts.allocs as f64);
    trace.put("alloc.run_alloc_bytes", counts.bytes as f64);
    trace.put("alloc.peak_live_bytes", counts.peak_live_bytes as f64);
}

/// Lemma 2's `O(nd)` quantities, summed over the converged nodes.
fn state_totals(trace: &mut Trace, snapshots: &[StateSnapshot]) {
    let sum = |pick: fn(&StateSnapshot) -> usize| snapshots.iter().map(pick).sum::<usize>() as f64;
    trace.put("state.rib_entries", sum(|s| s.rib_entries));
    trace.put(
        "state.path_nodes",
        sum(|s| s.table_path_nodes + s.rib_path_nodes),
    );
    trace.put("state.price_entries", sum(|s| s.price_entries));
    let cells = sum(StateSnapshot::total_cells);
    trace.put(
        "state.rss_bytes_per_cell",
        ratio(peak_rss_mib() * 1024.0 * 1024.0, cells),
    );
}

/// Node-level calls on clones of converged nodes (median over a sample):
/// the per-neighbour withdrawal and re-declaration paths the engines'
/// event handling is built from.
fn node_probes(trace: &mut Trace, nodes: &[PricingBgpNode]) {
    let step = (nodes.len() / PROBE_NODES).max(1);
    let (mut link_down, mut set_cost, mut apply_event, mut full_table) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    trace.rec.enter("perf.node_probes");
    for node in nodes.iter().step_by(step) {
        let neighbor = node
            .selector()
            .neighbors()
            .next()
            .expect("biconnected graphs have no isolated node");
        let mut selector: RouteSelector = node.selector().clone();
        let (changed, ns) = trace
            .rec
            .time("bgp.selector.link_down", || selector.link_down(neighbor));
        black_box(changed);
        link_down.push(us(ns));
        let mut selector = node.selector().clone();
        let cost = selector.declared_cost() + bgpvcg_netgraph::Cost::new(1);
        let (changed, ns) = trace.rec.time("bgp.selector.set_declared_cost", || {
            selector.set_declared_cost(cost)
        });
        black_box(changed);
        set_cost.push(us(ns));
        let mut clone = node.clone();
        let (update, ns) = trace.rec.time("core.pricing_node.apply_event", || {
            clone.apply_event(LocalEvent::LinkDown(neighbor))
        });
        black_box(update);
        apply_event.push(us(ns));
        let (update, ns) = trace
            .rec
            .time("core.pricing_node.full_table", || node.full_table());
        black_box(update);
        full_table.push(ms(ns));
    }
    trace.rec.exit();
    trace.put("bgp.selector.link_down_us", stats::median(&link_down));
    trace.put("bgp.selector.set_cost_us", stats::median(&set_cost));
    trace.put(
        "core.pricing_node.apply_event_us",
        stats::median(&apply_event),
    );
    trace.put(
        "core.pricing_node.full_table_ms",
        stats::median(&full_table),
    );
}

fn extract(trace: &mut Trace, nodes: &[PricingBgpNode], reference: &RoutingOutcome, what: &str) {
    let (outcome, ns) = trace.rec.time("core.protocol.extract", || {
        protocol::outcome_from_nodes(nodes)
    });
    trace.put("core.protocol.extract_ms", ms(ns));
    trace.check(outcome.as_ref() == Ok(reference), what);
}

// ------------------------------------------------------------------ cold

/// What the replay driver counted.
#[derive(Debug, Default)]
struct Replay {
    counts: Counts,
    /// The replay pass's root span.
    root: u32,
    wall_ns: u64,
    handle_ns: u64,
    handle_calls: u64,
    handle_allocs: u64,
    handle_alloc_bytes: u64,
    ingest_ns: u64,
    ads_in: u64,
    decide_ns: u64,
    decides: u64,
    route_changes: u64,
    ads_out: u64,
    delta_ads: u64,
    encode_ns: u64,
    encode_allocs: u64,
    decode_ns: u64,
    encoded_bytes: u64,
    wire_bytes_v1: u64,
    codec_ok: bool,
    shadow_ok: bool,
}

/// The benchmark's own lock-step driver (see the module docs). Counting
/// allocations costs about 15 ns each, some 5 % of a `handle` call, so the
/// timed replay runs with `count_allocs` off and a second, untimed one
/// supplies the allocation columns.
fn replay(
    rec: &mut Recorder,
    graph: &AsGraph,
    count_allocs: bool,
) -> (Replay, Vec<PricingBgpNode>) {
    let n = graph.node_count();
    let mut nodes = PricingBgpNode::from_graph(graph);
    let mut shadows: Vec<RouteSelector> = graph
        .nodes()
        .map(|k| RouteSelector::new(k, graph.cost(k), graph.neighbors(k).iter().copied()))
        .collect();
    let mut delivered: Vec<Vec<Arc<Update>>> = vec![Vec::new(); n];
    let mut inboxes: Vec<Vec<Arc<Update>>> = vec![Vec::new(); n];
    let mut scratch: Vec<u8> = Vec::new();
    let mut update_seq = 0u64;
    // Every emitted update with what the codec made of it, compared once
    // the replay's root span has closed: the comparison is the harness's
    // work, not a layer's.
    let mut decoded_pairs = Vec::new();
    let mut stats = Replay {
        shadow_ok: true,
        ..Replay::default()
    };

    // Encodes, decodes and queues one emitted update, as `broadcast` does.
    let mut emit = |rec: &mut Recorder,
                    stats: &mut Replay,
                    inboxes: &mut [Vec<Arc<Update>>],
                    mut update: Update| {
        update_seq += 1;
        update.id = update_seq;
        stats.ads_out += update.entry_count() as u64;
        stats.delta_ads += update
            .advertisements
            .iter()
            .filter(|ad| matches!(ad.info, RouteInfo::PriceDelta { .. }))
            .count() as u64;
        // `encode_update_v2_into` appends: a scratch buffer that is not
        // cleared first silently measures the concatenation.
        scratch.clear();
        let before = alloc::read();
        let ((), ns) = rec.time("bgp.wire.encode", || {
            wire::encode_update_v2_into(&mut scratch, &update)
        });
        stats.encode_allocs += alloc::read().allocs - before.allocs;
        stats.encode_ns += ns;
        let (decoded, ns) = rec.time("bgp.wire.decode", || wire::decode_update(&scratch));
        stats.decode_ns += ns;
        let size_v2 = scratch.len() as u64;
        let size_v1 = wire::update_size(&update) as u64;
        let neighbors = graph.neighbors(update.from);
        stats.encoded_bytes += size_v2;
        stats.counts.messages += neighbors.len() as u64;
        stats.counts.wire_bytes_v2 += neighbors.len() as u64 * size_v2;
        stats.wire_bytes_v1 += neighbors.len() as u64 * size_v1;
        let update = Arc::new(update);
        for to in neighbors {
            inboxes[to.index()].push(Arc::clone(&update));
        }
        decoded_pairs.push((update, decoded));
    };

    if count_allocs {
        alloc::start();
    }
    stats.root = rec.enter("perf.replay");
    rec.enter("perf.replay.stage");
    for node in nodes.iter_mut() {
        let (update, ns) = rec.time("core.pricing_node.handle", || node.start());
        stats.handle_ns += ns;
        if let Some(update) = update {
            emit(rec, &mut stats, &mut inboxes, update);
        }
    }
    rec.exit();
    let mut stage = 0u64;
    while inboxes.iter().any(|inbox| !inbox.is_empty()) {
        stage += 1;
        std::mem::swap(&mut inboxes, &mut delivered);
        rec.enter("perf.replay.stage");
        for idx in 0..n {
            if delivered[idx].is_empty() {
                continue;
            }
            rec.enter("perf.replay.node_stage");
            let inbox = std::mem::take(&mut delivered[idx]);
            let before = alloc::read();
            let (emitted, ns) = rec.time("core.pricing_node.handle", || nodes[idx].handle(&inbox));
            let after = alloc::read();
            stats.handle_ns += ns;
            stats.handle_calls += 1;
            stats.handle_allocs += after.allocs - before.allocs;
            stats.handle_alloc_bytes += after.bytes - before.bytes;

            let shadow = &mut shadows[idx];
            let (affected, ns) = rec.time("bgp.selector.ingest", || {
                let mut affected = BTreeSet::new();
                for update in &inbox {
                    affected.extend(shadow.ingest(update));
                }
                affected
            });
            stats.ingest_ns += ns;
            stats.ads_in += inbox.iter().map(|u| u.entry_count() as u64).sum::<u64>();
            let (changes, ns) = rec.time("bgp.selector.decide", || {
                affected.iter().filter(|&&dest| shadow.decide(dest)).count()
            });
            stats.decide_ns += ns;
            stats.decides += affected.len() as u64;
            stats.route_changes += changes as u64;

            if let Some(update) = emitted {
                // `stages` is the last stage in which some node's
                // advertised state changed, as `RunReport` counts it.
                stats.counts.stages = stage;
                emit(rec, &mut stats, &mut inboxes, update);
            }
            rec.exit();
        }
        rec.exit();
    }
    stats.wall_ns = rec.exit();
    if count_allocs {
        alloc::stop();
    }

    stats.codec_ok = decoded_pairs.iter().all(|(update, decoded)| {
        decoded
            .as_ref()
            .is_ok_and(|d| d.from == update.from && d.advertisements == update.advertisements)
    });
    for (node, shadow) in nodes.iter().zip(&shadows) {
        for dest in graph.nodes() {
            stats.shadow_ok &= node.selector().route(dest) == shadow.route(dest);
        }
    }
    (stats, nodes)
}

fn cold_round(trace: &mut Trace, prepared: &Prepared) {
    let graph = &prepared.input.graph;
    let (bare, _) = cold_pass(prepared, Observe::Bare);
    let bare_ms = trace.book(&bare);

    // The engine one stage at a time.
    trace.rec.enter("perf.stepped_engine");
    let (engine, ns) = trace.rec.time("bgp.engine.sync.build", || {
        protocol::build_sync_engine(graph)
    });
    let mut engine = engine.expect("validated in set-up");
    trace.put("bgp.engine.sync.build_ms", ms(ns));
    let (mut step_sum, mut stage_max, mut executed) = (0u64, 0u64, 0u64);
    loop {
        let (stage, ns) = trace.rec.time("bgp.engine.sync.step", || engine.step());
        if stage.is_none() {
            break;
        }
        step_sum += ns;
        stage_max = stage_max.max(ns);
        executed += 1;
    }
    state_totals(trace, &engine.state_snapshots());
    let nodes = engine.into_nodes();
    extract(
        trace,
        &nodes,
        &prepared.reference,
        "stepped engine reaches the reference",
    );
    trace.rec.exit();
    trace.put("bgp.engine.sync.step_sum_ms", ms(step_sum));
    trace.put("bgp.engine.sync.stage_max_ms", ms(stage_max));
    trace.put("bgp.engine.sync.stages_executed", executed as f64);
    node_probes(trace, &nodes);
    drop(nodes);

    // The replay driver, valid only if it reproduces the engine's run.
    let (replay, nodes) = replay(&mut trace.rec, graph, false);
    let outcome = protocol::outcome_from_nodes(&nodes);
    trace.check(
        replay.counts == bare.counts,
        &format!(
            "replay counts {:?} equal the engine's {:?}",
            replay.counts, bare.counts
        ),
    );
    trace.check(
        outcome.as_ref() == Ok(&prepared.reference),
        "replay reaches the reference",
    );
    trace.check(
        replay.codec_ok,
        "every emitted update survives v2 encode + decode",
    );
    trace.check(
        replay.shadow_ok,
        "shadow selectors select the nodes' routes",
    );
    drop(nodes);
    let coverage = trace.put_layer_coverage(replay.root);
    trace.check(
        coverage >= 0.9,
        &format!("layer spans cover {coverage:.3} of the replay, at least 0.9 required"),
    );
    trace.put("trace.overhead_ratio", ratio(ms(replay.wall_ns), bare_ms));
    trace.put(
        "core.vcg.dist_over_central",
        ratio(bare_ms, trace.central_ms),
    );

    let (counted, _) = self::replay(&mut Recorder::new(), graph, true);
    trace.check(
        counted.counts == bare.counts,
        "allocation-counting replay repeats the run",
    );
    let f = |v: u64| v as f64;
    let r = &replay;
    let overhead_ns = step_sum.saturating_sub(r.handle_ns);
    let relax_emit_ns = r.handle_ns.saturating_sub(r.ingest_ns + r.decide_ns);
    for (name, value) in [
        ("bgp.selector.ingest_ms", ms(r.ingest_ns)),
        (
            "bgp.selector.ingest_ns_per_ad",
            ratio(f(r.ingest_ns), f(r.ads_in)),
        ),
        ("bgp.selector.ads_in", f(r.ads_in)),
        ("bgp.selector.decide_ms", ms(r.decide_ns)),
        (
            "bgp.selector.decide_ns_per_call",
            ratio(f(r.decide_ns), f(r.decides)),
        ),
        ("bgp.selector.decides", f(r.decides)),
        ("bgp.selector.route_changes", f(r.route_changes)),
        (
            "bgp.selector.decide_useful_ratio",
            ratio(f(r.route_changes), f(r.decides)),
        ),
        ("core.pricing_node.handle_ms", ms(r.handle_ns)),
        ("core.pricing_node.handle_calls", f(r.handle_calls)),
        (
            "core.pricing_node.handle_ns_per_ad",
            ratio(f(r.handle_ns), f(r.ads_in)),
        ),
        ("core.pricing_node.relax_emit_ms", ms(relax_emit_ns)),
        ("core.pricing_node.ads_out", f(r.ads_out)),
        (
            "core.pricing_node.emit_ratio",
            ratio(f(r.ads_out), f(r.decides)),
        ),
        (
            "core.pricing_node.delta_ad_ratio",
            ratio(f(r.delta_ads), f(r.ads_out)),
        ),
        (
            "core.pricing_node.handle_allocs_per_call",
            ratio(f(counted.handle_allocs), f(counted.handle_calls)),
        ),
        (
            "core.pricing_node.handle_alloc_bytes_per_ad",
            ratio(f(counted.handle_alloc_bytes), f(counted.ads_in)),
        ),
        ("bgp.wire.encode_ms", ms(r.encode_ns)),
        (
            "bgp.wire.encode_mb_per_s",
            ratio(f(r.encoded_bytes) * 1e3, f(r.encode_ns)),
        ),
        ("bgp.wire.decode_ms", ms(r.decode_ns)),
        (
            "bgp.wire.decode_mb_per_s",
            ratio(f(r.encoded_bytes) * 1e3, f(r.decode_ns)),
        ),
        (
            "bgp.wire.bytes_per_ad",
            ratio(f(r.encoded_bytes), f(r.ads_out)),
        ),
        (
            "bgp.wire.v2_over_v1",
            ratio(f(r.counts.wire_bytes_v2), f(r.wire_bytes_v1)),
        ),
        ("bgp.wire.encode_allocs", f(counted.encode_allocs)),
        ("bgp.engine.sync.overhead_ms", ms(overhead_ns)),
        (
            "bgp.engine.sync.overhead_ns_per_message",
            ratio(f(overhead_ns), f(bare.counts.messages)),
        ),
    ] {
        trace.put(name, value);
    }

    // Variants of the bare pass.
    let (report, ns) = timed(|| {
        let mut plain = SyncEngine::new(graph, PlainBgpNode::from_graph(graph));
        let report = plain.run_to_convergence();
        black_box(plain.into_nodes());
        report
    });
    let plain_ms = ms(ns);
    trace.check(report.converged, "plain BGP converges");
    trace.put("bgp.node.plain_run_ms", plain_ms);
    trace.put("bgp.node.plain_wire_bytes_v2", report.bytes_v2 as f64);
    trace.put(
        "core.pricing_node.pricing_over_plain",
        ratio(bare_ms, plain_ms),
    );

    let (parallel, ns) = timed(|| protocol::run_sync_parallel(graph, 2));
    let parallel_ms = ms(ns);
    let identical = parallel.is_ok_and(|run| {
        run.outcome == prepared.reference
            && run.report.converged
            && (
                run.report.stages as u64,
                run.report.messages as u64,
                run.report.bytes_v2 as u64,
            ) == (
                bare.counts.stages,
                bare.counts.messages,
                bare.counts.wire_bytes_v2,
            )
    });
    trace.check(
        identical,
        "with_parallelism(2) is bit-identical to the serial run",
    );
    trace.put("bgp.engine.sync.parallel2_run_ms", parallel_ms);
    trace.put(
        "bgp.engine.sync.parallel2_speedup",
        ratio(bare_ms, parallel_ms),
    );

    instrument_ratios(trace, bare_ms, |observe| cold_pass(prepared, observe));

    let ((report, outcome), ns) = timed(|| {
        let mut audited = protocol::build_audited_sync_engine(graph).expect("validated in set-up");
        let report = audited.run_to_convergence();
        (report, protocol::outcome_from_nodes(&audited.into_nodes()))
    });
    let audited_ms = ms(ns);
    trace.check(
        report.converged && outcome.as_ref() == Ok(&prepared.reference),
        "audited run reaches the reference",
    );
    trace.put("core.audit.auditor_ratio", ratio(audited_ms, bare_ms));

    alloc_totals(trace, || cold_pass(prepared, Observe::Bare).0);
}

// ------------------------------------------------------------------ warm

fn warm_round(trace: &mut Trace, prepared: &mut Prepared) {
    let Prepared {
        input,
        reference,
        mid_reference,
        live,
        ..
    } = prepared;
    let mid = mid_reference
        .as_ref()
        .expect("churn inputs have a midpoint");
    let (engine, _) = live.as_mut().expect("churn inputs are primed in set-up");
    let events = input
        .churn
        .as_ref()
        .expect("churn inputs carry a script")
        .script
        .len() as f64;

    let bare = churn_pass(engine, input, mid, reference, None);
    let bare_ms = trace.book(&bare);

    // The traced pass: one span per `try_apply_event`.
    let root = trace.rec.enter("perf.churn");
    let traced = churn_pass(engine, input, mid, reference, Some(&mut trace.rec));
    trace.rec.exit();
    trace.book(&traced);
    trace.check(
        traced.counts == bare.counts,
        "traced churn pass repeats the bare counts",
    );
    trace.event_rounds.push(traced.event_ns);
    trace.put_layer_coverage(root);
    // The traced pass also verifies inside its root span; compare like
    // with like.
    trace.put("trace.overhead_ratio", ratio(ms(traced.wall_ns), bare_ms));
    trace.put(
        "bgp.engine.sync.msgs_per_event",
        bare.counts.messages as f64 / events,
    );
    trace.put(
        "bgp.engine.sync.stages_per_event",
        bare.counts.stages as f64 / events,
    );

    state_totals(trace, &engine.state_snapshots());
    let nodes: Vec<PricingBgpNode> = engine.nodes().cloned().collect();
    extract(
        trace,
        &nodes,
        reference,
        "live engine is back on the original fixpoint",
    );
    node_probes(trace, &nodes);
    drop(nodes);

    let mut parallel =
        protocol::build_sync_engine_parallel(&input.graph, 2).expect("validated in set-up");
    let primed = parallel.run_to_convergence();
    let out = churn_pass(&mut parallel, input, mid, reference, None);
    let parallel_ms = trace.book(&out);
    trace.check(
        primed.converged && out.counts == bare.counts,
        "with_parallelism(2) is bit-identical to the serial run",
    );
    trace.put("bgp.engine.sync.parallel2_run_ms", parallel_ms);
    trace.put(
        "bgp.engine.sync.parallel2_speedup",
        ratio(bare_ms, parallel_ms),
    );

    instrument_ratios(trace, bare_ms, |observe| {
        let (mut engine, ring) = prime(input, observe);
        (churn_pass(&mut engine, input, mid, reference, None), ring)
    });

    alloc_totals(trace, || churn_pass(engine, input, mid, reference, None));
}

// ----------------------------------------------------------------- chaos

fn chaos_round(trace: &mut Trace, prepared: &Prepared) {
    let graph = &prepared.input.graph;
    let plan = prepared
        .input
        .plan
        .clone()
        .expect("chaos inputs carry a plan");
    let (bare, _) = chaos_pass(prepared, Observe::Bare);
    let bare_ms = trace.book(&bare);
    let report = bare.chaos.expect("chaos passes return the engine's report");

    // The traced pass: the same number of stages, one span per `step`.
    let root = trace.rec.enter("perf.chaos");
    let (engine, _) = trace.rec.time("bgp.chaos.build", || {
        protocol::build_chaos_engine(graph, plan)
    });
    let mut engine = engine.expect("validated in set-up");
    let (mut step_sum, mut step_max) = (0u64, 0u64);
    for _ in 0..report.stages {
        let ((), ns) = trace.rec.time("bgp.chaos.step", || engine.step());
        step_sum += ns;
        step_max = step_max.max(ns);
    }
    // Already at the stage budget: this only hands the counters back.
    let stepped = engine.run_to_stable(report.stages);
    let nodes = engine.into_nodes();
    extract(
        trace,
        &nodes,
        &prepared.reference,
        "stepped chaos engine reaches the reference",
    );
    let wall_ns = trace.rec.exit();
    trace.check(
        (stepped.messages, stepped.bytes_v2) == (report.messages, report.bytes_v2),
        "stepped chaos engine repeats the run's frames and bytes",
    );
    trace.put_layer_coverage(root);
    trace.put("trace.overhead_ratio", ratio(ms(wall_ns), bare_ms));
    let snapshots: Vec<StateSnapshot> = nodes.iter().map(ProtocolNode::state).collect();
    state_totals(trace, &snapshots);
    node_probes(trace, &nodes);
    drop(nodes);

    let f = |v: u64| v as f64;
    for (name, value) in [
        ("bgp.chaos.step_sum_ms", ms(step_sum)),
        ("bgp.chaos.step_max_ms", ms(step_max)),
        (
            "bgp.chaos.ns_per_frame",
            ratio(f(step_sum), f(report.messages)),
        ),
        ("bgp.chaos.frames", f(report.messages)),
        ("bgp.chaos.frames_dropped", f(report.frames_dropped)),
        ("bgp.chaos.retransmits", f(report.retransmits)),
        (
            "bgp.chaos.retransmit_ratio",
            ratio(f(report.retransmits), f(report.messages)),
        ),
        ("bgp.chaos.session_resets", f(report.session_resets)),
        ("bgp.chaos.holds_fired", f(report.holds_fired)),
        ("bgp.chaos.recovery_stages", f(report.recovery_stages)),
    ] {
        trace.put(name, value);
    }

    // The session layer's own price: quiet channels against no sessions.
    let (quiet, ns) =
        timed(|| protocol::run_chaos(graph, FaultPlan::quiet(), workloads::CHAOS_MAX_STAGES));
    let quiet_ms = ms(ns);
    trace.check(
        quiet.is_ok_and(|(outcome, report)| report.converged && outcome == prepared.reference),
        "quiet chaos run reaches the reference",
    );
    let (sync, _) = cold_pass(prepared, Observe::Bare);
    let sync_ms = trace.book(&sync);
    trace.put("bgp.chaos.quiet_run_ms", quiet_ms);
    trace.put("bgp.chaos.session_overhead", ratio(quiet_ms, sync_ms));

    instrument_ratios(trace, bare_ms, |observe| chaos_pass(prepared, observe));
    alloc_totals(trace, || chaos_pass(prepared, Observe::Bare).0);
}
