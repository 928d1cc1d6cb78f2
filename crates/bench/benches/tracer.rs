//! Criterion microbench for the observer on its own —
//! `UpdateTracer::observe_update` narrating converged full tables as trace
//! events, without an engine around it.
//!
//! The input is the `full_table()` of every node of the Barabási–Albert
//! `fixpoint::converged` network: one advertisement per
//! `(node, destination)` pair, so one sweep touches every route cell of
//! the tracer.
//!
//! * **fresh** — the sweep into a new tracer (built and dropped inside the
//!   timed call): every cell is new, every route and every finite price
//!   becomes an event, and the route rows are allocated on the way. The
//!   cold-convergence shape.
//! * **steady** — the same sweep again into the same tracer: every path
//!   compares equal by pointer, so no route event is built, and every
//!   finite price is narrated again as advertised. Nothing is allocated.
//!
//! Each case runs with a null sink (the tracer's own cost) and with the
//! null sink teed into a health monitor (what `attach_health` adds).
//!
//! Run with: `cargo bench -p bgpvcg-bench --bench tracer`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::fixpoint::converged;
use bgpvcg_bgp::telemetry::UpdateTracer;
use bgpvcg_bgp::{ProtocolNode, Update};
use bgpvcg_telemetry::{HealthConfig, HealthSink, Telemetry};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn sweep(tracer: &mut UpdateTracer, tables: &[Update]) {
    for table in tables {
        tracer.observe_update(black_box(table), 1);
    }
}

/// A null-sink handle, with a health monitor sized for `n` teed in or not.
fn telemetry(health: bool, n: usize) -> Telemetry {
    if !health {
        return Telemetry::null();
    }
    let sink = HealthSink::with_node_count(HealthConfig::default(), n);
    Telemetry::null().tee(Arc::new(sink))
}

fn bench_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracer_observe");
    group.sample_size(20);
    for &n in &[64usize, 256] {
        let (nodes, _) = converged(Family::BarabasiAlbert, n);
        let tables: Vec<Update> = nodes.iter().filter_map(|node| node.full_table()).collect();
        let ads: usize = tables.iter().map(Update::entry_count).sum();
        group.throughput(Throughput::Elements(ads as u64));
        for (sink, health) in [("null", false), ("null+health", true)] {
            group.bench_function(BenchmarkId::new(format!("fresh/{sink}"), n), |b| {
                b.iter(|| {
                    let mut tracer = UpdateTracer::with_node_count(&telemetry(health, n), n);
                    sweep(&mut tracer, &tables);
                    tracer
                })
            });
            let mut tracer = UpdateTracer::with_node_count(&telemetry(health, n), n);
            sweep(&mut tracer, &tables);
            group.bench_function(BenchmarkId::new(format!("steady/{sink}"), n), |b| {
                b.iter(|| sweep(&mut tracer, &tables))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_observe);
criterion_main!(benches);
