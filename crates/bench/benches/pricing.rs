//! Criterion benches for the mechanism: Theorem-1 price computation,
//! payment settlement (Sect. 6.4), overcharge analysis (Sect. 7), and the
//! distributed counterpart's per-node step — one `PricingBgpNode::handle`
//! call (ingest, select, relax, advertise-on-change) on converged tables.

use bgpvcg_bench::families::Family;
use bgpvcg_bench::fixpoint::converged;
use bgpvcg_bgp::ProtocolNode;
use bgpvcg_core::{accounting::PaymentLedger, overcharge::OverchargeReport, vcg};
use bgpvcg_netgraph::TrafficMatrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn bench_vcg_compute(c: &mut Criterion) {
    let mut group = c.benchmark_group("vcg_compute");
    group.sample_size(10);
    for &n in &[16usize, 32, 64] {
        let g = Family::BarabasiAlbert.build(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| vcg::compute(black_box(g)).unwrap())
        });
    }
    group.finish();
}

fn bench_settlement(c: &mut Criterion) {
    let mut group = c.benchmark_group("payment_settlement");
    for &n in &[32usize, 64, 128] {
        let g = Family::BarabasiAlbert.build(n, 7);
        let outcome = vcg::compute(&g).unwrap();
        let traffic = TrafficMatrix::uniform(n, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(&outcome, &traffic),
            |b, (outcome, traffic)| {
                b.iter(|| PaymentLedger::settle(black_box(outcome), black_box(traffic)))
            },
        );
    }
    group.finish();
}

fn bench_overcharge_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("overcharge_analysis");
    for &n in &[32usize, 64, 128] {
        let g = Family::BarabasiAlbert.build(n, 7);
        let outcome = vcg::compute(&g).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &outcome, |b, outcome| {
            b.iter(|| OverchargeReport::analyze(black_box(outcome)))
        });
    }
    group.finish();
}

/// The price relaxation as the engines run it: AS 0 of a converged network
/// handles its first neighbour's two alternating tables (see
/// `fixpoint::converged`). Each call overwrites the neighbour's Rib-In
/// column, re-selects and re-relaxes every destination it names, and emits
/// the price deltas that result — the steady-state stage of Sect. 6, with
/// nothing cold in it. Two shapes: the Barabási–Albert hub (`hub/n`), many
/// neighbours and few-hop paths; and a node of the 128-ring (`ring/128`),
/// two neighbours and paths of up to 64 hops, where the relaxation's cost
/// in path length dominates.
fn bench_handle(c: &mut Criterion) {
    let mut group = c.benchmark_group("pricing_handle");
    group.sample_size(20);
    let cases = [
        ("hub", Family::BarabasiAlbert, 64usize),
        ("hub", Family::BarabasiAlbert, 256),
        ("ring", Family::Ring, 128),
    ];
    for (shape, family, n) in cases {
        let (mut nodes, tables) = converged(family, n);
        let inboxes = tables.map(|table| [Arc::new(table)]);
        let node = &mut nodes[0];
        group.throughput(Throughput::Elements(inboxes[0][0].entry_count() as u64));
        let id = BenchmarkId::new("relax_and_emit", format!("{shape}/{n}"));
        group.bench_function(id, |b| {
            let mut flip = 0;
            b.iter(|| {
                flip ^= 1;
                black_box(node.handle(black_box(&inboxes[flip])))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_vcg_compute,
    bench_settlement,
    bench_overcharge_analysis,
    bench_handle
);
criterion_main!(benches);
