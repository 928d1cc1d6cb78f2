//! Criterion microbench for the route-selection layer on its own —
//! `RouteSelector::ingest` and `RouteSelector::decide` over converged
//! tables, without an engine around them.
//!
//! The selector under test is the hub of the Barabási–Albert
//! `fixpoint::converged` network, cloned out of its node; the message is
//! its first neighbour's full converged table.
//!
//! * **ingest/changed** — that table, alternating with a copy whose every
//!   price is one higher, so each call overwrites every Rib-In cell of the
//!   neighbour's column in place: the steady-state relaxation shape.
//! * **ingest/unchanged** — the same table again and again: the
//!   compare-only path a re-delivered update takes.
//! * **decide/converged** — re-selection of every destination on converged
//!   tables: all candidates compared in place, nothing changes, nothing is
//!   allocated.
//!
//! Run with: `cargo bench -p bgpvcg-bench --bench selector`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::fixpoint::converged;
use bgpvcg_netgraph::AsId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("selector_ingest");
    group.sample_size(20);
    for &n in &[64usize, 256] {
        let (nodes, [table, other]) = converged(Family::BarabasiAlbert, n);
        let mut selector = nodes[0].selector().clone();
        group.throughput(Throughput::Elements(table.entry_count() as u64));
        group.bench_function(BenchmarkId::new("changed", n), |b| {
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let update = if flip { &other } else { &table };
                black_box(selector.ingest(black_box(update)).len())
            })
        });
        selector.ingest(&table);
        group.bench_function(BenchmarkId::new("unchanged", n), |b| {
            b.iter(|| black_box(selector.ingest(black_box(&table)).len()))
        });
    }
    group.finish();
}

fn bench_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("selector_decide");
    group.sample_size(20);
    for &n in &[64usize, 256] {
        let mut selector = converged(Family::BarabasiAlbert, n).0[0].selector().clone();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("converged", n), |b| {
            b.iter(|| {
                let changes = (0..n as u32)
                    .filter(|&dest| selector.decide(black_box(AsId::new(dest))))
                    .count();
                assert_eq!(changes, 0, "converged tables re-select themselves");
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_decide);
criterion_main!(benches);
