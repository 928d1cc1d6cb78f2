//! Criterion benches for the routing substrate: per-destination Dijkstra,
//! all-pairs LCPs, the Bellman–Ford fixpoint, k-avoiding path tables, and
//! `vcg::compute` on top of them — the centralized Theorem-1 yardstick
//! behind every experiment and the repository benchmark's `lcp.*` and
//! `core.vcg.*` layers.

use bgpvcg_bench::families::Family;
use bgpvcg_core::vcg;
use bgpvcg_lcp::avoiding::AvoidanceTable;
use bgpvcg_lcp::{bellman, shortest_tree, AllPairsLcp};
use bgpvcg_netgraph::AsId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_shortest_tree(c: &mut Criterion) {
    // One destination's tree: the (cost, hops, parent)-keyed Dijkstra, and
    // the staged fixpoint (its oracle) at the sizes where it is affordable.
    let mut group = c.benchmark_group("shortest_tree");
    for &n in &[32usize, 256, 1024] {
        let g = Family::BarabasiAlbert.build(n, 5);
        group.bench_with_input(BenchmarkId::new("dijkstra", n), &g, |b, g| {
            b.iter(|| shortest_tree(black_box(g), AsId::new(0)))
        });
        if n <= 256 {
            group.bench_with_input(BenchmarkId::new("bellman_fixpoint", n), &g, |b, g| {
                b.iter(|| bellman::fixpoint(black_box(g), AsId::new(0)))
            });
        }
    }
    group.finish();
}

fn bench_all_pairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_pairs_lcp");
    group.sample_size(20);
    for &n in &[32usize, 256, 512, 1024] {
        let g = Family::BarabasiAlbert.build(n, 5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| AllPairsLcp::compute(black_box(g)))
        });
    }
    group.finish();
}

fn bench_avoidance_table(c: &mut Criterion) {
    // The punctured-Dijkstra oracle against the one subtree-local solver.
    // The oracle stops at n = 256: it grows roughly as n³ (3.5 s at 256), so
    // one call at 1024 takes minutes.
    let mut group = c.benchmark_group("avoidance_table");
    group.sample_size(10);
    for &n in &[32usize, 256, 512, 1024] {
        let g = Family::BarabasiAlbert.build(n, 5);
        let lcp = AllPairsLcp::compute(&g);
        if n <= 256 {
            group.bench_with_input(
                BenchmarkId::new("punctured_oracle", n),
                &(&g, &lcp),
                |b, (g, lcp)| b.iter(|| AvoidanceTable::compute(black_box(*g), black_box(lcp))),
            );
        }
        group.bench_with_input(
            BenchmarkId::new("subtree_local", n),
            &(&g, &lcp),
            |b, (g, lcp)| b.iter(|| AvoidanceTable::compute_fast(black_box(*g), black_box(lcp))),
        );
    }
    group.finish();
}

fn bench_vcg_compute(c: &mut Criterion) {
    // The whole centralized mechanism: validation, all-pairs LCPs, and the
    // subtree-local pass writing each price into the outcome table. Not
    // at 1024, whose table alone is tens of MB.
    let mut group = c.benchmark_group("vcg_compute");
    group.sample_size(10);
    for &n in &[32usize, 256, 512] {
        let g = Family::BarabasiAlbert.build(n, 5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| vcg::compute(black_box(g)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_shortest_tree,
    bench_all_pairs,
    bench_avoidance_table,
    bench_vcg_compute
);
criterion_main!(benches);
