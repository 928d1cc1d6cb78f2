//! Criterion benches for the distributed protocol: plain BGP vs the
//! pricing extension to convergence on the synchronous engine — the
//! wall-clock companion to experiments E5/E6.

use bgpvcg_bench::families::Family;
use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::PlainBgpNode;
use bgpvcg_core::PricingBgpNode;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_plain_bgp(c: &mut Criterion) {
    let mut group = c.benchmark_group("plain_bgp_convergence");
    group.sample_size(20);
    for &n in &[32usize, 64, 128] {
        let g = Family::BarabasiAlbert.build(n, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let mut engine = SyncEngine::new(g, PlainBgpNode::from_graph(g));
                black_box(engine.run_to_convergence())
            })
        });
    }
    group.finish();
}

fn bench_pricing_bgp(c: &mut Criterion) {
    let mut group = c.benchmark_group("pricing_bgp_convergence");
    group.sample_size(10);
    for &n in &[32usize, 64, 128] {
        let g = Family::BarabasiAlbert.build(n, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let mut engine = SyncEngine::new(g, PricingBgpNode::from_graph(g));
                black_box(engine.run_to_convergence())
            })
        });
    }
    group.finish();
}

fn bench_families_at_fixed_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("pricing_convergence_by_family");
    group.sample_size(10);
    for family in Family::ALL {
        let g = family.build(48, 3);
        group.bench_with_input(BenchmarkId::from_parameter(family.name()), &g, |b, g| {
            b.iter(|| {
                let mut engine = SyncEngine::new(g, PricingBgpNode::from_graph(g));
                black_box(engine.run_to_convergence())
            })
        });
    }
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    use bgpvcg_bgp::{wire, PathEntry, RouteAdvertisement, RouteInfo, Update};
    use bgpvcg_netgraph::{AsId, Cost};
    // A realistic full-table update: 64 destinations, 5-hop paths, priced.
    let update = Update {
        from: AsId::new(0),
        sender_costs: (1..5)
            .map(|i| (AsId::new(i), Cost::new(u64::from(i))))
            .collect(),
        advertisements: (0..64u32)
            .map(|dest| RouteAdvertisement {
                destination: AsId::new(dest),
                info: RouteInfo::Reachable {
                    path: (0..5)
                        .map(|h| PathEntry {
                            node: AsId::new(dest.wrapping_add(h) % 1000),
                            cost: Cost::new(u64::from(h)),
                        })
                        .collect::<Vec<_>>()
                        .into(),
                    path_cost: Cost::new(10),
                    prices: vec![Cost::new(7); 3],
                },
            })
            .collect(),
        id: 0,
    };
    let bytes = wire::encode_update_v2(&update);
    let mut group = c.benchmark_group("wire_codec");
    group.throughput(criterion::Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_64_entries", |b| {
        b.iter(|| wire::encode_update_v2(black_box(&update)))
    });
    group.bench_function("decode_64_entries", |b| {
        b.iter(|| wire::decode_update(black_box(&bytes)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_plain_bgp,
    bench_pricing_bgp,
    bench_families_at_fixed_size,
    bench_wire_codec
);
criterion_main!(benches);
