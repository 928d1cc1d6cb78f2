//! Criterion microbench for the wire codec — v2 (varint + path-delta +
//! price-delta), the one wire format — encode and decode, over
//! realistic message mixes harvested from converged networks.
//!
//! Two workloads per size:
//!
//! * **full** — every node's full-table UPDATE at the pricing fixpoint,
//!   the cold-start / session-resync payload;
//! * **delta** — the same stream rewritten as price-delta advertisements
//!   (one entry per price cell), the steady-state relaxation traffic wire
//!   v2 is optimized for.
//!
//! v2 encoding goes through `encode_update_v2_into` with one reused
//! scratch buffer — the zero-allocation hot path the engines run on every
//! broadcast — so this bench also tracks the allocation discipline
//! `tests/allocations.rs` counts.
//!
//! Run with: `cargo bench -p bgpvcg-bench --bench codec`

use bgpvcg_bench::families::Family;
use bgpvcg_bgp::{wire, ProtocolNode, RouteInfo, Update};
use bgpvcg_core::protocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Every node's full converged table at the pricing fixpoint.
fn full_tables(n: usize) -> Vec<Update> {
    let g = Family::BarabasiAlbert.build(n, 61);
    let mut engine = protocol::build_sync_engine(&g).expect("valid graph");
    assert!(engine.run_to_convergence().converged);
    engine
        .into_nodes()
        .iter()
        .filter_map(ProtocolNode::full_table)
        .collect()
}

/// Rewrites a full-table stream as the equivalent price-delta stream:
/// each reachable advertisement becomes a delta against its own path with
/// every price cell listed — the shape of steady-state relaxation rounds.
fn as_deltas(updates: &[Update]) -> Vec<Update> {
    updates
        .iter()
        .map(|u| {
            let mut u = u.clone();
            for ad in &mut u.advertisements {
                if let RouteInfo::Reachable { path, prices, .. } = &ad.info {
                    ad.info = RouteInfo::PriceDelta {
                        base_path_hash: path.hash64(),
                        entries: prices
                            .iter()
                            .copied()
                            .enumerate()
                            .map(|(i, p)| (u16::try_from(i).unwrap(), p))
                            .collect(),
                    };
                }
            }
            u
        })
        .collect()
}

fn ad_count(updates: &[Update]) -> usize {
    updates.iter().map(Update::entry_count).sum()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    group.sample_size(20);
    for &n in &[64usize, 256] {
        let full = full_tables(n);
        let delta = as_deltas(&full);
        assert_eq!(ad_count(&full), ad_count(&delta));
        for (label, stream) in [("full", &full), ("delta", &delta)] {
            group.bench_with_input(
                BenchmarkId::new(format!("v2_{label}"), n),
                stream,
                |b, stream| {
                    b.iter(|| {
                        let mut scratch = Vec::new();
                        let mut total = 0usize;
                        for u in stream {
                            total += wire::update_size_v2_with(&mut scratch, u);
                        }
                        black_box(total)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode");
    group.sample_size(20);
    for &n in &[64usize, 256] {
        let full = full_tables(n);
        let delta = as_deltas(&full);
        for (label, stream) in [("full", &full), ("delta", &delta)] {
            let frames: Vec<Vec<u8>> = stream.iter().map(wire::encode_update_v2).collect();
            group.bench_with_input(
                BenchmarkId::new(format!("v2_{label}"), n),
                &frames,
                |b, frames| {
                    b.iter(|| {
                        let mut entries = 0usize;
                        for bytes in frames {
                            entries += wire::decode_update(bytes).unwrap().entry_count();
                        }
                        black_box(entries)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
