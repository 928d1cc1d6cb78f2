//! Memory, counted: what a converged lock-step engine retains. A node's
//! Rib-In cell is a path handle, its cost and a span into the price
//! storage its selector holds, and a node's own price rows share one slab
//! too, so neither a priced route nor a price row costs a heap block of its
//! own. A selected path is one node on its next hop's path, so a route
//! costs one path node, not a copy of the path. The budgets bound both the
//! live bytes and the live blocks.
//!
//! This binary installs its own counting allocator and holds one test, so
//! no other test's thread allocates while it counts.

use bgp_vcg::netgraph::generators::{
    barabasi_albert, from_edges, hierarchy, random_costs, HierarchyConfig,
};
use bgp_vcg::{protocol, AsGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Blocks handed out and not yet freed.
static BLOCKS: AtomicUsize = AtomicUsize::new(0);

/// Passes every request to [`System`], keeping [`LIVE`] and [`BLOCKS`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches atomics
// and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        BLOCKS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        BLOCKS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        BLOCKS.fetch_sub(1, Ordering::SeqCst);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        LIVE.fetch_add(new_size, Ordering::SeqCst);
        // SAFETY: as for `dealloc`; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The two-tier hierarchy of the benchmark's `warm-churn-hier128` and
/// `chaos-hier128` workloads, drawn from seed 61.
fn hier128() -> AsGraph {
    let config = HierarchyConfig {
        core_size: 12,
        stub_count: 116,
        core_cost: (1, 3),
        stub_cost: (4, 10),
    };
    hierarchy(config, &mut StdRng::seed_from_u64(61))
}

/// The benchmark's `cold-ba256` graph: Barabási–Albert, n = 256, m = 2,
/// costs 1..=10, drawn from seed 61.
fn ba256() -> AsGraph {
    let mut rng = StdRng::seed_from_u64(61);
    barabasi_albert(random_costs(256, 1, 10, &mut rng), 2, &mut rng)
}

/// The benchmark's `cold-ring128` graph: a 128-cycle, costs 1..=10, drawn
/// from seed 61. Its routes average 33 entries.
fn ring128() -> AsGraph {
    let n = 128u32;
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let mut rng = StdRng::seed_from_u64(61);
    from_edges(random_costs(n as usize, 1, 10, &mut rng), &edges)
}

/// What a converged lock-step engine on `g` retains: live bytes and live
/// blocks after the run, above those before the build.
fn retained(g: &AsGraph) -> (usize, usize) {
    let (bytes, blocks) = (LIVE.load(Ordering::SeqCst), BLOCKS.load(Ordering::SeqCst));
    let mut engine = protocol::build_sync_engine(g).expect("biconnected");
    assert!(engine.run_to_convergence().converged);
    let held = (
        LIVE.load(Ordering::SeqCst) - bytes,
        BLOCKS.load(Ordering::SeqCst) - blocks,
    );
    drop(engine);
    held
}

#[test]
fn a_converged_engine_holds_no_heap_block_per_priced_route() {
    // Budgets are about 10 % above what the engines hold: 4 630 072 bytes
    // in 22 191 blocks (hierarchy), 24 315 736 bytes in 86 025 blocks (BA)
    // and 15 891 552 bytes in 22 538 blocks (ring). With every path an
    // array of its own, copied on each selection, and a 40-byte Rib-In
    // cell, the same engines held 6 375 448, 32 184 952 and 24 458 848
    // bytes; with a price vector per Rib-In cell and per price row as
    // well, the first two held 9 319 072 bytes in 97 777 blocks and
    // 37 213 008 bytes in 384 762 blocks.
    let cases = [
        ("hier128", hier128(), 5_100_000, 24_500),
        ("BA n=256", ba256(), 26_800_000, 95_000),
        ("ring128", ring128(), 17_500_000, 24_800),
    ];
    let mut over = Vec::new();
    for (name, g, byte_budget, block_budget) in cases {
        let (bytes, blocks) = retained(&g);
        println!("{name}: a converged engine retains {bytes} bytes in {blocks} blocks");
        if bytes > byte_budget {
            over.push(format!("{name}: {bytes} bytes, over {byte_budget}"));
        }
        if blocks > block_budget {
            over.push(format!("{name}: {blocks} blocks, over {block_budget}"));
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}
