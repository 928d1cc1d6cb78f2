//! The counting allocator the memory tests share, and the seed-61 graphs of
//! the repo benchmark they run on. A test binary that declares `mod
//! counting;` installs it as its global allocator; each such binary holds
//! one test, so no other test's thread allocates while it counts.
//!
//! The allocator keeps live bytes, live blocks, the live peak and the
//! number of allocation events (`alloc`, `alloc_zeroed` or `realloc`), so
//! a buffer that grows is seen as well as one that is made.

// Each binary uses part of this module.
#![allow(dead_code)]

use bgp_vcg::netgraph::generators::{
    barabasi_albert, from_edges, hierarchy, random_costs, HierarchyConfig,
};
use bgp_vcg::AsGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Blocks handed out and not yet freed.
static BLOCKS: AtomicUsize = AtomicUsize::new(0);
/// The high-water mark of [`LIVE`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocation events: every `alloc`, `alloc_zeroed` and `realloc`.
static EVENTS: AtomicUsize = AtomicUsize::new(0);

/// Passes every request to [`System`], keeping the four counters.
struct Counting;

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    PEAK.fetch_max(live, Ordering::SeqCst);
    EVENTS.fetch_add(1, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches atomics
// and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        BLOCKS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
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
        grow(new_size);
        // SAFETY: as for `dealloc`; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What the heap did while one closure ran.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    /// Allocation events.
    pub events: usize,
    /// Live bytes at the end above those at the start.
    pub bytes: usize,
    /// Live blocks at the end above those at the start.
    pub blocks: usize,
    /// The live peak above the start.
    pub peak: usize,
}

/// Runs `f` and reports what it did to the heap.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let (bytes, blocks) = (LIVE.load(Ordering::SeqCst), BLOCKS.load(Ordering::SeqCst));
    PEAK.store(bytes, Ordering::SeqCst);
    let events = EVENTS.load(Ordering::SeqCst);
    let out = f();
    let heap = Heap {
        events: EVENTS.load(Ordering::SeqCst) - events,
        bytes: LIVE.load(Ordering::SeqCst).saturating_sub(bytes),
        blocks: BLOCKS.load(Ordering::SeqCst).saturating_sub(blocks),
        peak: PEAK.load(Ordering::SeqCst) - bytes,
    };
    (out, heap)
}

/// Every failed expectation, kept until all cases have run.
#[derive(Default)]
pub struct Ledger {
    failed: Vec<String>,
}

impl Ledger {
    /// Records `got`, which must equal `want`.
    pub fn exact(&mut self, case: &str, got: usize, want: usize) {
        println!("{case}: {got}");
        if got != want {
            self.failed.push(format!("{case}: {got}, expected {want}"));
        }
    }

    /// Records `got`, which must not exceed `bound`.
    pub fn at_most(&mut self, case: &str, got: usize, bound: usize) {
        println!("{case}: {got} (at most {bound})");
        if got > bound {
            self.failed.push(format!("{case}: {got}, over {bound}"));
        }
    }

    /// Fails, listing every failed expectation, if there was one.
    pub fn check(self) {
        assert!(
            self.failed.is_empty(),
            "unexpected counts:\n{}",
            self.failed.join("\n")
        );
    }
}

/// The two-tier hierarchy of the benchmark's `warm-churn-hier128` and
/// `chaos-hier128` workloads, drawn from seed 61.
pub fn hier128() -> AsGraph {
    let config = HierarchyConfig {
        core_size: 12,
        stub_count: 116,
        core_cost: (1, 3),
        stub_cost: (4, 10),
    };
    hierarchy(config, &mut StdRng::seed_from_u64(61))
}

/// Barabási–Albert with `n` nodes, m = 2, costs 1..=10, drawn from seed
/// 61: the benchmark's `cold-ba256` graph at n = 256.
pub fn ba(n: usize) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(61);
    barabasi_albert(random_costs(n, 1, 10, &mut rng), 2, &mut rng)
}

/// The benchmark's `cold-ring128` graph: a 128-cycle, costs 1..=10, drawn
/// from seed 61. Its routes average 33 entries.
pub fn ring128() -> AsGraph {
    let n = 128u32;
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let mut rng = StdRng::seed_from_u64(61);
    from_edges(random_costs(n as usize, 1, 10, &mut rng), &edges)
}
