//! Memory, counted. `vcg::compute`: beyond the outcome it returns, it may
//! hold only the LCP trees and the avoidance pass's `O(n + m)` scratch at
//! any moment — no structure that grows with the number of `(i, j, k)`
//! facts, which is ≈ n³ on a ring. The distributed run: a converged
//! engine retains its nodes' Rib-In, table and price rows, and no second
//! copy of what each node advertised.
//!
//! This binary installs its own counting allocator and holds one test, so
//! no other test's thread allocates while it counts.

use bgp_vcg::netgraph::generators::structured::ring;
use bgp_vcg::netgraph::generators::{barabasi_albert, random_costs};
use bgp_vcg::{protocol, vcg, AsGraph, Cost};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested and not yet freed, and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Passes every request to [`System`], keeping [`LIVE`] and [`PEAK`].
struct Counting;

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches atomics
// and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: as for `dealloc`; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most `vcg::compute` may hold beyond its returned outcome.
const BUDGET: usize = 2_000_000;

/// The most a converged lock-step engine on [`ba128`] may retain: 10 %
/// above the 5 671 472 bytes it holds. With every path an array of its
/// own, copied on each selection, it held 7 474 576.
const ENGINE_BUDGET: usize = 6_240_000;

/// The graph the engine converges on: Barabási–Albert, n = 128, m = 2.
fn ba128() -> AsGraph {
    let mut rng = StdRng::seed_from_u64(61);
    barabasi_albert(random_costs(128, 1, 10, &mut rng), 2, &mut rng)
}

/// The heap a converged lock-step engine on `g` retains: what is live
/// after the run above what was live before the build.
fn retained(g: &AsGraph) -> usize {
    let start = LIVE.load(Ordering::SeqCst);
    let mut engine = protocol::build_sync_engine(g).expect("biconnected");
    assert!(engine.run_to_convergence().converged);
    let held = LIVE.load(Ordering::SeqCst) - start;
    drop(engine);
    held
}

/// `vcg::compute`'s transient on `g`: its live peak above the heap it
/// started from, less the outcome it returns.
fn transient(g: &AsGraph) -> usize {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let outcome = vcg::compute(g).expect("biconnected");
    let peak = PEAK.load(Ordering::SeqCst);
    let held = LIVE.load(Ordering::SeqCst) - start;
    drop(outcome);
    peak - start - held
}

#[test]
fn vcg_compute_holds_no_more_than_the_lcp_trees_beyond_its_outcome() {
    let mut rng = StdRng::seed_from_u64(61);
    let ba = barabasi_albert(random_costs(256, 1, 10, &mut rng), 2, &mut rng);
    for (name, g) in [("ring(128)", ring(128, Cost::new(1))), ("BA n=256", ba)] {
        let bytes = transient(&g);
        println!("{name}: transient {bytes} bytes");
        assert!(
            bytes <= BUDGET,
            "{name}: vcg::compute's transient is {bytes} bytes, over {BUDGET}"
        );
    }
    let bytes = retained(&ba128());
    println!("BA n=128: a converged engine retains {bytes} bytes");
    assert!(
        bytes <= ENGINE_BUDGET,
        "BA n=128: a converged engine retains {bytes} bytes, over {ENGINE_BUDGET}"
    );
}
