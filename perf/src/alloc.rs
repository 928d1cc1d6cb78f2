//! Counting allocator for the traced pass.
//!
//! This is the only `unsafe` in the benchmark and it is confined to this
//! file. (`perf/` lies outside the `crates/` + `src/` trees `cargo xtask`
//! scans, so its `unsafe-audit` and `Instant::now` rules do not see it;
//! the workspace's `unsafe_code = "deny"` does not apply either, because
//! `perf/` is not a workspace member.)
//!
//! Counting is off unless a traced run switches it on: end-to-end passes
//! go straight through to the system allocator behind one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// All four are statistics that publish no other data, and the benchmark is
// single-threaded while it counts, so `Relaxed` is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

/// Passes every request to [`System`], counting it while enabled.
pub struct Counting;

fn note_alloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    }
}

fn note_free(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // Memory allocated before counting began may be freed while it is
        // on; saturate instead of wrapping below zero.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size as u64))
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: as for `dealloc`; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals since [`start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// High-water mark of bytes requested and not yet freed.
    pub peak_live_bytes: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK_LIVE.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Reads the counters without stopping.
pub fn read() -> Counts {
    Counts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed),
    }
}

/// Switches counting off and returns the totals.
pub fn stop() -> Counts {
    ENABLED.store(false, Ordering::Relaxed);
    read()
}
