//! Memory, counted: what a converged lock-step engine retains. A node's
//! Rib-In cell is a path handle, its cost and a span into the price
//! storage its selector holds, and a node's own price rows share one slab
//! too, so neither a priced route nor a price row costs a heap block of its
//! own. A selected path is one node on its next hop's path, so a route
//! costs one path node, not a copy of the path. The budgets bound both the
//! live bytes and the live blocks.
//!
//! This binary installs the shared counting allocator and holds one test,
//! so no other test's thread allocates while it counts. Every case over
//! budget is reported before the test fails.

mod counting;

use bgp_vcg::protocol;
use counting::{ba, counted, hier128, ring128, Ledger};

#[test]
fn a_converged_engine_holds_no_heap_block_per_priced_route() {
    // Budgets are about 10 % above what the engines hold: 4 629 048 bytes
    // in 22 063 blocks (hierarchy), 24 313 016 bytes in 85 769 blocks (BA)
    // and 15 943 776 bytes in 22 410 blocks (ring). With every path an
    // array of its own, copied on each selection, and a 40-byte Rib-In
    // cell, the same engines held 6 375 448, 32 184 952 and 24 458 848
    // bytes; with a price vector per Rib-In cell and per price row as
    // well, the first two held 9 319 072 bytes in 97 777 blocks and
    // 37 213 008 bytes in 384 762 blocks.
    let cases = [
        ("hier128", hier128(), 5_100_000, 24_500),
        ("BA n=256", ba(256), 26_800_000, 95_000),
        ("ring128", ring128(), 17_500_000, 24_800),
    ];
    let mut ledger = Ledger::default();
    for (name, g, byte_budget, block_budget) in cases {
        let (engine, heap) = counted(|| {
            let mut engine = protocol::build_sync_engine(&g).expect("biconnected");
            assert!(engine.run_to_convergence().converged);
            engine
        });
        drop(engine);
        let case = format!("{name}: a converged engine retains");
        ledger.at_most(&format!("{case}, bytes"), heap.bytes, byte_budget);
        ledger.at_most(&format!("{case}, blocks"), heap.blocks, block_budget);
    }
    ledger.check();
}
