//! Memory, counted. `vcg::compute`: beyond the outcome it returns, it may
//! hold only the LCP trees and the avoidance pass's `O(n + m)` scratch at
//! any moment — no structure that grows with the number of `(i, j, k)`
//! facts, which is ≈ n³ on a ring. The distributed run: a converged
//! engine retains its nodes' Rib-In, table and price rows, and no second
//! copy of what each node advertised.
//!
//! This binary installs the shared counting allocator and holds one test,
//! so no other test's thread allocates while it counts. Every case over
//! budget is reported before the test fails.

mod counting;

use bgp_vcg::netgraph::generators::structured::ring;
use bgp_vcg::{protocol, vcg, Cost};
use counting::{ba, counted, Ledger};

#[test]
fn vcg_compute_holds_no_more_than_the_lcp_trees_beyond_its_outcome() {
    let mut ledger = Ledger::default();
    for (name, g) in [
        ("ring(128)", ring(128, Cost::new(1))),
        ("BA n=256", ba(256)),
    ] {
        let (outcome, heap) = counted(|| vcg::compute(&g).expect("biconnected"));
        drop(outcome);
        let case = format!("{name}: vcg::compute's transient, bytes");
        ledger.at_most(&case, heap.peak - heap.bytes, 2_000_000);
    }
    // 10 % above the 5 671 280 bytes it holds; with every path an array of
    // its own, copied on each selection, it held 7 474 576.
    let (engine, heap) = counted(|| {
        let mut engine = protocol::build_sync_engine(&ba(128)).expect("biconnected");
        assert!(engine.run_to_convergence().converged);
        engine
    });
    drop(engine);
    ledger.at_most(
        "BA n=128: a converged engine retains, bytes",
        heap.bytes,
        6_240_000,
    );
    ledger.check();
}
