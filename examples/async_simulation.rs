//! Asynchrony does not matter: one FIFO per link, a seeded scheduler.
//!
//! The paper proves its convergence bound in a synchronous-stage model, but
//! the algorithm itself is a monotone relaxation whose fixpoint is unique.
//! This example runs a random Internet-like topology with no stages at
//! all — messages are delivered one at a time, in per-link FIFO order but
//! otherwise in whatever order a seeded scheduler draws — under three
//! seeds, and shows the resulting routes and prices are *identical* to both
//! the synchronous engine and the centralized VCG reference.
//!
//! Run with: `cargo run --example async_simulation`

use bgp_vcg::netgraph::generators::{barabasi_albert, random_costs};
use bgp_vcg::{protocol, vcg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let n = 40;
    let costs = random_costs(n, 1, 10, &mut rng);
    let graph = barabasi_albert(costs, 2, &mut rng);
    println!(
        "Barabási–Albert topology: {n} ASs, {} links — one FIFO per directed link.",
        graph.link_count()
    );

    let reference = vcg::compute(&graph)?;

    let t0 = Instant::now();
    let sync_run = protocol::run_sync(&graph)?;
    let sync_time = t0.elapsed();
    println!(
        "Synchronous engine:  {} stages, {} messages in {sync_time:?}.",
        sync_run.report.stages, sync_run.report.messages
    );

    for seed in 1..=3 {
        let t0 = Instant::now();
        let (async_outcome, report) = protocol::run_async(&graph, seed)?;
        let async_time = t0.elapsed();
        println!(
            "Asynchronous run, seed {seed}: {} messages in {async_time:?} (each seed replays its own interleaving).",
            report.messages
        );
        assert_eq!(
            async_outcome, reference,
            "async outcome must equal the centralized VCG prices"
        );
    }
    assert_eq!(sync_run.outcome, reference);
    println!("\nAll runs produced bit-identical routes and prices: the fixpoint is unique.");
    Ok(())
}
