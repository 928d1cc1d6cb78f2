//! Asynchrony does not matter: FIFO per link, a seed-drawn interleaving.
//!
//! The paper proves its convergence bound in a synchronous-stage model, but
//! the algorithm itself is a monotone relaxation whose fixpoint is unique;
//! all it needs from the network is in-order delivery on each link, the
//! guarantee BGP gets from TCP. This example runs a random Internet-like
//! topology over sequenced sessions whose frames
//! [`FaultPlan::asynchronous`] holds back at random — so every link stays
//! FIFO while the links interleave in an order drawn from the seed — under
//! three seeds, and shows the resulting routes and prices are *identical*
//! to both the synchronous engine and the centralized VCG reference.
//!
//! Run with: `cargo run --example async_simulation`

use bgp_vcg::bgp::FaultPlan;
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
        "Barabási–Albert topology: {n} ASs, {} links — one FIFO session per directed link.",
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
        let (async_outcome, report) =
            protocol::run_chaos(&graph, FaultPlan::asynchronous(seed), 1_000)?;
        let async_time = t0.elapsed();
        println!(
            "Asynchronous run, seed {seed}: {} frames, {} of them late, in {async_time:?} (each seed replays its own interleaving).",
            report.messages, report.frames_delayed
        );
        assert!(report.converged, "the run must quiesce: {report}");
        assert_eq!(
            async_outcome, reference,
            "async outcome must equal the centralized VCG prices"
        );
    }
    assert_eq!(sync_run.outcome, reference);
    println!("\nAll runs produced bit-identical routes and prices: the fixpoint is unique.");
    Ok(())
}
