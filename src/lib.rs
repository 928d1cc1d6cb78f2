//! # bgp-vcg — Strategyproof lowest-cost interdomain routing
//!
//! A faithful, production-quality Rust implementation of
//!
//! > Joan Feigenbaum, Christos Papadimitriou, Rahul Sami, Scott Shenker.
//! > *A BGP-based mechanism for lowest-cost routing.* PODC 2002
//! > (journal version: Distributed Computing 18(1), 2005).
//!
//! The paper treats interdomain routing as a game: every Autonomous System
//! (AS) has a private per-packet transit cost, packets should follow
//! lowest-cost paths, and each transit node is paid a VCG price that makes
//! truthful cost declaration a dominant strategy (**Theorem 1**). The
//! paper's key contribution is that these prices can be computed by a
//! *straightforward extension of BGP* — same messages, same neighbors, a
//! constant-factor increase in state — converging in `max(d, d′)`
//! synchronous stages (**Theorem 2**).
//!
//! This crate re-exports the full implementation:
//!
//! * [`netgraph`] — AS graphs, costs, traffic matrices, topology generators.
//! * [`lcp`] — centralized lowest-cost routing, k-avoiding paths, diameters.
//! * [`bgp`] — the abstract BGP substrate: path-vector nodes and one stage
//!   engine, lock-step or over seeded-faulty sessions (asynchronous under
//!   a delay-only fault plan).
//! * [`core`] — the mechanism itself: Theorem-1 pricing, the distributed
//!   price-computation protocol, payment accounting, the strategyproofness
//!   and efficiency-loss harnesses, overcharging analysis, baselines, the
//!   per-neighbor-cost extension (centralized and distributed), the
//!   replay-and-diff computation auditor, and the Theorem-1 uniqueness
//!   probe.
//!
//! The most common entry points are also re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use bgp_vcg::{protocol, vcg};
//! use bgp_vcg::netgraph::generators::structured::{fig1, Fig1};
//! use bgp_vcg::netgraph::Cost;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Fig. 1 example network.
//! let graph = fig1();
//!
//! // Run the BGP-based distributed mechanism...
//! let run = protocol::run_sync(&graph)?;
//!
//! // ...and check it against the centralized Theorem-1 prices.
//! assert_eq!(run.outcome, vcg::compute(&graph)?);
//!
//! // Sect. 4's worked example: for X→Z traffic, D is paid 3 and B is paid 4.
//! assert_eq!(run.outcome.price(Fig1::X, Fig1::Z, Fig1::D), Some(Cost::new(3)));
//! assert_eq!(run.outcome.price(Fig1::X, Fig1::Z, Fig1::B), Some(Cost::new(4)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use bgpvcg_bgp as bgp;
pub use bgpvcg_core as core;
pub use bgpvcg_lcp as lcp;
pub use bgpvcg_netgraph as netgraph;

pub use bgpvcg_core::{
    accounting, baseline, overcharge, protocol, strategy, vcg, PairOutcome, PricingBgpNode,
    RoutingOutcome,
};
pub use bgpvcg_netgraph::{AsGraph, AsId, Cost, GraphError, TrafficMatrix};
