//! The BGP-based VCG mechanism for lowest-cost interdomain routing.
//!
//! This crate implements the contribution of Feigenbaum, Papadimitriou,
//! Sami, and Shenker, *"A BGP-based mechanism for lowest-cost routing"*
//! (PODC 2002; Distributed Computing 18(1), 2005):
//!
//! * [`vcg`] — **Theorem 1**: the unique strategyproof pricing scheme that
//!   pays nothing to nodes carrying no transit traffic. Computed centrally
//!   from lowest-cost and k-avoiding path costs; serves as ground truth.
//! * [`PricingBgpNode`] — **Sect. 6**: the distributed price computation as
//!   a straightforward extension of BGP — the four-case relaxation of the
//!   paper's Fig. 3. It is `bgpvcg-bgp`'s one `Node` under the [`Fpss`]
//!   policy (every term of the relaxation bound the paper's own); the
//!   per-neighbor model below is the same node under
//!   [`neighbor_costs::Margins`], which changes two of those terms.
//! * [`protocol`] — turnkey runners wiring pricing nodes into the
//!   synchronous or the session engine (lossy, or asynchronous under a
//!   delay-only plan) and extracting a [`RoutingOutcome`].
//! * [`accounting`] — **Sect. 6.4**: per-packet tallies turning prices into
//!   payments under a traffic matrix.
//! * [`strategy`] — the game-theoretic harness: agent utilities, deviation
//!   experiments, and strategyproofness verification.
//! * [`overcharge`] — **Sect. 7**: how far total payments exceed path costs.
//! * [`neighbor_costs`] — **Sect. 3's extension**: per-neighbor (edge)
//!   transit costs with the nodes still the strategic agents.
//! * [`audit`] — a first answer to **Sect. 7's open problem** (what stops
//!   an AS from running a different algorithm?): replay-and-diff auditing
//!   of converged advertisements.
//! * [`uniqueness`] — probing **Theorem 1's uniqueness half**: every scaled
//!   payment rule around the VCG one is manipulable.
//! * [`baseline`] — the predecessors the paper contrasts itself with:
//!   Nisan–Ronen's edge-agent VCG and the centralized single-pair
//!   node-agent mechanism.
//!
//! # Quickstart
//!
//! ```
//! use bgpvcg_core::{protocol, vcg};
//! use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
//! use bgpvcg_netgraph::Cost;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = fig1();
//! // Centralized Theorem-1 prices...
//! let reference = vcg::compute(&g)?;
//! // ...and the BGP-based distributed computation.
//! let run = protocol::run_sync(&g)?;
//! assert_eq!(run.outcome, reference);
//! // The paper's worked example: for X→Z traffic, D is paid 3 and B is paid 4.
//! assert_eq!(run.outcome.price(Fig1::X, Fig1::Z, Fig1::D), Some(Cost::new(3)));
//! assert_eq!(run.outcome.price(Fig1::X, Fig1::Z, Fig1::B), Some(Cost::new(4)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod accounting;
pub mod audit;
pub mod baseline;
pub mod econ;
pub mod neighbor_costs;
pub mod overcharge;
pub mod protocol;
pub mod strategy;
pub mod uniqueness;
pub mod vcg;

mod errors;
mod invariants;
mod outcome;
mod pricing_node;

pub use errors::MechanismError;
pub use outcome::{OutcomeBuilder, PairOutcome, RoutingOutcome};
pub use pricing_node::{Fpss, PricingBgpNode};
