//! Centralized lowest-cost-path (LCP) routing with node costs.
//!
//! This crate is the routing substrate the BGP-VCG mechanism assumes exists
//! ("BGP, suitably configured" — paper, Sect. 3): given an AS graph with
//! declared per-packet transit costs, it computes
//!
//! * the lowest-cost route between every pair of ASs, with a **deterministic
//!   loop-free tie-break** so that for each destination `j` the selected
//!   routes form the tree `T(j)` the paper's Sect. 6 requires
//!   ([`DestinationTree`], [`AllPairsLcp`]);
//! * lowest-cost **k-avoiding** routes — the counterfactual paths that
//!   define VCG prices ([`avoiding`]);
//! * the hop diameters `d` (max hops of any LCP) and `d′` (max hops of any
//!   lowest-cost k-avoiding path) that bound the protocol's convergence time
//!   ([`diameter`]);
//! * a synchronous Bellman–Ford fixpoint ([`bellman`]) whose per-stage
//!   semantics exactly match the distributed protocol, used as a
//!   cross-check and to measure convergence stages centrally.
//!
//! Path costs count **transit nodes only**: the endpoints of a route
//! contribute nothing (paper, Sect. 3: `I_i(c; i, j) = I_j(c; i, j) = 0`).
//! Every solver is generic over [`CostModel`] — what a transit node charges
//! for a packet handed over by a neighbour — so the paper's node costs and
//! its per-neighbour extension share one Dijkstra and one avoidance pass.
//!
//! # Example
//!
//! ```
//! use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
//! use bgpvcg_lcp::AllPairsLcp;
//! use bgpvcg_netgraph::Cost;
//!
//! let g = fig1();
//! let lcp = AllPairsLcp::compute(&g);
//! let route = lcp.route(Fig1::X, Fig1::Z).expect("connected");
//! // The paper: the LCP from X to Z is X B D Z with transit cost 3.
//! assert_eq!(route.transit_cost(), Cost::new(3));
//! assert_eq!(route.nodes(), &[Fig1::X, Fig1::B, Fig1::D, Fig1::Z]);
//! ```

#![forbid(unsafe_code)]

pub mod avoiding;
pub mod bellman;
pub mod diameter;
pub mod enumerate;

mod all_pairs;
mod dijkstra;
mod route;
mod tree;

pub use all_pairs::AllPairsLcp;
pub use dijkstra::{shortest_tree, CostModel};
pub use route::Route;
pub use tree::DestinationTree;
