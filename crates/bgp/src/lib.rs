//! Abstract BGP path-vector substrate (Griffin–Wilfong style).
//!
//! This crate implements the computational model of Sect. 5 of the paper: a
//! network of Autonomous Systems exchanging *routing tables* with their
//! physical neighbors. Each node stores, per destination, the selected
//! lowest-cost AS path and its cost; a node re-advertises exactly when its
//! table changes. One [`engine::Engine`] drives the same node logic —
//! one stage loop, one send path, one wire tap, one topology-event path
//! and one auditor, deterministic and observed through one instrument
//! bundle — over two transports:
//!
//! * [`engine::SyncEngine`] (`Engine<N, LockStep>`) — the paper's
//!   synchronous-stage model: each stage every node ingests the tables its
//!   neighbors sent last stage, recomputes, and re-advertises on change.
//!   Used by all experiments; its stage counter is the quantity bounded by
//!   `d` (plain BGP) and `max(d, d′)` (the pricing extension).
//! * [`chaos::ChaosEngine`] (`Engine<N, Sessions>`) — the same stages over
//!   seeded-faulty channels behind a sequenced session layer, showing the
//!   mechanism self-stabilizes. Under the delay-only
//!   [`chaos::FaultPlan::asynchronous`] it is the asynchronous model —
//!   FIFO per link, a seed-drawn interleaving across links — showing that
//!   nothing depends on stage synchrony.
//!
//! The node logic is stated once, as [`Node`]: ingest the neighbors'
//! tables, select ([`RouteSelector`]), relax the price array, advertise on
//! change. A [`PricePolicy`] names what a cost model changes in that step —
//! nothing for plain BGP ([`NoPrices`], i.e. [`PlainBgpNode`]); two terms
//! of the relaxation bound for the pricing models of `bgpvcg-core`, which
//! are two more policies of the same node. The paper's price computation is
//! deliberately an *extension* of BGP, not a new protocol.
//!
//! Messages ([`Update`]) carry, per destination, the AS path annotated with
//! each on-path node's declared cost, the path cost, and (for the pricing
//! extension) the price array — the "costs and prices included in the
//! routing message exchanges" of Sect. 6. [`wire`] provides the byte-size
//! model used by the communication-overhead experiments.
//!
//! # Example
//!
//! ```
//! use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
//! use bgpvcg_bgp::{engine::SyncEngine, PlainBgpNode};
//! use bgpvcg_netgraph::Cost;
//!
//! let g = fig1();
//! let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
//! let report = engine.run_to_convergence();
//! // Plain BGP converges within d = 3 stages on Fig. 1.
//! assert!(report.stages <= 3);
//! let x = engine.node(Fig1::X);
//! assert_eq!(x.selector().route(Fig1::Z).unwrap().transit_cost(), Cost::new(3));
//! ```

#![forbid(unsafe_code)]

pub mod adversary;
pub mod chaos;
pub mod engine;
pub mod forwarding;
pub mod telemetry;
pub mod wire;

mod dynamics;
mod message;
mod node;
mod rib;
mod selector;
mod stats;

pub use adversary::{Accusation, Adversary, Strategy, WireAuditor, WireFinding};
pub use chaos::{ChaosEngine, ChaosReport, FaultPlan};
pub use dynamics::{LocalEvent, TopologyEvent};
pub use message::{Frame, FrameKind, PathEntry, RouteAdvertisement, RouteInfo, SharedPath, Update};
pub use node::{NoPrices, Node, PlainBgpNode, PricePolicy, ProtocolNode};
pub use rib::{PriceSlab, RibCell, RouteView};
pub use selector::{RouteSelector, SelectedRoute};
pub use stats::StateSnapshot;
