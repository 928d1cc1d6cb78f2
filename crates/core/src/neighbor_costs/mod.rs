//! The paper's cost-model generalization: per-neighbor transit costs.
//!
//! Sect. 3 of the paper notes that the uniform per-packet cost `c_k` "could
//! be extended to handle a more general case: We could have a different
//! cost depending on which neighbor … in which case we would have a cost
//! associated with each edge, as in the cost model of [12, 16]. (The
//! strategic agents would still be the nodes, and hence the VCG mechanism
//! we describe here would remain strategyproof.)"
//!
//! This module implements that extension: every AS `k` declares one cost
//! per adjacent link — the cost it incurs for a transit packet *received
//! over* that link. A path `i, v_1, …, v_t, j` then costs
//! `Σ_m c_{v_m}(pred(v_m))` where `pred(v_m)` is the node that handed
//! `v_m` the packet. Charging on the *receiving* link (rather than the
//! sending one) is the variant that preserves the path-vector suffix
//! structure: extending a route changes only the new transit node's cost
//! term, so per-destination selected routes still form trees and all of the
//! base machinery (deterministic order, Dijkstra, tree types) carries over.
//! A send-side variant would make a route's value depend on its first
//! interior hop and therefore require advertising multiple routes per
//! destination — no longer "a straightforward extension to BGP" — which is
//! presumably why the paper keeps the node-uniform model for its protocol.
//!
//! Both computations are provided: the centralized mechanism
//! ([`compute`] — the uniqueness and strategyproofness arguments of
//! Theorem 1 apply verbatim with `type = the cost vector`, and the tests
//! verify strategyproofness against arbitrary *vector* lies) **and** a
//! distributed BGP-based protocol ([`NcPricingNode`], [`run_nc_sync`]),
//! which relaxes predecessor-independent *margins* instead of prices so
//! neighbors' arrays stay composable — see the module docs of
//! [`NcPricingNode`]'s source for the derivation. When every link of a
//! node carries the same cost, everything reduces exactly to the base
//! mechanism — asserted in the tests.

mod graph;
mod mechanism;
mod node;

pub use graph::{NeighborCostGraph, NeighborCostGraphBuilder};
pub use mechanism::{compute, deviate, evaluate, NeighborCostDeviation, NeighborCostView};
pub use node::{run_nc_sync, Margins, NcPricingNode};
