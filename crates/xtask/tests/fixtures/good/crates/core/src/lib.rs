//! Fixture: pricing crate root.

#![forbid(unsafe_code)]

pub mod neighbor_costs;
pub mod outcome;
pub mod pricing_node;
pub mod protocol;
pub mod vcg;
