//! Fixture: pricing crate root.

#![forbid(unsafe_code)]

pub mod neighbor_costs;
pub mod pricing_node;
pub mod protocol;
