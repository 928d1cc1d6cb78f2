//! Fixture: the per-neighbor cost model.

pub mod node;
