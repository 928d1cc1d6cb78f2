//! Fixture: a crate root that forgot to forbid unsafe code.

pub mod chaos;
pub mod message;
pub mod node;
