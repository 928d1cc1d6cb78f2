//! Fixture: a clean hot-path crate root.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod message;
pub mod node;
