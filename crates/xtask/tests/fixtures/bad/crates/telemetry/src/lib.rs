//! Fixture: telemetry crate root.

#![forbid(unsafe_code)]

pub mod event;
pub mod health;
