//! Fixture: telemetry crate root.

#![forbid(unsafe_code)]

pub mod clock;
pub mod event;
pub mod health;
