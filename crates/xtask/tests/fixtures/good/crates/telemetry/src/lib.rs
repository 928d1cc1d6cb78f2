//! Fixture: telemetry crate root.

#![forbid(unsafe_code)]

pub mod clock;
