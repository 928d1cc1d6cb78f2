//! Injectable time sources.
//!
//! The registry's per-stage wall-time histogram must not make deterministic
//! test runs time-dependent, so every timing read goes through a [`Clock`]
//! the caller chooses:
//! [`SystemClock`] for real measurements, [`ManualClock`] for tests that
//! advance time by hand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since the clock's own epoch. Only differences are
    /// meaningful.
    fn now_nanos(&self) -> u64;
}

/// Real wall time, measured from the moment the clock was created.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A clock that only moves when told to — the deterministic stand-in for
/// tests and replayable runs.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.advance(5);
        clock.advance(7);
        assert_eq!(clock.now_nanos(), 12);
    }

    #[test]
    fn system_clock_is_monotone() {
        let clock = SystemClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }
}
