//! Workspace telemetry: structured convergence tracing and metrics.
//!
//! This crate is the observability substrate for the BGP-based VCG pricing
//! mechanism (Feigenbaum–Papadimitriou–Sami–Shenker, PODC 2002). It is
//! deliberately **std-only** — the workspace's vendored serde is a no-op
//! stand-in, so every wire format here is hand-rolled and self-validated.
//!
//! Four layers:
//!
//! 1. **Metrics** ([`MetricsRegistry`]): named counters, gauges, and
//!    histograms with atomic updates, exported as JSON by
//!    [`MetricsSnapshot::to_json`].
//! 2. **Tracing** ([`TraceEvent`], [`TraceSink`]): a typed event stream
//!    (`StageStart`, `RouteSelected`, `PriceRelaxed`, `Withdrawn`,
//!    `Quiescent`, plus the fault vocabulary `FaultInjected`,
//!    `Retransmit`, `SessionReset`, `NodeRestart`) keyed by
//!    node/destination/stage, written as JSONL
//!    ([`JsonlSink`]) or kept in memory ([`RingBufferSink`]). The enum is
//!    the schema: [`TraceEvent::from_json`] decodes exactly what
//!    [`TraceEvent::to_json`] writes, so decoding a trace validates it.
//! 3. **Provenance** ([`causal::CausalDag`]): the causal `(cause, effect)`
//!    ids carried by route/price events rebuilt into per-run convergence
//!    DAGs — acyclicity and root validation, critical-path extraction,
//!    amplification and price-churn attribution — plus the divergence
//!    flight recorder ([`flight::FlightRecorder`]) that dumps the tail of
//!    a stalled run as one validated JSON artifact.
//! 4. **Time** ([`Clock`]): injectable nanosecond sources so per-stage wall
//!    time can be measured for real ([`SystemClock`]) or scripted in tests
//!    ([`ManualClock`]).
//!
//! The [`Telemetry`] handle bundles all three behind one cheaply cloneable
//! value that engines and experiment binaries thread through their run
//! loops.
//!
//! # Example
//!
//! ```
//! use bgpvcg_telemetry::{Telemetry, TraceEvent};
//!
//! let (telemetry, ring) = Telemetry::ring(64);
//! telemetry.counter("bgp_messages_total").add(3);
//! telemetry.record(&TraceEvent::StageStart { stage: 1 });
//! assert_eq!(ring.events().len(), 1);
//! assert_eq!(telemetry.snapshot().counters["bgp_messages_total"], 3);
//! ```

#![forbid(unsafe_code)]

pub mod causal;
pub mod clock;
pub mod event;
pub mod flight;
pub mod health;
pub mod json;
pub mod profile;
pub mod registry;
pub mod series;
pub mod sink;

pub use causal::{CausalDag, CausalError, CausalSummary};
pub use clock::{Clock, ManualClock, SystemClock};
pub use event::{TraceEvent, INFINITE};
pub use flight::{FlightRecorder, StateSnapshot};
pub use health::{HealthConfig, HealthFinding, HealthMonitor, HealthSink};
pub use profile::{SpanId, SpanProfiler};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    DEFAULT_NANOS_BOUNDS,
};
pub use series::{QuantileSketch, TimeSeries};
pub use sink::{JsonlSink, NullSink, RingBufferSink, TeeSink, TraceSink};

use std::path::Path;
use std::sync::Arc;

/// The cell for AS number `id` in one of the observers' dense shadow
/// tables, or `None` when `id` is outside `0..bound` — a table never
/// allocates by the value of an id a message carries. A table with a node
/// count is sized to it the first time it is touched; an unbounded one
/// (`bound == usize::MAX`) grows to the largest id seen.
pub fn dense_cell<T: Default>(table: &mut Vec<T>, id: u32, bound: usize) -> Option<&mut T> {
    let index = id as usize;
    if index >= bound {
        return None;
    }
    if table.len() <= index {
        let len = if bound == usize::MAX {
            index + 1
        } else {
            bound
        };
        table.resize_with(len, T::default);
    }
    table.get_mut(index)
}

/// The bundled observability handle: a metrics registry, a trace sink, and
/// a clock, shared by reference so clones are cheap and all observe the
/// same run.
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: Arc<MetricsRegistry>,
    sink: Arc<dyn TraceSink>,
    clock: Arc<dyn Clock>,
}

impl Telemetry {
    /// Creates a handle around the given sink, with a fresh registry and a
    /// [`SystemClock`].
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Telemetry {
            registry: Arc::new(MetricsRegistry::new()),
            sink,
            clock: Arc::new(SystemClock::new()),
        }
    }

    /// Metrics-only handle: traces are discarded by a [`NullSink`].
    pub fn null() -> Self {
        Telemetry::new(Arc::new(NullSink))
    }

    /// In-memory handle holding the most recent `capacity` events; also
    /// returns the ring so the caller can read the events back.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> (Self, Arc<RingBufferSink>) {
        let ring = Arc::new(RingBufferSink::new(capacity));
        (
            Telemetry::new(Arc::clone(&ring) as Arc<dyn TraceSink>),
            ring,
        )
    }

    /// File-backed handle writing JSONL trace lines to `path` (truncated).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn jsonl_file(path: &Path) -> std::io::Result<Self> {
        Ok(Telemetry::new(Arc::new(JsonlSink::create(path)?)))
    }

    /// Replaces the clock (builder-style), keeping registry and sink.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Returns a handle sharing this one's registry and clock whose event
    /// stream additionally feeds `extra` — e.g. keep streaming JSONL to
    /// disk while an in-memory ring captures the same run for analysis.
    pub fn tee(&self, extra: Arc<dyn TraceSink>) -> Self {
        Telemetry {
            registry: Arc::clone(&self.registry),
            sink: Arc::new(TeeSink::new(Arc::clone(&self.sink), extra)),
            clock: Arc::clone(&self.clock),
        }
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Shorthand for `registry().counter(name)`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Shorthand for `registry().gauge(name)`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Shorthand for `registry().histogram(name)` (nanosecond bounds).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Records one trace event.
    pub fn record(&self, event: &TraceEvent) {
        self.sink.record(event);
    }

    /// Records one update's events, in order, in a single sink call (see
    /// [`TraceSink::record_all`]).
    pub fn record_all(&self, events: &[TraceEvent]) {
        self.sink.record_all(events);
    }

    /// Flushes the trace sink.
    pub fn flush(&self) {
        self.sink.flush();
    }

    /// Nanoseconds on the handle's clock (differences only).
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The shared clock itself, for components that need to timestamp
    /// outside this handle (e.g. the span profiler).
    pub fn clock_handle(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_registry_sink_and_clock() {
        let (telemetry, ring) = Telemetry::ring(8);
        let clone = telemetry.clone();
        clone.counter("shared").inc();
        clone.record(&TraceEvent::StageStart { stage: 1 });
        assert_eq!(telemetry.snapshot().counters["shared"], 1);
        assert_eq!(ring.events().len(), 1);
    }

    #[test]
    fn manual_clock_injection_makes_timing_deterministic() {
        let clock = Arc::new(ManualClock::new());
        let telemetry = Telemetry::null().with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let start = telemetry.now_nanos();
        clock.advance(1_500);
        assert_eq!(telemetry.now_nanos() - start, 1_500);
    }

    #[test]
    fn tee_shares_the_registry_and_feeds_both_sinks() {
        let (telemetry, primary) = Telemetry::ring(8);
        let extra = Arc::new(RingBufferSink::new(8));
        let teed = telemetry.tee(Arc::clone(&extra) as Arc<dyn TraceSink>);
        teed.counter("shared").inc();
        teed.record(&TraceEvent::StageStart { stage: 2 });
        assert_eq!(telemetry.snapshot().counters["shared"], 1);
        assert_eq!(primary.events(), extra.events());
        assert_eq!(primary.events().len(), 1);
    }

    #[test]
    fn null_handle_still_counts() {
        let telemetry = Telemetry::null();
        telemetry.record(&TraceEvent::StageStart { stage: 1 });
        telemetry.counter("c").add(2);
        telemetry.flush();
        assert_eq!(telemetry.snapshot().counters["c"], 2);
    }
}
