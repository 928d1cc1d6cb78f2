//! Trace sinks: where event streams go.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// A consumer of trace events. Sinks take `&self` so one sink can be shared
/// by every node of a multi-threaded engine; implementations synchronize
/// internally.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Records one event. Sinks must preserve the order of `record` calls
    /// made by a single thread.
    fn record(&self, event: &TraceEvent);

    /// Records a run of events — one update's worth — exactly as one
    /// `record` call each, in order, would. Sinks override it to pay their
    /// per-call cost (a lock, a fan-out) once per run.
    fn record_all(&self, events: &[TraceEvent]) {
        for event in events {
            self.record(event);
        }
    }

    /// Flushes any buffered output. Default: no-op.
    fn flush(&self) {}
}

/// Discards every event — the default when only metrics matter. The sink
/// is free; attaching it is not: the engine still diffs every broadcast
/// into events and counters before they land here. The benchmark's traced
/// `telemetry.null_sink_ratio` reads 1.61 on `cold-ba256` and 1.32 on
/// `cold-ring128` (2.14 and 2.11 with the map-based tracer), of which
/// 1.44 and 1.16 are that single-shot metric's floor — see
/// `docs/OBSERVABILITY.md` § "Sinks and wiring".
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}

    fn record_all(&self, _events: &[TraceEvent]) {}
}

/// Writes one JSON object per line to an arbitrary writer (file, pipe,
/// in-memory buffer).
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<BufWriter<W>>,
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
        }
    }
}

impl JsonlSink<File> {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // Trace output is advisory; a full disk must not take the protocol
        // run down with it.
        let _ = writeln!(writer, "{}", event.to_json());
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writer.flush();
    }
}

/// Keeps the most recent `capacity` events in memory — the sink tests and
/// experiments read back from.
#[derive(Debug)]
pub struct RingBufferSink {
    state: Mutex<RingState>,
    capacity: usize,
}

/// What the ring guards with its one lock.
#[derive(Debug)]
struct RingState {
    events: VecDeque<TraceEvent>,
    /// Total events ever recorded (including evicted ones).
    recorded: u64,
}

impl RingBufferSink {
    /// Creates a buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink {
            state: Mutex::new(RingState {
                events: VecDeque::with_capacity(capacity.min(1 << 16)),
                recorded: 0,
            }),
            capacity,
        }
    }

    /// Copies out the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.events.iter().cloned().collect()
    }

    /// Total number of events ever recorded, including any that were
    /// evicted once the buffer filled.
    pub fn total_recorded(&self) -> u64 {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.recorded
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, event: &TraceEvent) {
        self.record_all(std::slice::from_ref(event));
    }

    fn record_all(&self, events: &[TraceEvent]) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        for event in events {
            if state.events.len() == self.capacity {
                state.events.pop_front();
            }
            state.events.push_back(event.clone());
        }
        state.recorded += events.len() as u64;
    }
}

/// Duplicates every event to two downstream sinks, in order — how one run
/// can stream JSONL to disk *and* keep an in-memory ring for analysis.
#[derive(Debug)]
pub struct TeeSink {
    first: std::sync::Arc<dyn TraceSink>,
    second: std::sync::Arc<dyn TraceSink>,
}

impl TeeSink {
    /// Creates a tee over two sinks. `record` hits `first` before `second`.
    pub fn new(
        first: std::sync::Arc<dyn TraceSink>,
        second: std::sync::Arc<dyn TraceSink>,
    ) -> Self {
        TeeSink { first, second }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: &TraceEvent) {
        self.first.record(event);
        self.second.record(event);
    }

    fn record_all(&self, events: &[TraceEvent]) {
        self.first.record_all(events);
        self.second.record_all(events);
    }

    fn flush(&self) {
        self.first.flush();
        self.second.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample(stage: u64) -> TraceEvent {
        TraceEvent::PriceRelaxed {
            node: 1,
            dest: 2,
            k: 3,
            stage,
            new: stage,
        }
    }

    /// A writer handing every byte to a shared buffer, so tests can read
    /// back what the sink wrote.
    #[derive(Debug, Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event_in_order() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        for stage in 1..=3 {
            sink.record(&sample(stage));
        }
        sink.record(&TraceEvent::Quiescent {
            stage: 3,
            messages: 7,
        });
        sink.flush();
        let bytes = buf.0.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let text = String::from_utf8(bytes).expect("valid utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for (idx, line) in lines.iter().take(3).enumerate() {
            assert_eq!(*line, sample(idx as u64 + 1).to_json(), "line {idx}");
        }
        assert!(lines[3].contains("\"type\":\"Quiescent\""));
        assert!(text.ends_with('\n'), "JSONL lines are newline-terminated");
    }

    #[test]
    fn ring_buffer_keeps_most_recent_events() {
        let sink = RingBufferSink::new(2);
        for stage in 1..=5 {
            sink.record(&sample(stage));
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage(), 4);
        assert_eq!(events[1].stage(), 5);
        assert_eq!(sink.total_recorded(), 5);
    }

    #[test]
    fn null_sink_swallows_everything() {
        let sink = NullSink;
        sink.record(&sample(1));
        sink.flush();
    }

    #[test]
    fn tee_sink_duplicates_to_both_branches() {
        let a = Arc::new(RingBufferSink::new(4));
        let b = Arc::new(RingBufferSink::new(4));
        let tee = TeeSink::new(
            Arc::clone(&a) as Arc<dyn TraceSink>,
            Arc::clone(&b) as Arc<dyn TraceSink>,
        );
        tee.record(&sample(1));
        tee.record(&sample(2));
        tee.flush();
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 2);
    }
}
