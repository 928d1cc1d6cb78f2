//! The divergence flight recorder.
//!
//! When a convergence run blows past its stage horizon, or a chaos run
//! exhausts its budget without stabilizing, the interesting evidence — the
//! last few hundred trace events and the engine's terminal state — is about
//! to be lost. A [`FlightRecorder`] sits as an extra [`TraceSink`] teed
//! into the engine's telemetry, keeps a bounded ring of the most recent
//! events, and on demand dumps everything to one JSON artifact:
//!
//! ```json
//! {
//!   "schema": "bgpvcg-flight-v1",
//!   "reason": "stage-limit-exceeded",
//!   "stage": 1000,
//!   "summary": {"stages": 1000, "messages": 5240},
//!   "snapshots": [{"node": 0, "inbox_depth": 3, "down": 0}],
//!   "events_recorded": 5311,
//!   "events_dropped": 5055,
//!   "recent_events": [{"type": "StageStart", "stage": 999}]
//! }
//! ```
//!
//! Every entry of `recent_events` is the event's exact JSONL object, so
//! [`validate_dump`] decodes each back into a [`TraceEvent`] — a flight
//! dump is valid trace evidence, not a best-effort debug print.
//! Engines dump automatically (see `SyncEngine::attach_flight_recorder`
//! and `ChaosEngine::attach_flight_recorder` in the BGP crate); the
//! walkthrough in `docs/OBSERVABILITY.md` reads one end to end.

use crate::event::TraceEvent;
use crate::json::{parse, JsonValue};
use crate::sink::{RingBufferSink, TraceSink};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema tag of the flight-dump artifact.
pub const DUMP_SCHEMA: &str = "bgpvcg-flight-v1";

/// Default bound on the event ring: enough to cover the tail of a stalled
/// run without letting a pathological trace eat memory.
pub const DEFAULT_CAPACITY: usize = 256;

/// Reason string for a synchronous run that exceeded its stage horizon.
pub const REASON_STAGE_LIMIT: &str = "stage-limit-exceeded";

/// Reason string for a dump triggered by the online auditor catching a
/// node advertising something the honest protocol would not have.
pub const REASON_AUDIT_VIOLATION: &str = "audit-violation";

/// Reason string for a dump armed by the streaming health monitor's stall
/// detector — a post-mortem captured *before* the hard stage-limit overrun
/// would fire (see the `health` module and `docs/OBSERVABILITY.md`).
pub const REASON_HEALTH_STALL: &str = "health-stall";

/// One engine entity's state at dump time, as flat `key: value` gauges
/// (e.g. a node's inbox depth, a session's unacked backlog).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSnapshot {
    /// The AS the snapshot describes.
    pub node: u32,
    /// Gauge fields, in insertion order.
    pub fields: Vec<(&'static str, u64)>,
}

/// A bounded in-memory tail of a run's trace plus the machinery to dump it
/// as a schema-valid JSON artifact.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Arc<RingBufferSink>,
    path: PathBuf,
}

impl FlightRecorder {
    /// Creates a recorder that will dump to `path`, retaining the most
    /// recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(path: PathBuf, capacity: usize) -> Self {
        FlightRecorder {
            ring: Arc::new(RingBufferSink::new(capacity)),
            path,
        }
    }

    /// The sink to tee the engine's telemetry into.
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.ring) as Arc<dyn TraceSink>
    }

    /// The artifact path this recorder dumps to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events currently retained (oldest first).
    pub fn recent_events(&self) -> Vec<TraceEvent> {
        self.ring.events()
    }

    /// Writes the dump artifact and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn dump(
        &self,
        reason: &str,
        stage: u64,
        summary: &[(&str, u64)],
        snapshots: &[StateSnapshot],
    ) -> std::io::Result<PathBuf> {
        let events = self.ring.events();
        let recorded = self.ring.total_recorded();
        let mut out = String::with_capacity(128 * (events.len() + snapshots.len() + 2));
        out.push_str("{\"schema\":\"");
        out.push_str(DUMP_SCHEMA);
        out.push_str("\",\"reason\":\"");
        // Reasons are module constants (no escaping needed), but guard
        // against a caller passing arbitrary text anyway.
        for c in reason.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push(' '),
                c => out.push(c),
            }
        }
        out.push_str("\",\"stage\":");
        out.push_str(&stage.to_string());
        out.push_str(",\"summary\":{");
        for (i, (key, value)) in summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":{value}"));
        }
        out.push_str("},\"snapshots\":[");
        for (i, snapshot) in snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"node\":{}", snapshot.node));
            for (key, value) in &snapshot.fields {
                out.push_str(&format!(",\"{key}\":{value}"));
            }
            out.push('}');
        }
        out.push_str("],\"events_recorded\":");
        out.push_str(&recorded.to_string());
        out.push_str(",\"events_dropped\":");
        out.push_str(&(recorded - events.len() as u64).to_string());
        out.push_str(",\"recent_events\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push_str("]}");
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(&self.path, out)?;
        Ok(self.path.clone())
    }
}

/// Validates a flight-dump artifact: the schema tag, required top-level
/// fields, snapshot shape, consistent recorded/dropped accounting, and —
/// the point of the exercise — every retained event decoding as a
/// [`TraceEvent`] no later than the dump's stage.
///
/// # Errors
///
/// A message naming the first violation.
pub fn validate_dump(text: &str) -> Result<(), String> {
    let value = parse(text).map_err(|e| e.to_string())?;
    if value.get("schema").and_then(JsonValue::as_str) != Some(DUMP_SCHEMA) {
        return Err(format!("schema tag must be {DUMP_SCHEMA:?}"));
    }
    if value
        .get("reason")
        .and_then(JsonValue::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("reason must be a non-empty string".to_string());
    }
    let stage = value
        .get("stage")
        .and_then(JsonValue::as_u64)
        .ok_or("stage must be a uint")?;
    let Some(JsonValue::Object(summary)) = value.get("summary") else {
        return Err("summary must be an object".to_string());
    };
    for (key, entry) in summary {
        if entry.as_u64().is_none() {
            return Err(format!("summary field {key} must be a uint"));
        }
    }
    let Some(JsonValue::Array(snapshots)) = value.get("snapshots") else {
        return Err("snapshots must be an array".to_string());
    };
    for snapshot in snapshots {
        let JsonValue::Object(fields) = snapshot else {
            return Err("snapshots must hold objects".to_string());
        };
        if snapshot.get("node").and_then(JsonValue::as_u64).is_none() {
            return Err("snapshot entries need a node id".to_string());
        }
        for (key, entry) in fields {
            if entry.as_u64().is_none() {
                return Err(format!("snapshot field {key} must be a uint"));
            }
        }
    }
    let recorded = value
        .get("events_recorded")
        .and_then(JsonValue::as_u64)
        .ok_or("events_recorded must be a uint")?;
    let dropped = value
        .get("events_dropped")
        .and_then(JsonValue::as_u64)
        .ok_or("events_dropped must be a uint")?;
    let Some(JsonValue::Array(events)) = value.get("recent_events") else {
        return Err("recent_events must be an array".to_string());
    };
    if dropped + events.len() as u64 != recorded {
        return Err("dropped + retained must equal recorded".to_string());
    }
    let mut last_stage = None;
    for (idx, event) in events.iter().enumerate() {
        let event =
            TraceEvent::from_json_value(event).map_err(|e| format!("recent_events[{idx}]: {e}"))?;
        last_stage = Some(event.stage());
    }
    // The tail must actually reach the stall: the last retained event may
    // not be from a later stage than the dump claims.
    if let Some(last) = last_stage {
        if last > stage {
            return Err("recent_events end beyond the dump's stage".to_string());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(dir: &Path) -> FlightRecorder {
        FlightRecorder::new(dir.join("flight.json"), 4)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bgpvcg-flight-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn dump_is_bounded_and_validates() {
        let dir = temp_dir("basic");
        let recorder = recorder(&dir);
        let sink = recorder.sink();
        for stage in 1..=9 {
            sink.record(&TraceEvent::StageStart { stage });
        }
        let path = recorder
            .dump(
                REASON_STAGE_LIMIT,
                9,
                &[("stages", 9), ("messages", 120)],
                &[StateSnapshot {
                    node: 0,
                    fields: vec![("inbox_depth", 3), ("down", 0)],
                }],
            )
            .expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        validate_dump(&text).expect("artifact validates");
        let value = parse(&text).unwrap();
        let JsonValue::Array(events) = value.get("recent_events").unwrap().clone() else {
            panic!("recent_events must be an array");
        };
        assert_eq!(events.len(), 4, "ring capacity bounds the tail");
        assert_eq!(
            value.get("events_dropped").and_then(JsonValue::as_u64),
            Some(5)
        );
        assert_eq!(
            events[0].get("stage").and_then(JsonValue::as_u64),
            Some(6),
            "oldest retained event survives, earlier ones were evicted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validator_rejects_tampered_dumps() {
        let dir = temp_dir("tamper");
        let recorder = recorder(&dir);
        recorder.sink().record(&TraceEvent::StageStart { stage: 2 });
        let path = recorder
            .dump(REASON_STAGE_LIMIT, 2, &[("stages", 2)], &[])
            .expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        validate_dump(&text).expect("pristine dump validates");
        for (from, to, why) in [
            (DUMP_SCHEMA, "bogus-v0", "schema tag"),
            ("\"events_dropped\":0", "\"events_dropped\":7", "accounting"),
            (
                "{\"type\":\"StageStart\",\"stage\":2}",
                "{\"type\":\"StageStart\"}",
                "event misses a field",
            ),
            (
                "\"stage\":2,\"summary\"",
                "\"stage\":1,\"summary\"",
                "tail beyond stage",
            ),
        ] {
            let broken = text.replace(from, to);
            assert_ne!(broken, text, "{why}: replacement must apply");
            assert!(validate_dump(&broken).is_err(), "{why} must be rejected");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_ring_still_dumps_cleanly() {
        let dir = temp_dir("empty");
        let recorder = recorder(&dir);
        let path = recorder
            .dump(REASON_STAGE_LIMIT, 0, &[], &[])
            .expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        validate_dump(&text).expect("empty dump validates");
        std::fs::remove_dir_all(&dir).ok();
    }
}
