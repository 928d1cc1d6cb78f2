//! The metric catalogue: every name, unit and bound in `BENCHMARK.json`,
//! and the result line the driver reads.
//!
//! The lists here are the source the harness prints from; a unit test
//! holds them equal to `BENCHMARK.json`, so neither can drift alone.

use bgpvcg_telemetry::json::JsonValue;
use std::collections::BTreeMap;

/// Whether a smaller or a larger value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Protocol counts repeat exactly for one seed. Between suite files of
    /// one seed `compare` allows them no worsening at all, and `selfcheck`
    /// no difference; `bound` is for runs on different seeds.
    pub exact_per_seed: bool,
}

const fn timing(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact_per_seed: false,
    }
}

const fn count(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact_per_seed: true,
    }
}

/// End-to-end metrics. Every value is a mean over the run's input pool of
/// the per-input figure (for timings: the per-input median across
/// repetitions), i.e. "per pass".
pub const END_TO_END: [EndToEnd; 7] = [
    timing("setup_s", "s", 0.25),
    timing("run_ms", "ms", 0.25),
    timing("observed_run_ms", "ms", 0.25),
    count("stages", "count", 0.16),
    count("messages", "count", 0.14),
    count("wire_bytes_v2", "bytes", 0.18),
    timing("peak_rss_mb", "MiB", 0.15),
];

/// A single-layer metric from the traced run: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// Per-layer metrics, outside-in. A metric a workload's traced run does
/// not measure (see the README's "on" column) is reported as 0.
pub const PER_LAYER: [PerLayer; 81] = [
    ("netgraph.generate_ms", "ms", Lower),
    ("netgraph.validate_ms", "ms", Lower),
    ("lcp.all_pairs_ms", "ms", Lower),
    ("lcp.avoidance_ms", "ms", Lower),
    ("core.vcg.compute_ms", "ms", Lower),
    ("core.vcg.dist_over_central", "ratio", Lower),
    ("bgp.selector.ingest_ms", "ms", Lower),
    ("bgp.selector.ingest_ns_per_ad", "ns", Lower),
    ("bgp.selector.ads_in", "count", Lower),
    ("bgp.selector.decide_ms", "ms", Lower),
    ("bgp.selector.decide_ns_per_call", "ns", Lower),
    ("bgp.selector.decides", "count", Lower),
    ("bgp.selector.route_changes", "count", Lower),
    ("bgp.selector.decide_useful_ratio", "ratio", Higher),
    ("bgp.selector.link_down_us", "us", Lower),
    ("bgp.selector.set_cost_us", "us", Lower),
    ("core.pricing_node.handle_ms", "ms", Lower),
    ("core.pricing_node.handle_calls", "count", Lower),
    ("core.pricing_node.handle_ns_per_ad", "ns", Lower),
    ("core.pricing_node.relax_emit_ms", "ms", Lower),
    ("core.pricing_node.ads_out", "count", Lower),
    ("core.pricing_node.emit_ratio", "ratio", Lower),
    ("core.pricing_node.delta_ad_ratio", "ratio", Higher),
    ("core.pricing_node.handle_allocs_per_call", "count", Lower),
    (
        "core.pricing_node.handle_alloc_bytes_per_ad",
        "bytes",
        Lower,
    ),
    ("core.pricing_node.apply_event_us", "us", Lower),
    ("core.pricing_node.full_table_ms", "ms", Lower),
    ("core.pricing_node.pricing_over_plain", "ratio", Lower),
    ("bgp.node.plain_run_ms", "ms", Lower),
    ("bgp.node.plain_wire_bytes_v2", "bytes", Lower),
    ("bgp.wire.encode_ms", "ms", Lower),
    ("bgp.wire.encode_mb_per_s", "MB/s", Higher),
    ("bgp.wire.decode_ms", "ms", Lower),
    ("bgp.wire.decode_mb_per_s", "MB/s", Higher),
    ("bgp.wire.bytes_per_ad", "bytes", Lower),
    ("bgp.wire.v2_over_v1", "ratio", Lower),
    ("bgp.wire.encode_allocs", "count", Lower),
    ("bgp.engine.sync.build_ms", "ms", Lower),
    ("bgp.engine.sync.step_sum_ms", "ms", Lower),
    ("bgp.engine.sync.stage_max_ms", "ms", Lower),
    ("bgp.engine.sync.stages_executed", "count", Lower),
    ("bgp.engine.sync.overhead_ms", "ms", Lower),
    ("bgp.engine.sync.overhead_ns_per_message", "ns", Lower),
    ("bgp.engine.sync.parallel2_run_ms", "ms", Lower),
    ("bgp.engine.sync.parallel2_speedup", "ratio", Higher),
    ("bgp.engine.sync.event_p50_ms", "ms", Lower),
    ("bgp.engine.sync.event_p90_ms", "ms", Lower),
    ("bgp.engine.sync.event_floor_us", "us", Lower),
    ("bgp.engine.sync.msgs_per_event", "count", Lower),
    ("bgp.engine.sync.stages_per_event", "count", Lower),
    ("core.protocol.extract_ms", "ms", Lower),
    ("bgp.chaos.quiet_run_ms", "ms", Lower),
    ("bgp.chaos.session_overhead", "ratio", Lower),
    ("bgp.chaos.step_sum_ms", "ms", Lower),
    ("bgp.chaos.step_max_ms", "ms", Lower),
    ("bgp.chaos.ns_per_frame", "ns", Lower),
    ("bgp.chaos.frames", "count", Lower),
    ("bgp.chaos.frames_dropped", "count", Lower),
    ("bgp.chaos.retransmits", "count", Lower),
    ("bgp.chaos.retransmit_ratio", "ratio", Lower),
    ("bgp.chaos.session_resets", "count", Lower),
    ("bgp.chaos.holds_fired", "count", Lower),
    ("bgp.chaos.recovery_stages", "count", Lower),
    ("telemetry.null_sink_ratio", "ratio", Lower),
    ("telemetry.ring_sink_ratio", "ratio", Lower),
    ("telemetry.profiler_ratio", "ratio", Lower),
    ("telemetry.health_ratio", "ratio", Lower),
    ("telemetry.full_ratio", "ratio", Lower),
    ("telemetry.events", "count", Lower),
    ("core.audit.auditor_ratio", "ratio", Lower),
    ("core.accounting.settle_ms", "ms", Lower),
    ("state.rib_entries", "count", Lower),
    ("state.path_nodes", "count", Lower),
    ("state.price_entries", "count", Lower),
    ("state.rss_bytes_per_cell", "bytes", Lower),
    ("alloc.run_allocs", "count", Lower),
    ("alloc.run_alloc_bytes", "bytes", Lower),
    ("alloc.peak_live_bytes", "bytes", Lower),
    ("trace.overhead_ratio", "ratio", Lower),
    ("trace.layer_coverage", "ratio", Higher),
    ("trace.spans", "count", Lower),
];

/// What one run of one workload measured, as the driver reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every op verified and the inputs matched their pinned fingerprint.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// The result as one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let entry = BTreeMap::from([
                    ("value".to_string(), JsonValue::Float(*value)),
                    ("unit".to_string(), JsonValue::String(unit.clone())),
                ]);
                (name.clone(), JsonValue::Object(entry))
            })
            .collect();
        JsonValue::Object(BTreeMap::from([
            ("correct".to_string(), JsonValue::Bool(self.correct)),
            ("attempted".to_string(), JsonValue::UInt(self.attempted)),
            ("failed".to_string(), JsonValue::UInt(self.failed)),
            ("metrics".to_string(), JsonValue::Object(metrics)),
        ]))
    }

    /// Reads a result back from [`RunResult::to_json`]'s shape.
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        let JsonValue::Bool(correct) = *value.get("correct")? else {
            return None;
        };
        let JsonValue::Object(entries) = value.get("metrics")? else {
            return None;
        };
        let mut metrics = BTreeMap::new();
        for (name, entry) in entries {
            let number = match *entry.get("value")? {
                JsonValue::Float(v) => v,
                JsonValue::UInt(v) => v as f64,
                _ => return None,
            };
            let unit = entry.get("unit")?.as_str()?.to_string();
            metrics.insert(name.clone(), (number, unit));
        }
        Some(RunResult {
            correct,
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;
    use bgpvcg_telemetry::json::parse;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn array<'a>(value: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        match value.get(key) {
            Some(JsonValue::Array(items)) => items,
            other => panic!("BENCHMARK.json: `{key}` must be an array, found {other:?}"),
        }
    }

    fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
        value
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("missing `{key}`"))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads() {
        let bench = benchmark_json();
        let names: Vec<&str> = array(&bench, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
        for w in array(&bench, "workloads") {
            let why = text(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_end_to_end_metrics_and_bounds() {
        let bench = benchmark_json();
        let listed = array(&bench, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(
                text(entry, "better"),
                metric.better.as_str(),
                "{}",
                metric.name
            );
            let Some(JsonValue::Float(bound)) = entry.get("bound") else {
                panic!("{}: bound must be a fraction", metric.name);
            };
            assert_eq!(*bound, metric.bound, "{}", metric.name);
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_run_seconds_is_the_default_run_length() {
        let run_seconds = benchmark_json()
            .get("run_seconds")
            .and_then(JsonValue::as_u64);
        assert_eq!(run_seconds, Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_per_layer_metrics() {
        let bench = benchmark_json();
        let listed = array(&bench, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        assert!(listed.len() <= 128);
        for (entry, &(name, unit, better)) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), unit, "{name}");
            assert_eq!(text(entry, "better"), better.as_str(), "{name}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
        for (name, unit) in all {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: BTreeMap::from([
                ("run_ms".to_string(), (1.2034, "ms".to_string())),
                ("stages".to_string(), (11.0, "count".to_string())),
            ]),
        };
        let line = result.to_json().render();
        assert!(!line.contains('\n'));
        let parsed = parse(&line).expect("result line is valid JSON");
        let JsonValue::Object(keys) = &parsed else {
            panic!("result line must be an object");
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(RunResult::from_json(&parsed), Some(result));
    }
}
