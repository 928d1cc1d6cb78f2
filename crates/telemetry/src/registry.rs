//! The shared metrics registry.
//!
//! Registration (first use of a name) takes a short mutex hold; every
//! subsequent update on the returned handle is a single atomic operation,
//! so instrumented hot loops never contend on a lock — the "lock-free-ish"
//! discipline the engines need while one observer thread reads snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::SeqCst);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// A last-write-wins gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::SeqCst);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Shared storage of one histogram: fixed upper bounds, per-bucket counts,
/// plus running sum and count. All updates are atomic.
#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<u64>,
    /// One count per finite bucket plus the overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(core.bounds.len());
        // lint:allow(bounds: buckets is sized one past bounds len and idx never exceeds it)
        core.buckets[idx].fetch_add(1, Ordering::SeqCst);
        core.sum.fetch_add(value, Ordering::SeqCst);
        core.count.fetch_add(1, Ordering::SeqCst);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::SeqCst)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::SeqCst)
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts aligned with `bounds`, plus a final overflow
    /// bucket (everything above the last bound).
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{"name":{"bounds":[...],
    /// "buckets":[...],"sum":N,"count":N}}}`. Keys are sorted (BTreeMap
    /// order), so output is deterministic and diffable.
    pub fn to_json(&self) -> String {
        fn object<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> String) -> String {
            let fields: Vec<String> = map
                .iter()
                .map(|(name, v)| format!("\"{name}\":{}", value(v)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        format!(
            "{{\"counters\":{},\"gauges\":{},\"histograms\":{}}}",
            object(&self.counters, u64::to_string),
            object(&self.gauges, u64::to_string),
            object(&self.histograms, |h| format!(
                "{{\"bounds\":{:?},\"buckets\":{:?},\"sum\":{},\"count\":{}}}",
                h.bounds, h.buckets, h.sum, h.count
            )),
        )
    }
}

/// Default histogram bounds for nanosecond durations: powers of four from
/// 1 µs to ~4.4 s, a decade-spanning exponential ladder.
pub const DEFAULT_NANOS_BOUNDS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// A named registry of counters, gauges, and histograms.
///
/// # Example
///
/// ```
/// use bgpvcg_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let sent = registry.counter("bgp_updates_sent_total");
/// sent.add(3);
/// assert_eq!(registry.snapshot().counters["bgp_updates_sent_total"], 3);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    /// Handles to the same name share storage.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Counter(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        Gauge(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// Returns the histogram named `name` with [`DEFAULT_NANOS_BOUNDS`],
    /// creating it on first use. If the name already exists, the existing
    /// bounds win.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, &DEFAULT_NANOS_BOUNDS)
    }

    /// Returns the histogram named `name`, creating it with the given
    /// strictly-increasing upper `bounds` on first use. If the name already
    /// exists, the existing bounds win.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let core = map.entry(name.to_string()).or_insert_with(|| {
            Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })
        });
        Histogram(Arc::clone(core))
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::SeqCst)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::SeqCst)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, core)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: core.bounds.clone(),
                        buckets: core
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::SeqCst))
                            .collect(),
                        sum: core.sum.load(Ordering::SeqCst),
                        count: core.count.load(Ordering::SeqCst),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_storage() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(registry.snapshot().counters["x"], 5);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("depth");
        g.set(9);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(registry.snapshot().gauges["depth"], 3);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram_with_bounds("lat", &[10, 100]);
        h.observe(5); // bucket 0
        h.observe(10); // bucket 0 (inclusive bound)
        h.observe(50); // bucket 1
        h.observe(1_000); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_065);
        let snap = registry.snapshot().histograms["lat"].clone();
        assert_eq!(snap.buckets, vec![2, 1, 1]);
        assert_eq!(snap.bounds, vec![10, 100]);
    }

    #[test]
    fn snapshot_json_is_exact_and_parses() {
        let registry = MetricsRegistry::new();
        assert_eq!(
            registry.snapshot().to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        registry.counter("bgp_messages_total").add(12);
        registry.counter("a").inc();
        registry.gauge("bgp_stages_to_quiescence").set(4);
        let h = registry.histogram_with_bounds("lat", &[10, 100]);
        h.observe(5);
        h.observe(500);
        let json = registry.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a\":1,\"bgp_messages_total\":12},\
             \"gauges\":{\"bgp_stages_to_quiescence\":4},\
             \"histograms\":{\"lat\":{\"bounds\":[10, 100],\"buckets\":[1, 0, 1],\
             \"sum\":505,\"count\":2}}}"
        );
        assert!(crate::json::parse(&json).is_ok());
    }

    #[test]
    fn histogram_bounds_first_registration_wins() {
        let registry = MetricsRegistry::new();
        let a = registry.histogram_with_bounds("h", &[1, 2, 3]);
        let b = registry.histogram_with_bounds("h", &[500]);
        b.observe(2);
        assert_eq!(a.count(), 1);
        assert_eq!(registry.snapshot().histograms["h"].bounds, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let registry = MetricsRegistry::new();
        let _ = registry.histogram_with_bounds("h", &[5, 5]);
    }

    #[test]
    fn updates_are_visible_across_threads() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("racing");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4_000);
    }
}
