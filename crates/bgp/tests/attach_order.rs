//! Attach order must not matter.
//!
//! Both engines take their instruments — telemetry, health monitor, span
//! profiler — through three independent `attach_*` calls. Each of the 6
//! orders must observe the same run the same way: the same event stream in
//! the caller's sink, the same health findings and stage count, and a
//! profiler stamped by the attached telemetry's clock. What this guards
//! against: an attach that builds the tee from whatever was attached
//! *before* it rather than from all the parts, so that e.g.
//! `attach_health` followed by `attach_telemetry` silently unplugs the
//! monitor.

use bgpvcg_bgp::chaos::{ChaosEngine, FaultPlan};
use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::PlainBgpNode;
use bgpvcg_netgraph::generators::structured::ring;
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use bgpvcg_telemetry::{Clock, HealthConfig, HealthFinding, Telemetry, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A clock that advances by one on every read: span totals stamped with it
/// are deterministic and non-zero, so a profiler that fell back to its own
/// wall clock shows up as a differing (or zero) `SpanSummary`.
#[derive(Debug, Default)]
struct TickClock(AtomicU64);

impl Clock for TickClock {
    fn now_nanos(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }
}

/// What one observed run leaves behind.
#[derive(PartialEq)]
struct Observation {
    events: Vec<TraceEvent>,
    findings: Vec<HealthFinding>,
    stages_seen: u64,
    stage_span: (u64, u64, u64),
}

/// The three attach calls, which both engines expose under the same names
/// without sharing a trait.
macro_rules! observe {
    ($engine:expr, $order:expr, $run:expr) => {{
        let mut engine = $engine;
        let (telemetry, sink) = Telemetry::ring(1 << 16);
        let telemetry = telemetry.with_clock(Arc::new(TickClock::default()));
        for what in $order {
            match what {
                0 => engine.attach_telemetry(&telemetry),
                1 => engine.attach_health(HealthConfig::default()),
                _ => engine.attach_profiler(),
            }
        }
        #[allow(clippy::redundant_closure_call)]
        $run(&mut engine);
        let health = engine.health_sink().expect("health attached");
        Observation {
            events: sink.events(),
            findings: health.findings(),
            stages_seen: health.snapshot().stages_seen(),
            stage_span: engine.profiler().expect("profiler attached").stat(0),
        }
    }};
}

/// Every order of the three attach calls.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn assert_order_independent(observe: impl Fn([usize; 3]) -> Observation) {
    let reference = observe(ORDERS[0]);
    assert!(reference.stages_seen > 0, "the monitor saw no stage");
    assert!(
        matches!(reference.events.last(), Some(TraceEvent::SpanSummary { total_nanos, .. }) if *total_nanos > 0),
        "the stream must close with span totals on the telemetry's clock: {:?}",
        reference.events.last()
    );
    let (count, total, _) = reference.stage_span;
    assert!(count > 0 && total > 0, "stage span never timed");
    for order in &ORDERS[1..] {
        let seen = observe(*order);
        // Field by field, streams last: a failure names what broke instead
        // of printing two whole traces.
        assert_eq!(seen.stages_seen, reference.stages_seen, "{order:?}");
        assert_eq!(seen.stage_span, reference.stage_span, "{order:?}");
        assert_eq!(seen.findings, reference.findings, "{order:?}");
        assert!(seen == reference, "{order:?}: event stream");
    }
}

fn graph() -> AsGraph {
    ring(8, Cost::new(2))
}

#[test]
fn sync_engine_observes_the_same_run_under_every_attach_order() {
    let g = graph();
    assert_order_independent(|order| {
        observe!(
            SyncEngine::new(&g, PlainBgpNode::from_graph(&g)),
            order,
            |engine: &mut SyncEngine<PlainBgpNode>| assert!(engine.run_to_convergence().converged)
        )
    });
}

#[test]
fn chaos_engine_observes_the_same_run_under_every_attach_order() {
    let g = graph();
    let plan = FaultPlan::lossy(11, 12).with_crash(3, AsId::new(5), 8);
    assert_order_independent(|order| {
        observe!(
            ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), plan.clone()),
            order,
            |engine: &mut ChaosEngine<PlainBgpNode>| assert!(engine.run_to_stable(2_000).converged)
        )
    });
}
