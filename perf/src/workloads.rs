//! Set-up, one pass, and the correctness check of every workload.
//!
//! Load shape: closed loop, one client — a single process, a single thread,
//! the serial engine. The next pass starts when the previous one has been
//! verified. The thread-per-AS `run_async*` executors are not benchmarked:
//! 128–256 OS threads on two cores measure the scheduler, not the protocol.

use crate::inputs::{self, Input, Workload};
use crate::spans::Recorder;
use bgpvcg_bgp::chaos::{ChaosEngine, ChaosReport};
use bgpvcg_bgp::engine::{RunReport, SyncEngine};
use bgpvcg_core::{protocol, vcg, PricingBgpNode, RoutingOutcome};
use bgpvcg_telemetry::{HealthConfig, RingBufferSink, Telemetry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Stage budget of a chaos pass; a run that needs more has not stabilised.
pub const CHAOS_MAX_STAGES: u64 = 4000;

/// Which instruments a pass attaches to its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Nothing attached: the end-to-end `run_ms` configuration.
    Bare,
    /// `attach_telemetry(Telemetry::null())` only.
    NullSink,
    /// `attach_telemetry` with a 4096-event in-memory ring.
    RingSink,
    /// `attach_profiler()` only.
    Profiler,
    /// `attach_health(HealthConfig::default())` only.
    Health,
    /// Null-sink telemetry + health + profiler: `observed_run_ms`.
    Full,
}

/// The ring an [`Observe::RingSink`] pass recorded into, to read the event
/// count back.
pub type Ring = Option<Arc<RingBufferSink>>;

// `SyncEngine` and `ChaosEngine` expose the same three `attach_*` methods
// but share no trait.
macro_rules! attach {
    ($engine:expr, $observe:expr) => {{
        let mut ring: Ring = None;
        match $observe {
            Observe::Bare => {}
            Observe::NullSink => $engine.attach_telemetry(&Telemetry::null()),
            Observe::RingSink => {
                let (telemetry, sink) = Telemetry::ring(4096);
                $engine.attach_telemetry(&telemetry);
                ring = Some(sink);
            }
            Observe::Profiler => $engine.attach_profiler(),
            Observe::Health => $engine.attach_health(HealthConfig::default()),
            Observe::Full => {
                $engine.attach_telemetry(&Telemetry::null());
                $engine.attach_health(HealthConfig::default());
                $engine.attach_profiler();
            }
        }
        ring
    }};
}

/// Protocol counts of one pass — the paper's cost quantities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `RunReport.stages` / `ChaosReport.stages` (summed over a script).
    pub stages: u64,
    /// Delivered updates / frames.
    pub messages: u64,
    /// `bytes_v2` of the same reports.
    pub wire_bytes_v2: u64,
}

impl Counts {
    fn absorb(&mut self, report: &RunReport) {
        self.stages += report.stages as u64;
        self.messages += report.messages as u64;
        self.wire_bytes_v2 += report.bytes_v2 as u64;
    }
}

/// What one pass did.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Wall time of the timed part.
    pub wall_ns: u64,
    pub counts: Counts,
    /// Operations attempted: 1 for a convergence, one per event for churn.
    pub ops: u64,
    /// Operations that did not converge, errored, or left a wrong fixpoint.
    pub failed: u64,
    /// Per-event latencies (churn only), in script order.
    pub event_ns: Vec<u64>,
    /// The chaos engine's own report (chaos only).
    pub chaos: Option<ChaosReport>,
}

/// A converged engine the churn script is replayed on.
pub type LiveEngine = SyncEngine<PricingBgpNode>;

/// One input with everything its passes are checked against.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub input: Input,
    /// `vcg::compute` of the input's graph — the centralized Theorem-1
    /// reference every extracted fixpoint must equal.
    pub reference: RoutingOutcome,
    /// Reference for the churn script's midpoint graph.
    pub mid_reference: Option<RoutingOutcome>,
    /// Churn only: the engine converged once in set-up, and its fully
    /// observed twin, primed by the first observed pass so that it is not
    /// resident while `peak_rss_mb` is taken.
    pub live: Option<(LiveEngine, Option<LiveEngine>)>,
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_ns: u64,
    pub validate_ns: u64,
    pub reference_ns: u64,
    pub prime_ns: u64,
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.generate_ns + self.validate_ns + self.reference_ns + self.prime_ns
    }
}

/// Runs `f` and returns its result with the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Sets up the pool's `index`-th input: generation, precondition check,
/// centralized reference(s), and for churn the priming convergence.
///
/// # Panics
///
/// Panics if a generated graph fails the mechanism's preconditions — the
/// generators biconnect their output, so that is a generator bug.
pub fn prepare(workload: Workload, seed: u64, index: usize) -> (Prepared, SetupTimes) {
    let mut times = SetupTimes::default();
    let (input, ns) = timed(|| inputs::generate(workload, seed, index));
    times.generate_ns = ns;
    let ((), ns) = timed(|| {
        input
            .graph
            .validate_for_mechanism()
            .expect("generated graphs are biconnected")
    });
    times.validate_ns = ns;
    let ((reference, mid_reference), ns) = timed(|| {
        let reference = vcg::compute(&input.graph).expect("validated above");
        let mid = input
            .churn
            .as_ref()
            .map(|c| vcg::compute(&c.mid_graph).expect("script keeps the graph biconnected"));
        (reference, mid)
    });
    times.reference_ns = ns;
    let (live, ns) = timed(|| {
        input
            .churn
            .is_some()
            .then(|| (prime(&input, Observe::Bare).0, None))
    });
    times.prime_ns = ns;
    let prepared = Prepared {
        workload,
        input,
        reference,
        mid_reference,
        live,
    };
    (prepared, times)
}

/// Builds an engine with `observe` attached and converges it once, ready
/// for the churn script.
pub fn prime(input: &Input, observe: Observe) -> (LiveEngine, Ring) {
    let mut engine = protocol::build_sync_engine(&input.graph).expect("validated in set-up");
    let ring = attach!(engine, observe);
    let report = engine.run_to_convergence();
    assert!(report.converged, "priming convergence hit the stage limit");
    (engine, ring)
}

/// Runs one pass with the end-to-end instruments (`Bare` or `Full`).
pub fn pass(prepared: &mut Prepared, observe: Observe) -> PassOutcome {
    match prepared.workload {
        Workload::ColdBa256 | Workload::ColdRing128 => cold_pass(prepared, observe).0,
        Workload::ChaosHier128 => chaos_pass(prepared, observe).0,
        Workload::WarmChurnHier128 => {
            let Prepared {
                input,
                reference,
                mid_reference,
                live,
                ..
            } = prepared;
            let (bare, full) = live.as_mut().expect("churn inputs are primed in set-up");
            let engine = match observe {
                Observe::Bare => bare,
                Observe::Full => full.get_or_insert_with(|| prime(input, Observe::Full).0),
                other => panic!("no primed engine for {other:?}"),
            };
            let mid = mid_reference
                .as_ref()
                .expect("churn inputs have a midpoint");
            churn_pass(engine, input, mid, reference, None)
        }
    }
}

/// `build_sync_engine` → `run_to_convergence` → `outcome_from_nodes`,
/// checked against the reference (the comparison is outside the timing).
pub fn cold_pass(prepared: &Prepared, observe: Observe) -> (PassOutcome, Ring) {
    let start = Instant::now();
    let mut engine =
        protocol::build_sync_engine(&prepared.input.graph).expect("validated in set-up");
    let ring = attach!(engine, observe);
    let report = engine.run_to_convergence();
    let outcome = black_box(protocol::outcome_from_nodes(&engine.into_nodes()));
    let wall_ns = start.elapsed().as_nanos() as u64;
    let ok = report.converged && outcome.as_ref() == Ok(&prepared.reference);
    let mut counts = Counts::default();
    counts.absorb(&report);
    let out = PassOutcome {
        wall_ns,
        counts,
        ops: 1,
        failed: u64::from(!ok),
        ..PassOutcome::default()
    };
    (out, ring)
}

/// `build_chaos_engine` → `run_to_stable` → `outcome_from_nodes`.
pub fn chaos_pass(prepared: &Prepared, observe: Observe) -> (PassOutcome, Ring) {
    let plan = prepared
        .input
        .plan
        .clone()
        .expect("chaos inputs carry a plan");
    let start = Instant::now();
    let mut engine: ChaosEngine<PricingBgpNode> =
        protocol::build_chaos_engine(&prepared.input.graph, plan).expect("validated in set-up");
    let ring = attach!(engine, observe);
    let report = engine.run_to_stable(CHAOS_MAX_STAGES);
    let outcome = black_box(protocol::outcome_from_nodes(&engine.into_nodes()));
    let wall_ns = start.elapsed().as_nanos() as u64;
    let ok = report.converged && outcome.as_ref() == Ok(&prepared.reference);
    let out = PassOutcome {
        wall_ns,
        counts: Counts {
            stages: report.stages,
            messages: report.messages,
            wire_bytes_v2: report.bytes_v2,
        },
        ops: 1,
        failed: u64::from(!ok),
        chaos: Some(report),
        ..PassOutcome::default()
    };
    (out, ring)
}

/// `try_apply_event` for each event of the script on the live engine. The
/// fixpoint is checked at the midpoint and at the end (the script returns
/// to the original graph); only the event calls are timed — as spans when
/// the traced run passes its recorder.
pub fn churn_pass(
    engine: &mut LiveEngine,
    input: &Input,
    mid_reference: &RoutingOutcome,
    end_reference: &RoutingOutcome,
    mut recorder: Option<&mut Recorder>,
) -> PassOutcome {
    let churn = input.churn.as_ref().expect("churn inputs carry a script");
    let mut out = PassOutcome::default();
    for (i, &event) in churn.script.iter().enumerate() {
        let (result, ns) = match recorder.as_deref_mut() {
            Some(rec) => rec.time("bgp.engine.sync.try_apply_event", || {
                engine.try_apply_event(event)
            }),
            None => timed(|| engine.try_apply_event(event)),
        };
        out.wall_ns += ns;
        out.event_ns.push(ns);
        out.ops += 1;
        match result {
            Ok(report) => {
                out.counts.absorb(&report);
                out.failed += u64::from(!report.converged);
            }
            Err(_) => out.failed += 1,
        }
        if i + 1 == churn.midpoint {
            out.failed += u64::from(!fixpoint_is(engine, mid_reference));
        }
    }
    out.failed += u64::from(!fixpoint_is(engine, end_reference));
    out
}

fn fixpoint_is(engine: &LiveEngine, reference: &RoutingOutcome) -> bool {
    let nodes: Vec<PricingBgpNode> = engine.nodes().cloned().collect();
    protocol::outcome_from_nodes(&nodes).as_ref() == Ok(reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_pass_verifies_and_repeats_exactly() {
        let (mut prepared, _) = prepare(Workload::WarmChurnHier128, 5, 0);
        let first = pass(&mut prepared, Observe::Bare);
        let second = pass(&mut prepared, Observe::Bare);
        let observed = pass(&mut prepared, Observe::Full);
        assert_eq!(first.failed, 0);
        assert_eq!(first.ops, first.event_ns.len() as u64);
        assert_eq!(first.counts, second.counts);
        assert_eq!(first.counts, observed.counts);
    }

    #[test]
    fn a_wrong_reference_is_counted_as_a_failed_op() {
        let (mut prepared, _) = prepare(Workload::ChaosHier128, 5, 0);
        assert_eq!(pass(&mut prepared, Observe::Bare).failed, 0);
        let (other, _) = prepare(Workload::ChaosHier128, 6, 0);
        prepared.reference = other.reference;
        assert_eq!(pass(&mut prepared, Observe::Bare).failed, 1);
    }
}
