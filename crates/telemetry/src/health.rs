//! Streaming convergence-health detectors (SLO monitors).
//!
//! [`HealthMonitor`] folds the live [`TraceEvent`] stream — no replay, no
//! buffering of the whole trace — and maintains two detectors
//! (`docs/OBSERVABILITY.md` §health-SLOs):
//!
//! * **Route oscillation** (detector 0): a `(node, dest)` pair re-selects
//!   a route it recently moved away from at least
//!   [`HealthConfig::flap_revisits`] times inside a
//!   [`HealthConfig::flap_window`]-stage window. FPSS convergence is
//!   monotone, so any revisit at all means the inputs are flapping
//!   (costs, links, or an adversary), and repeated revisits are the
//!   instability signature the related route-incentive literature warns
//!   about.
//! * **Convergence stall** (detector 2): stages keep starting but no
//!   advertised state (route, price, withdrawal) has changed for more
//!   than [`HealthConfig::stall_stages`] stages — a run that will end on
//!   its stage limit rather than in `Quiescent`.
//!
//! Each detector reports **at most one finding per run** (the first
//! trigger, with the measured count), so "exactly the seeded findings"
//! is a meaningful acceptance check and honest runs assert zero findings.
//!
//! Everything is stage-denominated integer arithmetic — no wall clock —
//! so serial and parallel engines folding the same (deterministically
//! ordered) event stream produce bit-identical verdicts.

use crate::dense_cell;
use crate::event::TraceEvent;
use crate::sink::TraceSink;
use std::sync::Mutex;

/// Detector code for route-flap / oscillation findings.
pub const DETECTOR_OSCILLATION: u32 = 0;
/// Detector code for convergence-stall findings.
pub const DETECTOR_STALL: u32 = 2;

/// `node`/`dest` value for findings that concern the whole run.
pub const RUN_WIDE: u32 = u32::MAX;

/// Thresholds for the streaming detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Revisits of a recently-abandoned route that count as oscillation.
    pub flap_revisits: u64,
    /// Window (in stages) revisits must fall within.
    pub flap_window: u64,
    /// Consecutive stages without advertised-state change that count as a
    /// stall.
    pub stall_stages: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            flap_revisits: 3,
            flap_window: 32,
            stall_stages: 64,
        }
    }
}

/// One detector firing: what crossed which threshold, where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthFinding {
    /// Detector code ([`DETECTOR_OSCILLATION`] etc.).
    pub detector: u32,
    /// Stage at which the detector fired.
    pub stage: u64,
    /// Concerned AS ([`RUN_WIDE`] for run-wide findings).
    pub node: u32,
    /// Concerned destination ([`RUN_WIDE`] for run-wide findings).
    pub dest: u32,
    /// The measured quantity.
    pub count: u64,
    /// The threshold it crossed.
    pub threshold: u64,
}

impl HealthFinding {
    /// The trace emission for this finding.
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent::HealthVerdict {
            stage: self.stage,
            detector: self.detector,
            node: self.node,
            dest: self.dest,
            count: self.count,
            threshold: self.threshold,
        }
    }
}

/// Human-readable name for a detector code.
pub fn detector_name(detector: u32) -> &'static str {
    match detector {
        DETECTOR_OSCILLATION => "oscillation",
        DETECTOR_STALL => "stall",
        _ => "unknown",
    }
}

/// Per-(node, dest) route history backing the oscillation detector. Route
/// identity is the advertised `(hops, path_cost)` signature.
#[derive(Debug, Clone, Copy)]
struct RouteHistory {
    last: (u32, u64),
    before_last: Option<(u32, u64)>,
    revisits: u64,
    window_start: u64,
}

/// Streaming health monitor; fold events with [`HealthMonitor::fold`].
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    /// Events naming an AS at or beyond this index (the node count) leave
    /// the dense tables untouched.
    bound: usize,
    /// `routes[node][dest]`; a node's row is allocated at its first
    /// selection.
    routes: Vec<Vec<Option<RouteHistory>>>,
    last_progress_stage: u64,
    findings: Vec<HealthFinding>,
    stages_seen: u64,
}

impl HealthMonitor {
    /// A monitor for an `n`-node network: an event naming an AS outside
    /// `0..n` (including [`RUN_WIDE`]) still counts as progress but never
    /// sizes a table, so no event can make the monitor allocate by the
    /// value of an id it carries.
    pub fn with_node_count(config: HealthConfig, n: usize) -> Self {
        HealthMonitor {
            config,
            bound: n,
            routes: Vec::new(),
            last_progress_stage: 0,
            findings: Vec::new(),
            stages_seen: 0,
        }
    }

    /// Folds one trace event into the detectors.
    pub fn fold(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::StageStart { stage } => self.on_stage_start(stage),
            TraceEvent::RouteSelected {
                node,
                dest,
                stage,
                hops,
                path_cost,
                ..
            } => {
                self.on_progress(stage);
                self.on_route_selected(node, dest, stage, (hops, path_cost));
            }
            TraceEvent::PriceRelaxed { stage, .. } | TraceEvent::Withdrawn { stage, .. } => {
                self.on_progress(stage);
            }
            _ => {}
        }
    }

    fn on_stage_start(&mut self, stage: u64) {
        self.stages_seen += 1;
        // Stall: stages keep starting with no advertised-state change.
        let quiet = stage.saturating_sub(self.last_progress_stage);
        if quiet > self.config.stall_stages && !self.fired(DETECTOR_STALL) {
            self.findings.push(HealthFinding {
                detector: DETECTOR_STALL,
                stage,
                node: RUN_WIDE,
                dest: RUN_WIDE,
                count: quiet,
                threshold: self.config.stall_stages,
            });
        }
    }

    fn on_progress(&mut self, stage: u64) {
        self.last_progress_stage = self.last_progress_stage.max(stage);
    }

    fn on_route_selected(&mut self, node: u32, dest: u32, stage: u64, sig: (u32, u64)) {
        let config = self.config;
        let Some(history) = dense_cell(&mut self.routes, node, self.bound)
            .and_then(|row| dense_cell(row, dest, self.bound))
        else {
            return;
        };
        let mut finding = None;
        match history {
            None => {
                *history = Some(RouteHistory {
                    last: sig,
                    before_last: None,
                    revisits: 0,
                    window_start: stage,
                });
            }
            Some(history) => {
                if sig == history.last {
                    return; // re-advertisement of the same route, not a flap
                }
                if stage.saturating_sub(history.window_start) > config.flap_window {
                    history.revisits = 0;
                    history.window_start = stage;
                }
                if history.before_last == Some(sig) {
                    history.revisits += 1;
                    if history.revisits >= config.flap_revisits {
                        finding = Some(HealthFinding {
                            detector: DETECTOR_OSCILLATION,
                            stage,
                            node,
                            dest,
                            count: history.revisits,
                            threshold: config.flap_revisits,
                        });
                    }
                }
                history.before_last = Some(history.last);
                history.last = sig;
            }
        }
        if let Some(finding) = finding.filter(|_| !self.fired(DETECTOR_OSCILLATION)) {
            self.findings.push(finding);
        }
    }

    /// Whether `detector` has fired (its one finding is in the list).
    fn fired(&self, detector: u32) -> bool {
        self.findings.iter().any(|f| f.detector == detector)
    }

    /// Findings so far, in firing order (at most one per detector).
    pub fn findings(&self) -> &[HealthFinding] {
        &self.findings
    }

    /// True once the stall detector has fired.
    pub fn stalled(&self) -> bool {
        self.fired(DETECTOR_STALL)
    }

    /// Stages observed so far.
    pub fn stages_seen(&self) -> u64 {
        self.stages_seen
    }
}

/// A [`TraceSink`] adapter around a [`HealthMonitor`], so engines can tee
/// the monitor into their telemetry stream: every recorded event is folded
/// as it happens, and the engine drains freshly-fired findings into
/// `HealthVerdict` trace emissions at run end.
#[derive(Debug)]
pub struct HealthSink {
    state: Mutex<HealthSinkState>,
}

#[derive(Debug)]
struct HealthSinkState {
    monitor: HealthMonitor,
    /// Findings already drained by [`HealthSink::drain_new_findings`].
    emitted: usize,
}

impl HealthSink {
    /// A sink folding into a fresh monitor sized for an `n`-node network
    /// ([`HealthMonitor::with_node_count`]).
    pub fn with_node_count(config: HealthConfig, n: usize) -> Self {
        HealthSink {
            state: Mutex::new(HealthSinkState {
                monitor: HealthMonitor::with_node_count(config, n),
                emitted: 0,
            }),
        }
    }

    /// True once the stall detector has fired.
    pub fn stalled(&self) -> bool {
        self.lock().monitor.stalled()
    }

    /// Findings fired since the previous drain, in firing order. Engines
    /// call this when emitting `HealthVerdict` events so each finding is
    /// traced exactly once even across repeated runs on one sink.
    pub fn drain_new_findings(&self) -> Vec<HealthFinding> {
        let mut state = self.lock();
        let fresh = state.monitor.findings()[state.emitted..].to_vec();
        state.emitted = state.monitor.findings().len();
        fresh
    }

    /// All findings so far, in firing order.
    pub fn findings(&self) -> Vec<HealthFinding> {
        self.lock().monitor.findings().to_vec()
    }

    /// A point-in-time copy of the underlying monitor.
    pub fn snapshot(&self) -> HealthMonitor {
        self.lock().monitor.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HealthSinkState> {
        // lint:allow(poisoning requires a prior panic while folding; propagating it is the only sound move)
        self.state.lock().expect("health sink poisoned")
    }
}

impl TraceSink for HealthSink {
    fn record(&self, event: &TraceEvent) {
        self.lock().monitor.fold(event);
    }

    fn record_all(&self, events: &[TraceEvent]) {
        let mut state = self.lock();
        for event in events {
            state.monitor.fold(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A monitor sized to the AS numbers these tests use.
    fn monitor(config: HealthConfig) -> HealthMonitor {
        HealthMonitor::with_node_count(config, 8)
    }

    fn select(node: u32, dest: u32, stage: u64, hops: u32, cost: u64) -> TraceEvent {
        TraceEvent::RouteSelected {
            node,
            dest,
            stage,
            hops,
            path_cost: cost,
        }
    }

    #[test]
    fn steady_convergence_raises_no_findings() {
        let mut monitor = monitor(HealthConfig::default());
        for stage in 1..=10u64 {
            monitor.fold(&TraceEvent::StageStart { stage });
            monitor.fold(&select(1, 2, stage, 2, 100 - stage));
        }
        monitor.fold(&TraceEvent::Quiescent {
            stage: 10,
            messages: 10,
        });
        assert!(monitor.findings().is_empty());
        assert!(!monitor.stalled());
        assert_eq!(monitor.stages_seen(), 10);
    }

    #[test]
    fn oscillation_fires_once_after_enough_revisits() {
        let config = HealthConfig {
            flap_revisits: 3,
            ..HealthConfig::default()
        };
        let mut monitor = monitor(config);
        // Route toggles A (2 hops, 10) <-> B (3 hops, 9): each return to a
        // recently-held signature is one revisit.
        for stage in 1..=12u64 {
            monitor.fold(&TraceEvent::StageStart { stage });
            let (hops, cost) = if stage % 2 == 0 { (2, 10) } else { (3, 9) };
            monitor.fold(&select(7, 1, stage, hops, cost));
        }
        let findings = monitor.findings();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].detector, DETECTOR_OSCILLATION);
        assert_eq!((findings[0].node, findings[0].dest), (7, 1));
        assert_eq!(findings[0].count, 3);
    }

    #[test]
    fn stall_fires_after_quiet_stages_and_sets_stalled() {
        let config = HealthConfig {
            stall_stages: 5,
            ..HealthConfig::default()
        };
        let mut monitor = monitor(config);
        monitor.fold(&TraceEvent::StageStart { stage: 1 });
        monitor.fold(&select(1, 2, 1, 2, 9));
        for stage in 2..=6u64 {
            monitor.fold(&TraceEvent::StageStart { stage });
        }
        assert!(!monitor.stalled());
        monitor.fold(&TraceEvent::StageStart { stage: 7 });
        assert!(monitor.stalled());
        let findings = monitor.findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].detector, DETECTOR_STALL);
        assert_eq!(findings[0].count, 6);
        assert_eq!(findings[0].threshold, 5);
        // And it stays a single finding however long the stall continues.
        for stage in 8..=20u64 {
            monitor.fold(&TraceEvent::StageStart { stage });
        }
        assert_eq!(monitor.findings().len(), 1);
    }

    #[test]
    fn sized_monitor_never_allocates_by_id_value() {
        let config = HealthConfig {
            stall_stages: 2,
            ..HealthConfig::default()
        };
        let mut monitor = HealthMonitor::with_node_count(config, 4);
        // Out-of-range ids size no table, but the events still count as
        // progress: no stall although nothing in range ever changed.
        for stage in 1..=8u64 {
            monitor.fold(&TraceEvent::StageStart { stage });
            monitor.fold(&select(RUN_WIDE, RUN_WIDE, stage, 2, 9));
        }
        assert!(monitor.routes.is_empty());
        assert!(!monitor.stalled() && monitor.findings().is_empty());
        monitor.fold(&select(1, RUN_WIDE, 8, 2, 9));
        assert!(
            monitor.routes.iter().all(Vec::is_empty),
            "an out-of-range dest sizes no row"
        );
        // In-range events are tracked as ever.
        monitor.fold(&select(1, 2, 8, 2, 9));
        assert_eq!(monitor.routes.len(), 4);
        assert!(monitor.routes[1][2].is_some());
    }

    #[test]
    fn sink_folds_records_and_drains_findings_once() {
        let config = HealthConfig {
            stall_stages: 2,
            ..HealthConfig::default()
        };
        let sink = HealthSink::with_node_count(config, 4);
        sink.record(&TraceEvent::StageStart { stage: 1 });
        sink.record(&select(1, 2, 1, 2, 9));
        for stage in 2..=4u64 {
            sink.record(&TraceEvent::StageStart { stage });
        }
        assert!(sink.stalled());
        let fresh = sink.drain_new_findings();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].detector, DETECTOR_STALL);
        assert!(sink.drain_new_findings().is_empty());
        assert_eq!(sink.findings().len(), 1);
        assert_eq!(sink.snapshot().findings().len(), 1);
    }
}
