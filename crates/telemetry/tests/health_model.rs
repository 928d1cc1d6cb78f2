//! Differential model test for [`HealthMonitor`].
//!
//! The production monitor keeps its per-`(node, dest)` route history in
//! vectors indexed by AS number. The monitor it replaced kept it in an
//! ordered map — slower, and for exactly that reason easy to believe. It
//! lives on here, test-only, as the oracle: seeded random event streams
//! (with flap patterns mixed in) are folded by both, and
//! the findings must be identical after every event, the stages seen at
//! every quiescence.
//!
//! The crate has no dependencies, dev-dependencies included, so the streams
//! come from a few lines of xorshift rather than from proptest.

use bgpvcg_telemetry::health::{DETECTOR_OSCILLATION, DETECTOR_STALL, RUN_WIDE};
use bgpvcg_telemetry::{HealthConfig, HealthFinding, HealthMonitor, TraceEvent};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
struct RouteHistory {
    last: (u32, u64),
    before_last: Option<(u32, u64)>,
    revisits: u64,
    window_start: u64,
}

/// The map-based monitor, as it was before the dense tables.
#[derive(Debug)]
struct MapMonitor {
    config: HealthConfig,
    routes: BTreeMap<(u32, u32), RouteHistory>,
    last_progress_stage: u64,
    findings: Vec<HealthFinding>,
    fired: [bool; 3],
    stages_seen: u64,
}

impl MapMonitor {
    fn new(config: HealthConfig) -> Self {
        MapMonitor {
            config,
            routes: BTreeMap::new(),
            last_progress_stage: 0,
            findings: Vec::new(),
            fired: [false; 3],
            stages_seen: 0,
        }
    }

    fn fold(&mut self, event: &TraceEvent) {
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
        let quiet = stage.saturating_sub(self.last_progress_stage);
        if quiet > self.config.stall_stages && !self.fired[DETECTOR_STALL as usize] {
            self.fire(HealthFinding {
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
        let mut finding = None;
        match self.routes.get_mut(&(node, dest)) {
            None => {
                self.routes.insert(
                    (node, dest),
                    RouteHistory {
                        last: sig,
                        before_last: None,
                        revisits: 0,
                        window_start: stage,
                    },
                );
            }
            Some(history) => {
                if sig == history.last {
                    return;
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
        if let Some(finding) = finding {
            if !self.fired[DETECTOR_OSCILLATION as usize] {
                self.fire(finding);
            }
        }
    }

    fn fire(&mut self, finding: HealthFinding) {
        self.fired[finding.detector as usize] = true;
        self.findings.push(finding);
    }
}

/// AS numbers the streams draw nodes and destinations from.
const UNIVERSE: u32 = 5;

/// xorshift64*: all the randomness these streams need.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 33) % n
    }
}

fn select(node: u32, dest: u32, stage: u64, hops: u32, path_cost: u64) -> TraceEvent {
    TraceEvent::RouteSelected {
        node,
        dest,
        stage,
        hops,
        path_cost,
    }
}

fn relax(dest: u32, stage: u64) -> TraceEvent {
    TraceEvent::PriceRelaxed {
        node: 0,
        dest,
        k: 1,
        stage,
        new: 8,
    }
}

/// A seeded stream: stages that mostly advance (sometimes repeat, skip, or
/// go quiet), selections over a signature space small enough that routes
/// are revisited, events stamped with an earlier stage now and then,
/// relaxation bursts, withdrawals, quiescence marks, kinds the monitor
/// ignores — plus, on some seeds, a sustained two-route flap on one pair.
fn stream(seed: u64) -> Vec<TraceEvent> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut events = Vec::new();
    let mut stage = 0u64;
    let flap = rng.below(3) == 0;
    let id = |rng: &mut Rng| rng.below(u64::from(UNIVERSE)) as u32;
    for _ in 0..20 + rng.below(40) {
        stage += match rng.below(8) {
            0 => 0,
            1 => 2 + rng.below(5),
            _ => 1,
        };
        events.push(TraceEvent::StageStart { stage });
        if rng.below(6) == 0 {
            continue; // a quiet stage
        }
        if flap {
            let (hops, cost) = if stage.is_multiple_of(2) {
                (2, 10)
            } else {
                (3, 9)
            };
            events.push(select(1, 2, stage, hops, cost));
        }
        for _ in 0..rng.below(5) {
            let at = stage.saturating_sub(u64::from(rng.below(5) == 0));
            events.push(match rng.below(10) {
                0..=4 => select(
                    id(&mut rng),
                    id(&mut rng),
                    at,
                    1 + rng.below(2) as u32,
                    rng.below(3),
                ),
                5..=7 => relax(id(&mut rng), at),
                8 => TraceEvent::Withdrawn {
                    node: id(&mut rng),
                    dest: id(&mut rng),
                    stage: at,
                },
                _ => TraceEvent::SessionReset {
                    stage: at,
                    node: id(&mut rng),
                    peer: id(&mut rng),
                },
            });
        }
        if rng.below(12) == 0 {
            events.push(TraceEvent::Quiescent {
                stage,
                messages: stage,
            });
        }
    }
    events.push(TraceEvent::Quiescent {
        stage,
        messages: stage,
    });
    events
}

/// Thresholds low enough that random streams trip every detector.
const TIGHT: HealthConfig = HealthConfig {
    flap_revisits: 2,
    flap_window: 6,
    stall_stages: 4,
};

#[test]
fn dense_monitor_matches_map_oracle() {
    let mut fired = [0usize; 3];
    for seed in 0..400u64 {
        let config = if seed.is_multiple_of(2) {
            TIGHT
        } else {
            HealthConfig::default()
        };
        let mut oracle = MapMonitor::new(config);
        let mut sized = HealthMonitor::with_node_count(config, UNIVERSE as usize);
        for (step, event) in stream(seed).iter().enumerate() {
            oracle.fold(event);
            sized.fold(event);
            assert_eq!(sized.findings(), oracle.findings, "seed {seed} step {step}");
            if matches!(event, TraceEvent::Quiescent { .. }) {
                assert_eq!(
                    sized.stages_seen(),
                    oracle.stages_seen,
                    "seed {seed} step {step}"
                );
            }
        }
        for finding in &oracle.findings {
            fired[finding.detector as usize] += 1;
        }
    }
    assert!(
        [DETECTOR_OSCILLATION, DETECTOR_STALL]
            .iter()
            .all(|&detector| fired[detector as usize] >= 10),
        "the streams must exercise every detector, fired {fired:?}"
    );
}
