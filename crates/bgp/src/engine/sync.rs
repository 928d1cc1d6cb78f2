//! The synchronous-stage engine of the paper's Sect. 5: the shared
//! [`Engine`] over the [`LockStep`] transport.
//!
//! All nodes exchange routing tables in lock-step rounds. Each stage
//! consists of (1) delivering every update queued in the previous stage,
//! (2) letting each node that received something recompute, and (3)
//! queueing whatever those nodes want to re-advertise; the run ends at the
//! first stage with nothing queued. Steps (2) and (3) are the shared
//! engine's handle pass and send path; this file adds what only lock-step
//! delivery has — the run loop with its stage accounting, the optional
//! worker pool, the online auditor with quarantine, and topology events.

use super::invariants;
use super::kernel::{enqueue, AuditorSlot, Engine, ObserverSlot, Parcel, StageObserver, Transport};
use crate::adversary::{Accusation, WireAuditor};
use crate::dynamics::{LocalEvent, TopologyEvent};
use crate::message::RouteInfo;
use crate::node::ProtocolNode;
use crate::stats::StateSnapshot;
use crate::telemetry::metric;
use bgpvcg_netgraph::{AsGraph, AsId, Cost, GraphError};
use bgpvcg_telemetry::flight::{self, StateSnapshot as FlightSnapshot};
use bgpvcg_telemetry::profile::span;
use bgpvcg_telemetry::TraceEvent;
use std::fmt;
use std::sync::Arc;

/// What one call to [`SyncEngine::run_to_convergence`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Stages executed until quiescence. A stage is one synchronous round of
    /// "deliver all queued updates, let every receiving node recompute and
    /// re-advertise". This is the quantity the paper bounds by `d` for plain
    /// BGP and `max(d, d′)` for the pricing extension.
    pub stages: usize,
    /// Messages delivered (one update crossing one link = one message).
    pub messages: usize,
    /// Routing-table entries carried by all delivered messages.
    pub entries: usize,
    /// Total bytes under the [`wire`](crate::wire) model (v1 fixed-width
    /// encoding — the historical baseline column).
    pub bytes: usize,
    /// Total bytes under the v2 varint/delta encoding
    /// ([`wire::encode_update_v2_into`](crate::wire::encode_update_v2_into))
    /// of the same message stream.
    pub bytes_v2: usize,
    /// Peak messages delivered on any single link in any single stage.
    pub max_link_messages_per_stage: usize,
    /// `false` if the engine hit its stage limit before quiescing (a
    /// protocol bug, never expected with LCP policies).
    pub converged: bool,
}

impl RunReport {
    fn absorb(&mut self, other: RunReport) {
        self.stages += other.stages;
        self.messages += other.messages;
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.bytes_v2 += other.bytes_v2;
        self.max_link_messages_per_stage = self
            .max_link_messages_per_stage
            .max(other.max_link_messages_per_stage);
        self.converged = other.converged;
    }

    fn account(&mut self, sent: Sent) {
        self.messages += sent.messages;
        self.entries += sent.entries;
        self.bytes += sent.bytes;
        self.bytes_v2 += sent.bytes_v2;
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} stages, {} messages, {} entries, {} bytes ({} v2){}",
            self.stages,
            self.messages,
            self.entries,
            self.bytes,
            self.bytes_v2,
            if self.converged {
                ""
            } else {
                " (NOT CONVERGED)"
            }
        )
    }
}

/// One synchronous stage as seen by a trace observer (see
/// [`SyncEngine::run_to_convergence_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTrace {
    /// 1-based stage number within this run.
    pub stage: usize,
    /// Nodes that received at least one update this stage.
    pub receiving_nodes: usize,
    /// Nodes whose advertised state changed (they re-advertised).
    pub changed_nodes: usize,
    /// Messages sent this stage (update × receiving link).
    pub messages: usize,
    /// Encoded bytes sent this stage.
    pub bytes: usize,
}

impl fmt::Display for StageTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {:>3}: {:>3} nodes received, {:>3} changed, {:>5} msgs, {:>8} bytes",
            self.stage, self.receiving_nodes, self.changed_nodes, self.messages, self.bytes
        )
    }
}

/// Traffic the lock-step transport has accounted at send time: one update
/// crossing one link is one message.
#[derive(Debug, Clone, Copy, Default)]
struct Sent {
    messages: usize,
    entries: usize,
    /// v1 bytes — the column the public [`StageTrace`] and the `bgp_bytes`
    /// counter keep for display stability.
    bytes: usize,
    bytes_v2: usize,
}

/// Everything one executed stage produced beyond its public [`StageTrace`]:
/// the stage's traffic for the run report and its peak per-link message
/// count.
struct StageOutcome {
    trace: StageTrace,
    sent: Sent,
    link_max: usize,
}

/// Perfect lock-step delivery: a payload sent in one stage sits in the
/// neighbor's inbox for the next, and is accounted the moment it is sent.
/// Also holds what only the lock-step run loop keeps: the stage budget, the
/// links of crashed nodes, and the auditor's verdicts.
#[derive(Debug)]
pub struct LockStep {
    /// The neighbor list each crashed node had when it went down, so
    /// [`TopologyEvent::NodeUp`] can restore exactly those links. A link
    /// whose far end is *also* down is handed over to that node's parked
    /// list when this one restarts, so both-down links resurface when the
    /// second endpoint comes back.
    parked: Vec<Vec<AsId>>,
    /// Safety valve: abort after this many stages (default `8n + 64`).
    stage_limit: usize,
    started: bool,
    /// Stage counter for the step-wise API.
    steps_executed: usize,
    /// Whether an auditor accusation triggers automatic NodeDown
    /// quarantine (on by default when an auditor is attached).
    auto_quarantine: bool,
    /// Nodes the auditor quarantined over this engine's lifetime, in
    /// accusation order.
    quarantined: Vec<AsId>,
    /// Every accusation the attached auditor returned, in order.
    accusations: Vec<Accusation>,
    /// Sends accounted since the run loop last [settled](Engine::take_sent).
    sent: Sent,
    /// The provenance counter when the run loop last settled: the updates
    /// stamped since are the broadcasts `sent` belongs to.
    settled_seq: u64,
}

impl Transport for LockStep {
    /// The adjacency *is* the live link set.
    fn is_open(&self, _from: AsId, _to: AsId) -> bool {
        true
    }

    fn send<N: ProtocolNode>(engine: &mut Engine<N, Self>, _from: AsId, to: AsId, parcel: &Parcel) {
        let (bytes, bytes_v2) = parcel.sizes(&mut engine.scratch);
        let sent = &mut engine.link.sent;
        sent.messages += 1;
        sent.entries += parcel.update.entry_count();
        sent.bytes += bytes;
        sent.bytes_v2 += bytes_v2;
        let update = Arc::clone(&parcel.update);
        enqueue(&mut engine.inboxes, &mut engine.dirty, to, update);
    }
}

/// The synchronous-stage engine: all nodes exchange routing tables in
/// lock-step rounds, exactly the computational model of the paper's Sect. 5.
///
/// Node recomputation within a stage is independent by construction (each
/// `handle` reads only the node's own inbox, filled last stage), so stages
/// can run on a worker pool — [`with_parallelism`](Engine::with_parallelism)
/// — while broadcasts go out in ascending node order, keeping parallel runs
/// bit-for-bit identical to serial ones.
pub type SyncEngine<N> = Engine<N, LockStep>;

impl<N: ProtocolNode> Engine<N, LockStep> {
    /// Creates an engine over the graph's topology with one prepared node
    /// per AS (in AS order — see e.g.
    /// [`PlainBgpNode::from_graph`](crate::PlainBgpNode::from_graph)).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph's node count or ids
    /// are out of order.
    pub fn new(graph: &AsGraph, nodes: Vec<N>) -> Self {
        let n = nodes.len();
        let link = LockStep {
            parked: vec![Vec::new(); n],
            stage_limit: 8 * n + 64,
            started: false,
            steps_executed: 0,
            auto_quarantine: true,
            quarantined: Vec::new(),
            accusations: Vec::new(),
            sent: Sent::default(),
            settled_seq: 0,
        };
        Engine::over(graph, nodes, link)
    }

    /// Sets the number of worker threads a stage's node recomputation is
    /// partitioned across (clamped to at least 1; 1 = the serial reference
    /// path). Any value produces bit-identical runs — reports, fixpoints,
    /// message streams, and telemetry all match the serial engine exactly,
    /// because emitted updates are advertised in ascending node order. See
    /// `docs/PERFORMANCE.md` for the determinism argument.
    #[must_use]
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The configured number of stage workers (1 = serial).
    pub fn parallelism(&self) -> usize {
        self.workers
    }

    /// Installs a per-stage observer invoked with `(stage, nodes)` after
    /// every executed stage of a traced run — the hook economic
    /// instrumentation (premium/welfare gauges) samples through without
    /// the engine knowing about pricing.
    pub fn set_stage_observer(&mut self, observer: StageObserver<N>) {
        self.stage_observer = Some(ObserverSlot(observer));
    }

    /// Writes the divergence dump after a stage-limit abort.
    fn dump_flight(&self, executed: usize, report: &RunReport) {
        let summary = [
            ("stage_limit", self.link.stage_limit as u64),
            ("stages_with_changes", report.stages as u64),
            ("messages", report.messages as u64),
            ("entries", report.entries as u64),
            ("dirty_nodes", self.dirty.len() as u64),
            ("updates_stamped", self.update_seq),
            ("nodes", self.nodes.len() as u64),
        ];
        let snapshots = || {
            let per_node = self.inboxes.iter().zip(&self.adjacency).zip(&self.down);
            // Bound the artifact on huge topologies; the run summary still
            // carries the totals.
            per_node
                .take(64)
                .enumerate()
                .map(|(idx, ((inbox, neighbors), &down))| FlightSnapshot {
                    node: idx as u32,
                    fields: vec![
                        ("inbox_depth", inbox.len() as u64),
                        ("neighbors", neighbors.len() as u64),
                        ("down", u64::from(down)),
                    ],
                })
                .collect()
        };
        let stage = executed as u64;
        self.instruments
            .dump_abort(flight::REASON_STAGE_LIMIT, stage, &summary, snapshots);
    }

    /// Collects the attached auditor's end-of-stage accusations, narrates
    /// them (`AuditViolation` trace events plus a flight post-mortem), and
    /// — with auto-quarantine on — cuts each accused node from the
    /// topology via the [`TopologyEvent::NodeDown`] machinery. Quarantine
    /// reaction broadcasts land at the head of the continuing run, so the
    /// honest subgraph reconverges within the same
    /// `run_to_convergence` call. An accusation whose removal would break
    /// the live graph's biconnectivity is recorded but not quarantined.
    fn audit_stage(&mut self, stage: u64, report: &mut RunReport) {
        if self.auditor.is_none() {
            return;
        }
        self.instruments.enter(span::AUDIT_SHADOW);
        let accusations = match self.auditor.as_mut() {
            Some(auditor) => auditor.0.end_stage(stage),
            None => Vec::new(),
        };
        for accusation in accusations {
            for finding in &accusation.findings {
                self.instruments.record(&TraceEvent::AuditViolation {
                    stage,
                    node: accusation.node.index() as u32,
                    dest: finding.destination.index() as u32,
                    expected: advertised_cost_raw(finding.expected.as_ref()),
                    advertised: advertised_cost_raw(finding.advertised.as_ref()),
                    violation: u32::from(finding.equivocation),
                });
            }
            self.dump_audit_flight(stage, &accusation);
            let culprit = accusation.node;
            self.link.accusations.push(accusation);
            if !self.link.auto_quarantine || self.down[culprit.index()] {
                continue;
            }
            if self
                .validate_event(TopologyEvent::NodeDown(culprit))
                .is_ok()
            {
                self.instruments.record(&TraceEvent::NodeQuarantined {
                    stage,
                    node: culprit.index() as u32,
                });
                // The wire tap goes with the node: a quarantined adversary
                // sends nothing more to perturb.
                self.adversaries[culprit.index()] = None;
                self.inject_event(TopologyEvent::NodeDown(culprit), report);
                self.link.quarantined.push(culprit);
            }
        }
        self.instruments.exit();
    }

    /// Writes the audit post-mortem after an accusation: the accused node,
    /// every diverging destination with its expected-vs-advertised costs,
    /// and the recorded event tail. Best-effort like
    /// [`dump_flight`](Self::dump_flight).
    fn dump_audit_flight(&self, stage: u64, accusation: &Accusation) {
        let Some(recorder) = self.instruments.flight_recorder() else {
            return;
        };
        let summary: Vec<(&str, u64)> = vec![
            ("accused", u64::from(accusation.node.index() as u32)),
            ("stage", stage),
            ("diverging_destinations", accusation.findings.len() as u64),
            (
                "equivocations",
                accusation
                    .findings
                    .iter()
                    .filter(|f| f.equivocation)
                    .count() as u64,
            ),
        ];
        let snapshots: Vec<FlightSnapshot> = accusation
            .findings
            .iter()
            .take(64)
            .map(|finding| FlightSnapshot {
                node: finding.destination.index() as u32,
                fields: vec![
                    (
                        "expected_cost",
                        advertised_cost_raw(finding.expected.as_ref()),
                    ),
                    (
                        "advertised_cost",
                        advertised_cost_raw(finding.advertised.as_ref()),
                    ),
                    ("equivocation", u64::from(finding.equivocation)),
                ],
            })
            .collect();
        let _ = recorder.dump(flight::REASON_AUDIT_VIOLATION, stage, &summary, &snapshots);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Overrides the stage safety limit.
    pub fn set_stage_limit(&mut self, limit: usize) {
        self.link.stage_limit = limit;
    }

    /// Attaches an online auditor: every queued delivery is narrated to it
    /// via [`WireAuditor::on_wire`], and after the stage-0 reaction
    /// broadcasts plus every executed stage the engine collects its
    /// accusations. Unless [`set_auto_quarantine`](Self::set_auto_quarantine)
    /// is turned off, each accused node is immediately cut from the
    /// topology via the [`TopologyEvent::NodeDown`] machinery (when the
    /// residual graph stays biconnected) so the honest subgraph
    /// reconverges. Supported on the `run_to_convergence` /
    /// `apply_event` APIs; the step-wise API does not drive audit hooks.
    pub fn attach_auditor(&mut self, auditor: Box<dyn WireAuditor>) {
        self.auditor = Some(AuditorSlot(auditor));
    }

    /// Enables or disables automatic quarantine of accused nodes (on by
    /// default). With it off, accusations are still recorded and traced.
    pub fn set_auto_quarantine(&mut self, on: bool) {
        self.link.auto_quarantine = on;
    }

    /// Nodes the auditor quarantined over this engine's lifetime.
    pub fn quarantined(&self) -> &[AsId] {
        &self.link.quarantined
    }

    /// Every accusation the attached auditor has returned, in order.
    pub fn accusations(&self) -> &[Accusation] {
        &self.link.accusations
    }

    /// Closes the books on what was sent since the last call: feeds the
    /// `bgp_*` traffic counters (one `updates_sent` per update stamped in
    /// between — full tables are unstamped) and hands the totals to the
    /// caller's report.
    fn take_sent(&mut self) -> Sent {
        let sent = std::mem::take(&mut self.link.sent);
        let updates = self.update_seq - self.link.settled_seq;
        self.link.settled_seq = self.update_seq;
        if updates > 0 || sent.messages > 0 {
            self.instruments
                .account(updates, sent.messages, sent.entries, sent.bytes);
        }
        sent
    }

    /// Runs every node's `start()` hook, announcing the origin
    /// advertisements — ahead of a run's stage 1, so traced as stage 0.
    fn start_protocol(&mut self, report: &mut RunReport) {
        for k in (0..self.nodes.len() as u32).map(AsId::new) {
            if let Some(update) = self.nodes[k.index()].start() {
                self.advertise(k, update, 0);
            }
        }
        report.account(self.take_sent());
    }

    /// Executes one synchronous stage: the shared handle pass over what the
    /// previous stage queued, bracketed by the stage's trace, span and
    /// traffic accounting.
    fn run_stage(&mut self, stage: usize) -> StageOutcome {
        self.instruments.enter(span::STAGE);
        let wall_start = self.instruments.telemetry().map(|telemetry| {
            telemetry.record(&TraceEvent::StageStart {
                stage: stage as u64,
            });
            telemetry.now_nanos()
        });
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.0.begin_stage(stage as u64);
        }
        let depths = self.dirty.iter().map(|&idx| {
            // lint:allow(bounds: per-node engine buffers are sized n at construction and indices stay below n)
            self.inboxes[idx as usize].len()
        });
        let link_max = depths.max().unwrap_or(0);
        let (receiving_nodes, changed_nodes) = self.handle_pass(stage as u64);
        let sent = self.take_sent();
        if let (Some(telemetry), Some(start)) = (self.instruments.telemetry(), wall_start) {
            let elapsed = telemetry.now_nanos().saturating_sub(start);
            telemetry
                .histogram(metric::STAGE_WALL_NANOS)
                .observe(elapsed);
        }
        self.instruments.exit();
        let trace = StageTrace {
            stage,
            receiving_nodes,
            changed_nodes,
            messages: sent.messages,
            bytes: sent.bytes,
        };
        StageOutcome {
            trace,
            sent,
            link_max,
        }
    }

    /// Runs stages until no node has pending input, starting the protocol
    /// (initial origin advertisements) on the first call.
    pub fn run_to_convergence(&mut self) -> RunReport {
        self.run_to_convergence_traced(|_| {})
    }

    /// Executes the protocol one stage at a time: `start()` (first call
    /// only) plus a single delivery round, returning its [`StageTrace`] —
    /// or `None` when the network is quiescent. Lets callers inspect node
    /// state between stages (e.g. the per-node convergence experiment
    /// behind Lemma 2's `d_i` bound).
    ///
    /// # Example
    ///
    /// ```
    /// use bgpvcg_bgp::{engine::SyncEngine, PlainBgpNode};
    /// use bgpvcg_netgraph::generators::structured::fig1;
    ///
    /// let g = fig1();
    /// let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
    /// let mut stages = 0;
    /// while engine.step().is_some() {
    ///     stages += 1; // inspect engine.node(..) state here
    /// }
    /// assert!(stages >= 3, "Fig. 1 routing needs d = 3 stages plus drain");
    /// ```
    pub fn step(&mut self) -> Option<StageTrace> {
        if !self.link.started {
            self.link.started = true;
            self.start_protocol(&mut RunReport::default());
            self.link.steps_executed = 0;
        }
        if self.dirty.is_empty() {
            return None;
        }
        self.link.steps_executed += 1;
        Some(self.run_stage(self.link.steps_executed).trace)
    }

    /// Like [`run_to_convergence`](Self::run_to_convergence), but invokes
    /// `observer` with a [`StageTrace`] after every executed stage — the
    /// hook behind the CLI's `--trace` flag and any custom progress
    /// reporting.
    pub fn run_to_convergence_traced<F: FnMut(StageTrace)>(
        &mut self,
        mut observer: F,
    ) -> RunReport {
        let mut report = RunReport {
            converged: true,
            ..RunReport::default()
        };
        if !self.link.started {
            self.link.started = true;
            self.start_protocol(&mut report);
        }
        // Cross-check the stage-0 emissions (origin broadcasts, or the
        // topology-event reactions a caller queued before entering) before
        // stage 1 delivers them.
        self.audit_stage(0, &mut report);

        // `stages` reports the last stage in which some node's advertised
        // state changed — the moment the tables are final. One further
        // stage is executed to drain the resulting (no-op) deliveries, but
        // it is pure message drain, not computation, and the paper's
        // "converges within d stages" counts table changes.
        let mut executed = 0usize;
        while !self.dirty.is_empty() {
            if executed >= self.link.stage_limit {
                report.converged = false;
                invariants::convergence(&report, executed, self.link.stage_limit);
                self.instruments.finish(executed as u64, None);
                self.dump_flight(executed, &report);
                return report;
            }
            executed += 1;
            let outcome = self.run_stage(executed);
            if outcome.trace.changed_nodes > 0 {
                report.stages = executed;
            }
            report.account(outcome.sent);
            report.max_link_messages_per_stage =
                report.max_link_messages_per_stage.max(outcome.link_max);
            self.audit_stage(executed as u64, &mut report);
            let run_counters = [
                ("stage_limit", self.link.stage_limit as u64),
                ("messages", report.messages as u64),
                ("dirty_nodes", self.dirty.len() as u64),
                ("updates_stamped", self.update_seq),
                ("nodes", self.nodes.len() as u64),
            ];
            self.instruments.poll_stall(executed as u64, &run_counters);
            if let Some(mut slot) = self.stage_observer.take() {
                (slot.0)(executed as u64, &self.nodes);
                self.stage_observer = Some(slot);
            }
            observer(outcome.trace);
        }
        invariants::convergence(&report, executed, self.link.stage_limit);
        if let Some(telemetry) = self.instruments.telemetry() {
            telemetry
                .gauge(metric::STAGES_TO_QUIESCENCE)
                .set(report.stages as u64);
        }
        let messages = Some(report.messages as u64);
        self.instruments.finish(report.stages as u64, messages);
        report
    }

    /// Applies a topology event and reconverges, returning the report for
    /// the reconvergence (the "convergence process begins again" of
    /// Sect. 6).
    ///
    /// # Panics
    ///
    /// Panics if the event is invalid in the current topology — see
    /// [`try_apply_event`](Self::try_apply_event), the fallible variant
    /// chaos harnesses use, for the exact conditions.
    pub fn apply_event(&mut self, event: TopologyEvent) -> RunReport {
        match self.try_apply_event(event) {
            Ok(report) => report,
            // lint:allow(documented # Panics contract: the infallible API surfaces invalid events as programming errors)
            Err(error) => panic!("cannot apply {event:?}: {error}"),
        }
    }

    /// Checks that `event` can be applied to the current topology without
    /// touching anything.
    fn validate_event(&self, event: TopologyEvent) -> Result<(), GraphError> {
        let in_range = |id: AsId| {
            if id.index() < self.nodes.len() {
                Ok(())
            } else {
                Err(GraphError::UnknownNode(id))
            }
        };
        match event {
            TopologyEvent::LinkDown(a, b) => {
                in_range(a)?;
                in_range(b)?;
                if !self.adjacency[a.index()].contains(&b) {
                    return Err(GraphError::MissingLink(a, b));
                }
                Ok(())
            }
            TopologyEvent::LinkUp(a, b) => {
                in_range(a)?;
                in_range(b)?;
                if a == b {
                    return Err(GraphError::SelfLoop(a));
                }
                for id in [a, b] {
                    if self.down[id.index()] {
                        return Err(GraphError::NodeOffline(id));
                    }
                }
                if self.adjacency[a.index()].contains(&b) {
                    return Err(GraphError::DuplicateLink(a, b));
                }
                Ok(())
            }
            TopologyEvent::CostChange(k, _) => {
                in_range(k)?;
                if self.down[k.index()] {
                    return Err(GraphError::NodeOffline(k));
                }
                Ok(())
            }
            TopologyEvent::NodeDown(k) => {
                in_range(k)?;
                if self.down[k.index()] {
                    return Err(GraphError::NodeOffline(k));
                }
                self.residual_biconnected(k, false)
            }
            TopologyEvent::NodeUp(k) => {
                in_range(k)?;
                if !self.down[k.index()] {
                    return Err(GraphError::NodeOnline(k));
                }
                self.residual_biconnected(k, true)
            }
        }
    }

    /// Checks that the set of *live* nodes — with `toggle` additionally
    /// removed (`bring_up == false`) or restored with its parked links
    /// (`bring_up == true`) — still forms a biconnected graph, the
    /// precondition for k-avoiding paths and hence VCG prices (paper,
    /// Sect. 4). Costs are irrelevant to the check, so the scratch graph
    /// uses zeros; surviving ids are renumbered densely.
    fn residual_biconnected(&self, toggle: AsId, bring_up: bool) -> Result<(), GraphError> {
        let n = self.nodes.len();
        let included = |idx: usize| {
            // lint:allow(bounds: per-node engine buffers are sized n at construction and indices stay below n)
            (!self.down[idx] && (bring_up || idx != toggle.index()))
                || (bring_up && idx == toggle.index())
        };
        let mut remap = vec![u32::MAX; n];
        let mut builder = AsGraph::builder();
        let mut survivors = 0usize;
        for (idx, slot) in remap.iter_mut().enumerate() {
            if included(idx) {
                *slot = builder.add_node(Cost::ZERO).index() as u32;
                survivors += 1;
            }
        }
        if survivors < 3 {
            return Err(GraphError::TooSmall { nodes: survivors });
        }
        for idx in 0..n {
            // lint:allow(bounds: per-node engine buffers are sized n at construction and indices stay below n)
            if remap[idx] == u32::MAX {
                continue;
            }
            // lint:allow(bounds: per-node engine buffers are sized n at construction and indices stay below n)
            for &b in &self.adjacency[idx] {
                if b.index() > idx && remap[b.index()] != u32::MAX {
                    // lint:allow(bounds: per-node engine buffers are sized n at construction and indices stay below n)
                    builder.add_link(AsId::new(remap[idx]), AsId::new(remap[b.index()]))?;
                }
            }
        }
        if bring_up {
            // The restart restores exactly the parked links whose far end
            // is live; a crashed node's adjacency above was empty.
            for &a in &self.link.parked[toggle.index()] {
                if remap[a.index()] != u32::MAX {
                    builder.add_link(
                        AsId::new(remap[toggle.index()]),
                        AsId::new(remap[a.index()]),
                    )?;
                }
            }
        }
        if builder.build().is_biconnected() {
            Ok(())
        } else {
            Err(GraphError::NotBiconnected)
        }
    }

    /// Applies a topology event and reconverges — the fallible twin of
    /// [`apply_event`](Self::apply_event), used wherever invalid events
    /// are *data* rather than programming errors (the chaos harness feeds
    /// randomly generated schedules through this path).
    ///
    /// # Errors
    ///
    /// Returns — without mutating anything — [`GraphError::UnknownNode`]
    /// for out-of-range ids, [`GraphError::MissingLink`] /
    /// [`GraphError::DuplicateLink`] / [`GraphError::SelfLoop`] for
    /// invalid link events, [`GraphError::NodeOffline`] /
    /// [`GraphError::NodeOnline`] for events touching a node in the wrong
    /// liveness state, and [`GraphError::NotBiconnected`] /
    /// [`GraphError::TooSmall`] when a node removal (or a restart whose
    /// surviving link set is too thin) would leave the live topology
    /// without the biconnectivity VCG pricing requires — instead of
    /// letting prices silently become undefined.
    pub fn try_apply_event(&mut self, event: TopologyEvent) -> Result<RunReport, GraphError> {
        self.validate_event(event)?;
        let mut report = RunReport {
            converged: true,
            ..RunReport::default()
        };
        self.inject_event(event, &mut report);
        let reconverge = self.run_to_convergence();
        report.absorb(reconverge);
        Ok(report)
    }

    /// Applies an already-validated topology event *without* reconverging:
    /// mutates the topology, delivers the affected nodes' local views
    /// (their reaction broadcasts trace at stage 0), and queues the
    /// session-establishment full-table exchanges. Callers run (or are
    /// already inside) the convergence loop that absorbs the queued
    /// traffic — the auditor's quarantine path injects events mid-run
    /// through exactly this hook.
    fn inject_event(&mut self, event: TopologyEvent, report: &mut RunReport) {
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.0.on_topology(&event);
        }
        // Update the engine's own topology state first (validated by the
        // caller).
        // `restored` collects the links a NodeUp brings back; empty
        // otherwise.
        let mut restored: Vec<AsId> = Vec::new();
        match event {
            TopologyEvent::LinkDown(a, b) => {
                self.adjacency[a.index()].retain(|&x| x != b);
                self.adjacency[b.index()].retain(|&x| x != a);
            }
            TopologyEvent::LinkUp(a, b) => {
                self.adjacency[a.index()].push(b);
                self.adjacency[a.index()].sort_unstable();
                self.adjacency[b.index()].push(a);
                self.adjacency[b.index()].sort_unstable();
            }
            TopologyEvent::CostChange(..) => {}
            TopologyEvent::NodeDown(k) => {
                // Detach every incident link (both directions) and park
                // the neighbor list for the eventual restart.
                let neighbors = std::mem::take(&mut self.adjacency[k.index()]);
                for &a in &neighbors {
                    self.adjacency[a.index()].retain(|&x| x != k);
                }
                // Crash semantics: the node loses all protocol state now
                // (its links too — it restarts with none until they are
                // restored), and anything queued for it is gone with it.
                self.nodes[k.index()].reset();
                for &a in &neighbors {
                    let _ = self.nodes[k.index()].apply_event(LocalEvent::LinkDown(a));
                }
                self.drop_inbox(k);
                self.link.parked[k.index()] = neighbors;
                self.down[k.index()] = true;
            }
            TopologyEvent::NodeUp(k) => {
                self.down[k.index()] = false;
                let parked = std::mem::take(&mut self.link.parked[k.index()]);
                for &a in &parked {
                    if self.down[a.index()] {
                        // The far end is still down: hand the link over to
                        // its parked set so it returns when *that* node
                        // restarts.
                        if !self.link.parked[a.index()].contains(&k) {
                            self.link.parked[a.index()].push(k);
                        }
                    } else {
                        self.adjacency[k.index()].push(a);
                        self.adjacency[a.index()].push(k);
                        self.adjacency[a.index()].sort_unstable();
                        restored.push(a);
                    }
                }
                self.adjacency[k.index()].sort_unstable();
            }
        }
        // Let the affected nodes react. Reaction broadcasts precede the
        // reconvergence run's stage 1, so they trace at stage 0. Node-level
        // events expand into per-neighbor link views here, because only the
        // engine knows the adjacency in force when the node went down/up.
        let views: Vec<(AsId, LocalEvent)> = match event {
            TopologyEvent::NodeDown(k) => self.link.parked[k.index()]
                .iter()
                .map(|&a| (a, LocalEvent::LinkDown(k)))
                .collect(),
            TopologyEvent::NodeUp(k) => restored
                .iter()
                .flat_map(|&a| [(k, LocalEvent::LinkUp(a)), (a, LocalEvent::LinkUp(k))])
                .collect(),
            _ => event.local_views(),
        };
        if let TopologyEvent::NodeUp(k) = event {
            self.instruments.record(&TraceEvent::NodeRestart {
                stage: 0,
                node: k.index() as u32,
            });
        }
        for (id, local) in views {
            if let Some(auditor) = self.auditor.as_mut() {
                auditor.0.on_local_event(id, &local);
            }
            if let Some(update) = self.nodes[id.index()].apply_event(local) {
                self.advertise(id, update, 0);
            }
        }
        // Session establishment: every (re)activated link exchanges full
        // tables in both directions — on restart the rejoining node's
        // "table" is just its origin route, exactly a from-scratch join.
        let established: Vec<(AsId, AsId)> = match event {
            TopologyEvent::LinkUp(a, b) => vec![(a, b), (b, a)],
            TopologyEvent::NodeUp(k) => restored.iter().flat_map(|&a| [(k, a), (a, k)]).collect(),
            _ => Vec::new(),
        };
        for (me, other) in established {
            self.ship_table(me, other, 0);
        }
        report.account(self.take_sent());
    }

    /// State snapshots of every node (for the E5 experiment), in AS order.
    pub fn state_snapshots(&self) -> Vec<StateSnapshot> {
        self.nodes.iter().map(ProtocolNode::state).collect()
    }
}

/// Flattens an audited advertisement into the telemetry cost encoding:
/// the route's path cost when one is advertised, `u64::MAX` for
/// withdrawals, silence, and price-delta frames (which carry no cost).
fn advertised_cost_raw(info: Option<&RouteInfo>) -> u64 {
    info.and_then(RouteInfo::path_cost)
        .and_then(Cost::finite)
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PlainBgpNode;
    use crate::wire;
    use bgpvcg_lcp::{bellman, AllPairsLcp};
    use bgpvcg_netgraph::generators::structured::{fig1, ring, Fig1};
    use bgpvcg_netgraph::generators::{barabasi_albert, erdos_renyi, random_costs};
    use bgpvcg_telemetry::{HealthConfig, Telemetry};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn converged_engine(g: &AsGraph) -> (SyncEngine<PlainBgpNode>, RunReport) {
        let mut engine = SyncEngine::new(g, PlainBgpNode::from_graph(g));
        let report = engine.run_to_convergence();
        (engine, report)
    }

    use bgpvcg_netgraph::AsGraph;

    #[test]
    fn fig1_converges_to_centralized_routes() {
        let g = fig1();
        let (engine, report) = converged_engine(&g);
        assert!(report.converged);
        let lcp = AllPairsLcp::compute(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                let expected = lcp.route(i, j).unwrap().clone();
                let actual = engine.node(i).selector().route(j).unwrap();
                assert_eq!(actual, expected, "{i} -> {j}");
            }
        }
    }

    #[test]
    fn convergence_stages_bounded_by_d() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let costs = random_costs(25, 0, 9, &mut rng);
            let g = if seed % 2 == 0 {
                erdos_renyi(costs, 0.2, &mut rng)
            } else {
                barabasi_albert(costs, 2, &mut rng)
            };
            let lcp = AllPairsLcp::compute(&g);
            let d = bgpvcg_lcp::diameter::lcp_hop_diameter(&lcp);
            let (_, report) = converged_engine(&g);
            assert!(report.converged);
            assert!(
                report.stages <= d,
                "seed {seed}: {} stages > d = {d}",
                report.stages
            );
        }
    }

    #[test]
    fn profiler_health_and_observer_cover_an_honest_run() {
        let g = fig1();
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let (telemetry, ring_sink) = Telemetry::ring(4096);
        engine.attach_telemetry(&telemetry);
        engine.attach_health(HealthConfig::default());
        engine.attach_profiler();
        let mut observed_stages = Vec::new();
        {
            // Channel the observer's samples out through a shared cell.
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = Arc::clone(&seen);
            engine.set_stage_observer(Box::new(move |stage, nodes: &[PlainBgpNode]| {
                sink.lock().unwrap().push((stage, nodes.len()));
            }));
            let report = engine.run_to_convergence();
            assert!(report.converged);
            observed_stages.extend(seen.lock().unwrap().iter().copied());
        }
        // Observer fired once per executed stage over the full node array.
        assert!(!observed_stages.is_empty());
        assert!(observed_stages.iter().all(|&(_, n)| n == g.node_count()));
        // Honest convergence: zero findings, no stall.
        let health = engine.health_sink().expect("health attached");
        assert!(health.findings().is_empty());
        assert!(!health.stalled());
        // The monitor saw every stage and folded quiescence latency.
        assert!(health.snapshot().stages_seen() > 0);
        assert!(!health.snapshot().latency().is_empty());
        // Profiler covered the hot-path phases with consistent nesting.
        let profiler = engine.profiler().expect("profiler attached");
        for id in [span::STAGE, span::ROUTE_SELECT, span::WIRE_ENCODE] {
            let (count, total, self_nanos) = profiler.stat(id);
            assert!(count > 0, "span {id} never entered");
            assert!(total >= self_nanos);
        }
        assert_eq!(profiler.truncated(), 0);
        // The trace stream carries the new summary emissions, each of
        // which decodes back from its JSONL line.
        let events = ring_sink.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::SpanSummary { .. })));
        assert!(!events
            .iter()
            .any(|e| matches!(e, TraceEvent::HealthVerdict { .. })));
        for event in &events {
            assert_eq!(TraceEvent::from_json(&event.to_json()).as_ref(), Ok(event));
        }
    }

    #[test]
    fn health_stall_dump_fires_before_stage_limit_abort() {
        // A two-node graph whose nodes never quiesce is hard to fabricate
        // honestly, so drive the monitor directly through the tee: attach
        // health with a tiny stall threshold, then force stages with no
        // progress by running a converged engine's step loop again after
        // convergence (no dirty nodes -> no stages), instead assert the
        // one-shot dump guard via the public surface.
        let g = fig1();
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.attach_health(HealthConfig {
            stall_stages: 1,
            ..HealthConfig::default()
        });
        let report = engine.run_to_convergence();
        assert!(report.converged);
        // Fig. 1 converges with progress every stage, so even a threshold
        // of one stage never fires.
        assert!(engine.health_sink().unwrap().findings().is_empty());
    }

    #[test]
    fn sync_engine_matches_bellman_stage_semantics() {
        // The engine's stage count equals the per-destination Bellman
        // fixpoint's worst stage count: both implement Sect. 5 verbatim.
        let g = ring(9, Cost::new(2));
        let (_, report) = converged_engine(&g);
        assert_eq!(report.stages, bellman::max_stages(&g));
    }

    #[test]
    fn routes_match_centralized_on_random_graphs() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(30 + seed);
            let costs = random_costs(20, 0, 8, &mut rng);
            let g = erdos_renyi(costs, 0.25, &mut rng);
            let (engine, _) = converged_engine(&g);
            let lcp = AllPairsLcp::compute(&g);
            for i in g.nodes() {
                for j in g.nodes() {
                    assert_eq!(
                        engine.node(i).selector().route(j).as_ref(),
                        lcp.route(i, j),
                        "seed {seed}: {i} -> {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn second_run_is_a_no_op() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        let again = engine.run_to_convergence();
        assert_eq!(again.stages, 0);
        assert_eq!(again.messages, 0);
    }

    #[test]
    fn link_down_reconverges_to_new_topology() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        // Fail the D–Z link: X's LCP to Z must become X A Z (cost 5).
        let report = engine.apply_event(TopologyEvent::LinkDown(Fig1::D, Fig1::Z));
        assert!(report.converged);
        let g2 = g.without_link(Fig1::D, Fig1::Z).unwrap();
        let lcp2 = AllPairsLcp::compute(&g2);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j).as_ref(),
                    lcp2.route(i, j),
                    "{i} -> {j} after link failure"
                );
            }
        }
    }

    #[test]
    fn link_up_reconverges_to_new_topology() {
        let g = fig1().without_link(Fig1::D, Fig1::Z).unwrap();
        let (mut engine, _) = converged_engine(&g);
        let report = engine.apply_event(TopologyEvent::LinkUp(Fig1::D, Fig1::Z));
        assert!(report.converged);
        let lcp = AllPairsLcp::compute(&fig1());
        for i in fig1().nodes() {
            for j in fig1().nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j).as_ref(),
                    lcp.route(i, j),
                    "{i} -> {j} after link up"
                );
            }
        }
    }

    #[test]
    fn cost_change_reconverges() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        // D becomes expensive: X's best route to Z flips to X A Z.
        let report = engine.apply_event(TopologyEvent::CostChange(Fig1::D, Cost::new(50)));
        assert!(report.converged);
        let g2 = g.with_cost(Fig1::D, Cost::new(50));
        let lcp2 = AllPairsLcp::compute(&g2);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j).as_ref(),
                    lcp2.route(i, j),
                    "{i} -> {j} after cost change"
                );
            }
        }
    }

    #[test]
    fn report_accumulates_traffic() {
        let g = ring(6, Cost::new(1));
        let (_, report) = converged_engine(&g);
        assert!(report.messages > 0);
        assert!(
            report.entries >= report.messages,
            "every message carries ≥1 entry"
        );
        assert!(report.bytes > report.messages * wire::MESSAGE_HEADER_BYTES);
    }

    #[test]
    fn state_snapshots_have_full_tables() {
        let g = fig1();
        let (engine, _) = converged_engine(&g);
        for snap in engine.state_snapshots() {
            assert_eq!(snap.table_entries, g.node_count());
            assert_eq!(snap.price_entries, 0);
        }
    }

    #[test]
    fn stage_limit_reports_non_convergence() {
        let g = ring(9, Cost::new(1));
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.set_stage_limit(1); // far below the 4 stages the ring needs
        let report = engine.run_to_convergence();
        assert!(!report.converged);
        assert!(report.to_string().contains("NOT CONVERGED"));
        // Lifting the limit lets the same engine finish the job.
        engine.set_stage_limit(1000);
        let report = engine.run_to_convergence();
        assert!(report.converged);
        assert!(
            engine.flight_recorder().is_none(),
            "no recorder was attached"
        );
        let lcp = AllPairsLcp::compute(&g);
        for i in g.nodes() {
            assert_eq!(
                engine.node(i).selector().route(AsId::new(0)).as_ref(),
                lcp.route(i, AsId::new(0))
            );
        }
    }

    #[test]
    fn stalled_run_dumps_a_schema_valid_flight_artifact() {
        let g = ring(9, Cost::new(1));
        let dir = std::env::temp_dir().join(format!(
            "bgpvcg-sync-flight-{}-{:p}",
            std::process::id(),
            &g
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("flight.json");
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.attach_telemetry(&Telemetry::null());
        engine.attach_flight_recorder(&path, 64);
        engine.set_stage_limit(1);
        let report = engine.run_to_convergence();
        assert!(!report.converged);
        let text = std::fs::read_to_string(&path).expect("stall must leave a dump");
        flight::validate_dump(&text).expect("dump validates");
        assert!(text.contains(flight::REASON_STAGE_LIMIT));
        assert!(
            text.contains("\"inbox_depth\""),
            "snapshots carry engine state"
        );
        // A converged follow-up run leaves no fresh dump behind.
        std::fs::remove_file(&path).expect("remove dump");
        engine.set_stage_limit(1000);
        assert!(engine.run_to_convergence().converged);
        assert!(!path.exists(), "converged runs do not dump");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stepping_reaches_the_same_fixpoint() {
        let g = fig1();
        let mut stepped = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let mut stages = 0;
        while stepped.step().is_some() {
            stages += 1;
        }
        let mut whole = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let report = whole.run_to_convergence();
        // step() executes the drain stage too; the report counts changes.
        assert!(stages >= report.stages);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    stepped.node(i).selector().route(j),
                    whole.node(i).selector().route(j),
                    "{i} -> {j}"
                );
            }
        }
        assert!(stepped.step().is_none(), "quiescent engine stays quiescent");
    }

    #[test]
    fn stage_traces_sum_to_the_report() {
        let g = ring(7, Cost::new(1));
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let mut traces = Vec::new();
        let report = engine.run_to_convergence_traced(|t| traces.push(t));
        assert!(report.converged);
        // Stage numbers are consecutive from 1.
        for (idx, t) in traces.iter().enumerate() {
            assert_eq!(t.stage, idx + 1);
        }
        // The last stage with changes is the reported convergence stage.
        let last_changed = traces
            .iter()
            .filter(|t| t.changed_nodes > 0)
            .map(|t| t.stage)
            .max()
            .unwrap();
        assert_eq!(report.stages, last_changed);
        // Per-stage message and byte counts sum to the totals, minus the
        // pre-stage origin broadcasts.
        let staged_messages: usize = traces.iter().map(|t| t.messages).sum();
        let origin_messages = 2 * g.node_count(); // each node broadcasts to 2 neighbors
        assert_eq!(staged_messages + origin_messages, report.messages);
        let display = traces[0].to_string();
        assert!(display.contains("stage"), "{display}");
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn link_down_of_missing_link_panics() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        engine.apply_event(TopologyEvent::LinkDown(Fig1::X, Fig1::Z));
    }

    #[test]
    fn node_down_withdraws_it_and_node_up_restores_the_fixpoint() {
        use bgpvcg_netgraph::generators::structured::hypercube;
        let g = hypercube(3, Cost::new(2));
        let (mut engine, _) = converged_engine(&g);
        let k = AsId::new(3);
        let report = engine.apply_event(TopologyEvent::NodeDown(k));
        assert!(report.converged);
        assert!(engine.is_down(k));
        for i in g.nodes().filter(|&i| i != k) {
            assert_eq!(
                engine.node(i).selector().route(k),
                None,
                "{i} must lose its route to the crashed node"
            );
            assert!(!engine.node(i).selector().has_neighbor(k));
        }
        // The crashed node itself is back to a blank slate.
        assert_eq!(engine.node(k).selector().destinations().count(), 1);
        let report = engine.apply_event(TopologyEvent::NodeUp(k));
        assert!(report.converged);
        assert!(!engine.is_down(k));
        // Self-stabilization: the rejoined network reaches the same
        // fixpoint as one that never crashed.
        let (fresh, _) = converged_engine(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j),
                    fresh.node(i).selector().route(j),
                    "{i} -> {j} after crash + restart"
                );
            }
        }
    }

    #[test]
    fn biconnectivity_breaking_node_down_is_rejected_without_damage() {
        let g = ring(6, Cost::new(1));
        let (mut engine, _) = converged_engine(&g);
        let err = engine
            .try_apply_event(TopologyEvent::NodeDown(AsId::new(2)))
            .unwrap_err();
        assert_eq!(err, GraphError::NotBiconnected);
        // Nothing was mutated: the engine is still quiescent on the old
        // fixpoint and the "removed" node still routes.
        assert!(!engine.is_down(AsId::new(2)));
        let again = engine.run_to_convergence();
        assert_eq!(again.messages, 0);
        assert!(engine
            .node(AsId::new(0))
            .selector()
            .route(AsId::new(2))
            .is_some());
    }

    #[test]
    fn liveness_mismatches_surface_typed_errors() {
        use bgpvcg_netgraph::generators::structured::hypercube;
        let g = hypercube(3, Cost::new(1));
        let (mut engine, _) = converged_engine(&g);
        let k = AsId::new(5);
        assert_eq!(
            engine.try_apply_event(TopologyEvent::NodeUp(k)),
            Err(GraphError::NodeOnline(k)),
            "bringing up a live node"
        );
        engine.try_apply_event(TopologyEvent::NodeDown(k)).unwrap();
        assert_eq!(
            engine.try_apply_event(TopologyEvent::NodeDown(k)),
            Err(GraphError::NodeOffline(k)),
            "crashing a crashed node"
        );
        assert_eq!(
            engine.try_apply_event(TopologyEvent::CostChange(k, Cost::new(9))),
            Err(GraphError::NodeOffline(k)),
            "a crashed node cannot re-declare"
        );
        assert_eq!(
            engine.try_apply_event(TopologyEvent::LinkUp(AsId::new(0), k)),
            Err(GraphError::NodeOffline(k)),
            "no new links to a crashed node"
        );
        assert_eq!(
            engine.try_apply_event(TopologyEvent::NodeDown(AsId::new(99))),
            Err(GraphError::UnknownNode(AsId::new(99)))
        );
    }

    #[test]
    fn both_down_links_resurface_when_the_second_endpoint_restarts() {
        use bgpvcg_netgraph::generators::structured::hypercube;
        let g = hypercube(3, Cost::new(3));
        let (mut engine, _) = converged_engine(&g);
        // 0 and 1 are adjacent in the hypercube; crash both, then restart
        // in the same order — the 0–1 link is parked twice over and must
        // come back with the second restart.
        engine.apply_event(TopologyEvent::NodeDown(AsId::new(0)));
        engine.apply_event(TopologyEvent::NodeDown(AsId::new(1)));
        engine.apply_event(TopologyEvent::NodeUp(AsId::new(0)));
        assert!(
            !engine
                .node(AsId::new(0))
                .selector()
                .has_neighbor(AsId::new(1)),
            "far end still down: the link stays parked"
        );
        engine.apply_event(TopologyEvent::NodeUp(AsId::new(1)));
        let (fresh, _) = converged_engine(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j),
                    fresh.node(i).selector().route(j),
                    "{i} -> {j} after double crash + restart"
                );
            }
        }
    }

    #[test]
    fn node_restart_is_traced() {
        use bgpvcg_netgraph::generators::structured::hypercube;
        let g = hypercube(3, Cost::new(2));
        let (mut engine, _) = converged_engine(&g);
        let (telemetry, sink) = Telemetry::ring(8192);
        engine.attach_telemetry(&telemetry);
        engine.apply_event(TopologyEvent::NodeDown(AsId::new(6)));
        engine.apply_event(TopologyEvent::NodeUp(AsId::new(6)));
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e, TraceEvent::NodeRestart { node: 6, .. })),
            "restart must be narrated"
        );
    }

    #[test]
    fn attached_telemetry_narrates_a_run() {
        let g = ring(6, Cost::new(1));
        let (telemetry, sink) = Telemetry::ring(4096);
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.attach_telemetry(&telemetry);
        let report = engine.run_to_convergence();
        assert!(report.converged);
        let snap = telemetry.snapshot();
        // Registry counters agree with the engine's own report.
        assert_eq!(snap.counters[metric::MESSAGES], report.messages as u64);
        assert_eq!(snap.counters[metric::ENTRIES], report.entries as u64);
        assert_eq!(snap.counters[metric::BYTES], report.bytes as u64);
        assert_eq!(
            snap.gauges[metric::STAGES_TO_QUIESCENCE],
            report.stages as u64
        );
        // Plain BGP never relaxes a price.
        assert_eq!(snap.counters[metric::PRICE_RELAXATIONS], 0);
        // Per-stage wall time was observed once per executed stage (the
        // drain stage included).
        assert!(snap.histograms[metric::STAGE_WALL_NANOS].count >= report.stages as u64);
        let events = sink.events();
        let stage_starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StageStart { stage } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(stage_starts[0], 1, "stages are 1-based");
        assert!(
            stage_starts.windows(2).all(|w| w[1] == w[0] + 1),
            "stage starts are consecutive"
        );
        assert!(
            matches!(
                events.last(),
                Some(TraceEvent::Quiescent { stage, messages })
                    if *stage == report.stages as u64
                        && *messages == report.messages as u64
            ),
            "the trace ends with the run's Quiescent event"
        );
        let selected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RouteSelected { .. }))
            .count();
        assert_eq!(snap.counters[metric::ROUTES_SELECTED], selected as u64);
    }

    #[test]
    fn telemetry_traces_withdrawals_on_link_failure() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        let (telemetry, sink) = Telemetry::ring(4096);
        engine.attach_telemetry(&telemetry);
        engine.apply_event(TopologyEvent::LinkDown(Fig1::D, Fig1::Z));
        let withdrawals = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Withdrawn { .. }))
            .count();
        assert!(
            withdrawals > 0,
            "losing D–Z must withdraw at least one route"
        );
        assert_eq!(
            telemetry.snapshot().counters[metric::ROUTES_WITHDRAWN],
            withdrawals as u64
        );
    }

    #[test]
    fn detached_engine_matches_attached_engine_report() {
        let g = ring(7, Cost::new(2));
        let mut plain = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let plain_report = plain.run_to_convergence();
        let mut observed = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        observed.attach_telemetry(&Telemetry::null());
        let observed_report = observed.run_to_convergence();
        assert_eq!(
            plain_report, observed_report,
            "observation must not perturb"
        );
    }
}
