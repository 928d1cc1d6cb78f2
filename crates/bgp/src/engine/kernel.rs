//! The one stage engine both transports share.
//!
//! The paper's protocol is one step run in stages — ingest, select, relax,
//! advertise on change (Sect. 5–6) — and after any topology or cost change
//! "the convergence process begins again" (Sect. 6). None of that depends
//! on how an advertisement reaches the neighbour's inbox. So one
//! [`Engine`], generic over the node type and a [`Transport`], owns the
//! nodes, adjacency, liveness, double-buffered inboxes, update counter,
//! instruments and wire taps; the **handle pass** (every node with pending
//! input recomputes, in ascending order, serially or on a worker pool); the
//! **send path** (stamp → trace → per neighbour: tap → [`Transport::send`]);
//! the announced-[`TopologyEvent`] path; the online auditor with
//! quarantine; and the one stage body and run loop. A transport only hooks
//! in: [`LockStep`](super::LockStep) pushes a payload straight into the
//! neighbour's next-stage inbox, [`Sessions`](crate::chaos::Sessions)
//! frames it for a lossy channel, delivers before the handle pass and runs
//! its timers after it.
//!
//! The hot path is incremental and allocation-free per stage: inboxes are
//! `Vec<Arc<Update>>` queues whose capacity survives across stages, a dirty
//! list names exactly the nodes with pending input, and one broadcast
//! shares a single [`Arc`]'d payload across all receiving links. See
//! `docs/PERFORMANCE.md` for the architecture and the determinism argument.

use super::invariants;
use crate::adversary::{Accusation, Adversary, WireAuditor};
use crate::dynamics::{LocalEvent, TopologyEvent};
use crate::message::{RouteInfo, Update};
use crate::node::ProtocolNode;
use crate::stats::StateSnapshot;
use crate::telemetry::{metric, Instruments};
use crate::wire;
use bgpvcg_netgraph::{AsGraph, AsId, Cost, GraphError};
use bgpvcg_telemetry::profile::span;
use bgpvcg_telemetry::{HealthConfig, HealthSink, SpanProfiler, Telemetry, TraceEvent};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

/// What the two stage engines do differently: how a payload reaches a
/// neighbour's inbox, and one hook per stage concern around the shared
/// stage body and run loop. Every hook that does nothing under
/// [`LockStep`](super::LockStep) has an empty default.
pub trait Transport: Sized {
    /// What a run returns.
    type Report: Report;

    /// Whether `from` can currently send to its physical neighbour `to`.
    /// Asked before the wire tap sees the copy, so a tap never perturbs —
    /// and never counts — a delivery that is not made.
    fn is_open(&self, from: AsId, to: AsId) -> bool;

    /// Puts `parcel` on the link `from → to`.
    fn send<N: ProtocolNode>(engine: &mut Engine<N, Self>, from: AsId, to: AsId, parcel: &Parcel);

    /// Hands over the traffic accounted since the last call: a payload when
    /// it is sent, or a frame when it arrives.
    fn take_sent(&mut self) -> Sent;

    /// Runs ahead of the handle pass of `stage`.
    fn before_handle<N: ProtocolNode>(_engine: &mut Engine<N, Self>, _stage: u64) {}

    /// Runs after the handle pass of `stage`.
    fn after_handle<N: ProtocolNode>(_engine: &mut Engine<N, Self>, _stage: u64) {}

    /// An announced, validated `event` is about to change the topology:
    /// the link layer's share of it, before the engine's.
    fn on_topology<N: ProtocolNode>(_engine: &mut Engine<N, Self>, _event: TopologyEvent) {}

    /// The link `from → to` came (back) up: establish it.
    fn establish<N: ProtocolNode>(engine: &mut Engine<N, Self>, from: AsId, to: AsId);

    /// Whether the run is over, asked before every stage.
    fn quiescent<N: ProtocolNode>(engine: &Engine<N, Self>) -> bool;

    /// Closes a run: its report, from what the run loop tallied.
    fn report<N: ProtocolNode>(engine: &mut Engine<N, Self>, run: &RunTally) -> Self::Report;
}

/// What the shared run loop reads back from a transport's report.
pub trait Report {
    /// The stage and message counts the report states: the quiescence
    /// gauge and the closing `Quiescent` event carry them.
    fn quiescence(&self) -> (u64, u64);
}

/// Traffic a transport accounted: one payload crossing one link (or one
/// frame arriving) is one message.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sent {
    pub(crate) messages: usize,
    pub(crate) entries: usize,
    pub(crate) bytes_v2: usize,
}

/// What the run loop tallies between two reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTally {
    /// The traffic settled since the last report.
    pub(crate) sent: Sent,
    /// The stage clock at the last stage in which some node re-advertised.
    pub(crate) changed: u64,
    /// Peak input queued for one node in one stage.
    pub(crate) link_max: usize,
    /// `false` if the run hit its stage budget before quiescing.
    pub(crate) converged: bool,
}

/// One stage as seen by a trace observer (see
/// [`Engine::run_to_convergence_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTrace {
    /// The stage's number: 1-based within a lock-step run, the engine's
    /// stage clock under sessions.
    pub stage: usize,
    /// Nodes that received at least one update this stage.
    pub receiving_nodes: usize,
    /// Nodes whose advertised state changed (they re-advertised).
    pub changed_nodes: usize,
    /// Messages accounted this stage.
    pub messages: usize,
    /// Encoded bytes accounted this stage; over a run they sum to the
    /// report's `bytes_v2`.
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

/// One distinct payload on its way out: the update every honest copy of a
/// broadcast shares, or one copy a wire tap rewrote. Its wire size is
/// computed at most once however many links it crosses, and not at all
/// under a transport that accounts bytes where frames arrive.
#[derive(Debug)]
pub struct Parcel {
    pub(crate) update: Arc<Update>,
    /// The encoded size, once asked for.
    size: Cell<Option<usize>>,
}

impl Parcel {
    fn new(update: Update) -> Self {
        Parcel {
            update: Arc::new(update),
            size: Cell::new(None),
        }
    }

    /// The payload's encoded size, measured by encoding into `scratch`, so
    /// sizing allocates nothing.
    pub(crate) fn size(&self, scratch: &mut Vec<u8>) -> usize {
        let size = self
            .size
            .get()
            .unwrap_or_else(|| wire::update_size_v2_with(scratch, &self.update));
        self.size.set(Some(size));
        size
    }
}

/// Holder giving a `dyn` object a `Debug` representation, so
/// [`Engine`] keeps its derived `Debug`.
pub(crate) struct Opaque<T>(pub(crate) T);

impl<T> fmt::Debug for Opaque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::any::type_name::<T>())
    }
}

/// The stage engine: nodes exchanging routing tables in deterministic
/// stages over a transport `T`. [`SyncEngine`](super::SyncEngine) is
/// `Engine<N, LockStep>`, the paper's Sect. 5 model;
/// [`ChaosEngine`](crate::chaos::ChaosEngine) is `Engine<N, Sessions>`, the
/// same stages over seeded-faulty channels. Topology events, the auditor
/// and the run loop are the same on both; only the constructors, the
/// two `step`s and `run_to_stable` are per transport.
///
/// The engine is generic over the node type so the plain BGP speaker and
/// the pricing extension run on identical machinery and their traffic
/// statistics are directly comparable.
#[derive(Debug)]
pub struct Engine<N, T> {
    pub(crate) nodes: Vec<N>,
    /// Physical adjacency, each list ascending. Announced topology events
    /// mutate it; under sessions the session state also says which links
    /// are usable, and silent faults leave it alone.
    pub(crate) adjacency: Vec<Vec<AsId>>,
    /// The neighbor list each node had when an announced
    /// [`TopologyEvent::NodeDown`] took it out, so `NodeUp` restores
    /// exactly those links. A link whose far end is *also* down is handed
    /// over to that node's parked list when this one restarts, so
    /// both-down links resurface when the second endpoint comes back.
    parked: Vec<Vec<AsId>>,
    /// `down[k]` marks node `k` as crashed: protocol state wiped, nothing
    /// delivered to it, nothing sent by it.
    pub(crate) down: Vec<bool>,
    /// Per-node input for the next handle pass. One broadcast pushes one
    /// shared `Arc` per receiving link, never a payload copy.
    pub(crate) inboxes: Vec<Vec<Arc<Update>>>,
    /// Double buffer for `inboxes`: holds the input of the handle pass in
    /// progress while `inboxes` collects the next one's. All slots are
    /// empty between passes but keep their capacity, so steady-state
    /// stages allocate nothing.
    delivered: Vec<Vec<Arc<Update>>>,
    /// Dirty list: indices of nodes with a non-empty inbox, i.e. exactly
    /// the nodes the next handle pass must run (a slot is pushed when it
    /// goes from empty to non-empty — see [`enqueue`]).
    pub(crate) dirty: Vec<u32>,
    /// Double buffer for `dirty`, empty between passes.
    stage_dirty: Vec<u32>,
    /// Monotone update counter: every advertised [`Update`] is stamped
    /// with the next id, in ascending node order — which is also the order
    /// the worker pool's results are advertised in, so serial and parallel
    /// runs assign identical ids. 0 means unstamped (see [`Update::id`]):
    /// session-establishment full tables stay so.
    pub(crate) update_seq: u64,
    /// Everything that observes a run (see [`Instruments`]); detached, it
    /// costs an `Option` check per call.
    pub(crate) instruments: Instruments,
    /// Per-node Byzantine wire taps (`None` = honest), consulted on every
    /// outgoing copy; see [`set_adversary`](Self::set_adversary).
    pub(crate) adversaries: Vec<Option<Adversary>>,
    /// The attached online auditor, told of every copy the tap lets out,
    /// of every batch a node is handed and of every local view a node
    /// applies.
    pub(crate) auditor: Option<Opaque<Box<dyn WireAuditor>>>,
    /// Whether an accusation triggers automatic NodeDown quarantine (on
    /// by default).
    auto_quarantine: bool,
    /// Nodes the auditor quarantined over this engine's lifetime, in
    /// accusation order.
    quarantined: Vec<AsId>,
    /// Every accusation the attached auditor returned, in order.
    accusations: Vec<Accusation>,
    /// The stage clock: the last stage executed. A lock-step report
    /// restarts it, so each lock-step run numbers its stages from 1.
    pub(crate) stage: u64,
    /// Safety valve: a run executes at most this many stages (default
    /// `8n + 64`).
    stage_limit: usize,
    /// Whether the nodes announced their origins. Sessions need no
    /// announcement: a session's full table carries the origin.
    pub(crate) started: bool,
    /// What the run loop tallied since the last report.
    pub(crate) run: RunTally,
    /// Reusable scratch buffer for v2 byte accounting: every v2 size is
    /// measured by encoding into this one buffer, so the hot path performs
    /// zero per-message encoder allocations.
    pub(crate) scratch: Vec<u8>,
    /// Worker threads per handle pass; 1 = the serial reference path.
    pub(crate) workers: usize,
    /// The link layer: what carries payloads between nodes, and the state
    /// only it and its run loop need.
    pub(crate) link: T,
}

/// Queues `update` for node `to`'s next handle pass, listing the node as
/// dirty if this is the first thing queued for it.
pub(crate) fn enqueue(
    inboxes: &mut [Vec<Arc<Update>>],
    dirty: &mut Vec<u32>,
    to: AsId,
    update: Arc<Update>,
) {
    let inbox = &mut inboxes[to.index()];
    if inbox.is_empty() {
        dirty.push(to.raw());
    }
    inbox.push(update);
}

impl<N: ProtocolNode, T: Transport> Engine<N, T> {
    /// An engine over the graph's topology with one prepared node per AS,
    /// in AS order.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph's node count or ids
    /// are out of order.
    pub(crate) fn over(graph: &AsGraph, nodes: Vec<N>, link: T) -> Self {
        assert_eq!(nodes.len(), graph.node_count(), "one node per AS");
        for (idx, node) in nodes.iter().enumerate() {
            assert_eq!(node.id().index(), idx, "nodes must be in AS order");
        }
        let n = nodes.len();
        Engine {
            nodes,
            adjacency: graph.nodes().map(|k| graph.neighbors(k).to_vec()).collect(),
            down: vec![false; n],
            inboxes: vec![Vec::new(); n],
            delivered: vec![Vec::new(); n],
            dirty: Vec::new(),
            stage_dirty: Vec::new(),
            update_seq: 0,
            instruments: Instruments::new(n),
            parked: vec![Vec::new(); n],
            adversaries: vec![None; n],
            auditor: None,
            auto_quarantine: true,
            quarantined: Vec::new(),
            accusations: Vec::new(),
            stage: 0,
            stage_limit: 8 * n + 64,
            started: false,
            run: RunTally::default(),
            scratch: Vec::new(),
            workers: 1,
            link,
        }
    }

    /// Attaches observability: from now on every run narrates itself as
    /// [`TraceEvent`]s through `telemetry`'s sink — advertised updates
    /// through the one `UpdateTracer` all executors share, plus what the
    /// transport injects and recovers from — and keeps the shared
    /// registry's `bgp_*` metrics (see [`metric`](crate::telemetry::metric))
    /// current. Detached engines pay nothing. The `attach_*` methods
    /// compose in any order.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.instruments.attach_telemetry(telemetry);
    }

    /// Attaches the hierarchical span profiler over the engine phases of
    /// [`span`] (route-select, wire-encode, price-relax, audit
    /// shadow-execute, adversary tap, session timers — all nested under
    /// the per-stage root). Enter/exit on the hot path is
    /// allocation-free; detached engines pay nothing. Timestamps come from
    /// the attached telemetry's clock (so tests can script them), or a
    /// fresh `SystemClock` on a detached engine.
    pub fn attach_profiler(&mut self) {
        self.instruments.attach_profiler();
    }

    /// The attached span profiler's current totals, if any.
    pub fn profiler(&self) -> Option<&SpanProfiler> {
        self.instruments.profiler()
    }

    /// Detaches and returns the span profiler (e.g. to merge this run's
    /// totals into a sweep's).
    pub fn take_profiler(&mut self) -> Option<SpanProfiler> {
        self.instruments.take_profiler()
    }

    /// Attaches the streaming convergence-health monitor: a
    /// [`HealthSink`] is teed into the trace stream (it works standalone
    /// on a detached engine too) so every event is folded as it is
    /// recorded. Freshly-fired findings are emitted as `HealthVerdict`
    /// trace events at each run end, whether or not the run converged.
    pub fn attach_health(&mut self, config: HealthConfig) {
        self.instruments.attach_health(config);
    }

    /// The attached health monitor, if any.
    pub fn health_sink(&self) -> Option<&Arc<HealthSink>> {
        self.instruments.health_sink()
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: AsId) -> &N {
        &self.nodes[id.index()]
    }

    /// Iterates over all nodes in AS order.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Consumes the engine, returning the nodes.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// Returns `true` if node `k` is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn is_down(&self, k: AsId) -> bool {
        self.down[k.index()]
    }

    /// Enables or disables price-delta advertisement emission on every
    /// honest node (see [`ProtocolNode::configure_delta_encoding`]). Deltas
    /// are on by default; the equivalence suite turns them off to prove the
    /// compressed stream reaches the identical fixpoint. Full tables shipped
    /// at session establishment stay full either way, and a node behind an
    /// armed wire tap keeps emitting full advertisements — a `PriceDelta`
    /// would pass every strategy untouched.
    pub fn set_delta_encoding(&mut self, on: bool) {
        for (node, tap) in self.nodes.iter_mut().zip(&self.adversaries) {
            if tap.is_none() {
                node.configure_delta_encoding(on);
            }
        }
    }

    /// Wraps `node` in a Byzantine wire-layer adversary: from now on every
    /// outgoing copy (change broadcasts and session full tables alike) is
    /// offered to [`Adversary::perturb`] for per-neighbor corruption, the
    /// same deterministic function each time, so resent and re-established
    /// streams stay self-consistent and runs replay exactly. The wrapped
    /// node itself keeps running the honest protocol on its real inbox —
    /// only its wire output lies. Delta encoding is disabled on the node so
    /// perturbations operate on full advertisements.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_adversary(&mut self, node: AsId, adversary: Adversary) {
        self.nodes[node.index()].configure_delta_encoding(false);
        self.adversaries[node.index()] = Some(adversary);
    }

    /// The adversary currently wrapping `node`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn adversary(&self, node: AsId) -> Option<&Adversary> {
        self.adversaries[node.index()].as_ref()
    }

    /// Crash semantics for node `k`: it loses all protocol state and sees
    /// each of `links` go down, and anything queued for it is gone with it.
    pub(crate) fn crash(&mut self, k: AsId, links: &[AsId], stage: u64) {
        self.down[k.index()] = true;
        self.nodes[k.index()].reset();
        for &a in links {
            self.local_event(k, LocalEvent::LinkDown(a), stage);
        }
        self.inboxes[k.index()].clear();
        self.dirty.retain(|&idx| idx as usize != k.index());
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

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The stage clock: the last stage executed (within the current run,
    /// under lock-step).
    pub fn stage(&self) -> u64 {
        self.stage
    }

    /// Overrides the stage safety limit of
    /// [`run_to_convergence`](Self::run_to_convergence) and the event path.
    pub fn set_stage_limit(&mut self, limit: usize) {
        self.stage_limit = limit;
    }

    /// Attaches an online auditor: every copy the wire tap lets out is
    /// narrated to it via [`WireAuditor::on_wire`], every batch the handle
    /// pass hands a node via [`WireAuditor::on_delivery`] just before the
    /// node handles it, every local view a node applies via
    /// [`WireAuditor::on_local_event`], and after the stage-0 emissions plus
    /// every executed stage — stepped or run — the engine collects its
    /// accusations. Unless [`set_auto_quarantine`](Self::set_auto_quarantine)
    /// is turned off, each accused node is immediately cut from the topology
    /// via the [`TopologyEvent::NodeDown`] machinery (when the residual graph
    /// stays biconnected) so the honest subgraph reconverges. Because the
    /// auditor is told what each node really got, it follows the nodes
    /// wherever delivery is reliable, lock-step or sessions, however late a
    /// copy arrives.
    pub fn attach_auditor(&mut self, auditor: Box<dyn WireAuditor>) {
        self.auditor = Some(Opaque(auditor));
    }

    /// Enables or disables automatic quarantine of accused nodes (on by
    /// default). With it off, accusations are still recorded and traced.
    pub fn set_auto_quarantine(&mut self, on: bool) {
        self.auto_quarantine = on;
    }

    /// Nodes the auditor quarantined over this engine's lifetime.
    pub fn quarantined(&self) -> &[AsId] {
        &self.quarantined
    }

    /// Every accusation the attached auditor has returned, in order.
    pub fn accusations(&self) -> &[Accusation] {
        &self.accusations
    }

    /// State snapshots of every node (for the E5 experiment), in AS order.
    pub fn state_snapshots(&self) -> Vec<StateSnapshot> {
        self.nodes.iter().map(ProtocolNode::state).collect()
    }

    /// Runs stages until the transport reports quiescence or the stage
    /// limit runs out, announcing the nodes' origins first if that has not
    /// happened yet.
    pub fn run_to_convergence(&mut self) -> T::Report {
        self.run_to_convergence_traced(|_, _| {})
    }

    /// Like [`run_to_convergence`](Self::run_to_convergence), but invokes
    /// `observer` after every executed stage with its [`StageTrace`] and
    /// the settled node array, in AS order — the hook behind the CLI's
    /// `--trace` flag and per-stage sampling of node state (e18's premium
    /// trajectories).
    pub fn run_to_convergence_traced<F: FnMut(StageTrace, &[N])>(
        &mut self,
        observer: F,
    ) -> T::Report {
        self.run(self.stage + self.stage_limit as u64, observer)
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
    pub fn apply_event(&mut self, event: TopologyEvent) -> T::Report {
        match self.try_apply_event(event) {
            Ok(report) => report,
            // lint:allow(documented # Panics contract: the infallible API surfaces invalid events as programming errors)
            Err(error) => panic!("cannot apply {event:?}: {error}"),
        }
    }

    /// Applies a topology event and reconverges — the fallible twin of
    /// [`apply_event`](Self::apply_event), used wherever invalid events
    /// are *data* rather than programming errors (the chaos harness feeds
    /// randomly generated schedules through this path). The report covers
    /// the event's reaction broadcasts and the reconvergence.
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
    pub fn try_apply_event(&mut self, event: TopologyEvent) -> Result<T::Report, GraphError> {
        self.validate_event(event)?;
        self.inject_event(event);
        Ok(self.run_to_convergence())
    }

    /// Announces every node's origin ahead of the first stage — traced as
    /// stage 0 — unless that already happened. Returns whether this call
    /// did it.
    pub(crate) fn start(&mut self) -> bool {
        if self.started {
            return false;
        }
        self.started = true;
        for k in (0..self.nodes.len() as u32).map(AsId::new) {
            if let Some(update) = self.nodes[k.index()].start() {
                self.advertise(k, update, 0);
            }
        }
        self.settle_sent();
        true
    }

    /// The one run loop: stages until [`Transport::quiescent`] or until the
    /// stage clock reaches `limit`, then the report and the run's close —
    /// quiescence gauge and `Quiescent` event when it converged, health
    /// verdicts and span summaries either way. The report also covers the
    /// traffic settled since the last one (an event's reactions); the
    /// `Quiescent` event counts only what the loop carried.
    pub(crate) fn run<F: FnMut(StageTrace, &[N])>(
        &mut self,
        limit: u64,
        mut observer: F,
    ) -> T::Report {
        let carried_before = self.run.sent.messages as u64;
        self.start();
        // Cross-check the emissions queued ahead of this run's first stage
        // (origin broadcasts, or the topology-event reactions) before it
        // delivers them.
        self.audit_stage(self.stage);
        let converged = loop {
            if T::quiescent(self) {
                break true;
            }
            if self.stage >= limit {
                break false;
            }
            let trace = self.run_stage();
            observer(trace, &self.nodes);
        };
        let stage = self.stage;
        invariants::convergence(self.run.changed, stage, limit, converged);
        self.run.converged = converged;
        let run = std::mem::take(&mut self.run);
        let report = T::report(self, &run);
        if converged {
            let (stages, messages) = report.quiescence();
            if let Some(telemetry) = self.instruments.telemetry() {
                telemetry.gauge(metric::STAGES_TO_QUIESCENCE).set(stages);
            }
            let carried = messages - carried_before;
            self.instruments.finish(stages, Some(carried));
        } else {
            self.instruments.finish(stage, None);
        }
        report
    }

    /// The one stage body: the transport's pre-pass, the shared handle
    /// pass, the transport's post-pass, then the stage's accounting — the
    /// `bgp_*` traffic counters and the wall-time histogram — and its
    /// audit.
    ///
    /// This is on the engine's hot path: a stage with nothing to deliver
    /// allocates nothing (counted by `tests/allocations.rs`).
    pub(crate) fn run_stage(&mut self) -> StageTrace {
        self.stage += 1;
        let stage = self.stage;
        self.instruments.enter(span::STAGE);
        let wall_start = self.instruments.telemetry().map(|telemetry| {
            telemetry.record(&TraceEvent::StageStart { stage });
            telemetry.now_nanos()
        });
        T::before_handle(self, stage);
        let depths = self.dirty.iter().map(|&idx| {
            // lint:allow(bounds: per-node engine buffers are sized n at construction and indices stay below n)
            self.inboxes[idx as usize].len()
        });
        self.run.link_max = self.run.link_max.max(depths.max().unwrap_or(0));
        let (receiving_nodes, changed_nodes) = self.handle_pass(stage);
        T::after_handle(self, stage);
        let sent = self.settle_sent();
        if changed_nodes > 0 {
            self.run.changed = stage;
        }
        if let (Some(telemetry), Some(start)) = (self.instruments.telemetry(), wall_start) {
            let elapsed = telemetry.now_nanos().saturating_sub(start);
            telemetry
                .histogram(metric::STAGE_WALL_NANOS)
                .observe(elapsed);
        }
        self.instruments.exit();
        self.audit_stage(stage);
        StageTrace {
            stage: stage as usize,
            receiving_nodes,
            changed_nodes,
            messages: sent.messages,
            bytes: sent.bytes_v2,
        }
    }

    /// Closes the books on the traffic since the last call: feeds the
    /// `bgp_*` traffic counters (one `updates_sent` per update stamped in
    /// between — full tables are unstamped) and adds it to the run's tally.
    fn settle_sent(&mut self) -> Sent {
        let sent = self.link.take_sent();
        self.instruments.account(self.update_seq, &sent);
        let run = &mut self.run.sent;
        run.messages += sent.messages;
        run.entries += sent.entries;
        run.bytes_v2 += sent.bytes_v2;
        sent
    }

    /// Collects the attached auditor's end-of-stage accusations, narrates
    /// them (`AuditViolation` trace events), and
    /// — with auto-quarantine on — cuts each accused node from the
    /// topology via the [`TopologyEvent::NodeDown`] machinery. Quarantine
    /// reaction broadcasts land at the head of the continuing run, so the
    /// honest subgraph reconverges within the same run. An accusation
    /// whose removal would break the live graph's biconnectivity is
    /// recorded but not quarantined.
    pub(crate) fn audit_stage(&mut self, stage: u64) {
        let Some(auditor) = self.auditor.as_mut() else {
            return;
        };
        self.instruments.enter(span::AUDIT_SHADOW);
        for accusation in auditor.0.end_stage(stage) {
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
            let culprit = accusation.node;
            self.accusations.push(accusation);
            if !self.auto_quarantine || self.down[culprit.index()] {
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
                self.inject_event(TopologyEvent::NodeDown(culprit));
                self.quarantined.push(culprit);
            }
        }
        self.instruments.exit();
    }

    /// Checks that `event` can be applied to the current topology without
    /// touching anything.
    fn validate_event(&self, event: TopologyEvent) -> Result<(), GraphError> {
        let n = self.nodes.len();
        let known = |id: AsId| {
            (id.index() < n)
                .then_some(id)
                .ok_or(GraphError::UnknownNode(id))
        };
        let live = |id: AsId| match self.down[known(id)?.index()] {
            true => Err(GraphError::NodeOffline(id)),
            false => Ok(id),
        };
        match event {
            TopologyEvent::LinkDown(a, b) => {
                let (a, b) = (known(a)?, known(b)?);
                match self.adjacency[a.index()].contains(&b) {
                    true => Ok(()),
                    false => Err(GraphError::MissingLink(a, b)),
                }
            }
            TopologyEvent::LinkUp(a, b) => {
                let (a, b) = (known(a)?, known(b)?);
                if a == b {
                    return Err(GraphError::SelfLoop(a));
                }
                let (a, b) = (live(a)?, live(b)?);
                match self.adjacency[a.index()].contains(&b) {
                    true => Err(GraphError::DuplicateLink(a, b)),
                    false => Ok(()),
                }
            }
            TopologyEvent::CostChange(k, _) => live(k).map(|_| ()),
            TopologyEvent::NodeDown(k) => self.residual_biconnected(live(k)?, false),
            TopologyEvent::NodeUp(k) => match live(k) {
                Ok(k) => Err(GraphError::NodeOnline(k)),
                Err(GraphError::NodeOffline(k)) => self.residual_biconnected(k, true),
                Err(error) => Err(error),
            },
        }
    }

    /// Checks that the set of *live* nodes — with `toggle` additionally
    /// removed (`bring_up == false`) or restored with its parked links
    /// (`bring_up == true`) — still forms a biconnected graph, the
    /// precondition for k-avoiding paths and hence VCG prices (paper,
    /// Sect. 4). Costs are irrelevant to the check, so the scratch graph
    /// uses zeros; surviving ids are renumbered densely.
    fn residual_biconnected(&self, toggle: AsId, bring_up: bool) -> Result<(), GraphError> {
        let mut builder = AsGraph::builder();
        let remap: Vec<Option<AsId>> = (0..self.nodes.len())
            .map(|idx| match idx == toggle.index() {
                true => bring_up,
                // lint:allow(bounds: idx runs below the node count, the length of every per-node buffer)
                false => !self.down[idx],
            })
            .map(|included| included.then(|| builder.add_node(Cost::ZERO)))
            .collect();
        let survivors = remap.iter().flatten().count();
        if survivors < 3 {
            return Err(GraphError::TooSmall { nodes: survivors });
        }
        // A crashed node's adjacency is empty: a restart restores exactly
        // its parked links whose far end is live.
        let parked = self.parked[toggle.index()].iter().map(|&a| (toggle, a));
        let parked = parked.filter(|_| bring_up);
        let links = self
            .adjacency
            .iter()
            .enumerate()
            .flat_map(|(idx, neighbors)| {
                let a = AsId::new(idx as u32);
                neighbors
                    .iter()
                    .filter(move |b| b.index() > idx)
                    .map(move |&b| (a, b))
            });
        for (a, b) in links.chain(parked) {
            if let (Some(a), Some(b)) = (remap[a.index()], remap[b.index()]) {
                builder.add_link(a, b)?;
            }
        }
        if builder.build().is_biconnected() {
            Ok(())
        } else {
            Err(GraphError::NotBiconnected)
        }
    }

    /// Applies an already-validated topology event *without* reconverging:
    /// lets the transport act on its links, mutates the topology, delivers
    /// the affected nodes' local views (their reaction broadcasts trace at
    /// stage 0, the environment's), and establishes the (re)activated
    /// links. Callers run (or are already inside) the run loop that
    /// absorbs the queued traffic — the auditor's quarantine path injects
    /// events mid-run through exactly this hook.
    fn inject_event(&mut self, event: TopologyEvent) {
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.0.on_topology(&event);
        }
        T::on_topology(self, event);
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
                // It restarts with no links until they are restored.
                self.crash(k, &neighbors, 0);
                self.parked[k.index()] = neighbors;
            }
            TopologyEvent::NodeUp(k) => {
                self.down[k.index()] = false;
                let parked = std::mem::take(&mut self.parked[k.index()]);
                for &a in &parked {
                    if self.down[a.index()] {
                        // The far end is still down: hand the link over to
                        // its parked set so it returns when *that* node
                        // restarts.
                        if !self.parked[a.index()].contains(&k) {
                            self.parked[a.index()].push(k);
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
        // Let the affected nodes react. Node-level events expand into
        // per-neighbor link views here, because only the engine knows the
        // adjacency in force when the node went down/up.
        let views: Vec<(AsId, LocalEvent)> = match event {
            TopologyEvent::NodeDown(k) => self.parked[k.index()]
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
        for &(id, local) in &views {
            self.local_event(id, local, 0);
        }
        // Every (re)activated link is established in both directions — on
        // restart the rejoining node's table is just its origin route,
        // exactly a from-scratch join.
        for &(me, local) in &views {
            if let LocalEvent::LinkUp(other) = local {
                T::establish(self, me, other);
            }
        }
        self.settle_sent();
    }

    /// The one local-view path: node `id` observes `event`. The auditor's
    /// shadow is told first, then the node applies it, and what it
    /// re-advertises goes out traced at `stage`.
    pub(crate) fn local_event(&mut self, id: AsId, event: LocalEvent, stage: u64) {
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.0.on_local_event(id, &event);
        }
        if let Some(update) = self.nodes[id.index()].apply_event(event) {
            self.advertise(id, update, stage);
        }
    }

    /// One handle pass: swap the double-buffered queues, hand each dirty
    /// node's batch to the attached auditor, run `handle` for every dirty
    /// node in ascending order (serially or on the worker pool), advertise
    /// what each emits in that same order, and clear the consumed input.
    /// Returns how many nodes received and how many re-advertised.
    ///
    /// This is the engine's hot loop: it allocates only what the nodes
    /// output and inbox growth toward the run's high-water mark (counted
    /// by `tests/allocations.rs`).
    pub(crate) fn handle_pass(&mut self, stage: u64) -> (usize, usize) {
        // `delivered`/`receiving` now hold this pass's input, while
        // `inboxes`/`dirty` (emptied last pass, capacity retained) collect
        // the next one's.
        std::mem::swap(&mut self.inboxes, &mut self.delivered);
        let mut receiving = std::mem::take(&mut self.dirty);
        std::mem::swap(&mut self.dirty, &mut self.stage_dirty);
        // Ascending node order: the advertise order below is the engine's
        // determinism contract (serial and parallel runs match exactly).
        receiving.sort_unstable();
        if let Some(auditor) = self.auditor.as_mut() {
            self.instruments.enter(span::AUDIT_SHADOW);
            for &idx in &receiving {
                if let Some(batch) = self.delivered.get(idx as usize) {
                    auditor.0.on_delivery(AsId::new(idx), batch);
                }
            }
            self.instruments.exit();
        }
        let mut changed = 0;
        self.instruments.enter(span::ROUTE_SELECT);
        if self.workers > 1 && receiving.len() > 1 {
            // The pool fills one slot per receiving node, in `receiving`
            // order, so advertising the slots front to back replays the
            // serial run exactly.
            let emitted =
                sharded_handle(&mut self.nodes, &self.delivered, &receiving, self.workers);
            for (&idx, update) in receiving.iter().zip(emitted) {
                if let Some(update) = update {
                    changed += 1;
                    self.advertise(AsId::new(idx), update, stage);
                }
            }
        } else {
            for &idx in &receiving {
                // lint:allow(bounds: per-node engine buffers are sized n at construction and indices stay below n)
                let emitted = self.nodes[idx as usize].handle(&self.delivered[idx as usize]);
                if let Some(update) = emitted {
                    changed += 1;
                    self.advertise(AsId::new(idx), update, stage);
                }
            }
        }
        self.instruments.exit();
        // Restore the reusable buffers: only the slots this pass actually
        // used need clearing (everything else is already empty).
        for &idx in &receiving {
            // lint:allow(bounds: per-node engine buffers are sized n at construction and indices stay below n)
            self.delivered[idx as usize].clear();
        }
        let received = receiving.len();
        receiving.clear();
        self.stage_dirty = receiving;
        (received, changed)
    }

    /// The one send path: stamps `update` with the next sequence id —
    /// *before* tracing and sending, so receivers see the id the tracer
    /// reported — narrates it, and puts one copy on every open link of
    /// `from`, each through the wire tap. Honest copies share the update by
    /// `Arc`; only a perturbed copy gets a payload of its own.
    pub(crate) fn advertise(&mut self, from: AsId, mut update: Update, stage: u64) {
        self.update_seq += 1;
        update.id = self.update_seq;
        self.instruments.enter(span::PRICE_RELAX);
        self.instruments.trace_update(&update, stage);
        self.instruments.exit();
        self.instruments.enter(span::WIRE_ENCODE);
        let honest = Parcel::new(update);
        // By index: a send may touch anything of the engine but never the
        // sender's neighbor list.
        for rank in 0..self.adjacency[from.index()].len() {
            // lint:allow(bounds: `rank` runs below the length of the list it indexes)
            let to = self.adjacency[from.index()][rank];
            if self.link.is_open(from, to) {
                self.send_tapped(from, to, rank, &honest, stage);
            }
        }
        self.instruments.exit();
    }

    /// Ships `from`'s full table to `to` alone — what establishes a session
    /// over a (re)activated link. A full table re-states unchanged routes,
    /// so it is neither stamped nor traced: the tracer's change semantics
    /// must not misreport it as reselections.
    pub(crate) fn ship_table(&mut self, from: AsId, to: AsId, stage: u64) {
        let Some(table) = self.nodes[from.index()].full_table() else {
            return;
        };
        let neighbors = &self.adjacency[from.index()];
        let rank = neighbors.iter().position(|&x| x == to).unwrap_or(0);
        self.send_tapped(from, to, rank, &Parcel::new(table), stage);
    }

    /// The one wire tap, on the way to the one [`Transport::send`]. Offers
    /// the copy of `honest` leaving `from` toward `to` (its `rank`-th
    /// neighbor) to `from`'s adversary — which may hand back a perturbed
    /// payload to send instead, traced as `AdversaryInjected` — and narrates
    /// what goes out to the attached auditor.
    fn send_tapped(&mut self, from: AsId, to: AsId, rank: usize, honest: &Parcel, stage: u64) {
        let mut perturbed = None;
        if let Some(adversary) = self.adversaries[from.index()].as_mut() {
            self.instruments.enter(span::ADVERSARY_TAP);
            if let Some(corrupted) = adversary.perturb(to, rank, &honest.update) {
                self.instruments.record(&TraceEvent::AdversaryInjected {
                    stage,
                    node: from.raw(),
                    peer: to.raw(),
                    strategy: adversary.strategy().code(),
                });
                perturbed = Some(Parcel::new(corrupted));
            }
            self.instruments.exit();
        }
        let parcel = perturbed.as_ref().unwrap_or(honest);
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.0.on_wire(from, to, &parcel.update);
        }
        T::send(self, from, to, parcel);
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

/// Runs `handle` for every receiving node, partitioned across a scoped
/// worker pool, and returns one slot per receiving node, in `receiving`
/// order, holding what that node emitted.
///
/// Each worker gets a *contiguous* run of the (ascending) receiving list,
/// so the matching node shard and the matching run of output slots can be
/// carved with `split_at_mut` / `chunks_mut` — safe disjoint `&mut` access,
/// no locking, no channel and no `unsafe`. Handles only read the current
/// pass's `delivered` buffers and mutate their own node, so execution order
/// across workers is immaterial; all observable ordering (advertising and
/// telemetry) happens on the caller's thread afterwards, front to back over
/// the slots.
fn sharded_handle<N: ProtocolNode>(
    nodes: &mut [N],
    delivered: &[Vec<Arc<Update>>],
    receiving: &[u32],
    workers: usize,
) -> Vec<Option<Update>> {
    let chunk = receiving.len().div_ceil(workers).max(1);
    let mut emitted = Vec::with_capacity(receiving.len());
    emitted.resize_with(receiving.len(), || None);
    std::thread::scope(|scope| {
        let mut rest = nodes;
        let mut offset = 0usize; // index of `rest[0]` in the full node array
        for (run, slots) in receiving.chunks(chunk).zip(emitted.chunks_mut(chunk)) {
            let (Some(&first), Some(&last)) = (run.first(), run.last()) else {
                continue; // unreachable: chunks() never yields an empty slice
            };
            let lo = first as usize;
            let hi = last as usize;
            let (_, tail) = rest.split_at_mut(lo - offset);
            let (shard, tail) = tail.split_at_mut(hi - lo + 1);
            rest = tail;
            offset = hi + 1;
            scope.spawn(move || {
                for (&idx, slot) in run.iter().zip(slots) {
                    // lint:allow(bounds: the split_at_mut partition puts every emitter index in lo..hi for its shard)
                    *slot = shard[idx as usize - lo].handle(&delivered[idx as usize]);
                }
            });
        }
    });
    emitted
}
