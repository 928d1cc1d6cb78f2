//! The stage engine both executors with stages share.
//!
//! The paper's protocol is one step run in synchronous stages — ingest,
//! select, relax, advertise on change (Sect. 5–6) — and nothing in it
//! depends on how an advertisement reaches the neighbour's inbox. So there
//! is one [`Engine`], generic over the node type and over a [`Transport`]:
//! it owns the nodes, the adjacency and liveness, the double-buffered
//! inboxes, the provenance counter, the instruments and the wire taps, and
//! runs the **handle pass** (every node with pending input recomputes, in
//! ascending order, serially or on a worker pool) and the **send path**
//! (stamp → trace → per neighbour: tap → [`Transport::send`]) that is also
//! what ships a full table when a session is established. What differs is
//! the transport: [`LockStep`](super::LockStep) pushes a payload straight
//! into the neighbour's next-stage inbox, [`Sessions`](crate::chaos::Sessions)
//! frames it for a lossy channel and delivers what survives, in order, into
//! the same inboxes.
//!
//! The hot path is incremental and allocation-free per stage: inboxes are
//! `Vec<Arc<Update>>` queues whose capacity survives across stages, a dirty
//! list names exactly the nodes with pending input, and one broadcast
//! shares a single [`Arc`]'d payload across all receiving links. See
//! `docs/PERFORMANCE.md` for the architecture and the determinism argument.

use crate::adversary::{Adversary, WireAuditor};
use crate::message::Update;
use crate::node::ProtocolNode;
use crate::telemetry::Instruments;
use crate::wire;
use bgpvcg_netgraph::{AsGraph, AsId};
use bgpvcg_telemetry::flight::FlightRecorder;
use bgpvcg_telemetry::profile::span;
use bgpvcg_telemetry::{HealthConfig, HealthSink, SpanProfiler, Telemetry, TraceEvent};
use std::cell::Cell;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// How a payload leaving one node reaches the inbox of a neighbour — the
/// one thing the two stage engines do differently.
pub trait Transport: Sized {
    /// Whether `from` can currently send to its physical neighbour `to`.
    /// Asked before the wire tap sees the copy, so a tap never perturbs —
    /// and never counts — a delivery that is not made.
    fn is_open(&self, from: AsId, to: AsId) -> bool;

    /// Puts `parcel` on the link `from → to`.
    fn send<N: ProtocolNode>(engine: &mut Engine<N, Self>, from: AsId, to: AsId, parcel: &Parcel);
}

/// One distinct payload on its way out: the update every honest copy of a
/// broadcast shares, or one copy a wire tap rewrote. Its wire sizes are
/// computed at most once however many links it crosses, and not at all
/// under a transport that accounts bytes where frames arrive.
#[derive(Debug)]
pub struct Parcel {
    pub(crate) update: Arc<Update>,
    /// `(v1, v2)` encoded sizes, once asked for.
    sizes: Cell<Option<(usize, usize)>>,
}

impl Parcel {
    fn new(update: Update) -> Self {
        Parcel {
            update: Arc::new(update),
            sizes: Cell::new(None),
        }
    }

    /// The payload's `(v1, v2)` encoded sizes; the v2 size is measured by
    /// encoding into `scratch`, so sizing allocates nothing.
    pub(crate) fn sizes(&self, scratch: &mut Vec<u8>) -> (usize, usize) {
        let sizes = self.sizes.get().unwrap_or_else(|| {
            let v1 = wire::update_size(&self.update);
            (v1, wire::update_size_v2_with(scratch, &self.update))
        });
        self.sizes.set(Some(sizes));
        sizes
    }
}

/// A per-stage observer closure: invoked with `(stage, nodes)` after
/// every executed stage of a traced run.
pub type StageObserver<N> = Box<dyn FnMut(u64, &[N]) + Send>;

/// Holder giving the stage-observer closure a `Debug` representation so
/// [`Engine`] keeps its derived `Debug`.
pub(crate) struct ObserverSlot<N>(pub(crate) StageObserver<N>);

impl<N> fmt::Debug for ObserverSlot<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StageObserver")
    }
}

/// Holder giving the attached `dyn` auditor a `Debug` representation so
/// [`Engine`] keeps its derived `Debug`.
pub(crate) struct AuditorSlot(pub(crate) Box<dyn WireAuditor>);

impl fmt::Debug for AuditorSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WireAuditor")
    }
}

/// The stage engine: nodes exchanging routing tables in deterministic
/// stages over a transport `T`. [`SyncEngine`](super::SyncEngine) is
/// `Engine<N, LockStep>`, the paper's Sect. 5 model;
/// [`ChaosEngine`](crate::chaos::ChaosEngine) is `Engine<N, Sessions>`, the
/// same stages over seeded-faulty channels. Everything here is common to
/// both; what only one has lives in `impl` blocks next to its transport.
///
/// The engine is generic over the node type so the plain BGP speaker and
/// the pricing extension run on identical machinery and their traffic
/// statistics are directly comparable.
#[derive(Debug)]
pub struct Engine<N, T> {
    pub(crate) nodes: Vec<N>,
    /// Physical adjacency, each list ascending. Lock-step topology events
    /// mutate it; under sessions it stays the construction graph and the
    /// session state says which links are usable.
    pub(crate) adjacency: Vec<Vec<AsId>>,
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
    /// Monotone provenance counter: every advertised [`Update`] is stamped
    /// with the next id, in ascending node order — which is also the order
    /// the worker pool's results are advertised in, so serial and parallel
    /// runs assign identical ids. 0 is reserved for the environment (see
    /// [`Update::id`]); session-establishment full tables re-state
    /// environment-known state and stay unstamped.
    pub(crate) update_seq: u64,
    /// Everything that observes a run (see [`Instruments`]); detached, it
    /// costs an `Option` check per call.
    pub(crate) instruments: Instruments,
    /// Per-node Byzantine wire taps (`None` = honest), consulted on every
    /// outgoing copy; see [`set_adversary`](Self::set_adversary).
    pub(crate) adversaries: Vec<Option<Adversary>>,
    /// The attached online auditor, told of every copy the tap lets out.
    /// Only the lock-step engine attaches one: it compares per-link
    /// receiver views stage by stage, which loss and delay would turn into
    /// false accusations.
    pub(crate) auditor: Option<AuditorSlot>,
    /// Per-stage observer over the settled node array (economic gauges
    /// etc.), invoked by the lock-step run loop.
    pub(crate) stage_observer: Option<ObserverSlot<N>>,
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
            adversaries: vec![None; n],
            auditor: None,
            stage_observer: None,
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

    /// Attaches a divergence flight recorder: the most recent `capacity`
    /// trace events are retained in memory, and if a run exhausts its stage
    /// budget the tail plus per-node state snapshots are dumped to `path`
    /// as one schema-valid JSON artifact (see
    /// [`bgpvcg_telemetry::flight`]). The recorder is teed into whatever
    /// telemetry is attached, and works standalone on a detached engine.
    pub fn attach_flight_recorder(&mut self, path: &Path, capacity: usize) {
        self.instruments.attach_flight_recorder(path, capacity);
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.instruments.flight_recorder()
    }

    /// Attaches the hierarchical span profiler over the engine phases of
    /// [`span`] (route-select, wire-encode, price-relax, audit
    /// shadow-execute, adversary tap, session timers, health fold — all
    /// nested under the per-stage root). Enter/exit on the hot path is
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

    /// Detaches and returns the span profiler (e.g. to merge shards).
    pub fn take_profiler(&mut self) -> Option<SpanProfiler> {
        self.instruments.take_profiler()
    }

    /// Attaches the streaming convergence-health monitor: a
    /// [`HealthSink`] is teed into the trace stream (exactly like
    /// [`attach_flight_recorder`](Self::attach_flight_recorder), and works
    /// standalone on a detached engine) so every event is folded as it is
    /// recorded. The run loop polls the stall detector after every stage
    /// and — when a flight recorder is also attached — dumps a
    /// [`REASON_HEALTH_STALL`](bgpvcg_telemetry::flight::REASON_HEALTH_STALL)
    /// post-mortem at first stall, before a stage-budget overrun destroys
    /// the evidence. Freshly-fired findings are emitted as `HealthVerdict`
    /// trace events at each run end.
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

    /// Crash semantics for node `k`'s input: anything queued for it is gone
    /// with it.
    pub(crate) fn drop_inbox(&mut self, k: AsId) {
        self.inboxes[k.index()].clear();
        self.dirty.retain(|&idx| idx as usize != k.index());
    }

    /// One handle pass: swap the double-buffered queues, run `handle` for
    /// every dirty node in ascending order (serially or on the worker
    /// pool), advertise what each emits in that same order, and clear the
    /// consumed input. Returns how many nodes received and how many
    /// re-advertised.
    ///
    /// This is the engine's hot loop: it must not allocate per stage
    /// beyond inbox growth toward the run's high-water mark (enforced by
    /// the `stage-alloc` xtask lint rule on this function body).
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

    /// The one send path: stamps `update` with the next provenance id —
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
    // lint:allow(output: the slot list this function returns, sized once)
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
