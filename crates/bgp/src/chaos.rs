//! Seeded fault injection and lossy-channel recovery.
//!
//! The paper's convergence results (Sect. 5–6) assume reliable message
//! exchange between neighbors. This module drops that assumption and shows
//! the mechanism *self-stabilizes*: a [`ChaosEngine`] perturbs the
//! inter-node frame streams — dropping, duplicating, delaying (and thereby
//! reordering) frames, flapping links, crashing and restarting whole nodes
//! — all replayable from a single `u64` seed, while a sequenced session
//! layer ([`Frame`]/[`FrameKind`], wire format in [`crate::wire`])
//! recovers: per-direction epochs and sequence numbers reject stale or
//! duplicated state, cumulative acks drive retransmission, and a hold
//! timer turns silence into an implicit link failure exactly like an
//! explicit [`LocalEvent::LinkDown`]. Once the fault schedule's horizon
//! passes, every run reconverges to the same `(routes, prices)` fixpoint
//! as a fault-free run — the property `tests/chaos_parity.rs` checks over
//! topology families × fault seeds.
//!
//! # Session protocol
//!
//! Each *direction* of each link carries an independent stream:
//!
//! * **Establishment.** The sender allocates a fresh epoch from a
//!   harness-global counter (monotone across crashes, the role TCP's
//!   randomized ISNs play) and sends [`FrameKind::Open`] (seq 0) followed
//!   by its full table (seq 1) — a restarted node therefore rejoins from
//!   scratch simply by re-establishing.
//! * **Reception.** Frames of an older epoch are stale and dropped; a
//!   newer epoch resets the receive state (traced as
//!   [`TraceEvent::SessionReset`]); within the accepted epoch, sequence
//!   numbers dedupe, a reorder buffer restores order, and delivery is
//!   strictly in-order — so a node's Rib-In can never regress to an
//!   earlier advertisement, preserving the monotone price relaxation.
//! * **Acks and retransmission.** Every frame piggybacks the cumulative
//!   receive state of the reverse stream; unacknowledged frames are
//!   retransmitted after [`RETRANSMIT_AFTER`] stages (traced as
//!   [`TraceEvent::Retransmit`]).
//! * **Crash detection.** A peer whose acks *stop matching* the sender's
//!   epoch after having matched it once has lost its receive state
//!   (crashed and restarted), so the sender re-establishes with a full
//!   table. The "after having matched once" guard is what makes crossed
//!   Opens at startup terminate instead of ping-ponging.
//! * **Hold timer.** [`HOLD_STAGES`] of silence on an active session is
//!   an implicit link failure: the node applies
//!   [`LocalEvent::LinkDown`], tears both directions down, and relearns
//!   via re-establishment if the link ever heals. Keepalives
//!   ([`FrameKind::Keepalive`]) keep healthy-but-quiet sessions alive.
//!
//! See `docs/ROBUSTNESS.md` for the full fault model and the
//! self-stabilization argument.

use crate::adversary::Adversary;
use crate::dynamics::LocalEvent;
use crate::message::{Frame, FrameKind, Update};
use crate::node::ProtocolNode;
use crate::telemetry::Instruments;
use crate::wire;
use bgpvcg_netgraph::{AsGraph, AsId};
use bgpvcg_telemetry::flight::{self, FlightRecorder, StateSnapshot};
use bgpvcg_telemetry::profile::span;
use bgpvcg_telemetry::{HealthConfig, HealthSink, SpanProfiler, Telemetry, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Stages an unacknowledged frame waits before being retransmitted. Two
/// stages cover the round trip on a healthy channel (deliver next stage,
/// ack the stage after); the margin avoids spurious retransmits under
/// mild delay faults.
pub const RETRANSMIT_AFTER: u64 = 4;

/// Stages of send-side silence after which a keepalive is emitted, so a
/// healthy but quiet session never trips the peer's hold timer.
pub const KEEPALIVE_AFTER: u64 = 4;

/// Stages of receive-side silence after which a session is declared dead
/// and the link implicitly down. Must comfortably exceed
/// [`KEEPALIVE_AFTER`] plus delivery latency.
pub const HOLD_STAGES: u64 = 12;

/// Trace encoding of the injected fault kinds (the `fault` field of
/// [`TraceEvent::FaultInjected`]).
pub mod fault {
    /// Frame silently discarded.
    pub const DROP: u32 = 0;
    /// Frame delivered twice.
    pub const DUPLICATE: u32 = 1;
    /// Frame delivery postponed by a bounded number of stages (the
    /// mechanism by which reordering arises: later frames overtake).
    pub const DELAY: u32 = 2;
    /// Link flap or silent cut: the channel eats everything for a window
    /// (flap) or forever (cut), with no notification to either end.
    pub const LINK_FLAP: u32 = 3;
    /// Node crash: protocol state lost, every incident channel emptied.
    pub const CRASH: u32 = 4;
    /// The `peer` field's value for node-level faults, which have no peer.
    pub const NODE_PEER: u32 = u32::MAX;
}

/// A deterministic, seed-replayable fault schedule.
///
/// Stochastic channel faults (drop / duplicate / delay) apply to every
/// frame sent before `horizon`, drawn from a [`StdRng`] seeded with
/// `seed`; structural faults (crashes, restarts, flaps, cuts) fire at the
/// exact stages listed. Identical plans produce bit-identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed for the stochastic channel faults.
    pub seed: u64,
    /// Per-frame probability of a silent drop (before `horizon`).
    pub drop_rate: f64,
    /// Per-frame probability of duplicate delivery (before `horizon`).
    pub duplicate_rate: f64,
    /// Per-frame probability of delayed delivery (before `horizon`).
    pub delay_rate: f64,
    /// Upper bound, in stages, of a delay fault (drawn uniformly from
    /// `1..=max_delay`).
    pub max_delay: u64,
    /// Stage at which stochastic faults cease. Structural faults should
    /// also be scheduled before this for self-stabilization runs.
    pub horizon: u64,
    /// `(stage, node)` crash schedule: at `stage`, the node loses all
    /// protocol state and every incident channel is emptied.
    pub crashes: Vec<(u64, AsId)>,
    /// `(stage, node)` restart schedule: the node rejoins from scratch.
    pub restarts: Vec<(u64, AsId)>,
    /// `(from, until, a, b)` flap windows: during `from..until` the
    /// channel between `a` and `b` silently eats every frame, both
    /// directions, without tearing the link down.
    pub flaps: Vec<(u64, u64, AsId, AsId)>,
    /// `(stage, a, b)` silent permanent link deaths: from `stage` on, the
    /// link is gone but *neither endpoint is told* — only the hold timer
    /// can discover it. This is the scenario the hold-timer ≡ explicit
    /// `LinkDown` parity property exercises.
    pub cuts: Vec<(u64, AsId, AsId)>,
}

impl FaultPlan {
    /// A plan that injects nothing — the chaos harness degenerates to a
    /// (session-layered) reliable network.
    pub fn quiet() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 1,
            horizon: 0,
            crashes: Vec::new(),
            restarts: Vec::new(),
            flaps: Vec::new(),
            cuts: Vec::new(),
        }
    }

    /// A moderately hostile lossy channel: ~15% drops, ~10% duplicates,
    /// ~10% delays of up to 3 stages, ceasing at `horizon`.
    pub fn lossy(seed: u64, horizon: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.15,
            duplicate_rate: 0.10,
            delay_rate: 0.10,
            max_delay: 3,
            horizon,
            crashes: Vec::new(),
            restarts: Vec::new(),
            flaps: Vec::new(),
            cuts: Vec::new(),
        }
    }

    /// Adds a crash/restart pair (builder style).
    #[must_use]
    pub fn with_crash(mut self, at: u64, node: AsId, restart_at: u64) -> Self {
        self.crashes.push((at, node));
        self.restarts.push((restart_at, node));
        self
    }

    /// Adds a flap window (builder style).
    #[must_use]
    pub fn with_flap(mut self, from: u64, until: u64, a: AsId, b: AsId) -> Self {
        self.flaps.push((from, until, a, b));
        self
    }

    /// Adds a silent permanent cut (builder style).
    #[must_use]
    pub fn with_cut(mut self, at: u64, a: AsId, b: AsId) -> Self {
        self.cuts.push((at, a, b));
        self
    }

    /// `true` while the undirected link `a`–`b` is inside a flap window at
    /// `stage`.
    pub fn is_flapped(&self, stage: u64, a: AsId, b: AsId) -> bool {
        self.flaps.iter().any(|&(from, until, x, y)| {
            stage >= from && stage < until && ((x, y) == (a, b) || (y, x) == (a, b))
        })
    }

    /// The last stage at which this plan can still inject anything —
    /// self-stabilization is only promised beyond it.
    pub fn activity_end(&self) -> u64 {
        let mut end = self.horizon;
        for &(s, _) in &self.crashes {
            end = end.max(s + 1);
        }
        for &(s, _) in &self.restarts {
            end = end.max(s + 1);
        }
        for &(_, until, ..) in &self.flaps {
            end = end.max(until);
        }
        for &(s, ..) in &self.cuts {
            end = end.max(s + 1);
        }
        end
    }
}

/// What a chaos run did, and what recovering from it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Stages executed until the network stabilized (or the budget ran
    /// out).
    pub stages: u64,
    /// Frames delivered (keepalives included).
    pub messages: u64,
    /// Bytes delivered under the [`wire`] v1 frame model (the historical
    /// baseline column).
    pub bytes: u64,
    /// Bytes the same frame stream occupies under the v2 varint/delta
    /// encoding ([`wire::frame_size_v2_with`]).
    pub bytes_v2: u64,
    /// Frames silently dropped by the fault layer (flap/cut losses
    /// included).
    pub frames_dropped: u64,
    /// Frames duplicated by the fault layer.
    pub frames_duplicated: u64,
    /// Frames delayed by the fault layer.
    pub frames_delayed: u64,
    /// Sequenced frames retransmitted by the recovery layer.
    pub retransmits: u64,
    /// Receive-state resets (new epoch accepted or hold-timer teardown).
    pub session_resets: u64,
    /// Hold timers fired (implicit link failures observed).
    pub holds_fired: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Restarts injected.
    pub restarts: u64,
    /// Scheduled structural faults that were invalid when their stage came
    /// (e.g. crashing an already-crashed node) and were skipped.
    pub rejected_events: u64,
    /// `false` if the stage budget ran out before the network stabilized.
    pub converged: bool,
    /// Stages from the fault schedule's end to stabilization — the
    /// recovery cost the `e19_chaos` benchmark measures.
    pub recovery_stages: u64,
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} stages ({} recovery), {} frames ({} v2 bytes), {} dropped, {} retransmits, {} resets, {} holds{}",
            self.stages,
            self.recovery_stages,
            self.messages,
            self.bytes_v2,
            self.frames_dropped,
            self.retransmits,
            self.session_resets,
            self.holds_fired,
            if self.converged {
                ""
            } else {
                " (NOT STABILIZED)"
            }
        )
    }
}

/// Send-direction session state toward one neighbor.
#[derive(Debug, Clone, Default)]
struct SendStream {
    /// `true` once an Open has been sent and not torn down since.
    established: bool,
    /// Epoch of the current stream (from the harness-global counter).
    epoch: u64,
    /// Next unassigned sequence number.
    next_seq: u64,
    /// Highest cumulative ack received for `epoch`.
    acked_high: u64,
    /// `true` once any frame acked this epoch — arms the crash-regression
    /// detector (see module docs).
    peer_acked: bool,
    /// Unacknowledged sequenced frames: `(seq, payload, last_sent_stage)`.
    unacked: Vec<(u64, FrameKind, u64)>,
    /// Stage of the most recent send (any frame kind).
    last_sent: u64,
}

/// Receive-direction session state from one neighbor.
#[derive(Debug, Clone, Default)]
struct RecvStream {
    /// Accepted epoch (0 = none yet).
    epoch: u64,
    /// Next in-order sequence number expected (== cumulative ack).
    next_seq: u64,
    /// Out-of-order frames of the accepted epoch, keyed by seq.
    buffer: BTreeMap<u64, FrameKind>,
    /// Stage a frame last arrived on this channel (any kind, any epoch).
    last_heard: u64,
    /// Stage a *sequenced* frame of the accepted epoch last arrived —
    /// drives the immediate-ack keepalive that keeps the retransmit timer
    /// non-spurious on healthy channels.
    last_seq_heard: u64,
}

/// Both directions of one node's session with one neighbor.
#[derive(Debug, Clone, Default)]
struct Session {
    send: SendStream,
    recv: RecvStream,
}

/// One direction of a link: frames in flight, each with the stage it
/// becomes deliverable.
#[derive(Debug, Clone, Default)]
struct Channel {
    queue: Vec<(u64, Frame)>,
}

/// The chaos harness: drives [`ProtocolNode`]s over seeded-faulty channels
/// through the sequenced session layer, in deterministic stages.
///
/// Unlike [`SyncEngine`](crate::engine::SyncEngine) this engine owns a
/// *transport*: nodes exchange [`Frame`]s, not bare updates, and the
/// harness injects the [`FaultPlan`]'s faults at the channel boundary.
/// Everything is single-threaded and iteration orders are fixed, so a
/// `(plan, topology)` pair replays bit-identically.
#[derive(Debug)]
pub struct ChaosEngine<N> {
    nodes: Vec<N>,
    /// Static physical adjacency from the construction graph.
    adjacency: Vec<Vec<AsId>>,
    /// Liveness of each node (crashed nodes are down).
    up: Vec<bool>,
    /// Undirected links administratively dead (silent cuts), normalized
    /// `(min, max)`.
    cut: Vec<(u32, u32)>,
    /// Per-node, per-neighbor session state.
    sessions: Vec<BTreeMap<u32, Session>>,
    /// Directed channels keyed `(sender, receiver)`.
    channels: BTreeMap<(u32, u32), Channel>,
    plan: FaultPlan,
    rng: StdRng,
    /// Harness-global epoch allocator (monotone across crashes).
    epoch_counter: u64,
    /// Monotone provenance counter for broadcast [`Update`]s (0 = never
    /// broadcast). Session full-table syncs are deliberately unstamped:
    /// they re-state environment-known state, so advertisements they cause
    /// attribute to cause 0 like origin advertisements do.
    update_seq: u64,
    stage: u64,
    report: ChaosReport,
    /// Everything that observes a run (see [`Instruments`]).
    instruments: Instruments,
    /// Scratch: updates delivered in-order this stage, per node index.
    pending: Vec<Vec<Arc<Update>>>,
    /// Scratch: `true` while the current stage has observed recovery-layer
    /// or protocol activity (used by the stabilization detector).
    stage_active: bool,
    /// Reusable scratch buffer for v2 byte accounting — one encoder per
    /// engine, zero per-frame allocations.
    scratch: Vec<u8>,
    /// Per-node Byzantine wire taps (see [`crate::adversary`]); `None` =
    /// honest. Taps perturb outgoing Data payloads — broadcasts *and*
    /// session full-table resends — through the same deterministic
    /// function, so retransmitted and re-established streams stay
    /// self-consistent and runs replay exactly.
    adversaries: Vec<Option<Adversary>>,
}

impl<N: ProtocolNode> ChaosEngine<N> {
    /// Creates a harness over the graph's topology with one prepared node
    /// per AS and the given fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph's node count or ids
    /// are out of order.
    pub fn new(graph: &AsGraph, nodes: Vec<N>, plan: FaultPlan) -> Self {
        assert_eq!(nodes.len(), graph.node_count(), "one node per AS");
        for (idx, node) in nodes.iter().enumerate() {
            assert_eq!(node.id().index(), idx, "nodes must be in AS order");
        }
        let n = nodes.len();
        let mut channels = BTreeMap::new();
        for i in graph.nodes() {
            for &j in graph.neighbors(i) {
                channels.insert((i.index() as u32, j.index() as u32), Channel::default());
            }
        }
        let rng = StdRng::seed_from_u64(plan.seed);
        ChaosEngine {
            nodes,
            adjacency: graph.nodes().map(|k| graph.neighbors(k).to_vec()).collect(),
            up: vec![true; n],
            cut: Vec::new(),
            sessions: vec![BTreeMap::new(); n],
            channels,
            plan,
            rng,
            epoch_counter: 0,
            update_seq: 0,
            stage: 0,
            report: ChaosReport {
                converged: true,
                ..ChaosReport::default()
            },
            instruments: Instruments::new(n),
            pending: vec![Vec::new(); n],
            stage_active: false,
            scratch: Vec::new(),
            adversaries: (0..n).map(|_| None).collect(),
        }
    }

    /// Arms a Byzantine wire tap on `node` (see [`crate::adversary`]):
    /// every outgoing Data payload — change broadcast or session
    /// full-table resend — passes through the adversary's deterministic
    /// per-neighbor perturbation before framing. The node's own protocol
    /// state stays honest; only what crosses the wire lies. Delta
    /// encoding is disabled on the node so every perturbed advertisement
    /// carries absolute state the receivers can ingest directly.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_adversary(&mut self, node: AsId, adversary: Adversary) {
        self.nodes[node.index()].configure_delta_encoding(false);
        self.adversaries[node.index()] = Some(adversary);
    }

    /// The Byzantine tap armed on `node`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn adversary(&self, node: AsId) -> Option<&Adversary> {
        self.adversaries[node.index()].as_ref()
    }

    /// Runs an outgoing Data payload from `from` toward `to` through
    /// `from`'s Byzantine tap, if armed. Returns the perturbed payload
    /// to frame instead (tracing the injection), or `None` when the
    /// delivery passes through honestly.
    fn adversarial_payload(&mut self, from: u32, to: u32, update: &Update) -> Option<Update> {
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        self.adversaries[from as usize].as_ref()?;
        self.instruments.enter(span::ADVERSARY_TAP);
        let out = self.adversarial_payload_tapped(from, to, update);
        self.instruments.exit();
        out
    }

    /// The armed-tap body of [`adversarial_payload`]
    /// (Self::adversarial_payload), split out so the profiler span
    /// brackets every early return.
    fn adversarial_payload_tapped(
        &mut self,
        from: u32,
        to: u32,
        update: &Update,
    ) -> Option<Update> {
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let rank = self.adjacency[from as usize]
            .iter()
            .position(|a| a.index() as u32 == to)?;
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let adversary = self.adversaries[from as usize].as_mut()?;
        let strategy = adversary.strategy().code();
        let perturbed = adversary.perturb(AsId::new(to), rank, update)?;
        self.instruments.record(&TraceEvent::AdversaryInjected {
            stage: self.stage,
            node: from,
            peer: to,
            strategy,
        });
        Some(perturbed)
    }

    /// Attaches observability: fault injections, retransmits, session
    /// resets and restarts are traced, and broadcast updates narrate
    /// through the same `UpdateTracer` the synchronous engine uses. The
    /// `attach_*` methods compose in any order.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.instruments.attach_telemetry(telemetry);
    }

    /// Attaches a divergence flight recorder: the most recent `capacity`
    /// trace events are retained, and a run that exhausts its stage budget
    /// without stabilizing dumps the tail plus per-node session snapshots
    /// to `path` (see [`bgpvcg_telemetry::flight`]). The recorder is teed
    /// into whatever telemetry is attached, and works standalone on a
    /// detached engine.
    pub fn attach_flight_recorder(&mut self, path: &Path, capacity: usize) {
        self.instruments.attach_flight_recorder(path, capacity);
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.instruments.flight_recorder()
    }

    /// Attaches the hierarchical span profiler over the harness phases
    /// (per-stage root, route-select/handle, wire framing, and the
    /// session/retransmit timer pass). Timestamps come from the attached
    /// telemetry's clock, or a fresh `SystemClock` when detached.
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

    /// Attaches the streaming convergence-health monitor: a [`HealthSink`]
    /// is teed into the trace stream so it folds every event as recorded.
    /// [`run_to_stable`](Self::run_to_stable) polls the stall detector
    /// after every stage and — with a flight recorder attached — writes a
    /// [`flight::REASON_HEALTH_STALL`] post-mortem at first stall, before
    /// the stage budget runs out.
    pub fn attach_health(&mut self, config: HealthConfig) {
        self.instruments.attach_health(config);
    }

    /// The attached health monitor, if any.
    pub fn health_sink(&self) -> Option<&Arc<HealthSink>> {
        self.instruments.health_sink()
    }

    /// Writes the divergence dump after a budget exhaustion.
    fn dump_flight(&self) {
        let frames_in_flight: u64 = self.channels.values().map(|c| c.queue.len() as u64).sum();
        let summary = [
            ("stages", self.report.stages),
            ("messages", self.report.messages),
            ("frames_dropped", self.report.frames_dropped),
            ("retransmits", self.report.retransmits),
            ("session_resets", self.report.session_resets),
            ("holds_fired", self.report.holds_fired),
            ("frames_in_flight", frames_in_flight),
            ("updates_stamped", self.update_seq),
            ("nodes", self.nodes.len() as u64),
        ];
        let snapshots = || {
            let per_node = self.sessions.iter().zip(&self.up).zip(&self.pending);
            per_node
                .take(64)
                .enumerate()
                .map(|(idx, ((sessions, &up), pending))| StateSnapshot {
                    node: idx as u32,
                    fields: vec![
                        ("up", u64::from(up)),
                        (
                            "sessions_established",
                            sessions.values().filter(|s| s.send.established).count() as u64,
                        ),
                        (
                            "unacked_frames",
                            sessions.values().map(|s| s.send.unacked.len() as u64).sum(),
                        ),
                        ("pending_updates", pending.len() as u64),
                    ],
                })
                .collect()
        };
        self.instruments.dump_abort(
            flight::REASON_NOT_STABILIZED,
            self.stage,
            &summary,
            snapshots,
        );
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

    /// Enables or disables price-delta advertisement emission on every
    /// node. Session-resync full-table resends stay full either way.
    pub fn set_delta_encoding(&mut self, on: bool) {
        for node in &mut self.nodes {
            node.configure_delta_encoding(on);
        }
    }

    /// `true` if node `k` is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn is_down(&self, k: AsId) -> bool {
        !self.up[k.index()]
    }

    /// Stages executed so far.
    pub fn stage(&self) -> u64 {
        self.stage
    }

    /// Consumes the engine, returning the nodes (for fixpoint
    /// comparisons).
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// `true` if the undirected link `a`–`b` exists, both ends are up, and
    /// it has not been cut.
    fn live_link(&self, a: u32, b: u32) -> bool {
        let (lo, hi) = (a.min(b), a.max(b));
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        self.up[a as usize]
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            && self.up[b as usize]
            && !self.cut.contains(&(lo, hi))
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            && self.adjacency[a as usize].contains(&AsId::new(b))
    }

    /// Sends `kind` from `from` to `to` through the fault layer; sequenced
    /// kinds consume a seq and enter the retransmit buffer.
    fn send_frame(&mut self, from: u32, to: u32, kind: FrameKind) {
        let stage = self.stage;
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let session = self.sessions[from as usize].entry(to).or_default();
        let sequenced = !matches!(kind, FrameKind::Keepalive);
        let seq = session.send.next_seq;
        if sequenced {
            session.send.next_seq += 1;
            session.send.unacked.push((seq, kind.clone(), stage));
        }
        session.send.last_sent = stage;
        let frame = Frame {
            epoch: session.send.epoch,
            seq,
            ack_epoch: session.recv.epoch,
            ack: session.recv.next_seq,
            kind,
        };
        self.transmit(from, to, frame);
    }

    /// Pushes a fully built frame into the channel, applying the plan's
    /// stochastic faults (and flap/cut/crash losses).
    fn transmit(&mut self, from: u32, to: u32, frame: Frame) {
        if !self.live_link(from, to) {
            // Crashed endpoint or administratively dead link: the frame
            // vanishes without being a counted stochastic fault.
            return;
        }
        let stage = self.stage;
        if self.plan.is_flapped(stage, AsId::new(from), AsId::new(to)) {
            self.report.frames_dropped += 1;
            return;
        }
        let mut deliver_at = stage + 1;
        if stage < self.plan.horizon {
            if self.rng.gen_bool(self.plan.drop_rate) {
                self.report.frames_dropped += 1;
                self.instruments.record(&TraceEvent::FaultInjected {
                    stage,
                    node: from,
                    peer: to,
                    fault: fault::DROP,
                });
                return;
            }
            if self.rng.gen_bool(self.plan.delay_rate) {
                deliver_at += self.rng.gen_range(1..=self.plan.max_delay.max(1));
                self.report.frames_delayed += 1;
                self.instruments.record(&TraceEvent::FaultInjected {
                    stage,
                    node: from,
                    peer: to,
                    fault: fault::DELAY,
                });
            }
            if self.rng.gen_bool(self.plan.duplicate_rate) {
                self.report.frames_duplicated += 1;
                self.instruments.record(&TraceEvent::FaultInjected {
                    stage,
                    node: from,
                    peer: to,
                    fault: fault::DUPLICATE,
                });
                if let Some(channel) = self.channels.get_mut(&(from, to)) {
                    channel.queue.push((deliver_at + 1, frame.clone()));
                }
            }
        }
        if let Some(channel) = self.channels.get_mut(&(from, to)) {
            channel.queue.push((deliver_at, frame));
        }
    }

    /// (Re)establishes the send stream `from → to`: fresh epoch, Open,
    /// full table. The sender also (re)attaches the neighbor locally —
    /// session establishment is what makes a link usable in this model.
    fn establish(&mut self, from: u32, to: u32) {
        self.epoch_counter += 1;
        let epoch = self.epoch_counter;
        let stage = self.stage;
        {
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let session = self.sessions[from as usize].entry(to).or_default();
            session.send.established = true;
            session.send.epoch = epoch;
            session.send.next_seq = 0;
            session.send.acked_high = 0;
            session.send.peer_acked = false;
            session.send.unacked.clear();
            // Re-arm the hold timer: a fresh session gets a full
            // `HOLD_STAGES` grace period to hear back before silence is
            // read as failure (otherwise a post-expiry re-establishment
            // would trip the still-stale timer immediately).
            session.recv.last_heard = stage;
        }
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let _ = self.nodes[from as usize].apply_event(LocalEvent::LinkUp(AsId::new(to)));
        self.send_frame(from, to, FrameKind::Open);
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let table = self.nodes[from as usize].full_table();
        if let Some(table) = table {
            let payload = self.adversarial_payload(from, to, &table).unwrap_or(table);
            self.send_frame(from, to, FrameKind::Data(payload.into()));
        }
        self.stage_active = true;
    }

    /// Tears down both directions of the session with `peer` after a hold
    /// expiry, applying the implicit link-down to the node.
    fn hold_expire(&mut self, me: u32, peer: u32) {
        self.report.holds_fired += 1;
        self.report.session_resets += 1;
        self.stage_active = true;
        self.instruments.record(&TraceEvent::SessionReset {
            stage: self.stage,
            node: me,
            peer,
        });
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        if let Some(session) = self.sessions[me as usize].get_mut(&peer) {
            session.send.established = false;
            session.send.peer_acked = false;
            session.send.unacked.clear();
            session.recv.epoch = 0;
            session.recv.next_seq = 0;
            session.recv.buffer.clear();
            session.recv.last_heard = self.stage;
        }
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let out = self.nodes[me as usize].apply_event(LocalEvent::LinkDown(AsId::new(peer)));
        if let Some(update) = out {
            self.broadcast(me, update);
        }
    }

    /// Broadcasts `update` from node `idx` as sequenced Data frames to
    /// every established session. The update is stamped with the next
    /// provenance id here, *before* tracing and framing, so receivers see
    /// the same id the tracer reported (frames share the update by `Arc` —
    /// provenance never crosses the wire codec). Only an
    /// adversary-perturbed copy gets a payload of its own.
    fn broadcast(&mut self, idx: u32, mut update: Update) {
        self.update_seq += 1;
        update.id = self.update_seq;
        self.stage_active = true;
        self.instruments.trace_update(&update, self.stage);
        let update = Arc::new(update);
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let neighbors = self.adjacency[idx as usize].clone();
        for to in neighbors {
            let to = to.index() as u32;
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let established = self.sessions[idx as usize]
                .get(&to)
                .is_some_and(|s| s.send.established);
            if established {
                let payload = match self.adversarial_payload(idx, to, &update) {
                    Some(perturbed) => Arc::new(perturbed),
                    None => Arc::clone(&update),
                };
                self.send_frame(idx, to, FrameKind::Data(payload));
            }
        }
    }

    /// Processes one frame arriving at `me` from `peer`; in-order Data
    /// payloads are queued into `pending[me]` for this stage's handle
    /// pass.
    fn receive(&mut self, me: u32, peer: u32, frame: Frame) {
        self.report.messages += 1;
        self.report.bytes += wire::frame_size(&frame) as u64;
        self.report.bytes_v2 += wire::frame_size_v2_with(&mut self.scratch, &frame) as u64;
        let stage = self.stage;
        let mut reestablish = false;
        let mut resets = 0u64;
        let mut opened = false;
        {
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let session = self.sessions[me as usize].entry(peer).or_default();
            session.recv.last_heard = stage;
            // Ack processing for our own stream toward `peer`.
            if session.send.established {
                if frame.ack_epoch == session.send.epoch {
                    if frame.ack > session.send.acked_high {
                        session.send.acked_high = frame.ack;
                        session.send.unacked.retain(|&(seq, ..)| seq >= frame.ack);
                    } else if session.send.peer_acked && frame.ack < session.send.acked_high {
                        // Cumulative acks regressed: the peer lost its
                        // receive state but re-adopted this epoch from a
                        // retransmitted frame before we noticed. (A
                        // spurious trigger from a delayed old frame is
                        // possible pre-horizon and merely wasteful.)
                        reestablish = true;
                    }
                    session.send.peer_acked = true;
                } else if session.send.peer_acked {
                    // The peer acked this epoch once and no longer does:
                    // it lost its receive state (crash/restart). Start
                    // over with a fresh epoch and a full table.
                    reestablish = true;
                }
            }
            // Sequencing for the peer's stream toward us.
            if frame.is_sequenced() {
                if frame.epoch < session.recv.epoch {
                    // Stale epoch: a frame from a torn-down incarnation.
                } else {
                    if frame.epoch > session.recv.epoch {
                        session.recv.epoch = frame.epoch;
                        session.recv.next_seq = 0;
                        session.recv.buffer.clear();
                        resets += 1;
                    }
                    session.recv.last_seq_heard = stage;
                    if frame.seq >= session.recv.next_seq {
                        session.recv.buffer.insert(frame.seq, frame.kind);
                        while let Some(kind) = session.recv.buffer.remove(&session.recv.next_seq) {
                            session.recv.next_seq += 1;
                            match kind {
                                FrameKind::Open => opened = true,
                                FrameKind::Data(update) => {
                                    // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
                                    self.pending[me as usize].push(update);
                                }
                                FrameKind::Keepalive => {}
                            }
                        }
                    }
                }
            }
        }
        if resets > 0 {
            self.report.session_resets += resets;
            self.stage_active = true;
            self.instruments.record(&TraceEvent::SessionReset {
                stage,
                node: me,
                peer,
            });
        }
        if opened {
            // An accepted Open precedes all Data of its epoch, so the
            // neighbor is attached before any of its routes are ingested.
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let _ = self.nodes[me as usize].apply_event(LocalEvent::LinkUp(AsId::new(peer)));
            self.stage_active = true;
            // The peer restarting its stream means it (re)initialized its
            // view of us — typically after dropping everything we ever
            // sent (restart, hold expiry, detected regression). Resend our
            // full table on our own stream so its Rib-In refills; an Open
            // triggers only Data, never a counter-Open, so two nodes can
            // never ping-pong establishments.
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let established = self.sessions[me as usize]
                .get(&peer)
                .is_some_and(|s| s.send.established);
            if established {
                // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
                if let Some(table) = self.nodes[me as usize].full_table() {
                    let payload = self.adversarial_payload(me, peer, &table).unwrap_or(table);
                    self.send_frame(me, peer, FrameKind::Data(payload.into()));
                }
            }
        }
        if reestablish && self.live_link(me, peer) {
            // The peer's state loss also invalidates everything we learned
            // from it over the dead incarnation: bounce the link locally so
            // the stale Rib-In is dropped before the sessions restart.
            self.report.session_resets += 1;
            self.instruments.record(&TraceEvent::SessionReset {
                stage,
                node: me,
                peer,
            });
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let out = self.nodes[me as usize].apply_event(LocalEvent::LinkDown(AsId::new(peer)));
            if let Some(update) = out {
                self.broadcast(me, update);
            }
            self.establish(me, peer);
        }
    }

    /// Applies the structural faults scheduled for the current stage.
    fn apply_scheduled_faults(&mut self) {
        let stage = self.stage;
        let crashes: Vec<AsId> = self
            .plan
            .crashes
            .iter()
            .filter(|&&(s, _)| s == stage)
            .map(|&(_, k)| k)
            .collect();
        for k in crashes {
            if k.index() >= self.nodes.len() || !self.up[k.index()] {
                self.report.rejected_events += 1;
                continue;
            }
            self.crash(k);
        }
        let restarts: Vec<AsId> = self
            .plan
            .restarts
            .iter()
            .filter(|&&(s, _)| s == stage)
            .map(|&(_, k)| k)
            .collect();
        for k in restarts {
            if k.index() >= self.nodes.len() || self.up[k.index()] {
                self.report.rejected_events += 1;
                continue;
            }
            self.restart(k);
        }
        let cuts: Vec<(AsId, AsId)> = self
            .plan
            .cuts
            .iter()
            .filter(|&&(s, ..)| s == stage)
            .map(|&(_, a, b)| (a, b))
            .collect();
        for (a, b) in cuts {
            let (ai, bi) = (a.index() as u32, b.index() as u32);
            let key = (ai.min(bi), ai.max(bi));
            if ai as usize >= self.nodes.len()
                || bi as usize >= self.nodes.len()
                // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
                || !self.adjacency[ai as usize].contains(&b)
                || self.cut.contains(&key)
            {
                self.report.rejected_events += 1;
                continue;
            }
            self.cut.push(key);
            self.stage_active = true;
            self.instruments.record(&TraceEvent::FaultInjected {
                stage,
                node: ai,
                peer: bi,
                fault: fault::LINK_FLAP,
            });
            for dir in [(ai, bi), (bi, ai)] {
                if let Some(channel) = self.channels.get_mut(&dir) {
                    self.report.frames_dropped += channel.queue.len() as u64;
                    channel.queue.clear();
                }
            }
        }
        // Flap windows opening this stage: trace once and flush whatever
        // is in flight (the window also eats frames at delivery time).
        for &(from, _, a, b) in &self.plan.flaps {
            if from != stage {
                continue;
            }
            let (ai, bi) = (a.index() as u32, b.index() as u32);
            self.instruments.record(&TraceEvent::FaultInjected {
                stage,
                node: ai,
                peer: bi,
                fault: fault::LINK_FLAP,
            });
        }
        self.stage_active |= self
            .plan
            .flaps
            .iter()
            .any(|&(from, until, ..)| stage >= from && stage < until);
    }

    /// Crashes node `k`: state lost, channels emptied, sessions wiped.
    /// Neighbors are *not* told — their hold timers will notice.
    fn crash(&mut self, k: AsId) {
        let ki = k.index();
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        self.up[ki] = false;
        self.report.crashes += 1;
        self.stage_active = true;
        self.instruments.record(&TraceEvent::FaultInjected {
            stage: self.stage,
            node: ki as u32,
            peer: fault::NODE_PEER,
            fault: fault::CRASH,
        });
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        self.nodes[ki].reset();
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let neighbors = self.adjacency[ki].clone();
        for a in neighbors {
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let _ = self.nodes[ki].apply_event(LocalEvent::LinkDown(a));
            for dir in [(ki as u32, a.index() as u32), (a.index() as u32, ki as u32)] {
                if let Some(channel) = self.channels.get_mut(&dir) {
                    self.report.frames_dropped += channel.queue.len() as u64;
                    channel.queue.clear();
                }
            }
        }
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        self.sessions[ki].clear();
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        self.pending[ki].clear();
    }

    /// Restarts node `k` from scratch; its sessions re-establish in this
    /// stage's establishment pass.
    fn restart(&mut self, k: AsId) {
        let ki = k.index();
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        self.up[ki] = true;
        self.report.restarts += 1;
        self.stage_active = true;
        self.instruments.record(&TraceEvent::NodeRestart {
            stage: self.stage,
            node: ki as u32,
        });
        // The crash already detached every link, so reset() restores a
        // link-less fresh node; the establishment pass this same stage
        // re-attaches neighbors and ships the full table. start() here
        // just primes the change-suppression memory with the origin.
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        self.nodes[ki].reset();
        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
        let _ = self.nodes[ki].start();
    }

    /// Executes one harness stage. Ordering within a stage is fixed —
    /// faults, establishment, delivery, handling, timers — and every loop
    /// iterates in ascending node/peer order, so runs replay exactly.
    pub fn step(&mut self) {
        self.instruments.enter(span::STAGE);
        self.stage += 1;
        self.stage_active = false;
        let stage = self.stage;
        self.instruments.record(&TraceEvent::StageStart { stage });
        self.apply_scheduled_faults();

        // Establishment pass: every live directed link without an
        // established send stream opens one (initial startup, post-restart
        // rejoin, post-hold repair).
        for from in 0..self.nodes.len() as u32 {
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            if !self.up[from as usize] {
                continue;
            }
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let peers: Vec<u32> = self.adjacency[from as usize]
                .iter()
                .map(|a| a.index() as u32)
                .collect();
            for to in peers {
                if !self.live_link(from, to) {
                    continue;
                }
                // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
                let established = self.sessions[from as usize]
                    .get(&to)
                    .is_some_and(|s| s.send.established);
                if !established {
                    self.establish(from, to);
                }
            }
        }

        // Delivery pass: pop due frames per directed channel in key order.
        let keys: Vec<(u32, u32)> = self.channels.keys().copied().collect();
        for (from, to) in keys {
            let due: Vec<Frame> = {
                let Some(channel) = self.channels.get_mut(&(from, to)) else {
                    continue;
                };
                let mut due = Vec::new();
                let mut rest = Vec::with_capacity(channel.queue.len());
                for (at, frame) in channel.queue.drain(..) {
                    if at <= stage {
                        due.push(frame);
                    } else {
                        rest.push((at, frame));
                    }
                }
                channel.queue = rest;
                due
            };
            for frame in due {
                // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
                if !self.up[to as usize] {
                    self.report.frames_dropped += 1;
                    continue;
                }
                if self.plan.is_flapped(stage, AsId::new(from), AsId::new(to)) {
                    self.report.frames_dropped += 1;
                    continue;
                }
                let (lo, hi) = (from.min(to), from.max(to));
                if self.cut.contains(&(lo, hi)) {
                    self.report.frames_dropped += 1;
                    continue;
                }
                self.receive(to, from, frame);
            }
        }

        // Handle pass: nodes ingest this stage's in-order Data payloads
        // and broadcast what changed.
        self.instruments.enter(span::ROUTE_SELECT);
        for idx in 0..self.nodes.len() as u32 {
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let updates = std::mem::take(&mut self.pending[idx as usize]);
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            if updates.is_empty() || !self.up[idx as usize] {
                continue;
            }
            self.stage_active = true;
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let out = self.nodes[idx as usize].handle(&updates);
            if let Some(update) = out {
                self.instruments.enter(span::WIRE_ENCODE);
                self.broadcast(idx, update);
                self.instruments.exit();
            }
        }
        self.instruments.exit();

        // Timer pass: retransmits, hold expiry, keepalives.
        self.instruments.enter(span::SESSION_RETRANSMIT);
        for me in 0..self.nodes.len() as u32 {
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            if !self.up[me as usize] {
                continue;
            }
            // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
            let peers: Vec<u32> = self.sessions[me as usize].keys().copied().collect();
            for peer in peers {
                let (resend, expire, keepalive) = {
                    // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
                    let Some(session) = self.sessions[me as usize].get_mut(&peer) else {
                        continue;
                    };
                    let active = session.send.established || session.recv.epoch > 0;
                    let expire =
                        active && stage.saturating_sub(session.recv.last_heard) >= HOLD_STAGES;
                    let mut resend: Vec<(u64, FrameKind)> = Vec::new();
                    if session.send.established && !expire {
                        for (seq, kind, last_sent) in session.send.unacked.iter_mut() {
                            if stage.saturating_sub(*last_sent) >= RETRANSMIT_AFTER {
                                *last_sent = stage;
                                resend.push((*seq, kind.clone()));
                            }
                        }
                    }
                    // A keepalive goes out when the stream has been quiet
                    // long enough to worry the peer's hold timer, or — the
                    // immediate ack — when sequenced frames arrived this
                    // stage and nothing (which would have piggybacked the
                    // ack) was sent back, so the peer's retransmit timer
                    // never fires spuriously on a healthy channel.
                    let keepalive = session.send.established
                        && !expire
                        && resend.is_empty()
                        && (stage.saturating_sub(session.send.last_sent) >= KEEPALIVE_AFTER
                            || (session.recv.last_seq_heard == stage
                                && session.send.last_sent < stage));
                    (resend, expire, keepalive)
                };
                if expire {
                    self.hold_expire(me, peer);
                    continue;
                }
                for (seq, kind) in resend {
                    self.report.retransmits += 1;
                    self.stage_active = true;
                    self.instruments.record(&TraceEvent::Retransmit {
                        stage,
                        from: me,
                        to: peer,
                        seq,
                    });
                    let frame = {
                        // lint:allow(bounds: per-node session state is sized n at construction and node ids are below n)
                        let Some(session) = self.sessions[me as usize].get_mut(&peer) else {
                            continue;
                        };
                        session.send.last_sent = stage;
                        Frame {
                            epoch: session.send.epoch,
                            seq,
                            ack_epoch: session.recv.epoch,
                            ack: session.recv.next_seq,
                            kind,
                        }
                    };
                    self.transmit(me, peer, frame);
                }
                if keepalive {
                    self.send_frame(me, peer, FrameKind::Keepalive);
                }
            }
        }
        self.instruments.exit();
        self.instruments.exit();
    }

    /// `true` when nothing recovery-relevant is pending: no sequenced
    /// frames in flight, no retransmit backlog, and the stage produced no
    /// protocol or session activity.
    fn is_idle(&self) -> bool {
        if self.stage_active {
            return false;
        }
        let backlog = self
            .channels
            .values()
            .flat_map(|c| c.queue.iter())
            .any(|(_, frame)| frame.is_sequenced());
        if backlog {
            return false;
        }
        !self
            .sessions
            .iter()
            .flat_map(|peers| peers.values())
            .any(|s| s.send.established && !s.send.unacked.is_empty())
    }

    /// Runs stages until the network stabilizes (two consecutive idle
    /// stages after the fault schedule's end) or `max_stages` runs out.
    pub fn run_to_stable(&mut self, max_stages: u64) -> ChaosReport {
        let activity_end = self.plan.activity_end();
        let mut idle_streak = 0u64;
        while self.stage < max_stages {
            self.step();
            let run_counters = [
                ("messages", self.report.messages),
                ("retransmits", self.report.retransmits),
                ("session_resets", self.report.session_resets),
                ("updates_stamped", self.update_seq),
                ("nodes", self.nodes.len() as u64),
            ];
            self.instruments.poll_stall(self.stage, &run_counters);
            if self.stage > activity_end && self.is_idle() {
                idle_streak += 1;
                if idle_streak >= 2 {
                    self.finish(activity_end);
                    return self.report;
                }
            } else {
                idle_streak = 0;
            }
        }
        self.report.converged = false;
        self.finish(activity_end);
        self.dump_flight();
        self.report
    }

    fn finish(&mut self, activity_end: u64) {
        self.report.stages = self.stage;
        self.report.recovery_stages = self.stage.saturating_sub(activity_end);
        self.instruments
            .finish(self.stage, Some(self.report.messages));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncEngine;
    use crate::node::PlainBgpNode;
    use bgpvcg_netgraph::generators::structured::{fig1, hypercube};
    use bgpvcg_netgraph::Cost;

    fn sync_fixpoint(g: &AsGraph) -> SyncEngine<PlainBgpNode> {
        let mut engine = SyncEngine::new(g, PlainBgpNode::from_graph(g));
        let report = engine.run_to_convergence();
        assert!(report.converged);
        engine
    }

    fn assert_route_parity(g: &AsGraph, chaos: &ChaosEngine<PlainBgpNode>) {
        let reference = sync_fixpoint(g);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    chaos.node(i).selector().route(j),
                    reference.node(i).selector().route(j),
                    "{i} -> {j}"
                );
            }
        }
    }

    #[test]
    fn quiet_plan_reaches_the_sync_fixpoint() {
        let g = fig1();
        let mut chaos = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), FaultPlan::quiet());
        let report = chaos.run_to_stable(200);
        assert!(report.converged, "{report}");
        assert_eq!(report.frames_dropped, 0);
        assert_eq!(report.retransmits, 0);
        assert_route_parity(&g, &chaos);
    }

    #[test]
    fn lossy_channels_recover_to_the_same_fixpoint() {
        let g = hypercube(3, Cost::new(2));
        for seed in 0..4 {
            let mut chaos =
                ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), FaultPlan::lossy(seed, 20));
            let report = chaos.run_to_stable(400);
            assert!(report.converged, "seed {seed}: {report}");
            assert_route_parity(&g, &chaos);
        }
    }

    #[test]
    fn runs_replay_bit_identically_from_the_seed() {
        let g = hypercube(3, Cost::new(1));
        let run = |_: ()| {
            let mut chaos = ChaosEngine::new(
                &g,
                PlainBgpNode::from_graph(&g),
                FaultPlan::lossy(42, 16).with_crash(5, AsId::new(2), 9),
            );
            let report = chaos.run_to_stable(400);
            (report, chaos)
        };
        let (r1, c1) = run(());
        let (r2, c2) = run(());
        assert_eq!(r1, r2, "reports must replay exactly");
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    c1.node(i).selector().route(j),
                    c2.node(i).selector().route(j)
                );
            }
        }
    }

    #[test]
    fn crash_and_restart_self_stabilize() {
        let g = hypercube(3, Cost::new(2));
        let mut chaos = ChaosEngine::new(
            &g,
            PlainBgpNode::from_graph(&g),
            FaultPlan::lossy(7, 24).with_crash(4, AsId::new(3), 12),
        );
        let report = chaos.run_to_stable(500);
        assert!(report.converged, "{report}");
        assert_eq!(report.crashes, 1);
        assert_eq!(report.restarts, 1);
        assert_route_parity(&g, &chaos);
    }

    #[test]
    fn silent_cut_converges_to_the_explicit_link_down_fixpoint() {
        let g = fig1();
        use bgpvcg_netgraph::generators::structured::Fig1;
        let mut chaos = ChaosEngine::new(
            &g,
            PlainBgpNode::from_graph(&g),
            FaultPlan::quiet().with_cut(6, Fig1::D, Fig1::Z),
        );
        let report = chaos.run_to_stable(400);
        assert!(report.converged, "{report}");
        assert!(report.holds_fired >= 2, "both ends must time out");
        // Reference: a reliable engine told about the failure explicitly.
        let mut reference = sync_fixpoint(&g);
        let _ = reference.apply_event(crate::dynamics::TopologyEvent::LinkDown(Fig1::D, Fig1::Z));
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    chaos.node(i).selector().route(j),
                    reference.node(i).selector().route(j),
                    "{i} -> {j}: hold-timer discovery must match explicit LinkDown"
                );
            }
        }
    }

    #[test]
    fn flap_window_heals_without_topology_change() {
        let g = fig1();
        use bgpvcg_netgraph::generators::structured::Fig1;
        // Flap long enough for hold timers to fire, then heal.
        let mut chaos = ChaosEngine::new(
            &g,
            PlainBgpNode::from_graph(&g),
            FaultPlan::quiet().with_flap(4, 30, Fig1::A, Fig1::Z),
        );
        let report = chaos.run_to_stable(400);
        assert!(report.converged, "{report}");
        assert!(report.holds_fired >= 2);
        assert_route_parity(&g, &chaos);
    }

    #[test]
    fn invalid_schedule_entries_are_skipped_not_fatal() {
        let g = fig1();
        let mut plan = FaultPlan::quiet();
        plan.crashes.push((2, AsId::new(0)));
        plan.crashes.push((3, AsId::new(0))); // already down
        plan.restarts.push((5, AsId::new(0)));
        plan.restarts.push((6, AsId::new(0))); // already up
        plan.cuts.push((2, AsId::new(0), AsId::new(99))); // no such link
        let mut chaos = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), plan);
        let report = chaos.run_to_stable(400);
        assert!(report.converged, "{report}");
        assert_eq!(report.rejected_events, 3);
        assert_route_parity(&g, &chaos);
    }

    #[test]
    fn fault_events_are_traced() {
        let g = hypercube(3, Cost::new(1));
        let (telemetry, sink) = Telemetry::ring(1 << 16);
        let mut chaos = ChaosEngine::new(
            &g,
            PlainBgpNode::from_graph(&g),
            FaultPlan {
                drop_rate: 0.4,
                duplicate_rate: 0.3,
                delay_rate: 0.3,
                ..FaultPlan::lossy(11, 30)
            }
            .with_crash(6, AsId::new(1), 14),
        );
        chaos.attach_telemetry(&telemetry);
        let report = chaos.run_to_stable(600);
        assert!(report.converged, "{report}");
        let events = sink.events();
        let has = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().any(pred);
        assert!(has(&|e| matches!(
            e,
            TraceEvent::FaultInjected {
                fault: fault::DROP,
                ..
            }
        )));
        assert!(has(
            &|e| matches!(e, TraceEvent::FaultInjected { fault: f, .. } if *f == fault::CRASH)
        ));
        assert!(has(&|e| matches!(e, TraceEvent::Retransmit { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::SessionReset { .. })));
        assert!(has(&|e| matches!(
            e,
            TraceEvent::NodeRestart { node: 1, .. }
        )));
        assert!(matches!(events.last(), Some(TraceEvent::Quiescent { .. })));
        assert_eq!(
            report.retransmits,
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Retransmit { .. }))
                .count() as u64
        );
    }

    #[test]
    fn exhausted_budget_dumps_a_schema_valid_flight_artifact() {
        let g = fig1();
        let dir = std::env::temp_dir().join(format!(
            "bgpvcg-chaos-flight-{}-{:p}",
            std::process::id(),
            &g
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("chaos-flight.json");

        let mut chaos = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), FaultPlan::quiet());
        chaos.attach_flight_recorder(&path, 64);
        // Three stages is not even enough to finish session establishment,
        // so the run must exhaust its budget and dump.
        let report = chaos.run_to_stable(3);
        assert!(!report.converged);
        let text = std::fs::read_to_string(&path).expect("flight artifact written");
        flight::validate_dump(&text).expect("flight artifact validates");
        assert!(text.contains(flight::REASON_NOT_STABILIZED));
        assert!(text.contains("\"sessions_established\""));
        assert!(text.contains("\"frames_in_flight\""));

        // A converged run must not leave a dump behind.
        std::fs::remove_file(&path).expect("remove stalled dump");
        let mut ok = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), FaultPlan::quiet());
        ok.attach_flight_recorder(&path, 64);
        let report = ok.run_to_stable(200);
        assert!(report.converged, "{report}");
        assert!(!path.exists(), "converged run must not dump");
        std::fs::remove_dir_all(&dir).ok();
    }
}
