//! Seeded fault injection and lossy-channel recovery.
//!
//! The paper's convergence results (Sect. 5–6) assume reliable message
//! exchange between neighbors. This module drops that assumption and shows
//! the mechanism *self-stabilizes*: a [`ChaosEngine`] — the shared stage
//! [`Engine`] over the [`Sessions`] transport — perturbs the
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
//!   Opens at startup terminate instead of ping-ponging. Only a frame
//!   newer than every frame already read from the peer is read this way:
//!   a delayed frame that was overtaken carries an older ack by
//!   construction, while a peer that really lost state sends from a fresh
//!   epoch.
//! * **Hold timer.** [`HOLD_STAGES`] of silence on an active session is
//!   an implicit link failure: the node applies
//!   [`LocalEvent::LinkDown`], tears both directions down, and relearns
//!   via re-establishment if the link ever heals. Keepalives
//!   ([`FrameKind::Keepalive`]) keep healthy-but-quiet sessions alive.
//!
//! See `docs/ROBUSTNESS.md` for the full fault model and the
//! self-stabilization argument.

use crate::dynamics::LocalEvent;
use crate::engine::kernel::{enqueue, Engine, Parcel, Transport};
use crate::message::{Frame, FrameKind};
use crate::node::ProtocolNode;
use crate::wire;
use bgpvcg_netgraph::{AsGraph, AsId};
use bgpvcg_telemetry::flight::{self, StateSnapshot};
use bgpvcg_telemetry::profile::span;
use bgpvcg_telemetry::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
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
/// exact stages listed. Identical plans produce bit-identical runs. The
/// three rates must be probabilities in `[0, 1]`; [`ChaosEngine::new`]
/// rejects a plan where one is not.
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

    /// An asynchronous network: nothing is lost or duplicated, but until
    /// stage 64 half of all frames arrive a stage late, so links interleave
    /// in a seeded order while the session layer keeps each one FIFO — the
    /// model of Sect. 5–6, where only per-link order is guaranteed. A seed
    /// replays its interleaving exactly. One stage of delay each way still
    /// gets a frame acked before [`RETRANSMIT_AFTER`], so nothing is ever
    /// retransmitted, no hold timer fires and no session is re-established:
    /// the run reaches a reliable network's fixpoint through nothing but
    /// reordering.
    pub fn asynchronous(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_rate: 0.5,
            max_delay: 1,
            horizon: 64,
            ..FaultPlan::quiet()
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
    /// Encoded bytes of all delivered frames
    /// ([`wire::frame_size_v2_with`]).
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

/// Where `frame` stands in its sender's stream: epoch, then sending order —
/// a keepalive carries the next unassigned seq, so it sorts between the
/// sequenced frames sent before and after it. Acks never decrease along
/// this order unless the sender lost its receive state.
fn stream_order(frame: &Frame) -> (u64, u64) {
    (frame.epoch, 2 * frame.seq + u64::from(frame.is_sequenced()))
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
    /// [`stream_order`] of the newest frame read so far, of any epoch.
    /// Only a newer frame's ack can reveal that the peer lost state: a
    /// delayed older one carries an older ack by construction.
    newest: (u64, u64),
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

impl Session {
    /// Frames `kind` as number `seq` of the send stream, piggybacking the
    /// cumulative receive state of the reverse stream.
    fn frame(&self, seq: u64, kind: FrameKind) -> Frame {
        Frame {
            epoch: self.send.epoch,
            seq,
            ack_epoch: self.recv.epoch,
            ack: self.recv.next_seq,
            kind,
        }
    }
}

/// One direction of a link: frames in flight, each with the stage it
/// becomes deliverable.
#[derive(Debug, Clone, Default)]
struct Channel {
    queue: Vec<(u64, Frame)>,
}

/// The session layer as a transport: sequenced frames over seeded-faulty
/// channels, with everything that needs — per-direction session state,
/// frames in flight, the [`FaultPlan`] and its rng, the epoch allocator —
/// and the stage clock and [`ChaosReport`] of the harness that drives it.
/// Frames are accounted where they arrive, so nothing is sized at send
/// time.
#[derive(Debug)]
pub struct Sessions {
    /// Undirected links administratively dead (silent cuts), normalized
    /// by [`undirected`].
    cut: Vec<(AsId, AsId)>,
    /// Per-node, per-neighbor session state.
    sessions: Vec<BTreeMap<AsId, Session>>,
    /// Directed channels keyed `(sender, receiver)`.
    channels: BTreeMap<(AsId, AsId), Channel>,
    plan: FaultPlan,
    rng: StdRng,
    /// Harness-global epoch allocator (monotone across crashes).
    epoch_counter: u64,
    stage: u64,
    report: ChaosReport,
    /// Scratch: `true` while the current stage has observed recovery-layer
    /// or protocol activity (used by the stabilization detector).
    stage_active: bool,
}

/// The key of the undirected link `a`–`b`.
fn undirected(a: AsId, b: AsId) -> (AsId, AsId) {
    (a.min(b), a.max(b))
}

impl Sessions {
    /// `me`'s session with `peer`, created idle if there is none yet.
    fn session(&mut self, me: AsId, peer: AsId) -> &mut Session {
        self.sessions[me.index()].entry(peer).or_default()
    }

    /// Empties both directions of the link `a`–`b`; what was in flight
    /// counts as dropped.
    fn flush(&mut self, a: AsId, b: AsId) {
        for dir in [(a, b), (b, a)] {
            if let Some(channel) = self.channels.get_mut(&dir) {
                self.report.frames_dropped += channel.queue.len() as u64;
                channel.queue.clear();
            }
        }
    }
}

impl Transport for Sessions {
    /// A link is usable once its send stream is established.
    fn is_open(&self, from: AsId, to: AsId) -> bool {
        let session = self.sessions[from.index()].get(&to);
        session.is_some_and(|s| s.send.established)
    }

    /// Frames the payload as sequenced Data. Frames share the update by
    /// `Arc` — provenance never crosses the wire codec.
    fn send<N: ProtocolNode>(engine: &mut Engine<N, Self>, from: AsId, to: AsId, parcel: &Parcel) {
        engine.send_frame(from, to, FrameKind::Data(Arc::clone(&parcel.update)));
    }
}

/// The chaos harness: drives [`ProtocolNode`]s over seeded-faulty channels
/// through the sequenced session layer, in deterministic stages.
///
/// Unlike [`SyncEngine`](crate::engine::SyncEngine) this engine's transport
/// is lossy: nodes exchange [`Frame`]s, not bare updates, and the harness
/// injects the [`FaultPlan`]'s faults at the channel boundary. Everything
/// is single-threaded and iteration orders are fixed, so a
/// `(plan, topology)` pair replays bit-identically.
pub type ChaosEngine<N> = Engine<N, Sessions>;

impl<N: ProtocolNode> Engine<N, Sessions> {
    /// Creates a harness over the graph's topology with one prepared node
    /// per AS and the given fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph's node count or ids
    /// are out of order, or if the plan's `drop_rate`, `duplicate_rate` or
    /// `delay_rate` is not a probability in `[0, 1]` (NaN included).
    pub fn new(graph: &AsGraph, nodes: Vec<N>, plan: FaultPlan) -> Self {
        for (name, rate) in [
            ("drop_rate", plan.drop_rate),
            ("duplicate_rate", plan.duplicate_rate),
            ("delay_rate", plan.delay_rate),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} must be a probability in [0, 1], got {rate}"
            );
        }
        let mut channels = BTreeMap::new();
        for i in graph.nodes() {
            for &j in graph.neighbors(i) {
                channels.insert((i, j), Channel::default());
            }
        }
        let link = Sessions {
            cut: Vec::new(),
            sessions: vec![BTreeMap::new(); nodes.len()],
            channels,
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
            epoch_counter: 0,
            stage: 0,
            report: ChaosReport {
                converged: true,
                ..ChaosReport::default()
            },
            stage_active: false,
        };
        Engine::over(graph, nodes, link)
    }

    /// Writes the divergence dump after a budget exhaustion.
    fn dump_flight(&self) {
        let in_flight = self.link.channels.values().map(|c| c.queue.len() as u64);
        let report = &self.link.report;
        let summary = [
            ("stages", report.stages),
            ("messages", report.messages),
            ("frames_dropped", report.frames_dropped),
            ("retransmits", report.retransmits),
            ("session_resets", report.session_resets),
            ("holds_fired", report.holds_fired),
            ("frames_in_flight", in_flight.sum()),
            ("updates_stamped", self.update_seq),
            ("nodes", self.nodes.len() as u64),
        ];
        let snapshots = || {
            let per_node = self.link.sessions.iter();
            let per_node = per_node.zip(&self.down).zip(&self.inboxes);
            per_node
                .take(64)
                .enumerate()
                .map(|(idx, ((sessions, &down), pending))| StateSnapshot {
                    node: idx as u32,
                    fields: vec![
                        ("up", u64::from(!down)),
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
        let stage = self.link.stage;
        self.instruments
            .dump_abort(flight::REASON_NOT_STABILIZED, stage, &summary, snapshots);
    }

    /// Stages executed so far.
    pub fn stage(&self) -> u64 {
        self.link.stage
    }

    /// Traces a fault injected this stage at `node` (toward `peer`, or
    /// [`fault::NODE_PEER`]).
    fn trace_fault(&self, node: AsId, peer: u32, fault: u32) {
        self.instruments.record(&TraceEvent::FaultInjected {
            stage: self.link.stage,
            node: node.raw(),
            peer,
            fault,
        });
    }

    /// Counts and traces one reset of `me`'s receive state from `peer`.
    fn session_reset(&mut self, me: AsId, peer: AsId) {
        self.link.report.session_resets += 1;
        self.instruments.record(&TraceEvent::SessionReset {
            stage: self.link.stage,
            node: me.raw(),
            peer: peer.raw(),
        });
    }

    /// `true` if the undirected link `a`–`b` exists, both ends are up, and
    /// it has not been cut.
    fn live_link(&self, a: AsId, b: AsId) -> bool {
        !self.down[a.index()]
            && !self.down[b.index()]
            && !self.link.cut.contains(&undirected(a, b))
            && self.adjacency[a.index()].contains(&b)
    }

    /// Sends `kind` from `from` to `to` through the fault layer; sequenced
    /// kinds consume a seq and enter the retransmit buffer.
    fn send_frame(&mut self, from: AsId, to: AsId, kind: FrameKind) {
        let stage = self.link.stage;
        let session = self.link.session(from, to);
        let sequenced = !matches!(kind, FrameKind::Keepalive);
        let seq = session.send.next_seq;
        if sequenced {
            session.send.next_seq += 1;
            session.send.unacked.push((seq, kind.clone(), stage));
        }
        session.send.last_sent = stage;
        let frame = session.frame(seq, kind);
        self.transmit(from, to, frame);
    }

    /// Pushes a fully built frame into the channel, applying the plan's
    /// stochastic faults (and flap/cut/crash losses).
    fn transmit(&mut self, from: AsId, to: AsId, frame: Frame) {
        if !self.live_link(from, to) {
            // Crashed endpoint or administratively dead link: the frame
            // vanishes without being a counted stochastic fault.
            return;
        }
        let stage = self.link.stage;
        if self.link.plan.is_flapped(stage, from, to) {
            self.link.report.frames_dropped += 1;
            return;
        }
        let mut deliver_at = stage + 1;
        if stage < self.link.plan.horizon {
            if self.link.rng.gen_bool(self.link.plan.drop_rate) {
                self.link.report.frames_dropped += 1;
                self.trace_fault(from, to.raw(), fault::DROP);
                return;
            }
            if self.link.rng.gen_bool(self.link.plan.delay_rate) {
                let max_delay = self.link.plan.max_delay.max(1);
                deliver_at += self.link.rng.gen_range(1..=max_delay);
                self.link.report.frames_delayed += 1;
                self.trace_fault(from, to.raw(), fault::DELAY);
            }
            if self.link.rng.gen_bool(self.link.plan.duplicate_rate) {
                self.link.report.frames_duplicated += 1;
                self.trace_fault(from, to.raw(), fault::DUPLICATE);
                if let Some(channel) = self.link.channels.get_mut(&(from, to)) {
                    channel.queue.push((deliver_at + 1, frame.clone()));
                }
            }
        }
        if let Some(channel) = self.link.channels.get_mut(&(from, to)) {
            channel.queue.push((deliver_at, frame));
        }
    }

    /// (Re)establishes the send stream `from → to`: fresh epoch, Open,
    /// full table. The sender also (re)attaches the neighbor locally —
    /// session establishment is what makes a link usable in this model.
    fn establish(&mut self, from: AsId, to: AsId) {
        self.link.epoch_counter += 1;
        let epoch = self.link.epoch_counter;
        let stage = self.link.stage;
        let session = self.link.session(from, to);
        session.send.established = true;
        session.send.epoch = epoch;
        session.send.next_seq = 0;
        session.send.acked_high = 0;
        session.send.peer_acked = false;
        session.send.unacked.clear();
        // Re-arm the hold timer: a fresh session gets a full `HOLD_STAGES`
        // grace period to hear back before silence is read as failure
        // (otherwise a post-expiry re-establishment would trip the
        // still-stale timer immediately).
        session.recv.last_heard = stage;
        let _ = self.nodes[from.index()].apply_event(LocalEvent::LinkUp(to));
        self.send_frame(from, to, FrameKind::Open);
        self.ship_table(from, to, stage);
        self.link.stage_active = true;
    }

    /// Tears down both directions of the session with `peer` after a hold
    /// expiry, applying the implicit link-down to the node.
    fn hold_expire(&mut self, me: AsId, peer: AsId) {
        let stage = self.link.stage;
        self.link.report.holds_fired += 1;
        self.link.stage_active = true;
        self.session_reset(me, peer);
        if let Some(session) = self.link.sessions[me.index()].get_mut(&peer) {
            session.send.established = false;
            session.send.peer_acked = false;
            session.send.unacked.clear();
            session.recv.epoch = 0;
            session.recv.next_seq = 0;
            session.recv.buffer.clear();
            session.recv.last_heard = stage;
        }
        let out = self.nodes[me.index()].apply_event(LocalEvent::LinkDown(peer));
        if let Some(update) = out {
            self.advertise(me, update, stage);
        }
    }

    /// Processes one frame arriving at `me` from `peer`; in-order Data
    /// payloads are queued into `me`'s inbox for this stage's handle pass.
    fn receive(&mut self, me: AsId, peer: AsId, frame: Frame) {
        self.link.report.messages += 1;
        self.link.report.bytes_v2 += wire::frame_size_v2_with(&mut self.scratch, &frame) as u64;
        let stage = self.link.stage;
        let mut reestablish = false;
        let mut reset = false;
        let mut opened = false;
        let session = self.link.session(me, peer);
        session.recv.last_heard = stage;
        let order = stream_order(&frame);
        let newest = order > session.recv.newest;
        session.recv.newest = session.recv.newest.max(order);
        // Ack processing for our own stream toward `peer`. Any frame may
        // advance the ack; only one newer than all before it may read as
        // the peer having lost state, or an overtaken frame would bounce a
        // healthy session.
        if session.send.established {
            if frame.ack_epoch == session.send.epoch {
                if frame.ack > session.send.acked_high {
                    session.send.acked_high = frame.ack;
                    session.send.unacked.retain(|&(seq, ..)| seq >= frame.ack);
                } else if newest && session.send.peer_acked && frame.ack < session.send.acked_high {
                    // Cumulative acks regressed: the peer lost its receive
                    // state but re-adopted this epoch from a retransmitted
                    // frame before we noticed.
                    reestablish = true;
                }
                session.send.peer_acked = true;
            } else if newest && session.send.peer_acked {
                // The peer acked this epoch once and no longer does: it
                // lost its receive state (crash/restart). Start over with
                // a fresh epoch and a full table.
                reestablish = true;
            }
        }
        // Sequencing for the peer's stream toward us; a frame of an older
        // epoch comes from a torn-down incarnation and is dropped.
        if frame.is_sequenced() && frame.epoch >= session.recv.epoch {
            if frame.epoch > session.recv.epoch {
                session.recv.epoch = frame.epoch;
                session.recv.next_seq = 0;
                session.recv.buffer.clear();
                reset = true;
            }
            session.recv.last_seq_heard = stage;
            if frame.seq >= session.recv.next_seq {
                session.recv.buffer.insert(frame.seq, frame.kind);
                while let Some(kind) = session.recv.buffer.remove(&session.recv.next_seq) {
                    session.recv.next_seq += 1;
                    match kind {
                        FrameKind::Open => opened = true,
                        FrameKind::Data(update) => {
                            enqueue(&mut self.inboxes, &mut self.dirty, me, update);
                        }
                        FrameKind::Keepalive => {}
                    }
                }
            }
        }
        if reset {
            self.link.stage_active = true;
            self.session_reset(me, peer);
        }
        if opened {
            // An accepted Open precedes all Data of its epoch, so the
            // neighbor is attached before any of its routes are ingested.
            let _ = self.nodes[me.index()].apply_event(LocalEvent::LinkUp(peer));
            self.link.stage_active = true;
            // The peer restarting its stream means it (re)initialized its
            // view of us — typically after dropping everything we ever
            // sent (restart, hold expiry, detected regression). Resend our
            // full table on our own stream so its Rib-In refills; an Open
            // triggers only Data, never a counter-Open, so two nodes can
            // never ping-pong establishments.
            if self.link.is_open(me, peer) {
                self.ship_table(me, peer, stage);
            }
        }
        if reestablish && self.live_link(me, peer) {
            // The peer's state loss also invalidates everything we learned
            // from it over the dead incarnation: bounce the link locally so
            // the stale Rib-In is dropped before the sessions restart.
            self.session_reset(me, peer);
            let out = self.nodes[me.index()].apply_event(LocalEvent::LinkDown(peer));
            if let Some(update) = out {
                self.advertise(me, update, stage);
            }
            self.establish(me, peer);
        }
    }

    /// Applies the structural faults scheduled for the current stage.
    fn apply_scheduled_faults(&mut self) {
        let stage = self.link.stage;
        let due = |schedule: &[(u64, AsId)]| -> Vec<AsId> {
            let due = schedule.iter().filter(|&&(s, _)| s == stage);
            due.map(|&(_, k)| k).collect()
        };
        for k in due(&self.link.plan.crashes) {
            if k.index() >= self.nodes.len() || self.down[k.index()] {
                self.link.report.rejected_events += 1;
                continue;
            }
            self.crash(k);
        }
        for k in due(&self.link.plan.restarts) {
            if k.index() >= self.nodes.len() || !self.down[k.index()] {
                self.link.report.rejected_events += 1;
                continue;
            }
            self.restart(k);
        }
        let cuts = self.link.plan.cuts.iter().filter(|&&(s, ..)| s == stage);
        let cuts: Vec<(AsId, AsId)> = cuts.map(|&(_, a, b)| (a, b)).collect();
        for (a, b) in cuts {
            let key = undirected(a, b);
            if a.index() >= self.nodes.len()
                || b.index() >= self.nodes.len()
                || !self.adjacency[a.index()].contains(&b)
                || self.link.cut.contains(&key)
            {
                self.link.report.rejected_events += 1;
                continue;
            }
            self.link.cut.push(key);
            self.link.stage_active = true;
            self.trace_fault(a, b.raw(), fault::LINK_FLAP);
            self.link.flush(a, b);
        }
        // Flap windows opening this stage: trace once (the window eats
        // frames at send and at delivery time).
        for &(from, until, a, b) in &self.link.plan.flaps {
            if from == stage {
                self.trace_fault(a, b.raw(), fault::LINK_FLAP);
            }
            self.link.stage_active |= stage >= from && stage < until;
        }
    }

    /// Crashes node `k`: state lost, channels emptied, sessions wiped.
    /// Neighbors are *not* told — their hold timers will notice.
    fn crash(&mut self, k: AsId) {
        self.down[k.index()] = true;
        self.link.report.crashes += 1;
        self.link.stage_active = true;
        self.trace_fault(k, fault::NODE_PEER, fault::CRASH);
        self.nodes[k.index()].reset();
        for a in self.adjacency[k.index()].clone() {
            let _ = self.nodes[k.index()].apply_event(LocalEvent::LinkDown(a));
            self.link.flush(k, a);
        }
        self.link.sessions[k.index()].clear();
        self.drop_inbox(k);
    }

    /// Restarts node `k` from scratch; its sessions re-establish in this
    /// stage's establishment pass.
    fn restart(&mut self, k: AsId) {
        self.down[k.index()] = false;
        self.link.report.restarts += 1;
        self.link.stage_active = true;
        self.instruments.record(&TraceEvent::NodeRestart {
            stage: self.link.stage,
            node: k.raw(),
        });
        // The crash already detached every link, so reset() restores a
        // link-less fresh node; the establishment pass this same stage
        // re-attaches neighbors and ships the full table. start() here
        // just primes the change-suppression memory with the origin.
        self.nodes[k.index()].reset();
        let _ = self.nodes[k.index()].start();
    }

    /// Executes one harness stage. Ordering within a stage is fixed —
    /// faults, establishment, delivery, handling, timers — and every loop
    /// iterates in ascending node/peer order, so runs replay exactly.
    pub fn step(&mut self) {
        self.instruments.enter(span::STAGE);
        self.link.stage += 1;
        self.link.stage_active = false;
        let stage = self.link.stage;
        self.instruments.record(&TraceEvent::StageStart { stage });
        self.apply_scheduled_faults();

        // Establishment pass: every live directed link without an
        // established send stream opens one (initial startup, post-restart
        // rejoin, post-hold repair).
        for from in (0..self.nodes.len() as u32).map(AsId::new) {
            for rank in 0..self.adjacency[from.index()].len() {
                // lint:allow(bounds: `rank` runs below the length of the list it indexes)
                let to = self.adjacency[from.index()][rank];
                if self.live_link(from, to) && !self.link.is_open(from, to) {
                    self.establish(from, to);
                }
            }
        }

        // Delivery pass: pop due frames per directed channel in key order.
        // A frame whose receiver is down, or whose link is flapped or cut
        // by now, is lost.
        let keys: Vec<(AsId, AsId)> = self.link.channels.keys().copied().collect();
        for (from, to) in keys {
            let Some(channel) = self.link.channels.get_mut(&(from, to)) else {
                continue;
            };
            let due = channel.queue.extract_if(.., |(at, _)| *at <= stage);
            let due: Vec<Frame> = due.map(|(_, frame)| frame).collect();
            let lost = self.down[to.index()]
                || self.link.plan.is_flapped(stage, from, to)
                || self.link.cut.contains(&undirected(from, to));
            for frame in due {
                if lost {
                    self.link.report.frames_dropped += 1;
                } else {
                    self.receive(to, from, frame);
                }
            }
        }

        // Handle pass: nodes ingest this stage's in-order Data payloads
        // and broadcast what changed.
        let (receiving, _) = self.handle_pass(stage);
        self.link.stage_active |= receiving > 0;

        // Timer pass: retransmits, hold expiry, keepalives.
        self.instruments.enter(span::SESSION_RETRANSMIT);
        for me in (0..self.nodes.len() as u32).map(AsId::new) {
            if self.down[me.index()] {
                continue;
            }
            let peers: Vec<AsId> = self.link.sessions[me.index()].keys().copied().collect();
            for peer in peers {
                self.run_timers(me, peer);
            }
        }
        self.instruments.exit();
        self.instruments.exit();
    }

    /// The timer pass for `me`'s session with `peer`: hold expiry, else
    /// retransmits of what went unacknowledged too long, else a keepalive.
    fn run_timers(&mut self, me: AsId, peer: AsId) {
        let stage = self.link.stage;
        let Some(session) = self.link.sessions[me.index()].get_mut(&peer) else {
            return;
        };
        let active = session.send.established || session.recv.epoch > 0;
        if active && stage.saturating_sub(session.recv.last_heard) >= HOLD_STAGES {
            self.hold_expire(me, peer);
            return;
        }
        if !session.send.established {
            return;
        }
        let mut resend: Vec<(u64, FrameKind)> = Vec::new();
        for (seq, kind, last_sent) in session.send.unacked.iter_mut() {
            if stage.saturating_sub(*last_sent) >= RETRANSMIT_AFTER {
                *last_sent = stage;
                resend.push((*seq, kind.clone()));
            }
        }
        if resend.is_empty() {
            // A keepalive goes out when the stream has been quiet long
            // enough to worry the peer's hold timer, or — the immediate ack
            // — when sequenced frames arrived this stage and nothing (which
            // would have piggybacked the ack) was sent back, so the peer's
            // retransmit timer never fires spuriously on a healthy channel.
            let quiet = stage.saturating_sub(session.send.last_sent) >= KEEPALIVE_AFTER;
            if quiet || (session.recv.last_seq_heard == stage && session.send.last_sent < stage) {
                self.send_frame(me, peer, FrameKind::Keepalive);
            }
            return;
        }
        session.send.last_sent = stage;
        for (seq, kind) in resend {
            self.link.report.retransmits += 1;
            self.link.stage_active = true;
            self.instruments.record(&TraceEvent::Retransmit {
                stage,
                from: me.raw(),
                to: peer.raw(),
                seq,
            });
            let frame = self.link.session(me, peer).frame(seq, kind);
            self.transmit(me, peer, frame);
        }
    }

    /// `true` when nothing recovery-relevant is pending: no sequenced
    /// frames in flight, no retransmit backlog, and the stage produced no
    /// protocol or session activity.
    fn is_idle(&self) -> bool {
        let mut in_flight = self.link.channels.values().flat_map(|c| c.queue.iter());
        let mut sessions = self.link.sessions.iter().flat_map(|peers| peers.values());
        !self.link.stage_active
            && !in_flight.any(|(_, frame)| frame.is_sequenced())
            && !sessions.any(|s| s.send.established && !s.send.unacked.is_empty())
    }

    /// Runs stages until the network stabilizes (two consecutive idle
    /// stages after the fault schedule's end) or `max_stages` runs out.
    pub fn run_to_stable(&mut self, max_stages: u64) -> ChaosReport {
        let activity_end = self.link.plan.activity_end();
        let mut idle_streak = 0u64;
        while self.link.stage < max_stages {
            self.step();
            let run_counters = [
                ("messages", self.link.report.messages),
                ("retransmits", self.link.report.retransmits),
                ("session_resets", self.link.report.session_resets),
                ("updates_stamped", self.update_seq),
                ("nodes", self.nodes.len() as u64),
            ];
            self.instruments.poll_stall(self.link.stage, &run_counters);
            if self.link.stage > activity_end && self.is_idle() {
                idle_streak += 1;
                if idle_streak >= 2 {
                    self.finish(activity_end);
                    return self.link.report;
                }
            } else {
                idle_streak = 0;
            }
        }
        self.link.report.converged = false;
        self.finish(activity_end);
        self.dump_flight();
        self.link.report
    }

    fn finish(&mut self, activity_end: u64) {
        let stage = self.link.stage;
        self.link.report.stages = stage;
        self.link.report.recovery_stages = stage.saturating_sub(activity_end);
        let messages = Some(self.link.report.messages);
        self.instruments.finish(stage, messages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncEngine;
    use crate::node::PlainBgpNode;
    use bgpvcg_netgraph::generators::structured::{fig1, hypercube};
    use bgpvcg_netgraph::Cost;
    use bgpvcg_telemetry::Telemetry;

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
    fn an_overtaken_frame_does_not_reestablish() {
        use bgpvcg_netgraph::generators::structured::Fig1;
        let g = fig1();
        let (a, b) = (Fig1::D, Fig1::Z);
        let mut chaos = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), FaultPlan::quiet());
        // After two stages `b` has read `a`'s Open, so what it sends next
        // acks `a`'s epoch at a value `a` will overtake.
        chaos.step();
        chaos.step();
        let old = chaos.link.channels[&(b, a)].queue[0].1.clone();
        assert_eq!(old.ack_epoch, chaos.link.sessions[a.index()][&b].send.epoch);
        let report = chaos.run_to_stable(200);
        assert!(report.converged, "{report}");
        assert!(chaos.link.sessions[a.index()][&b].send.acked_high > old.ack);

        // Deliver it again, long after the frames that overtook it.
        let at = chaos.stage() + 1;
        chaos
            .link
            .channels
            .get_mut(&(b, a))
            .unwrap()
            .queue
            .push((at, old));
        chaos.step();
        assert_eq!(chaos.link.report.messages, report.messages + 1);
        assert_eq!(
            chaos.link.report.session_resets, report.session_resets,
            "an overtaken frame's older ack is not a peer that lost state"
        );
        assert!(chaos.link.sessions[b.index()][&a].send.established);
        assert_route_parity(&g, &chaos);
    }

    #[test]
    fn asynchronous_plan_delays_without_reestablishing() {
        let g = hypercube(4, Cost::new(2));
        let quiet = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), FaultPlan::quiet())
            .run_to_stable(400)
            .session_resets;
        assert_eq!(quiet, 2 * g.link_count() as u64, "one Open per direction");
        for seed in 0..4 {
            let plan = FaultPlan::asynchronous(seed);
            let mut chaos = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), plan);
            let report = chaos.run_to_stable(400);
            assert!(report.converged, "seed {seed}: {report}");
            assert!(report.frames_delayed > 0, "seed {seed}: {report}");
            assert_eq!(report.frames_dropped + report.frames_duplicated, 0);
            assert_eq!(report.retransmits + report.holds_fired, 0, "seed {seed}");
            assert_eq!(report.session_resets, quiet, "seed {seed}");
            assert_route_parity(&g, &chaos);
        }
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

    fn engine_with_rates(drop_rate: f64, duplicate_rate: f64, delay_rate: f64) {
        let g = fig1();
        let plan = FaultPlan {
            drop_rate,
            duplicate_rate,
            delay_rate,
            ..FaultPlan::quiet()
        };
        let _ = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), plan);
    }

    #[test]
    #[should_panic(expected = "drop_rate must be a probability")]
    fn out_of_range_drop_rate_is_rejected_up_front() {
        engine_with_rates(1.5, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate_rate must be a probability")]
    fn negative_duplicate_rate_is_rejected_up_front() {
        engine_with_rates(0.0, -0.25, 0.0);
    }

    #[test]
    #[should_panic(expected = "delay_rate must be a probability")]
    fn nan_delay_rate_is_rejected_up_front() {
        engine_with_rates(0.0, 0.0, f64::NAN);
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
