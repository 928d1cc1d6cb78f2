//! Seeded fault injection and lossy-channel recovery.
//!
//! The paper's convergence results (Sect. 5–6) assume reliable message
//! exchange between neighbors. This module drops that assumption and shows
//! the mechanism *self-stabilizes*: a [`ChaosEngine`] — the shared stage
//! [`Engine`] over the [`Sessions`] transport — perturbs the inter-node
//! frame streams with the [`FaultPlan`]'s *silent* faults — dropping,
//! duplicating, delaying (and thereby reordering) frames, flapping and
//! cutting links, crashing and restarting nodes, none of which any node is
//! told of — all replayable from a single `u64` seed. Announced changes are
//! [`TopologyEvent`]s, applied through the engine's one event path exactly
//! as under lock-step: a downed link or node loses its channels and
//! sessions, a new link opens in the next stage's establishment pass.
//! Throughout, a sequenced session layer ([`Frame`]/[`FrameKind`], wire
//! format in [`crate::wire`]) recovers: per-direction epochs and sequence
//! numbers reject stale or duplicated state, cumulative acks drive
//! retransmission, and a hold timer turns silence into an implicit link
//! failure exactly like an explicit [`LocalEvent::LinkDown`]. Once the
//! fault schedule's horizon passes, every run reconverges to the same
//! `(routes, prices)` fixpoint as a fault-free run — the property
//! `tests/chaos_parity.rs` checks over topology families × fault seeds.
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

use crate::dynamics::{LocalEvent, TopologyEvent};
use crate::engine::kernel::{enqueue, Engine, Parcel, Report, RunTally, Sent, Transport};
use crate::message::{Frame, FrameKind};
use crate::node::ProtocolNode;
use crate::wire;
use bgpvcg_netgraph::{AsGraph, AsId};
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
            ..FaultPlan::quiet()
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

impl Report for ChaosReport {
    fn quiescence(&self) -> (u64, u64) {
        (self.stages, self.messages)
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

/// The session layer as a transport: sequenced frames over seeded-faulty
/// channels, with everything that needs — per-direction session state,
/// frames in flight, the [`FaultPlan`] and its rng, the epoch allocator —
/// and the counters of the [`ChaosReport`]. Frames are accounted where
/// they arrive, so nothing is sized at send time.
#[derive(Debug)]
pub struct Sessions {
    /// Undirected links administratively dead (silent cuts), normalized
    /// by [`undirected`].
    cut: Vec<(AsId, AsId)>,
    /// Per-node, per-neighbor session state.
    sessions: Vec<BTreeMap<AsId, Session>>,
    /// Directed channels keyed `(sender, receiver)`: the frames in flight,
    /// each with the stage it becomes deliverable.
    channels: BTreeMap<(AsId, AsId), Vec<(u64, Frame)>>,
    plan: FaultPlan,
    rng: StdRng,
    /// Harness-global epoch allocator (monotone across crashes).
    epoch_counter: u64,
    /// The fault and recovery counters; stages and traffic are filled in
    /// when a run closes.
    report: ChaosReport,
    /// Frames accounted since the engine last settled.
    sent: Sent,
    /// `true` while the current stage has observed recovery-layer or
    /// protocol activity (used by the stabilization detector).
    stage_active: bool,
    /// Idle stages in a row past the plan's
    /// [`activity_end`](FaultPlan::activity_end); an announced event resets
    /// it.
    idle_streak: u64,
    /// Snapshots the stage's passes walk — the channel keys, one
    /// channel's due frames, one node's peers — reused so that a stable
    /// stage allocates nothing.
    keys: Vec<(AsId, AsId)>,
    due: Vec<Frame>,
    peers: Vec<AsId>,
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
                self.report.frames_dropped += channel.len() as u64;
                channel.clear();
            }
        }
    }

    /// An announced link loss: the channels are flushed and both ends
    /// forget the session, so a later `LinkUp` starts from scratch.
    fn disconnect(&mut self, a: AsId, b: AsId) {
        self.flush(a, b);
        self.sessions[a.index()].remove(&b);
        self.sessions[b.index()].remove(&a);
    }

    /// `true` when nothing recovery-relevant is pending: no sequenced
    /// frames in flight, no retransmit backlog, and the stage produced no
    /// protocol or session activity.
    fn is_idle(&self) -> bool {
        let mut in_flight = self.channels.values().flatten();
        let mut sessions = self.sessions.iter().flat_map(|peers| peers.values());
        !self.stage_active
            && !in_flight.any(|(_, frame)| frame.is_sequenced())
            && !sessions.any(|s| s.send.established && !s.send.unacked.is_empty())
    }

    /// Traces a fault injected this stage at `node` (toward `peer`, or
    /// [`fault::NODE_PEER`]).
    fn trace_fault<N>(engine: &Engine<N, Self>, node: AsId, peer: u32, fault: u32) {
        engine.instruments.record(&TraceEvent::FaultInjected {
            stage: engine.stage,
            node: node.raw(),
            peer,
            fault,
        });
    }

    /// Counts and traces one reset of `me`'s receive state from `peer`.
    fn session_reset<N>(engine: &mut Engine<N, Self>, me: AsId, peer: AsId) {
        engine.link.report.session_resets += 1;
        engine.instruments.record(&TraceEvent::SessionReset {
            stage: engine.stage,
            node: me.raw(),
            peer: peer.raw(),
        });
    }

    /// `true` if the undirected link `a`–`b` exists, both ends are up, and
    /// it has not been cut.
    fn live_link<N>(engine: &Engine<N, Self>, a: AsId, b: AsId) -> bool {
        !engine.down[a.index()]
            && !engine.down[b.index()]
            && !engine.link.cut.contains(&undirected(a, b))
            && engine.adjacency[a.index()].contains(&b)
    }

    /// Sends `kind` from `from` to `to` through the fault layer; sequenced
    /// kinds consume a seq and enter the retransmit buffer.
    fn send_frame<N>(engine: &mut Engine<N, Self>, from: AsId, to: AsId, kind: FrameKind) {
        let stage = engine.stage;
        let session = engine.link.session(from, to);
        let sequenced = !matches!(kind, FrameKind::Keepalive);
        let seq = session.send.next_seq;
        if sequenced {
            session.send.next_seq += 1;
            session.send.unacked.push((seq, kind.clone(), stage));
        }
        session.send.last_sent = stage;
        let frame = session.frame(seq, kind);
        Self::transmit(engine, from, to, frame);
    }

    /// Pushes a fully built frame into the channel, applying the plan's
    /// stochastic faults (and flap/cut/crash losses).
    fn transmit<N>(engine: &mut Engine<N, Self>, from: AsId, to: AsId, frame: Frame) {
        if !Self::live_link(engine, from, to) {
            // Crashed endpoint or administratively dead link: the frame
            // vanishes without being a counted stochastic fault.
            return;
        }
        let stage = engine.stage;
        if engine.link.plan.is_flapped(stage, from, to) {
            engine.link.report.frames_dropped += 1;
            return;
        }
        let mut deliver_at = stage + 1;
        if stage < engine.link.plan.horizon {
            if engine.link.rng.gen_bool(engine.link.plan.drop_rate) {
                engine.link.report.frames_dropped += 1;
                Self::trace_fault(engine, from, to.raw(), fault::DROP);
                return;
            }
            if engine.link.rng.gen_bool(engine.link.plan.delay_rate) {
                let max_delay = engine.link.plan.max_delay.max(1);
                deliver_at += engine.link.rng.gen_range(1..=max_delay);
                engine.link.report.frames_delayed += 1;
                Self::trace_fault(engine, from, to.raw(), fault::DELAY);
            }
            if engine.link.rng.gen_bool(engine.link.plan.duplicate_rate) {
                engine.link.report.frames_duplicated += 1;
                Self::trace_fault(engine, from, to.raw(), fault::DUPLICATE);
                if let Some(channel) = engine.link.channels.get_mut(&(from, to)) {
                    channel.push((deliver_at + 1, frame.clone()));
                }
            }
        }
        if let Some(channel) = engine.link.channels.get_mut(&(from, to)) {
            channel.push((deliver_at, frame));
        }
    }

    /// (Re)establishes the send stream `from → to`: fresh epoch, Open,
    /// full table. The sender also (re)attaches the neighbor locally —
    /// session establishment is what makes a link usable in this model.
    fn open_stream<N: ProtocolNode>(engine: &mut Engine<N, Self>, from: AsId, to: AsId) {
        engine.link.epoch_counter += 1;
        let epoch = engine.link.epoch_counter;
        let stage = engine.stage;
        let session = engine.link.session(from, to);
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
        engine.local_event(from, LocalEvent::LinkUp(to), stage);
        Self::send_frame(engine, from, to, FrameKind::Open);
        engine.ship_table(from, to, stage);
        engine.link.stage_active = true;
    }

    /// Tears down both directions of the session with `peer` after a hold
    /// expiry, applying the implicit link-down to the node.
    fn hold_expire<N: ProtocolNode>(engine: &mut Engine<N, Self>, me: AsId, peer: AsId) {
        let stage = engine.stage;
        engine.link.report.holds_fired += 1;
        engine.link.stage_active = true;
        Self::session_reset(engine, me, peer);
        if let Some(session) = engine.link.sessions[me.index()].get_mut(&peer) {
            session.send.established = false;
            session.send.peer_acked = false;
            session.send.unacked.clear();
            session.recv.epoch = 0;
            session.recv.next_seq = 0;
            session.recv.buffer.clear();
            session.recv.last_heard = stage;
        }
        engine.local_event(me, LocalEvent::LinkDown(peer), stage);
    }

    /// Processes one frame arriving at `me` from `peer`; in-order Data
    /// payloads are queued into `me`'s inbox for this stage's handle pass.
    fn receive<N: ProtocolNode>(engine: &mut Engine<N, Self>, me: AsId, peer: AsId, frame: Frame) {
        let sent = &mut engine.link.sent;
        sent.messages += 1;
        sent.bytes_v2 += wire::frame_size_v2_with(&mut engine.scratch, &frame);
        if let FrameKind::Data(update) = &frame.kind {
            sent.entries += update.entry_count();
        }
        let stage = engine.stage;
        let mut reestablish = false;
        let mut reset = false;
        let mut opened = false;
        let mut queued = false;
        let session = engine.link.session(me, peer);
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
                            queued = true;
                            enqueue(&mut engine.inboxes, &mut engine.dirty, me, update);
                        }
                        FrameKind::Keepalive => {}
                    }
                }
            }
        }
        // Input for this stage's handle pass makes the stage active.
        engine.link.stage_active |= queued;
        if reset {
            engine.link.stage_active = true;
            Self::session_reset(engine, me, peer);
        }
        if opened {
            // An accepted Open precedes all Data of its epoch, so the
            // neighbor is attached before any of its routes are ingested.
            engine.local_event(me, LocalEvent::LinkUp(peer), stage);
            engine.link.stage_active = true;
            // The peer restarting its stream means it (re)initialized its
            // view of us — typically after dropping everything we ever
            // sent (restart, hold expiry, detected regression). Resend our
            // full table on our own stream so its Rib-In refills; an Open
            // triggers only Data, never a counter-Open, so two nodes can
            // never ping-pong establishments.
            if engine.link.is_open(me, peer) {
                engine.ship_table(me, peer, stage);
            }
        }
        if reestablish && Self::live_link(engine, me, peer) {
            // The peer's state loss also invalidates everything we learned
            // from it over the dead incarnation: bounce the link locally so
            // the stale Rib-In is dropped before the sessions restart.
            Self::session_reset(engine, me, peer);
            engine.local_event(me, LocalEvent::LinkDown(peer), stage);
            Self::open_stream(engine, me, peer);
        }
    }

    /// Applies the structural faults scheduled for the current stage.
    fn apply_scheduled_faults<N: ProtocolNode>(engine: &mut Engine<N, Self>) {
        let stage = engine.stage;
        let due = |schedule: &[(u64, AsId)]| -> Vec<AsId> {
            let due = schedule.iter().filter(|&&(s, _)| s == stage);
            due.map(|&(_, k)| k).collect()
        };
        for k in due(&engine.link.plan.crashes) {
            if k.index() >= engine.nodes.len() || engine.down[k.index()] {
                engine.link.report.rejected_events += 1;
                continue;
            }
            Self::crash(engine, k);
        }
        for k in due(&engine.link.plan.restarts) {
            if k.index() >= engine.nodes.len() || !engine.down[k.index()] {
                engine.link.report.rejected_events += 1;
                continue;
            }
            Self::restart(engine, k);
        }
        let cuts = engine.link.plan.cuts.iter().filter(|&&(s, ..)| s == stage);
        let cuts: Vec<(AsId, AsId)> = cuts.map(|&(_, a, b)| (a, b)).collect();
        for (a, b) in cuts {
            let key = undirected(a, b);
            if a.index() >= engine.nodes.len()
                || b.index() >= engine.nodes.len()
                || !engine.adjacency[a.index()].contains(&b)
                || engine.link.cut.contains(&key)
            {
                engine.link.report.rejected_events += 1;
                continue;
            }
            engine.link.cut.push(key);
            engine.link.stage_active = true;
            Self::trace_fault(engine, a, b.raw(), fault::LINK_FLAP);
            engine.link.flush(a, b);
        }
        // Flap windows opening this stage: trace once (the window eats
        // frames at send and at delivery time).
        for &(from, until, a, b) in &engine.link.plan.flaps {
            if from == stage {
                Self::trace_fault(engine, a, b.raw(), fault::LINK_FLAP);
            }
            engine.link.stage_active |= stage >= from && stage < until;
        }
    }

    /// Crashes node `k`: state lost, channels emptied, sessions wiped.
    /// Neighbors are *not* told — their hold timers will notice. An
    /// attached auditor is told as of a `NodeDown`, so its shadow of `k`
    /// is wiped too.
    fn crash<N: ProtocolNode>(engine: &mut Engine<N, Self>, k: AsId) {
        engine.link.report.crashes += 1;
        engine.link.stage_active = true;
        Self::trace_fault(engine, k, fault::NODE_PEER, fault::CRASH);
        if let Some(auditor) = engine.auditor.as_mut() {
            auditor.0.on_topology(&TopologyEvent::NodeDown(k));
        }
        for &a in &engine.adjacency[k.index()] {
            engine.link.flush(k, a);
        }
        engine.link.sessions[k.index()].clear();
        let links = engine.adjacency[k.index()].clone();
        engine.crash(k, &links, engine.stage);
    }

    /// Restarts node `k` from scratch; its sessions re-establish in this
    /// stage's establishment pass.
    fn restart<N: ProtocolNode>(engine: &mut Engine<N, Self>, k: AsId) {
        engine.down[k.index()] = false;
        engine.link.report.restarts += 1;
        engine.link.stage_active = true;
        engine.instruments.record(&TraceEvent::NodeRestart {
            stage: engine.stage,
            node: k.raw(),
        });
        // The crash already detached every link, so reset() restores a
        // link-less fresh node; the establishment pass this same stage
        // re-attaches neighbors and ships the full table.
        engine.nodes[k.index()].reset();
    }

    /// The timer pass for `me`'s session with `peer`: hold expiry, else
    /// retransmits of what went unacknowledged too long, else a keepalive.
    fn run_timers<N: ProtocolNode>(engine: &mut Engine<N, Self>, me: AsId, peer: AsId) {
        let stage = engine.stage;
        let Some(session) = engine.link.sessions[me.index()].get_mut(&peer) else {
            return;
        };
        let active = session.send.established || session.recv.epoch > 0;
        if active && stage.saturating_sub(session.recv.last_heard) >= HOLD_STAGES {
            Self::hold_expire(engine, me, peer);
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
                Self::send_frame(engine, me, peer, FrameKind::Keepalive);
            }
            return;
        }
        session.send.last_sent = stage;
        for (seq, kind) in resend {
            engine.link.report.retransmits += 1;
            engine.link.stage_active = true;
            engine.instruments.record(&TraceEvent::Retransmit {
                stage,
                from: me.raw(),
                to: peer.raw(),
                seq,
            });
            let frame = engine.link.session(me, peer).frame(seq, kind);
            Self::transmit(engine, me, peer, frame);
        }
    }
}

impl Transport for Sessions {
    type Report = ChaosReport;

    /// A link is usable once its send stream is established.
    fn is_open(&self, from: AsId, to: AsId) -> bool {
        let session = self.sessions[from.index()].get(&to);
        session.is_some_and(|s| s.send.established)
    }

    /// Frames the payload as sequenced Data. Frames share the update by
    /// `Arc` — the update id never crosses the wire codec.
    fn send<N: ProtocolNode>(engine: &mut Engine<N, Self>, from: AsId, to: AsId, parcel: &Parcel) {
        let update = Arc::clone(&parcel.update);
        Self::send_frame(engine, from, to, FrameKind::Data(update));
    }

    fn take_sent(&mut self) -> Sent {
        std::mem::take(&mut self.sent)
    }

    /// Ahead of the handle pass, in ascending node/peer order so runs
    /// replay exactly: the plan's structural faults, establishment (every
    /// live directed link without a send stream opens one), and delivery
    /// of the frames due.
    fn before_handle<N: ProtocolNode>(engine: &mut Engine<N, Self>, stage: u64) {
        engine.link.stage_active = false;
        Self::apply_scheduled_faults(engine);
        for from in (0..engine.nodes.len() as u32).map(AsId::new) {
            for rank in 0..engine.adjacency[from.index()].len() {
                // lint:allow(bounds: `rank` runs below the length of the list it indexes)
                let to = engine.adjacency[from.index()][rank];
                if Self::live_link(engine, from, to) && !engine.link.is_open(from, to) {
                    Self::open_stream(engine, from, to);
                }
            }
        }
        // Pop due frames per directed channel in key order. A frame whose
        // receiver is down, or whose link is flapped or cut by now, is lost.
        // A channel added meanwhile waits for the next stage.
        let mut keys = std::mem::take(&mut engine.link.keys);
        let mut due = std::mem::take(&mut engine.link.due);
        keys.extend(engine.link.channels.keys());
        for &(from, to) in &keys {
            let Some(channel) = engine.link.channels.get_mut(&(from, to)) else {
                continue;
            };
            let frames = channel.extract_if(.., |(at, _)| *at <= stage);
            due.extend(frames.map(|(_, frame)| frame));
            let lost = engine.down[to.index()]
                || engine.link.plan.is_flapped(stage, from, to)
                || engine.link.cut.contains(&undirected(from, to));
            for frame in due.drain(..) {
                if lost {
                    engine.link.report.frames_dropped += 1;
                } else {
                    Self::receive(engine, to, from, frame);
                }
            }
        }
        keys.clear();
        engine.link.keys = keys;
        engine.link.due = due;
    }

    /// After the handle pass: the timer pass (retransmits, hold expiry,
    /// keepalives), then the stage's verdict for the stabilization
    /// detector.
    fn after_handle<N: ProtocolNode>(engine: &mut Engine<N, Self>, stage: u64) {
        engine.instruments.enter(span::SESSION_RETRANSMIT);
        // A peer whose session opens meanwhile waits for the next stage.
        let mut peers = std::mem::take(&mut engine.link.peers);
        for me in (0..engine.nodes.len() as u32).map(AsId::new) {
            if engine.down[me.index()] {
                continue;
            }
            peers.extend(engine.link.sessions[me.index()].keys());
            for peer in peers.drain(..) {
                Self::run_timers(engine, me, peer);
            }
        }
        engine.link.peers = peers;
        engine.instruments.exit();
        let link = &mut engine.link;
        let idle = stage > link.plan.activity_end() && link.is_idle();
        link.idle_streak = if idle { link.idle_streak + 1 } else { 0 };
    }

    /// An announced loss flushes the channels and forgets the sessions it
    /// ends; an announced link gets channels and sheds a silent cut.
    fn on_topology<N: ProtocolNode>(engine: &mut Engine<N, Self>, event: TopologyEvent) {
        let link = &mut engine.link;
        link.idle_streak = 0;
        match event {
            TopologyEvent::LinkDown(a, b) => link.disconnect(a, b),
            TopologyEvent::LinkUp(a, b) => {
                link.cut.retain(|&key| key != undirected(a, b));
                for dir in [(a, b), (b, a)] {
                    link.channels.entry(dir).or_default();
                }
            }
            TopologyEvent::NodeDown(k) => {
                for &a in &engine.adjacency[k.index()] {
                    link.disconnect(k, a);
                }
            }
            TopologyEvent::CostChange(..) | TopologyEvent::NodeUp(_) => {}
        }
    }

    /// Nothing now: the next stage's establishment pass opens the
    /// session, Open and full table first.
    fn establish<N: ProtocolNode>(_engine: &mut Engine<N, Self>, _from: AsId, _to: AsId) {}

    /// Stable after two idle stages past the plan's activity end.
    fn quiescent<N: ProtocolNode>(engine: &Engine<N, Self>) -> bool {
        engine.link.idle_streak >= 2
    }

    /// The cumulative report: the stage clock, the recovery stages past
    /// the plan's activity end, and the run's traffic added on.
    fn report<N: ProtocolNode>(engine: &mut Engine<N, Self>, run: &RunTally) -> ChaosReport {
        let stage = engine.stage;
        let link = &mut engine.link;
        link.report.stages = stage;
        link.report.recovery_stages = stage.saturating_sub(link.plan.activity_end());
        link.report.messages += run.sent.messages as u64;
        link.report.bytes_v2 += run.sent.bytes_v2 as u64;
        link.report.converged = run.converged;
        link.report
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
                channels.insert((i, j), Vec::new());
            }
        }
        let link = Sessions {
            cut: Vec::new(),
            sessions: vec![BTreeMap::new(); nodes.len()],
            channels,
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
            epoch_counter: 0,
            report: ChaosReport::default(),
            sent: Sent::default(),
            stage_active: false,
            idle_streak: 0,
            keys: Vec::new(),
            due: Vec::new(),
            peers: Vec::new(),
        };
        let mut engine = Engine::over(graph, nodes, link);
        // Nothing to announce up front: a session's full table carries the
        // origin.
        engine.started = true;
        engine
    }

    /// Executes one stage: faults, establishment, delivery, handling,
    /// timers.
    pub fn step(&mut self) {
        self.run_stage();
    }

    /// Runs stages until the network stabilizes (two consecutive idle
    /// stages after the fault schedule's end) or the stage clock reaches
    /// `max_stages`.
    pub fn run_to_stable(&mut self, max_stages: u64) -> ChaosReport {
        self.run(max_stages, |_, _| {})
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
        let old = chaos.link.channels[&(b, a)][0].1.clone();
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
            .push((at, old));
        chaos.step();
        assert_eq!(chaos.run.sent.messages, 1, "one frame since the report");
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
    fn an_exhausted_budget_leaves_its_stages_and_no_quiescent_in_the_trace() {
        let g = fig1();
        let (telemetry, ring) = Telemetry::ring(1 << 12);
        let mut chaos = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), FaultPlan::quiet());
        chaos.attach_telemetry(&telemetry);
        chaos.attach_profiler();
        // Three stages is not even enough to finish session establishment,
        // so the run must exhaust its budget.
        let report = chaos.run_to_stable(3);
        assert!(!report.converged);
        let cut = ring.events();
        let stages: Vec<u64> = cut
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StageStart { stage } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(
            stages,
            [1, 2, 3],
            "one StageStart per stage, up to the budget"
        );
        assert!(
            !cut.iter()
                .any(|e| matches!(e, TraceEvent::Quiescent { .. })),
            "a run cut off by its budget does not close with Quiescent"
        );
        assert!(
            matches!(cut.last(), Some(TraceEvent::SpanSummary { .. })),
            "the profile is summarized whether or not the run stabilized"
        );

        // A converged follow-up closes with Quiescent; only the profile's
        // summaries come after it.
        let report = chaos.run_to_stable(200);
        assert!(report.converged, "{report}");
        let events = ring.events();
        let follow_up = events
            .get(cut.len()..)
            .expect("the ring keeps the whole run");
        let close = follow_up
            .iter()
            .position(|e| matches!(e, TraceEvent::Quiescent { .. }))
            .expect("a converged run closes with Quiescent");
        assert!(follow_up[close + 1..]
            .iter()
            .all(|e| matches!(e, TraceEvent::SpanSummary { .. })));
    }
}
