//! The event stream of both stage engines, pinned bit for bit.
//!
//! Six scenarios — three through `SyncEngine<PricingBgpNode>` on a
//! Barabási–Albert graph (cold; audited with two wire taps and
//! auto-quarantine; warm through every topology event), three through
//! `ChaosEngine<PricingBgpNode>` on a two-tier hierarchy (loss with a crash
//! and restart; a flap with a silent cut; loss and a flap with a wire tap) —
//! each
//! folded into one digest over the full `TraceEvent` stream, the run
//! report, the accusations and quarantine list, and every node's final
//! `state()` and full table. The expected digests were recorded on the
//! commit *before* the two engine structs became one `Engine<N, T>`, so any
//! drift in stage order, delivery order, rng draw order or frame order
//! fails here. The two lossy chaos digests were re-recorded
//! when a delayed frame overtaken by newer ones stopped reading as a peer
//! that lost state (so stopped bouncing its session). Every outcome digest
//! was re-recorded when the reports lost their v1 `bytes` field: each new
//! value is the hash of the old text with `bytes: N, ` removed.
//!
//! A route's destination entry then stopped carrying the destination's
//! declared cost. The cold, tapped, crash and flap-and-cut outcome digests
//! are the hash of the old outcome text with every destination entry's
//! cost set to 0 (and each path's content hash recomputed to match); their
//! streams did not move. The warm scenario's cost change no longer sends
//! every AS's route to the re-declaring AS again: its stream lost exactly
//! those 48 `RouteSelected` events, one per AS. In the lossy tapped run the
//! equivocating AS 2 makes neighbours route around it, and a detour ending
//! at AS 2 no longer charges AS 2's cost: prices toward AS 2 fell by up
//! to `c_2 = 2`, and 8 of their `PriceRelaxed` events went.
//!
//! A node then stopped keeping a copy of what it last advertised, and a
//! session's lost link stopped re-advertising the untouched origin route
//! beside the routes it did change. The crash and flap-and-cut streams
//! lost exactly those origin `RouteSelected` events (node = dest, 3 and 2
//! of them); their reports kept every stage, message and frame count and
//! lost 217 and 210 `bytes_v2`, so both digests were re-recorded. The
//! lock-step digests and the tapped chaos digest did not move.
//!
//! Updates then stopped carrying a per-advertisement cause list, and the
//! route, price and withdrawal events their `cause`/`effect` ids. Every
//! stream and outcome digest was re-recorded: each new value is the hash
//! of the old text with `, cause: N, effect: M` and `, causes: [..]`
//! removed, computed on the commit before. Event counts and the
//! `AdversaryInjected` digests did not move.
//!
//! `PriceRelaxed` then stopped diffing against a copy of what was last
//! traced and lost its `old` field: it names each price entry as
//! advertised (every finite entry of a full row, every entry of a delta).
//! Every stream digest was re-recorded. Computed on both commits, every
//! outcome digest, and the stream digest with `PriceRelaxed` (and
//! `AdversaryInjected`) removed, are unchanged; only `PriceRelaxed` counts
//! moved, by exactly the event-count change (cold 5 572 → 5 588, tapped
//! 9 484 → 11 364, accused only 6 193 → 6 213, warm 12 207 → 14 384,
//! crash 1 877 → 1 948, flap-and-cut 1 458 → 1 483, chaos tapped 2 090 →
//! 2 171). Every cell on a final route ends at its final advertised price
//! on both commits. The last `new` per cell is unchanged everywhere except
//! 53 (tapped, quarantined) and 57 (warm) cells off every final route: a
//! re-route's full row once traced them down to `∞`, a row's `∞` entries
//! are now silent, so they end at their last finite value.
//!
//! A path's hash then began to run over its entries from last to first,
//! so that a path node hashes its own entry over its rest's hash when it
//! is made. The trace carries no hash, so no stream or injection digest
//! moved; all seven outcome digests did, through the full tables' path
//! `Debug` text. They were re-recorded with proof: computed on both
//! commits with the digits after every `hash: ` masked (a path's `Debug`
//! hash and a delta's `base_path_hash`), every stream and outcome digest
//! of all six tests, the two-worker runs included, is identical.
//!
//! One freedom is granted: in a tapped lock-step run an `AdversaryInjected`
//! event may directly follow the perturbed update's own events instead of
//! being held to the end of the stage. So `AdversaryInjected` events are
//! hashed as their own subsequence and the rest of the stream without them.

use bgp_vcg::bgp::chaos::FaultPlan;
use bgp_vcg::bgp::{Adversary, ProtocolNode, Strategy, TopologyEvent};
use bgp_vcg::netgraph::generators::{barabasi_albert, hierarchy, random_costs, HierarchyConfig};
use bgp_vcg::{protocol, AsGraph, AsId, Cost, PricingBgpNode};
use bgpvcg_telemetry::{RingBufferSink, Telemetry, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;

/// FNV-1a over the `Debug` text of everything fed to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fnv(u64);

impl Fnv {
    const EMPTY: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    fn feed(&mut self, value: &impl Debug) {
        for &byte in format!("{value:?}\n").as_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one scenario is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    /// The trace stream with `AdversaryInjected` removed.
    stream: u64,
    /// How many events that was.
    events: usize,
    /// The `AdversaryInjected` subsequence.
    injections: u64,
    /// How many injections that was.
    injected: usize,
    /// Reports, accusations, quarantine list, final node states and tables.
    outcome: u64,
}

/// Folds the recorded stream and the `outcome` accumulated by the caller.
fn digest(ring: &RingBufferSink, outcome: Fnv) -> Digest {
    let events = ring.events();
    assert_eq!(
        events.len() as u64,
        ring.total_recorded(),
        "ring evicted events"
    );
    let (mut stream, mut injections) = (Fnv::EMPTY, Fnv::EMPTY);
    let mut injected = 0;
    for event in &events {
        if matches!(event, TraceEvent::AdversaryInjected { .. }) {
            injected += 1;
            injections.feed(event);
        } else {
            stream.feed(event);
        }
    }
    Digest {
        stream: stream.0,
        events: events.len() - injected,
        injections: injections.0,
        injected,
        outcome: outcome.0,
    }
}

fn feed_nodes<'a>(outcome: &mut Fnv, nodes: impl Iterator<Item = &'a PricingBgpNode>) {
    for node in nodes {
        outcome.feed(&node.state());
        outcome.feed(&node.full_table());
    }
}

fn ring() -> (Telemetry, std::sync::Arc<RingBufferSink>) {
    Telemetry::ring(usize::MAX / 2)
}

fn ba48() -> AsGraph {
    let mut rng = StdRng::seed_from_u64(48);
    barabasi_albert(random_costs(48, 1, 9, &mut rng), 2, &mut rng)
}

fn hier32() -> AsGraph {
    let config = HierarchyConfig {
        core_size: 4,
        stub_count: 28,
        ..HierarchyConfig::default()
    };
    hierarchy(config, &mut StdRng::seed_from_u64(32))
}

fn pin(stream: u64, events: usize, injections: u64, injected: usize, outcome: u64) -> Digest {
    Digest {
        stream,
        events,
        injections,
        injected,
        outcome,
    }
}

fn check(what: &str, observed: Digest, expected: Digest) {
    assert_eq!(observed, expected, "{what}: got {observed:#x?}");
}

/// (a) Cold convergence, serial and on two workers.
fn sync_cold(workers: usize) -> Digest {
    let g = ba48();
    let (telemetry, ring) = ring();
    let mut engine = protocol::build_sync_engine_parallel(&g, workers).unwrap();
    engine.attach_telemetry(&telemetry);
    let mut outcome = Fnv::EMPTY;
    outcome.feed(&engine.run_to_convergence());
    feed_nodes(&mut outcome, engine.nodes());
    digest(&ring, outcome)
}

/// The first two ASes the converged engine lets crash: quarantining either
/// keeps the rest biconnected.
fn removable_pair(g: &AsGraph) -> (AsId, AsId) {
    let mut removable = g.nodes().filter(|&k| {
        let mut engine = protocol::build_sync_engine(g).unwrap();
        engine.run_to_convergence();
        engine.try_apply_event(TopologyEvent::NodeDown(k)).is_ok()
    });
    let first = removable.next().expect("a removable node");
    (first, removable.next().expect("a second removable node"))
}

/// (b) The cold run audited, with a `PriceInflate` and an `Equivocate` tap
/// — on two removable ASes and quarantined at their first accusation, or
/// (`quarantine` off) on the two hubs, accused and left to lie for the whole
/// run.
fn sync_tapped(workers: usize, quarantine: bool) -> Digest {
    let g = ba48();
    let (inflater, equivocator) = if quarantine {
        removable_pair(&g)
    } else {
        (AsId::new(0), AsId::new(1))
    };
    let (telemetry, ring) = ring();
    let mut engine = protocol::build_audited_sync_engine(&g)
        .unwrap()
        .with_parallelism(workers);
    engine.attach_telemetry(&telemetry);
    engine.set_auto_quarantine(quarantine);
    engine.set_adversary(inflater, Adversary::new(Strategy::PriceInflate, 11));
    engine.set_adversary(equivocator, Adversary::new(Strategy::Equivocate, 5));
    let mut outcome = Fnv::EMPTY;
    outcome.feed(&engine.run_to_convergence());
    assert_eq!(engine.quarantined().len(), if quarantine { 2 } else { 0 });
    outcome.feed(&engine.accusations());
    outcome.feed(&engine.quarantined());
    feed_nodes(&mut outcome, engine.nodes());
    digest(&ring, outcome)
}

/// (c) Cold, then `LinkDown` → `LinkUp` → `CostChange` → `NodeDown` →
/// `NodeUp` on the warm engine.
fn sync_warm() -> Digest {
    let g = ba48();
    let (telemetry, ring) = ring();
    let mut engine = protocol::build_sync_engine(&g).unwrap();
    engine.attach_telemetry(&telemetry);
    let mut outcome = Fnv::EMPTY;
    outcome.feed(&engine.run_to_convergence());
    let link = g
        .links()
        .iter()
        .find(|l| {
            g.without_link(l.a(), l.b())
                .is_ok_and(|t| t.is_biconnected())
        })
        .copied()
        .expect("a removable link exists");
    for event in [
        TopologyEvent::LinkDown(link.a(), link.b()),
        TopologyEvent::LinkUp(link.a(), link.b()),
        TopologyEvent::CostChange(link.a(), g.cost(link.a()) + Cost::new(3)),
    ] {
        outcome.feed(&engine.apply_event(event));
    }
    let (crashed, report) = g
        .nodes()
        .find_map(|k| Some(k).zip(engine.try_apply_event(TopologyEvent::NodeDown(k)).ok()))
        .expect("a removable node exists");
    outcome.feed(&report);
    outcome.feed(&engine.apply_event(TopologyEvent::NodeUp(crashed)));
    feed_nodes(&mut outcome, engine.nodes());
    digest(&ring, outcome)
}

/// (d)–(f) One chaos run on the hierarchy under `plan`, optionally tapped.
fn chaos(plan: FaultPlan, tap: Option<(AsId, Adversary)>) -> Digest {
    let g = hier32();
    let (telemetry, ring) = ring();
    let mut engine = protocol::build_chaos_engine(&g, plan).unwrap();
    engine.attach_telemetry(&telemetry);
    let tapped = tap.map(|(node, adversary)| {
        engine.set_adversary(node, adversary);
        node
    });
    let mut outcome = Fnv::EMPTY;
    let report = engine.run_to_stable(5_000);
    assert!(report.converged, "{report}");
    outcome.feed(&report);
    if let Some(node) = tapped {
        let injected = engine.adversary(node).map(Adversary::injected);
        assert!(injected > Some(0), "the tap fired");
        outcome.feed(&injected);
    }
    feed_nodes(&mut outcome, engine.nodes());
    digest(&ring, outcome)
}

#[test]
fn sync_cold_stream_is_pinned() {
    let expected = pin(
        0xff98_37a7_e4e3_0c61,
        8400,
        Fnv::EMPTY.0,
        0,
        0xc1c9_bebd_ed7b_4db1,
    );
    check("sync/cold", sync_cold(1), expected);
    check("sync/cold/2 workers", sync_cold(2), expected);
}

#[test]
fn sync_tapped_stream_is_pinned() {
    let expected = pin(
        0x7653_71bb_fd5d_0bb8,
        14760,
        0x377b_0168_1749_7eda,
        4,
        0xb2e0_4b39_f46f_61af,
    );
    check("sync/tapped", sync_tapped(1, true), expected);
    check("sync/tapped/2 workers", sync_tapped(2, true), expected);
    let expected = pin(
        0x1014_8103_ae5a_efaa,
        9259,
        0x18ce_7c71_b936_dd00,
        95,
        0xf9e8_e262_8412_a93d,
    );
    check("sync/tapped, accused only", sync_tapped(1, false), expected);
    check(
        "sync/tapped, accused only/2 workers",
        sync_tapped(2, false),
        expected,
    );
}

#[test]
fn sync_warm_stream_is_pinned() {
    let expected = pin(
        0xe64c_f474_526e_7304,
        18314,
        Fnv::EMPTY.0,
        0,
        0xb5ef_665e_29de_b121,
    );
    check("sync/warm", sync_warm(), expected);
}

#[test]
fn chaos_crash_stream_is_pinned() {
    let plan = FaultPlan::lossy(7, 16).with_crash(4, AsId::new(9), 11);
    let expected = pin(
        0x2f5b_5f1e_869a_358d,
        5272,
        Fnv::EMPTY.0,
        0,
        0x3802_d8d5_92fd_edac,
    );
    check("chaos/lossy+crash", chaos(plan, None), expected);
}

#[test]
fn chaos_flap_and_cut_stream_is_pinned() {
    let g = hier32();
    // One of a stub's two uplinks flaps; a link of the full-mesh core is cut
    // for good without telling either end (the hold timer has to find out).
    let stub = AsId::new(12);
    let plan = FaultPlan::quiet()
        .with_flap(3, 22, stub, g.neighbors(stub)[0])
        .with_cut(6, AsId::new(0), AsId::new(1));
    let expected = pin(
        0x91cd_34c9_8544_f4be,
        2775,
        Fnv::EMPTY.0,
        0,
        0xa830_eaa5_572c_35c8,
    );
    check("chaos/flap+cut", chaos(plan, None), expected);
}

#[test]
fn chaos_tapped_stream_is_pinned() {
    // The liar's link to its last neighbor also flaps long enough for both
    // hold timers to fire: the withdrawals that follow go out while that
    // session is down, and the tap must neither see nor count those copies.
    let liar = AsId::new(2);
    let g = hier32();
    let flapped = *g.neighbors(liar).last().expect("a core AS has neighbors");
    let plan = FaultPlan::lossy(13, 16).with_flap(3, 22, liar, flapped);
    let tap = (liar, Adversary::new(Strategy::Equivocate, 5));
    let expected = pin(
        0xf037_fdff_f3d2_a3e6,
        0x15f1,
        0xb27d_8263_e8e6_c78f,
        0x158,
        0x5d8a_f07b_b0c9_517a,
    );
    check("chaos/lossy+flap+tap", chaos(plan, Some(tap)), expected);
}
