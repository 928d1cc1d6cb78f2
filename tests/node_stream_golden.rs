//! The emitted update stream of every node type, pinned bit for bit.
//!
//! Each scenario drives one node type through the synchronous engine — a
//! cold convergence, then `LinkDown` → `LinkUp` → `CostChange` → a crash
//! and restart (`reset` and relearn) — and folds every delivery the engine
//! queues (sender, receiver, wire-v2 bytes, update id)
//! into one digest, and the nodes' final `state()` into another. The
//! expected digests were recorded on the commit *before* the three node
//! structs became one `Node<P>`, so any drift in emission order, change
//! suppression or delta compression fails here.
//!
//! The plain and FPSS stream digests were re-recorded when a route's
//! destination entry stopped carrying the destination's declared cost.
//! Each new digest is the old stream with every destination entry's cost
//! set to 0 (delta base hashes recomputed to match), minus the
//! advertisements that then repeat what their link last carried — the
//! cost change's re-advertisements of routes to the re-declaring AS — and
//! minus the updates left empty, later update ids renumbered. That drops
//! 2 deliveries on Fig. 1 and 31 on BA n=48 for plain BGP, none for FPSS
//! (its updates carry price changes as well). No state digest moved.
//!
//! Every stream digest was re-recorded again when updates stopped carrying
//! a per-advertisement cause list: each new value is the old stream with
//! the causes no longer fed, computed on the commit before. Delivery
//! counts and state digests did not move.
//!
//! A path's hash then began to run over its entries from last to first.
//! The four priced stream digests (FPSS and the per-neighbor model, each on
//! two graphs) were re-recorded: their price deltas carry the hash of the
//! path they patch. Computed on both commits with every delta's
//! `base_path_hash` zeroed before encoding, every stream and state digest
//! is identical. The plain digests and every state digest did not move.

use bgp_vcg::bgp::engine::SyncEngine;
use bgp_vcg::bgp::{
    wire, Accusation, LocalEvent, PlainBgpNode, ProtocolNode, TopologyEvent, Update, WireAuditor,
};
use bgp_vcg::core::neighbor_costs::{self, NcPricingNode, NeighborCostGraph};
use bgp_vcg::netgraph::generators::structured::fig1;
use bgp_vcg::netgraph::generators::{barabasi_albert, erdos_renyi, random_costs};
use bgp_vcg::{protocol, AsGraph, AsId, Cost, PricingBgpNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// FNV-1a over everything fed to it, plus how many deliveries that was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    hash: u64,
    deliveries: u64,
}

impl Digest {
    const EMPTY: Digest = Digest {
        hash: 0xcbf2_9ce4_8422_2325,
        deliveries: 0,
    };

    fn feed(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds every queued delivery into the shared digest; accuses nobody.
struct Tap(Arc<Mutex<Digest>>);

impl WireAuditor for Tap {
    fn on_wire(&mut self, from: AsId, to: AsId, update: &Arc<Update>) {
        let mut digest = self.0.lock().expect("no holder of the digest panics");
        digest.deliveries += 1;
        digest.feed(&(from.index() as u64).to_le_bytes());
        digest.feed(&(to.index() as u64).to_le_bytes());
        digest.feed(&wire::encode_update_v2(update));
        digest.feed(&update.id.to_le_bytes());
    }

    fn on_topology(&mut self, _event: &TopologyEvent) {}
    fn on_local_event(&mut self, _node: AsId, _event: &LocalEvent) {}
    fn end_stage(&mut self, _stage: u64) -> Vec<Accusation> {
        Vec::new()
    }
}

/// Runs the scripted scenario over `nodes` on `topology` and returns the
/// (stream, final-state) digests and the final nodes.
fn scenario<N: ProtocolNode>(topology: &AsGraph, nodes: Vec<N>) -> (Digest, u64, Vec<N>) {
    let stream = Arc::new(Mutex::new(Digest::EMPTY));
    let mut engine = SyncEngine::new(topology, nodes);
    engine.attach_auditor(Box::new(Tap(Arc::clone(&stream))));
    assert!(engine.run_to_convergence().converged, "cold run");

    // A link whose loss keeps the topology biconnected, down and up again.
    let link = topology
        .links()
        .iter()
        .find(|l| {
            topology
                .without_link(l.a(), l.b())
                .is_ok_and(|t| t.is_biconnected())
        })
        .copied()
        .expect("a removable link exists");
    for event in [
        TopologyEvent::LinkDown(link.a(), link.b()),
        TopologyEvent::LinkUp(link.a(), link.b()),
        TopologyEvent::CostChange(link.a(), topology.cost(link.a()) + Cost::new(3)),
    ] {
        assert!(engine.apply_event(event).converged, "{event:?}");
    }
    // The first node the engine lets crash (the rest stays biconnected):
    // `NodeDown` resets it, `NodeUp` has it relearn over fresh sessions.
    let (crashed, report) = topology
        .nodes()
        .find_map(|k| Some(k).zip(engine.try_apply_event(TopologyEvent::NodeDown(k)).ok()))
        .expect("a removable node exists");
    assert!(report.converged, "crash of {crashed}");
    assert!(
        engine.apply_event(TopologyEvent::NodeUp(crashed)).converged,
        "restart of {crashed}"
    );

    let mut state = Digest::EMPTY;
    for snapshot in engine.state_snapshots() {
        state.feed(format!("{snapshot:?}").as_bytes());
    }
    let stream = *stream.lock().expect("no holder of the digest panics");
    (stream, state.hash, engine.into_nodes())
}

fn ba48() -> AsGraph {
    let mut rng = StdRng::seed_from_u64(48);
    barabasi_albert(random_costs(48, 1, 9, &mut rng), 2, &mut rng)
}

/// Heterogeneous receive costs over an Erdős–Rényi topology, as the
/// neighbour-cost unit tests draw them.
fn nc_er14() -> NeighborCostGraph {
    let mut rng = StdRng::seed_from_u64(200);
    let base = erdos_renyi(random_costs(14, 0, 9, &mut rng), 0.3, &mut rng);
    let mut g = NeighborCostGraph::uniform(&base);
    for k in base.nodes() {
        for &a in base.neighbors(k) {
            g = g
                .with_recv_cost(k, a, Cost::new(rng.gen_range(0..10)))
                .unwrap();
        }
    }
    g
}

/// Holds a scenario's digests to the pinned ones; hands back its nodes.
fn check<N>(
    what: &str,
    scenario: (Digest, u64, Vec<N>),
    hash: u64,
    deliveries: u64,
    state: u64,
) -> Vec<N> {
    let (stream, observed, nodes) = scenario;
    let expected = (Digest { hash, deliveries }, state);
    assert_eq!(
        (stream, observed),
        expected,
        "{what}: got ({:#018x}, {}, {:#018x})",
        stream.hash,
        stream.deliveries,
        observed
    );
    nodes
}

#[test]
fn plain_stream_is_pinned() {
    let g = fig1();
    check(
        "plain/fig1",
        scenario(&g, PlainBgpNode::from_graph(&g)),
        0x61b3_3376_3297_979e,
        130,
        0x81d7_bd07_f7c9_6cdb,
    );
    let g = ba48();
    check(
        "plain/ba48",
        scenario(&g, PlainBgpNode::from_graph(&g)),
        0xbdbd_da38_38d5_5a6a,
        4117,
        0xd29f_70d3_3a6e_f80e,
    );
}

#[test]
fn fpss_stream_is_pinned() {
    let g = fig1();
    check(
        "fpss/fig1",
        scenario(&g, PricingBgpNode::from_graph(&g)),
        0x5a69_d745_0b4d_6c8a,
        171,
        0xfd30_6f65_f307_79ab,
    );
    let g = ba48();
    check(
        "fpss/ba48",
        scenario(&g, PricingBgpNode::from_graph(&g)),
        0x110b_f4ac_5e49_d738,
        4751,
        0xb375_7f4e_a9cb_79ae,
    );
}

#[test]
fn neighbor_cost_stream_is_pinned() {
    // The scenario ends on the graph it began with (a scalar cost change
    // means nothing to this model), so it must end on the centralized
    // prices. Both digests were re-recorded when `LinkUp` began to declare
    // the bounced link's receive cost again; the ones before pinned a
    // stream whose fixpoint missed it.
    let ends_on_the_centralized_prices = |g: &NeighborCostGraph, nodes: Vec<NcPricingNode>| {
        let outcome = protocol::outcome_from_nodes(&nodes).unwrap();
        assert_eq!(outcome, neighbor_costs::compute(g).unwrap());
    };
    let g = NeighborCostGraph::uniform(&fig1());
    let nodes = NcPricingNode::from_graph(&g);
    let nodes = check(
        "nc/fig1",
        scenario(g.topology(), nodes),
        0x26f2_e2b2_f31c_eec2,
        148,
        0x473e_1efc_9f12_0b68,
    );
    ends_on_the_centralized_prices(&g, nodes);
    let g = nc_er14();
    let nodes = NcPricingNode::from_graph(&g);
    let nodes = check(
        "nc/er14",
        scenario(g.topology(), nodes),
        0x1e2e_d777_c566_fc1a,
        1119,
        0x614a_6892_25d9_e7cf,
    );
    ends_on_the_centralized_prices(&g, nodes);
}
