//! Asynchrony, from the outside: under [`FaultPlan::asynchronous`] the
//! session layer delivers every link's frames in order while a seed draws
//! how links interleave. Whatever order a seed draws, every node type lands
//! on the synchronous engine's fixpoint; a seed replays its run bit for
//! bit; and the orders drawn really are FIFO per sender, exactly once, and
//! really do differ across seeds (so the fixpoint claims above are not
//! about one interleaving). Every run also stays asynchronous: no hold
//! timer fires and no session opens beyond the one per direction at
//! startup.

use bgp_vcg::bgp::chaos::{ChaosEngine, ChaosReport, FaultPlan};
use bgp_vcg::bgp::engine::SyncEngine;
use bgp_vcg::bgp::{LocalEvent, PlainBgpNode, ProtocolNode, StateSnapshot, Update};
use bgp_vcg::core::neighbor_costs::{self, NcPricingNode, NeighborCostGraph};
use bgp_vcg::netgraph::generators::structured::ring;
use bgp_vcg::netgraph::generators::{barabasi_albert, random_costs};
use bgp_vcg::{protocol, AsGraph, AsId, Cost};
use bgpvcg_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

const SEEDS: u64 = 32;

/// Far beyond what any run here needs: the plan's delays end at stage 64.
const MAX_STAGES: u64 = 1_000;

fn topology(n: usize, seed: u64) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    barabasi_albert(random_costs(n, 1, 9, &mut rng), 2, &mut rng)
}

/// The run stabilized through delayed, interleaved frames, and its
/// sessions never restarted: one Open per direction, no hold timer.
fn assert_asynchronous(g: &AsGraph, report: &ChaosReport, seed: u64) {
    assert!(report.converged, "seed {seed}: {report}");
    assert!(report.frames_delayed > 0, "seed {seed}: {report}");
    assert_eq!(report.holds_fired, 0, "seed {seed}: {report}");
    assert_eq!(
        report.session_resets,
        2 * g.link_count() as u64,
        "seed {seed}: {report}"
    );
}

/// Runs `nodes` on `g` under the asynchronous plan of `seed`.
fn run<N: ProtocolNode>(g: &AsGraph, nodes: Vec<N>, seed: u64) -> ChaosEngine<N> {
    let mut engine = ChaosEngine::new(g, nodes, FaultPlan::asynchronous(seed));
    let report = engine.run_to_stable(MAX_STAGES);
    assert_asynchronous(g, &report, seed);
    engine
}

#[test]
fn plain_nodes_reach_the_sync_fixpoint_under_every_seed() {
    let g = topology(16, 3);
    let mut sync = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
    assert!(sync.run_to_convergence().converged);
    for seed in 0..SEEDS {
        let engine = run(&g, PlainBgpNode::from_graph(&g), seed);
        for node in engine.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    node.selector().route(j),
                    sync.node(node.id()).selector().route(j),
                    "seed {seed}: {} -> {j}",
                    node.id()
                );
            }
        }
    }
}

#[test]
fn pricing_nodes_reach_the_sync_fixpoint_under_every_seed() {
    let g = topology(14, 5);
    let reference = protocol::run_sync(&g).unwrap().outcome;
    for seed in 0..SEEDS {
        let plan = FaultPlan::asynchronous(seed);
        let (outcome, report) = protocol::run_chaos(&g, plan, MAX_STAGES).unwrap();
        assert_asynchronous(&g, &report, seed);
        assert_eq!(outcome, reference, "seed {seed}");
    }
}

#[test]
fn neighbor_cost_nodes_reach_the_sync_fixpoint_under_every_seed() {
    let base = topology(12, 9);
    let mut rng = StdRng::seed_from_u64(9);
    let mut g = NeighborCostGraph::uniform(&base);
    for k in base.nodes() {
        for &a in base.neighbors(k) {
            g = g
                .with_recv_cost(k, a, Cost::new(rng.gen_range(0..12)))
                .unwrap();
        }
    }
    let (reference, report) = neighbor_costs::run_nc_sync(&g).unwrap();
    assert!(report.converged);
    for seed in 0..SEEDS {
        let engine = run(&base, NcPricingNode::from_graph(&g), seed);
        let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
        assert_eq!(outcome, reference, "seed {seed}");
    }
}

#[test]
fn a_seed_replays_its_run_bit_for_bit() {
    let g = topology(14, 7);
    let traced = |seed: u64| {
        let (telemetry, sink) = Telemetry::ring(1 << 18);
        let mut engine = protocol::build_chaos_engine(&g, FaultPlan::asynchronous(seed)).unwrap();
        engine.attach_telemetry(&telemetry);
        let report = engine.run_to_stable(MAX_STAGES);
        assert_asynchronous(&g, &report, seed);
        (format!("{:?}", engine.into_nodes()), report, sink.events())
    };
    let first = traced(5);
    assert!(first == traced(5), "one seed, one run — bit for bit");
    assert!(first.2 != traced(6).2, "another seed, another run");
}

/// A node that runs no protocol: each session opens with an empty table,
/// every handle pass broadcasts an empty update until `to_send` runs out,
/// and every delivery is logged as `(sender, update id)` in arrival order.
struct Scripted {
    id: AsId,
    to_send: usize,
    sent: usize,
    log: Vec<(AsId, u64)>,
}

impl Scripted {
    fn empty(&self) -> Update {
        Update {
            from: self.id,
            sender_costs: Vec::new(),
            advertisements: Vec::new(),
            id: 0,
        }
    }
}

impl ProtocolNode for Scripted {
    fn id(&self) -> AsId {
        self.id
    }
    fn start(&mut self) -> Option<Update> {
        None
    }
    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update> {
        self.log.extend(updates.iter().map(|u| (u.from, u.id)));
        self.to_send = self.to_send.checked_sub(1)?;
        self.sent += 1;
        Some(self.empty())
    }
    fn apply_event(&mut self, _: LocalEvent) -> Option<Update> {
        None
    }
    fn full_table(&self) -> Option<Update> {
        Some(self.empty())
    }
    fn reset(&mut self) {}
    fn state(&self) -> StateSnapshot {
        StateSnapshot::default()
    }
}

#[test]
fn delivery_is_fifo_per_sender_and_seeds_differ_across_senders() {
    let g = ring(6, Cost::new(1));
    let mut orders = BTreeSet::new();
    for seed in 0..SEEDS {
        let nodes = g
            .nodes()
            .map(|id| Scripted {
                id,
                to_send: 5,
                sent: 0,
                log: Vec::new(),
            })
            .collect();
        let nodes = run(&g, nodes, seed).into_nodes();
        for node in &nodes {
            for &sender in g.neighbors(node.id) {
                // Broadcasts are stamped with ascending ids (session tables
                // stay unstamped), so a sender's updates arrived in the
                // order it sent them, each once, exactly when their ids
                // ascend strictly and every one of them is there.
                let ids: Vec<u64> = node
                    .log
                    .iter()
                    .filter(|&&(from, id)| from == sender && id > 0)
                    .map(|&(_, id)| id)
                    .collect();
                assert_eq!(
                    ids.len(),
                    nodes[sender.index()].sent,
                    "seed {seed}: {sender} -> {}: {ids:?}",
                    node.id
                );
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: {sender} -> {} overtook or repeated: {ids:?}",
                    node.id
                );
            }
        }
        // Batching may leave a node fewer handle passes than updates to
        // send, but never none.
        assert!(nodes.iter().all(|n| n.sent > 0), "seed {seed}");
        let senders: Vec<Vec<AsId>> = nodes
            .iter()
            .map(|n| n.log.iter().map(|&(from, _)| from).collect())
            .collect();
        orders.insert(senders);
    }
    assert_eq!(
        orders.len() as u64,
        SEEDS,
        "every seed draws its own cross-sender order"
    );
}
