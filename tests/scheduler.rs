//! The asynchronous executor's seeded scheduler, from the outside: whatever
//! per-link-FIFO delivery order a seed draws, every node type lands on the
//! synchronous engine's fixpoint; duplicated deliveries are absorbed; and
//! the orders drawn really are FIFO per sender and really do differ across
//! seeds (so the fixpoint claims above are not about one interleaving).

use bgp_vcg::bgp::engine::{run_event_driven, SyncEngine};
use bgp_vcg::bgp::{LocalEvent, PlainBgpNode, ProtocolNode, StateSnapshot, Update};
use bgp_vcg::core::neighbor_costs::{self, NeighborCostGraph};
use bgp_vcg::netgraph::generators::structured::ring;
use bgp_vcg::netgraph::generators::{barabasi_albert, random_costs};
use bgp_vcg::{protocol, AsGraph, AsId, Cost, PricingBgpNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SEEDS: u64 = 32;

fn topology(n: usize, seed: u64) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    barabasi_albert(random_costs(n, 1, 9, &mut rng), 2, &mut rng)
}

#[test]
fn plain_nodes_reach_the_sync_fixpoint_under_every_seed() {
    let g = topology(16, 3);
    let mut sync = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
    assert!(sync.run_to_convergence().converged);
    for seed in 0..SEEDS {
        let (nodes, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g), seed, 0.0, None);
        for node in &nodes {
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
        let (outcome, _) = protocol::run_async(&g, seed).unwrap();
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
        let (outcome, _) = neighbor_costs::run_nc_async(&g, seed).unwrap();
        assert_eq!(outcome, reference, "seed {seed}");
    }
}

#[test]
fn duplicated_deliveries_are_absorbed() {
    let g = topology(14, 7);
    let reference = protocol::run_sync(&g).unwrap().outcome;
    for seed in 0..8 {
        let nodes = PricingBgpNode::from_graph(&g);
        let (nodes, _) = run_event_driven(&g, nodes, seed, 0.3, None);
        let outcome = protocol::outcome_from_nodes(&nodes).unwrap();
        assert_eq!(outcome, reference, "seed {seed}");
    }
}

/// A node that runs no protocol: it broadcasts an empty update at start and
/// after each of its first few deliveries, and logs every delivery as
/// `(sender, update id)` in arrival order.
struct Scripted {
    id: AsId,
    to_send: usize,
    log: Vec<(AsId, u64)>,
}

impl Scripted {
    fn emit(&mut self) -> Option<Update> {
        self.to_send = self.to_send.checked_sub(1)?;
        Some(Update {
            from: self.id,
            sender_costs: Vec::new(),
            advertisements: Vec::new(),
            id: 0,
            causes: Vec::new(),
        })
    }
}

impl ProtocolNode for Scripted {
    fn id(&self) -> AsId {
        self.id
    }
    fn start(&mut self) -> Option<Update> {
        self.emit()
    }
    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update> {
        self.log.extend(updates.iter().map(|u| (u.from, u.id)));
        self.emit()
    }
    fn apply_event(&mut self, _: LocalEvent) -> Option<Update> {
        None
    }
    fn full_table(&self) -> Option<Update> {
        None
    }
    fn reset(&mut self) {}
    fn state(&self) -> StateSnapshot {
        StateSnapshot::default()
    }
}

#[test]
fn delivery_is_fifo_per_sender_and_seeds_differ_across_senders() {
    let g = ring(6, Cost::new(1));
    let mut logs = Vec::new();
    for seed in 0..SEEDS {
        let nodes = g
            .nodes()
            .map(|id| Scripted {
                id,
                to_send: 5,
                log: Vec::new(),
            })
            .collect();
        let (nodes, report) = run_event_driven(&g, nodes, seed, 0.0, None);
        // Every node sent its five updates to both ring neighbors, and
        // every one of them arrived.
        assert_eq!(report.messages, 6 * 5 * 2, "seed {seed}");
        for node in &nodes {
            assert_eq!(node.log.len(), 5 * 2, "seed {seed}: {}", node.id);
            for sender in g.neighbors(node.id) {
                // Ids are broadcast sequence numbers, so a sender's
                // updates arrive in the order it sent them exactly when
                // their ids ascend.
                let ids: Vec<u64> = node
                    .log
                    .iter()
                    .filter(|(from, _)| from == sender)
                    .map(|&(_, id)| id)
                    .collect();
                assert_eq!(ids.len(), 5, "seed {seed}: {sender} -> {}", node.id);
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: {sender} -> {} overtook: {ids:?}",
                    node.id
                );
            }
        }
        logs.push(nodes.into_iter().map(|n| n.log).collect::<Vec<_>>());
    }
    let senders_only = |log: &[Vec<(AsId, u64)>]| -> Vec<Vec<AsId>> {
        log.iter()
            .map(|l| l.iter().map(|&(from, _)| from).collect())
            .collect()
    };
    assert!(
        logs.iter()
            .any(|log| senders_only(log) != senders_only(&logs[0])),
        "32 seeds drew one and the same cross-sender order"
    );
}
