//! Asynchronous execution under a seeded scheduler.
//!
//! The paper analyses the protocol in a synchronous-stage model but nothing
//! in the algorithm itself requires synchrony: price entries relax
//! monotonically toward the same fixpoint whatever the message
//! interleaving, provided each link delivers in order (Sect. 6) — the one
//! guarantee BGP's TCP sessions give and last-writer-wins Rib-In semantics
//! need. This executor demonstrates that with one FIFO per directed link
//! and a single-threaded scheduler that delivers one message at a time,
//! from a link drawn uniformly among the non-empty ones by a caller-seeded
//! RNG: every per-sender-FIFO interleaving (any reordering or delay a
//! reliable transport can exhibit) has positive probability, and a seed
//! replays its interleaving exactly. The run is quiescent exactly when no
//! link holds a message.

use crate::message::Update;
use crate::node::ProtocolNode;
use crate::telemetry::Instruments;
use crate::wire;
use bgpvcg_netgraph::AsGraph;
use bgpvcg_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// What an asynchronous run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventReport {
    /// Messages delivered across all links.
    pub messages: usize,
    /// Table entries carried by those messages.
    pub entries: usize,
}

/// One direction of a link: the messages in flight, in sending order.
struct Link {
    to: usize,
    queue: VecDeque<Arc<Update>>,
}

/// The network between the nodes and the order it delivers in.
struct Scheduler {
    links: Vec<Link>,
    /// `outgoing[i]`: the links leaving node `i`, one per neighbor.
    outgoing: Vec<Range<usize>>,
    /// The links with a message in flight — what each step draws from.
    ready: Vec<usize>,
    /// Broadcasts so far. There being no stages, a broadcast's sequence
    /// number is both its update id and the `stage` key of its events.
    broadcasts: u64,
    report: EventReport,
    instruments: Instruments,
}

impl Scheduler {
    /// Queues `update`, stamped with the next broadcast sequence number, as
    /// one shared payload on every link leaving node `from`.
    fn broadcast(&mut self, from: usize, mut update: Update) {
        self.broadcasts += 1;
        update.id = self.broadcasts;
        let Some(outgoing) = self.outgoing.get(from).cloned() else {
            return;
        };
        let (messages, entries) = (outgoing.len(), outgoing.len() * update.entry_count());
        self.report.messages += messages;
        self.report.entries += entries;
        if self.instruments.telemetry().is_some() {
            let bytes = messages * wire::update_size(&update);
            self.instruments
                .on_broadcast(&update, self.broadcasts, messages, entries, bytes);
        }
        let update = Arc::new(update);
        for at in outgoing {
            // lint:allow(bounds: `outgoing` ranges are cut from `links` as it is built)
            let queue = &mut self.links[at].queue;
            if queue.is_empty() {
                self.ready.push(at);
            }
            queue.push_back(Arc::clone(&update));
        }
    }

    /// Delivers one message at a time, from a link drawn uniformly among
    /// those with a message in flight, until none has one. With
    /// probability `duplicate_rate` the receiver handles the message a
    /// second time — which last-writer-wins Rib-In semantics must absorb
    /// silently.
    fn deliver_all<N: ProtocolNode>(
        &mut self,
        nodes: &mut [N],
        rng: &mut StdRng,
        duplicate_rate: f64,
    ) {
        while !self.ready.is_empty() {
            let slot = rng.gen_range(0..self.ready.len());
            // lint:allow(bounds: `slot` is drawn below `ready.len()`, and `ready` holds indices into `links`)
            let link = &mut self.links[self.ready[slot]];
            let head = link.queue.pop_front();
            let to = link.to;
            if link.queue.is_empty() {
                self.ready.swap_remove(slot);
            }
            let (Some(update), Some(node)) = (head, nodes.get_mut(to)) else {
                continue;
            };
            let deliveries = if rng.gen_bool(duplicate_rate) { 2 } else { 1 };
            for _ in 0..deliveries {
                if let Some(out) = node.handle(std::slice::from_ref(&update)) {
                    self.broadcast(to, out);
                }
            }
        }
    }
}

/// Runs the protocol asynchronously until quiescence and returns the nodes
/// (in AS order) plus traffic statistics.
///
/// Messages are delivered one at a time in an order drawn from `seed`:
/// FIFO per directed link, arbitrary across links — exactly the freedom a
/// real asynchronous network has — so different seeds exercise different
/// interleavings and one seed replays bit-identically. Each delivery is
/// handled a second time with probability `duplicate_rate`. The final
/// routing state must nevertheless equal the synchronous engine's (and is
/// asserted to, in the integration tests) because the protocol's fixpoint
/// is unique. Loss is not modelled here: nothing below BGP's sessions loses
/// messages, and what the sessions must recover from is the business of
/// [`ChaosEngine`](crate::chaos::ChaosEngine).
///
/// With `telemetry`, every broadcast traces as
/// [`TraceEvent`](bgpvcg_telemetry::TraceEvent)s keyed by its broadcast
/// sequence number (in place of the stage this executor does not have), the
/// shared registry's `bgp_*` traffic counters stay current, and the closing
/// `Quiescent` event carries the run's total delivered messages.
///
/// # Panics
///
/// Panics if `duplicate_rate` is outside `[0, 1)`, if `nodes.len()` differs
/// from the graph's node count, or if the nodes are not in AS order.
pub fn run_event_driven<N: ProtocolNode>(
    graph: &AsGraph,
    mut nodes: Vec<N>,
    seed: u64,
    duplicate_rate: f64,
    telemetry: Option<&Telemetry>,
) -> (Vec<N>, EventReport) {
    assert!(
        (0.0..1.0).contains(&duplicate_rate),
        "duplicate_rate must be in [0, 1)"
    );
    assert_eq!(nodes.len(), graph.node_count(), "one node per AS");
    for (idx, node) in nodes.iter().enumerate() {
        assert_eq!(node.id().index(), idx, "nodes must be in AS order");
    }
    let mut instruments = Instruments::new(nodes.len());
    if let Some(telemetry) = telemetry {
        instruments.attach_telemetry(telemetry);
    }
    let mut net = Scheduler {
        links: Vec::new(),
        outgoing: Vec::new(),
        ready: Vec::new(),
        broadcasts: 0,
        report: EventReport::default(),
        instruments,
    };
    for from in graph.nodes() {
        let first = net.links.len();
        net.links
            .extend(graph.neighbors(from).iter().map(|to| Link {
                to: to.index(),
                queue: VecDeque::new(),
            }));
        net.outgoing.push(first..net.links.len());
    }
    for (idx, node) in nodes.iter_mut().enumerate() {
        if let Some(update) = node.start() {
            net.broadcast(idx, update);
        }
    }
    net.deliver_all(&mut nodes, &mut StdRng::seed_from_u64(seed), duplicate_rate);
    let messages = Some(net.report.messages as u64);
    net.instruments.finish(net.broadcasts, messages);
    (nodes, net.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncEngine;
    use crate::node::PlainBgpNode;
    use crate::telemetry::metric;
    use bgpvcg_lcp::AllPairsLcp;
    use bgpvcg_netgraph::generators::structured::{fig1, ring};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use bgpvcg_netgraph::Cost;
    use bgpvcg_telemetry::TraceEvent;

    /// A fault-free untraced run under `seed`.
    fn run(g: &AsGraph, seed: u64) -> (Vec<PlainBgpNode>, EventReport) {
        run_event_driven(g, PlainBgpNode::from_graph(g), seed, 0.0, None)
    }

    fn assert_same_routes(g: &AsGraph, a: &[PlainBgpNode], b: &[PlainBgpNode], what: &str) {
        for (a, b) in a.iter().zip(b) {
            for j in g.nodes() {
                assert_eq!(a.selector().route(j), b.selector().route(j), "{what}");
            }
        }
    }

    #[test]
    fn async_routes_match_centralized_on_fig1() {
        let g = fig1();
        let (nodes, report) = run(&g, 0);
        assert!(report.messages > 0);
        let lcp = AllPairsLcp::compute(&g);
        for node in &nodes {
            for j in g.nodes() {
                assert_eq!(
                    node.selector().route(j).as_ref(),
                    lcp.route(node.id(), j),
                    "{} -> {j}",
                    node.id()
                );
            }
        }
    }

    #[test]
    fn async_matches_sync_final_state() {
        let g = ring(8, Cost::new(3));
        let (async_nodes, _) = run(&g, 0);
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.run_to_convergence();
        for node in &async_nodes {
            let sync_node = engine.node(node.id());
            for j in g.nodes() {
                assert_eq!(
                    node.selector().route(j),
                    sync_node.selector().route(j),
                    "{} -> {j}",
                    node.id()
                );
            }
        }
    }

    #[test]
    fn a_seed_replays_nodes_report_and_event_stream() {
        let mut rng = StdRng::seed_from_u64(17);
        let costs = random_costs(15, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let traced = |seed: u64| {
            let (telemetry, sink) = Telemetry::ring(1 << 16);
            let (nodes, report) = run_event_driven(
                &g,
                PlainBgpNode::from_graph(&g),
                seed,
                0.2,
                Some(&telemetry),
            );
            (format!("{nodes:?}"), report, sink.events())
        };
        let first = traced(5);
        assert!(first == traced(5), "one seed, one run — bit for bit");
        assert!(
            first.2 != traced(6).2,
            "another seed interleaves differently"
        );
    }

    #[test]
    fn every_interleaving_reaches_the_same_fixpoint() {
        let mut rng = StdRng::seed_from_u64(23);
        let costs = random_costs(14, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let (reference, _) = run(&g, 0);
        for seed in 1..4 {
            let (reordered, _) = run(&g, seed);
            assert_same_routes(&g, &reference, &reordered, &format!("seed {seed}"));
        }
    }

    #[test]
    fn duplicated_delivery_reaches_the_same_fixpoint() {
        // Duplicates on top of the seeded reordering must be absorbed
        // without a recovery layer.
        let mut rng = StdRng::seed_from_u64(29);
        let costs = random_costs(12, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.35, &mut rng);
        let (reference, _) = run(&g, 0);
        for seed in 0..3 {
            let (faulty, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g), seed, 0.25, None);
            assert_same_routes(&g, &reference, &faulty, &format!("seed {seed}"));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate_rate must be")]
    fn rejects_out_of_range_duplicate_rate() {
        let g = fig1();
        let _ = run_event_driven(&g, PlainBgpNode::from_graph(&g), 0, 1.0, None);
    }

    #[test]
    #[should_panic(expected = "one node per AS")]
    fn rejects_a_node_count_mismatch() {
        let g = fig1();
        let mut nodes = PlainBgpNode::from_graph(&g);
        nodes.truncate(2);
        let _ = run_event_driven(&g, nodes, 0, 0.0, None);
    }

    #[test]
    fn nodes_return_in_as_order() {
        let g = fig1();
        let (nodes, _) = run(&g, 0);
        for (idx, node) in nodes.iter().enumerate() {
            assert_eq!(node.id().index(), idx);
        }
    }

    #[test]
    fn telemetry_run_counts_match_the_report() {
        let g = ring(8, Cost::new(3));
        let (telemetry, sink) = Telemetry::ring(65536);
        let (nodes, report) =
            run_event_driven(&g, PlainBgpNode::from_graph(&g), 0, 0.0, Some(&telemetry));
        assert_eq!(nodes.len(), g.node_count());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters[metric::MESSAGES], report.messages as u64);
        assert_eq!(snap.counters[metric::ENTRIES], report.entries as u64);
        // One RouteSelected/Withdrawn event per broadcast advertisement;
        // plain BGP never withdraws in a static run.
        let events = sink.events();
        assert!(matches!(
            events.last(),
            Some(TraceEvent::Quiescent { messages, .. })
                if *messages == report.messages as u64
        ));
        let selected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RouteSelected { .. }))
            .count();
        assert_eq!(snap.counters[metric::ROUTES_SELECTED], selected as u64);
        assert_eq!(snap.counters[metric::ROUTES_WITHDRAWN], 0);
        // Broadcast sequence numbers are unique and dense: the Quiescent
        // stage equals the number of broadcasts.
        assert_eq!(
            events.last().map(TraceEvent::stage),
            Some(snap.counters[metric::UPDATES_SENT])
        );
    }

    #[test]
    fn telemetry_run_reaches_the_same_fixpoint() {
        let g = fig1();
        let (reference, _) = run(&g, 0);
        let (observed, _) = run_event_driven(
            &g,
            PlainBgpNode::from_graph(&g),
            0,
            0.0,
            Some(&Telemetry::null()),
        );
        assert_same_routes(&g, &reference, &observed, "observation must not perturb");
    }
}
