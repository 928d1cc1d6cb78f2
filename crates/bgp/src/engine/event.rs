//! Asynchronous, channel-driven execution.
//!
//! The paper analyses the protocol in a synchronous-stage model but nothing
//! in the algorithm itself requires synchrony: price entries relax
//! monotonically toward the same fixpoint whatever the message interleaving.
//! This engine demonstrates that by running every AS as its own OS thread
//! connected to its neighbors by crossbeam channels, processing one message
//! at a time with no global coordination.
//!
//! Termination uses in-flight message counting (a simplification of
//! Dijkstra–Scholten): a global counter is incremented *before* every send
//! and decremented only *after* the receiving node has fully processed the
//! message, including any sends that processing triggered. The counter
//! reading zero therefore proves global quiescence.

use crate::chaos::FaultPlan;
use crate::message::Update;
use crate::node::ProtocolNode;
use crate::telemetry::{metric, UpdateTracer};
use crate::wire;
use bgpvcg_netgraph::{AsGraph, AsId};
use bgpvcg_telemetry::{Counter, Telemetry, TraceEvent};
use crossbeam::channel::{unbounded, Sender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// What an asynchronous run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventReport {
    /// Messages delivered across all links.
    pub messages: usize,
    /// Table entries carried by those messages.
    pub entries: usize,
}

enum Envelope {
    Deliver(Arc<Update>),
    Shutdown,
}

/// Shared instruments for one asynchronous run. The tracer sits behind a
/// mutex because every worker thread reports through it; the lock is taken
/// once per *broadcast*, not per delivered message, which keeps contention
/// proportional to table changes rather than traffic.
struct EventInstruments {
    tracer: Mutex<UpdateTracer>,
    /// Global broadcast sequence — the async stand-in for a stage number
    /// (the async engine has no stages; events are keyed by send order).
    seq: AtomicU64,
    updates_sent: Counter,
    messages: Counter,
    entries: Counter,
    bytes: Counter,
}

impl EventInstruments {
    fn new(telemetry: &Telemetry, n: usize) -> Self {
        EventInstruments {
            tracer: Mutex::new(UpdateTracer::with_node_count(telemetry, n)),
            seq: AtomicU64::new(0),
            updates_sent: telemetry.counter(metric::UPDATES_SENT),
            messages: telemetry.counter(metric::MESSAGES),
            entries: telemetry.counter(metric::ENTRIES),
            bytes: telemetry.counter(metric::BYTES),
        }
    }

    /// Accounts one broadcast reaching `links` neighbors, stamping the
    /// update's provenance id with the broadcast sequence number (the same
    /// value standing in for the stage, so effect ids in an async trace are
    /// exactly the event's `stage` key).
    fn on_broadcast(&self, update: &mut Update, links: u64) {
        let stage = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        update.id = stage;
        self.tracer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe_update(update, stage);
        self.updates_sent.inc();
        self.messages.add(links);
        self.entries.add(links * update.entry_count() as u64);
        self.bytes.add(links * wire::update_size(update) as u64);
    }
}

/// Pops the front of one uniformly-chosen non-empty per-sender queue, or
/// `None` when every queue is empty. FIFO within each sender is preserved;
/// only the cross-sender interleaving is randomized.
fn drain_random(
    rng: &mut StdRng,
    buffered: &mut BTreeMap<AsId, VecDeque<Arc<Update>>>,
) -> Option<Arc<Update>> {
    let nonempty: Vec<AsId> = buffered
        .iter()
        .filter(|(_, q)| !q.is_empty())
        .map(|(&a, _)| a)
        .collect();
    if nonempty.is_empty() {
        return None;
    }
    let pick = nonempty[rng.gen_range(0..nonempty.len())];
    buffered.get_mut(&pick).and_then(VecDeque::pop_front)
}

/// Runs the protocol asynchronously until quiescence and returns the nodes
/// in AS order plus traffic statistics.
///
/// Each AS runs on its own thread and processes messages one at a time in
/// arrival order; arrival order across senders is whatever the OS scheduler
/// produces, so repeated runs exercise different interleavings. The final
/// routing state must nevertheless be identical to the synchronous engine's
/// (and is asserted to be, in the integration tests) because the protocol's
/// fixpoint is unique.
///
/// # Panics
///
/// Panics if `nodes.len()` differs from the graph's node count or a worker
/// thread panics.
pub fn run_event_driven<N>(graph: &AsGraph, nodes: Vec<N>) -> (Vec<N>, EventReport)
where
    N: ProtocolNode,
{
    run_event_driven_chaotic(graph, nodes, 0.0, 0)
}

/// Like [`run_event_driven`], but each worker services its neighbors'
/// message streams in seeded-random order instead of global arrival order —
/// an adversarial scheduler. Per-sender FIFO is preserved (each message
/// stream is buffered in its own sub-queue and consumed from the front),
/// because that is what BGP's underlying TCP sessions guarantee and what
/// last-writer-wins Rib-In semantics require; only the *interleaving
/// across senders* is randomized, which is exactly the freedom a real
/// asynchronous network has. The protocol must (and does — see the tests)
/// still reach the unique fixpoint.
///
/// `chaos` in `(0, 1)` turns the adversarial scheduler on (the value is
/// only a switch; scheduling randomness comes from `seed`); `0.0` recovers
/// plain arrival order.
///
/// # Panics
///
/// Panics if `chaos` is not in `[0, 1)` or node count mismatches the
/// graph.
pub fn run_event_driven_chaotic<N>(
    graph: &AsGraph,
    nodes: Vec<N>,
    chaos: f64,
    seed: u64,
) -> (Vec<N>, EventReport)
where
    N: ProtocolNode,
{
    run_event_driven_impl(graph, nodes, chaos, seed, 0.0, 0.0, None)
}

/// Like [`run_event_driven`], but message handling is perturbed by the
/// plan's *transport-survivable* faults: deliveries are duplicated with
/// `duplicate_rate`, service of buffered messages is postponed with
/// `delay_rate`, and the adversarial cross-sender scheduler randomizes the
/// interleaving (reordering). All three are faults a reliable transport can
/// exhibit, and the protocol absorbs them without a recovery layer:
/// duplicates are idempotent under last-writer-wins Rib-In semantics, and
/// per-sender FIFO — the one ordering TCP does guarantee and correctness
/// does require — is preserved throughout.
///
/// The plan's loss-class faults (`drop_rate`, crashes, restarts, flaps,
/// cuts) are deliberately **ignored** here: this engine models BGP over
/// TCP, where nothing below the session layer loses messages. Losses are
/// the business of the sequenced session layer in [`crate::chaos`], whose
/// [`ChaosEngine`](crate::chaos::ChaosEngine) retransmits and
/// re-establishes around them.
///
/// # Panics
///
/// Panics if a rate is outside `[0, 1)` or node count mismatches the
/// graph.
pub fn run_event_driven_faulty<N>(
    graph: &AsGraph,
    nodes: Vec<N>,
    plan: &FaultPlan,
) -> (Vec<N>, EventReport)
where
    N: ProtocolNode,
{
    assert!(
        (0.0..1.0).contains(&plan.duplicate_rate) && (0.0..1.0).contains(&plan.delay_rate),
        "fault rates must be in [0, 1)"
    );
    // Any fault needs the buffering scheduler; 0.5 is only a switch (see
    // `run_event_driven_chaotic`), randomness comes from the plan's seed.
    let chaos = if plan.duplicate_rate > 0.0 || plan.delay_rate > 0.0 {
        0.5
    } else {
        0.0
    };
    run_event_driven_impl(
        graph,
        nodes,
        chaos,
        plan.seed,
        plan.duplicate_rate,
        plan.delay_rate,
        None,
    )
}

/// Like [`run_event_driven`], but narrates the run through `telemetry`:
/// every broadcast traces as [`TraceEvent`]s (keyed by a global broadcast
/// sequence number in place of the stage the async engine does not have)
/// and the shared registry's `bgp_*` traffic counters stay current. The
/// final `Quiescent` event carries the run's total delivered messages.
///
/// # Panics
///
/// Panics if node count mismatches the graph or a worker thread panics.
pub fn run_event_driven_telemetry<N>(
    graph: &AsGraph,
    nodes: Vec<N>,
    telemetry: &Telemetry,
) -> (Vec<N>, EventReport)
where
    N: ProtocolNode,
{
    run_event_driven_impl(graph, nodes, 0.0, 0, 0.0, 0.0, Some(telemetry))
}

fn run_event_driven_impl<N>(
    graph: &AsGraph,
    nodes: Vec<N>,
    chaos: f64,
    seed: u64,
    duplicates: f64,
    delays: f64,
    telemetry: Option<&Telemetry>,
) -> (Vec<N>, EventReport)
where
    N: ProtocolNode,
{
    assert!((0.0..1.0).contains(&chaos), "chaos must be in [0, 1)");
    let instruments = telemetry.map(|t| EventInstruments::new(t, nodes.len()));
    let chaotic = chaos > 0.0;
    assert_eq!(nodes.len(), graph.node_count(), "one node per AS");
    let n = nodes.len();
    // Pre-charge one token per node: each is released only after that
    // node's start() has completed, so the counter cannot read zero before
    // every initial advertisement is out. Scoped threads borrow the
    // counters directly — no Arc, and no worker can outlive this call.
    let in_flight = AtomicI64::new(n as i64);
    let messages = AtomicUsize::new(0);
    let entries = AtomicUsize::new(0);

    let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }

    let mut out: Vec<N> = thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for (idx, (mut node, rx)) in nodes.into_iter().zip(receivers).enumerate() {
            let neighbor_txs: Vec<Sender<Envelope>> = graph
                .neighbors(AsId::new(idx as u32))
                .iter()
                .map(|a| senders[a.index()].clone())
                .collect();
            let (in_flight, messages, entries) = (&in_flight, &messages, &entries);
            let instruments = instruments.as_ref();
            let mut scheduler = if chaotic {
                Some(StdRng::seed_from_u64(
                    seed ^ (idx as u64).wrapping_mul(0x9e37_79b9),
                ))
            } else {
                None
            };

            handles.push(s.spawn(move || {
                let broadcast = |mut update: Update| {
                    if let Some(ins) = instruments {
                        ins.on_broadcast(&mut update, neighbor_txs.len() as u64);
                    }
                    // One shared payload for all receiving links.
                    let shared = Arc::new(update);
                    for tx in &neighbor_txs {
                        // Increment BEFORE the send so the counter can never
                        // dip to zero while a message is in a channel.
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        messages.fetch_add(1, Ordering::SeqCst);
                        entries.fetch_add(shared.entry_count(), Ordering::SeqCst);
                        if tx.send(Envelope::Deliver(Arc::clone(&shared))).is_err() {
                            // Receiver exited early (a worker panicked and the
                            // run is doomed); compensate the token so the
                            // coordinator cannot hang waiting for quiescence.
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                };
                if let Some(update) = node.start() {
                    broadcast(update);
                }
                in_flight.fetch_sub(1, Ordering::SeqCst); // release the start token

                // Per-sender sub-queues for the adversarial scheduler: FIFO
                // within a sender, random service order across senders.
                let mut buffered: BTreeMap<AsId, VecDeque<Arc<Update>>> = BTreeMap::new();
                let handle_once = |node: &mut N, update: &Arc<Update>| {
                    if let Some(out) = node.handle(std::slice::from_ref(update)) {
                        broadcast(out);
                    }
                };
                let process = |node: &mut N, update: &Arc<Update>| {
                    handle_once(node, update);
                    // Decrement only after processing (and its sends) completed.
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                };
                loop {
                    let envelope = if buffered.values().any(|q| !q.is_empty()) {
                        // Don't block while messages are locally buffered.
                        match rx.recv_timeout(Duration::from_micros(200)) {
                            Ok(e) => Some(e),
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                        }
                    } else {
                        match rx.recv() {
                            Ok(e) => Some(e),
                            Err(_) => break,
                        }
                    };
                    match envelope {
                        Some(Envelope::Shutdown) => break,
                        Some(Envelope::Deliver(update)) => {
                            if let Some(rng) = scheduler.as_mut() {
                                // Buffer, then service one random sender's
                                // front (never `None`: we just pushed) —
                                // unless a delay fault postpones service to a
                                // later round (the timeout branch below
                                // guarantees eventual progress).
                                buffered.entry(update.from).or_default().push_back(update);
                                if delays > 0.0 && rng.gen_bool(delays) {
                                    continue;
                                }
                                if let Some(next) = drain_random(rng, &mut buffered) {
                                    process(&mut node, &next);
                                    // A duplicate delivery: the same update
                                    // handled again, which last-writer-wins
                                    // Rib-In semantics must absorb silently.
                                    if duplicates > 0.0 && rng.gen_bool(duplicates) {
                                        handle_once(&mut node, &next);
                                    }
                                }
                            } else {
                                process(&mut node, &update);
                            }
                        }
                        None => {
                            // Timeout with a local buffer: only the chaotic
                            // scheduler buffers, so without one this re-enters
                            // recv() above. Delay faults never apply here, so
                            // postponed messages cannot starve.
                            if let Some(rng) = scheduler.as_mut() {
                                if let Some(next) = drain_random(rng, &mut buffered) {
                                    process(&mut node, &next);
                                }
                            }
                        }
                    }
                }
                node
            }));
        }

        // Wait for quiescence: the counter is incremented before each send
        // (and pre-charged for each start()) and decremented only after the
        // corresponding processing, so zero here proves no message is
        // buffered, in processing, or about to be produced.
        while in_flight.load(Ordering::SeqCst) != 0 {
            thread::sleep(Duration::from_micros(200));
        }

        for tx in &senders {
            // A failed send means that worker already exited (it panicked);
            // join() below surfaces the panic.
            let _ = tx.send(Envelope::Shutdown);
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(node) => node,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    out.sort_by_key(|node| node.id());

    let report = EventReport {
        messages: messages.load(Ordering::SeqCst),
        entries: entries.load(Ordering::SeqCst),
    };
    if let (Some(telemetry), Some(ins)) = (telemetry, instruments.as_ref()) {
        telemetry.record(&TraceEvent::Quiescent {
            stage: ins.seq.load(Ordering::SeqCst),
            messages: report.messages as u64,
        });
        telemetry.flush();
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncEngine;
    use crate::node::PlainBgpNode;
    use bgpvcg_lcp::AllPairsLcp;
    use bgpvcg_netgraph::generators::structured::{fig1, ring};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use bgpvcg_netgraph::Cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn async_routes_match_centralized_on_fig1() {
        let g = fig1();
        let (nodes, report) = run_event_driven(&g, PlainBgpNode::from_graph(&g));
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
        let (async_nodes, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g));
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
    fn async_is_deterministic_in_outcome_across_runs() {
        let mut rng = StdRng::seed_from_u64(17);
        let costs = random_costs(15, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let (first, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g));
        for _ in 0..3 {
            let (again, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g));
            for (a, b) in first.iter().zip(&again) {
                for j in g.nodes() {
                    assert_eq!(a.selector().route(j), b.selector().route(j));
                }
            }
        }
    }

    #[test]
    fn chaotic_delivery_reaches_the_same_fixpoint() {
        // Adversarial reordering (40% requeue) must not change the result.
        let mut rng = StdRng::seed_from_u64(23);
        let costs = random_costs(14, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.3, &mut rng);
        let (reference, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g));
        for seed in 0..3 {
            let (chaotic, _) =
                run_event_driven_chaotic(&g, PlainBgpNode::from_graph(&g), 0.4, seed);
            for (a, b) in reference.iter().zip(&chaotic) {
                for j in g.nodes() {
                    assert_eq!(a.selector().route(j), b.selector().route(j), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn faulty_delivery_reaches_the_same_fixpoint() {
        // Duplicates, delays, and adversarial reordering must all be
        // absorbed without a recovery layer.
        let mut rng = StdRng::seed_from_u64(29);
        let costs = random_costs(12, 0, 9, &mut rng);
        let g = erdos_renyi(costs, 0.35, &mut rng);
        let (reference, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g));
        for seed in 0..3 {
            let plan = crate::chaos::FaultPlan {
                duplicate_rate: 0.25,
                delay_rate: 0.25,
                ..crate::chaos::FaultPlan::lossy(seed, 0)
            };
            let (faulty, _) = run_event_driven_faulty(&g, PlainBgpNode::from_graph(&g), &plan);
            for (a, b) in reference.iter().zip(&faulty) {
                for j in g.nodes() {
                    assert_eq!(a.selector().route(j), b.selector().route(j), "seed {seed}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault rates must be")]
    fn faulty_rejects_out_of_range_rates() {
        let g = fig1();
        let plan = crate::chaos::FaultPlan {
            duplicate_rate: 1.0,
            ..crate::chaos::FaultPlan::quiet()
        };
        let _ = run_event_driven_faulty(&g, PlainBgpNode::from_graph(&g), &plan);
    }

    #[test]
    #[should_panic(expected = "chaos must be")]
    fn chaos_rejects_out_of_range_parameter() {
        let g = fig1();
        let _ = run_event_driven_chaotic(&g, PlainBgpNode::from_graph(&g), 1.0, 0);
    }

    #[test]
    fn nodes_return_in_as_order() {
        let g = fig1();
        let (nodes, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g));
        for (idx, node) in nodes.iter().enumerate() {
            assert_eq!(node.id().index(), idx);
        }
    }

    #[test]
    fn telemetry_run_counts_match_the_report() {
        let g = ring(8, Cost::new(3));
        let (telemetry, sink) = Telemetry::ring(65536);
        let (nodes, report) =
            run_event_driven_telemetry(&g, PlainBgpNode::from_graph(&g), &telemetry);
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
            events.last().map(super::TraceEvent::stage),
            Some(snap.counters[metric::UPDATES_SENT])
        );
    }

    #[test]
    fn telemetry_run_reaches_the_same_fixpoint() {
        let g = fig1();
        let (reference, _) = run_event_driven(&g, PlainBgpNode::from_graph(&g));
        let (observed, _) = run_event_driven_telemetry(
            &g,
            PlainBgpNode::from_graph(&g),
            &bgpvcg_telemetry::Telemetry::null(),
        );
        for (a, b) in reference.iter().zip(&observed) {
            for j in g.nodes() {
                assert_eq!(a.selector().route(j), b.selector().route(j));
            }
        }
    }
}
