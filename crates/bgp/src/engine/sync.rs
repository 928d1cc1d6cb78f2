//! The paper's Sect. 5 model: the shared [`Engine`] over the [`LockStep`]
//! transport. Each stage delivers every update queued in the previous one,
//! lets each node that received something recompute, and queues what those
//! nodes re-advertise; a run ends at the first stage with nothing queued.
//! The stages, events, auditor and run loop are the shared engine's; this
//! file holds the transport, its report, and the constructor and `step`.

use super::kernel::{enqueue, Engine, Parcel, Report, RunTally, Sent, StageTrace, Transport};
use crate::node::ProtocolNode;
use bgpvcg_netgraph::{AsGraph, AsId};
use std::fmt;
use std::sync::Arc;

/// What one lock-step run did — with an event's reaction broadcasts, for
/// [`try_apply_event`](Engine::try_apply_event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Stages executed until quiescence. A stage is one synchronous round of
    /// "deliver all queued updates, let every receiving node recompute and
    /// re-advertise". This is the quantity the paper bounds by `d` for plain
    /// BGP and `max(d, d′)` for the pricing extension.
    pub stages: usize,
    /// Messages delivered (one update crossing one link = one message).
    pub messages: usize,
    /// Routing-table entries carried by all delivered messages.
    pub entries: usize,
    /// Total encoded bytes of all delivered messages
    /// ([`wire::encode_update_v2_into`](crate::wire::encode_update_v2_into)).
    pub bytes_v2: usize,
    /// Peak messages delivered on any single link in any single stage.
    pub max_link_messages_per_stage: usize,
    /// `false` if the engine hit its stage limit before quiescing (a
    /// protocol bug, never expected with LCP policies).
    pub converged: bool,
}

impl Report for RunReport {
    fn quiescence(&self) -> (u64, u64) {
        (self.stages as u64, self.messages as u64)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} stages, {} messages, {} entries, {} bytes{}",
            self.stages,
            self.messages,
            self.entries,
            self.bytes_v2,
            if self.converged {
                ""
            } else {
                " (NOT CONVERGED)"
            }
        )
    }
}

/// Perfect lock-step delivery: a payload sent in one stage sits in the
/// neighbor's inbox for the next, and is accounted the moment it is sent.
#[derive(Debug, Default)]
pub struct LockStep {
    /// Sends accounted since the engine last settled.
    sent: Sent,
}

impl Transport for LockStep {
    type Report = RunReport;

    /// The adjacency *is* the live link set.
    fn is_open(&self, _from: AsId, _to: AsId) -> bool {
        true
    }

    fn send<N: ProtocolNode>(engine: &mut Engine<N, Self>, _from: AsId, to: AsId, parcel: &Parcel) {
        let bytes = parcel.size(&mut engine.scratch);
        let sent = &mut engine.link.sent;
        sent.messages += 1;
        sent.entries += parcel.update.entry_count();
        sent.bytes_v2 += bytes;
        let update = Arc::clone(&parcel.update);
        enqueue(&mut engine.inboxes, &mut engine.dirty, to, update);
    }

    fn take_sent(&mut self) -> Sent {
        std::mem::take(&mut self.sent)
    }

    /// Ships the full table now: it is in the neighbor's inbox next stage.
    fn establish<N: ProtocolNode>(engine: &mut Engine<N, Self>, from: AsId, to: AsId) {
        engine.ship_table(from, to, 0);
    }

    /// Quiescent once no node has pending input.
    fn quiescent<N: ProtocolNode>(engine: &Engine<N, Self>) -> bool {
        engine.dirty.is_empty()
    }

    /// The run's tally as a report; the next run numbers its stages from
    /// 1 again. `stages` is the last stage in which some node's advertised
    /// state changed — the moment the tables are final. The stage after it
    /// only drains the resulting no-op deliveries, and the paper's
    /// "converges within d stages" counts table changes.
    fn report<N: ProtocolNode>(engine: &mut Engine<N, Self>, run: &RunTally) -> RunReport {
        engine.stage = 0;
        RunReport {
            stages: run.changed as usize,
            messages: run.sent.messages,
            entries: run.sent.entries,
            bytes_v2: run.sent.bytes_v2,
            max_link_messages_per_stage: run.link_max,
            converged: run.converged,
        }
    }
}

/// The synchronous-stage engine: all nodes exchange routing tables in
/// lock-step rounds, exactly the computational model of the paper's Sect. 5.
///
/// Node recomputation within a stage is independent by construction (each
/// `handle` reads only the node's own inbox, filled last stage), so stages
/// can run on a worker pool — [`with_parallelism`](Engine::with_parallelism)
/// — while broadcasts go out in ascending node order, keeping parallel runs
/// bit-for-bit identical to serial ones.
pub type SyncEngine<N> = Engine<N, LockStep>;

impl<N: ProtocolNode> Engine<N, LockStep> {
    /// Creates an engine over the graph's topology with one prepared node
    /// per AS (in AS order — see e.g.
    /// [`PlainBgpNode::from_graph`](crate::PlainBgpNode::from_graph)).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph's node count or ids
    /// are out of order.
    pub fn new(graph: &AsGraph, nodes: Vec<N>) -> Self {
        Engine::over(graph, nodes, LockStep::default())
    }

    /// Executes the protocol one stage at a time: the origin announcement
    /// (first call only, audited like a run's) plus a single delivery
    /// round, returning its [`StageTrace`] — or `None` when the network is
    /// quiescent. Lets callers inspect node state between stages (e.g. the
    /// per-node convergence experiment behind Lemma 2's `d_i` bound).
    ///
    /// # Example
    ///
    /// ```
    /// use bgpvcg_bgp::{engine::SyncEngine, PlainBgpNode};
    /// use bgpvcg_netgraph::generators::structured::fig1;
    ///
    /// let g = fig1();
    /// let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
    /// let mut stages = 0;
    /// while engine.step().is_some() {
    ///     stages += 1; // inspect engine.node(..) state here
    /// }
    /// assert!(stages >= 3, "Fig. 1 routing needs d = 3 stages plus drain");
    /// ```
    pub fn step(&mut self) -> Option<StageTrace> {
        if self.start() {
            self.audit_stage(0);
        }
        (!self.dirty.is_empty()).then(|| self.run_stage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::TopologyEvent;
    use crate::node::PlainBgpNode;
    use crate::telemetry::metric;
    use bgpvcg_lcp::{bellman, AllPairsLcp};
    use bgpvcg_netgraph::generators::structured::{fig1, ring, Fig1};
    use bgpvcg_netgraph::generators::{barabasi_albert, erdos_renyi, random_costs};
    use bgpvcg_netgraph::{Cost, GraphError};
    use bgpvcg_telemetry::{profile::span, HealthConfig, Telemetry, TraceEvent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn converged_engine(g: &AsGraph) -> (SyncEngine<PlainBgpNode>, RunReport) {
        let mut engine = SyncEngine::new(g, PlainBgpNode::from_graph(g));
        let report = engine.run_to_convergence();
        (engine, report)
    }

    use bgpvcg_netgraph::AsGraph;

    #[test]
    fn fig1_converges_to_centralized_routes() {
        let g = fig1();
        let (engine, report) = converged_engine(&g);
        assert!(report.converged);
        let lcp = AllPairsLcp::compute(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                let expected = lcp.route(i, j).unwrap();
                let actual = engine.node(i).selector().route(j).unwrap();
                assert_eq!(actual, expected, "{i} -> {j}");
            }
        }
    }

    #[test]
    fn convergence_stages_bounded_by_d() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let costs = random_costs(25, 0, 9, &mut rng);
            let g = if seed % 2 == 0 {
                erdos_renyi(costs, 0.2, &mut rng)
            } else {
                barabasi_albert(costs, 2, &mut rng)
            };
            let lcp = AllPairsLcp::compute(&g);
            let d = bgpvcg_lcp::diameter::lcp_hop_diameter(&lcp);
            let (_, report) = converged_engine(&g);
            assert!(report.converged);
            assert!(
                report.stages <= d,
                "seed {seed}: {} stages > d = {d}",
                report.stages
            );
        }
    }

    #[test]
    fn profiler_health_and_observer_cover_an_honest_run() {
        let g = fig1();
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let (telemetry, ring_sink) = Telemetry::ring(4096);
        engine.attach_telemetry(&telemetry);
        engine.attach_health(HealthConfig::default());
        engine.attach_profiler();
        let mut observed_stages = Vec::new();
        let report = engine
            .run_to_convergence_traced(|t, nodes| observed_stages.push((t.stage, nodes.len())));
        assert!(report.converged);
        // Observer fired once per executed stage over the full node array.
        assert!(!observed_stages.is_empty());
        assert!(observed_stages.iter().all(|&(_, n)| n == g.node_count()));
        // Honest convergence: zero findings, no stall.
        let health = engine.health_sink().expect("health attached");
        assert!(health.findings().is_empty());
        assert!(!health.stalled());
        // The monitor saw every stage.
        assert!(health.snapshot().stages_seen() > 0);
        // Profiler covered the hot-path phases with consistent nesting.
        let profiler = engine.profiler().expect("profiler attached");
        for id in [span::STAGE, span::ROUTE_SELECT, span::WIRE_ENCODE] {
            let (count, total, self_nanos) = profiler.stat(id);
            assert!(count > 0, "span {id} never entered");
            assert!(total >= self_nanos);
        }
        assert_eq!(profiler.truncated(), 0);
        // The trace stream carries the new summary emissions, each of
        // which decodes back from its JSONL line.
        let events = ring_sink.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::SpanSummary { .. })));
        assert!(!events
            .iter()
            .any(|e| matches!(e, TraceEvent::HealthVerdict { .. })));
        for event in &events {
            assert_eq!(TraceEvent::from_json(&event.to_json()).as_ref(), Ok(event));
        }
    }

    #[test]
    fn fig1_raises_no_stall_at_a_one_stage_threshold() {
        let g = fig1();
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.attach_health(HealthConfig {
            stall_stages: 1,
            ..HealthConfig::default()
        });
        let report = engine.run_to_convergence();
        assert!(report.converged);
        // Fig. 1 converges with progress every stage, so even a threshold
        // of one stage never fires.
        assert!(engine.health_sink().unwrap().findings().is_empty());
    }

    #[test]
    fn sync_engine_matches_bellman_stage_semantics() {
        // The engine's stage count equals the per-destination Bellman
        // fixpoint's worst stage count: both implement Sect. 5 verbatim.
        let g = ring(9, Cost::new(2));
        let (_, report) = converged_engine(&g);
        assert_eq!(report.stages, bellman::max_stages(&g));
    }

    #[test]
    fn routes_match_centralized_on_random_graphs() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(30 + seed);
            let costs = random_costs(20, 0, 8, &mut rng);
            let g = erdos_renyi(costs, 0.25, &mut rng);
            let (engine, _) = converged_engine(&g);
            let lcp = AllPairsLcp::compute(&g);
            for i in g.nodes() {
                for j in g.nodes() {
                    assert_eq!(
                        engine.node(i).selector().route(j),
                        lcp.route(i, j),
                        "seed {seed}: {i} -> {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn second_run_is_a_no_op() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        let again = engine.run_to_convergence();
        assert_eq!(again.stages, 0);
        assert_eq!(again.messages, 0);
    }

    #[test]
    fn link_down_reconverges_to_new_topology() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        // Fail the D–Z link: X's LCP to Z must become X A Z (cost 5).
        let report = engine.apply_event(TopologyEvent::LinkDown(Fig1::D, Fig1::Z));
        assert!(report.converged);
        let g2 = g.without_link(Fig1::D, Fig1::Z).unwrap();
        let lcp2 = AllPairsLcp::compute(&g2);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j),
                    lcp2.route(i, j),
                    "{i} -> {j} after link failure"
                );
            }
        }
    }

    #[test]
    fn link_up_reconverges_to_new_topology() {
        let g = fig1().without_link(Fig1::D, Fig1::Z).unwrap();
        let (mut engine, _) = converged_engine(&g);
        let report = engine.apply_event(TopologyEvent::LinkUp(Fig1::D, Fig1::Z));
        assert!(report.converged);
        let lcp = AllPairsLcp::compute(&fig1());
        for i in fig1().nodes() {
            for j in fig1().nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j),
                    lcp.route(i, j),
                    "{i} -> {j} after link up"
                );
            }
        }
    }

    #[test]
    fn cost_change_reconverges() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        // D becomes expensive: X's best route to Z flips to X A Z.
        let report = engine.apply_event(TopologyEvent::CostChange(Fig1::D, Cost::new(50)));
        assert!(report.converged);
        let g2 = g.with_cost(Fig1::D, Cost::new(50));
        let lcp2 = AllPairsLcp::compute(&g2);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j),
                    lcp2.route(i, j),
                    "{i} -> {j} after cost change"
                );
            }
        }
    }

    #[test]
    fn report_accumulates_traffic() {
        let g = ring(6, Cost::new(1));
        let (_, report) = converged_engine(&g);
        assert!(report.messages > 0);
        assert!(
            report.entries >= report.messages,
            "every message carries ≥1 entry"
        );
        // A message is at least a 6-byte header, an entry at least its
        // destination and kind byte.
        assert!(report.bytes_v2 >= 6 * report.messages + 2 * report.entries);
    }

    #[test]
    fn state_snapshots_have_full_tables() {
        let g = fig1();
        let (engine, _) = converged_engine(&g);
        for snap in engine.state_snapshots() {
            assert_eq!(snap.table_entries, g.node_count());
            assert_eq!(snap.price_entries, 0);
        }
    }

    #[test]
    fn stage_limit_reports_non_convergence() {
        let g = ring(9, Cost::new(1));
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.set_stage_limit(1); // far below the 4 stages the ring needs
        let report = engine.run_to_convergence();
        assert!(!report.converged);
        assert!(report.to_string().contains("NOT CONVERGED"));
        // Lifting the limit lets the same engine finish the job.
        engine.set_stage_limit(1000);
        let report = engine.run_to_convergence();
        assert!(report.converged);
        let lcp = AllPairsLcp::compute(&g);
        for i in g.nodes() {
            assert_eq!(
                engine.node(i).selector().route(AsId::new(0)),
                lcp.route(i, AsId::new(0))
            );
        }
    }

    #[test]
    fn a_stage_limited_run_leaves_its_stages_and_no_quiescent_in_the_trace() {
        let g = ring(9, Cost::new(1));
        let (telemetry, ring_sink) = Telemetry::ring(4096);
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.attach_telemetry(&telemetry);
        engine.attach_profiler();
        engine.set_stage_limit(2); // the ring needs 4
        assert!(!engine.run_to_convergence().converged);
        let cut = ring_sink.events();
        let stages: Vec<u64> = cut
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StageStart { stage } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(stages, [1, 2], "one StageStart per stage, up to the limit");
        assert!(
            !cut.iter()
                .any(|e| matches!(e, TraceEvent::Quiescent { .. })),
            "a run cut off by its limit does not close with Quiescent"
        );
        assert!(
            matches!(cut.last(), Some(TraceEvent::SpanSummary { .. })),
            "the profile is summarized whether or not the run converged"
        );
        // A converged follow-up closes with Quiescent; only the profile's
        // summaries come after it.
        engine.set_stage_limit(1000);
        assert!(engine.run_to_convergence().converged);
        let events = ring_sink.events();
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

    #[test]
    fn stepping_reaches_the_same_fixpoint() {
        let g = fig1();
        let mut stepped = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let mut stages = 0;
        while stepped.step().is_some() {
            stages += 1;
        }
        let mut whole = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let report = whole.run_to_convergence();
        // step() executes the drain stage too; the report counts changes.
        assert!(stages >= report.stages);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    stepped.node(i).selector().route(j),
                    whole.node(i).selector().route(j),
                    "{i} -> {j}"
                );
            }
        }
        assert!(stepped.step().is_none(), "quiescent engine stays quiescent");
    }

    #[test]
    fn stage_traces_sum_to_the_report() {
        let g = ring(7, Cost::new(1));
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let mut traces = Vec::new();
        let report = engine.run_to_convergence_traced(|t, _| traces.push(t));
        assert!(report.converged);
        // Stage numbers are consecutive from 1.
        for (idx, t) in traces.iter().enumerate() {
            assert_eq!(t.stage, idx + 1);
        }
        // The last stage with changes is the reported convergence stage.
        let last_changed = traces
            .iter()
            .filter(|t| t.changed_nodes > 0)
            .map(|t| t.stage)
            .max()
            .unwrap();
        assert_eq!(report.stages, last_changed);
        // Per-stage message and byte counts sum to the totals, minus the
        // pre-stage origin broadcasts.
        let staged_messages: usize = traces.iter().map(|t| t.messages).sum();
        let origin_messages = 2 * g.node_count(); // each node broadcasts to 2 neighbors
        assert_eq!(staged_messages + origin_messages, report.messages);
        let display = traces[0].to_string();
        assert!(display.contains("stage"), "{display}");
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn link_down_of_missing_link_panics() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        engine.apply_event(TopologyEvent::LinkDown(Fig1::X, Fig1::Z));
    }

    #[test]
    fn node_down_withdraws_it_and_node_up_restores_the_fixpoint() {
        use bgpvcg_netgraph::generators::structured::hypercube;
        let g = hypercube(3, Cost::new(2));
        let (mut engine, _) = converged_engine(&g);
        let k = AsId::new(3);
        let report = engine.apply_event(TopologyEvent::NodeDown(k));
        assert!(report.converged);
        assert!(engine.is_down(k));
        for i in g.nodes().filter(|&i| i != k) {
            assert_eq!(
                engine.node(i).selector().route(k),
                None,
                "{i} must lose its route to the crashed node"
            );
            assert!(!engine.node(i).selector().has_neighbor(k));
        }
        // The crashed node itself is back to a blank slate.
        assert_eq!(engine.node(k).selector().destinations().count(), 1);
        let report = engine.apply_event(TopologyEvent::NodeUp(k));
        assert!(report.converged);
        assert!(!engine.is_down(k));
        // Self-stabilization: the rejoined network reaches the same
        // fixpoint as one that never crashed.
        let (fresh, _) = converged_engine(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j),
                    fresh.node(i).selector().route(j),
                    "{i} -> {j} after crash + restart"
                );
            }
        }
    }

    #[test]
    fn biconnectivity_breaking_node_down_is_rejected_without_damage() {
        let g = ring(6, Cost::new(1));
        let (mut engine, _) = converged_engine(&g);
        let err = engine
            .try_apply_event(TopologyEvent::NodeDown(AsId::new(2)))
            .unwrap_err();
        assert_eq!(err, GraphError::NotBiconnected);
        // Nothing was mutated: the engine is still quiescent on the old
        // fixpoint and the "removed" node still routes.
        assert!(!engine.is_down(AsId::new(2)));
        let again = engine.run_to_convergence();
        assert_eq!(again.messages, 0);
        assert!(engine
            .node(AsId::new(0))
            .selector()
            .route(AsId::new(2))
            .is_some());
    }

    #[test]
    fn liveness_mismatches_surface_typed_errors() {
        use bgpvcg_netgraph::generators::structured::hypercube;
        let g = hypercube(3, Cost::new(1));
        let (mut engine, _) = converged_engine(&g);
        let k = AsId::new(5);
        assert_eq!(
            engine.try_apply_event(TopologyEvent::NodeUp(k)),
            Err(GraphError::NodeOnline(k)),
            "bringing up a live node"
        );
        engine.try_apply_event(TopologyEvent::NodeDown(k)).unwrap();
        assert_eq!(
            engine.try_apply_event(TopologyEvent::NodeDown(k)),
            Err(GraphError::NodeOffline(k)),
            "crashing a crashed node"
        );
        assert_eq!(
            engine.try_apply_event(TopologyEvent::CostChange(k, Cost::new(9))),
            Err(GraphError::NodeOffline(k)),
            "a crashed node cannot re-declare"
        );
        assert_eq!(
            engine.try_apply_event(TopologyEvent::LinkUp(AsId::new(0), k)),
            Err(GraphError::NodeOffline(k)),
            "no new links to a crashed node"
        );
        assert_eq!(
            engine.try_apply_event(TopologyEvent::NodeDown(AsId::new(99))),
            Err(GraphError::UnknownNode(AsId::new(99)))
        );
    }

    #[test]
    fn both_down_links_resurface_when_the_second_endpoint_restarts() {
        use bgpvcg_netgraph::generators::structured::hypercube;
        let g = hypercube(3, Cost::new(3));
        let (mut engine, _) = converged_engine(&g);
        // 0 and 1 are adjacent in the hypercube; crash both, then restart
        // in the same order — the 0–1 link is parked twice over and must
        // come back with the second restart.
        engine.apply_event(TopologyEvent::NodeDown(AsId::new(0)));
        engine.apply_event(TopologyEvent::NodeDown(AsId::new(1)));
        engine.apply_event(TopologyEvent::NodeUp(AsId::new(0)));
        assert!(
            !engine
                .node(AsId::new(0))
                .selector()
                .has_neighbor(AsId::new(1)),
            "far end still down: the link stays parked"
        );
        engine.apply_event(TopologyEvent::NodeUp(AsId::new(1)));
        let (fresh, _) = converged_engine(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    engine.node(i).selector().route(j),
                    fresh.node(i).selector().route(j),
                    "{i} -> {j} after double crash + restart"
                );
            }
        }
    }

    #[test]
    fn node_restart_is_traced() {
        use bgpvcg_netgraph::generators::structured::hypercube;
        let g = hypercube(3, Cost::new(2));
        let (mut engine, _) = converged_engine(&g);
        let (telemetry, sink) = Telemetry::ring(8192);
        engine.attach_telemetry(&telemetry);
        engine.apply_event(TopologyEvent::NodeDown(AsId::new(6)));
        engine.apply_event(TopologyEvent::NodeUp(AsId::new(6)));
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e, TraceEvent::NodeRestart { node: 6, .. })),
            "restart must be narrated"
        );
    }

    #[test]
    fn attached_telemetry_narrates_a_run() {
        let g = ring(6, Cost::new(1));
        let (telemetry, sink) = Telemetry::ring(4096);
        let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        engine.attach_telemetry(&telemetry);
        let report = engine.run_to_convergence();
        assert!(report.converged);
        let snap = telemetry.snapshot();
        // Registry counters agree with the engine's own report.
        assert_eq!(snap.counters[metric::MESSAGES], report.messages as u64);
        assert_eq!(snap.counters[metric::ENTRIES], report.entries as u64);
        assert_eq!(snap.counters[metric::BYTES], report.bytes_v2 as u64);
        assert_eq!(
            snap.gauges[metric::STAGES_TO_QUIESCENCE],
            report.stages as u64
        );
        // Plain BGP never relaxes a price.
        assert_eq!(snap.counters[metric::PRICE_RELAXATIONS], 0);
        // Per-stage wall time was observed once per executed stage (the
        // drain stage included).
        assert!(snap.histograms[metric::STAGE_WALL_NANOS].count >= report.stages as u64);
        let events = sink.events();
        let stage_starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StageStart { stage } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(stage_starts[0], 1, "stages are 1-based");
        assert!(
            stage_starts.windows(2).all(|w| w[1] == w[0] + 1),
            "stage starts are consecutive"
        );
        assert!(
            matches!(
                events.last(),
                Some(TraceEvent::Quiescent { stage, messages })
                    if *stage == report.stages as u64
                        && *messages == report.messages as u64
            ),
            "the trace ends with the run's Quiescent event"
        );
        let selected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RouteSelected { .. }))
            .count();
        assert_eq!(snap.counters[metric::ROUTES_SELECTED], selected as u64);
    }

    #[test]
    fn telemetry_traces_withdrawals_on_link_failure() {
        let g = fig1();
        let (mut engine, _) = converged_engine(&g);
        let (telemetry, sink) = Telemetry::ring(4096);
        engine.attach_telemetry(&telemetry);
        engine.apply_event(TopologyEvent::LinkDown(Fig1::D, Fig1::Z));
        let withdrawals = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Withdrawn { .. }))
            .count();
        assert!(
            withdrawals > 0,
            "losing D–Z must withdraw at least one route"
        );
        assert_eq!(
            telemetry.snapshot().counters[metric::ROUTES_WITHDRAWN],
            withdrawals as u64
        );
    }

    #[test]
    fn detached_engine_matches_attached_engine_report() {
        let g = ring(7, Cost::new(2));
        let mut plain = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        let plain_report = plain.run_to_convergence();
        let mut observed = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        observed.attach_telemetry(&Telemetry::null());
        let observed_report = observed.run_to_convergence();
        assert_eq!(
            plain_report, observed_report,
            "observation must not perturb"
        );
    }
}
