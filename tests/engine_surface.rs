//! The one engine surface, checked across both transports.
//!
//! Topology events, validation, the auditor and the stage accounting live
//! once on `Engine<N, T>`, so an announced event must land the same way
//! whether the nodes talk in lock-step or over quiet sessions: the same
//! `(routes, prices)` bit for bit, equal to a cold lock-step run on the
//! post-event graph, and the same typed error for an invalid event.

use bgp_vcg::bgp::chaos::{ChaosEngine, FaultPlan};
use bgp_vcg::bgp::engine::SyncEngine;
use bgp_vcg::bgp::telemetry::metric;
use bgp_vcg::bgp::{Adversary, ProtocolNode, Strategy, TopologyEvent};
use bgp_vcg::core::audit::OnlineAuditor;
use bgp_vcg::netgraph::generators::structured::{fig1, hypercube, petersen};
use bgp_vcg::netgraph::generators::{barabasi_albert, random_costs};
use bgp_vcg::{protocol, AsGraph, AsId, Cost, GraphError, PricingBgpNode, RoutingOutcome};
use bgpvcg_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_STAGES: u64 = 5_000;

fn graphs() -> Vec<(&'static str, AsGraph)> {
    let mut rng = StdRng::seed_from_u64(32);
    vec![
        ("fig1", fig1()),
        ("hypercube(3)", hypercube(3, Cost::new(2))),
        (
            "BA n=32",
            barabasi_albert(random_costs(32, 1, 9, &mut rng), 2, &mut rng),
        ),
    ]
}

fn outcome<'a>(nodes: impl Iterator<Item = &'a PricingBgpNode>) -> RoutingOutcome {
    let nodes: Vec<PricingBgpNode> = nodes.cloned().collect();
    protocol::outcome_from_nodes(&nodes).expect("converged prices")
}

fn lock_step(g: &AsGraph) -> SyncEngine<PricingBgpNode> {
    // No mechanism precondition check: a post-event graph may hold an
    // isolated (crashed) node.
    let mut engine = SyncEngine::new(g, PricingBgpNode::from_graph(g));
    assert!(engine.run_to_convergence().converged);
    engine
}

fn sessions(g: &AsGraph) -> ChaosEngine<PricingBgpNode> {
    let mut engine = ChaosEngine::new(g, PricingBgpNode::from_graph(g), FaultPlan::quiet());
    assert!(engine.run_to_stable(MAX_STAGES).converged);
    engine
}

/// A link whose loss keeps the graph biconnected.
fn removable_link(g: &AsGraph) -> (AsId, AsId) {
    let link = g.links().iter().find(|l| {
        g.without_link(l.a(), l.b())
            .is_ok_and(|rest| rest.is_biconnected())
    });
    let link = link.expect("a removable link");
    (link.a(), link.b())
}

/// A node the engine lets crash.
fn removable_node(g: &AsGraph) -> AsId {
    let mut engine = lock_step(g);
    g.nodes()
        .find(|&k| engine.try_apply_event(TopologyEvent::NodeDown(k)).is_ok())
        .expect("a removable node")
}

/// `g` with every link of `k` gone: the graph a crash of `k` leaves.
fn isolate(g: &AsGraph, k: AsId) -> AsGraph {
    let mut rest = g.clone();
    for &a in g.neighbors(k) {
        rest = rest.without_link(k, a).expect("a link of k");
    }
    rest
}

/// One event kind on one graph: where both engines start, what they
/// replay first, the event, and the graph the event leaves.
struct Case {
    kind: &'static str,
    start: AsGraph,
    prelude: Vec<TopologyEvent>,
    event: TopologyEvent,
    after: AsGraph,
}

fn cases(g: &AsGraph) -> Vec<Case> {
    let (a, b) = removable_link(g);
    let k = removable_node(g);
    let busiest = g
        .nodes()
        .max_by_key(|&x| g.neighbors(x).len())
        .expect("nodes");
    let cost = g.cost(busiest) + Cost::new(5);
    let without = g.without_link(a, b).expect("a link");
    vec![
        Case {
            kind: "LinkDown",
            start: g.clone(),
            prelude: Vec::new(),
            event: TopologyEvent::LinkDown(a, b),
            after: without.clone(),
        },
        Case {
            kind: "LinkUp",
            start: without,
            prelude: Vec::new(),
            event: TopologyEvent::LinkUp(a, b),
            after: g.clone(),
        },
        Case {
            kind: "CostChange",
            start: g.clone(),
            prelude: Vec::new(),
            event: TopologyEvent::CostChange(busiest, cost),
            after: g.with_cost(busiest, cost),
        },
        Case {
            kind: "NodeDown",
            start: g.clone(),
            prelude: Vec::new(),
            event: TopologyEvent::NodeDown(k),
            after: isolate(g, k),
        },
        Case {
            kind: "NodeUp",
            start: g.clone(),
            prelude: vec![TopologyEvent::NodeDown(k)],
            event: TopologyEvent::NodeUp(k),
            after: g.clone(),
        },
    ]
}

#[test]
fn every_event_kind_lands_on_the_same_fixpoint_under_both_transports() {
    for (name, g) in graphs() {
        for case in cases(&g) {
            let what = format!("{name}/{}", case.kind);
            let mut sync = lock_step(&case.start);
            let mut chaos = sessions(&case.start);
            for event in case.prelude.iter().chain([&case.event]) {
                assert!(sync.try_apply_event(*event).unwrap().converged, "{what}");
                assert!(chaos.try_apply_event(*event).unwrap().converged, "{what}");
            }
            let expected = outcome(lock_step(&case.after).nodes());
            assert_eq!(outcome(sync.nodes()), expected, "{what}: lock-step");
            assert_eq!(outcome(chaos.nodes()), expected, "{what}: sessions");
        }
    }
}

#[test]
fn invalid_events_fail_alike_and_mutate_nothing() {
    for (name, g) in graphs() {
        let k = removable_node(&g);
        let (a, b) = removable_link(&g);
        let stranger = g
            .nodes()
            .find(|&x| x != a && !g.neighbors(a).contains(&x))
            .expect("a non-neighbor");
        let ghost = AsId::new(g.node_count() as u32 + 7);
        let invalid = [
            (
                TopologyEvent::LinkDown(a, stranger),
                GraphError::MissingLink(a, stranger),
            ),
            (TopologyEvent::LinkUp(a, b), GraphError::DuplicateLink(a, b)),
            (TopologyEvent::LinkUp(a, a), GraphError::SelfLoop(a)),
            (
                TopologyEvent::CostChange(ghost, Cost::new(1)),
                GraphError::UnknownNode(ghost),
            ),
            (TopologyEvent::NodeUp(k), GraphError::NodeOnline(k)),
            (
                TopologyEvent::NodeDown(ghost),
                GraphError::UnknownNode(ghost),
            ),
        ];
        let mut sync = lock_step(&g);
        let mut chaos = sessions(&g);
        let before = outcome(sync.nodes());
        let stage = chaos.stage();
        for (event, error) in invalid {
            assert_eq!(
                sync.try_apply_event(event),
                Err(error.clone()),
                "{name}: {event:?}"
            );
            assert_eq!(
                chaos.try_apply_event(event),
                Err(error),
                "{name}: {event:?}"
            );
        }
        // Nothing was touched: both engines are still quiescent on the
        // fixpoint they reached.
        assert_eq!(sync.run_to_convergence().messages, 0, "{name}");
        assert_eq!(chaos.run_to_stable(MAX_STAGES).stages, stage, "{name}");
        assert_eq!(outcome(sync.nodes()), before, "{name}");
        assert_eq!(outcome(chaos.nodes()), before, "{name}");
        // A crashed node can neither crash again, re-declare, nor link up.
        sync.apply_event(TopologyEvent::NodeDown(k));
        chaos.apply_event(TopologyEvent::NodeDown(k));
        for (event, error) in [
            (TopologyEvent::NodeDown(k), GraphError::NodeOffline(k)),
            (
                TopologyEvent::CostChange(k, Cost::new(3)),
                GraphError::NodeOffline(k),
            ),
            (
                TopologyEvent::LinkUp(stranger, k),
                GraphError::NodeOffline(k),
            ),
        ] {
            if stranger == k {
                continue;
            }
            assert_eq!(
                sync.try_apply_event(event),
                Err(error.clone()),
                "{name}: {event:?}"
            );
            assert_eq!(
                chaos.try_apply_event(event),
                Err(error),
                "{name}: {event:?}"
            );
        }
        assert_eq!(outcome(sync.nodes()), outcome(chaos.nodes()), "{name}");
        sync.apply_event(TopologyEvent::NodeUp(k));
        chaos.apply_event(TopologyEvent::NodeUp(k));
        assert_eq!(outcome(sync.nodes()), before, "{name}");
        assert_eq!(outcome(chaos.nodes()), before, "{name}");
    }
}

/// Quiet sessions, the delay-only plans of Sect. 5–6 under three seeds,
/// and lossy sessions, which retransmit, with and without a silent crash
/// of node `n/2 + 1`: every copy sent is delivered, so the auditor must
/// follow. A silently crashed node's neighbours keep sending to it until
/// their hold timers fire, which is no lie.
fn reliable_plans(g: &AsGraph) -> Vec<(String, FaultPlan)> {
    let delayed = (1..=3).map(|seed| {
        (
            format!("asynchronous({seed})"),
            FaultPlan::asynchronous(seed),
        )
    });
    let k = AsId::new(g.node_count() as u32 / 2 + 1);
    std::iter::once(("quiet".to_string(), FaultPlan::quiet()))
        .chain(delayed)
        .chain([
            ("lossy(5, 16)".to_string(), FaultPlan::lossy(5, 16)),
            (
                format!("lossy(5, 16) + crash of {k}"),
                FaultPlan::lossy(5, 16).with_crash(4, k, 11),
            ),
        ])
        .collect()
}

#[test]
fn an_honest_audited_reliable_session_run_accuses_no_one() {
    let petersen = ("Petersen", petersen(Cost::new(2)));
    for (name, g) in graphs().into_iter().chain([petersen]) {
        for (plan_name, plan) in reliable_plans(&g) {
            let what = format!("{name}, {plan_name}");
            let mut audited = ChaosEngine::new(&g, PricingBgpNode::from_graph(&g), plan);
            audited.attach_auditor(Box::new(OnlineAuditor::new(&g)));
            let report = audited.run_to_stable(MAX_STAGES);
            assert!(report.converged, "{what}: {report}");
            assert_eq!(
                outcome(audited.nodes()),
                outcome(lock_step(&g).nodes()),
                "{what}"
            );
            // Announced events are narrated to the auditor too.
            let (a, b) = removable_link(&g);
            for event in [
                TopologyEvent::LinkDown(a, b),
                TopologyEvent::LinkUp(a, b),
                TopologyEvent::CostChange(a, g.cost(a) + Cost::new(4)),
            ] {
                assert!(audited.apply_event(event).converged, "{what}: {event:?}");
            }
            assert!(
                audited.accusations().is_empty(),
                "{what}: {:?}",
                audited.accusations()
            );
            assert!(audited.quarantined().is_empty(), "{what}");
            let mut expected = lock_step(&g);
            expected.apply_event(TopologyEvent::CostChange(a, g.cost(a) + Cost::new(4)));
            assert_eq!(
                outcome(audited.nodes()),
                outcome(expected.nodes()),
                "{what}"
            );
        }
    }
}

#[test]
fn every_liar_is_caught_and_quarantined_under_delay() {
    // Petersen is 3-connected: without any one node it stays biconnected,
    // so quarantine is always a valid recovery.
    let g = petersen(Cost::new(2));
    let culprit = AsId::new(4);
    let never_joined = {
        let mut engine = lock_step(&g);
        engine.apply_event(TopologyEvent::NodeDown(culprit));
        outcome(engine.nodes())
    };
    for seed in [1, 2] {
        for strategy in Strategy::ALL {
            let what = format!("{}, asynchronous({seed})", strategy.name());
            let plan = FaultPlan::asynchronous(seed);
            let mut engine = ChaosEngine::new(&g, PricingBgpNode::from_graph(&g), plan);
            engine.attach_auditor(Box::new(OnlineAuditor::new(&g)));
            engine.set_adversary(culprit, Adversary::new(strategy, 11));
            let report = engine.run_to_stable(MAX_STAGES);
            assert!(report.converged, "{what}: {report}");
            assert!(
                engine.accusations().iter().all(|acc| acc.node == culprit),
                "{what}: only the liar is accused: {:?}",
                engine.accusations()
            );
            assert_eq!(engine.quarantined(), &[culprit], "{what}");
            assert_eq!(outcome(engine.nodes()), never_joined, "{what}");
        }
    }
}

#[test]
fn a_stepped_audited_run_accuses_like_a_whole_one() {
    let (_, g) = graphs().pop().expect("BA n=32");
    let build = || {
        let mut engine = protocol::build_audited_sync_engine(&g).unwrap();
        engine.set_auto_quarantine(false);
        engine.set_adversary(AsId::new(0), Adversary::new(Strategy::PriceInflate, 11));
        engine.set_adversary(AsId::new(1), Adversary::new(Strategy::Equivocate, 5));
        engine
    };
    let mut whole = build();
    assert!(whole.run_to_convergence().converged);
    let mut stepped = build();
    while stepped.step().is_some() {}
    assert!(!whole.accusations().is_empty(), "both taps lie");
    assert_eq!(stepped.accusations(), whole.accusations());
    for (s, w) in stepped.nodes().zip(whole.nodes()) {
        assert_eq!(s.state(), w.state());
    }
}

/// The traced run's per-stage closure sees what a stepped twin shows after
/// each `step()`: the same `StageTrace` and the same node states (their
/// full `Debug` form: routes, prices, Adj-RIBs), stage by stage.
#[test]
fn the_traced_closure_sees_what_a_stepped_run_sees() {
    fn states<'a>(nodes: impl Iterator<Item = &'a PricingBgpNode>) -> Vec<String> {
        nodes.map(|node| format!("{node:?}")).collect()
    }
    for (name, g) in graphs() {
        let mut traced = protocol::build_sync_engine(&g).unwrap();
        let mut seen = Vec::new();
        let report =
            traced.run_to_convergence_traced(|t, nodes| seen.push((t, states(nodes.iter()))));
        assert!(report.converged, "{name}");
        let mut stepped = protocol::build_sync_engine(&g).unwrap();
        let mut expected = Vec::new();
        while let Some(t) = stepped.step() {
            expected.push((t, states(stepped.nodes())));
        }
        assert!(!seen.is_empty(), "{name}");
        assert_eq!(seen, expected, "{name}");
    }
}

#[test]
fn a_session_run_feeds_the_protocol_metrics() {
    let (_, g) = graphs().pop().expect("BA n=32");
    let plan = FaultPlan::lossy(7, 16).with_crash(4, AsId::new(9), 11);
    let mut engine = protocol::build_chaos_engine(&g, plan).unwrap();
    let telemetry = Telemetry::null();
    engine.attach_telemetry(&telemetry);
    let report = engine.run_to_stable(MAX_STAGES);
    assert!(report.converged, "{report}");
    let snap = telemetry.snapshot();
    assert_eq!(snap.counters[metric::MESSAGES], report.messages);
    assert_eq!(snap.counters[metric::BYTES], report.bytes_v2);
    assert_eq!(snap.gauges[metric::STAGES_TO_QUIESCENCE], report.stages);
    assert!(snap.counters[metric::ENTRIES] > 0);
    assert!(snap.counters[metric::UPDATES_SENT] > 0);
    assert_eq!(
        snap.histograms[metric::STAGE_WALL_NANOS].count,
        report.stages
    );
}

#[test]
fn a_two_worker_session_run_repeats_the_serial_one() {
    let (_, g) = graphs().pop().expect("BA n=32");
    let plan = FaultPlan::lossy(3, 12).with_crash(3, AsId::new(5), 8);
    let run = |workers: usize| {
        let engine = protocol::build_chaos_engine(&g, plan.clone()).unwrap();
        let mut engine = engine.with_parallelism(workers);
        let report = engine.run_to_stable(MAX_STAGES);
        assert!(report.converged, "{report}");
        (report, outcome(engine.nodes()))
    };
    assert_eq!(run(2), run(1));
}
