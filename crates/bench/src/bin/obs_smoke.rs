//! Observability smoke run — the trace fixture behind `cargo xtask obs`.
//!
//! Seven traced phases sharing one telemetry handle, all but the Byzantine
//! one on the paper's Fig. 1 worked example:
//!
//! 1. **Pricing**: the full price-computation protocol converges, then the
//!    B–D link fails and the protocol reconverges (the residual graph is
//!    the 6-cycle X–A–Z–D–Y–B, still biconnected, so pricing reconverges
//!    exactly). Exercises `StageStart`, `RouteSelected`, `PriceRelaxed`,
//!    and `Quiescent`.
//! 2. **Plain BGP**: the price-free protocol converges, then the D–Z link
//!    fails; Z's transit routes through D flap away before alternatives
//!    are learned. Exercises `Withdrawn`.
//! 3. **Chaos**: the pricing protocol runs over seeded lossy channels with
//!    one node crash/restart, self-stabilizing to the fault-free fixpoint.
//!    Exercises `FaultInjected`, `Retransmit`, `SessionReset`, and
//!    `NodeRestart`.
//! 4. **Byzantine quarantine**: an equivocating wire adversary runs on the
//!    Petersen graph under the online auditor; the tap's injections, the
//!    auditor's accusation, and the resulting quarantine are all narrated.
//!    Exercises `AdversaryInjected`, `AuditViolation`, and
//!    `NodeQuarantined`. The span profiler rides along, covering the
//!    audit-shadow and adversary-tap phases on top of the hot path; its
//!    report is the bundle's `profile.json` + `profile.folded`, and its
//!    totals are emitted as `SpanSummary` events.
//! 5. **Observed honest run**: a pricing engine with the streaming health
//!    monitor and profiler attached converges cleanly; the monitor must
//!    report **zero** findings.
//! 6. **Cost-flap oscillation**: node D's declared cost is toggled
//!    repeatedly, so routes through D revisit recently-abandoned
//!    signatures; the oscillation detector must fire **exactly once**,
//!    emitting the trace's `HealthVerdict`.
//! 7. **Convergence stall**: a chaos run under a permanent link flap
//!    stops making advertised-state progress while stages keep ticking;
//!    the stall detector must fire before the stage budget runs out, and
//!    the run's close records its `HealthVerdict` though no `Quiescent`
//!    comes.
//!
//! A single invocation therefore emits every `TraceEvent` kind, which this
//! binary asserts on an in-memory copy of the stream; `cargo xtask obs`
//! decodes the written trace line by line.
//!
//! Run with: `cargo run -p bgpvcg-bench --bin obs_smoke -- --obs-out DIR`

use bgpvcg_bench::obs::ObsConfig;
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::chaos::{ChaosEngine, FaultPlan};
use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::telemetry::metric;
use bgpvcg_bgp::{Adversary, PlainBgpNode, Strategy, TopologyEvent};
use bgpvcg_core::protocol;
use bgpvcg_netgraph::generators::structured::{fig1, petersen, Fig1};
use bgpvcg_netgraph::{AsId, Cost};
use bgpvcg_telemetry::health::DETECTOR_OSCILLATION;
use bgpvcg_telemetry::{HealthConfig, RingBufferSink, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    let obs = ObsConfig::from_args();
    println!("obs_smoke — Fig. 1: traced pricing run + link failures\n");

    // Tee the event stream into a ring so this binary can summarize what
    // the bundle's trace (if any) received.
    let ring = Arc::new(RingBufferSink::new(1 << 12));
    let telemetry = obs.telemetry().tee(Arc::clone(&ring) as Arc<dyn TraceSink>);
    let g = fig1();

    // Phase 1: pricing protocol, converge, fail B–D, reconverge.
    let mut pricing = protocol::build_sync_engine(&g).expect("Fig. 1 is biconnected");
    pricing.attach_telemetry(&telemetry);
    let run = pricing.run_to_convergence();
    assert!(run.converged, "Fig. 1 pricing must converge");
    let reconverge = pricing.apply_event(TopologyEvent::LinkDown(Fig1::B, Fig1::D));
    assert!(reconverge.converged, "reconvergence after B-D failure");

    // Phase 2: plain BGP, converge, fail D–Z to flap routes away.
    let mut plain = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
    plain.attach_telemetry(&telemetry);
    assert!(plain.run_to_convergence().converged);
    assert!(
        plain
            .apply_event(TopologyEvent::LinkDown(Fig1::D, Fig1::Z))
            .converged
    );

    // Phase 3: pricing over seeded-faulty channels with a crash/restart;
    // the run must self-stabilize to the fault-free fixpoint.
    let fault_free = protocol::run_sync(&g).expect("Fig. 1 is biconnected");
    let plan = FaultPlan::lossy(7, 12).with_crash(3, Fig1::D, 9);
    let mut chaos = protocol::build_chaos_engine(&g, plan).expect("Fig. 1 is biconnected");
    chaos.attach_telemetry(&telemetry);
    let chaos_report = chaos.run_to_stable(5_000);
    assert!(chaos_report.converged, "chaos run must quiesce");
    let chaos_outcome =
        protocol::outcome_from_nodes(&chaos.into_nodes()).expect("a quiesced run has every price");
    assert_eq!(
        chaos_outcome, fault_free.outcome,
        "chaos run must self-stabilize to the fault-free fixpoint"
    );

    // Phase 4: a Byzantine equivocator under the online auditor. Petersen
    // is 3-connected, so quarantining the culprit is always a valid
    // recovery and the run reconverges on the honest residual graph.
    let adversarial = petersen(Cost::new(2));
    let culprit = AsId::new(4);
    let mut audited =
        protocol::build_audited_sync_engine(&adversarial).expect("Petersen is biconnected");
    audited.attach_telemetry(&telemetry);
    audited.attach_profiler();
    audited.set_adversary(culprit, Adversary::new(Strategy::Equivocate, 11));
    assert!(
        audited.run_to_convergence().converged,
        "audited adversarial run must reconverge after quarantine"
    );
    assert_eq!(
        audited.quarantined(),
        &[culprit],
        "the equivocator must be quarantined"
    );
    // The audited adversarial run exercises the widest span set: stage,
    // route-select, wire-encode, price-relax, audit-shadow and
    // adversary-tap — ≥ 6 phases with nonzero counts.
    let profiler = audited.profiler().expect("profiler attached");
    let covered = (0..bgpvcg_telemetry::profile::span::NAMES.len())
        .filter(|&id| profiler.stat(id).0 > 0)
        .count();
    assert!(
        covered >= 6,
        "profile must cover >= 6 span phases, got {covered}"
    );
    assert_eq!(profiler.truncated(), 0, "span stack must never overflow");
    obs.write_profile(profiler);

    // Phase 5: an honest observed run — health monitor + profiler attached,
    // cleanly convergent, and therefore finding-free.
    let mut observed = protocol::build_sync_engine(&g).expect("Fig. 1 is biconnected");
    observed.attach_telemetry(&telemetry);
    observed.attach_health(HealthConfig::default());
    observed.attach_profiler();
    assert!(observed.run_to_convergence().converged);
    let honest_findings = observed.health_sink().expect("health attached").findings();
    assert!(
        honest_findings.is_empty(),
        "honest convergence must raise zero health findings: {honest_findings:?}"
    );

    // Phase 6: flap D's declared cost so routes through D keep revisiting
    // recently-abandoned signatures — the oscillation detector must fire
    // exactly once (at most one finding per detector per run).
    let mut flappy = protocol::build_sync_engine(&g).expect("Fig. 1 is biconnected");
    flappy.attach_telemetry(&telemetry);
    flappy.attach_health(HealthConfig::default());
    assert!(flappy.run_to_convergence().converged);
    for round in 0..6u64 {
        let cost = if round % 2 == 0 {
            Cost::new(9)
        } else {
            Cost::new(1)
        };
        assert!(
            flappy
                .apply_event(TopologyEvent::CostChange(Fig1::D, cost))
                .converged,
            "each cost flap must still reconverge"
        );
    }
    let flap_findings = flappy.health_sink().expect("health attached").findings();
    assert_eq!(
        flap_findings.len(),
        1,
        "cost flapping must seed exactly one finding: {flap_findings:?}"
    );
    assert_eq!(flap_findings[0].detector, DETECTOR_OSCILLATION);
    println!(
        "health: cost flap seeded 1 oscillation finding (node {}, dest {}, {} revisits)",
        flap_findings[0].node, flap_findings[0].dest, flap_findings[0].count
    );

    // Phase 7: a permanent link flap starves the chaos run of progress;
    // the stall detector must fire before the stage budget expires.
    let stall_plan = FaultPlan::quiet().with_flap(5, 10_000, Fig1::B, Fig1::D);
    let mut stall = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), stall_plan);
    stall.attach_telemetry(&telemetry);
    stall.attach_health(HealthConfig {
        stall_stages: 24,
        ..HealthConfig::default()
    });
    let stall_report = stall.run_to_stable(160);
    assert!(
        !stall_report.converged,
        "a permanently flapped link must not stabilize"
    );
    assert!(
        stall.health_sink().expect("health attached").stalled(),
        "the stall detector must fire before the stage budget"
    );
    println!("health: a permanent link flap stalled the chaos run before its stage budget");

    let mut kind_counts: BTreeMap<&str, u64> = BTreeMap::new();
    for event in ring.events() {
        *kind_counts.entry(event.kind()).or_insert(0) += 1;
    }
    let mut table = Table::new(["event kind", "count"]);
    for (kind, count) in &kind_counts {
        table.row([(*kind).to_string(), count.to_string()]);
    }
    println!("{table}");

    let snapshot = telemetry.snapshot();
    println!(
        "pricing: {} stages, {} messages; reconvergence: {} stages, {} messages",
        run.stages, run.messages, reconverge.stages, reconverge.messages
    );
    println!("chaos: {chaos_report}");
    println!(
        "registry: {} updates, {} relaxations, {} withdrawals",
        snapshot.counters[metric::UPDATES_SENT],
        snapshot.counters[metric::PRICE_RELAXATIONS],
        snapshot.counters[metric::ROUTES_WITHDRAWN],
    );

    // The whole point of this fixture: every event kind must be present.
    for kind in TraceEvent::KINDS {
        assert!(
            kind_counts.get(kind).copied().unwrap_or(0) > 0,
            "smoke trace must contain at least one {kind} event"
        );
    }
    // Exactly the seeded findings: one oscillation (phase 6) plus one
    // stall (phase 7) — the honest phases contribute nothing.
    assert_eq!(
        kind_counts.get("HealthVerdict").copied().unwrap_or(0),
        2,
        "the trace must carry exactly the two seeded health verdicts"
    );
    println!(
        "\nVERDICT: all {} trace event kinds emitted",
        kind_counts.len()
    );
    obs.finish();
}
