//! E20 (extension) — Byzantine adversaries, online incremental auditing,
//! and quarantine-and-reconverge recovery (Sect. 7's open problem, made
//! operational).
//!
//! The paper closes asking what stops the very ASes that run the
//! distributed algorithm from running a *different* one. E13 answered with
//! an offline replay-and-diff audit of converged tables; this experiment
//! closes the loop online: every node is shadowed by an honest replica fed
//! the actual wire deliveries (`bgpvcg-core::audit::OnlineAuditor`), so a
//! node whose advertisements diverge from what the honest protocol — same
//! inbox, same code path — would have sent is accused *while the protocol
//! runs*, quarantined through the engine's `NodeDown` machinery, and the
//! surviving network reconverges within the same run.
//!
//! Three claims are asserted, not just reported:
//!
//! 1. **Detection coverage** — each of the five seeded Byzantine
//!    strategies ([`Strategy::ALL`]) is caught on every topology family
//!    it fires on, including equivocation, which E13 proves is invisible
//!    to any offline (single-table) auditor.
//! 2. **Quarantine-and-reconverge parity** — when the residual graph
//!    stays biconnected, the post-quarantine fixpoint is *bit-identical*
//!    to a run the adversary never joined. When it would not stay
//!    biconnected (the ring), the accusation is recorded but quarantine
//!    is refused: the mechanism's preconditions outrank recovery.
//! 3. **Zero false positives** — honest runs across every family, seed,
//!    and worker count draw no accusations.
//!
//! Flags:
//!
//! * `--smoke` — reduced matrix for CI (`cargo xtask ci` runs this).
//! * `--obs-out DIR` — the shared observability bundle
//!   (`bgpvcg_bench::obs`): `flight.json`, the audit-violation flight
//!   post-mortem (the divergence recorder, armed by the auditor); the
//!   honest sweep's `health.json` (asserted finding-free even under
//!   parallel workers); and `profile.json` + `profile.folded`, the span
//!   profile of the adversarial post-mortem run, which covers the
//!   audit-shadow and adversary-tap phases. Without it the post-mortem
//!   lands in a temp dir that is removed on success. It is validated
//!   against the flight dump schema either way.
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e20_adversary`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::obs::{ObsConfig, FLIGHT};
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::{Adversary, Strategy, TopologyEvent};
use bgpvcg_core::{protocol, RoutingOutcome};
use bgpvcg_netgraph::{AsGraph, AsId};
use bgpvcg_telemetry::{flight, HealthConfig};

/// Finds a node whose removal keeps the mechanism preconditions (the
/// residual graph biconnected), together with the reference outcome of
/// "honest convergence, then that node leaves" — the fixpoint an
/// adversary-never-joined network reaches after the same quarantine.
/// `None` when no node is removable (e.g. a ring).
fn quarantine_reference(g: &AsGraph) -> Option<(AsId, RoutingOutcome)> {
    for idx in 0..g.node_count() as u32 {
        let culprit = AsId::new(idx);
        let mut engine = protocol::build_sync_engine(g).unwrap();
        assert!(engine.run_to_convergence().converged);
        if engine
            .try_apply_event(TopologyEvent::NodeDown(culprit))
            .is_ok()
        {
            let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
            return Some((culprit, outcome));
        }
    }
    None
}

struct MatrixRow {
    family: &'static str,
    strategy: Strategy,
    /// The wrapped node never actually perturbed a delivery (e.g. replay
    /// on a run with no route revisions) — behaviorally honest, so there
    /// is nothing to detect.
    idle: bool,
    detected_stage: Option<u64>,
    findings: usize,
    equivocation_flagged: bool,
    quarantined: bool,
    parity: Option<bool>,
}

/// Runs one (family, strategy) adversarial cell and checks it end to end.
fn run_cell(
    g: &AsGraph,
    family: &'static str,
    strategy: Strategy,
    culprit: AsId,
    reference: Option<&RoutingOutcome>,
    seed: u64,
) -> MatrixRow {
    let mut engine = protocol::build_audited_sync_engine(g).unwrap();
    engine.set_adversary(culprit, Adversary::new(strategy, seed));
    let report = engine.run_to_convergence();
    assert!(report.converged, "{family}/{}", strategy.name());
    assert!(
        engine.accusations().iter().all(|acc| acc.node == culprit),
        "{family}/{}: only the liar may be accused: {:?}",
        strategy.name(),
        engine.accusations()
    );
    // A surviving tap (no quarantine) reports its injection count; a
    // cleared tap means quarantine fired, which implies injection.
    let idle = engine
        .adversary(culprit)
        .is_some_and(|adv| adv.injected() == 0);
    let detected_stage = engine.accusations().first().map(|acc| acc.stage);
    let findings = engine
        .accusations()
        .iter()
        .map(|acc| acc.findings.len())
        .sum();
    let equivocation_flagged = engine
        .accusations()
        .iter()
        .flat_map(|acc| &acc.findings)
        .any(|f| f.equivocation);
    let quarantined = engine.quarantined() == [culprit];
    // Outcome extraction only makes sense post-quarantine: with the
    // adversary still wired in (quarantine refused), the converged state
    // is deliberately poisoned and has no honest reference.
    let parity = match (quarantined, reference) {
        (true, Some(reference)) => {
            let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
            Some(outcome == *reference)
        }
        _ => None,
    };
    MatrixRow {
        family,
        strategy,
        idle,
        detected_stage,
        findings,
        equivocation_flagged,
        quarantined,
        parity,
    }
}

fn main() {
    let mut smoke = false;
    let (obs, rest) = ObsConfig::extract(std::env::args().skip(1));
    for arg in rest {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: e20_adversary [--smoke] [--obs-out DIR]");
                std::process::exit(2);
            }
        }
    }

    println!("E20 — Byzantine adversaries, online auditing, quarantine-and-reconverge (Sect. 7)\n");
    let n = if smoke { 12 } else { 20 };
    let graph_seed = 51;
    let families: &[Family] = if smoke {
        &[Family::ErdosRenyi, Family::Ring]
    } else {
        &Family::ALL
    };

    // ── 1. Detection-coverage matrix ────────────────────────────────────
    let mut table = Table::new([
        "family",
        "strategy",
        "detected @stage",
        "findings",
        "equivocation flag",
        "quarantined",
        "parity vs never-joined",
    ]);
    let mut rows: Vec<MatrixRow> = Vec::new();
    for &family in families {
        let g = family.build(n, graph_seed);
        // On quarantine-capable families the culprit is a node whose
        // removal keeps the graph biconnected; on the ring no node
        // qualifies, so quarantine must be refused — pick node 0 and
        // expect detection without recovery.
        let (culprit, reference) = match quarantine_reference(&g) {
            Some((culprit, outcome)) => (culprit, Some(outcome)),
            None => (AsId::new(0), None),
        };
        for strategy in Strategy::ALL {
            let row = run_cell(&g, family.name(), strategy, culprit, reference.as_ref(), 11);
            table.row([
                row.family.to_string(),
                row.strategy.name().to_string(),
                row.detected_stage
                    .map_or(if row.idle { "never lied" } else { "-" }.to_string(), |s| {
                        s.to_string()
                    }),
                row.findings.to_string(),
                if row.equivocation_flagged {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
                match (row.quarantined, row.idle) {
                    (true, _) => "yes",
                    (false, true) => "n/a",
                    (false, false) => "refused",
                }
                .to_string(),
                match (row.parity, row.idle) {
                    (Some(true), _) => "bit-identical".to_string(),
                    (Some(false), _) => "DIVERGED".to_string(),
                    (None, true) => "n/a (honest run)".to_string(),
                    (None, false) => "n/a (not biconnected)".to_string(),
                },
            ]);
            rows.push(row);
        }
    }
    println!("{table}");

    // Assert the coverage the matrix displays: every perturbation that
    // actually hit the wire must have been detected, and an idle tap must
    // have drawn no accusation at all (a wrapped-but-honest node is
    // indistinguishable from honest — that is the zero-false-positive
    // property, not a miss).
    for row in &rows {
        if row.idle {
            assert!(
                row.detected_stage.is_none() && row.findings == 0 && !row.quarantined,
                "{}/{}: a behaviorally honest tap must not be accused",
                row.family,
                row.strategy.name()
            );
            continue;
        }
        assert!(
            row.detected_stage.is_some(),
            "{}/{}: every strategy that fires must be detected online",
            row.family,
            row.strategy.name()
        );
        assert!(row.findings > 0, "{}/{}", row.family, row.strategy.name());
        if row.strategy == Strategy::Equivocate {
            assert!(
                row.equivocation_flagged,
                "{}: equivocation must be flagged as such (the offline blind spot)",
                row.family
            );
        }
        match row.parity {
            Some(parity) => assert!(
                parity,
                "{}/{}: post-quarantine fixpoint must be bit-identical to the \
                 adversary-never-joined run",
                row.family,
                row.strategy.name()
            ),
            None => assert!(
                !row.quarantined,
                "{}/{}: no reference implies quarantine was refused",
                row.family,
                row.strategy.name()
            ),
        }
    }
    // Full coverage: every strategy fires — and is caught — somewhere.
    for strategy in Strategy::ALL {
        assert!(
            rows.iter()
                .any(|r| r.strategy == strategy && r.detected_stage.is_some()),
            "{}: must be detected on at least one family",
            strategy.name()
        );
    }
    let fired_rows = rows.iter().filter(|r| !r.idle).count();
    let idle_rows = rows.len() - fired_rows;
    let quarantined_rows = rows.iter().filter(|r| r.quarantined).count();
    let refused_rows = fired_rows - quarantined_rows;

    // ── 2. Honest runs: zero false positives ────────────────────────────
    let seeds: &[u64] = if smoke { &[7, 51] } else { &[7, 23, 51, 97] };
    let workers: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut honest_runs = 0usize;
    let mut last_health = None;
    for &family in Family::ALL.iter() {
        for &seed in seeds {
            let g = family.build(n, seed);
            let reference = protocol::run_sync(&g).unwrap();
            for &w in workers {
                let mut engine = protocol::build_audited_sync_engine(&g)
                    .unwrap()
                    .with_parallelism(w);
                engine.attach_telemetry(obs.telemetry());
                engine.attach_health(HealthConfig::default());
                assert!(engine.run_to_convergence().converged);
                assert!(
                    engine.accusations().is_empty(),
                    "{}/seed {seed}/workers {w}: honest run accused: {:?}",
                    family.name(),
                    engine.accusations()
                );
                assert!(engine.quarantined().is_empty());
                // The SLO story mirrors the audit story: honest runs draw
                // zero health findings at every worker count, not just
                // zero accusations.
                let health = engine.health_sink().expect("health attached").snapshot();
                assert!(
                    health.findings().is_empty(),
                    "{}/seed {seed}/workers {w}: honest run raised health findings: {:?}",
                    family.name(),
                    health.findings()
                );
                last_health = Some(health);
                let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
                assert_eq!(
                    outcome,
                    reference.outcome,
                    "{}/seed {seed}/workers {w}",
                    family.name()
                );
                honest_runs += 1;
            }
        }
    }
    println!(
        "Honest sweep: {honest_runs} audited runs ({} families x {} seeds x {} worker counts) — \
         0 accusations, 0 health findings, outcomes bit-identical to unaudited runs",
        Family::ALL.len(),
        seeds.len(),
        workers.len()
    );

    // ── 3. Flight post-mortem on an audit violation ─────────────────────
    let flight_out = obs.flight_path(FLIGHT);
    let g = Family::ErdosRenyi.build(n, graph_seed);
    let (culprit, _) = quarantine_reference(&g).expect("erdos-renyi keeps a removable node");
    let mut engine = protocol::build_audited_sync_engine(&g).unwrap();
    engine.attach_flight_recorder(&flight_out, 256);
    engine.attach_profiler();
    engine.set_adversary(culprit, Adversary::new(Strategy::Equivocate, 11));
    assert!(engine.run_to_convergence().converged);
    assert!(!engine.accusations().is_empty());
    let profile = engine.take_profiler().expect("profiler attached");
    let dump = std::fs::read_to_string(&flight_out).expect("accusation must dump a post-mortem");
    flight::validate_dump(&dump).expect("post-mortem must be schema-valid");
    assert!(
        dump.contains(flight::REASON_AUDIT_VIOLATION),
        "post-mortem carries the audit-violation reason"
    );
    println!(
        "Flight post-mortem: {FLIGHT} (schema-valid, reason `{}`)",
        flight::REASON_AUDIT_VIOLATION
    );
    if let Some(health) = &last_health {
        obs.write_health(health);
    }
    obs.write_profile(&profile);
    obs.finish();

    println!(
        "\nVERDICT: {fired_rows}/{fired_rows} firing adversarial cells detected online \
         ({idle_rows} idle); {quarantined_rows} quarantined with bit-identical reconvergence, \
         {refused_rows} recorded-only (residual graph not biconnected); {honest_runs} honest \
         runs with zero accusations",
    );
}
