//! Heavier soak tests, `#[ignore]`d by default (run with
//! `cargo test --release -- --ignored`). These push sizes and event counts
//! well beyond the regular suite; they exist to catch anything that only
//! shows up at scale (quadratic blowups, counter overflows, convergence
//! pathologies).

use bgp_vcg::bgp::TopologyEvent;
use bgp_vcg::netgraph::generators::{barabasi_albert, random_costs};
use bgp_vcg::{protocol, vcg, AsGraph, AsId, Cost};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn big_graph(n: usize, seed: u64) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = random_costs(n, 1, 10, &mut rng);
    barabasi_albert(costs, 2, &mut rng)
}

/// Full distributed-vs-centralized exactness at n = 128 (≈ 16k pairs,
/// ≈ 100k priced entries).
#[test]
#[ignore = "soak test: run with --ignored (release recommended)"]
fn exactness_at_n128() {
    let g = big_graph(128, 1);
    let run = protocol::run_sync(&g).unwrap();
    assert!(run.report.converged);
    assert_eq!(run.outcome, vcg::compute(&g).unwrap());
}

/// An event storm: 25 random events applied in sequence, with exactness
/// verified against a fresh centralized computation after every one.
#[test]
#[ignore = "soak test: run with --ignored (release recommended)"]
fn event_storm_stays_exact() {
    let mut g = big_graph(48, 2);
    let mut engine = protocol::build_sync_engine(&g).unwrap();
    engine.run_to_convergence();
    let mut rng = StdRng::seed_from_u64(3);
    let mut applied = 0;
    let mut guard = 0;
    while applied < 25 && guard < 500 {
        guard += 1;
        let event = match rng.gen_range(0..4) {
            0 => {
                let link = g.links()[rng.gen_range(0..g.link_count())];
                let Ok(reduced) = g.without_link(link.a(), link.b()) else {
                    continue;
                };
                if !reduced.is_biconnected() {
                    continue;
                }
                TopologyEvent::LinkDown(link.a(), link.b())
            }
            1 => {
                let a = AsId::new(rng.gen_range(0..g.node_count() as u32));
                let b = AsId::new(rng.gen_range(0..g.node_count() as u32));
                if a == b || g.has_link(a, b) {
                    continue;
                }
                TopologyEvent::LinkUp(a, b)
            }
            2 => {
                let k = AsId::new(rng.gen_range(0..g.node_count() as u32));
                let c = Cost::new(rng.gen_range(0..15));
                if c == g.cost(k) {
                    continue;
                }
                TopologyEvent::CostChange(k, c)
            }
            _ => {
                // Crash/restart round-trip: take a node down (if the
                // survivors stay biconnected — otherwise the fallible
                // path must reject it without damage) and bring it
                // straight back, so the engine must reconverge to the
                // full-graph fixpoint.
                let k = AsId::new(rng.gen_range(0..g.node_count() as u32));
                match engine.try_apply_event(TopologyEvent::NodeDown(k)) {
                    Ok(down) => {
                        assert!(down.converged, "NodeDown({k}) must reconverge");
                        TopologyEvent::NodeUp(k)
                    }
                    Err(_) => continue,
                }
            }
        };
        let report = engine.apply_event(event);
        assert!(report.converged, "event #{applied}: {event:?}");
        g = match event {
            TopologyEvent::LinkDown(a, b) => g.without_link(a, b).unwrap(),
            TopologyEvent::LinkUp(a, b) => g.with_link(a, b).unwrap(),
            TopologyEvent::CostChange(k, c) => g.with_cost(k, c),
            // The paired NodeDown already parked and restored the same
            // links, so the reference topology is unchanged.
            TopologyEvent::NodeUp(_) => g,
            TopologyEvent::NodeDown(_) => unreachable!("storm applies crashes as down/up pairs"),
        };
        let nodes: Vec<_> = engine.nodes().cloned().collect();
        let outcome = protocol::outcome_from_nodes(&nodes).unwrap();
        assert_eq!(
            outcome,
            vcg::compute(&g).unwrap(),
            "after event #{applied}: {event:?}"
        );
        applied += 1;
    }
    assert_eq!(applied, 25, "storm must complete");
}

/// Asynchronous soak: seed-drawn link interleavings at n = 64, several
/// seeds, all reaching the exact fixpoint without a session restart.
#[test]
#[ignore = "soak test: run with --ignored (release recommended)"]
fn chaotic_async_soak() {
    use bgp_vcg::bgp::FaultPlan;
    let g = big_graph(64, 4);
    let reference = vcg::compute(&g).unwrap();
    for seed in 0..4 {
        let plan = FaultPlan::asynchronous(seed);
        let (outcome, report) = protocol::run_chaos(&g, plan, 2_000).unwrap();
        assert!(report.converged, "seed {seed}: {report}");
        assert_eq!(report.holds_fired, 0, "seed {seed}: {report}");
        assert_eq!(report.session_resets, 2 * g.link_count() as u64);
        assert_eq!(outcome, reference, "seed {seed}");
    }
}
