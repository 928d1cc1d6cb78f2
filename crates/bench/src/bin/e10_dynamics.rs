//! E10 — Sect. 6: "the process of converging begins again each time a
//! route is changed".
//!
//! Converges the pricing protocol on Internet-like topologies, then applies
//! single topology events — link failures (random, and at the hub), link
//! activations, and cost re-declarations — measuring reconvergence stages
//! and traffic, and verifying after every event that the distributed state
//! again equals a fresh centralized VCG computation on the changed network.
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e10_dynamics`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::stats;
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::TopologyEvent;
use bgpvcg_core::{protocol, vcg};
use bgpvcg_netgraph::{AsGraph, Cost};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    println!("E10 — reconvergence after topology events (pricing protocol)\n");
    let n = 32;
    let trials = 6;
    let mut table = Table::new([
        "family",
        "event",
        "trials",
        "mean stages",
        "max stages",
        "mean msgs",
        "exact after event",
    ]);
    // Every link is on some LCP: the direct link between two ASs is their
    // own selected route (cost 0, one hop, and no other path has one hop),
    // so a failed link always moves routes. The hub category fails a link
    // at the highest-degree node, the worst blast radius.
    for family in [
        Family::BarabasiAlbert,
        Family::Hierarchy,
        Family::ErdosRenyi,
    ] {
        for event_kind in [
            "link-down (random)",
            "link-down (at hub)",
            "cost-change",
            "link-up",
        ] {
            let mut stages = Vec::new();
            let mut msgs = Vec::new();
            let mut all_exact = true;
            let mut done = 0;
            let mut seed = 0u64;
            while done < trials && seed < 200 {
                seed += 1;
                let g = family.build(n, seed);
                let mut rng = StdRng::seed_from_u64(1_000 + seed);

                // Pick an applicable event; skip seeds where none exists.
                let (event, expected): (TopologyEvent, AsGraph) = match event_kind {
                    "link-down (random)" | "link-down (at hub)" => {
                        let hub = g
                            .nodes()
                            .max_by_key(|&k| g.degree(k))
                            .expect("non-empty graph");
                        let candidates: Vec<_> = g
                            .links()
                            .iter()
                            .filter(|l| {
                                let touches_hub = l.a() == hub || l.b() == hub;
                                (event_kind.contains("hub") == touches_hub)
                                    && g.without_link(l.a(), l.b())
                                        .is_ok_and(|g2| g2.is_biconnected())
                            })
                            .copied()
                            .collect();
                        if candidates.is_empty() {
                            continue;
                        }
                        let l = candidates[rng.gen_range(0..candidates.len())];
                        (
                            TopologyEvent::LinkDown(l.a(), l.b()),
                            g.without_link(l.a(), l.b()).unwrap(),
                        )
                    }
                    "cost-change" => {
                        let k = bgpvcg_netgraph::AsId::new(rng.gen_range(0..n as u32));
                        let new_cost = Cost::new(rng.gen_range(0..=20));
                        if new_cost == g.cost(k) {
                            continue;
                        }
                        (
                            TopologyEvent::CostChange(k, new_cost),
                            g.with_cost(k, new_cost),
                        )
                    }
                    "link-up" => {
                        // Add a random absent link.
                        let mut pair = None;
                        for _ in 0..50 {
                            let a = bgpvcg_netgraph::AsId::new(rng.gen_range(0..n as u32));
                            let b = bgpvcg_netgraph::AsId::new(rng.gen_range(0..n as u32));
                            if a != b && !g.has_link(a, b) {
                                pair = Some((a, b));
                                break;
                            }
                        }
                        let Some((a, b)) = pair else { continue };
                        (TopologyEvent::LinkUp(a, b), g.with_link(a, b).unwrap())
                    }
                    _ => unreachable!(),
                };

                let mut engine = protocol::build_sync_engine(&g).unwrap();
                engine.run_to_convergence();
                let report = engine.apply_event(event);
                if !report.converged {
                    all_exact = false;
                    continue;
                }
                let nodes: Vec<_> = engine.nodes().cloned().collect();
                let Ok(outcome) = protocol::outcome_from_nodes(&nodes) else {
                    all_exact = false;
                    continue;
                };
                let exact = vcg::compute(&expected)
                    .map(|r| r == outcome)
                    .unwrap_or(false);
                all_exact &= exact;
                stages.push(report.stages as f64);
                msgs.push(report.messages as f64);
                done += 1;
            }
            table.row([
                family.name().to_string(),
                event_kind.to_string(),
                done.to_string(),
                format!("{:.1}", stats::mean(&stages)),
                format!("{:.0}", stats::max(&stages).unwrap_or(0.0)),
                format!("{:.0}", stats::mean(&msgs)),
                all_exact.to_string(),
            ]);
            assert!(all_exact, "{} {event_kind}", family.name());
        }
    }
    println!("{table}");
    println!(
        "Paper claim: convergence restarts on route change; prices re-stabilize to VCG values."
    );
    println!("\nVERDICT: every post-event state matched a fresh centralized VCG computation");
}
