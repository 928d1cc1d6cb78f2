//! E13 (extension) — auditing the computation itself (Sect. 7's open
//! problem).
//!
//! The paper asks: "even if the ASs input their true costs, what is to
//! stop them from running a different algorithm that computes prices more
//! favorable to them?" This experiment evaluates the replay-and-diff
//! auditor in `bgpvcg-core::audit`: on honest converged networks it raises
//! no findings; against a battery of unilateral manipulations (inflated
//! price entries, understated route costs, suppressed routes, fabricated
//! cheaper paths) it flags the manipulator every time.
//!
//! A second battery routes the wire-level Byzantine [`Strategy`] models
//! (the E20 adversaries) through the *same offline auditor*, by feeding it
//! the one table a route collector would hold. That exposes the offline
//! vantage point's structural blind spot: **equivocation**. A collector
//! (or any single neighbor) sees one self-consistent table per AS; when
//! an equivocator hands it the honest copy, there is provably nothing to
//! find — only the cross-neighbor comparison of the online auditor
//! (`bgpvcg-core::audit::OnlineAuditor`, exercised by E20) can see that
//! two neighbors were told different stories. The table below shows every
//! strategy's lying copy is caught offline, while the equivocator's
//! honest copy draws zero findings.
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e13_audit`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::{Adversary, RouteAdvertisement, RouteInfo, Strategy, Update};
use bgpvcg_core::{audit, protocol, PricingBgpNode};
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn converged_nodes(g: &AsGraph) -> Vec<PricingBgpNode> {
    let mut engine = protocol::build_sync_engine(g).unwrap();
    assert!(engine.run_to_convergence().converged);
    engine.into_nodes()
}

/// Applies one named manipulation to a node's advertisements; returns
/// `false` if the manipulation is inapplicable (e.g. no priced entry).
fn tamper(kind: &str, ads: &mut Vec<RouteAdvertisement>, rng: &mut StdRng) -> bool {
    match kind {
        "inflate price" => {
            for ad in ads.iter_mut() {
                if let RouteInfo::Reachable { prices, .. } = &mut ad.info {
                    if let Some(p) = prices.first_mut() {
                        if p.is_finite() {
                            *p += Cost::new(25);
                            return true;
                        }
                    }
                }
            }
            false
        }
        "understate cost" => {
            for ad in ads.iter_mut() {
                if let RouteInfo::Reachable { path_cost, .. } = &mut ad.info {
                    if path_cost.finite().is_some_and(|c| c > 0) {
                        *path_cost = Cost::ZERO;
                        return true;
                    }
                }
            }
            false
        }
        "suppress route" => {
            if ads.len() < 2 {
                return false;
            }
            let victim = rng.gen_range(0..ads.len());
            ads.remove(victim);
            true
        }
        "shorten path" => {
            for ad in ads.iter_mut() {
                if let RouteInfo::Reachable { path, prices, .. } = &mut ad.info {
                    if path.len() >= 3 {
                        // Claim a direct-ish route by deleting a transit hop.
                        // Shared paths are immutable: rebuild without it.
                        let mut entries: Vec<_> = path.iter().collect();
                        entries.remove(1);
                        *path = entries.into();
                        prices.clear();
                        return true;
                    }
                }
            }
            false
        }
        _ => unreachable!(),
    }
}

/// Routes one wire [`Strategy`] through the offline auditor: the subject's
/// converged full table is perturbed exactly as the adversary would
/// deliver it to the neighbor at adjacency position `rank`, and that
/// single observed table is audited against the honest neighborhood.
///
/// Returns `None` when the adversary left this delivery honest (no
/// injection — nothing for any auditor to find), otherwise the number of
/// offline findings against the perturbed table.
fn offline_findings(
    g: &AsGraph,
    nodes: &[PricingBgpNode],
    subject: AsId,
    strategy: Strategy,
    rank: usize,
) -> Option<usize> {
    let neighbors = g.neighbors(subject);
    let to = *neighbors.get(rank)?;
    let ads = audit::converged_advertisements(&nodes[subject.index()]);
    let table = |advertisements: Vec<RouteAdvertisement>| Update {
        from: subject,
        sender_costs: Vec::new(),
        advertisements,
        id: 0,
    };
    let mut adversary = Adversary::new(strategy, 11);
    if strategy == Strategy::Replay {
        // Replay needs history: prime the freeze memory with the
        // pre-convergence revision (the converged routes at their earlier,
        // not-yet-relaxed costs), so perturbing the final table re-sends
        // the stale copy.
        let stale: Vec<RouteAdvertisement> = ads
            .iter()
            .map(|ad| {
                let mut ad = ad.clone();
                if let RouteInfo::Reachable { path_cost, .. } = &mut ad.info {
                    *path_cost = path_cost.saturating_add(Cost::new(1));
                }
                ad
            })
            .collect();
        let _ = adversary.perturb(to, rank, &table(stale));
    }
    let perturbed = adversary.perturb(to, rank, &table(ads))?;
    let neighbor_tables: Vec<(AsId, Vec<RouteAdvertisement>)> = neighbors
        .iter()
        .map(|&a| (a, audit::converged_advertisements(&nodes[a.index()])))
        .collect();
    Some(audit::audit_node(g, subject, &perturbed.advertisements, &neighbor_tables).len())
}

fn main() {
    println!("E13 — replay-and-diff audit of the distributed computation (Sect. 7)\n");
    let n = 20;
    let kinds = [
        "inflate price",
        "understate cost",
        "suppress route",
        "shorten path",
    ];
    let mut table = Table::new([
        "family",
        "honest findings",
        "manipulations tried",
        "detected",
    ]);
    let mut total_tried = 0;
    let mut total_detected = 0;
    for family in [
        Family::BarabasiAlbert,
        Family::ErdosRenyi,
        Family::Hierarchy,
    ] {
        let g = family.build(n, 51);
        let nodes = converged_nodes(&g);
        let honest = audit::audit_network(&g, &nodes).len();

        let mut rng = StdRng::seed_from_u64(5151);
        let mut tried = 0;
        let mut detected = 0;
        for kind in kinds {
            for _ in 0..4 {
                let subject = AsId::new(rng.gen_range(0..n as u32));
                let mut ads = audit::converged_advertisements(&nodes[subject.index()]);
                if !tamper(kind, &mut ads, &mut rng) {
                    continue;
                }
                let neighbor_tables: Vec<(AsId, Vec<RouteAdvertisement>)> = g
                    .neighbors(subject)
                    .iter()
                    .map(|&a| (a, audit::converged_advertisements(&nodes[a.index()])))
                    .collect();
                tried += 1;
                if !audit::audit_node(&g, subject, &ads, &neighbor_tables).is_empty() {
                    detected += 1;
                }
            }
        }
        total_tried += tried;
        total_detected += detected;
        table.row([
            family.name().to_string(),
            honest.to_string(),
            tried.to_string(),
            detected.to_string(),
        ]);
        assert_eq!(honest, 0, "{}: honest network must pass", family.name());
    }
    println!("{table}");
    println!(
        "Paper's open problem: nothing in the mechanism stops an AS from running a different \
         algorithm; this auditor replays each node's computation from its neighbors' converged \
         advertisements."
    );

    // ── The wire-level Byzantine strategies through the offline lens ────
    //
    // The lying copy is audited (rank-1 delivery); for the equivocator the
    // honest rank-0 copy is audited too, demonstrating the blind spot.
    println!("\nWire strategies (E20 adversary models) through the offline auditor:\n");
    let g = Family::ErdosRenyi.build(n, 51);
    let nodes = converged_nodes(&g);
    let mut strategy_table =
        Table::new(["strategy", "injected", "detected", "honest-copy findings"]);
    let mut honest_copy_findings = 0usize;
    for strategy in Strategy::ALL {
        let mut injected = 0;
        let mut detected = 0;
        for idx in 0..n as u32 {
            let subject = AsId::new(idx);
            // Rank 1: a neighbor every strategy actually lies to.
            if let Some(findings) = offline_findings(&g, &nodes, subject, strategy, 1) {
                injected += 1;
                if findings > 0 {
                    detected += 1;
                }
            }
        }
        // Rank 0: the copy the equivocator keeps honest. For every other
        // strategy the perturbation is rank-independent, so this column
        // only separates equivocation.
        let honest_copy = if strategy == Strategy::Equivocate {
            let findings: usize = (0..n as u32)
                .filter_map(|idx| offline_findings(&g, &nodes, AsId::new(idx), strategy, 0))
                .sum();
            honest_copy_findings += findings;
            findings.to_string()
        } else {
            "n/a".to_string()
        };
        assert!(
            injected > 0,
            "{}: strategy must fire on this graph",
            strategy.name()
        );
        assert_eq!(
            detected,
            injected,
            "{}: every lying copy must be caught offline",
            strategy.name()
        );
        total_tried += injected;
        total_detected += detected;
        strategy_table.row([
            strategy.name().to_string(),
            injected.to_string(),
            detected.to_string(),
            honest_copy,
        ]);
    }
    println!("{strategy_table}");
    assert_eq!(
        honest_copy_findings, 0,
        "the equivocator's honest copy is clean — offline auditing cannot see equivocation"
    );
    println!(
        "Blind spot: the equivocator's honest copy draws {honest_copy_findings} findings — a \
         collector holding one table per AS provably cannot detect cross-neighbor inconsistency. \
         Only the online per-link comparison (E20) catches equivocation as such."
    );
    println!(
        "\nVERDICT: 0 findings on honest networks; {total_detected}/{total_tried} unilateral \
         manipulations detected; equivocation invisible offline (by construction)"
    );
    assert_eq!(total_detected, total_tried);
}
