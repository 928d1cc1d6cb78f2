//! Cross-checking the computation itself (paper, Sect. 7).
//!
//! The paper closes on an unresolved tension: the mechanism removes the
//! incentive to lie about *costs*, "but it is these very ASs that implement
//! the distributed algorithm we have designed … what is to stop them from
//! running a different algorithm that computes prices more favorable to
//! them?" A full answer needs cryptographic or replication machinery beyond
//! the paper's scope, but a useful first line of defence is possible with
//! the data the protocol already exchanges: every quantity a node
//! advertises is a deterministic function of its neighbors' advertisements,
//! so an auditor holding the converged advertisements of a node's
//! neighborhood can **recompute** what that node should have advertised and
//! flag discrepancies.
//!
//! [`audit_node`] does exactly that: it replays one node's route selection
//! and price relaxation from its neighbors' converged advertisements and
//! compares against what the node itself advertised. An honest node always
//! passes (tested); a node that inflates a price, understates a route cost,
//! or advertises a route it did not select is reported with the specific
//! destinations that diverge. This catches *unilateral computation*
//! manipulation at convergence; collusion between adjacent ASs, or lies
//! about the private cost input itself, remain out of reach (the latter by
//! design — that is what the prices are for).

//! # Offline vs. online auditing
//!
//! [`audit_node`] / [`audit_network`] above are **offline**: they look at
//! one snapshot — the converged tables — through a route collector's eyes.
//! That vantage point has provable blind spots:
//!
//! * **Equivocation** is invisible offline. A collector (or any single
//!   neighbor) holds *one* table per AS; a node that tells different
//!   neighbors different stories presents each observer a self-consistent
//!   lie, and no per-neighborhood replay of a single table can expose the
//!   inconsistency. Only an observer comparing *per-link deliveries across
//!   neighbors* can — which is exactly what [`OnlineAuditor`] does.
//! * **Transient manipulation** that self-corrects before convergence
//!   (e.g. a replayed stale route that the adversary eventually lets
//!   catch up) leaves no converged-state residue to diff.
//!
//! [`OnlineAuditor`] closes both gaps by moving the same recompute-and-diff
//! idea onto the wire: it shadows every node with an honest
//! [`PricingBgpNode`] fed the *actual* deliveries (perturbed or not), and
//! after every engine stage compares what each node advertised on each
//! link against the table of its honest shadow — same inbox, same code
//! path. A node advertises every change of its table in the step that
//! makes it, so that table is what the honest node has advertised. The
//! expected values come from the production route selection and pricing
//! code, not a parallel implementation, so the auditor cannot drift from
//! the protocol it polices.

use crate::pricing_node::PricingBgpNode;
use bgpvcg_bgp::{
    Accusation, LocalEvent, PriceSlab, ProtocolNode, RibCell, RouteAdvertisement, RouteInfo,
    RouteView, SelectedRoute, TopologyEvent, Update, WireAuditor, WireFinding,
};
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// One detected divergence between what a node advertised and what the
/// algorithm, replayed from its neighborhood, says it should have
/// advertised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// The audited node.
    pub node: AsId,
    /// The destination whose advertised entry diverges.
    pub destination: AsId,
    /// What the node advertised (`None` = nothing/withdrawn).
    pub advertised: Option<RouteInfo>,
    /// What replaying the algorithm on its neighbors' advertisements
    /// yields.
    pub expected: Option<RouteInfo>,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: advertisement for {} diverges from the replayed computation",
            self.node, self.destination
        )
    }
}

/// The advertisements one AS exposes at convergence: its full table,
/// exactly as its neighbors would have last received it.
///
/// In deployment this is what a route collector (or the neighbors
/// themselves) would hand the auditor.
pub fn converged_advertisements(node: &PricingBgpNode) -> Vec<RouteAdvertisement> {
    node.full_table()
        .map(|u| u.advertisements)
        .unwrap_or_default()
}

/// Audits one node: replays route selection and price relaxation from the
/// converged advertisements of its neighbors and diffs the result against
/// the node's own advertisements. Returns all divergences (empty = passes).
///
/// The replay builds a fresh, honest [`PricingBgpNode`] for the same
/// position in the graph, feeds it the neighbors' full tables, iterates its
/// local computation to a fixpoint, and compares tables. At global
/// convergence a correct node's state is exactly this local fixpoint
/// (that is what quiescence means), so any difference is a deviation from
/// the algorithm.
///
/// # Panics
///
/// Panics if `subject` is not a node of `graph`.
pub fn audit_node(
    graph: &AsGraph,
    subject: AsId,
    subject_advertisements: &[RouteAdvertisement],
    neighbor_tables: &[(AsId, Vec<RouteAdvertisement>)],
) -> Vec<AuditFinding> {
    assert!(graph.contains_node(subject), "unknown subject {subject}");
    // Rebuild an honest node and feed it the neighborhood's converged state.
    let mut replay = PricingBgpNode::new(graph, subject);
    let _ = replay.start();
    // Iterate to a local fixpoint: with static inputs the relaxation is a
    // deterministic function, so a couple of passes settle it (each pass
    // re-ingests the same tables; decide/refresh are idempotent on stable
    // input, and price arrays need one extra pass after routes settle).
    for _ in 0..3 {
        for (neighbor, table) in neighbor_tables {
            let update = Update {
                from: *neighbor,
                sender_costs: Vec::new(),
                advertisements: table.clone(),
                id: 0,
            };
            let _ = replay.handle(&[std::sync::Arc::new(update)]);
        }
    }
    let expected = converged_advertisements(&replay);

    let mut findings = Vec::new();
    let lookup = |ads: &[RouteAdvertisement], dest: AsId| -> Option<RouteInfo> {
        ads.iter()
            .find(|ad| ad.destination == dest)
            .map(|ad| ad.info.clone())
    };
    let mut destinations: Vec<AsId> = subject_advertisements
        .iter()
        .map(|ad| ad.destination)
        .chain(expected.iter().map(|ad| ad.destination))
        .collect();
    destinations.sort_unstable();
    destinations.dedup();
    for dest in destinations {
        let advertised = lookup(subject_advertisements, dest);
        let should_be = lookup(&expected, dest);
        if advertised != should_be {
            findings.push(AuditFinding {
                node: subject,
                destination: dest,
                advertised,
                expected: should_be,
            });
        }
    }
    findings
}

/// Audits every node of a converged run against its neighborhood; returns
/// all findings across the network (empty = everyone ran the algorithm).
///
/// # Example
///
/// ```
/// use bgpvcg_core::{audit, protocol};
/// use bgpvcg_netgraph::generators::structured::fig1;
///
/// # fn main() -> Result<(), bgpvcg_netgraph::GraphError> {
/// let g = fig1();
/// let mut engine = protocol::build_sync_engine(&g)?;
/// engine.run_to_convergence();
/// let nodes = engine.into_nodes();
/// assert!(audit::audit_network(&g, &nodes).is_empty(), "honest run passes");
/// # Ok(())
/// # }
/// ```
pub fn audit_network(graph: &AsGraph, nodes: &[PricingBgpNode]) -> Vec<AuditFinding> {
    let tables: Vec<Vec<RouteAdvertisement>> = nodes.iter().map(converged_advertisements).collect();
    let mut findings = Vec::new();
    for node in nodes {
        let subject = node.id();
        let neighbor_tables: Vec<(AsId, Vec<RouteAdvertisement>)> = graph
            .neighbors(subject)
            .iter()
            .map(|&a| (a, tables[a.index()].clone()))
            .collect();
        findings.extend(audit_node(
            graph,
            subject,
            &tables[subject.index()],
            &neighbor_tables,
        ));
    }
    findings
}

/// Whether a receiver's `view` of one destination is the sender's table
/// entry for it — `route` with its price row `prices` — or, where the
/// sender has no route, nothing. Compared in place: an agreeing view costs
/// no allocation.
fn holds(view: Option<RouteView<'_>>, route: Option<&SelectedRoute>, prices: &[Cost]) -> bool {
    match (view, route) {
        (None, None) => true,
        (Some(view), Some(route)) => {
            *view.path == route.path && view.path_cost == route.cost && view.prices == prices
        }
        _ => false,
    }
}

/// What one neighbor has cumulatively heard from one sender: a retained
/// route per destination, kept by the receiver's own rule
/// ([`RouteInfo::fold`]), with the price arrays in one slab.
#[derive(Debug, Clone, Default)]
struct LinkView {
    cells: BTreeMap<AsId, Option<RibCell>>,
    prices: PriceSlab,
}

impl LinkView {
    /// The route heard for `dest`, if any.
    fn get(&self, dest: AsId) -> Option<RouteView<'_>> {
        let cell = self.cells.get(&dest)?.as_ref()?;
        Some(cell.view(&self.prices))
    }
}

/// The online incremental auditor: an engine-attached watchdog that
/// cross-checks every node's wire behavior against an honest shadow
/// replay, stage by stage, while the protocol runs.
///
/// # How it works
///
/// The auditor keeps, per AS:
///
/// * a **shadow** — an honest [`PricingBgpNode`] at the same graph
///   position, handed each batch the real node is handed
///   ([`WireAuditor::on_delivery`]) and each local view it applies, in the
///   same order. Its table — selected route plus price row per
///   destination — is what the node *should* currently be advertising,
///   since an honest node advertises every change of its table in the step
///   that makes it;
/// * per-link **views** — what each neighbor has cumulatively heard from
///   this node, folded at send time by [`RouteInfo::fold`], the rule the
///   receiver's own Rib-In keeps it by.
///
/// After each stage the engine calls [`WireAuditor::end_stage`]; the
/// auditor compares every (sender, destination) pair touched on the wire
/// this stage: each neighbor's view must equal the shadow's entry
/// (divergence), and all neighbors' views must equal *each other*
/// (equivocation — the check no offline audit can make). Violations come
/// back as [`Accusation`]s, which the engine's quarantine machinery can
/// act on.
///
/// # Why a wrapped adversary cannot shake its shadow
///
/// The [`Adversary`](bgpvcg_bgp::Adversary) model perturbs a node's wire
/// *output* only; the wrapped node ingests its inbox honestly. Its shadow
/// ingests the same inbox, so shadow and real node track each other
/// exactly and its table is precisely the honest output — no tolerance
/// thresholds, no drift. Receivers' shadows are fed the *perturbed* wire
/// (what was really delivered), so downstream nodes' honest reactions to
/// poisoned input are never mis-accused: the auditor flags the liar, not
/// the lied-to.
///
/// # Where it is sound
///
/// A view is what was *sent*; a shadow is what its node *got*. The two
/// agree whenever every copy sent is delivered: lock-step, quiet sessions,
/// delay-only ones ([`FaultPlan::asynchronous`]) and lossy ones, which
/// retransmit. A view is dropped when its sender stops sending on the
/// link — a `LinkDown` at the sender, announced or from a hold timer or a
/// crash — and restarts from the full table a re-opened link carries. A
/// silent crash resets the node's shadow as a `NodeDown` does; its
/// neighbours, not yet told, keep sending to it, and that is no lie.
///
/// [`FaultPlan::asynchronous`]: bgpvcg_bgp::chaos::FaultPlan::asynchronous
#[derive(Debug)]
pub struct OnlineAuditor {
    /// Honest replica of every node, handed what the node is handed: shadow
    /// `f`'s table is the honest advertisement state of `f`.
    shadows: Vec<PricingBgpNode>,
    /// `links[f][t]`: what neighbor `t` has cumulatively heard from `f`,
    /// per destination (pruned when `f` stops sending to `t`). Sender-major,
    /// so a sender's views are its neighbors', in ascending order.
    links: Vec<BTreeMap<AsId, LinkView>>,
    /// (sender, destination) pairs whose wire state changed this stage —
    /// the only pairs `end_stage` needs to re-check.
    touched: BTreeSet<(AsId, AsId)>,
}

impl OnlineAuditor {
    /// Builds the auditor for `graph`, every shadow holding only its
    /// origin route, so it can be attached to an engine before
    /// `run_to_convergence`.
    pub fn new(graph: &AsGraph) -> Self {
        let shadows = PricingBgpNode::from_graph(graph);
        OnlineAuditor {
            links: vec![BTreeMap::new(); shadows.len()],
            shadows,
            touched: BTreeSet::new(),
        }
    }
}

impl WireAuditor for OnlineAuditor {
    fn on_wire(&mut self, from: AsId, to: AsId, update: &Arc<Update>) {
        let link = self.links[from.index()].entry(to).or_default();
        for ad in &update.advertisements {
            self.touched.insert((from, ad.destination));
            let cell = link.cells.entry(ad.destination).or_default();
            if ad.info.fold(cell, &mut link.prices) {
                link.prices.tidy(link.cells.values_mut().flatten());
            }
        }
    }

    fn on_delivery(&mut self, to: AsId, batch: &[Arc<Update>]) {
        let _ = self.shadows[to.index()].handle(batch);
    }

    fn on_topology(&mut self, event: &TopologyEvent) {
        // A crash, announced or silent, wipes the node; the engine then
        // tells it of every link it lost, and those local views reach the
        // shadow too. Link and cost events reach the affected nodes as
        // local views alone.
        if let TopologyEvent::NodeDown(k) = *event {
            self.shadows[k.index()].reset();
        }
    }

    fn on_local_event(&mut self, node: AsId, event: &LocalEvent) {
        if let LocalEvent::LinkDown(peer) = event {
            // `node` stops sending to `peer`, so what `peer` heard from it
            // stops following its table: comparing that stale view against
            // the live shadow would be a false positive. A link that comes
            // back starts over from a full table. What `node` heard from
            // `peer` stays: until `peer` is told too, it keeps sending.
            self.links[node.index()].remove(peer);
        }
        let _ = self.shadows[node.index()].apply_event(*event);
    }

    fn end_stage(&mut self, stage: u64) -> Vec<Accusation> {
        // Cross-check every (sender, destination) pair that moved on the
        // wire this stage. BTreeSet order groups findings by sender
        // ascending, destinations ascending within each.
        let touched = std::mem::take(&mut self.touched);
        let mut accusations: Vec<Accusation> = Vec::new();
        for (sender, dest) in touched {
            let shadow = &self.shadows[sender.index()];
            let (route, prices) = (shadow.selector().selected(dest), shadow.price_row(dest));
            // Every neighbor currently holding a live link view of
            // `sender` must agree with the shadow's table — and with each
            // other (a node cannot tell different neighbors different
            // stories, even stories that are each individually plausible).
            let views: Vec<Option<RouteView<'_>>> = self.links[sender.index()]
                .values()
                .map(|link| link.get(dest))
                .collect();
            let divergent = views.iter().find(|view| !holds(**view, route, prices));
            let equivocation = views.windows(2).any(|pair| pair[0] != pair[1]);
            if divergent.is_none() && !equivocation {
                continue;
            }
            let advertised = divergent
                .or(views.first())
                .copied()
                .flatten()
                .map(|view| view.to_info());
            let expected = route.map(|route| RouteInfo::Reachable {
                path: route.path.clone(),
                path_cost: route.cost,
                prices: prices.to_vec(),
            });
            let finding = WireFinding {
                destination: dest,
                expected,
                advertised,
                equivocation,
            };
            match accusations.last_mut() {
                Some(last) if last.node == sender => last.findings.push(finding),
                _ => accusations.push(Accusation {
                    node: sender,
                    stage,
                    findings: vec![finding],
                }),
            }
        }
        accusations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
    use bgpvcg_netgraph::generators::{erdos_renyi, random_costs};
    use bgpvcg_netgraph::Cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn converged_nodes(g: &AsGraph) -> Vec<PricingBgpNode> {
        let mut engine = protocol::build_sync_engine(g).unwrap();
        let report = engine.run_to_convergence();
        assert!(report.converged);
        engine.into_nodes()
    }

    #[test]
    fn honest_network_passes_audit() {
        let g = fig1();
        let nodes = converged_nodes(&g);
        assert!(audit_network(&g, &nodes).is_empty());
    }

    #[test]
    fn honest_random_networks_pass_audit() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = erdos_renyi(random_costs(14, 0, 9, &mut rng), 0.3, &mut rng);
            let nodes = converged_nodes(&g);
            assert!(audit_network(&g, &nodes).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn inflated_price_is_detected() {
        // D doctors its advertised price array for destination Z upward —
        // the Sect. 7 manipulation: run a "different algorithm" that
        // reports prices more favorable to itself... here B inflates its
        // own advertised p^D entry to try to drag X's computed price up.
        let g = fig1();
        let nodes = converged_nodes(&g);
        let mut tampered = converged_advertisements(&nodes[Fig1::B.index()]);
        for ad in &mut tampered {
            if ad.destination == Fig1::Z {
                if let RouteInfo::Reachable { prices, .. } = &mut ad.info {
                    for p in prices.iter_mut() {
                        *p += Cost::new(50);
                    }
                }
            }
        }
        let neighbor_tables: Vec<(AsId, Vec<RouteAdvertisement>)> = g
            .neighbors(Fig1::B)
            .iter()
            .map(|&a| (a, converged_advertisements(&nodes[a.index()])))
            .collect();
        let findings = audit_node(&g, Fig1::B, &tampered, &neighbor_tables);
        assert!(
            findings.iter().any(|f| f.destination == Fig1::Z),
            "inflated price must be flagged: {findings:?}"
        );
    }

    #[test]
    fn understated_route_cost_is_detected() {
        // B advertises its route to Z at a fake lower cost (to attract
        // traffic without re-declaring its cost input).
        let g = fig1();
        let nodes = converged_nodes(&g);
        let mut tampered = converged_advertisements(&nodes[Fig1::B.index()]);
        for ad in &mut tampered {
            if ad.destination == Fig1::Z {
                if let RouteInfo::Reachable { path_cost, .. } = &mut ad.info {
                    *path_cost = Cost::ZERO;
                }
            }
        }
        let neighbor_tables: Vec<(AsId, Vec<RouteAdvertisement>)> = g
            .neighbors(Fig1::B)
            .iter()
            .map(|&a| (a, converged_advertisements(&nodes[a.index()])))
            .collect();
        let findings = audit_node(&g, Fig1::B, &tampered, &neighbor_tables);
        assert!(findings.iter().any(|f| f.destination == Fig1::Z));
    }

    #[test]
    fn online_auditor_honest_runs_are_clean() {
        // Zero false positives: honest runs, serial and parallel, on a
        // structured and several random graphs, never draw an accusation.
        let mut graphs = vec![fig1()];
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            graphs.push(erdos_renyi(random_costs(14, 1, 9, &mut rng), 0.3, &mut rng));
        }
        for (gi, g) in graphs.iter().enumerate() {
            let reference = protocol::run_sync(g).unwrap();
            for workers in [1usize, 4] {
                let mut engine = protocol::build_audited_sync_engine(g)
                    .unwrap()
                    .with_parallelism(workers);
                let report = engine.run_to_convergence();
                assert!(report.converged, "graph {gi} workers {workers}");
                assert!(
                    engine.accusations().is_empty(),
                    "graph {gi} workers {workers}: {:?}",
                    engine.accusations()
                );
                assert!(engine.quarantined().is_empty());
                let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
                assert_eq!(outcome, reference.outcome, "graph {gi} workers {workers}");
            }
        }
    }

    #[test]
    fn online_auditor_detects_and_quarantines_every_strategy() {
        use bgpvcg_bgp::{Adversary, Strategy, TopologyEvent};
        // Petersen is 3-connected: removing any one node leaves the graph
        // biconnected, so quarantine is always a valid recovery.
        let g = bgpvcg_netgraph::generators::structured::petersen(Cost::new(2));
        let culprit = AsId::new(4);
        // The "adversary never joined" reference: an honest convergence
        // followed by the culprit's removal.
        let reference = {
            let mut engine = protocol::build_sync_engine(&g).unwrap();
            engine.run_to_convergence();
            engine
                .try_apply_event(TopologyEvent::NodeDown(culprit))
                .expect("petersen minus a node stays biconnected");
            protocol::outcome_from_nodes(&engine.into_nodes()).unwrap()
        };
        for strategy in Strategy::ALL {
            let mut engine = protocol::build_audited_sync_engine(&g).unwrap();
            engine.set_adversary(culprit, Adversary::new(strategy, 11));
            let report = engine.run_to_convergence();
            assert!(report.converged, "{}", strategy.name());
            assert!(
                engine.accusations().iter().all(|acc| acc.node == culprit),
                "{}: only the liar is accused: {:?}",
                strategy.name(),
                engine.accusations()
            );
            assert_eq!(
                engine.quarantined(),
                &[culprit],
                "{}: detected and quarantined",
                strategy.name()
            );
            // Quarantine-and-reconverge parity: the post-recovery fixpoint
            // is bit-identical to the run the adversary never joined.
            let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
            assert_eq!(outcome, reference, "{}", strategy.name());
        }
    }

    #[test]
    fn online_auditor_flags_equivocation_as_such() {
        use bgpvcg_bgp::{Adversary, Strategy};
        let g = bgpvcg_netgraph::generators::structured::petersen(Cost::new(2));
        let culprit = AsId::new(4);
        let mut engine = protocol::build_audited_sync_engine(&g).unwrap();
        engine.set_adversary(culprit, Adversary::new(Strategy::Equivocate, 3));
        engine.run_to_convergence();
        assert!(
            engine
                .accusations()
                .iter()
                .flat_map(|acc| &acc.findings)
                .any(|f| f.equivocation),
            "cross-neighbor comparison marks the equivocation flag: {:?}",
            engine.accusations()
        );
    }

    #[test]
    fn fabricated_route_is_detected() {
        // D advertises a route to A it never selected (via Z instead of
        // its actual choice).
        let g = fig1();
        let nodes = converged_nodes(&g);
        let mut tampered = converged_advertisements(&nodes[Fig1::D.index()]);
        tampered.retain(|ad| ad.destination != Fig1::A);
        let neighbor_tables: Vec<(AsId, Vec<RouteAdvertisement>)> = g
            .neighbors(Fig1::D)
            .iter()
            .map(|&a| (a, converged_advertisements(&nodes[a.index()])))
            .collect();
        let findings = audit_node(&g, Fig1::D, &tampered, &neighbor_tables);
        assert!(findings.iter().any(|f| f.destination == Fig1::A));
        assert!(findings[0].to_string().contains("diverges"));
    }
}
