//! Turnkey runners for the full pricing protocol.
//!
//! These helpers validate the graph, wire [`PricingBgpNode`]s into an
//! engine, run to convergence, and extract a [`RoutingOutcome`] directly
//! comparable (by `==`) with the centralized Theorem-1 reference from
//! [`crate::vcg`]. A run that needs more than the defaults — telemetry, a
//! health monitor, a worker pool, an adversary — takes a `build_*` engine,
//! configures it (`attach_*`, `with_parallelism`, …), runs it, and hands
//! the nodes to [`outcome_from_nodes`].

use crate::errors::MechanismError;
use crate::outcome::RoutingOutcome;
use crate::pricing_node::PricingBgpNode;
use bgpvcg_bgp::chaos::{ChaosEngine, ChaosReport, FaultPlan};
use bgpvcg_bgp::engine::{RunReport, SyncEngine};
use bgpvcg_bgp::{Node, PricePolicy, ProtocolNode, SelectedRoute, StateSnapshot};
use bgpvcg_netgraph::{AsGraph, AsId, GraphError};

/// Everything a synchronous pricing run produces.
#[derive(Debug, Clone)]
pub struct PricingRun {
    /// Routes and prices extracted from the converged nodes.
    pub outcome: RoutingOutcome,
    /// Stage/message/byte statistics of the run.
    pub report: RunReport,
    /// Per-node state sizes at convergence (for the E5 experiment).
    pub snapshots: Vec<StateSnapshot>,
}

/// Builds a synchronous engine loaded with pricing nodes, without running
/// it — used by experiments that interleave convergence with topology
/// events.
///
/// # Errors
///
/// Returns the graph-validation error if the mechanism's preconditions
/// fail.
pub fn build_sync_engine(graph: &AsGraph) -> Result<SyncEngine<PricingBgpNode>, GraphError> {
    graph.validate_for_mechanism()?;
    crate::invariants::mechanism_preconditions(graph);
    Ok(SyncEngine::new(graph, PricingBgpNode::from_graph(graph)))
}

/// Runs the pricing protocol to convergence on the synchronous engine.
///
/// # Errors
///
/// Returns the graph-validation error if the mechanism's preconditions
/// fail.
///
/// # Example
///
/// ```
/// use bgpvcg_core::{protocol, vcg};
/// use bgpvcg_netgraph::generators::structured::fig1;
///
/// # fn main() -> Result<(), bgpvcg_core::MechanismError> {
/// let g = fig1();
/// let run = protocol::run_sync(&g)?;
/// assert_eq!(run.outcome, vcg::compute(&g)?);
/// # Ok(())
/// # }
/// ```
pub fn run_sync(graph: &AsGraph) -> Result<PricingRun, MechanismError> {
    run_sync_parallel(graph, 1)
}

/// Like [`build_sync_engine`], but with an [`OnlineAuditor`] attached:
/// the run is cross-checked stage by stage against honest shadow replays,
/// and (unless [`SyncEngine::set_auto_quarantine`] is turned off) nodes
/// caught lying on the wire are quarantined mid-run via the engine's
/// `NodeDown` machinery. See [`crate::audit`] for the detection model.
///
/// # Errors
///
/// Returns the graph-validation error if the mechanism's preconditions
/// fail.
///
/// [`OnlineAuditor`]: crate::audit::OnlineAuditor
pub fn build_audited_sync_engine(
    graph: &AsGraph,
) -> Result<SyncEngine<PricingBgpNode>, GraphError> {
    let mut engine = build_sync_engine(graph)?;
    engine.attach_auditor(Box::new(crate::audit::OnlineAuditor::new(graph)));
    Ok(engine)
}

/// Like [`build_sync_engine`], but with a deterministic worker pool of
/// `workers` stage threads (`1` selects the serial reference path). The
/// parallel engine is bit-for-bit identical to the serial one — emitted
/// updates are merged in node-index order before broadcast; see
/// `docs/PERFORMANCE.md` for the determinism argument.
///
/// # Errors
///
/// Returns the graph-validation error if the mechanism's preconditions
/// fail.
pub fn build_sync_engine_parallel(
    graph: &AsGraph,
    workers: usize,
) -> Result<SyncEngine<PricingBgpNode>, GraphError> {
    Ok(build_sync_engine(graph)?.with_parallelism(workers))
}

/// Like [`run_sync`], but stages execute on `workers` threads. The result
/// (outcome, report, and snapshots) is identical to the serial run for any
/// worker count.
///
/// # Errors
///
/// Returns the graph-validation error if the mechanism's preconditions
/// fail.
///
/// # Example
///
/// ```
/// use bgpvcg_core::protocol;
/// use bgpvcg_netgraph::generators::structured::fig1;
///
/// # fn main() -> Result<(), bgpvcg_core::MechanismError> {
/// let g = fig1();
/// let serial = protocol::run_sync(&g)?;
/// let parallel = protocol::run_sync_parallel(&g, 4)?;
/// assert_eq!(serial.outcome, parallel.outcome);
/// assert_eq!(serial.report, parallel.report);
/// # Ok(())
/// # }
/// ```
pub fn run_sync_parallel(graph: &AsGraph, workers: usize) -> Result<PricingRun, MechanismError> {
    let mut engine = build_sync_engine_parallel(graph, workers)?;
    let report = engine.run_to_convergence();
    let snapshots = engine.state_snapshots();
    let outcome = outcome_from_nodes(&engine.into_nodes())?;
    Ok(PricingRun {
        outcome,
        report,
        snapshots,
    })
}

/// Builds a chaos harness loaded with pricing nodes, without running it.
///
/// # Errors
///
/// Returns the graph-validation error if the mechanism's preconditions
/// fail.
pub fn build_chaos_engine(
    graph: &AsGraph,
    plan: FaultPlan,
) -> Result<ChaosEngine<PricingBgpNode>, GraphError> {
    graph.validate_for_mechanism()?;
    crate::invariants::mechanism_preconditions(graph);
    Ok(ChaosEngine::new(
        graph,
        PricingBgpNode::from_graph(graph),
        plan,
    ))
}

/// Runs the pricing protocol over seeded-faulty channels until the network
/// self-stabilizes (or `max_stages` runs out), then extracts the outcome.
///
/// Once the plan's faults cease, the sequenced session layer recovers
/// every lost exchange, so the extracted `(routes, prices)` must be
/// *identical* to a fault-free run — the self-stabilization property the
/// parity suite checks. See `docs/ROBUSTNESS.md`. Under
/// [`FaultPlan::asynchronous`] this is the asynchronous run: per-link FIFO
/// delivery in a seed-drawn interleaving.
///
/// A run cut off by `max_stages` before the fixpoint still returns `Ok`,
/// with a partial outcome (missing pairs, `∞` prices): check
/// [`ChaosReport::converged`].
///
/// # Errors
///
/// Returns the graph-validation error if the mechanism's preconditions
/// fail; see [`outcome_from_nodes`] for the defensive
/// [`MechanismError::MissingPrice`].
pub fn run_chaos(
    graph: &AsGraph,
    plan: FaultPlan,
    max_stages: u64,
) -> Result<(RoutingOutcome, ChaosReport), MechanismError> {
    let mut engine = build_chaos_engine(graph, plan)?;
    let report = engine.run_to_stable(max_stages);
    Ok((outcome_from_nodes(&engine.into_nodes())?, report))
}

/// Extracts the distributed state of nodes — of either priced model —
/// into a [`RoutingOutcome`], reading each selected path and its price row
/// together in one pass.
///
/// Nodes read before the pricing fixpoint yield a *partial* outcome, not
/// an error: pairs without a selected route are absent, and prices not
/// yet relaxed read `∞`. Whether the run reached the fixpoint is the
/// report's `converged` flag, not this result.
///
/// # Errors
///
/// Returns [`MechanismError::MissingPrice`] if a selected route has more
/// transit nodes than its price row has entries: always for a route with
/// transit nodes in the unpriced model, never for a priced node an engine
/// ran — a selected route's row is relaxed to its full length whenever
/// the route is selected — so there it is a defence, not a convergence
/// signal. Returns [`MechanismError::PriceBelowCost`] if a price is below
/// its transit node's declared cost, which no fixpoint of honest nodes
/// holds.
///
/// # Panics
///
/// Panics if the nodes are not in AS order (engines return them sorted).
pub fn outcome_from_nodes<P: PricePolicy>(
    nodes: &[Node<P>],
) -> Result<RoutingOutcome, MechanismError> {
    let mut table = RoutingOutcome::builder(nodes.len());
    let lengths = nodes
        .iter()
        .flat_map(|node| selected_routes(node).map(|(_, selected)| selected.path.len()));
    let (cells, transit) = lengths.fold((0, 0), |(cells, transit), len| {
        (cells + len, transit + len.saturating_sub(2))
    });
    table.reserve(cells, transit);
    let mut path = Vec::new();
    for (idx, node) in nodes.iter().enumerate() {
        assert_eq!(node.id().index(), idx, "nodes must be in AS order");
        let i = node.id();
        for (j, selected) in selected_routes(node) {
            // One walk of the shared list; the checks and the table read
            // the copy.
            path.clear();
            path.extend(selected.path.iter());
            let transit = path
                .get(1..path.len().saturating_sub(1))
                .unwrap_or_default();
            let row = node.price_row(j);
            if let Some(k) = transit.get(row.len()) {
                return Err(MechanismError::MissingPrice {
                    source: i,
                    destination: j,
                    transit: k.node,
                });
            }
            crate::invariants::converged_prices::<P>((i, j), transit, row)?;
            table.push(
                i,
                j,
                selected.cost,
                path.iter().map(|entry| entry.node),
                transit
                    .iter()
                    .zip(row)
                    .map(|(k, &stored)| P::price(k, stored)),
            );
        }
    }
    Ok(table.finish())
}

/// A node's selected routes to every destination other than itself.
fn selected_routes<P: PricePolicy>(
    node: &Node<P>,
) -> impl Iterator<Item = (AsId, &SelectedRoute)> + '_ {
    let selector = node.selector();
    selector
        .destinations()
        .filter(move |&j| j != selector.id())
        .filter_map(move |j| Some((j, selector.selected(j)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcg;
    use bgpvcg_netgraph::generators::structured::{fig1, petersen, ring, torus, wheel, Fig1};
    use bgpvcg_netgraph::generators::{
        barabasi_albert, erdos_renyi, hierarchy, random_costs, waxman, HierarchyConfig,
        WaxmanConfig,
    };
    use bgpvcg_netgraph::Cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig1_distributed_equals_centralized() {
        let g = fig1();
        let run = run_sync(&g).unwrap();
        assert!(run.report.converged);
        assert_eq!(run.outcome, vcg::compute(&g).unwrap());
    }

    #[test]
    fn fig1_worked_example_prices() {
        let run = run_sync(&fig1()).unwrap();
        assert_eq!(
            run.outcome.price(Fig1::X, Fig1::Z, Fig1::D),
            Some(Cost::new(3))
        );
        assert_eq!(
            run.outcome.price(Fig1::X, Fig1::Z, Fig1::B),
            Some(Cost::new(4))
        );
        assert_eq!(
            run.outcome.price(Fig1::Y, Fig1::Z, Fig1::D),
            Some(Cost::new(9))
        );
    }

    #[test]
    fn parallel_run_matches_serial_bit_for_bit() {
        for seed in [3u64, 17, 61] {
            let mut rng = StdRng::seed_from_u64(seed);
            let costs = random_costs(20, 0, 9, &mut rng);
            let g = barabasi_albert(costs, 2, &mut rng);
            let serial = run_sync(&g).unwrap();
            for workers in [2usize, 3, 8] {
                let parallel = run_sync_parallel(&g, workers).unwrap();
                assert_eq!(serial.outcome, parallel.outcome, "workers={workers}");
                assert_eq!(serial.report, parallel.report, "workers={workers}");
                assert_eq!(serial.snapshots, parallel.snapshots, "workers={workers}");
            }
        }
    }

    #[test]
    fn structured_families_distributed_equals_centralized() {
        for g in [
            ring(8, Cost::new(2)),
            torus(3, 4, Cost::new(1)),
            wheel(7, Cost::ZERO, Cost::new(6)),
            petersen(Cost::new(3)),
        ] {
            let run = run_sync(&g).unwrap();
            assert!(run.report.converged);
            assert_eq!(run.outcome, vcg::compute(&g).unwrap());
        }
    }

    #[test]
    fn random_families_distributed_equals_centralized() {
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let costs = random_costs(18, 0, 9, &mut rng);
            let g = match seed % 4 {
                0 => erdos_renyi(costs, 0.25, &mut rng),
                1 => barabasi_albert(costs, 2, &mut rng),
                2 => waxman(costs, WaxmanConfig::default(), &mut rng),
                _ => hierarchy(
                    HierarchyConfig {
                        core_size: 4,
                        stub_count: 14,
                        ..HierarchyConfig::default()
                    },
                    &mut rng,
                ),
            };
            let run = run_sync(&g).unwrap();
            assert!(run.report.converged, "seed {seed}");
            assert_eq!(run.outcome, vcg::compute(&g).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn convergence_within_max_d_dprime_stages() {
        use bgpvcg_lcp::{diameter, AllPairsLcp};
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let costs = random_costs(20, 1, 9, &mut rng);
            let g = erdos_renyi(costs, 0.2, &mut rng);
            let lcp = AllPairsLcp::compute(&g);
            let bound = diameter::convergence_bound(&g, &lcp);
            let run = run_sync(&g).unwrap();
            assert!(
                run.report.stages <= bound,
                "seed {seed}: {} stages > max(d, d') = {bound}",
                run.report.stages
            );
        }
    }

    #[test]
    fn asynchronous_runs_compute_vcg_prices() {
        let mut rng = StdRng::seed_from_u64(77);
        let costs = random_costs(14, 1, 9, &mut rng);
        let random = erdos_renyi(costs, 0.3, &mut rng);
        for g in [fig1(), random] {
            let reference = vcg::compute(&g).unwrap();
            for seed in 0..2 {
                let plan = FaultPlan::asynchronous(seed);
                let (outcome, report) = run_chaos(&g, plan, 1_000).unwrap();
                assert!(report.converged && report.frames_delayed > 0, "{report}");
                assert_eq!(report.holds_fired, 0, "{report}");
                assert_eq!(report.session_resets, 2 * g.link_count() as u64);
                assert_eq!(outcome, reference, "seed {seed}");
            }
        }
    }

    #[test]
    fn chaos_run_self_stabilizes_to_vcg_prices() {
        let g = fig1();
        let reference = vcg::compute(&g).unwrap();
        for seed in 0..3 {
            let (outcome, report) = run_chaos(&g, FaultPlan::lossy(seed, 16), 400).unwrap();
            assert!(report.converged, "seed {seed}: {report}");
            assert_eq!(outcome, reference, "seed {seed}");
        }
    }

    #[test]
    fn chaos_run_with_crash_recovers_vcg_prices() {
        let g = petersen(Cost::new(2));
        let reference = vcg::compute(&g).unwrap();
        let plan = FaultPlan::lossy(5, 24).with_crash(6, bgpvcg_netgraph::AsId::new(4), 14);
        let (outcome, report) = run_chaos(&g, plan, 600).unwrap();
        assert!(report.converged, "{report}");
        assert_eq!(report.crashes, 1);
        assert_eq!(outcome, reference);
    }

    #[test]
    fn a_cut_off_run_yields_a_partial_outcome_not_an_error() {
        // Three stages into an asynchronous ring run, few routes are
        // selected and some prices are still ∞: the result is `Ok`, and
        // only `converged` says it is not the fixpoint.
        let g = ring(16, Cost::new(2));
        let (outcome, report) = run_chaos(&g, FaultPlan::asynchronous(0), 3).unwrap();
        assert!(!report.converged);
        assert!(outcome.pairs().count() < 16 * 15, "some pairs unrouted");
        let unrelaxed = outcome
            .pairs()
            .flat_map(|(_, _, pair)| pair.prices())
            .filter(|(_, p)| p.is_infinite())
            .count();
        assert!(unrelaxed > 0, "some prices still ∞");
        assert_ne!(outcome, vcg::compute(&g).unwrap());
    }

    #[test]
    fn rejects_invalid_graphs() {
        let path =
            bgpvcg_netgraph::generators::from_edges(vec![Cost::new(1); 3], &[(0, 1), (1, 2)]);
        assert!(run_sync(&path).is_err());
        assert!(run_chaos(&path, FaultPlan::asynchronous(0), 100).is_err());
        assert!(build_sync_engine(&path).is_err());
    }

    #[test]
    fn price_state_is_order_nd() {
        // Theorem 2: price state is O(nd) — at most (n−1)(d−1) entries.
        let g = petersen(Cost::new(2));
        let run = run_sync(&g).unwrap();
        let lcp = bgpvcg_lcp::AllPairsLcp::compute(&g);
        let d = bgpvcg_lcp::diameter::lcp_hop_diameter(&lcp);
        let n = g.node_count();
        for snap in &run.snapshots {
            assert!(snap.price_entries <= (n - 1) * d);
        }
    }
}
