//! Per-stage economic attribution: overpayment premiums and welfare.
//!
//! The mechanism pays each transit node `k` on the `i → j` lowest-cost
//! path the VCG price `p^k_{ij} ≥ c_k` (Theorem 1). The difference
//! `p^k_{ij} − c_k` is node `k`'s *overpayment premium* on that flow, and
//! under the uniform one-packet-per-pair traffic matrix the per-AS sum of
//! premiums equals the node's settled ledger welfare
//! `τ_k = payment − incurred cost` ([`crate::accounting`]) — the identity
//! `e18_overcharge_vs_diversity` asserts.
//!
//! [`EconomicsSampler`] computes these premiums from live node state at
//! every executed stage (through [`SyncEngine::set_stage_observer`]),
//! publishes them as registry gauges
//! ([`metric::PREMIUM_AS_PREFIX`]`<k>`, [`metric::WELFARE_TOTAL`]), and
//! records them into deterministic [`TimeSeries`] rings keyed by stage —
//! the convergence trajectory of the economy, not just its fixpoint.

use crate::pricing_node::PricingBgpNode;
use crate::telemetry::metric;
use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::ProtocolNode;
use bgpvcg_netgraph::{AsGraph, Cost};
use bgpvcg_telemetry::{Telemetry, TimeSeries};
use std::sync::{Arc, Mutex};

/// Samples per-AS overpayment premiums and aggregate welfare from live
/// pricing-node state, stage by stage.
#[derive(Debug)]
pub struct EconomicsSampler {
    true_costs: Vec<Cost>,
    per_as: Vec<TimeSeries>,
    aggregate: TimeSeries,
    telemetry: Option<Telemetry>,
}

impl EconomicsSampler {
    /// A sampler for `graph`'s declared costs, with `capacity`-point
    /// rings per AS.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(graph: &AsGraph, capacity: usize) -> Self {
        EconomicsSampler {
            true_costs: graph.costs().to_vec(),
            per_as: (0..graph.node_count())
                .map(|_| TimeSeries::new(capacity))
                .collect(),
            aggregate: TimeSeries::new(capacity),
            telemetry: None,
        }
    }

    /// Additionally publishes each sample as registry gauges on
    /// `telemetry` (builder-style).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Computes the current per-AS premium vector and folds it into the
    /// time series (and gauges) under `stage`.
    pub fn sample(&mut self, stage: u64, nodes: &[PricingBgpNode]) {
        let premiums = premiums(&self.true_costs, nodes);
        let mut total = 0u64;
        for (k, &p) in premiums.iter().enumerate() {
            self.per_as[k].push(stage, p);
            total = total.saturating_add(p);
        }
        self.aggregate.push(stage, total);
        if let Some(t) = &self.telemetry {
            for (k, &p) in premiums.iter().enumerate() {
                t.gauge(&format!("{}{k}", metric::PREMIUM_AS_PREFIX)).set(p);
            }
            t.gauge(metric::WELFARE_TOTAL).set(total);
        }
    }

    /// Per-AS premium trajectories, indexed by `AsId::index`.
    pub fn per_as(&self) -> &[TimeSeries] {
        &self.per_as
    }

    /// The aggregate-welfare trajectory.
    pub fn aggregate(&self) -> &TimeSeries {
        &self.aggregate
    }

    /// The most recent per-AS premium vector (zeros if never sampled).
    pub fn final_premiums(&self) -> Vec<u64> {
        self.per_as
            .iter()
            .map(|series| series.last().map_or(0, |(_, v)| v))
            .collect()
    }
}

/// The premium vector at a point in time: for each AS `k`, the sum over
/// all source/destination pairs whose currently-selected route transits
/// `k` of `p^k_{ij} − c_k` (pairs whose price entry is still infinite —
/// not yet relaxed — contribute nothing). At the fixpoint under uniform
/// 1-packet-per-pair traffic this equals the settled ledger welfare
/// `τ_k`.
pub fn premiums(true_costs: &[Cost], nodes: &[PricingBgpNode]) -> Vec<u64> {
    let mut premium = vec![0u64; true_costs.len()];
    for node in nodes {
        let i = node.id();
        for j in node.selector().destinations().collect::<Vec<_>>() {
            if j == i {
                continue;
            }
            let Some(route) = node.selector().route(j) else {
                continue;
            };
            for &k in route.transit_nodes() {
                let Some(price) = node.price(j, k) else {
                    continue;
                };
                if let (Some(p), Some(c)) = (price.finite(), true_costs[k.index()].finite()) {
                    premium[k.index()] += p.saturating_sub(c);
                }
            }
        }
    }
    premium
}

/// Attaches an [`EconomicsSampler`] to `engine` as its per-stage
/// observer, returning the shared handle the caller reads trajectories
/// back from after the run. Pass the engine's telemetry to publish
/// gauges; `capacity` bounds each ring.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn attach_economics(
    engine: &mut SyncEngine<PricingBgpNode>,
    graph: &AsGraph,
    capacity: usize,
    telemetry: Option<&Telemetry>,
) -> Arc<Mutex<EconomicsSampler>> {
    let mut sampler = EconomicsSampler::new(graph, capacity);
    if let Some(t) = telemetry {
        sampler = sampler.with_telemetry(t);
    }
    let shared = Arc::new(Mutex::new(sampler));
    let observer = Arc::clone(&shared);
    engine.set_stage_observer(Box::new(move |stage, nodes| {
        observer
            .lock()
            // lint:allow(poisoning requires a prior panic while sampling; propagating it is the only sound move)
            .expect("economics sampler poisoned")
            .sample(stage, nodes);
    }));
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::PaymentLedger;
    use crate::protocol;
    use bgpvcg_netgraph::generators::structured::{fig1, petersen};
    use bgpvcg_netgraph::{AsId, TrafficMatrix};

    fn premium_equals_settled_welfare(g: &AsGraph) {
        let mut engine = protocol::build_sync_engine(g).unwrap();
        let telemetry = Telemetry::null();
        engine.attach_telemetry(&telemetry);
        let shared = attach_economics(&mut engine, g, 256, Some(&telemetry));
        let report = engine.run_to_convergence();
        assert!(report.converged);
        let nodes = engine.into_nodes();
        let sampler = shared.lock().unwrap();
        let finals = sampler.final_premiums();
        let traffic = TrafficMatrix::uniform(g.node_count(), 1);
        let ledger = PaymentLedger::settle_from_nodes(&nodes, &traffic).unwrap();
        let mut total = 0u64;
        for k in g.nodes() {
            let welfare = ledger.welfare(k, g.cost(k));
            assert!(welfare >= 0, "truthful welfare must be non-negative");
            assert_eq!(
                i128::from(finals[k.index()]),
                welfare,
                "premium({k}) != settled welfare"
            );
            total += finals[k.index()];
        }
        // The aggregate series' final point is the economy-wide welfare.
        assert_eq!(sampler.aggregate().last().unwrap().1, total);
        // Gauges carry the same final values.
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.gauges[metric::WELFARE_TOTAL], total);
        for k in g.nodes() {
            assert_eq!(
                snapshot.gauges[&format!("{}{}", metric::PREMIUM_AS_PREFIX, k.index())],
                finals[k.index()]
            );
        }
    }

    #[test]
    fn fig1_premiums_match_ledger() {
        premium_equals_settled_welfare(&fig1());
    }

    #[test]
    fn petersen_premiums_match_ledger() {
        premium_equals_settled_welfare(&petersen(Cost::new(3)));
    }

    #[test]
    fn premium_trajectory_is_stage_keyed_and_settles() {
        // Mid-run premiums are not monotone (routes and transit sets
        // switch while prices relax), but the trajectory must be keyed by
        // ascending execution stage and settle: the final point repeats
        // once tables stop changing, and it equals the fixpoint total.
        let g = fig1();
        let mut engine = protocol::build_sync_engine(&g).unwrap();
        let shared = attach_economics(&mut engine, &g, 256, None);
        assert!(engine.run_to_convergence().converged);
        let nodes = engine.into_nodes();
        let sampler = shared.lock().unwrap();
        let points: Vec<(u64, u64)> = sampler.aggregate().iter().collect();
        assert!(points.len() >= 2);
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0));
        let settled: u64 = premiums(g.costs(), &nodes).iter().sum();
        assert_eq!(points.last().unwrap().1, settled);
        // The drain stage recomputes on final tables: same value twice.
        assert_eq!(points[points.len() - 2].1, settled);
    }

    #[test]
    fn premiums_ignore_unpriced_routes() {
        let g = fig1();
        let nodes: Vec<PricingBgpNode> = PricingBgpNode::from_graph(&g);
        // Fresh nodes have no selected routes yet: zero premium all round.
        assert!(premiums(g.costs(), &nodes).iter().all(|&p| p == 0));
        let _ = AsId::new(0);
    }
}
