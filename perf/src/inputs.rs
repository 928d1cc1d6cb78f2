//! Seeded workload inputs.
//!
//! Generators are called directly with their parameters written out here
//! (no `crates/bench` dependency), so an experiment refactor cannot shift
//! the benchmark's baseline. `--seed` only ever reaches this module: the
//! engines receive the generated graphs, scripts and fault plans.
//!
//! Every workload runs over a small *pool* of inputs drawn from sub-seeds
//! of `--seed`. One random graph's convergence time and byte count move
//! by 7–10 % from seed to seed (measured: BA n=256, seeds 61–70), which
//! is more than any bound a later change could be held to; the mean over
//! a pool of `k` shrinks that by `√k`.

use bgpvcg_bgp::chaos::FaultPlan;
use bgpvcg_bgp::TopologyEvent;
use bgpvcg_netgraph::generators::{
    barabasi_albert, from_edges, hierarchy, random_cost, random_costs, HierarchyConfig,
};
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed used when `--seed` is not given; its input fingerprints are pinned
/// in [`Workload::pinned_fingerprint`].
pub const DEFAULT_SEED: u64 = 61;

/// Forward events of one churn script, by kind. The script then undoes
/// them in reverse order, so a pass is `2 × (STUB + CORE + LINK)` = 112
/// events — enough for a 90th percentile with ≥ 10 events beyond it.
const CHURN_STUB_COST_CHANGES: usize = 32;
const CHURN_CORE_COST_CHANGES: usize = 12;
const CHURN_LINK_DOWNS: usize = 12;

/// The four benchmark workloads (names are the ones in `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold convergence on Barabási–Albert `n=256, m=2`.
    ColdBa256,
    /// Cold convergence on a 128-cycle.
    ColdRing128,
    /// Event-by-event reconvergence on a converged two-tier hierarchy.
    WarmChurnHier128,
    /// Cold convergence through the lossy session layer, with one crash.
    ChaosHier128,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdBa256,
        Workload::ColdRing128,
        Workload::WarmChurnHier128,
        Workload::ChaosHier128,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBa256 => "cold-ba256",
            Workload::ColdRing128 => "cold-ring128",
            Workload::WarmChurnHier128 => "warm-churn-hier128",
            Workload::ChaosHier128 => "chaos-hier128",
        }
    }

    /// Parses a `--workload` argument.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Inputs per run. Sized so one cycle over the pool (a bare and an
    /// observed pass per input) fits `run_seconds` on the 2-core box, and
    /// so the protocol counts' seed-to-seed spread stays under 5 %.
    pub fn pool_size(self) -> usize {
        match self {
            Workload::ColdBa256 => 6,
            Workload::ColdRing128 => 6,
            Workload::WarmChurnHier128 => 4,
            Workload::ChaosHier128 => 4,
        }
    }

    /// [`fingerprint`] of the pool at [`DEFAULT_SEED`]. A mismatch means a
    /// generator (or the vendored `rand`) changed and every baseline
    /// measured before is void, so the run fails instead of shifting it
    /// silently.
    pub fn pinned_fingerprint(self) -> u64 {
        match self {
            Workload::ColdBa256 => 0xa737_f181_d329_7a0a,
            Workload::ColdRing128 => 0x3e53_bb06_d5f4_7221,
            Workload::WarmChurnHier128 => 0xdc3d_8a51_23a4_5fc7,
            Workload::ChaosHier128 => 0xcb76_02ee_fd77_3cce,
        }
    }
}

/// The event script of one warm-churn input.
#[derive(Debug, Clone)]
pub struct Churn {
    /// Forward events followed by their inverses in reverse order; applying
    /// all of it returns the engine to the input's original graph.
    pub script: Vec<TopologyEvent>,
    /// Number of forward events (`script[..midpoint]`).
    pub midpoint: usize,
    /// The graph after the forward events, for the midpoint check.
    pub mid_graph: AsGraph,
}

/// One generated input: the graph plus whatever else its workload drives.
#[derive(Debug, Clone)]
pub struct Input {
    /// The AS graph handed to the engines.
    pub graph: AsGraph,
    /// Event script (warm churn only).
    pub churn: Option<Churn>,
    /// Fault schedule (chaos only).
    pub plan: Option<FaultPlan>,
}

/// Seed of the pool's `index`-th input. Index 0 is `seed` itself, so the
/// first input of `--seed 61` is the graph the ROADMAP's numbers name; the
/// golden-ratio stride keeps the pools of neighbouring seeds disjoint.
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates `workload`'s whole pool for `seed`.
pub fn pool(workload: Workload, seed: u64) -> Vec<Input> {
    (0..workload.pool_size())
        .map(|index| generate(workload, seed, index))
        .collect()
}

/// Generates the `index`-th input of `workload`'s pool for `seed`.
pub fn generate(workload: Workload, seed: u64, index: usize) -> Input {
    let seed = sub_seed(seed, index);
    let mut rng = StdRng::seed_from_u64(seed);
    match workload {
        Workload::ColdBa256 => {
            let costs = random_costs(256, 1, 10, &mut rng);
            Input {
                graph: barabasi_albert(costs, 2, &mut rng),
                churn: None,
                plan: None,
            }
        }
        Workload::ColdRing128 => {
            let n = 128u32;
            let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            Input {
                graph: from_edges(random_costs(n as usize, 1, 10, &mut rng), &edges),
                churn: None,
                plan: None,
            }
        }
        Workload::WarmChurnHier128 => {
            let graph = hierarchy(HIER128, &mut rng);
            let churn = churn_script(&graph, HIER128, &mut rng);
            Input {
                graph,
                churn: Some(churn),
                plan: None,
            }
        }
        Workload::ChaosHier128 => {
            let graph = hierarchy(HIER128, &mut rng);
            // The crashed node is a stub: a core crash tears down ~120
            // sessions at once and would make run time depend on whether
            // the seed happened to draw one.
            let stub = HIER128.core_size as u64 + seed % HIER128.stub_count as u64;
            let plan = FaultPlan::lossy(seed, 16).with_crash(4, AsId::new(stub as u32), 11);
            Input {
                graph,
                churn: None,
                plan: Some(plan),
            }
        }
    }
}

/// Two-tier hierarchy at `n = 128`: core `n/8` clamped to `3..=12`, costs
/// as the experiments' hierarchy family draws them.
const HIER128: HierarchyConfig = HierarchyConfig {
    core_size: 12,
    stub_count: 116,
    core_cost: (1, 3),
    stub_cost: (4, 10),
};

/// Draws the churn script against a shadow copy of the graph.
///
/// `LinkDown` only ever takes a link whose removal leaves the shadow graph
/// biconnected: `SyncEngine::try_apply_event` does not check that for link
/// events, and a violating one runs to the stage limit (observed: 1 088
/// stages, `converged = false` at `n = 128`) — the pass would time the
/// limit, not a reconvergence.
fn churn_script<R: Rng>(graph: &AsGraph, config: HierarchyConfig, rng: &mut R) -> Churn {
    #[derive(Clone, Copy)]
    enum Kind {
        StubCost,
        CoreCost,
        LinkDown,
    }
    let mut kinds = [
        vec![Kind::StubCost; CHURN_STUB_COST_CHANGES],
        vec![Kind::CoreCost; CHURN_CORE_COST_CHANGES],
        vec![Kind::LinkDown; CHURN_LINK_DOWNS],
    ]
    .concat();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }

    let n = graph.node_count();
    let mut shadow = graph.clone();
    let mut forward = Vec::with_capacity(kinds.len());
    let mut inverse = Vec::with_capacity(kinds.len());
    for kind in kinds {
        match kind {
            Kind::StubCost | Kind::CoreCost => {
                let (node, (lo, hi)) = match kind {
                    Kind::CoreCost => (rng.gen_range(0..config.core_size), config.core_cost),
                    _ => (rng.gen_range(config.core_size..n), config.stub_cost),
                };
                let node = AsId::new(node as u32);
                let old = shadow.cost(node);
                let new = loop {
                    let cost = random_cost(lo, hi, rng);
                    if cost != old {
                        break cost;
                    }
                };
                shadow = shadow.with_cost(node, new);
                forward.push(TopologyEvent::CostChange(node, new));
                inverse.push(TopologyEvent::CostChange(node, old));
            }
            Kind::LinkDown => loop {
                let link = shadow.links()[rng.gen_range(0..shadow.link_count())];
                let (a, b) = (link.a(), link.b());
                if shadow.degree(a) < 3 || shadow.degree(b) < 3 {
                    continue;
                }
                let without = shadow
                    .without_link(a, b)
                    .expect("link drawn from the shadow graph's own link list");
                if without.is_biconnected() {
                    shadow = without;
                    forward.push(TopologyEvent::LinkDown(a, b));
                    inverse.push(TopologyEvent::LinkUp(a, b));
                    break;
                }
            },
        }
    }
    let midpoint = forward.len();
    let mut script = forward;
    script.extend(inverse.into_iter().rev());
    Churn {
        script,
        midpoint,
        mid_graph: shadow,
    }
}

/// FNV-1a over everything the engines will see: node costs, the sorted
/// edge list, the event script and the fault plan's schedule.
pub fn fingerprint(inputs: &[Input]) -> u64 {
    let mut hash = Fnv1a::new();
    for input in inputs {
        hash_graph(&mut hash, &input.graph);
        if let Some(churn) = &input.churn {
            for event in &churn.script {
                let (tag, x, y) = match *event {
                    TopologyEvent::LinkDown(a, b) => (1, u64::from(a.raw()), u64::from(b.raw())),
                    TopologyEvent::LinkUp(a, b) => (2, u64::from(a.raw()), u64::from(b.raw())),
                    TopologyEvent::CostChange(k, c) => (3, u64::from(k.raw()), cost_raw(c)),
                    TopologyEvent::NodeDown(k) => (4, u64::from(k.raw()), 0),
                    TopologyEvent::NodeUp(k) => (5, u64::from(k.raw()), 0),
                };
                hash.word(tag);
                hash.word(x);
                hash.word(y);
            }
            hash.word(churn.midpoint as u64);
        }
        if let Some(plan) = &input.plan {
            hash.word(plan.seed);
            hash.word(plan.horizon);
            for &(stage, node) in plan.crashes.iter().chain(&plan.restarts) {
                hash.word(stage);
                hash.word(u64::from(node.raw()));
            }
        }
    }
    hash.0
}

fn hash_graph(hash: &mut Fnv1a, graph: &AsGraph) {
    hash.word(graph.node_count() as u64);
    for &cost in graph.costs() {
        hash.word(cost_raw(cost));
    }
    let mut edges: Vec<(u32, u32)> = graph
        .links()
        .iter()
        .map(|l| (l.a().raw().min(l.b().raw()), l.a().raw().max(l.b().raw())))
        .collect();
    edges.sort_unstable();
    for (a, b) in edges {
        hash.word(u64::from(a));
        hash.word(u64::from(b));
    }
}

fn cost_raw(cost: Cost) -> u64 {
    cost.finite().unwrap_or(u64::MAX)
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("cold-ba512"), None);
    }

    #[test]
    fn inputs_are_deterministic_in_the_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            assert_eq!(
                fingerprint(&pool(w, 7)),
                fingerprint(&pool(w, 7)),
                "{}",
                w.name()
            );
            assert_ne!(
                fingerprint(&pool(w, 7)),
                fingerprint(&pool(w, 8)),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn default_seed_fingerprints_are_pinned() {
        for w in Workload::ALL {
            assert_eq!(
                fingerprint(&pool(w, DEFAULT_SEED)),
                w.pinned_fingerprint(),
                "{}: generator drift — re-measure the baseline before re-pinning",
                w.name()
            );
        }
    }

    #[test]
    fn every_input_meets_the_mechanism_preconditions() {
        for w in Workload::ALL {
            for input in pool(w, 3) {
                input.graph.validate_for_mechanism().unwrap();
            }
        }
    }

    #[test]
    fn churn_script_ends_on_the_original_graph_and_stays_biconnected() {
        for seed in [1u64, 61, 62] {
            let input = generate(Workload::WarmChurnHier128, seed, 0);
            let churn = input.churn.expect("warm workload carries a script");
            assert_eq!(churn.script.len(), 2 * churn.midpoint);
            let mut shadow = input.graph.clone();
            for (i, event) in churn.script.iter().enumerate() {
                shadow = match *event {
                    TopologyEvent::CostChange(k, c) => shadow.with_cost(k, c),
                    TopologyEvent::LinkDown(a, b) => shadow.without_link(a, b).unwrap(),
                    TopologyEvent::LinkUp(a, b) => shadow.with_link(a, b).unwrap(),
                    other => panic!("unexpected event {other:?}"),
                };
                assert!(shadow.is_biconnected(), "seed {seed} event {i}");
                if i + 1 == churn.midpoint {
                    assert_eq!(fingerprint_of(&shadow), fingerprint_of(&churn.mid_graph));
                }
            }
            assert_eq!(fingerprint_of(&shadow), fingerprint_of(&input.graph));
        }
    }

    fn fingerprint_of(graph: &AsGraph) -> u64 {
        let mut hash = Fnv1a::new();
        hash_graph(&mut hash, graph);
        hash.0
    }

    #[test]
    fn chaos_plan_crashes_a_stub_before_the_horizon() {
        let input = generate(Workload::ChaosHier128, 61, 0);
        let plan = input.plan.expect("chaos workload carries a plan");
        let (stage, node) = plan.crashes[0];
        assert!(stage < plan.horizon);
        assert!(node.index() >= HIER128.core_size);
        assert_eq!(input.graph.degree(node), 2);
    }
}
