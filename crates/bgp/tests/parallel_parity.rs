//! Serial/parallel parity: the worker-pool engine must be bit-for-bit
//! identical to the serial reference path.
//!
//! The parallel stage executor (see `engine/sync.rs` and
//! `docs/PERFORMANCE.md`) partitions a stage's receiving nodes across
//! scoped threads and merges emitted updates back in node-index order, so
//! for ANY worker count the engine must produce the same `RunReport`, the
//! same routing fixpoint, the same ordered telemetry event stream, and the
//! same counter values as a single-threaded run. These properties exercise
//! that claim across random biconnected topologies and workers 1–8, both
//! for plain convergence and for reconvergence after a topology event.

use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::{PlainBgpNode, TopologyEvent};
use bgpvcg_netgraph::generators::{erdos_renyi, make_biconnected, random_costs};
use bgpvcg_netgraph::AsGraph;
use bgpvcg_telemetry::{RingBufferSink, Telemetry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A random biconnected graph: Erdős–Rényi base, patched by
/// [`make_biconnected`] so every node survives any single failure — the
/// same precondition the pricing mechanism needs.
fn biconnected_graph(n: usize, density: f64, seed: u64) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = random_costs(n, 0, 9, &mut rng);
    let g = erdos_renyi(costs, density, &mut rng);
    make_biconnected(g, &mut rng)
}

/// Runs the graph to convergence with the given worker count, capturing
/// the full telemetry stream.
fn traced_run(
    g: &AsGraph,
    workers: usize,
    event: Option<TopologyEvent>,
) -> (
    SyncEngine<PlainBgpNode>,
    bgpvcg_bgp::engine::RunReport,
    Arc<RingBufferSink>,
    Telemetry,
) {
    let (telemetry, ring) = Telemetry::ring(1 << 16);
    let mut engine = SyncEngine::new(g, PlainBgpNode::from_graph(g)).with_parallelism(workers);
    engine.attach_telemetry(&telemetry);
    let mut report = engine.run_to_convergence();
    if let Some(event) = event {
        report = engine.apply_event(event);
    }
    (engine, report, ring, telemetry)
}

/// Asserts a parallel run is indistinguishable from the serial reference:
/// same report, same per-node fixpoint, same ordered event stream, same
/// counters and gauges. Histograms are deliberately excluded — the
/// per-stage wall-clock histogram measures real time and legitimately
/// differs between runs.
fn assert_parity(
    g: &AsGraph,
    workers: usize,
    event: Option<TopologyEvent>,
) -> Result<(), TestCaseError> {
    let (serial_engine, serial_report, serial_ring, serial_tel) = traced_run(g, 1, event);
    let (par_engine, par_report, par_ring, par_tel) = traced_run(g, workers, event);
    prop_assert_eq!(&serial_report, &par_report, "report, workers={}", workers);
    for i in g.nodes() {
        for j in g.nodes() {
            prop_assert_eq!(
                serial_engine.node(i).selector().route(j),
                par_engine.node(i).selector().route(j),
                "route {} -> {}, workers={}",
                i,
                j,
                workers
            );
        }
    }
    prop_assert_eq!(
        serial_ring.events(),
        par_ring.events(),
        "ordered telemetry event stream, workers={}",
        workers
    );
    let serial_snap = serial_tel.snapshot();
    let par_snap = par_tel.snapshot();
    prop_assert_eq!(
        &serial_snap.counters,
        &par_snap.counters,
        "counters, workers={}",
        workers
    );
    prop_assert_eq!(
        &serial_snap.gauges,
        &par_snap.gauges,
        "gauges, workers={}",
        workers
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Convergence parity: identical reports, fixpoints, and telemetry for
    /// every worker count 1–8.
    #[test]
    fn parallel_convergence_is_bit_identical(
        n in 6usize..32,
        density in 0.15f64..0.6,
        seed in 0u64..u64::MAX,
        workers in 1usize..9,
    ) {
        let g = biconnected_graph(n, density, seed);
        assert_parity(&g, workers, None)?;
    }

    /// Event parity: a link failure applied after convergence reconverges
    /// identically under serial and parallel execution.
    #[test]
    fn parallel_link_down_is_bit_identical(
        n in 6usize..24,
        density in 0.2f64..0.6,
        seed in 0u64..u64::MAX,
        workers in 2usize..9,
        link_pick in 0usize..1 << 16,
    ) {
        let g = biconnected_graph(n, density, seed);
        let links = g.links();
        let link = links[link_pick % links.len()];
        let event = TopologyEvent::LinkDown(link.a(), link.b());
        assert_parity(&g, workers, Some(event))?;
    }
}
