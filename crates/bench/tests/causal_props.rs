//! Causal provenance properties over the benchmark topology families.
//!
//! Every traced pricing run must rebuild into a well-formed convergence
//! DAG (`bgpvcg_telemetry::causal`): edges only point forward in the
//! monotone update-id order (hence acyclic), the roots are exactly the
//! stage-0 origin advertisements — one per AS, nothing else reaches back
//! to the environment — and the longest causal chain is bounded by the
//! stage count the engine itself reported. These properties sweep that
//! contract over `Family::ALL` × sizes × seeds.

use bgpvcg_bench::families::Family;
use bgpvcg_core::protocol;
use bgpvcg_telemetry::{CausalDag, Telemetry};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The convergence DAG of a traced pricing run is acyclic, rooted
    /// exactly at the stage-0 origin advertisements, and no causal chain
    /// is longer than the reported stage count.
    #[test]
    fn convergence_dag_is_acyclic_rooted_and_stage_bounded(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0x5DEE_CE66);
        let (telemetry, ring) = Telemetry::ring(1 << 16);
        let mut engine = protocol::build_sync_engine(&graph).unwrap();
        engine.attach_telemetry(&telemetry);
        let report = engine.run_to_convergence();
        prop_assert!(report.converged, "{:?}", report);

        let dags = CausalDag::from_events(&ring.events());
        prop_assert_eq!(dags.len(), 1, "one run must yield one segment");
        let dag = &dags[0];
        if let Err(err) = dag.validate() {
            return Err(TestCaseError::fail(format!("{}: {err}", family.name())));
        }
        if let Err(err) = dag.validate_origin_roots() {
            return Err(TestCaseError::fail(format!("{}: {err}", family.name())));
        }

        // Roots are exactly the origin advertisements: one per AS, all at
        // stage 0 (validate_origin_roots pinned stage and uniqueness, so
        // the count alone closes the bijection).
        let roots = dag.roots();
        prop_assert_eq!(
            roots.len(),
            graph.node_count(),
            "{}: every AS contributes exactly one origin root",
            family.name()
        );

        // The critical path (max_depth edges, so max_depth + 1 vertices)
        // cannot outrun the engine's own stage count: each causal hop
        // crosses at least one stage boundary.
        let stages = dag.reported_stages().expect("segment closed by Quiescent");
        let path = dag.critical_path();
        prop_assert!(!path.is_empty(), "a converged run has at least a root");
        prop_assert!(
            path.len() as u64 <= stages + 1,
            "{}: critical path of {} update(s) exceeds {} reported stage(s)",
            family.name(),
            path.len(),
            stages
        );
    }
}
