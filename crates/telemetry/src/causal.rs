//! Causal provenance analysis: convergence DAGs and critical paths.
//!
//! Every broadcast `Update` carries an engine-assigned provenance id, and
//! every `RouteSelected` / `PriceRelaxed` / `Withdrawn` trace event carries
//! the `(cause, effect)` pair linking the inbound update that triggered the
//! change to the outbound update carrying it (cause 0 = the environment:
//! origin advertisements, topology events, session full-table syncs). This
//! module rebuilds the *convergence DAG* from such a trace — one vertex per
//! broadcast update, one edge per distinct cause→effect pair — and answers
//! the questions the paper's stage bounds pose:
//!
//! * **Acyclicity** is structural: engines assign ids monotonically, so a
//!   valid trace has `cause < effect` on every edge ([`CausalDag::validate`]
//!   rejects anything else).
//! * The **critical path** is the longest causal chain. Each causal hop
//!   crosses at least one synchronous stage boundary, so its *edge* length
//!   is bounded by the stage count the engine reported at quiescence — the
//!   cross-check [`CausalDag::validate`] performs per update
//!   (`depth(u) ≤ stage(u)`) and `cargo xtask obs` reports.
//!
//! Traces concatenate runs (the experiment binaries re-run engines per
//! topology, and ids restart with each engine), so building segments the
//! stream at `Quiescent` events: one DAG per convergence run.

use crate::event::TraceEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One vertex of the convergence DAG: a broadcast update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateVertex {
    /// The advertising AS.
    pub node: u32,
    /// Stage (or async sequence) the update was broadcast at.
    pub stage: u64,
}

/// Why a trace is not a valid convergence DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalError {
    /// An edge does not go strictly forward in id order — impossible under
    /// monotone id assignment, so the trace is corrupt (or a cycle).
    NonMonotone {
        /// The offending edge's cause id.
        cause: u64,
        /// The offending edge's effect id.
        effect: u64,
    },
    /// An event names a cause id that no update in the segment owns.
    UnknownCause {
        /// The dangling cause id.
        cause: u64,
        /// The effect id whose event referenced it.
        effect: u64,
    },
    /// An update's causal depth exceeds the stage it was broadcast at —
    /// violating "each causal hop crosses a stage boundary".
    DepthExceedsStage {
        /// The offending update id.
        id: u64,
        /// Its causal depth (edges from a root).
        depth: u64,
        /// The stage it was broadcast at.
        stage: u64,
    },
    /// The critical path is longer than the stage count the engine
    /// reported at quiescence.
    PathExceedsReportedStages {
        /// Critical-path length in edges.
        depth: u64,
        /// The `Quiescent` event's stage.
        stages: u64,
    },
    /// Strict-root check: an AS broadcast more than one stage-0 update.
    DuplicateOriginRoot {
        /// The offending AS.
        node: u32,
    },
    /// Strict-root check: a causeless update was broadcast after stage 0 —
    /// in a fresh run, every non-origin update has an inbound cause, so a
    /// late root means its trigger went untraced.
    LateRoot {
        /// The offending update id.
        id: u64,
        /// The stage it was broadcast at.
        stage: u64,
    },
}

impl fmt::Display for CausalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalError::NonMonotone { cause, effect } => {
                write!(f, "edge {cause} -> {effect} is not strictly forward")
            }
            CausalError::UnknownCause { cause, effect } => {
                write!(f, "effect {effect} references unknown cause {cause}")
            }
            CausalError::DepthExceedsStage { id, depth, stage } => {
                write!(f, "update {id} has depth {depth} > stage {stage}")
            }
            CausalError::PathExceedsReportedStages { depth, stages } => {
                write!(f, "critical path {depth} exceeds reported stages {stages}")
            }
            CausalError::DuplicateOriginRoot { node } => {
                write!(
                    f,
                    "node {node} broadcast more than one stage-0 origin update"
                )
            }
            CausalError::LateRoot { id, stage } => {
                write!(
                    f,
                    "causeless update {id} at stage {stage} (untraced trigger)"
                )
            }
        }
    }
}

impl std::error::Error for CausalError {}

/// The convergence DAG of one run segment (one engine's trace between
/// start and `Quiescent`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CausalDag {
    /// Vertices keyed by update (effect) id.
    updates: BTreeMap<u64, UpdateVertex>,
    /// Distinct `(cause, effect)` edges with a non-environment cause.
    edges: BTreeSet<(u64, u64)>,
    /// The closing `Quiescent` event's stage, if the segment has one.
    reported_stages: Option<u64>,
}

impl CausalDag {
    /// Splits an event stream into per-run segments at `Quiescent`
    /// boundaries and builds one DAG per segment. A trailing segment with
    /// no `Quiescent` (an aborted run) is included when it contains causal
    /// events; empty segments are dropped.
    pub fn from_events(events: &[TraceEvent]) -> Vec<CausalDag> {
        let mut dags = Vec::new();
        let mut current = CausalDag::default();
        for event in events {
            current.observe(event);
            if let TraceEvent::Quiescent { .. } = event {
                dags.push(std::mem::take(&mut current));
            }
        }
        if !current.updates.is_empty() {
            dags.push(current);
        }
        dags
    }

    /// Feeds one typed event into the segment under construction.
    fn observe(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::RouteSelected {
                node,
                stage,
                cause,
                effect,
                ..
            }
            | TraceEvent::PriceRelaxed {
                node,
                stage,
                cause,
                effect,
                ..
            }
            | TraceEvent::Withdrawn {
                node,
                stage,
                cause,
                effect,
                ..
            } => self.observe_causal(node, stage, cause, effect),
            TraceEvent::Quiescent { stage, .. } => self.reported_stages = Some(stage),
            _ => {}
        }
    }

    fn observe_causal(&mut self, node: u32, stage: u64, cause: u64, effect: u64) {
        self.updates
            .entry(effect)
            .or_insert(UpdateVertex { node, stage });
        if cause != 0 {
            self.edges.insert((cause, effect));
        }
    }

    /// Number of updates (vertices).
    pub fn update_count(&self) -> usize {
        self.updates.len()
    }

    /// Number of distinct non-environment cause→effect edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The closing `Quiescent` stage, if the segment completed.
    pub fn reported_stages(&self) -> Option<u64> {
        self.reported_stages
    }

    /// Ids of updates with no non-environment cause (the DAG's roots).
    pub fn roots(&self) -> Vec<u64> {
        let caused: BTreeSet<u64> = self.edges.iter().map(|&(_, e)| e).collect();
        self.updates
            .keys()
            .copied()
            .filter(|id| !caused.contains(id))
            .collect()
    }

    /// Causal depth (edges from a root) per update id. Computed by DP in
    /// ascending id order, which is topological once
    /// [`CausalDag::validate`] has passed.
    pub fn depths(&self) -> BTreeMap<u64, u64> {
        let mut depths: BTreeMap<u64, u64> = BTreeMap::new();
        for &id in self.updates.keys() {
            depths.insert(id, 0);
        }
        for &(cause, effect) in &self.edges {
            let candidate = depths.get(&cause).copied().unwrap_or(0) + 1;
            let entry = depths.entry(effect).or_insert(0);
            if candidate > *entry {
                *entry = candidate;
            }
        }
        depths
    }

    /// The longest causal chain, as update ids from a root to the deepest
    /// update. Ties break toward the smallest id at each step, so the path
    /// is deterministic. Empty when the DAG is empty.
    pub fn critical_path(&self) -> Vec<u64> {
        let depths = self.depths();
        let Some((&tail, _)) = depths
            .iter()
            .max_by_key(|&(id, depth)| (*depth, std::cmp::Reverse(*id)))
        else {
            return Vec::new();
        };
        // Walk backward: from each effect, the predecessor is the smallest
        // cause sitting exactly one level up.
        let mut path = vec![tail];
        let mut current = tail;
        while depths.get(&current).copied().unwrap_or(0) > 0 {
            let want = depths[&current] - 1;
            let Some(&(prev, _)) = self
                .edges
                .iter()
                .filter(|&&(c, e)| e == current && depths.get(&c).copied().unwrap_or(0) == want)
                .min()
            else {
                break;
            };
            path.push(prev);
            current = prev;
        }
        path.reverse();
        path
    }

    /// Validates the segment as a convergence DAG:
    ///
    /// 1. every edge goes strictly forward (`cause < effect`) — which also
    ///    proves acyclicity, since a cycle needs a backward edge;
    /// 2. every referenced cause is an update the segment knows;
    /// 3. no update is causally deeper than the stage it was broadcast at;
    /// 4. when the segment closed with `Quiescent`, the critical path (in
    ///    edges) fits inside the reported stage count.
    ///
    /// # Errors
    ///
    /// The first violated condition, as a [`CausalError`].
    pub fn validate(&self) -> Result<(), CausalError> {
        for &(cause, effect) in &self.edges {
            if cause >= effect {
                return Err(CausalError::NonMonotone { cause, effect });
            }
            if !self.updates.contains_key(&cause) {
                return Err(CausalError::UnknownCause { cause, effect });
            }
        }
        let depths = self.depths();
        for (&id, &depth) in &depths {
            let stage = self.updates[&id].stage;
            if depth > stage {
                return Err(CausalError::DepthExceedsStage { id, depth, stage });
            }
        }
        if let Some(stages) = self.reported_stages {
            let deepest = depths.values().copied().max().unwrap_or(0);
            if deepest > stages {
                return Err(CausalError::PathExceedsReportedStages {
                    depth: deepest,
                    stages,
                });
            }
        }
        Ok(())
    }

    /// Strict root check for *fresh* runs (no topology events, no session
    /// resyncs): every root must be a stage-0 origin broadcast, at most one
    /// per AS, carrying only environment causes.
    ///
    /// # Errors
    ///
    /// The first offending origin, as a [`CausalError`].
    pub fn validate_origin_roots(&self) -> Result<(), CausalError> {
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        for id in self.roots() {
            let vertex = self.updates[&id];
            if vertex.stage != 0 {
                return Err(CausalError::LateRoot {
                    id,
                    stage: vertex.stage,
                });
            }
            if !seen.insert(vertex.node) {
                return Err(CausalError::DuplicateOriginRoot { node: vertex.node });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selected(node: u32, dest: u32, stage: u64, cause: u64, effect: u64) -> TraceEvent {
        TraceEvent::RouteSelected {
            node,
            dest,
            stage,
            hops: 2,
            path_cost: 1,
            cause,
            effect,
        }
    }

    fn relaxed(node: u32, dest: u32, stage: u64, cause: u64, effect: u64) -> TraceEvent {
        TraceEvent::PriceRelaxed {
            node,
            dest,
            k: 9,
            stage,
            old: crate::INFINITE,
            new: 4,
            cause,
            effect,
        }
    }

    /// Two origin roots (ids 1, 2), a second-stage update caused by both
    /// events of id 1, and a third-stage update chaining off id 3.
    fn sample_events() -> Vec<TraceEvent> {
        vec![
            selected(0, 0, 0, 0, 1),
            selected(1, 1, 0, 0, 2),
            selected(2, 0, 1, 1, 3),
            relaxed(2, 1, 1, 2, 3),
            selected(3, 0, 2, 3, 4),
            TraceEvent::Quiescent {
                stage: 2,
                messages: 10,
            },
        ]
    }

    #[test]
    fn builds_one_dag_per_quiescent_segment() {
        let mut events = sample_events();
        events.extend(sample_events());
        let dags = CausalDag::from_events(&events);
        assert_eq!(dags.len(), 2);
        assert_eq!(dags[0], dags[1], "identical runs build identical DAGs");
        let dag = &dags[0];
        assert_eq!(dag.update_count(), 4);
        assert_eq!(dag.edge_count(), 3);
        assert_eq!(dag.roots(), vec![1, 2]);
        assert_eq!(dag.reported_stages(), Some(2));
        dag.validate().expect("valid trace");
        dag.validate_origin_roots().expect("strict roots");
    }

    #[test]
    fn depths_and_critical_path_agree() {
        let dag = &CausalDag::from_events(&sample_events())[0];
        let depths = dag.depths();
        assert_eq!(depths[&1], 0);
        assert_eq!(depths[&2], 0);
        assert_eq!(depths[&3], 1);
        assert_eq!(depths[&4], 2);
        assert_eq!(dag.critical_path(), vec![1, 3, 4]);
    }

    #[test]
    fn validation_rejects_backward_dangling_and_deep() {
        let backward = CausalDag::from_events(&[selected(0, 0, 0, 0, 2), selected(1, 0, 1, 2, 2)]);
        assert_eq!(
            backward[0].validate(),
            Err(CausalError::NonMonotone {
                cause: 2,
                effect: 2
            })
        );
        let dangling = CausalDag::from_events(&[selected(1, 0, 1, 7, 9)]);
        assert_eq!(
            dangling[0].validate(),
            Err(CausalError::UnknownCause {
                cause: 7,
                effect: 9
            })
        );
        let deep = CausalDag::from_events(&[
            selected(0, 0, 0, 0, 1),
            // Caused by 1 but claims stage 0: a hop without a stage.
            selected(1, 0, 0, 1, 2),
        ]);
        assert_eq!(
            deep[0].validate(),
            Err(CausalError::DepthExceedsStage {
                id: 2,
                depth: 1,
                stage: 0
            })
        );
        let overlong = CausalDag::from_events(&[
            selected(0, 0, 0, 0, 1),
            selected(1, 0, 5, 1, 2),
            TraceEvent::Quiescent {
                stage: 0,
                messages: 1,
            },
        ]);
        assert_eq!(
            overlong[0].validate(),
            Err(CausalError::PathExceedsReportedStages {
                depth: 1,
                stages: 0
            })
        );
    }

    #[test]
    fn strict_roots_reject_duplicates_and_late_roots() {
        let duplicated =
            CausalDag::from_events(&[selected(0, 0, 0, 0, 1), selected(0, 1, 0, 0, 2)]);
        assert_eq!(
            duplicated[0].validate_origin_roots(),
            Err(CausalError::DuplicateOriginRoot { node: 0 })
        );
        let late = CausalDag::from_events(&[selected(3, 0, 2, 0, 5)]);
        assert_eq!(
            late[0].validate_origin_roots(),
            Err(CausalError::LateRoot { id: 5, stage: 2 })
        );
    }

    #[test]
    fn empty_and_aborted_segments_behave() {
        assert!(CausalDag::from_events(&[]).is_empty());
        // No Quiescent: the aborted tail still becomes a DAG.
        let aborted = CausalDag::from_events(&[selected(0, 0, 0, 0, 1)]);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].reported_stages(), None);
        aborted[0].validate().expect("aborted runs still validate");
    }
}
