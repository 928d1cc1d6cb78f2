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
//! * **Message amplification** attributes each update to the AS whose
//!   earlier update caused it; **price churn** attributes each
//!   `PriceRelaxed` to its destination.
//!
//! Traces concatenate runs (the experiment binaries re-run engines per
//! topology, and ids restart with each engine), so building segments the
//! stream at `Quiescent` events: one DAG per convergence run.

use crate::event::TraceEvent;
use crate::json::{parse, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One vertex of the convergence DAG: a broadcast update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateVertex {
    /// The advertising AS.
    pub node: u32,
    /// Stage (or async sequence) the update was broadcast at.
    pub stage: u64,
    /// Trace events carried by this update (advertisements that changed).
    pub events: u64,
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
    /// Causal trace events observed (RouteSelected + PriceRelaxed +
    /// Withdrawn).
    events: u64,
    route_selections: u64,
    price_relaxations: u64,
    withdrawals: u64,
    /// `PriceRelaxed` count per destination AS.
    churn: BTreeMap<u32, u64>,
    /// The closing `Quiescent` event's stage and message count, if the
    /// segment has one.
    reported_stages: Option<u64>,
    reported_messages: Option<u64>,
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
                dest,
                stage,
                cause,
                effect,
                ..
            } => self.observe_causal("RouteSelected", node, dest, stage, cause, effect),
            TraceEvent::PriceRelaxed {
                node,
                dest,
                stage,
                cause,
                effect,
                ..
            } => self.observe_causal("PriceRelaxed", node, dest, stage, cause, effect),
            TraceEvent::Withdrawn {
                node,
                dest,
                stage,
                cause,
                effect,
            } => self.observe_causal("Withdrawn", node, dest, stage, cause, effect),
            TraceEvent::Quiescent { stage, messages } => {
                self.reported_stages = Some(stage);
                self.reported_messages = Some(messages);
            }
            _ => {}
        }
    }

    fn observe_causal(
        &mut self,
        kind: &str,
        node: u32,
        dest: u32,
        stage: u64,
        cause: u64,
        effect: u64,
    ) {
        self.events += 1;
        match kind {
            "RouteSelected" => self.route_selections += 1,
            "PriceRelaxed" => {
                self.price_relaxations += 1;
                *self.churn.entry(dest).or_insert(0) += 1;
            }
            _ => self.withdrawals += 1,
        }
        let vertex = self.updates.entry(effect).or_insert(UpdateVertex {
            node,
            stage,
            events: 0,
        });
        vertex.events += 1;
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

    /// Causal trace events the segment carried.
    pub fn event_count(&self) -> u64 {
        self.events
    }

    /// The closing `Quiescent` stage, if the segment completed.
    pub fn reported_stages(&self) -> Option<u64> {
        self.reported_stages
    }

    /// The vertex for update `id`, if present.
    pub fn vertex(&self, id: u64) -> Option<&UpdateVertex> {
        self.updates.get(&id)
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

    /// Depth histogram: entry `d` counts updates at causal depth `d`.
    pub fn depth_histogram(&self) -> Vec<u64> {
        let depths = self.depths();
        let max = depths.values().copied().max().unwrap_or(0);
        let mut histogram = vec![0u64; (max + 1) as usize];
        if self.updates.is_empty() {
            return Vec::new();
        }
        for depth in depths.values() {
            histogram[*depth as usize] += 1;
        }
        histogram
    }

    /// Message amplification per AS: how many *distinct downstream updates*
    /// each AS's updates directly caused. The heaviest entries are the
    /// topology's propagation hubs.
    pub fn amplification(&self) -> BTreeMap<u32, u64> {
        let mut children: BTreeMap<u32, u64> = BTreeMap::new();
        for &(cause, _) in &self.edges {
            if let Some(vertex) = self.updates.get(&cause) {
                *children.entry(vertex.node).or_insert(0) += 1;
            }
        }
        children
    }

    /// `PriceRelaxed` events per destination AS — where the pricing work
    /// concentrated.
    pub fn price_churn(&self) -> &BTreeMap<u32, u64> {
        &self.churn
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

    /// Per-segment summary statistics, ready for JSON exposition.
    pub fn summary(&self) -> CausalSummary {
        let depths = self.depths();
        let max_depth = depths.values().copied().max().unwrap_or(0);
        let mut amplifiers: Vec<(u32, u64)> = self.amplification().into_iter().collect();
        amplifiers.sort_by_key(|&(node, children)| (std::cmp::Reverse(children), node));
        amplifiers.truncate(8);
        let mut churn: Vec<(u32, u64)> = self.churn.iter().map(|(&d, &c)| (d, c)).collect();
        churn.sort_by_key(|&(dest, relaxations)| (std::cmp::Reverse(relaxations), dest));
        churn.truncate(8);
        CausalSummary {
            updates: self.updates.len() as u64,
            links: self.edges.len() as u64,
            roots: self.roots().len() as u64,
            events: self.events,
            route_selections: self.route_selections,
            price_relaxations: self.price_relaxations,
            withdrawals: self.withdrawals,
            max_depth,
            critical_path: self.critical_path(),
            depth_histogram: self.depth_histogram(),
            reported_stages: self.reported_stages,
            reported_messages: self.reported_messages,
            top_amplifiers: amplifiers,
            price_churn: churn,
        }
    }
}

/// Schema tag of the causal-summary artifact `cargo xtask obs`
/// writes (and [`validate_summary_json`] checks).
pub const SUMMARY_SCHEMA: &str = "bgpvcg-causal-summary-v1";

/// Per-segment analytics extracted from a [`CausalDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalSummary {
    /// DAG vertices (broadcast updates).
    pub updates: u64,
    /// Distinct non-environment cause→effect edges.
    pub links: u64,
    /// Updates with no non-environment cause.
    pub roots: u64,
    /// Causal trace events in the segment.
    pub events: u64,
    /// `RouteSelected` events.
    pub route_selections: u64,
    /// `PriceRelaxed` events.
    pub price_relaxations: u64,
    /// `Withdrawn` events.
    pub withdrawals: u64,
    /// Depth of the deepest update (critical path, in edges).
    pub max_depth: u64,
    /// The longest causal chain, as update ids.
    pub critical_path: Vec<u64>,
    /// Update count per causal depth.
    pub depth_histogram: Vec<u64>,
    /// The closing `Quiescent` stage, if the run completed.
    pub reported_stages: Option<u64>,
    /// The closing `Quiescent` message count, if the run completed.
    pub reported_messages: Option<u64>,
    /// Up to eight `(AS, caused updates)` pairs, heaviest first.
    pub top_amplifiers: Vec<(u32, u64)>,
    /// Up to eight `(destination, relaxations)` pairs, heaviest first.
    pub price_churn: Vec<(u32, u64)>,
}

impl CausalSummary {
    fn render_into(&self, out: &mut String) {
        out.push_str("{\"updates\":");
        out.push_str(&self.updates.to_string());
        out.push_str(",\"links\":");
        out.push_str(&self.links.to_string());
        out.push_str(",\"roots\":");
        out.push_str(&self.roots.to_string());
        out.push_str(",\"events\":");
        out.push_str(&self.events.to_string());
        out.push_str(",\"route_selections\":");
        out.push_str(&self.route_selections.to_string());
        out.push_str(",\"price_relaxations\":");
        out.push_str(&self.price_relaxations.to_string());
        out.push_str(",\"withdrawals\":");
        out.push_str(&self.withdrawals.to_string());
        out.push_str(",\"max_depth\":");
        out.push_str(&self.max_depth.to_string());
        push_u64_array(
            out,
            ",\"critical_path\":",
            self.critical_path.iter().copied(),
        );
        push_u64_array(
            out,
            ",\"depth_histogram\":",
            self.depth_histogram.iter().copied(),
        );
        match self.reported_stages {
            Some(stages) => {
                out.push_str(",\"reported_stages\":");
                out.push_str(&stages.to_string());
            }
            None => out.push_str(",\"reported_stages\":null"),
        }
        match self.reported_messages {
            Some(messages) => {
                out.push_str(",\"reported_messages\":");
                out.push_str(&messages.to_string());
            }
            None => out.push_str(",\"reported_messages\":null"),
        }
        push_pair_array(
            out,
            ",\"top_amplifiers\":",
            "node",
            "children",
            &self.top_amplifiers,
        );
        push_pair_array(
            out,
            ",\"price_churn\":",
            "dest",
            "relaxations",
            &self.price_churn,
        );
        out.push('}');
    }
}

fn push_u64_array(out: &mut String, prefix: &str, values: impl Iterator<Item = u64>) {
    out.push_str(prefix);
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn push_pair_array(out: &mut String, prefix: &str, k1: &str, k2: &str, pairs: &[(u32, u64)]) {
    out.push_str(prefix);
    out.push('[');
    for (i, &(a, b)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"{k1}\":{a},\"{k2}\":{b}}}"));
    }
    out.push(']');
}

/// Renders the causal-summary artifact: the schema tag plus one summary
/// object per run segment.
pub fn summaries_to_json(summaries: &[CausalSummary]) -> String {
    let mut out = String::with_capacity(256 * (summaries.len() + 1));
    out.push_str("{\"schema\":\"");
    out.push_str(SUMMARY_SCHEMA);
    out.push_str("\",\"segments\":[");
    for (i, summary) in summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        summary.render_into(&mut out);
    }
    out.push_str("]}");
    out
}

/// Validates a causal-summary artifact, structurally and semantically:
/// the schema tag, every required key with the right type, a strictly
/// increasing critical path of length `max_depth + 1` (for non-empty
/// segments), a depth histogram summing to the update count, and the
/// critical path inside the reported stage bound.
///
/// # Errors
///
/// A message naming the first violation.
pub fn validate_summary_json(text: &str) -> Result<(), String> {
    let value = parse(text).map_err(|e| e.to_string())?;
    if value.get("schema").and_then(JsonValue::as_str) != Some(SUMMARY_SCHEMA) {
        return Err(format!("schema tag must be {SUMMARY_SCHEMA:?}"));
    }
    let Some(JsonValue::Array(segments)) = value.get("segments") else {
        return Err("segments must be an array".to_string());
    };
    for (idx, segment) in segments.iter().enumerate() {
        validate_segment(segment).map_err(|e| format!("segment {idx}: {e}"))?;
    }
    Ok(())
}

fn validate_segment(segment: &JsonValue) -> Result<(), String> {
    let uint = |key: &str| -> Result<u64, String> {
        segment
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing uint field {key}"))
    };
    let updates = uint("updates")?;
    uint("links")?;
    uint("roots")?;
    let events = uint("events")?;
    let selections = uint("route_selections")?;
    let relaxations = uint("price_relaxations")?;
    let withdrawals = uint("withdrawals")?;
    if selections + relaxations + withdrawals != events {
        return Err("event kinds must sum to events".to_string());
    }
    let max_depth = uint("max_depth")?;
    let uint_array = |key: &str| -> Result<Vec<u64>, String> {
        let Some(JsonValue::Array(items)) = segment.get(key) else {
            return Err(format!("missing array field {key}"));
        };
        items
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("{key} must hold uints")))
            .collect()
    };
    let path = uint_array("critical_path")?;
    if updates > 0 && path.len() as u64 != max_depth + 1 {
        return Err("critical_path length must be max_depth + 1".to_string());
    }
    if !path.windows(2).all(|w| w[0] < w[1]) {
        return Err("critical_path must be strictly increasing".to_string());
    }
    let histogram = uint_array("depth_histogram")?;
    if histogram.iter().sum::<u64>() != updates {
        return Err("depth_histogram must sum to updates".to_string());
    }
    match segment.get("reported_stages") {
        Some(JsonValue::Null) | None => {}
        Some(JsonValue::UInt(stages)) => {
            if max_depth > *stages {
                return Err("max_depth must fit in reported_stages".to_string());
            }
        }
        Some(_) => return Err("reported_stages must be uint or null".to_string()),
    }
    for (key, k1, k2) in [
        ("top_amplifiers", "node", "children"),
        ("price_churn", "dest", "relaxations"),
    ] {
        let Some(JsonValue::Array(items)) = segment.get(key) else {
            return Err(format!("missing array field {key}"));
        };
        for item in items {
            if item.get(k1).and_then(JsonValue::as_u64).is_none()
                || item.get(k2).and_then(JsonValue::as_u64).is_none()
            {
                return Err(format!("{key} entries need {k1} and {k2}"));
            }
        }
    }
    Ok(())
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
        assert_eq!(dag.event_count(), 5);
        assert_eq!(dag.roots(), vec![1, 2]);
        assert_eq!(dag.reported_stages(), Some(2));
        dag.validate().expect("valid trace");
        dag.validate_origin_roots().expect("strict roots");
    }

    #[test]
    fn depths_critical_path_and_histogram_agree() {
        let dag = &CausalDag::from_events(&sample_events())[0];
        let depths = dag.depths();
        assert_eq!(depths[&1], 0);
        assert_eq!(depths[&2], 0);
        assert_eq!(depths[&3], 1);
        assert_eq!(depths[&4], 2);
        assert_eq!(dag.critical_path(), vec![1, 3, 4]);
        assert_eq!(dag.depth_histogram(), vec![2, 1, 1]);
    }

    #[test]
    fn amplification_attributes_children_to_the_causing_as() {
        let dag = &CausalDag::from_events(&sample_events())[0];
        let amp = dag.amplification();
        // Update 1 (AS 0) caused update 3; update 2 (AS 1) caused update 3
        // via a second edge; update 3 (AS 2) caused update 4.
        assert_eq!(amp.get(&0), Some(&1));
        assert_eq!(amp.get(&1), Some(&1));
        assert_eq!(amp.get(&2), Some(&1));
        assert_eq!(dag.price_churn().get(&1), Some(&1));
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
    fn summary_round_trips_through_the_validator() {
        let dags = CausalDag::from_events(&sample_events());
        let summaries: Vec<CausalSummary> = dags.iter().map(CausalDag::summary).collect();
        assert_eq!(summaries[0].updates, 4);
        assert_eq!(summaries[0].max_depth, 2);
        assert_eq!(summaries[0].critical_path, vec![1, 3, 4]);
        let text = summaries_to_json(&summaries);
        validate_summary_json(&text).expect("artifact validates");
        // Tampering trips the semantic checks.
        let broken = text.replace("\"max_depth\":2", "\"max_depth\":9");
        assert!(validate_summary_json(&broken).is_err());
        let untagged = text.replace(SUMMARY_SCHEMA, "bogus");
        assert!(validate_summary_json(&untagged).is_err());
    }

    #[test]
    fn empty_and_aborted_segments_behave() {
        assert!(CausalDag::from_events(&[]).is_empty());
        // No Quiescent: the aborted tail still becomes a DAG.
        let aborted = CausalDag::from_events(&[selected(0, 0, 0, 0, 1)]);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].reported_stages(), None);
        aborted[0].validate().expect("aborted runs still validate");
        let summary = aborted[0].summary();
        assert_eq!(summary.reported_stages, None);
        validate_summary_json(&summaries_to_json(&[summary])).expect("null stages validate");
    }
}
