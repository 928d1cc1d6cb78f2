//! Hierarchical span profiler with a zero-allocation hot path.
//!
//! Answers "where does the stage time go" for the engines: every engine
//! phase is a pre-registered span (fixed ids in [`span`]), and
//! [`SpanProfiler::enter`] / [`SpanProfiler::exit`] touch only fixed-size
//! arrays — no allocation, no hashing — so the profiler can sit inside the
//! synchronous engine's per-stage hot loop without perturbing what it
//! measures. `tests/allocations.rs` counts an observed run's blocks, so an
//! allocation in `enter`/`exit` fails it.
//!
//! Exports (`docs/OBSERVABILITY.md` §profiler):
//!
//! * [`SpanProfiler::to_json`] — schema-pinned (`bgpvcg-profile-v1`)
//!   per-span `count` / `total_nanos` (inclusive) / `self_nanos`
//!   (exclusive of children).
//! * [`SpanProfiler::collapsed`] — collapsed-stack text
//!   (`parent;child self_nanos` per line), the input format flamegraph
//!   tools consume.
//!
//! Timestamps come from the caller (the engine reads its injectable
//! [`crate::Clock`]), so under a [`crate::ManualClock`] every duration is
//! deterministic — which is why profile *values* are timing-exempt in
//! comparisons while span *names and counts* are not.

/// Maximum number of registrable spans (fixed at compile time so the hot
/// path indexes arrays, never grows them).
pub const MAX_SPANS: usize = 16;

/// Maximum nesting depth tracked; deeper `enter`s are counted in
/// [`SpanProfiler::truncated`] and ignored.
pub const MAX_DEPTH: usize = 8;

/// Identifies a registered span; an index below [`MAX_SPANS`].
pub type SpanId = usize;

/// Well-known span ids for the engine phases this workspace instruments.
/// Pre-registered by [`SpanProfiler::engine`], in this order, so profiles
/// from any engine agree on ids and the trace `SpanSummary.span` field is
/// comparable across runs.
pub mod span {
    /// One synchronous stage (parent of the other engine spans).
    pub const STAGE: super::SpanId = 0;
    /// Route selection: delivering updates into nodes' route selectors.
    pub const ROUTE_SELECT: super::SpanId = 1;
    /// The observer's share of a broadcast: the update tracer narrating the
    /// advertised routes and prices, plus every sink
    /// teed behind it (the health monitor's fold included). The node's own
    /// price relaxation runs inside `handle`, under [`ROUTE_SELECT`].
    pub const PRICE_RELAX: super::SpanId = 2;
    /// Wire-format v2 encode on the update fan-out path.
    pub const WIRE_ENCODE: super::SpanId = 3;
    /// Session upkeep: retransmit timers, acks, hold timers (chaos engine).
    pub const SESSION_RETRANSMIT: super::SpanId = 4;
    /// The online auditor: its shadows handling the batches the handle pass
    /// hands over, and its end-of-stage comparison.
    pub const AUDIT_SHADOW: super::SpanId = 5;
    /// Byzantine adversary wire tap rewriting advertisements.
    pub const ADVERSARY_TAP: super::SpanId = 6;

    /// Names matching the ids above, exported in profile JSON.
    pub const NAMES: [&str; 7] = [
        "stage",
        "route-select",
        "price-relax",
        "wire-encode",
        "session-retransmit",
        "audit-shadow",
        "adversary-tap",
    ];
}

/// Fixed-capacity hierarchical span profiler. See the module docs.
#[derive(Debug, Clone)]
pub struct SpanProfiler {
    names: [&'static str; MAX_SPANS],
    registered: usize,
    count: [u64; MAX_SPANS],
    total: [u64; MAX_SPANS],
    self_nanos: [u64; MAX_SPANS],
    /// `edge[parent][child]`: inclusive nanos of `child` spans entered
    /// while `parent` was the innermost open span — the tree behind
    /// [`SpanProfiler::collapsed`].
    edge: [[u64; MAX_SPANS]; MAX_SPANS],
    /// Inclusive nanos of spans closed with no parent open.
    root: [u64; MAX_SPANS],
    /// Open frames: (span id, start nanos, child nanos accumulated so far).
    stack: [(SpanId, u64, u64); MAX_DEPTH],
    depth: usize,
    /// `enter`s ignored because the stack was full (their matching `exit`s
    /// are swallowed too, keeping the stack balanced).
    overflow: usize,
    truncated: u64,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        SpanProfiler::new()
    }
}

impl SpanProfiler {
    /// An empty profiler with no spans registered.
    pub fn new() -> Self {
        SpanProfiler {
            names: [""; MAX_SPANS],
            registered: 0,
            count: [0; MAX_SPANS],
            total: [0; MAX_SPANS],
            self_nanos: [0; MAX_SPANS],
            edge: [[0; MAX_SPANS]; MAX_SPANS],
            root: [0; MAX_SPANS],
            stack: [(0, 0, 0); MAX_DEPTH],
            depth: 0,
            overflow: 0,
            truncated: 0,
        }
    }

    /// A profiler with every engine phase of [`span`] pre-registered.
    pub fn engine() -> Self {
        let mut profiler = SpanProfiler::new();
        for name in span::NAMES {
            profiler.register(name);
        }
        profiler
    }

    /// Registers a span at setup time and returns its id. Not for the hot
    /// path.
    ///
    /// # Panics
    ///
    /// Panics when more than [`MAX_SPANS`] spans are registered.
    pub fn register(&mut self, name: &'static str) -> SpanId {
        assert!(self.registered < MAX_SPANS, "span table full");
        let id = self.registered;
        self.names[id] = name;
        self.registered += 1;
        id
    }

    /// Number of registered spans.
    pub fn registered(&self) -> usize {
        self.registered
    }

    /// The name a span id was registered under.
    pub fn name(&self, id: SpanId) -> &'static str {
        self.names[id]
    }

    /// Opens span `id` at `now` nanoseconds. Allocation-free.
    pub fn enter(&mut self, id: SpanId, now: u64) {
        debug_assert!(id < self.registered, "span id not registered");
        if self.depth == MAX_DEPTH {
            self.overflow += 1;
            self.truncated += 1;
            return;
        }
        // lint:allow(bounds: depth is kept strictly below MAX_DEPTH and stack is [_; MAX_DEPTH])
        self.stack[self.depth] = (id, now, 0);
        self.depth += 1;
    }

    /// Closes the innermost open span at `now` nanoseconds. Allocation-free.
    /// A no-op when nothing is open.
    pub fn exit(&mut self, now: u64) {
        if self.overflow > 0 {
            self.overflow -= 1;
            return;
        }
        if self.depth == 0 {
            return;
        }
        self.depth -= 1;
        // lint:allow(bounds: depth is kept strictly below MAX_DEPTH and stack is [_; MAX_DEPTH])
        let (id, start, child_nanos) = self.stack[self.depth];
        let elapsed = now.saturating_sub(start);
        // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
        self.count[id] += 1;
        // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
        self.total[id] = self.total[id].saturating_add(elapsed);
        let own = elapsed.saturating_sub(child_nanos);
        // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
        self.self_nanos[id] = self.self_nanos[id].saturating_add(own);
        if self.depth > 0 {
            // lint:allow(bounds: depth is kept strictly below MAX_DEPTH and stack is [_; MAX_DEPTH])
            let parent = self.stack[self.depth - 1].0;
            // lint:allow(bounds: depth is kept strictly below MAX_DEPTH and stack is [_; MAX_DEPTH])
            self.stack[self.depth - 1].2 = self.stack[self.depth - 1].2.saturating_add(elapsed);
            // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
            self.edge[parent][id] = self.edge[parent][id].saturating_add(elapsed);
        } else {
            // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
            self.root[id] = self.root[id].saturating_add(elapsed);
        }
    }

    /// Times spent in span `id`: `(count, total_nanos, self_nanos)`.
    pub fn stat(&self, id: SpanId) -> (u64, u64, u64) {
        // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
        (self.count[id], self.total[id], self.self_nanos[id])
    }

    /// How many `enter`s were dropped for exceeding [`MAX_DEPTH`].
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// One [`TraceEvent::SpanSummary`](crate::event::TraceEvent::SpanSummary)
    /// per span with at least one completed interval, in span-id order,
    /// stamped with `stage` (the quiescence stage of the run being
    /// summarized). Totals are cumulative over the profiler's lifetime.
    pub fn summary_events(
        &self,
        stage: u64,
    ) -> impl Iterator<Item = crate::event::TraceEvent> + '_ {
        (0..self.registered).filter_map(move |id| {
            let (count, total_nanos, self_nanos) = self.stat(id);
            (count > 0).then_some(crate::event::TraceEvent::SpanSummary {
                stage,
                span: id as u32,
                count,
                total_nanos,
                self_nanos,
            })
        })
    }

    /// Folds `other`'s accumulated times into `self` so one profile can
    /// summarize a whole sweep. Both sides must have registered the same
    /// spans in the same order; open frames are not merged.
    ///
    /// # Panics
    ///
    /// Panics when the span tables differ.
    pub fn merge(&mut self, other: &SpanProfiler) {
        assert_eq!(
            self.names[..self.registered],
            other.names[..other.registered],
            "cannot merge profilers with different span tables"
        );
        for id in 0..self.registered {
            self.count[id] += other.count[id];
            self.total[id] = self.total[id].saturating_add(other.total[id]);
            self.self_nanos[id] = self.self_nanos[id].saturating_add(other.self_nanos[id]);
            self.root[id] = self.root[id].saturating_add(other.root[id]);
            for child in 0..self.registered {
                self.edge[id][child] = self.edge[id][child].saturating_add(other.edge[id][child]);
            }
        }
        self.truncated += other.truncated;
    }

    /// Schema-pinned profile JSON (`bgpvcg-profile-v1`): every registered
    /// span with its count, inclusive, and exclusive nanos, in
    /// registration order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.registered * 96);
        out.push_str("{\"version\":1,\"schema\":\"bgpvcg-profile-v1\",\"truncated\":");
        out.push_str(&self.truncated.to_string());
        out.push_str(",\"spans\":[");
        for id in 0..self.registered {
            if id > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
            out.push_str(self.names[id]);
            out.push_str("\",\"count\":");
            // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
            out.push_str(&self.count[id].to_string());
            out.push_str(",\"total_nanos\":");
            // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
            out.push_str(&self.total[id].to_string());
            out.push_str(",\"self_nanos\":");
            // lint:allow(bounds: per-span arrays are sized `registered` and ids are registration-checked)
            out.push_str(&self.self_nanos[id].to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Collapsed-stack text for flamegraph tools: one
    /// `path;to;span self_nanos` line per observed stack, derived from the
    /// parent→child edge matrix. Engine spans occur in a single parent
    /// context each, so global self-time attribution per path is exact.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        let mut path: Vec<SpanId> = Vec::new();
        for id in 0..self.registered {
            if self.root[id] > 0 || (self.count[id] > 0 && !self.has_parent(id)) {
                self.collapse_into(id, &mut path, &mut out);
            }
        }
        out
    }

    fn has_parent(&self, id: SpanId) -> bool {
        (0..self.registered).any(|p| self.edge[p][id] > 0)
    }

    fn collapse_into(&self, id: SpanId, path: &mut Vec<SpanId>, out: &mut String) {
        if path.len() >= MAX_DEPTH || path.contains(&id) {
            return;
        }
        path.push(id);
        for (i, span) in path.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(self.names[*span]);
        }
        out.push(' ');
        out.push_str(&self.self_nanos[id].to_string());
        out.push('\n');
        for child in 0..self.registered {
            if self.edge[id][child] > 0 {
                self.collapse_into(child, path, out);
            }
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_profiler_registers_all_named_phases() {
        let profiler = SpanProfiler::engine();
        assert_eq!(profiler.registered(), span::NAMES.len());
        assert_eq!(profiler.name(span::ROUTE_SELECT), "route-select");
        assert_eq!(profiler.name(span::AUDIT_SHADOW), "audit-shadow");
    }

    #[test]
    fn nesting_splits_self_from_total() {
        let mut profiler = SpanProfiler::engine();
        profiler.enter(span::STAGE, 100);
        profiler.enter(span::ROUTE_SELECT, 110);
        profiler.exit(140); // route-select: 30ns
        profiler.enter(span::WIRE_ENCODE, 150);
        profiler.exit(170); // wire-encode: 20ns
        profiler.exit(200); // stage: total 100ns, self 100-30-20=50ns
        assert_eq!(profiler.stat(span::STAGE), (1, 100, 50));
        assert_eq!(profiler.stat(span::ROUTE_SELECT), (1, 30, 30));
        assert_eq!(profiler.stat(span::WIRE_ENCODE), (1, 20, 20));
    }

    #[test]
    fn json_is_schema_pinned_and_collapsed_stacks_cover_paths() {
        let mut profiler = SpanProfiler::engine();
        profiler.enter(span::STAGE, 0);
        profiler.enter(span::ROUTE_SELECT, 10);
        profiler.exit(25);
        profiler.exit(40);
        let json = profiler.to_json();
        assert!(json.starts_with("{\"version\":1,\"schema\":\"bgpvcg-profile-v1\""));
        assert!(json.contains(
            "{\"name\":\"route-select\",\"count\":1,\"total_nanos\":15,\"self_nanos\":15}"
        ));
        let collapsed = profiler.collapsed();
        assert!(collapsed.contains("stage 25\n"), "{collapsed}");
        assert!(collapsed.contains("stage;route-select 15\n"), "{collapsed}");
    }

    #[test]
    fn depth_overflow_is_counted_and_stays_balanced() {
        let mut profiler = SpanProfiler::engine();
        for i in 0..(MAX_DEPTH + 2) {
            profiler.enter(span::STAGE, i as u64);
        }
        for i in 0..(MAX_DEPTH + 2) {
            profiler.exit((MAX_DEPTH + 2 + i) as u64);
        }
        assert_eq!(profiler.truncated(), 2);
        assert_eq!(profiler.stat(span::STAGE).0, MAX_DEPTH as u64);
        // Balanced again: a fresh enter/exit works.
        profiler.enter(span::ROUTE_SELECT, 100);
        profiler.exit(101);
        assert_eq!(profiler.stat(span::ROUTE_SELECT), (1, 1, 1));
    }

    #[test]
    fn merge_sums_counts_and_times() {
        let mut a = SpanProfiler::engine();
        a.enter(span::STAGE, 0);
        a.exit(10);
        let mut b = SpanProfiler::engine();
        b.enter(span::STAGE, 0);
        b.exit(32);
        a.merge(&b);
        assert_eq!(a.stat(span::STAGE), (2, 42, 42));
    }

    #[test]
    fn manual_timestamps_make_profiles_deterministic() {
        let run = || {
            let mut p = SpanProfiler::engine();
            p.enter(span::STAGE, 1_000);
            p.enter(span::ROUTE_SELECT, 1_100);
            p.exit(1_400);
            p.exit(2_000);
            p.to_json()
        };
        assert_eq!(run(), run());
    }
}
