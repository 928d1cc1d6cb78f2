//! Fixture: causal emission sites thread full provenance, and the update
//! tracer diffs against a dense shadow without allocating per advertisement.

/// Emits a route selection carrying its `cause`/`effect` ids.
pub fn observe_selection(t: &Telemetry) {
    t.record(&TraceEvent::RouteSelected {
        node: 1,
        dest: 2,
        stage: 0,
        cause: 0,
        effect: 1,
    });
}

/// Narrates a quarantine; Byzantine-audit kinds are schema-described but
/// carry no causal provenance, so a plain construction is clean.
pub fn observe_quarantine(t: &Telemetry) {
    t.record(&TraceEvent::NodeQuarantined { stage: 3, node: 4 });
}

/// Narrates an SLO finding and a span rollup; both kinds are
/// schema-described and carry no causal provenance.
pub fn observe_health(t: &Telemetry) {
    t.record(&TraceEvent::HealthVerdict {
        stage: 9,
        detector: 0,
        node: 2,
        dest: 0,
        count: 3,
        threshold: 3,
    });
    t.record(&TraceEvent::SpanSummary {
        stage: 9,
        span: 1,
        count: 40,
        total_nanos: 900,
        self_nanos: 700,
    });
}

/// Consumes events; destructuring patterns are exempt from the
/// provenance requirement.
pub fn count_selections(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RouteSelected { .. }))
        .count()
}

/// A dense update tracer: one shadow cell per `(advertiser, destination)`
/// in rows indexed by AS number, and one reused event buffer.
#[derive(Debug)]
pub struct UpdateTracer {
    bound: usize,
    shadow: Vec<Vec<Option<u64>>>,
    events: Vec<u64>,
}

impl UpdateTracer {
    /// Diffs one update's advertised path hashes against the shadow in
    /// place; the only allocation is a node's row, once.
    pub fn observe_update(&mut self, node: usize, ads: &[(usize, u64)]) -> &[u64] {
        self.events.clear();
        let Some(row) = self.shadow.get_mut(node) else {
            return &self.events;
        };
        if row.is_empty() {
            // lint:allow(growth: a node's row, sized to the node count at its first advertisement)
            *row = vec![None; self.bound];
        }
        for &(dest, hash) in ads {
            if let Some(cell) = row.get_mut(dest) {
                if *cell != Some(hash) {
                    *cell = Some(hash);
                    self.events.push(hash);
                }
            }
        }
        &self.events
    }
}

/// The instrument bundle: counters and a reused event buffer, touched once
/// per update without allocating.
#[derive(Debug)]
pub struct Instruments {
    messages: u64,
    bytes: u64,
    depth: u32,
    tracer: UpdateTracer,
    sink: Vec<u64>,
}

impl Instruments {
    /// Accounts one broadcast of `bytes` to `copies` neighbors.
    pub fn on_broadcast(&mut self, copies: u64, bytes: u64) {
        self.account(copies, bytes);
    }

    fn account(&mut self, messages: u64, bytes: u64) {
        self.messages += messages;
        self.bytes += bytes * messages;
    }

    /// Diffs one update against the tracer's shadow and records what moved.
    pub fn trace_update(&mut self, node: usize, ads: &[(usize, u64)]) {
        let Instruments { tracer, sink, .. } = self;
        sink.extend_from_slice(tracer.observe_update(node, ads));
    }

    /// Opens a profiler span.
    pub fn enter(&mut self) {
        self.depth += 1;
    }

    /// Closes the innermost profiler span.
    pub fn exit(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Hands one event to the sink.
    pub fn record(&mut self, event: u64) {
        self.sink.push(event);
    }
}
