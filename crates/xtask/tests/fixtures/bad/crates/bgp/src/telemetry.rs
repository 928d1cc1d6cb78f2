//! Fixture: a causal event emitted without its provenance ids, and a
//! tracer that copies every advertised path to compare it.

/// Emits a route selection that forgot to thread `cause`/`effect`.
pub fn observe_selection(t: &Telemetry) {
    t.record(&TraceEvent::RouteSelected {
        node: 1,
        dest: 2,
        stage: 0,
    });
}

/// Narrates an SLO verdict whose kind the schema never learned.
pub fn observe_health(t: &Telemetry) {
    t.record(&TraceEvent::HealthVerdict {
        stage: 9,
        detector: 0,
        node: 2,
        dest: 0,
        count: 3,
        threshold: 3,
    });
}

/// Narrates Byzantine-audit events whose kinds the schema never learned.
pub fn observe_adversary(t: &Telemetry) {
    t.record(&TraceEvent::AdversaryInjected {
        stage: 1,
        node: 4,
        peer: 2,
        strategy: 0,
    });
    t.record(&TraceEvent::AuditViolation {
        stage: 2,
        node: 4,
        dest: 7,
        expected: 10,
        advertised: 12,
        violation: 1,
    });
}

/// Diffs an advertised path against the shadow by copying it into a fresh
/// `Vec` first — once per advertisement, changed or not.
pub fn observe_update(shadow: &mut Vec<(u32, u64)>, path: &[(u32, u64)]) -> bool {
    let copy: Vec<(u32, u64)> = path.iter().map(|&(node, cost)| (node, cost)).collect();
    if *shadow == copy {
        return false;
    }
    *shadow = copy;
    true
}
