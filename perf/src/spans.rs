//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded here, in the benchmark's own code, around the calls
//! into each layer's public functions; nothing inside the measured crates
//! is instrumented. They stay in memory and are written out once, after
//! the measurement.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` is the enclosing span's id, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Which traced pass of the run the span belongs to.
    pub pass: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Labels the spans recorded from now on with traced pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            pass: self.pass,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics if no span is open — an unbalanced bracket in the harness.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Runs `f` inside a span and returns its result and the duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans of traced pass `pass` as a JSON array, one object
    /// per line.
    pub fn to_json(&self, pass: u32) -> String {
        let lines: Vec<String> = self
            .spans
            .iter()
            .filter(|s| s.pass == pass)
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{},\"parent\":{parent},\"pass\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.pass, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", lines.join(",\n"))
    }
}

/// Self time per span name over the subtree rooted at span `root`: each
/// span's duration minus the part of it its direct children cover. The
/// values partition the root's wall time.
pub fn self_times(spans: &[Span], root: u32) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    // A parent is always recorded before its children, so one forward scan
    // settles subtree membership.
    let mut under = vec![false; spans.len()];
    for span in spans {
        under[span.id as usize] = span.id == root || span.parent.is_some_and(|p| under[p as usize]);
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.duration_ns();
        }
    }
    let mut totals = BTreeMap::new();
    for span in spans.iter().filter(|s| under[s.id as usize]) {
        let own = span
            .duration_ns()
            .saturating_sub(child_ns[span.id as usize]);
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            pass: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "stage", 10, 90),
            span(2, Some(1), "handle", 20, 50),
            span(3, Some(1), "handle", 50, 70),
            span(4, Some(1), "encode", 70, 75),
        ];
        let own = self_times(&spans, 0);
        assert_eq!(own["pass"], 20);
        assert_eq!(own["stage"], 80 - 30 - 20 - 5);
        assert_eq!(own["handle"], 50);
        assert_eq!(own["encode"], 5);
        // Self times partition the root's wall time.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_times_cover_only_the_roots_subtree() {
        let spans = vec![
            span(0, None, "probe", 0, 10),
            span(1, None, "pass", 10, 40),
            span(2, Some(1), "handle", 15, 25),
            span(3, None, "handle", 40, 90),
        ];
        let own = self_times(&spans, 1);
        assert_eq!(own["pass"], 20);
        assert_eq!(own["handle"], 10);
        assert!(!own.contains_key("probe"));
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::new();
        assert_eq!(rec.enter("outer"), 0);
        let ((), inner_ns) = rec.time("inner", || std::hint::black_box(()));
        let outer_ns = rec.exit();
        assert!(outer_ns >= inner_ns);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = rec.to_json(0);
        let parsed = bgpvcg_telemetry::json::parse(&json).expect("trace file is valid JSON");
        let bgpvcg_telemetry::json::JsonValue::Array(items) = parsed else {
            panic!("trace file must be an array");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("name").and_then(|v| v.as_str()), Some("inner"));
        assert_eq!(items[1].get("parent").and_then(|v| v.as_u64()), Some(0));
    }
}
