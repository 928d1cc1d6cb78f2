//! Fixture: the update tracer diffs against a dense shadow without
//! allocating per advertisement.

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

/// Moves each of `transits`' entries of `traced` to its index through the
/// reused `position` table, adding the missing ones.
pub fn realign(traced: &mut Vec<u64>, transits: &[u64], position: &mut [u32]) {
    for (at, &id) in (0u32..).zip(traced.iter()) {
        if let Some(slot) = position.get_mut(id as usize) {
            *slot = at;
        }
    }
    for (i, &k) in transits.iter().enumerate() {
        let Some(&at) = position.get(k as usize) else {
            continue;
        };
        if at == u32::MAX {
            traced.push(k);
        } else if (at as usize) > i {
            traced.swap(i, at as usize);
        }
    }
    for &id in traced.iter() {
        if let Some(slot) = position.get_mut(id as usize) {
            *slot = u32::MAX;
        }
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
    /// Accounts `messages` deliveries of `bytes` each.
    pub fn account(&mut self, messages: u64, bytes: u64) {
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
