//! Fixture: a node whose ingest builds a set per inbox, a fresh array per
//! relaxation and an unannotated copy per advertisement, with an
//! undocumented public helper and a stale allow.

/// A best-route node.
#[derive(Debug)]
pub struct Node {
    best: u64,
    prices: Vec<u64>,
}

impl Node {
    /// Handles a batch.
    pub fn handle(&mut self, delivered: &[u64]) -> u64 {
        let affected = self.ingest(delivered);
        self.relax(affected.iter().sum());
        self.best = delivered.first().copied().unwrap_or(self.best);
        self.best
    }

    /// Folds a batch into a brand-new set every call.
    fn ingest(&mut self, delivered: &[u64]) -> std::collections::BTreeSet<u64> {
        let mut affected = std::collections::BTreeSet::new();
        affected.extend(delivered.iter().copied());
        affected
    }

    /// Relaxes prices into a brand-new array every call.
    fn relax(&mut self, candidate: u64) {
        let mut relaxed = vec![u64::MAX; self.prices.len()];
        for (slot, old) in relaxed.iter_mut().zip(&self.prices) {
            *slot = (*old).min(candidate);
        }
        self.prices = relaxed;
    }

    /// Advertises the relaxed row through an unannotated copy.
    fn advertise(&mut self, candidate: u64) -> Vec<u64> {
        self.relax(candidate);
        self.prices.to_vec()
    }
}

pub fn undocumented_helper() -> u32 {
    7
}

// lint:allow(stale: this suppresses nothing and must be reported)
const NODE_VERSION: u32 = 3;
