//! Fixture: a node with an undocumented public helper and a stale allow.

/// A best-route node.
#[derive(Debug)]
pub struct Node {
    best: u64,
    prices: Vec<u64>,
}

impl Node {
    /// Handles a batch.
    pub fn handle(&mut self, delivered: &[u64]) -> u64 {
        self.relax(delivered.iter().sum());
        self.best = delivered.first().copied().unwrap_or(self.best);
        self.best
    }

    /// Relaxes prices toward `candidate` in place.
    fn relax(&mut self, candidate: u64) {
        for price in &mut self.prices {
            *price = (*price).min(candidate);
        }
    }
}

pub fn undocumented_helper() -> u32 {
    7
}

// lint:allow(stale: this suppresses nothing and must be reported)
const NODE_VERSION: u32 = 3;
