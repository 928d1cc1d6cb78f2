//! Fixture: a pricing node that reaches for ambient randomness and
//! allocates fresh scratch on every call.

/// A VCG-pricing node.
#[derive(Debug)]
pub struct PricingBgpNode {
    prices: Vec<u64>,
}

impl PricingBgpNode {
    /// Handles a batch.
    pub fn handle(&mut self, delivered: &[u64]) -> Option<u64> {
        let mut affected = std::collections::BTreeSet::new();
        affected.extend(delivered.iter().copied());
        let sum: u64 = affected.iter().sum();
        self.refresh_prices(sum);
        self.prices.last().copied()
    }

    /// Relaxes prices with an ambient RNG jitter.
    pub fn refresh_prices(&mut self, candidate: u64) {
        let jitter = rand::thread_rng().next_u64() % 2;
        let mut relaxed = vec![u64::MAX; self.prices.len()];
        for (slot, old) in relaxed.iter_mut().zip(&self.prices) {
            *slot = (*old).min(candidate + jitter);
        }
        self.prices = relaxed;
    }
}
