//! Fixture: the one protocol node and the policy naming what a cost model
//! changes in it.

use std::marker::PhantomData;

/// What a cost model changes in the relaxation; the defaults are the base
/// model.
pub trait PricePolicy {
    /// What the advertising neighbor charges.
    fn charged_by(a_path: &[u64]) -> Option<u64> {
        a_path.first().copied()
    }
}

/// The node: a price row relaxed as `P` directs.
#[derive(Debug)]
pub struct Node<P> {
    prices: Vec<u64>,
    policy: PhantomData<P>,
}

impl<P: PricePolicy> Node<P> {
    /// Handles one delivered batch; whether the row moved.
    pub fn handle(&mut self, delivered: &[u64]) -> bool {
        delivered.iter().any(|&bound| self.relax(bound))
    }

    /// Relaxes the price row toward `bound` in place.
    fn relax(&mut self, bound: u64) -> bool {
        let base = P::charged_by(&self.prices).unwrap_or(0);
        let mut changed = false;
        for price in &mut self.prices {
            if base + bound < *price {
                *price = base + bound;
                changed = true;
            }
        }
        changed
    }
}
