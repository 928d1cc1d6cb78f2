//! Fixture: the one protocol node, the policy naming what a cost model
//! changes in it, and its advertise-on-change step — reused buffers
//! throughout, and annotated allocations for what is sent.

use std::marker::PhantomData;

/// What a cost model changes in the relaxation; the defaults are the base
/// model.
pub trait PricePolicy {
    /// What the advertising neighbor charges.
    fn charged_by(a_path: &[u64]) -> Option<u64> {
        a_path.first().copied()
    }

    /// What the detour bound starts from.
    fn detour_base(k_cost: u64) -> u64 {
        k_cost
    }
}

/// The node: a price row relaxed as `P` directs, advertised on change.
#[derive(Debug)]
pub struct Node<P> {
    prices: Vec<u64>,
    scratch: Vec<u64>,
    dirty: Vec<usize>,
    policy: PhantomData<P>,
}

impl<P: PricePolicy> Node<P> {
    /// Handles one delivered batch and returns what changed.
    pub fn handle(&mut self, delivered: &[usize]) -> Vec<(usize, Vec<u64>)> {
        let dirty = self.ingest(delivered);
        let ads = self.announce(&dirty);
        self.dirty = dirty;
        ads
    }

    /// Folds an inbox into the reused dirty list, lent out until the
    /// caller hands it back.
    fn ingest(&mut self, delivered: &[usize]) -> Vec<usize> {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        dirty.extend_from_slice(delivered);
        dirty
    }

    /// What the touched destinations advertise; the list is the output.
    fn announce(&mut self, touched: &[usize]) -> Vec<(usize, Vec<u64>)> {
        // lint:allow(output: the emitted update's advertisement list)
        let mut ads = Vec::with_capacity(touched.len());
        for &dest in touched {
            if let Some(info) = self.advertise(dest) {
                ads.push((dest, info));
            }
        }
        ads
    }

    /// `dest`'s state if the relaxation moved it.
    fn advertise(&mut self, dest: usize) -> Option<Vec<u64>> {
        self.relax(dest as u64).then(|| self.current())
    }

    /// The state as a full advertisement.
    fn current(&self) -> Vec<u64> {
        // lint:allow(output: a full advertisement's own price array)
        self.prices.to_vec()
    }

    /// Relaxes the price row toward `bound` through the reused scratch.
    fn relax(&mut self, bound: u64) -> bool {
        self.scratch.clear();
        let base = P::charged_by(&self.prices).unwrap_or(0);
        for &price in &self.prices {
            self.scratch.push(price.min(P::detour_base(base) + bound));
        }
        let changed = self.scratch != self.prices;
        if changed {
            self.prices.clone_from(&self.scratch);
        }
        changed
    }
}
