//! Fixture: the one protocol node, the policy naming what a cost model
//! changes in it, and its Adj-RIB-Out — reused buffers throughout, and one
//! annotated allocation for what is sent.

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

/// What was last advertised per destination, plus a reused dirty list.
#[derive(Debug)]
pub struct AdjRibOut {
    advertised: Vec<Option<u64>>,
    dirty: Vec<usize>,
}

impl AdjRibOut {
    /// Folds an inbox into the reused dirty list.
    pub fn ingest(&mut self, delivered: &[usize]) -> &[usize] {
        self.dirty.clear();
        self.dirty.extend_from_slice(delivered);
        &self.dirty
    }

    /// Builds what goes out for `dests`; the list itself is the output.
    pub fn emit(&mut self, dests: &[usize], state: &[u64]) -> Vec<(usize, u64)> {
        // lint:allow(output: the emitted update's advertisement list)
        let mut ads = Vec::with_capacity(dests.len());
        for &dest in dests {
            let now = state.get(dest).copied().unwrap_or(u64::MAX);
            if let Some(changed) = self.diff(dest, now) {
                ads.push((dest, changed));
            }
        }
        ads
    }

    /// `dest`'s state if it differs from what was sent, compared in place.
    fn diff(&mut self, dest: usize, now: u64) -> Option<u64> {
        let sent = self.advertised.get_mut(dest)?;
        if *sent == Some(now) {
            return None;
        }
        *sent = Some(now);
        Some(now)
    }
}

/// The node: a price row relaxed as `P` directs, advertised on change.
#[derive(Debug)]
pub struct Node<P> {
    prices: Vec<u64>,
    scratch: Vec<u64>,
    out: AdjRibOut,
    policy: PhantomData<P>,
}

impl<P: PricePolicy> Node<P> {
    /// Handles one delivered batch and returns what changed.
    pub fn handle(&mut self, delivered: &[usize]) -> Vec<(usize, u64)> {
        self.relax(delivered.len() as u64);
        self.out.emit(delivered, &self.prices)
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
