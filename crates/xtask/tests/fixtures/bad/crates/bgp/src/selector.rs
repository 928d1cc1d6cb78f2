//! Fixture: a selector that builds a fresh path for every candidate and a
//! fresh set for every message.

/// A map-happy route selector.
#[derive(Debug)]
pub struct RouteSelector {
    rib: Vec<Vec<u64>>,
    best: Vec<u64>,
}

impl RouteSelector {
    /// Ingests advertisements into a brand-new set each call.
    pub fn ingest(&mut self, ads: &[u32]) -> std::collections::BTreeSet<u32> {
        let mut affected = std::collections::BTreeSet::new();
        affected.extend(ads.iter().copied());
        affected
    }

    /// Re-selects by materialising every candidate, winners and losers.
    pub fn decide(&mut self) -> bool {
        let before = self.best.len();
        for candidate in &self.rib {
            let mut full = Vec::with_capacity(candidate.len() + 1);
            full.extend_from_slice(candidate);
            if full.len() < self.best.len() {
                self.best = full;
            }
        }
        self.best.len() != before
    }
}
