//! Fixture: the dense selector's hot paths — reused buffers, candidates
//! compared in place, and one annotated allocation for the winner.

/// A dense route selector.
#[derive(Debug)]
pub struct RouteSelector {
    rib: Vec<Option<u64>>,
    table: Vec<Option<Vec<u64>>>,
    affected: Vec<u32>,
    reroutes: Vec<bool>,
}

impl RouteSelector {
    /// Ingests advertisements, reporting changed destinations in the
    /// selector's own reused buffer.
    pub fn ingest(&mut self, ads: &[(u32, u64)]) -> &[u32] {
        self.update_rib(ads);
        &self.affected
    }

    /// Ingests advertisements, pairing each changed destination with its
    /// flag from a second reused buffer.
    pub fn ingest_flagged(&mut self, ads: &[(u32, u64)]) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.update_rib(ads);
        let reroutes = self.reroutes.iter().copied();
        self.affected.iter().copied().zip(reroutes)
    }

    fn update_rib(&mut self, ads: &[(u32, u64)]) {
        self.affected.clear();
        self.reroutes.clear();
        for &(dest, cost) in ads {
            if let Some(cell) = self.rib.get_mut(dest as usize) {
                if *cell != Some(cost) {
                    *cell = Some(cost);
                    self.affected.push(dest);
                    self.reroutes.push(cost > 0);
                }
            }
        }
    }

    /// Re-selects `dest`; only a winner that differs is materialised.
    pub fn decide(&mut self, dest: u32) -> bool {
        let Some(best) = self.rib.get(dest as usize).copied().flatten() else {
            return false;
        };
        let Some(entry) = self.table.get_mut(dest as usize) else {
            return false;
        };
        if entry.as_deref() == Some(&[best]) {
            return false;
        }
        // lint:allow(output: the interned winning path)
        *entry = Some(std::iter::once(best).collect());
        true
    }
}
