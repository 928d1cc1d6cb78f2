//! Fixture: the dense selector's hot paths — reused buffers, candidates
//! compared in place, a winner that shares the advertised handle, and one
//! annotated output list.

/// A dense route selector.
#[derive(Debug)]
pub struct RouteSelector {
    rib: Vec<Option<u64>>,
    table: Vec<Option<u64>>,
    cost: u64,
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

    /// Re-selects `dest`; a winner that differs takes the advertised
    /// handle.
    pub fn decide(&mut self, dest: u32) -> bool {
        let Some(best) = self.rib.get(dest as usize).copied().flatten() else {
            return false;
        };
        let Some(entry) = self.table.get_mut(dest as usize) else {
            return false;
        };
        if *entry == Some(best) {
            return false;
        }
        *entry = Some(best);
        true
    }

    /// Re-declares this node's cost, naming the destinations to
    /// re-advertise.
    pub fn set_declared_cost(&mut self, cost: u64) -> Vec<u32> {
        if cost == self.cost {
            // lint:allow(output: nothing to re-advertise)
            return Vec::new();
        }
        self.cost = cost;
        let routed = (0u32..).zip(&self.table).filter(|(_, route)| route.is_some());
        // lint:allow(output: the destinations to re-advertise)
        routed.map(|(dest, _)| dest).collect()
    }
}
