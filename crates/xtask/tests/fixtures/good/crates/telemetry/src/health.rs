//! Fixture: the health monitor's fold path over dense tables — no map
//! probe, no allocation per event.

/// A streaming monitor whose tables are indexed by AS number.
#[derive(Debug)]
pub struct HealthMonitor {
    last_progress_stage: u64,
    last_change_by_dest: Vec<Option<u64>>,
    routes: Vec<Vec<Option<(u32, u64)>>>,
}

impl HealthMonitor {
    /// Folds one `(node, dest, stage, signature)` selection.
    pub fn fold(&mut self, node: u32, dest: u32, stage: u64, sig: (u32, u64)) {
        self.on_progress(dest, stage);
        self.on_route_selected(node, dest, sig);
    }

    fn on_progress(&mut self, dest: u32, stage: u64) {
        self.last_progress_stage = self.last_progress_stage.max(stage);
        if let Some(last) = self.last_change_by_dest.get_mut(dest as usize) {
            *last = (*last).max(Some(stage));
        }
    }

    fn on_route_selected(&mut self, node: u32, dest: u32, sig: (u32, u64)) {
        let cell = self
            .routes
            .get_mut(node as usize)
            .and_then(|row| row.get_mut(dest as usize));
        if let Some(cell) = cell {
            *cell = Some(sig);
        }
    }
}
