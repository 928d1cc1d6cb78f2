//! Fixture: a health monitor that allocates on every folded event.

/// A streaming monitor that rebuilds what it should index.
#[derive(Debug)]
pub struct HealthMonitor {
    changed: Vec<(u32, u64)>,
}

impl HealthMonitor {
    /// Folds one event through a per-call map.
    pub fn fold(&mut self, dest: u32, stage: u64) {
        let mut latest = std::collections::BTreeMap::new();
        latest.insert(dest, stage);
        self.on_progress(dest, stage);
    }

    fn on_progress(&mut self, dest: u32, stage: u64) {
        let mut history = self.changed.to_vec();
        history.push((dest, stage));
        self.changed = history;
    }
}
