//! Fixture: the synchronous stage engine, hygiene-clean.

/// The stage engine, with buffers preallocated at construction.
#[derive(Debug)]
pub struct SyncEngine {
    buffers: Vec<u32>,
}

impl SyncEngine {
    /// Runs one stage, reusing the preallocated buffers.
    pub fn run_stage(&mut self) -> Result<u32, String> {
        let total: u32 = self.buffers.iter().sum();
        self.buffers.clear();
        Ok(total)
    }

    /// Queues one node's emission into the preallocated buffers.
    pub fn advertise(&mut self, emitted: u32) {
        if let Some(slot) = self.buffers.first_mut() {
            *slot = slot.saturating_add(emitted);
        }
    }
}

/// Partitions receivers across scoped workers and merges emissions.
pub fn parallel_handle(receiving: &mut [u32]) -> Result<(), String> {
    std::thread::scope(|scope| {
        for chunk in receiving.chunks_mut(2) {
            scope.spawn(move || {
                for slot in chunk.iter_mut() {
                    *slot = slot.saturating_add(1);
                }
            });
        }
    });
    Ok(())
}
