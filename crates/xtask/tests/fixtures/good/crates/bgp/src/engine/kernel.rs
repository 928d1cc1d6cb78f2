//! Fixture: the shared stage engine, hygiene-clean.

/// The stage engine, with buffers preallocated at construction.
#[derive(Debug)]
pub struct Engine {
    buffers: Vec<u32>,
}

impl Engine {
    /// Runs one stage around the handle pass.
    pub fn run_stage(&mut self) -> Result<u32, String> {
        let total = self.handle_pass()?;
        Ok(total.saturating_add(1))
    }

    /// Runs every dirty node, reusing the preallocated buffers.
    pub fn handle_pass(&mut self) -> Result<u32, String> {
        let total: u32 = self.buffers.iter().sum();
        self.buffers.clear();
        Ok(total)
    }
}

/// Partitions receivers across scoped workers, one output slot each.
pub fn sharded_handle(receiving: &mut [u32]) -> Result<(), String> {
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
