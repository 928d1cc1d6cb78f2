//! Fixture: the shared stage engine's stage body, handle pass and worker
//! pool, so the analysis finds its entry points.

/// The stage engine.
#[derive(Debug)]
pub struct Engine {
    buffers: Vec<u32>,
}

impl Engine {
    /// Runs one stage.
    pub fn run_stage(&mut self) -> u32 {
        self.handle_pass() + 1
    }

    /// Runs every dirty node.
    pub fn handle_pass(&mut self) -> u32 {
        self.buffers.iter().sum()
    }
}

/// Merges worker emissions into the caller's buffer.
pub fn sharded_handle(merged: &mut Vec<u32>) {
    merged.clear();
}
