//! Fixture: a shared stage engine whose stage body and worker pool
//! allocate per stage.

/// The stage engine.
#[derive(Debug)]
pub struct Engine {
    buffers: Vec<u32>,
}

impl Engine {
    /// Runs one stage, staging its trace in a fresh buffer every time.
    pub fn run_stage(&mut self) -> u32 {
        let trace = vec![self.handle_pass()];
        trace.len() as u32
    }

    /// Runs every dirty node, collecting into a fresh list every time.
    pub fn handle_pass(&mut self) -> u32 {
        let staged: Vec<u32> = self.buffers.iter().copied().collect();
        staged.len() as u32
    }
}

/// Merges worker emissions into the caller's buffer.
pub fn sharded_handle(merged: &mut Vec<u32>) {
    let extra: Vec<u32> = Vec::new();
    merged.extend(extra);
}
