//! Fixture: a shared stage engine whose worker pool allocates a merge
//! buffer per stage.

/// The stage engine.
#[derive(Debug)]
pub struct Engine {
    buffers: Vec<u32>,
}

impl Engine {
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
