//! Fixture: the parallel protocol runner, deterministic by construction.

use std::collections::BTreeMap;

/// Runs the protocol over every node in parallel and merges outcomes.
pub fn run_sync_parallel(nodes: &[u32]) -> Result<BTreeMap<u32, u32>, String> {
    let mut merged = BTreeMap::new();
    for &node in nodes {
        merged.insert(node, node.wrapping_mul(2));
    }
    Ok(merged)
}
