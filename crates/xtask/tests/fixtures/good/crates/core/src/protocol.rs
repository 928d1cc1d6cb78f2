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

/// Reads every node's selected route into one flat table, appending in
/// place.
pub fn outcome_from_nodes(nodes: &[u32], table: &mut Vec<u32>) {
    for &node in nodes {
        table.push(node);
    }
}
