//! Fixture: a margin policy that rebuilds a map per lookup.

/// The per-neighbor cost model.
#[derive(Debug, Clone, Copy)]
pub struct Margins;

impl Margins {
    /// What the neighbor charges for packets from us, via a fresh map.
    pub fn charged_by(vector: &[(u32, u64)], me: u32) -> Option<u64> {
        let map: std::collections::BTreeMap<u32, u64> = vector.iter().copied().collect();
        map.get(&me).copied()
    }
}
