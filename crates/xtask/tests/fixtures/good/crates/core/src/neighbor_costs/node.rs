//! Fixture: the margin policy — the terms of the bound the per-neighbor
//! model changes, looked up without allocating.

/// The per-neighbor cost model.
#[derive(Debug, Clone, Copy)]
pub struct Margins;

impl Margins {
    /// What the neighbor charges for packets from us: a binary search in
    /// its advertised vector.
    pub fn charged_by(vector: &[(u32, u64)], me: u32) -> Option<u64> {
        let at = vector.binary_search_by_key(&me, |&(from, _)| from).ok()?;
        vector.get(at).map(|&(_, cost)| cost)
    }

    /// Margins have the transit node's own cost subtracted already.
    pub fn detour_base(_k_cost: u64) -> u64 {
        0
    }
}
