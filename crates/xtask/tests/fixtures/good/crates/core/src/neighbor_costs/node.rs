//! Fixture: the margin policy — the term of the bound the per-neighbor
//! model changes.

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
}
