//! Fixture: the margin policy.

/// The per-neighbor cost model.
#[derive(Debug, Clone, Copy)]
pub struct Margins;

impl Margins {
    /// What the neighbor charges for packets from us.
    pub fn charged_by(vector: &[(u32, u64)], me: u32) -> Option<u64> {
        vector.iter().find(|&&(from, _)| from == me).map(|&(_, cost)| cost)
    }
}
