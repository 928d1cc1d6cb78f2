//! Fixture: a pricing policy that reaches for ambient randomness.

/// The paper's cost model, jittered.
#[derive(Debug, Clone, Copy)]
pub struct Fpss;

impl Fpss {
    /// The detour base with an ambient RNG jitter.
    pub fn detour_base(k_cost: u64) -> u64 {
        k_cost + rand::thread_rng().next_u64() % 2
    }
}
