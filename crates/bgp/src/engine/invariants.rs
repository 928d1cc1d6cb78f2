//! Protocol invariant hooks for the engines and the node step they drive.
//!
//! These functions hold `debug_assert!`-based audits at the engine's
//! convergence points and the node's relaxation, so every debug build
//! (every `cargo test`) runs them and release builds compile them to
//! nothing. `cargo xtask audit` verifies that the hooks stay wired in.

/// Audits the bookkeeping of one run of the shared run loop, given the
/// stage clock at the last table change and at the run's end, and the
/// clock value the run was limited to.
///
/// Invariants checked:
/// * the last stage with a table change is never past the stages executed
///   (trailing stages are pure message drain, or session timers);
/// * a converged run stopped no later than its stage limit;
/// * a non-converged run executed exactly up to the limit — "did not
///   converge" must mean "ran out of budget", never an early bail.
pub(crate) fn convergence(changed: u64, stage: u64, limit: u64, converged: bool) {
    debug_assert!(
        changed <= stage,
        "last change at stage {changed} is past the {stage} stages executed"
    );
    if converged {
        debug_assert!(
            stage <= limit,
            "converged run executed {stage} stages past the limit {limit}"
        );
    } else {
        debug_assert!(
            stage >= limit,
            "non-converged run stopped at stage {stage} below the limit {limit}"
        );
    }
}

/// Audits one relaxation pass of [`crate::Node`], whatever the cost model:
/// the relaxed array (prices or margins) aligns one-to-one with the
/// `transit` nodes of the route.
///
/// Deliberately *not* checked here: `p^k ≥ c_k`. That holds at convergence
/// (`bgpvcg-core` audits it on extraction) but not per pass — during
/// reconvergence after a cost change, a neighbor's price array grounded in
/// the old declared cost can legally sit below the restamped `c_k` until
/// relaxation flushes it.
pub(crate) fn relaxation_step<T>(transit: usize, relaxed: &[T]) {
    debug_assert_eq!(
        transit,
        relaxed.len(),
        "relaxed array must align with the route's transit nodes"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the 3 stages executed")]
    fn a_change_after_the_last_stage_trips_the_hook() {
        convergence(5, 3, 10, true);
    }
}
