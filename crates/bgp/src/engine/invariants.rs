//! Protocol invariant hooks for the engines and the node step they drive.
//!
//! These functions hold `debug_assert!`-based audits at the engine's
//! convergence points and the node's selection and relaxation, so every
//! debug build (every `cargo test`) runs them and release builds compile
//! them to nothing. `cargo xtask audit` verifies that the hooks stay wired
//! in.

use crate::selector::RouteSelector;
use bgpvcg_netgraph::AsId;

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

/// Audits the selections one [`crate::Node`] step kept: every destination
/// it touched and did not re-route — whether its flag skipped selection or
/// selection ran and changed nothing — holds what selection would choose
/// from the Rib-In now. A skip the flags allowed wrongly fails here, in
/// every debug build.
pub(crate) fn selection_kept(selector: &RouteSelector, kept: impl Iterator<Item = AsId>) {
    if cfg!(debug_assertions) {
        for dest in kept {
            debug_assert!(
                selector.is_decided(dest),
                "{} skipped selection for {dest}, but the Rib-In now selects another route",
                selector.id()
            );
        }
    }
}

/// Audits what [`RouteSelector::link_down`] relies on: every destination
/// in the lost neighbor `a`'s column holds what selection would choose
/// now. `link_down` re-decides only the destinations routed through `a`
/// and keeps every other entry, which equals a rescan of the column only
/// where that entry was decided.
pub(crate) fn column_decided(
    selector: &RouteSelector,
    a: AsId,
    column: impl Iterator<Item = AsId>,
) {
    if cfg!(debug_assertions) {
        for dest in column {
            debug_assert!(
                selector.is_decided(dest),
                "{} lost the link to {a} with {dest} undecided: decide before link_down",
                selector.id()
            );
        }
    }
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
