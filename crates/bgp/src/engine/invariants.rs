//! Feature-gated protocol invariant hooks for the engines and the node
//! step they drive.
//!
//! With the `invariant-checks` cargo feature enabled, these functions
//! install `debug_assert!`-based audits at the engine's convergence points
//! and the node's relaxation; without it they compile to nothing. `cargo
//! xtask audit` verifies both that the hooks stay wired in and that the
//! feature-enabled test suite passes.

#[cfg(feature = "invariant-checks")]
use super::sync::RunReport;
#[cfg(feature = "invariant-checks")]
use crate::message::PathEntry;

/// Audits the bookkeeping of one synchronous convergence run.
///
/// Invariants checked:
/// * the reported convergence stage never exceeds the stages executed
///   (`stages` counts the last stage with a table change; trailing stages
///   are pure message drain);
/// * a converged run stopped strictly before the stage safety limit;
/// * a non-converged run executed exactly up to the limit — "did not
///   converge" must mean "ran out of budget", never an early bail.
#[cfg(feature = "invariant-checks")]
pub(crate) fn convergence(report: &RunReport, executed: usize, stage_limit: usize) {
    debug_assert!(
        report.stages <= executed,
        "convergence stage {} exceeds {executed} executed stages",
        report.stages
    );
    if report.converged {
        debug_assert!(
            executed <= stage_limit,
            "converged run executed {executed} stages past the limit {stage_limit}"
        );
    } else {
        debug_assert!(
            executed >= stage_limit,
            "non-converged run stopped at {executed} stages below the limit {stage_limit}"
        );
    }
}

#[cfg(not(feature = "invariant-checks"))]
#[inline(always)]
pub(crate) fn convergence<R>(_report: &R, _executed: usize, _stage_limit: usize) {}

/// Audits one relaxation pass of [`crate::Node`], whatever the cost model:
/// the relaxed array (prices or margins) aligns one-to-one with the route's
/// transit nodes.
///
/// Deliberately *not* checked here: `p^k ≥ c_k`. That holds at convergence
/// (`bgpvcg-core` audits it on extraction) but not per pass — during
/// reconvergence after a cost change, a neighbor's price array grounded in
/// the old declared cost can legally sit below the restamped `c_k` until
/// relaxation flushes it.
#[cfg(feature = "invariant-checks")]
pub(crate) fn relaxation_step<T>(transit: &[PathEntry], relaxed: &[T]) {
    debug_assert_eq!(
        transit.len(),
        relaxed.len(),
        "relaxed array must align with the route's transit nodes"
    );
}

#[cfg(not(feature = "invariant-checks"))]
#[inline(always)]
pub(crate) fn relaxation_step<P, C>(_transit: &[P], _relaxed: &[C]) {}
