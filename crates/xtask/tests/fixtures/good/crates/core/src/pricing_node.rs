//! Fixture: the base pricing model, stated as a policy of the one node —
//! every term of the bound is the policy trait's default.

/// The paper's cost model: one scalar transit cost per node.
#[derive(Debug, Clone, Copy)]
pub struct Fpss;

impl PricePolicy for Fpss {}
