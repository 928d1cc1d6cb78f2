//! Mechanism-level metric names.
//!
//! The protocol-layer `bgp_*` metrics live in
//! [`bgpvcg_bgp::telemetry::metric`]; this module names the metrics the
//! mechanism itself contributes — payment settlement, the
//! strategyproofness harness and the economic gauges — so every experiment
//! binary's `--metrics-out` exposition uses one vocabulary. See
//! `docs/OBSERVABILITY.md` for the full taxonomy.

/// Mechanism metric names (`vcg_*` namespace).
pub mod metric {
    /// Traffic-matrix flows settled into payments.
    pub const FLOWS_SETTLED: &str = "vcg_flows_settled_total";
    /// Packets those flows carried.
    pub const PACKETS_SETTLED: &str = "vcg_packets_settled_total";
    /// Total payments disbursed by settlements (saturating at `u64::MAX`).
    pub const PAYMENTS_SETTLED: &str = "vcg_payments_settled_total";
    /// Deviations evaluated by strategy sweeps.
    pub const DEVIATIONS_EVALUATED: &str = "vcg_deviations_evaluated_total";
    /// Deviations that strictly increased the liar's utility. Theorem 1
    /// says this counter never moves; a nonzero value is a mechanism bug.
    pub const PROFITABLE_DEVIATIONS: &str = "vcg_profitable_deviations_total";
    /// Gauge-name prefix for node `k`'s overpayment premium
    /// `Σ (p^k_ij − c_k)` over pairs currently transiting `k`; the full
    /// name appends `k`'s index (see [`crate::econ`]).
    pub const PREMIUM_AS_PREFIX: &str = "vcg_premium_node_";
    /// Aggregate welfare gauge: the sum of every node's premium, sampled
    /// per stage.
    pub const WELFARE_TOTAL: &str = "vcg_welfare_total";
}
