//! Experiment harness regenerating every quantitative claim of the paper.
//!
//! The paper is a theory paper: its "evaluation" consists of a worked
//! example (Fig. 1/Fig. 2), three theorems, two lemmas, and explicit
//! complexity and convergence claims. This crate turns each into a
//! measurable experiment — one binary per experiment (`e1_worked_example`
//! through `e10_dynamics`, see `DESIGN.md` for the index) plus Criterion
//! micro-benchmarks (`benches/`).
//!
//! Shared infrastructure:
//!
//! * [`families`] — the graph families every sweep runs over (structured,
//!   random, and Internet-like).
//! * [`fixpoint`] — the converged hub and steady-state message the
//!   per-node microbenches (`benches/selector.rs`, `benches/pricing.rs`)
//!   share.
//! * [`table`] — a plain-text table renderer so every binary prints
//!   paper-style rows that can be pasted into `EXPERIMENTS.md`.
//! * [`stats`] — small numeric summaries (mean/min/max).
//! * [`obs`] — the shared `--trace-out` / `--metrics-out` observability
//!   surface (see `docs/OBSERVABILITY.md`).

#![forbid(unsafe_code)]

pub mod families;
pub mod fixpoint;
pub mod obs;
pub mod stats;
pub mod table;
