//! Execution engines driving [`ProtocolNode`](crate::ProtocolNode) state
//! machines: one stage [`Engine`] — the paper's synchronous-stage model as
//! [`SyncEngine`], the same stages over faulty channels as
//! [`ChaosEngine`](crate::chaos::ChaosEngine) — and an asynchronous
//! alternative under a seeded scheduler ([`run_event_driven`]).

mod event;
pub(crate) mod invariants;
pub(crate) mod kernel;
mod sync;

pub use event::{run_event_driven, EventReport};
pub use kernel::Engine;
pub use sync::{LockStep, RunReport, StageTrace, SyncEngine};
