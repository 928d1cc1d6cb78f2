//! The one stage [`Engine`] driving [`ProtocolNode`](crate::ProtocolNode)
//! state machines: the paper's synchronous-stage model as [`SyncEngine`],
//! the same stages over faulty channels as
//! [`ChaosEngine`](crate::chaos::ChaosEngine) — which, under
//! [`FaultPlan::asynchronous`](crate::chaos::FaultPlan::asynchronous), is
//! also the asynchronous executor.

pub(crate) mod invariants;
pub(crate) mod kernel;
mod sync;

pub use kernel::{Engine, StageTrace};
pub use sync::{LockStep, RunReport, SyncEngine};
