//! Execution engines driving [`ProtocolNode`](crate::ProtocolNode) state
//! machines: the paper's synchronous-stage model ([`SyncEngine`]) and an
//! asynchronous alternative under a seeded scheduler
//! ([`run_event_driven`]).

mod event;
pub(crate) mod invariants;
mod sync;

pub use event::{run_event_driven, EventReport};
pub use sync::{RunReport, StageTrace, SyncEngine};
