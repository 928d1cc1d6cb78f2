//! Fixture: wire vocabulary, fully covered by the golden suite, the one
//! rule for what a receiver keeps of it, and the one place a path node is
//! allocated.

use std::sync::Arc;

/// A BGP wire message.
#[derive(Debug)]
pub enum Message {
    /// Route announcement.
    Update,
    /// Route withdrawal.
    Withdraw,
}

impl Message {
    /// Folds this message into a retained cost, in place.
    pub fn fold(&self, cell: &mut Option<u64>, cost: u64) -> bool {
        let next = match self {
            Message::Update => Some(cost),
            Message::Withdraw => None,
        };
        let changed = *cell != next;
        *cell = next;
        changed
    }
}

/// A path: its first AS, and the path it extends.
#[derive(Debug)]
pub struct SharedPath {
    head: u32,
    rest: Option<Arc<SharedPath>>,
}

impl SharedPath {
    /// `head` in front of `rest`, sharing it.
    pub fn alloc(head: u32, rest: Option<Arc<SharedPath>>) -> Arc<SharedPath> {
        // lint:allow(output: one path node per route change)
        Arc::new(SharedPath { head, rest })
    }
}
