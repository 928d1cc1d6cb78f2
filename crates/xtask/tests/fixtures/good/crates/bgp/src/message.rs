//! Fixture: wire vocabulary, fully covered by the golden suite, and the
//! one rule for what a receiver keeps of it.

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
