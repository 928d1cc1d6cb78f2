//! Fixture: wire vocabulary, fully covered by the golden suite.

/// A BGP wire message.
#[derive(Debug)]
pub enum Message {
    /// Route announcement.
    Update,
    /// Route withdrawal.
    Withdraw,
}
