//! Fixture: the lock-step transport of the stage engine, hygiene-clean.

/// Perfect delivery into the next stage's inbox.
#[derive(Debug)]
pub struct LockStep {
    sent: u32,
}

impl LockStep {
    /// Accounts one payload as it is queued.
    pub fn send(&mut self, bytes: u32) {
        self.sent = self.sent.saturating_add(bytes);
    }
}
