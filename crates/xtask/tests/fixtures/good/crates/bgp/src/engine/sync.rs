//! Fixture: the lock-step side of the stage engine, hygiene-clean.

/// The stage engine as the lock-step run loop sees it.
#[derive(Debug)]
pub struct Engine {
    sent: u32,
}

/// Perfect delivery into the next stage's inbox.
#[derive(Debug)]
pub struct LockStep;

impl LockStep {
    /// Accounts one payload as it is queued.
    pub fn send(engine: &mut Engine, bytes: u32) {
        engine.sent = engine.sent.saturating_add(bytes);
    }
}

impl Engine {
    /// Runs one stage and settles what it sent.
    pub fn run_stage(&mut self) -> Result<u32, String> {
        LockStep::send(self, 1);
        Ok(std::mem::take(&mut self.sent))
    }
}
