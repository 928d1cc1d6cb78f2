//! Fixture: the session side of the stage engine, with one
//! consciously-accepted panic site proving the allowlist mechanism end to
//! end.

/// The stage engine as the chaos harness sees it.
#[derive(Debug)]
pub struct Engine {
    stable: bool,
    ticks: u32,
}

/// The sequenced session layer.
#[derive(Debug)]
pub struct Sessions;

impl Sessions {
    /// Frames one payload for the channel.
    pub fn send(engine: &mut Engine, bytes: u32) {
        engine.ticks = engine.ticks.saturating_add(bytes);
    }

    /// Delivers the frames due ahead of the handle pass.
    pub fn before_handle(engine: &mut Engine) {
        engine.ticks = engine.ticks.saturating_add(1);
    }

    /// Runs the session timers after the handle pass.
    pub fn after_handle(engine: &mut Engine) {
        engine.stable = engine.ticks % 2 == 0;
    }
}

impl Engine {
    /// Advances one chaotic step.
    pub fn step(&mut self) -> Result<bool, String> {
        self.ticks = self.ticks.checked_add(1).ok_or("tick overflow")?;
        // lint:allow(fixture: checked_rem by a nonzero constant is always Some)
        let parity = self.ticks.checked_rem(2).unwrap();
        self.stable = parity == 0;
        Ok(self.stable)
    }

    /// Runs until the session stabilizes.
    pub fn run_to_stable(&mut self) -> Result<u32, String> {
        while !self.step()? {}
        Ok(self.ticks)
    }
}
