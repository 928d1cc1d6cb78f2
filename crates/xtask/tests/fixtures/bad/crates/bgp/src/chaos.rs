//! Fixture: a chaos engine whose helper chain panics.

/// Chaos-mode engine.
#[derive(Debug)]
pub struct Engine {
    ticks: u32,
}

impl Engine {
    /// Advances one step.
    pub fn step(&mut self) -> bool {
        self.ticks += 1;
        tick_parity(self.ticks)
    }

    /// Runs until stable.
    pub fn run_to_stable(&mut self) -> u32 {
        while !self.step() {}
        self.ticks
    }
}

fn tick_parity(ticks: u32) -> bool {
    if ticks == u32::MAX {
        panic!("tick counter saturated");
    }
    ticks % 2 == 0
}
