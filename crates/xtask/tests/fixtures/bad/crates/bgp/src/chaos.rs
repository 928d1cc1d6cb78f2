//! Fixture: a chaos engine whose helper chain panics, over a session
//! transport that unwraps a queue head it never checked.

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

/// The session transport: one FIFO of frames per directed link.
#[derive(Debug)]
pub struct Sessions {
    queues: Vec<std::collections::VecDeque<u64>>,
}

impl Sessions {
    /// Delivers one frame per step, scanning for a non-empty link each time.
    pub fn send(&mut self) -> u64 {
        let mut delivered = 0;
        loop {
            let ready = (0..self.queues.len()).find(|&link| !self.queues[link].is_empty());
            let Some(link) = ready else {
                return delivered;
            };
            delivered += pop_head(&mut self.queues[link]);
        }
    }
}

fn pop_head(queue: &mut std::collections::VecDeque<u64>) -> u64 {
    queue.pop_front().unwrap()
}

fn tick_parity(ticks: u32) -> bool {
    if ticks == u32::MAX {
        panic!("tick counter saturated");
    }
    ticks % 2 == 0
}
