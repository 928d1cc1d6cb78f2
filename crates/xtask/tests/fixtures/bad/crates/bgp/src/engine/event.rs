//! Fixture: an event scheduler that rebuilds its ready list on every
//! delivery and unwraps a queue head it never checked.

/// One FIFO per directed link.
#[derive(Debug)]
pub struct Scheduler {
    queues: Vec<std::collections::VecDeque<u64>>,
}

impl Scheduler {
    /// Pops one head per step, scanning for non-empty links each time.
    pub fn deliver_all(&mut self) -> u64 {
        let mut delivered = 0;
        loop {
            let ready: Vec<usize> = (0..self.queues.len())
                .filter(|&link| !self.queues[link].is_empty())
                .collect();
            let Some(&link) = ready.first() else {
                return delivered;
            };
            delivered += pop_head(&mut self.queues[link]);
        }
    }
}

fn pop_head(queue: &mut std::collections::VecDeque<u64>) -> u64 {
    queue.pop_front().unwrap()
}

/// Runs the scheduler to quiescence.
pub fn run_event_driven(queues: Vec<std::collections::VecDeque<u64>>) -> u64 {
    Scheduler { queues }.deliver_all()
}
