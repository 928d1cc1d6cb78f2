//! Fixture: the seeded event scheduler, with queues built once at set-up
//! and a delivery loop that allocates nothing and cannot panic.

/// One FIFO per directed link plus the list of the non-empty ones.
#[derive(Debug)]
pub struct Scheduler {
    queues: Vec<std::collections::VecDeque<u64>>,
    ready: Vec<usize>,
    delivered: u64,
}

impl Scheduler {
    /// Queues `message` on `link`, listing the link if it was idle.
    pub fn broadcast(&mut self, link: usize, message: u64) {
        if let Some(queue) = self.queues.get_mut(link) {
            if queue.is_empty() {
                self.ready.push(link);
            }
            queue.push_back(message);
        }
    }

    /// Pops the head of the link `draw` picks until no link holds a
    /// message.
    pub fn deliver_all(&mut self, mut draw: impl FnMut(usize) -> usize) {
        while !self.ready.is_empty() {
            let slot = draw(self.ready.len()).min(self.ready.len() - 1);
            let link = self.ready.swap_remove(slot);
            if let Some(queue) = self.queues.get_mut(link) {
                if queue.pop_front().is_some() {
                    self.delivered += 1;
                }
                if !queue.is_empty() {
                    self.ready.push(link);
                }
            }
        }
    }
}

/// Runs the scheduler to quiescence over `links` directed links.
pub fn run_event_driven(links: usize, draw: impl FnMut(usize) -> usize) -> u64 {
    let mut scheduler = Scheduler {
        queues: (0..links).map(|_| std::collections::VecDeque::new()).collect(),
        ready: Vec::new(),
        delivered: 0,
    };
    for link in 0..links {
        scheduler.broadcast(link, link as u64);
    }
    scheduler.deliver_all(draw);
    scheduler.delivered
}
