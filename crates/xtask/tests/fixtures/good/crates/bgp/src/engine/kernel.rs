//! Fixture: the shared stage engine, hygiene-clean.

/// One payload on its way out, sized at most once.
#[derive(Debug)]
pub struct Parcel {
    bytes: Option<u32>,
}

impl Parcel {
    /// The payload's encoded size, computed on first use.
    pub fn size(&mut self) -> u32 {
        *self.bytes.get_or_insert(8)
    }
}

/// Queues `update` into a preallocated inbox.
pub fn enqueue(inbox: &mut [u32], update: u32) {
    if let Some(slot) = inbox.first_mut() {
        *slot = slot.saturating_add(update);
    }
}

/// The stage engine, with buffers preallocated at construction.
#[derive(Debug)]
pub struct Engine {
    buffers: Vec<u32>,
}

impl Engine {
    /// Runs one stage around the handle pass and settles what it sent.
    pub fn run_stage(&mut self) -> Result<u32, String> {
        let total = self.handle_pass()?;
        Ok(total.saturating_add(1))
    }

    /// Runs every dirty node, reusing the preallocated buffers.
    pub fn handle_pass(&mut self) -> Result<u32, String> {
        let total: u32 = self.buffers.iter().sum();
        self.advertise(total);
        self.buffers.clear();
        Ok(total)
    }

    /// Stamps one node's emission and puts it on every link.
    pub fn advertise(&mut self, emitted: u32) {
        self.send_tapped(emitted);
    }

    /// Offers one copy to the wire tap and sends what comes out.
    fn send_tapped(&mut self, emitted: u32) {
        enqueue(&mut self.buffers, emitted);
    }
}

/// Partitions receivers across scoped workers, one output slot each.
pub fn sharded_handle(receiving: &mut [u32]) -> Result<(), String> {
    std::thread::scope(|scope| {
        for chunk in receiving.chunks_mut(2) {
            scope.spawn(move || {
                for slot in chunk.iter_mut() {
                    *slot = slot.saturating_add(1);
                }
            });
        }
    });
    Ok(())
}
