//! Fixture: a lock-step transport that allocates per send, leaks a
//! thread, relaxes an ordering, panics on a hot path, and dips into unsafe.

/// The lock-step transport.
#[derive(Debug)]
pub struct LockStep {
    buffers: Vec<u32>,
}

impl LockStep {
    /// Queues one payload, allocating a fresh buffer every time.
    pub fn send(&mut self) -> u32 {
        let staged: Vec<u32> = vec![0; self.buffers.len()];
        let handle = std::thread::spawn(move || staged.len() as u32);
        handle.join().unwrap()
    }
}

/// Bumps the stage counter without ordering guarantees.
pub fn bump(counter: &std::sync::atomic::AtomicU32) {
    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// Reads the first buffer slot without a bounds check.
pub fn first_unchecked(buffers: &[u32]) -> u32 {
    unsafe { *buffers.get_unchecked(0) }
}
