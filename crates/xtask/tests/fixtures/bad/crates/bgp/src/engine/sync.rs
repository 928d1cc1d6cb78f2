//! Fixture: a lock-step transport that leaks a thread, relaxes an
//! ordering, panics on a hot path, and dips into unsafe.

/// The lock-step transport.
#[derive(Debug)]
pub struct LockStep {
    buffers: Vec<u32>,
}

impl LockStep {
    /// Queues one payload on a thread of its own.
    pub fn send(&mut self) -> u32 {
        let staged = self.buffers.len() as u32;
        let handle = std::thread::spawn(move || staged);
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
