//! A deterministic, fixed-capacity time series.
//!
//! [`TimeSeries`] is a ring of `(stage, value)` samples. Capacity is chosen
//! at construction and never grows, so per-stage sampling on a run loop
//! cannot allocate after setup; once full, the oldest samples are
//! overwritten (and counted in [`TimeSeries::dropped`]). The per-stage
//! economics sampler (`bgpvcg_core::econ`) records premiums and welfare
//! into these rings, and `e18_overcharge_vs_diversity` prints them.
//!
//! Samples are keyed by the synchronous engine's stage index, not by wall
//! time, so placement on the series is always deterministic.

/// A fixed-capacity ring of `(stage, value)` samples in arrival order.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    samples: Vec<(u64, u64)>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl TimeSeries {
    /// Creates an empty series holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "time series capacity must be positive");
        TimeSeries {
            samples: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends one sample, overwriting the oldest once full. Never
    /// reallocates after the ring first fills.
    pub fn push(&mut self, stage: u64, value: u64) {
        if self.samples.len() < self.capacity {
            self.samples.push((stage, value));
        } else {
            // lint:allow(bounds: head stays below capacity by the modulo step and samples is capacity-full here)
            self.samples[self.head] = (stage, value);
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// How many samples were overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recently pushed sample.
    pub fn last(&self) -> Option<(u64, u64)> {
        if self.samples.is_empty() {
            None
        } else if self.samples.len() < self.capacity {
            self.samples.last().copied()
        } else {
            let idx = (self.head + self.capacity - 1) % self.capacity;
            // lint:allow(bounds: idx is reduced modulo capacity and samples is capacity-full here)
            Some(self.samples[idx])
        }
    }

    /// Retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (tail, front) = self.samples.split_at(self.head);
        front.iter().chain(tail.iter()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut series = TimeSeries::new(3);
        for stage in 1..=5u64 {
            series.push(stage, stage * 10);
        }
        assert_eq!(series.len(), 3);
        assert_eq!(series.dropped(), 2);
        let points: Vec<_> = series.iter().collect();
        assert_eq!(points, vec![(3, 30), (4, 40), (5, 50)]);
        assert_eq!(series.last(), Some((5, 50)));
    }
}
