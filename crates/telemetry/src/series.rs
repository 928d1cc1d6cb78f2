//! Deterministic time series and mergeable quantile sketches.
//!
//! Two building blocks behind the convergence health monitor
//! (`docs/OBSERVABILITY.md` §time-series):
//!
//! * [`TimeSeries`] — a fixed-capacity ring of `(stage, value)` samples.
//!   Capacity is chosen at construction and never grows, so per-stage
//!   sampling on a run loop cannot allocate after setup; once full, the
//!   oldest samples are overwritten (and counted in [`TimeSeries::dropped`]).
//! * [`QuantileSketch`] — a power-of-two bucketed summary answering
//!   p50/p90/p99/max over `u64` samples. The bucket layout is fixed, every
//!   operation is integer arithmetic, and [`QuantileSketch::merge`] is
//!   commutative **and associative** (bucket counts add, sums saturate,
//!   maxima max), so merging per-worker shards in any grouping yields the
//!   same sketch bit-for-bit as recording serially. That is what lets the
//!   parallel engine report the same health verdicts as the serial one.
//!
//! Samples are keyed by the synchronous engine's stage index, not by wall
//! time: the injectable [`crate::Clock`] supplies nanoseconds where a
//! duration is the *value* being recorded, but placement on the series is
//! always deterministic.

use crate::event::INFINITE;

/// Number of buckets in a [`QuantileSketch`]: bucket 0 holds the value 0,
/// bucket `i` (1..=64) holds values in `[2^(i-1), 2^i)`.
pub const SKETCH_BUCKETS: usize = 65;

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

/// A deterministic, mergeable quantile summary over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: [u64; SKETCH_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            counts: [0; SKETCH_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound a bucket's samples are reported as. This
    /// over-approximates, never under-approximates, a quantile.
    fn bucket_upper(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            64 => INFINITE,
            b => (1u64 << b) - 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        // lint:allow(bounds: bucket() returns the leading-bit index, always below the 65-slot counts array)
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Commutative and associative: bucket
    /// counts add, sums saturate (min of `u64::MAX` and the true total in
    /// every grouping), maxima take the max — so any merge tree over the
    /// same shards produces the identical sketch.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `permille`/1000 (e.g. 500 = p50), reported as
    /// the holding bucket's upper bound; the maximum is exact. Returns 0
    /// when empty.
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let permille = permille.min(1000);
        // Rank of the sample at this quantile, 1-based, rounded up so
        // p100 is the last sample.
        let rank = (self.count * permille).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The top bucket's upper bound is ∞; the true max is tighter.
                return Self::bucket_upper(bucket).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile_permille(500)
    }

    /// 90th percentile (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile_permille(900)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile_permille(990)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Compact JSON summary:
    /// `{"count":N,"sum":S,"p50":..,"p90":..,"p99":..,"max":..}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            self.count,
            self.sum,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
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

    #[test]
    fn quantiles_over_known_samples() {
        let mut sketch = QuantileSketch::new();
        for v in 1..=100u64 {
            sketch.record(v);
        }
        assert_eq!(sketch.count(), 100);
        assert_eq!(sketch.max(), 100);
        // Bucket upper bounds: p50 of 1..=100 lands in [32,64) -> 63.
        assert_eq!(sketch.p50(), 63);
        assert_eq!(sketch.p90(), 100); // capped by the true max
        assert_eq!(sketch.quantile_permille(1000), 100);
        assert_eq!(QuantileSketch::new().p99(), 0);
    }

    #[test]
    fn merge_matches_serial_recording_bit_for_bit() {
        let samples: Vec<u64> = (0..200).map(|i| i * 37 % 1023).collect();
        let mut serial = QuantileSketch::new();
        for &v in &samples {
            serial.record(v);
        }
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for (i, &v) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, serial);
        // And the opposite grouping.
        let mut flipped = right;
        flipped.merge(&left);
        assert_eq!(flipped, serial);
    }

    #[test]
    fn merge_is_associative() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut c = QuantileSketch::new();
        for v in 0..50u64 {
            a.record(v * 3);
            b.record(v * 7 + 1);
            c.record(v * 11 + 2);
        }
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn saturating_sum_is_grouping_independent() {
        let mut a = QuantileSketch::new();
        a.record(u64::MAX - 10);
        let mut b = QuantileSketch::new();
        b.record(u64::MAX - 10);
        let mut c = QuantileSketch::new();
        c.record(5);
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a2 = a.clone();
        a2.merge(&bc);
        assert_eq!(ab.sum(), u64::MAX);
        assert_eq!(ab, a2);
    }
}
