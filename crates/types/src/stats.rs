//! Small statistics helpers shared across the simulator crates.

/// Saturating event counter with mean/min/max tracking for an associated
/// magnitude (e.g. latency per event, merged requests per entry).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counter {
    /// Number of recorded events.
    pub events: u64,
    /// Sum of recorded magnitudes.
    pub sum: u128,
    /// Minimum recorded magnitude (0 when empty).
    pub min: u64,
    /// Maximum recorded magnitude.
    pub max: u64,
}

impl Counter {
    /// Fresh, empty counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Record one event of the given magnitude.
    #[inline]
    pub fn record(&mut self, value: u64) {
        if self.events == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.events += 1;
        self.sum += value as u128;
    }

    /// Increment the event count with magnitude 1 (pure tally).
    #[inline]
    pub fn tick(&mut self) {
        self.record(1);
    }

    /// Arithmetic mean of recorded magnitudes (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.sum as f64 / self.events as f64
        }
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        if other.events == 0 {
            return;
        }
        if self.events == 0 {
            *self = other.clone();
            return;
        }
        self.events += other.events;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_min_max_mean() {
        let mut c = Counter::new();
        assert_eq!(c.mean(), 0.0);
        c.record(10);
        c.record(20);
        c.record(30);
        assert_eq!(c.events, 3);
        assert_eq!(c.min, 10);
        assert_eq!(c.max, 30);
        assert_eq!(c.mean(), 20.0);
    }

    #[test]
    fn first_record_initializes_min() {
        let mut c = Counter::new();
        c.record(5);
        assert_eq!(c.min, 5);
        assert_eq!(c.max, 5);
    }

    #[test]
    fn merge_combines_disjoint_ranges() {
        let mut a = Counter::new();
        a.record(1);
        a.record(2);
        let mut b = Counter::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.events, 3);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 100);

        let mut empty = Counter::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        let before = a.clone();
        a.merge(&Counter::new());
        assert_eq!(a, before);
    }

    #[test]
    fn tick_counts_events() {
        let mut c = Counter::new();
        for _ in 0..7 {
            c.tick();
        }
        assert_eq!(c.events, 7);
        assert_eq!(c.sum, 7);
    }
}

/// Log-scaled latency histogram with percentile queries.
///
/// Buckets are powers of two (bucket `i` holds values in
/// `[2^i, 2^(i+1))`, bucket 0 holds 0 and 1), giving ~2x resolution over
/// any latency range with 64 fixed buckets — enough for p50/p95/p99
/// reporting without storing samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < 2 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The 64 raw bucket counts (bucket `i` holds values in
    /// `[2^i, 2^(i+1))`). Exposed for serialization in the experiment
    /// engine's result cache.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuild a histogram from serialized parts (the inverse of
    /// [`Histogram::buckets`] + [`Histogram::count`]). `buckets` longer
    /// than 64 entries are truncated; shorter ones are zero-padded.
    pub fn from_parts(bucket_counts: &[u64], count: u64) -> Self {
        let mut buckets = vec![0u64; 64];
        for (dst, src) in buckets.iter_mut().zip(bucket_counts) {
            *dst = *src;
        }
        Histogram { buckets, count }
    }

    /// Approximate value at quantile `q` in `[0, 1]` (upper bound of the
    /// containing bucket). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match i {
                    0 => 1,
                    63 => u64::MAX,
                    _ => (1u64 << (i + 1)) - 1,
                };
            }
        }
        u64::MAX
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn quantiles_bound_the_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Bucket upper bounds: p50 in [500, 1023], p99 in [991, 1023].
        assert!((500..=1023).contains(&p50), "{p50}");
        assert!((991..=1023).contains(&p99), "{p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(300);
        // 300 lives in [256, 512): upper bound 511.
        assert_eq!(h.quantile(0.0), 511);
        assert_eq!(h.quantile(1.0), 511);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) >= 10_000);
        assert!(a.quantile(0.25) <= 15);
    }

    #[test]
    fn zero_and_one_share_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.quantile(1.0), 1);
    }
}
