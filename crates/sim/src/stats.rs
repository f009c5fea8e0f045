//! Lightweight online statistics used by the metrics layer.

/// Running mean / min / max / count over a stream of observations.
///
/// # Examples
///
/// ```
/// use tashkent_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// s.observe(2.0);
/// s.observe(4.0);
/// assert_eq!(s.mean(), 3.0);
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the observations, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation, or zero when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or zero when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-bucket histogram for latency-style distributions.
///
/// Buckets are linear in `bucket_width` up to `bucket_width * buckets`, with
/// one overflow bucket at the end. Percentiles are estimated by walking the
/// cumulative counts and reporting the upper edge of the containing bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` linear buckets of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or `bucket_width` is not positive.
    pub fn new(bucket_width: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(bucket_width > 0.0, "bucket width must be positive");
        Histogram {
            bucket_width,
            counts: vec![0; buckets + 1],
            total: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, x: f64) {
        let idx = if x < 0.0 {
            0
        } else {
            ((x / self.bucket_width) as usize).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Estimates percentile `p` in `[0, 100]`; zero when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0 * self.total as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return (i as f64 + 1.0) * self.bucket_width;
            }
        }
        self.counts.len() as f64 * self.bucket_width
    }
}

/// The 64-bit FNV-1a offset basis: the digest of an empty sequence.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `value`'s 8 little-endian bytes into the 64-bit FNV-1a digest
/// `hash`, which starts at [`FNV1A_BASIS`]: sequences of values that
/// differ give different digests, short of a 64-bit collision.
pub fn fnv1a_fold(hash: u64, value: u64) -> u64 {
    value.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_empty_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn online_stats_tracks_extremes() {
        let mut s = OnlineStats::new();
        for x in [3.0, -1.0, 10.0] {
            s.observe(x);
        }
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn online_stats_merge_combines() {
        let mut a = OnlineStats::new();
        a.observe(1.0);
        let mut b = OnlineStats::new();
        b.observe(5.0);
        b.observe(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 5.0);
        assert_eq!(a.min(), 1.0);
        assert!((a.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_empty_is_noop() {
        let mut a = OnlineStats::new();
        a.observe(2.0);
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), 2.0);
    }

    #[test]
    fn histogram_percentiles_roughly_correct() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.observe(i as f64 + 0.5);
        }
        let p50 = h.percentile(50.0);
        assert!((49.0..=52.0).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(99.0);
        assert!((98.0..=100.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn histogram_overflow_bucket_catches_outliers() {
        let mut h = Histogram::new(1.0, 10);
        h.observe(1e9);
        assert_eq!(h.count(), 1);
        assert!(h.percentile(100.0) >= 10.0);
    }

    #[test]
    fn histogram_negative_goes_to_first_bucket() {
        let mut h = Histogram::new(1.0, 10);
        h.observe(-5.0);
        assert!(h.percentile(100.0) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_zero_buckets() {
        Histogram::new(1.0, 0);
    }
}
