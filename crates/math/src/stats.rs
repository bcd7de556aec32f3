//! Tiny statistics helpers shared by the hardware models.
//!
//! The GPU and accelerator models reason about *distributions* recorded from
//! real workloads (per-pixel Gaussian-list lengths, atomic-collision counts);
//! [`Summary`] and [`Histogram`] are the carriers of those distributions.

/// Summary statistics of a sample.
///
/// # Examples
///
/// ```
/// use splatonic_math::stats::Summary;
/// let s = Summary::from_iter([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: usize,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    // Must match `new()`: a derived Default would seed min/max with 0.0,
    // corrupting the extrema of every summary built via `..Default::default()`.
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Rebuilds a summary from its raw accumulator fields, the inverse of
    /// the (`count`, `sum`, `sum_sq`, raw `min`/`max`) accessors. Intended
    /// for serialization round-trips: the fields are stored verbatim (an
    /// empty summary keeps `min = +∞`, `max = −∞`), so
    /// `Summary::from_parts(s.count(), s.sum(), s.sum_sq(), s.raw_min(),
    /// s.raw_max()) == s` bitwise.
    pub fn from_parts(count: usize, sum: f64, sum_sq: f64, min: f64, max: f64) -> Self {
        Summary {
            count,
            sum,
            sum_sq,
            min,
            max,
        }
    }

    /// Builds a summary from an iterator of samples (also available via
    /// the [`FromIterator`] impl / `collect()`).
    #[allow(clippy::should_implement_trait)] // FromIterator is implemented below
    pub fn from_iter(values: impl IntoIterator<Item = f64>) -> Self {
        values.into_iter().collect()
    }

    /// Adds a sample.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sum of samples (0 for an empty summary).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sum of squared samples (0 for an empty summary). Exposed, together
    /// with [`Summary::raw_min`] / [`Summary::raw_max`], so a summary can be
    /// serialized and rebuilt bitwise via [`Summary::from_parts`].
    pub fn sum_sq(&self) -> f64 {
        self.sum_sq
    }

    /// The raw minimum accumulator: `+∞` for an empty summary (unlike
    /// [`Summary::min`], which reports 0 there).
    pub fn raw_min(&self) -> f64 {
        self.min
    }

    /// The raw maximum accumulator: `−∞` for an empty summary (unlike
    /// [`Summary::max`], which reports 0 there).
    pub fn raw_max(&self) -> f64 {
        self.max
    }

    /// Mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance (0 for fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.count as f64 - m * m).max(0.0)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample (0 for an empty summary).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 for an empty summary).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut s = Summary::new();
        for v in values {
            s.push(v);
        }
        s
    }
}

/// A fixed-bin histogram over `[0, max)` with one overflow bin.
///
/// # Examples
///
/// ```
/// use splatonic_math::stats::Histogram;
/// let mut h = Histogram::new(4, 8.0);
/// h.record(1.0);
/// h.record(9.0); // overflow
/// assert_eq!(h.total(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Vec<u64>,
    overflow: u64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[0, max)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `max <= 0`.
    pub fn new(bins: usize, max: f64) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(max > 0.0, "histogram max must be positive");
        Histogram {
            bins: vec![0; bins],
            overflow: 0,
            max,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, v: f64) {
        if v < 0.0 {
            return;
        }
        let idx = (v / self.max * self.bins.len() as f64) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Bin counts (excluding overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Overflow count.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.overflow
    }

    /// Fraction of samples at or above `threshold`.
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let start = ((threshold / self.max) * self.bins.len() as f64).ceil() as usize;
        let tail: u64 = self.bins[start.min(self.bins.len())..].iter().sum::<u64>() + self.overflow;
        tail as f64 / total as f64
    }
}

/// Percentile of a sample (nearest-rank), `p ∈ [0, 100]`.
///
/// Returns 0 for an empty slice. Values are ranked by [`f64::total_cmp`],
/// so a NaN sample ranks above +∞ (or below −∞ when its sign bit is set)
/// instead of leaving the order undefined.
///
/// # Examples
///
/// ```
/// use splatonic_math::stats::percentile;
/// let mut v = vec![5.0, 1.0, 3.0];
/// assert_eq!(percentile(&mut v, 50.0), 3.0);
/// ```
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (values.len() as f64 - 1.0)).round() as usize;
    values[rank.min(values.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::from_iter([2.0, 4.0, 6.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 6.0);
        assert!((s.variance() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn summary_merge_equals_combined() {
        let mut a = Summary::from_iter([1.0, 2.0]);
        let b = Summary::from_iter([3.0, 4.0]);
        a.merge(&b);
        let c = Summary::from_iter([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.count(), c.count());
        assert!((a.mean() - c.mean()).abs() < 1e-12);
        assert!((a.variance() - c.variance()).abs() < 1e-12);
    }

    #[test]
    fn summary_from_parts_round_trips_bitwise() {
        for s in [
            Summary::new(),
            Summary::from_iter([1.5, -2.25, 7.0]),
            Summary::from_iter([0.0]),
        ] {
            let r = Summary::from_parts(s.count(), s.sum(), s.sum_sq(), s.raw_min(), s.raw_max());
            assert_eq!(r.count(), s.count());
            assert_eq!(r.sum().to_bits(), s.sum().to_bits());
            assert_eq!(r.sum_sq().to_bits(), s.sum_sq().to_bits());
            assert_eq!(r.raw_min().to_bits(), s.raw_min().to_bits());
            assert_eq!(r.raw_max().to_bits(), s.raw_max().to_bits());
        }
        // Empty summaries keep the infinite sentinels through the trip.
        let e = Summary::new();
        assert!(e.raw_min().is_infinite() && e.raw_max().is_infinite());
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(4, 8.0);
        for v in [0.5, 2.5, 4.5, 6.5, 10.0] {
            h.record(v);
        }
        assert_eq!(h.bins(), &[1, 1, 1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_fraction_at_least() {
        let mut h = Histogram::new(8, 8.0);
        for v in 0..8 {
            h.record(v as f64 + 0.5);
        }
        assert!((h.fraction_at_least(4.0) - 0.5).abs() < 1e-12);
        assert_eq!(h.fraction_at_least(0.0), 1.0);
    }

    #[test]
    fn histogram_ignores_negatives() {
        let mut h = Histogram::new(2, 1.0);
        h.record(-1.0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&mut v, 0.0), 10.0);
        assert_eq!(percentile(&mut v, 100.0), 50.0);
        assert_eq!(percentile(&mut v, 50.0), 30.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }
}
