//! Tiny statistics helpers shared by the hardware models and telemetry.
//!
//! The GPU and accelerator models reason about *distributions* recorded from
//! real workloads (per-pixel Gaussian-list lengths, atomic-collision counts);
//! [`Summary`] is the carrier of those distributions and of span timings.
//! [`percentile`] is the one quantile rule: nearest rank over the samples
//! themselves, so a quoted quantile is always one of the recorded values.

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

/// Percentile of a sample (nearest-rank), `p ∈ [0, 100]`: the sample of
/// rank `⌈p/100 · n⌉` in ascending order, with the rank clamped to
/// `[1, n]` (so `p = 0` gives the minimum and `p = 100` the maximum).
///
/// The result is always one of the samples — an exact order statistic,
/// never an interpolation. Returns 0 for an empty slice. Values are ranked
/// by [`f64::total_cmp`], so a NaN sample ranks above +∞ (or below −∞ when
/// its sign bit is set) instead of leaving the order undefined. Sorts
/// `values` in place.
///
/// # Examples
///
/// ```
/// use splatonic_math::stats::percentile;
/// let mut v = vec![4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&mut v, 50.0), 2.0);
/// assert_eq!(percentile(&mut v, 95.0), 4.0);
/// ```
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    values[rank - 1]
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
    fn percentile_nearest_rank() {
        let mut v = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&mut v, 0.0), 10.0);
        assert_eq!(percentile(&mut v, 100.0), 50.0);
        assert_eq!(percentile(&mut v, 50.0), 30.0);
        assert_eq!(percentile(&mut v, 95.0), 50.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);

        // n = 4: rank ⌈0.5 · 4⌉ = 2, the lower middle sample.
        let mut v = vec![4.0, 3.0, 2.0, 1.0];
        assert_eq!(percentile(&mut v, 50.0), 2.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 4.0);
        assert_eq!(percentile(&mut v, 75.0), 3.0);
        assert_eq!(percentile(&mut v, 75.1), 4.0);

        // A NaN sample is ranked by `total_cmp`: above every finite value.
        let mut v = vec![2.0, f64::NAN, 1.0];
        assert_eq!(percentile(&mut v, 50.0), 2.0);
        assert!(percentile(&mut v, 100.0).is_nan());
        assert_eq!(percentile(&mut v, 0.0), 1.0);
    }
}
