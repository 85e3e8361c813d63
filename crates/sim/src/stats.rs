//! Streaming statistics for Monte-Carlo runs.

/// Welford online accumulator for mean and variance, with extremes.
///
/// # Examples
///
/// ```
/// use zeroconf_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.variance(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (zero before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (zero with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        }
    }

    /// Sample standard deviation.
    pub fn standard_deviation(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.count > 0 {
            (self.variance() / self.count as f64).sqrt()
        } else {
            0.0
        }
    }

    /// Smallest observation (`+∞` before any observation).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` before any observation).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Wilson score interval for a binomial proportion — more trustworthy than
/// the normal approximation for the tiny collision rates this simulator
/// estimates.
///
/// Returns `(lower, upper)` at 95 % confidence; `(0, 1)` when `trials` is
/// zero.
pub fn wilson_interval_95(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959_963_985f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn known_small_sample() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn wilson_interval_behaves() {
        let (lo, hi) = wilson_interval_95(0, 0);
        assert_eq!((lo, hi), (0.0, 1.0));
        // Zero successes: interval starts at (numerically) zero but stays
        // informative.
        let (lo, hi) = wilson_interval_95(0, 1000);
        assert!(lo.abs() < 1e-12);
        assert!(hi < 0.01);
        // Half successes: symmetric-ish around 0.5.
        let (lo, hi) = wilson_interval_95(500, 1000);
        assert!(lo < 0.5 && hi > 0.5);
        assert!((0.5 - lo - (hi - 0.5)).abs() < 1e-6);
        // All successes.
        let (lo, hi) = wilson_interval_95(1000, 1000);
        assert!(lo > 0.99);
        assert!(hi > 1.0 - 1e-12);
    }

    #[test]
    fn wilson_contains_true_rate_for_typical_case() {
        let (lo, hi) = wilson_interval_95(30, 1000);
        assert!(lo < 0.03 && 0.03 < hi);
    }
}

/// A sample store for empirical quantiles (user-perceived latency
/// percentiles of configuration time, tail costs, …).
///
/// Keeps every observation; for the Monte-Carlo sizes this crate runs
/// (10⁵–10⁶) that is a few megabytes and exact, which beats a sketch.
///
/// # Examples
///
/// ```
/// use zeroconf_sim::stats::Quantiles;
///
/// let mut q = Quantiles::new();
/// for v in 1..=99 {
///     q.push(v as f64);
/// }
/// assert_eq!(q.quantile(0.5), Some(50.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Creates an empty store.
    pub fn new() -> Self {
        Quantiles::default()
    }

    /// Adds an observation; non-finite values are ignored (and should not
    /// occur in this crate's pipelines).
    pub fn push(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
        }
    }

    /// Number of stored observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The empirical `q`-quantile (nearest-rank), `None` when empty or `q`
    /// outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&q) || !q.is_finite() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let idx =
            ((q * (self.samples.len() - 1) as f64).round() as usize).min(self.samples.len() - 1);
        Some(self.samples[idx])
    }

    /// Convenience: the median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Convenience: the 95th percentile — the "slow but not pathological"
    /// configuration experience.
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod quantile_tests {
    use super::*;

    #[test]
    fn empty_store_has_no_quantiles() {
        let mut q = Quantiles::new();
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.count(), 0);
    }

    #[test]
    fn quantiles_walk_sorted_data() {
        let mut q = Quantiles::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(v);
        }
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.median(), Some(3.0));
        assert_eq!(q.quantile(1.0), Some(5.0));
    }

    #[test]
    fn out_of_range_levels_are_rejected() {
        let mut q = Quantiles::new();
        q.push(1.0);
        assert_eq!(q.quantile(-0.1), None);
        assert_eq!(q.quantile(1.1), None);
        assert_eq!(q.quantile(f64::NAN), None);
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut q = Quantiles::new();
        q.push(f64::NAN);
        q.push(f64::INFINITY);
        q.push(2.0);
        assert_eq!(q.count(), 1);
        assert_eq!(q.median(), Some(2.0));
    }

    #[test]
    fn pushes_after_query_resort() {
        let mut q = Quantiles::new();
        q.push(10.0);
        assert_eq!(q.median(), Some(10.0));
        q.push(1.0);
        q.push(2.0);
        assert_eq!(q.median(), Some(2.0));
    }

    #[test]
    fn p95_and_p99_of_uniform_grid() {
        let mut q = Quantiles::new();
        for v in 1..=1000 {
            q.push(v as f64);
        }
        assert!((q.p95().unwrap() - 950.0).abs() <= 1.0);
        assert!((q.p99().unwrap() - 990.0).abs() <= 1.0);
    }
}
