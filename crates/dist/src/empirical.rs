//! Empirical reply-time distributions built from measured samples.

use zeroconf_rng::RngCore;

use crate::{DistError, ReplyTimeDistribution};

/// The measured-data case the paper asks for ("Preferably, it should be
/// based on measurements", Section 3.2): an empirical CDF over observed
/// reply times, where `None` observations record probes that never got a
/// reply.
///
/// The CDF is the usual right-continuous step function; `mass()` is the
/// observed arrival fraction. Sampling re-draws uniformly from the
/// observations (a bootstrap draw).
///
/// # Examples
///
/// ```
/// use zeroconf_dist::{Empirical, ReplyTimeDistribution};
///
/// # fn main() -> Result<(), zeroconf_dist::DistError> {
/// let measured = vec![Some(0.1), Some(0.2), Some(0.2), None];
/// let d = Empirical::from_observations(measured)?;
/// assert_eq!(d.mass(), 0.75);
/// assert_eq!(d.cdf(0.15), 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Sorted arrival times.
    times: Vec<f64>,
    /// Total number of observations including losses.
    total: usize,
}

impl Empirical {
    /// Builds the distribution from observations; `None` marks a lost
    /// reply.
    ///
    /// # Errors
    ///
    /// - [`DistError::EmptyInput`] when no observations are supplied.
    /// - [`DistError::InvalidSample`] for negative or non-finite times.
    pub fn from_observations(observations: Vec<Option<f64>>) -> Result<Self, DistError> {
        if observations.is_empty() {
            return Err(DistError::EmptyInput);
        }
        let total = observations.len();
        let mut times = Vec::with_capacity(total);
        for (index, obs) in observations.into_iter().enumerate() {
            if let Some(t) = obs {
                if !t.is_finite() || t < 0.0 {
                    return Err(DistError::InvalidSample { index, value: t });
                }
                times.push(t);
            }
        }
        times.sort_by(f64::total_cmp);
        Ok(Empirical { times, total })
    }

    /// Number of observations (arrivals plus losses).
    pub fn num_observations(&self) -> usize {
        self.total
    }

    /// Number of observed arrivals.
    pub fn num_arrivals(&self) -> usize {
        self.times.len()
    }

    /// The empirical `q`-quantile of the arrival times, if any arrived.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidQuery`] unless `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<Option<f64>, DistError> {
        if !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return Err(DistError::InvalidQuery {
                what: "quantile level must be in [0, 1]",
                value: q,
            });
        }
        if self.times.is_empty() {
            return Ok(None);
        }
        let idx = ((q * (self.times.len() - 1) as f64).round() as usize).min(self.times.len() - 1);
        Ok(Some(self.times[idx]))
    }
}

impl ReplyTimeDistribution for Empirical {
    fn mass(&self) -> f64 {
        self.times.len() as f64 / self.total as f64
    }

    fn fingerprint(&self) -> u64 {
        self.times
            .iter()
            .fold(
                crate::Fingerprint::new("empirical").with_u64(self.total as u64),
                |h, t| h.with_f64(*t),
            )
            .finish()
    }

    fn retained_bytes(&self) -> usize {
        std::mem::size_of_val(self) + self.times.capacity() * std::mem::size_of::<f64>()
    }

    fn cdf(&self, t: f64) -> f64 {
        // Count of arrivals <= t via binary search on the sorted times.
        let count = self.times.partition_point(|&x| x <= t);
        count as f64 / self.total as f64
    }

    fn survival(&self, t: f64) -> f64 {
        let count = self.times.partition_point(|&x| x <= t);
        (self.total - count) as f64 / self.total as f64
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64> {
        let idx = zeroconf_rng::Rng::gen_range(rng, 0..self.total);
        self.times.get(idx).copied()
    }

    fn mean_given_reply(&self) -> Option<f64> {
        if self.times.is_empty() {
            None
        } else {
            Some(self.times.iter().sum::<f64>() / self.times.len() as f64)
        }
    }

    fn quantile_given_reply(&self, p: f64) -> Option<f64> {
        self.quantile(p).ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::SeedableRng;

    use super::*;

    fn sample() -> Empirical {
        Empirical::from_observations(vec![Some(0.1), Some(0.3), None, Some(0.3), None]).unwrap()
    }

    #[test]
    fn construction_counts_arrivals_and_losses() {
        let d = sample();
        assert_eq!(d.num_observations(), 5);
        assert_eq!(d.num_arrivals(), 3);
        assert!((d.mass() - 0.6).abs() < 1e-15);
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(matches!(
            Empirical::from_observations(vec![]),
            Err(DistError::EmptyInput)
        ));
    }

    #[test]
    fn invalid_samples_are_rejected() {
        assert!(Empirical::from_observations(vec![Some(-1.0)]).is_err());
        assert!(Empirical::from_observations(vec![Some(f64::NAN)]).is_err());
    }

    #[test]
    fn cdf_is_the_step_function() {
        let d = sample();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(0.1), 0.2);
        assert_eq!(d.cdf(0.2), 0.2);
        assert_eq!(d.cdf(0.3), 0.6);
        assert_eq!(d.cdf(1.0), 0.6);
    }

    #[test]
    fn survival_complements_cdf_exactly() {
        let d = sample();
        for t in [0.0, 0.1, 0.2, 0.3, 0.5] {
            assert_eq!(d.survival(t), 1.0 - d.cdf(t));
        }
    }

    #[test]
    fn all_lost_observations_give_zero_mass() {
        let d = Empirical::from_observations(vec![None, None]).unwrap();
        assert_eq!(d.mass(), 0.0);
        assert_eq!(d.mean_given_reply(), None);
        assert_eq!(d.quantile(0.5).unwrap(), None);
    }

    #[test]
    fn quantiles_walk_the_sorted_samples() {
        let d = Empirical::from_observations(vec![Some(1.0), Some(2.0), Some(3.0)]).unwrap();
        assert_eq!(d.quantile(0.0).unwrap(), Some(1.0));
        assert_eq!(d.quantile(0.5).unwrap(), Some(2.0));
        assert_eq!(d.quantile(1.0).unwrap(), Some(3.0));
        assert!(d.quantile(1.5).is_err());
    }

    #[test]
    fn trait_quantile_delegates_to_the_inherent_one() {
        let d = Empirical::from_observations(vec![Some(1.0), Some(2.0), Some(3.0)]).unwrap();
        use crate::ReplyTimeDistribution;
        assert_eq!(d.quantile_given_reply(0.5), Some(2.0));
        assert_eq!(d.quantile_given_reply(1.5), None);
    }

    #[test]
    fn mean_given_reply_averages_arrivals() {
        let d = sample();
        assert!((d.mean_given_reply().unwrap() - (0.1 + 0.3 + 0.3) / 3.0).abs() < 1e-15);
    }

    #[test]
    fn bootstrap_sampling_reproduces_loss_rate() {
        let d = sample();
        let mut rng = StdRng::seed_from_u64(123);
        let n = 50_000;
        let lost = (0..n).filter(|_| d.sample(&mut rng).is_none()).count();
        let loss_rate = lost as f64 / n as f64;
        assert!((loss_rate - 0.4).abs() < 0.01);
    }
}
