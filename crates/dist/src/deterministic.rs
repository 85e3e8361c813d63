//! Point-mass (fixed round-trip time) reply distribution.

use zeroconf_rng::RngCore;

use crate::{DistError, ReplyTimeDistribution};

/// A reply that, when it arrives at all, arrives after exactly `delay`
/// seconds.
///
/// Useful for switched wired networks with a dominant fixed latency and as
/// the sharpest possible stress test for the optimizer: the no-answer
/// probabilities `p_i(r)` become step functions in `r`.
///
/// # Examples
///
/// ```
/// use zeroconf_dist::{DefectiveDeterministic, ReplyTimeDistribution};
///
/// # fn main() -> Result<(), zeroconf_dist::DistError> {
/// let d = DefectiveDeterministic::new(0.999, 0.05)?;
/// assert_eq!(d.cdf(0.04), 0.0);
/// assert_eq!(d.cdf(0.05), 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectiveDeterministic {
    mass: f64,
    delay: f64,
}

impl DefectiveDeterministic {
    /// Creates the distribution with reply mass `l` and fixed delay.
    ///
    /// # Errors
    ///
    /// - [`DistError::InvalidMass`] unless `mass ∈ [0, 1]`.
    /// - [`DistError::InvalidDelay`] unless `delay ≥ 0` and finite.
    pub fn new(mass: f64, delay: f64) -> Result<Self, DistError> {
        if !mass.is_finite() || !(0.0..=1.0).contains(&mass) {
            return Err(DistError::InvalidMass { value: mass });
        }
        if !delay.is_finite() || delay < 0.0 {
            return Err(DistError::InvalidDelay { value: delay });
        }
        Ok(DefectiveDeterministic { mass, delay })
    }

    /// The fixed delay.
    pub fn delay(&self) -> f64 {
        self.delay
    }
}

impl ReplyTimeDistribution for DefectiveDeterministic {
    fn mass(&self) -> f64 {
        self.mass
    }

    fn fingerprint(&self) -> u64 {
        crate::Fingerprint::new("deterministic")
            .with_f64(self.mass)
            .with_f64(self.delay)
            .finish()
    }

    fn cdf(&self, t: f64) -> f64 {
        if t >= self.delay {
            self.mass
        } else {
            0.0
        }
    }

    fn survival(&self, t: f64) -> f64 {
        if t >= self.delay {
            1.0 - self.mass
        } else {
            1.0
        }
    }

    fn survival_batch_with(
        &self,
        backend: zeroconf_simd::Backend,
        ts: &mut [f64],
    ) -> zeroconf_simd::Backend {
        // `1 − mass` is the only arithmetic, hoisted as `survival` computes
        // it; the lane kernel's `select_ge` mirrors the `>=` branch (NaN
        // picks the 1.0 arm), so every backend is bit-identical.
        zeroconf_simd::survival_deterministic(backend, self.delay, 1.0 - self.mass, ts)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64> {
        let u: f64 = zeroconf_rng::Rng::gen(rng);
        if u < self.mass {
            Some(self.delay)
        } else {
            None
        }
    }

    fn mean_given_reply(&self) -> Option<f64> {
        Some(self.delay)
    }

    fn quantile_given_reply(&self, p: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return None;
        }
        Some(self.delay)
    }
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::SeedableRng;

    use super::*;

    #[test]
    fn construction_validates() {
        assert!(DefectiveDeterministic::new(2.0, 1.0).is_err());
        assert!(DefectiveDeterministic::new(0.5, -1.0).is_err());
        assert!(DefectiveDeterministic::new(0.5, f64::INFINITY).is_err());
    }

    #[test]
    fn cdf_is_a_step_at_the_delay() {
        let d = DefectiveDeterministic::new(0.6, 2.0).unwrap();
        assert_eq!(d.cdf(1.999), 0.0);
        assert_eq!(d.cdf(2.0), 0.6);
        assert_eq!(d.cdf(100.0), 0.6);
    }

    #[test]
    fn survival_complements_cdf() {
        let d = DefectiveDeterministic::new(0.6, 2.0).unwrap();
        for t in [0.0, 1.0, 2.0, 3.0] {
            assert_eq!(d.survival(t), 1.0 - d.cdf(t));
        }
    }

    #[test]
    fn samples_are_the_delay_or_lost() {
        let d = DefectiveDeterministic::new(0.5, 1.25).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut lost = 0;
        for _ in 0..10_000 {
            match d.sample(&mut rng) {
                Some(t) => assert_eq!(t, 1.25),
                None => lost += 1,
            }
        }
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.02);
    }

    #[test]
    fn all_quantiles_are_the_fixed_delay() {
        let d = DefectiveDeterministic::new(0.5, 1.25).unwrap();
        assert_eq!(d.quantile_given_reply(0.1), Some(1.25));
        assert_eq!(d.quantile_given_reply(0.99), Some(1.25));
        assert_eq!(d.quantile_given_reply(f64::NAN), None);
    }

    #[test]
    fn zero_mass_always_loses() {
        let d = DefectiveDeterministic::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), None);
        }
        assert_eq!(d.cdf(5.0), 0.0);
        assert_eq!(d.survival(5.0), 1.0);
    }
}
