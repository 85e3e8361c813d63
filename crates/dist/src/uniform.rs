//! Uniform-window reply distribution.

use zeroconf_rng::RngCore;

use crate::{DistError, ReplyTimeDistribution};

/// A reply that, when it arrives, is spread uniformly over `[lo, hi]`.
///
/// Models media with bounded, jittery latency (e.g. a contention window):
/// there is a hard earliest arrival `lo` and a hard latest arrival `hi`.
///
/// # Examples
///
/// ```
/// use zeroconf_dist::{DefectiveUniform, ReplyTimeDistribution};
///
/// # fn main() -> Result<(), zeroconf_dist::DistError> {
/// let d = DefectiveUniform::new(1.0, 0.1, 0.3)?;
/// assert!((d.cdf(0.2) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectiveUniform {
    mass: f64,
    lo: f64,
    hi: f64,
}

impl DefectiveUniform {
    /// Creates the distribution with reply mass `l` over window `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// - [`DistError::InvalidMass`] unless `mass ∈ [0, 1]`.
    /// - [`DistError::InvalidDelay`] unless `lo ≥ 0` and finite.
    /// - [`DistError::InvalidInterval`] unless `lo < hi` and `hi` finite.
    pub fn new(mass: f64, lo: f64, hi: f64) -> Result<Self, DistError> {
        if !mass.is_finite() || !(0.0..=1.0).contains(&mass) {
            return Err(DistError::InvalidMass { value: mass });
        }
        if !lo.is_finite() || lo < 0.0 {
            return Err(DistError::InvalidDelay { value: lo });
        }
        if !hi.is_finite() || hi <= lo {
            return Err(DistError::InvalidInterval { lo, hi });
        }
        Ok(DefectiveUniform { mass, lo, hi })
    }

    /// Earliest possible arrival.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Latest possible arrival.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl ReplyTimeDistribution for DefectiveUniform {
    fn mass(&self) -> f64 {
        self.mass
    }

    fn fingerprint(&self) -> u64 {
        crate::Fingerprint::new("uniform")
            .with_f64(self.mass)
            .with_f64(self.lo)
            .with_f64(self.hi)
            .finish()
    }

    fn cdf(&self, t: f64) -> f64 {
        if t < self.lo {
            0.0
        } else if t >= self.hi {
            self.mass
        } else {
            self.mass * (t - self.lo) / (self.hi - self.lo)
        }
    }

    fn survival(&self, t: f64) -> f64 {
        if t < self.lo {
            1.0
        } else if t >= self.hi {
            1.0 - self.mass
        } else {
            let fraction_remaining = (self.hi - t) / (self.hi - self.lo);
            (1.0 - self.mass) + self.mass * fraction_remaining
        }
    }

    fn survival_batch_with(
        &self,
        backend: zeroconf_simd::Backend,
        ts: &mut [f64],
    ) -> zeroconf_simd::Backend {
        // The hoists are the same expressions `survival` evaluates per call
        // (`hi − lo`, `1 − mass`), so the per-element division and fused
        // tail keep their exact association; the lane kernel composes the
        // branch chain from quiet-ordered selects, so every backend is
        // bit-identical.
        zeroconf_simd::survival_uniform(
            backend,
            self.lo,
            self.hi,
            self.mass,
            1.0 - self.mass,
            self.hi - self.lo,
            ts,
        )
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64> {
        let u: f64 = zeroconf_rng::Rng::gen(rng);
        if u >= self.mass {
            return None;
        }
        let v: f64 = zeroconf_rng::Rng::gen(rng);
        Some(self.lo + v * (self.hi - self.lo))
    }

    fn mean_given_reply(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }

    fn quantile_given_reply(&self, p: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return None;
        }
        Some(self.lo + p * (self.hi - self.lo))
    }
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::SeedableRng;

    use super::*;

    #[test]
    fn construction_validates() {
        assert!(DefectiveUniform::new(1.5, 0.0, 1.0).is_err());
        assert!(DefectiveUniform::new(0.5, -1.0, 1.0).is_err());
        assert!(DefectiveUniform::new(0.5, 1.0, 1.0).is_err());
        assert!(DefectiveUniform::new(0.5, 2.0, 1.0).is_err());
    }

    #[test]
    fn cdf_is_linear_inside_the_window() {
        let d = DefectiveUniform::new(0.8, 1.0, 3.0).unwrap();
        assert_eq!(d.cdf(0.5), 0.0);
        assert!((d.cdf(2.0) - 0.4).abs() < 1e-15);
        assert_eq!(d.cdf(3.0), 0.8);
        assert_eq!(d.cdf(10.0), 0.8);
    }

    #[test]
    fn survival_complements_cdf() {
        let d = DefectiveUniform::new(0.8, 1.0, 3.0).unwrap();
        for t in [0.0, 1.0, 1.7, 2.9, 3.0, 5.0] {
            assert!((d.survival(t) - (1.0 - d.cdf(t))).abs() < 1e-15);
        }
    }

    #[test]
    fn samples_stay_in_window_with_correct_mean() {
        let d = DefectiveUniform::new(0.9, 0.5, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut sum = 0.0;
        let mut count = 0;
        for _ in 0..50_000 {
            if let Some(t) = d.sample(&mut rng) {
                assert!((0.5..=1.5).contains(&t));
                sum += t;
                count += 1;
            }
        }
        let mean = sum / count as f64;
        assert!((mean - 1.0).abs() < 0.01);
        let arrival_rate = count as f64 / 50_000.0;
        assert!((arrival_rate - 0.9).abs() < 0.01);
    }

    #[test]
    fn quantiles_are_linear_in_the_window() {
        let d = DefectiveUniform::new(0.7, 1.0, 3.0).unwrap();
        assert_eq!(d.quantile_given_reply(0.0), Some(1.0));
        assert_eq!(d.quantile_given_reply(0.5), Some(2.0));
        assert_eq!(d.quantile_given_reply(1.0), Some(3.0));
        assert_eq!(d.quantile_given_reply(2.0), None);
    }

    #[test]
    fn mean_given_reply_is_window_midpoint() {
        let d = DefectiveUniform::new(0.8, 2.0, 6.0).unwrap();
        assert_eq!(d.mean_given_reply(), Some(4.0));
    }
}
