//! Shifted defective Weibull reply distribution.

use zeroconf_rng::RngCore;

use crate::{DistError, ReplyTimeDistribution};

/// A shifted Weibull distribution of reply times:
///
/// ```text
/// F_X(t) = l · (1 − e^{−((t−d)/scale)^shape})   for t ≥ d
/// ```
///
/// With `shape = 1` this reduces to the paper's
/// [`DefectiveExponential`](crate::DefectiveExponential) with
/// `rate = 1/scale`; `shape > 1` models
/// replies concentrated around a typical latency, `shape < 1` heavy-tailed
/// congestion. Used by the sensitivity experiments to test how strongly the
/// paper's conclusions depend on the exponential assumption.
///
/// # Examples
///
/// ```
/// use zeroconf_dist::{DefectiveWeibull, ReplyTimeDistribution};
///
/// # fn main() -> Result<(), zeroconf_dist::DistError> {
/// let d = DefectiveWeibull::new(1.0, 2.0, 0.1, 0.0)?;
/// assert!(d.cdf(0.1) > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectiveWeibull {
    mass: f64,
    shape: f64,
    scale: f64,
    delay: f64,
}

impl DefectiveWeibull {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// - [`DistError::InvalidMass`] unless `mass ∈ [0, 1]`.
    /// - [`DistError::InvalidRate`] unless `shape > 0` and `scale > 0`.
    /// - [`DistError::InvalidDelay`] unless `delay ≥ 0` and finite.
    pub fn new(mass: f64, shape: f64, scale: f64, delay: f64) -> Result<Self, DistError> {
        if !mass.is_finite() || !(0.0..=1.0).contains(&mass) {
            return Err(DistError::InvalidMass { value: mass });
        }
        if !shape.is_finite() || shape <= 0.0 {
            return Err(DistError::InvalidRate {
                parameter: "shape",
                value: shape,
            });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(DistError::InvalidRate {
                parameter: "scale",
                value: scale,
            });
        }
        if !delay.is_finite() || delay < 0.0 {
            return Err(DistError::InvalidDelay { value: delay });
        }
        Ok(DefectiveWeibull {
            mass,
            shape,
            scale,
            delay,
        })
    }

    fn hazard_exponent(&self, t: f64) -> f64 {
        ((t - self.delay) / self.scale).powf(self.shape)
    }
}

impl ReplyTimeDistribution for DefectiveWeibull {
    fn mass(&self) -> f64 {
        self.mass
    }

    fn fingerprint(&self) -> u64 {
        crate::Fingerprint::new("weibull")
            .with_f64(self.mass)
            .with_f64(self.shape)
            .with_f64(self.scale)
            .with_f64(self.delay)
            .finish()
    }

    fn cdf(&self, t: f64) -> f64 {
        if t < self.delay {
            0.0
        } else {
            self.mass * (-(-self.hazard_exponent(t)).exp_m1())
        }
    }

    fn survival(&self, t: f64) -> f64 {
        if t < self.delay {
            1.0
        } else {
            (1.0 - self.mass) + self.mass * (-self.hazard_exponent(t)).exp()
        }
    }

    fn survival_batch_with(
        &self,
        backend: zeroconf_simd::Backend,
        ts: &mut [f64],
    ) -> zeroconf_simd::Backend {
        // Hoists `1 − mass` and the field reads; the hazard exponent
        // `((t − d)/s)^k` stays per-element with the scalar association,
        // and `powf`/`exp` run scalar per lane inside the kernel, so every
        // backend is bit-identical to `survival`.
        zeroconf_simd::survival_weibull(
            backend,
            self.delay,
            self.scale,
            self.shape,
            self.mass,
            1.0 - self.mass,
            ts,
        )
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64> {
        let u: f64 = zeroconf_rng::Rng::gen(rng);
        if u >= self.mass {
            return None;
        }
        let v: f64 = zeroconf_rng::Rng::gen(rng);
        // Inverse transform: t = d + scale * (−ln(1−v))^{1/shape}.
        Some(self.delay + self.scale * (-(-v).ln_1p()).powf(1.0 / self.shape))
    }

    fn mean_given_reply(&self) -> Option<f64> {
        // Mean requires Γ(1 + 1/shape); avoid a gamma implementation and
        // return it only for the exponential special case.
        if (self.shape - 1.0).abs() < 1e-12 {
            Some(self.delay + self.scale)
        } else {
            None
        }
    }

    fn quantile_given_reply(&self, p: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return None;
        }
        if p == 1.0 {
            return Some(f64::INFINITY);
        }
        Some(self.delay + self.scale * (-(-p).ln_1p()).powf(1.0 / self.shape))
    }
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::SeedableRng;

    use crate::DefectiveExponential;

    use super::*;

    #[test]
    fn construction_validates() {
        assert!(DefectiveWeibull::new(1.5, 1.0, 1.0, 0.0).is_err());
        assert!(DefectiveWeibull::new(0.5, 0.0, 1.0, 0.0).is_err());
        assert!(DefectiveWeibull::new(0.5, 1.0, 0.0, 0.0).is_err());
        assert!(DefectiveWeibull::new(0.5, 1.0, 1.0, -0.5).is_err());
    }

    #[test]
    fn shape_one_matches_exponential() {
        let w = DefectiveWeibull::new(0.9, 1.0, 0.1, 0.5).unwrap();
        let e = DefectiveExponential::new(0.9, 10.0, 0.5).unwrap();
        for t in [0.0, 0.5, 0.6, 1.0, 2.0, 10.0] {
            assert!(
                (w.cdf(t) - e.cdf(t)).abs() < 1e-12,
                "t = {t}: {} vs {}",
                w.cdf(t),
                e.cdf(t)
            );
            assert!((w.survival(t) - e.survival(t)).abs() < 1e-12);
        }
        assert_eq!(w.mean_given_reply(), e.mean_given_reply());
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let w = DefectiveWeibull::new(0.8, 2.5, 0.3, 0.1).unwrap();
        let mut prev = 0.0;
        for k in 0..100 {
            let t = k as f64 * 0.05;
            let c = w.cdf(t);
            assert!(c >= prev);
            assert!(c <= 0.8 + 1e-15);
            prev = c;
        }
    }

    #[test]
    fn non_exponential_mean_is_unavailable() {
        let w = DefectiveWeibull::new(0.8, 2.0, 0.3, 0.0).unwrap();
        assert_eq!(w.mean_given_reply(), None);
    }

    #[test]
    fn quantiles_invert_the_normalized_cdf() {
        let w = DefectiveWeibull::new(0.8, 2.0, 0.5, 0.2).unwrap();
        for p in [0.1, 0.5, 0.9] {
            let t = w.quantile_given_reply(p).unwrap();
            let back = w.cdf(t) / w.mass();
            assert!((back - p).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_respect_delay_and_loss() {
        let w = DefectiveWeibull::new(0.7, 2.0, 0.5, 0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut lost = 0;
        for _ in 0..20_000 {
            match w.sample(&mut rng) {
                Some(t) => assert!(t >= 0.2),
                None => lost += 1,
            }
        }
        let loss_rate = lost as f64 / 20_000.0;
        assert!((loss_rate - 0.3).abs() < 0.015);
    }

    #[test]
    fn sample_distribution_matches_cdf() {
        // Empirical CDF at a checkpoint should match the analytic CDF.
        let w = DefectiveWeibull::new(1.0, 2.0, 1.0, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let n = 50_000;
        let checkpoint = 1.0;
        let below = (0..n)
            .filter(|_| matches!(w.sample(&mut rng), Some(t) if t <= checkpoint))
            .count();
        let empirical = below as f64 / n as f64;
        assert!((empirical - w.cdf(checkpoint)).abs() < 0.01);
    }
}
