//! The paper's shifted defective exponential distribution.

use zeroconf_rng::RngCore;

use crate::{DistError, ReplyTimeDistribution};

/// The distribution used throughout the paper's evaluation (Section 4.3):
///
/// ```text
/// F_X(t) = l · (1 − e^{−λ(t−d)})   for t ≥ d,    0 otherwise
/// ```
///
/// where `1 − l` is the probability that the reply never arrives, `d` is
/// the network round-trip delay (no reply can possibly arrive earlier) and
/// `d + 1/λ` is the mean reply time conditional on arrival.
///
/// # Examples
///
/// ```
/// use zeroconf_dist::{DefectiveExponential, ReplyTimeDistribution};
///
/// # fn main() -> Result<(), zeroconf_dist::DistError> {
/// let fx = DefectiveExponential::new(0.99, 10.0, 1.0)?;
/// assert_eq!(fx.mean_given_reply(), Some(1.1));
/// assert!(fx.cdf(1.0) == 0.0 && fx.cdf(2.0) > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectiveExponential {
    /// Stored as the defect `1 − l` so that tiny loss probabilities (the
    /// paper uses `1e−15`) keep full relative precision; see the trait-level
    /// discussion on [`ReplyTimeDistribution::defect`].
    loss: f64,
    rate: f64,
    delay: f64,
}

impl DefectiveExponential {
    /// Creates the distribution with reply mass `l`, rate `λ` and
    /// round-trip delay `d`.
    ///
    /// # Errors
    ///
    /// - [`DistError::InvalidMass`] unless `mass ∈ [0, 1]`.
    /// - [`DistError::InvalidRate`] unless `rate > 0` and finite.
    /// - [`DistError::InvalidDelay`] unless `delay ≥ 0` and finite.
    pub fn new(mass: f64, rate: f64, delay: f64) -> Result<Self, DistError> {
        if !mass.is_finite() || !(0.0..=1.0).contains(&mass) {
            return Err(DistError::InvalidMass { value: mass });
        }
        if !rate.is_finite() || rate <= 0.0 {
            return Err(DistError::InvalidRate {
                parameter: "rate",
                value: rate,
            });
        }
        if !delay.is_finite() || delay < 0.0 {
            return Err(DistError::InvalidDelay { value: delay });
        }
        Ok(DefectiveExponential {
            loss: 1.0 - mass,
            rate,
            delay,
        })
    }

    /// Convenience constructor in the paper's own parameterization: loss
    /// probability `1 − l`, round-trip delay `d`, and mean conditional
    /// reply time `d + 1/λ` expressed through `λ`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DefectiveExponential::new`] with
    /// `mass = 1 − loss_probability`.
    pub fn from_loss(loss_probability: f64, rate: f64, delay: f64) -> Result<Self, DistError> {
        let mut dist = DefectiveExponential::new(1.0 - loss_probability, rate, delay)?;
        // Keep the caller's exact loss probability: 1 − (1 − x) rounds x
        // away for x below the epsilon of 1.0.
        dist.loss = loss_probability;
        Ok(dist)
    }

    /// The reply mass `l`.
    pub fn reply_mass(&self) -> f64 {
        1.0 - self.loss
    }

    /// The rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The round-trip delay `d`.
    pub fn delay(&self) -> f64 {
        self.delay
    }
}

impl ReplyTimeDistribution for DefectiveExponential {
    fn mass(&self) -> f64 {
        1.0 - self.loss
    }

    fn fingerprint(&self) -> u64 {
        crate::Fingerprint::new("exponential")
            .with_f64(self.loss)
            .with_f64(self.rate)
            .with_f64(self.delay)
            .finish()
    }

    fn defect(&self) -> f64 {
        self.loss
    }

    fn cdf(&self, t: f64) -> f64 {
        if t < self.delay {
            0.0
        } else {
            // -exp_m1(-x) = 1 - e^{-x} without cancellation for small x.
            (1.0 - self.loss) * (-((-self.rate * (t - self.delay)).exp_m1()))
        }
    }

    fn survival(&self, t: f64) -> f64 {
        if t < self.delay {
            1.0
        } else {
            // 1 − l(1 − e^{−λ(t−d)}) = (1 − l) + l e^{−λ(t−d)}: both terms
            // are positive, so the sum carries full relative precision even
            // when 1 − l is 1e−15.
            self.loss + (1.0 - self.loss) * (-self.rate * (t - self.delay)).exp()
        }
    }

    fn survival_batch_with(
        &self,
        backend: zeroconf_simd::Backend,
        ts: &mut [f64],
    ) -> zeroconf_simd::Backend {
        // Loop-invariant hoists of exactly the factors `survival` computes
        // per call: `1 − loss` and the negated rate (unary minus binds
        // tighter than `*`, so the scalar form is `(−λ)·(t−d)` too). The
        // kernel keeps the per-element association (and evaluates `exp`
        // scalar per lane), so every backend is bit-identical to `survival`.
        zeroconf_simd::survival_exponential(
            backend,
            self.delay,
            self.loss,
            1.0 - self.loss,
            -self.rate,
            ts,
        )
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64> {
        let u = zeroconf_rng::Rng::gen::<f64>(rng);
        if u < self.loss {
            return None;
        }
        // Inverse transform on the normalized exponential.
        let v: f64 = zeroconf_rng::Rng::gen(rng);
        // ln_1p(-v) = ln(1 - v) without cancellation; v < 1 almost surely.
        Some(self.delay - (-v).ln_1p() / self.rate)
    }

    fn mean_given_reply(&self) -> Option<f64> {
        Some(self.delay + 1.0 / self.rate)
    }

    fn quantile_given_reply(&self, p: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return None;
        }
        if p == 1.0 {
            return Some(f64::INFINITY);
        }
        // Inverse of the normalized CDF 1 − e^{−λ(t−d)}.
        Some(self.delay - (-p).ln_1p() / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::SeedableRng;

    use super::*;

    fn paper_fx() -> DefectiveExponential {
        // Figure 2 parameters: d = 1, λ = 10, 1 − l = 1e−15.
        DefectiveExponential::from_loss(1e-15, 10.0, 1.0).unwrap()
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(DefectiveExponential::new(1.1, 1.0, 0.0).is_err());
        assert!(DefectiveExponential::new(-0.1, 1.0, 0.0).is_err());
        assert!(DefectiveExponential::new(0.5, 0.0, 0.0).is_err());
        assert!(DefectiveExponential::new(0.5, -1.0, 0.0).is_err());
        assert!(DefectiveExponential::new(0.5, 1.0, -1.0).is_err());
        assert!(DefectiveExponential::new(0.5, f64::NAN, 0.0).is_err());
    }

    #[test]
    fn from_loss_complements_mass() {
        let d = DefectiveExponential::from_loss(1e-5, 10.0, 1.0).unwrap();
        assert!((d.reply_mass() - (1.0 - 1e-5)).abs() < 1e-18);
    }

    #[test]
    fn cdf_is_zero_before_delay() {
        let d = paper_fx();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(0.999), 0.0);
        assert_eq!(d.survival(0.5), 1.0);
    }

    #[test]
    fn cdf_approaches_mass() {
        let d = DefectiveExponential::new(0.75, 2.0, 0.5).unwrap();
        assert!((d.cdf(1e6) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn survival_keeps_relative_precision_in_the_defect() {
        let d = paper_fx();
        // At large t the survival must converge to exactly the defect
        // 1e−15 with full relative precision, which 1 − cdf cannot deliver.
        let s = d.survival(1000.0);
        assert!(
            ((s - 1e-15) / 1e-15).abs() < 1e-9,
            "survival {s:e} should be 1e-15"
        );
    }

    #[test]
    fn survival_complements_cdf_in_low_precision_regime() {
        let d = DefectiveExponential::new(0.9, 3.0, 0.2).unwrap();
        for t in [0.0, 0.2, 0.5, 1.0, 5.0] {
            assert!((d.survival(t) - (1.0 - d.cdf(t))).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_mean_reply_time() {
        // Section 4.5: "the mean time until a reply is received ... is
        // d + 1/λ = 1.1".
        assert_eq!(paper_fx().mean_given_reply(), Some(1.1));
    }

    #[test]
    fn sampling_matches_loss_probability() {
        let d = DefectiveExponential::new(0.7, 5.0, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut lost = 0;
        let mut sum = 0.0;
        let mut arrived = 0;
        for _ in 0..n {
            match d.sample(&mut rng) {
                None => lost += 1,
                Some(t) => {
                    assert!(t >= 0.3);
                    sum += t;
                    arrived += 1;
                }
            }
        }
        let loss_rate = lost as f64 / n as f64;
        assert!((loss_rate - 0.3).abs() < 0.01, "loss {loss_rate}");
        let mean = sum / arrived as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn quantiles_invert_the_normalized_cdf() {
        let d = DefectiveExponential::new(0.8, 2.0, 0.5).unwrap();
        for p in [0.0, 0.25, 0.5, 0.9, 0.99] {
            let t = d.quantile_given_reply(p).unwrap();
            let back = d.cdf(t) / d.mass();
            assert!((back - p).abs() < 1e-12, "p = {p}: t = {t}, back = {back}");
        }
        assert_eq!(d.quantile_given_reply(0.0), Some(0.5));
        assert_eq!(d.quantile_given_reply(1.0), Some(f64::INFINITY));
        assert_eq!(d.quantile_given_reply(-0.1), None);
        assert_eq!(d.quantile_given_reply(1.5), None);
    }

    #[test]
    fn accessors_expose_parameters() {
        let d = DefectiveExponential::new(0.8, 4.0, 0.25).unwrap();
        assert_eq!(d.reply_mass(), 0.8);
        assert_eq!(d.rate(), 4.0);
        assert_eq!(d.delay(), 0.25);
    }

    #[test]
    fn interval_probability_is_cdf_difference() {
        let d = DefectiveExponential::new(0.9, 2.0, 0.0).unwrap();
        let direct = d.cdf(2.0) - d.cdf(1.0);
        assert!((d.interval_probability(1.0, 2.0) - direct).abs() < 1e-12);
    }
}
