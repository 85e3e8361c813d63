//! Convex mixtures of reply-time distributions.

use std::sync::Arc;

use zeroconf_rng::RngCore;

use crate::{DistError, ReplyTimeDistribution};

/// A convex combination of reply-time distributions.
///
/// Models heterogeneous links — e.g. most replies take the fast wired path
/// while a fraction crosses a slow wireless bridge. Weights are normalized
/// at construction; each component may itself be defective, and the mixture
/// mass is the weighted sum of the component masses.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zeroconf_dist::{DefectiveExponential, Mixture, ReplyTimeDistribution};
///
/// # fn main() -> Result<(), zeroconf_dist::DistError> {
/// let fast = Arc::new(DefectiveExponential::new(1.0, 100.0, 0.001)?);
/// let slow = Arc::new(DefectiveExponential::new(0.9, 1.0, 0.1)?);
/// let link = Mixture::new(vec![(0.8, fast), (0.2, slow)])?;
/// assert!((link.mass() - (0.8 * 1.0 + 0.2 * 0.9)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mixture {
    /// Normalized weights and components.
    components: Vec<(f64, Arc<dyn ReplyTimeDistribution>)>,
}

impl Mixture {
    /// Builds a mixture from `(weight, component)` pairs; weights are
    /// normalized to sum to one.
    ///
    /// # Errors
    ///
    /// - [`DistError::EmptyInput`] for an empty component list.
    /// - [`DistError::InvalidWeight`] for a negative/non-finite weight or
    ///   when all weights are zero.
    pub fn new(components: Vec<(f64, Arc<dyn ReplyTimeDistribution>)>) -> Result<Self, DistError> {
        if components.is_empty() {
            return Err(DistError::EmptyInput);
        }
        for (i, (w, _)) in components.iter().enumerate() {
            if !w.is_finite() || *w < 0.0 {
                return Err(DistError::InvalidWeight {
                    component: i,
                    value: *w,
                });
            }
        }
        let total: f64 = components.iter().map(|(w, _)| w).sum();
        if total <= 0.0 {
            return Err(DistError::InvalidWeight {
                component: 0,
                value: total,
            });
        }
        Ok(Mixture {
            components: components
                .into_iter()
                .map(|(w, c)| (w / total, c))
                .collect(),
        })
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// The normalized weight of component `i`, if it exists.
    pub fn weight(&self, i: usize) -> Option<f64> {
        self.components.get(i).map(|(w, _)| *w)
    }
}

impl ReplyTimeDistribution for Mixture {
    fn mass(&self) -> f64 {
        self.components.iter().map(|(w, c)| w * c.mass()).sum()
    }

    fn fingerprint(&self) -> u64 {
        self.components
            .iter()
            .fold(crate::Fingerprint::new("mixture"), |h, (w, c)| {
                h.with_f64(*w).with_u64(c.fingerprint())
            })
            .finish()
    }

    fn retained_bytes(&self) -> usize {
        // Each component is a `(weight, Arc)` slot plus the `Arc`'s
        // allocation: two reference counts and the component itself.
        let slot = std::mem::size_of::<(f64, Arc<dyn ReplyTimeDistribution>)>();
        let components: usize = self
            .components
            .iter()
            .map(|(_, c)| 2 * std::mem::size_of::<usize>() + c.retained_bytes())
            .sum();
        std::mem::size_of_val(self) + self.components.capacity() * slot + components
    }

    fn cdf(&self, t: f64) -> f64 {
        self.components.iter().map(|(w, c)| w * c.cdf(t)).sum()
    }

    fn survival(&self, t: f64) -> f64 {
        self.components.iter().map(|(w, c)| w * c.survival(t)).sum()
    }

    fn survival_batch_with(
        &self,
        backend: zeroconf_simd::Backend,
        ts: &mut [f64],
    ) -> zeroconf_simd::Backend {
        // Replays the scalar weighted sum per element — `sum()` folds
        // left from 0.0 in component order, and the accumulator below
        // adds `w·sⱼ` in exactly that order — while every component
        // batches its own survival evaluation. The reported backend is the
        // *weakest* tier any component ran — a mixture is only as
        // vectorized as its slowest member (e.g. one wrapping an
        // `Empirical` stays scalar).
        let mut acc = vec![0.0f64; ts.len()];
        let mut scratch = vec![0.0f64; ts.len()];
        let mut used = backend;
        for (w, c) in &self.components {
            scratch.copy_from_slice(ts);
            used = used.min(c.survival_batch_with(backend, &mut scratch));
            used = used.min(zeroconf_simd::weighted_accumulate(
                backend, *w, &scratch, &mut acc,
            ));
        }
        ts.copy_from_slice(&acc);
        used
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64> {
        let mut u: f64 = zeroconf_rng::Rng::gen(rng);
        let last = self.components.len() - 1;
        for (i, (w, c)) in self.components.iter().enumerate() {
            if u < *w || i == last {
                return c.sample(rng);
            }
            u -= w;
        }
        unreachable!("loop always returns at the last component")
    }

    fn mean_given_reply(&self) -> Option<f64> {
        // Conditional mean: Σ w_i l_i m_i / Σ w_i l_i, defined only when
        // every contributing component knows its own conditional mean.
        let mut weighted_sum = 0.0;
        let mut mass_sum = 0.0;
        for (w, c) in &self.components {
            let contribution = w * c.mass();
            if contribution == 0.0 {
                continue;
            }
            weighted_sum += contribution * c.mean_given_reply()?;
            mass_sum += contribution;
        }
        if mass_sum > 0.0 {
            Some(weighted_sum / mass_sum)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::SeedableRng;

    use crate::{DefectiveDeterministic, DefectiveExponential};

    use super::*;

    fn two_point() -> Mixture {
        let a = Arc::new(DefectiveDeterministic::new(1.0, 1.0).unwrap());
        let b = Arc::new(DefectiveDeterministic::new(1.0, 3.0).unwrap());
        Mixture::new(vec![(1.0, a), (3.0, b)]).unwrap()
    }

    #[test]
    fn retained_bytes_count_every_component() {
        let point = || -> Arc<dyn ReplyTimeDistribution> {
            Arc::new(DefectiveDeterministic::new(1.0, 1.0).unwrap())
        };
        let mixture = |n: usize| Mixture::new((0..n).map(|_| (1.0, point())).collect()).unwrap();
        let one = mixture(1).retained_bytes();
        let per_component = mixture(2).retained_bytes() - one;
        assert!(per_component > std::mem::size_of::<DefectiveDeterministic>());
        assert!(mixture(1000).retained_bytes() >= one + 999 * per_component);
        // A nested mixture is charged for what its components keep.
        let inner: Arc<dyn ReplyTimeDistribution> = Arc::new(mixture(1000));
        let nested = Mixture::new(vec![(1.0, inner)]).unwrap();
        assert!(nested.retained_bytes() > mixture(1000).retained_bytes());
    }

    #[test]
    fn weights_are_normalized() {
        let m = two_point();
        assert!((m.weight(0).unwrap() - 0.25).abs() < 1e-15);
        assert!((m.weight(1).unwrap() - 0.75).abs() < 1e-15);
        assert_eq!(m.weight(2), None);
        assert_eq!(m.num_components(), 2);
    }

    #[test]
    fn empty_and_invalid_weights_are_rejected() {
        assert!(matches!(Mixture::new(vec![]), Err(DistError::EmptyInput)));
        let c: Arc<dyn ReplyTimeDistribution> =
            Arc::new(DefectiveDeterministic::new(1.0, 1.0).unwrap());
        assert!(Mixture::new(vec![(-1.0, c.clone())]).is_err());
        assert!(Mixture::new(vec![(0.0, c.clone())]).is_err());
        assert!(Mixture::new(vec![(f64::NAN, c)]).is_err());
    }

    #[test]
    fn cdf_is_weighted_sum() {
        let m = two_point();
        assert_eq!(m.cdf(0.5), 0.0);
        assert!((m.cdf(1.0) - 0.25).abs() < 1e-15);
        assert!((m.cdf(3.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn survival_complements_cdf() {
        let m = two_point();
        for t in [0.0, 1.0, 2.0, 3.0, 4.0] {
            assert!((m.survival(t) - (1.0 - m.cdf(t))).abs() < 1e-15);
        }
    }

    #[test]
    fn mass_mixes_component_defects() {
        let a = Arc::new(DefectiveExponential::new(0.8, 1.0, 0.0).unwrap());
        let b = Arc::new(DefectiveExponential::new(0.4, 1.0, 0.0).unwrap());
        let m = Mixture::new(vec![(0.5, a as _), (0.5, b as _)]).unwrap();
        assert!((m.mass() - 0.6).abs() < 1e-15);
    }

    #[test]
    fn conditional_mean_weights_by_arrival_mass() {
        let m = two_point();
        // 25% arrive at t=1, 75% at t=3 -> mean 2.5.
        assert!((m.mean_given_reply().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn conditional_mean_unavailable_when_component_lacks_it() {
        let w = Arc::new(crate::DefectiveWeibull::new(1.0, 2.0, 1.0, 0.0).unwrap());
        let d = Arc::new(DefectiveDeterministic::new(1.0, 1.0).unwrap());
        let m = Mixture::new(vec![(0.5, w as _), (0.5, d as _)]).unwrap();
        assert_eq!(m.mean_given_reply(), None);
    }

    #[test]
    fn sampling_respects_weights() {
        let m = two_point();
        let mut rng = StdRng::seed_from_u64(77);
        let mut at_one = 0;
        let n = 40_000;
        for _ in 0..n {
            match m.sample(&mut rng) {
                Some(1.0) => at_one += 1,
                Some(t) => assert_eq!(t, 3.0),
                None => panic!("no loss in this mixture"),
            }
        }
        let fraction = at_one as f64 / n as f64;
        assert!((fraction - 0.25).abs() < 0.01);
    }
}
