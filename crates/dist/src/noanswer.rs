//! No-answer probabilities: Eq. (1) of the paper and the products `π_i(r)`.
//!
//! Eq. (1) defines the probability that no reply to any of the first `i`
//! probes arrives during the `i`-th listening period, given none arrived
//! earlier:
//!
//! ```text
//! P(i, r) = Π_{j=1..i} ( 1 − (F_X(jr) − F_X((j−1)r)) / (1 − F_X((j−1)r)) )
//! ```
//!
//! Each factor equals `survival(jr) / survival((j−1)r)`, so the product
//! *telescopes* to `P(i, r) = survival(i·r) / survival(0)`. The paper's
//! running products `π_i(r) = Π_{j=0..i} p_j(r)` (with `p_0 = 1`) then
//! satisfy
//!
//! ```text
//! π_i(r) = Π_{j=1..i} survival(j·r)
//! ```
//!
//! which is *exactly* the probability that `i` probes sent at times
//! `0, r, …, (i−1)r`, with independent reply delays `X_j ~ F_X`, are all
//! still unanswered at time `i·r` (probe `j` is answered by then iff
//! `X_j ≤ (i−j+1)r`; re-indexing the product over `k = i−j+1` gives the
//! same factors). This equivalence is what lets the discrete-event
//! simulator in `zeroconf-sim` validate the Markov model exactly; the
//! property tests below check it numerically.
//!
//! Both the telescoped and the literal product form are provided — the
//! literal form exists to validate the algebra and to quantify its
//! numerical inferiority in the `pi_literal_vs_telescoped` benchmark.

use crate::{Backend, DistError, ReplyTimeDistribution};

/// `p_i(r)`: probability of no reply during the `i`-th listening period
/// given none arrived earlier (telescoped form of Eq. 1).
///
/// `p_0(r) = 1` by the paper's convention.
///
/// # Errors
///
/// Returns [`DistError::InvalidQuery`] for a non-finite or negative `r`.
///
/// # Examples
///
/// ```
/// use zeroconf_dist::{noanswer, DefectiveExponential};
///
/// # fn main() -> Result<(), zeroconf_dist::DistError> {
/// let fx = DefectiveExponential::new(0.999, 10.0, 1.0)?;
/// let p1 = noanswer::no_answer_probability(&fx, 1, 2.0)?;
/// assert!(p1 > 0.0 && p1 < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn no_answer_probability<D: ReplyTimeDistribution + ?Sized>(
    dist: &D,
    i: usize,
    r: f64,
) -> Result<f64, DistError> {
    check_r(r)?;
    if i == 0 {
        return Ok(1.0);
    }
    let base = dist.survival(0.0);
    if base <= 0.0 {
        // All mass at t = 0: a reply arrives instantly, so the conditional
        // no-answer probability degenerates to zero.
        return Ok(0.0);
    }
    Ok(clamp_probability(dist.survival(i as f64 * r) / base))
}

/// `p_i(r)` computed by the literal product of Eq. (1), factor by factor.
///
/// Mathematically identical to [`no_answer_probability`]; numerically it
/// accumulates one division per round and loses the defect's relative
/// precision (see the crate-level note). Kept public for validation and
/// benchmarking.
///
/// # Errors
///
/// Returns [`DistError::InvalidQuery`] for a non-finite or negative `r`.
pub fn no_answer_probability_literal<D: ReplyTimeDistribution + ?Sized>(
    dist: &D,
    i: usize,
    r: f64,
) -> Result<f64, DistError> {
    check_r(r)?;
    let mut product = 1.0;
    for j in 1..=i {
        let lower = dist.cdf((j - 1) as f64 * r);
        let upper = dist.cdf(j as f64 * r);
        let denominator = 1.0 - lower;
        if denominator <= 0.0 {
            return Ok(0.0);
        }
        product *= 1.0 - (upper - lower) / denominator;
    }
    Ok(clamp_probability(product))
}

/// The running products `π_0(r), …, π_n(r)` with
/// `π_i(r) = Π_{j=0..i} p_j(r)`, computed as `Π_{j=1..i} survival(j·r)`.
///
/// # Errors
///
/// Returns [`DistError::InvalidQuery`] for a non-finite or negative `r`.
///
/// # Examples
///
/// ```
/// use zeroconf_dist::{noanswer, DefectiveExponential};
///
/// # fn main() -> Result<(), zeroconf_dist::DistError> {
/// let fx = DefectiveExponential::new(0.9, 10.0, 1.0)?;
/// let pi = noanswer::pi_sequence(&fx, 4, 2.0)?;
/// assert_eq!(pi.len(), 5);
/// assert_eq!(pi[0], 1.0);
/// assert!(pi[4] < pi[1]);
/// # Ok(())
/// # }
/// ```
pub fn pi_sequence<D: ReplyTimeDistribution + ?Sized>(
    dist: &D,
    n: usize,
    r: f64,
) -> Result<Vec<f64>, DistError> {
    check_r(r)?;
    let base = dist.survival(0.0);
    let mut out = Vec::with_capacity(n + 1);
    out.push(1.0);
    let mut running = 1.0;
    for i in 1..=n {
        let p_i = if base <= 0.0 {
            0.0
        } else {
            clamp_probability(dist.survival(i as f64 * r) / base)
        };
        running *= p_i;
        out.push(running);
    }
    Ok(out)
}

/// Batch form of [`no_answer_probability`]: `p_i(r)` for `rounds`
/// consecutive probe rounds `first_round, first_round + 1, …` across one
/// block of listening periods, written round-major into `out` (round `k`'s
/// row occupies `out[k·w .. (k+1)·w]` for `w = rs.len()`), with the scaling
/// fill, the batch survival and the clamp dispatched to the requested SIMD
/// backend.
///
/// Every element is **bit-identical** to
/// `no_answer_probability(dist, first_round + k, rs[j])` on every backend:
/// the same telescoped `survival(i·r) / survival(0)` is evaluated with the
/// same association, via
/// [`survival_batch_with`](ReplyTimeDistribution::survival_batch_with), so
/// a distribution hoists its loop-invariant constants and pays one virtual
/// dispatch per chunk of rounds instead of one per element — which is what
/// the blocked π builder (`zeroconf_cost::kernel::ColumnBlockKernel`)
/// wants: its per-round batches shrink with the zero-tail cutoff until call
/// overhead rivals the survival work itself. When `survival(0) == 1.0`
/// exactly (every vendored distribution with a positive delay), the
/// division is skipped — `x / 1.0` is the identity on bits — but the clamp
/// is kept, because a defective survival may round a hair above one.
///
/// Returns the backend that actually ran, which is the *minimum* over the
/// constituent kernels — in practice the distribution's
/// `survival_batch_with`, since the fill and clamp always vectorize. A
/// distribution without a vector override (e.g.
/// [`Empirical`](crate::Empirical)) honestly reports [`Backend::Scalar`],
/// and the engine surfaces that in its stats block.
///
/// # Errors
///
/// Returns [`DistError::InvalidQuery`] for any non-finite or negative `r`;
/// `out` is unspecified (partially written) on error.
///
/// # Panics
///
/// Panics when `out.len() != rounds * rs.len()`, when `rounds` is zero,
/// or when `first_round` is zero (round 0 is the `p_0 = 1` convention,
/// which the π builder writes itself).
pub fn p_rounds_batch_with<D: ReplyTimeDistribution + ?Sized>(
    dist: &D,
    backend: Backend,
    rs: &[f64],
    first_round: usize,
    rounds: usize,
    out: &mut [f64],
) -> Result<Backend, DistError> {
    assert!(rounds > 0, "p_rounds_batch_with needs at least one round");
    assert!(
        first_round > 0,
        "p_rounds_batch_with starts at round 1 (p_0 = 1 by convention)"
    );
    assert_eq!(
        out.len(),
        rounds * rs.len(),
        "p_rounds_batch_with output must hold rounds x listening periods"
    );
    for &r in rs {
        check_r(r)?;
    }
    if rs.is_empty() {
        return Ok(backend.min(zeroconf_simd::Backend::detect()));
    }
    let base = dist.survival(0.0);
    if base <= 0.0 {
        out.fill(0.0);
        return Ok(backend.min(zeroconf_simd::Backend::detect()));
    }
    let width = rs.len();
    let mut used = backend.min(zeroconf_simd::Backend::detect());
    for (k, row) in out.chunks_exact_mut(width).enumerate() {
        used = used.min(zeroconf_simd::fill_scaled(
            backend,
            (first_round + k) as f64,
            rs,
            row,
        ));
    }
    used = used.min(dist.survival_batch_with(backend, out));
    used = used.min(if base == 1.0 {
        zeroconf_simd::clamp_unit(backend, out)
    } else {
        zeroconf_simd::div_clamp_unit(backend, base, out)
    });
    Ok(used)
}

/// `π_n(r)` alone (the tail product the reliability formula needs).
///
/// # Errors
///
/// Returns [`DistError::InvalidQuery`] for a non-finite or negative `r`.
pub fn pi<D: ReplyTimeDistribution + ?Sized>(dist: &D, n: usize, r: f64) -> Result<f64, DistError> {
    Ok(*pi_sequence(dist, n, r)?
        .last()
        .expect("pi_sequence returns n + 1 >= 1 entries"))
}

/// The limit `lim_{r→∞} π_i(r) = (1 − l)^i` the paper uses for the
/// asymptote `A_n` (Section 4.2).
pub fn pi_limit<D: ReplyTimeDistribution + ?Sized>(dist: &D, i: usize) -> f64 {
    dist.defect().powi(i as i32)
}

fn check_r(r: f64) -> Result<(), DistError> {
    if !r.is_finite() || r < 0.0 {
        Err(DistError::InvalidQuery {
            what: "listening period r must be nonnegative and finite",
            value: r,
        })
    } else {
        Ok(())
    }
}

fn clamp_probability(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use crate::{DefectiveDeterministic, DefectiveExponential};

    use super::*;

    fn paper_fx() -> DefectiveExponential {
        DefectiveExponential::from_loss(1e-15, 10.0, 1.0).unwrap()
    }

    #[test]
    fn p_zero_is_one() {
        let fx = paper_fx();
        assert_eq!(no_answer_probability(&fx, 0, 2.0).unwrap(), 1.0);
        assert_eq!(no_answer_probability_literal(&fx, 0, 2.0).unwrap(), 1.0);
    }

    #[test]
    fn p_is_one_when_r_below_round_trip_delay() {
        // "we can be quite sure that p_1 = 1, if r < d" (Section 3.2).
        let fx = paper_fx();
        assert_eq!(no_answer_probability(&fx, 1, 0.5).unwrap(), 1.0);
    }

    #[test]
    fn p_decreases_with_longer_listening() {
        let fx = paper_fx();
        let p_short = no_answer_probability(&fx, 1, 1.2).unwrap();
        let p_long = no_answer_probability(&fx, 1, 3.0).unwrap();
        assert!(p_long < p_short);
    }

    #[test]
    fn literal_and_telescoped_agree_in_easy_regime() {
        let fx = DefectiveExponential::new(0.9, 2.0, 0.5).unwrap();
        for i in 0..6 {
            for r in [0.1, 0.5, 1.0, 2.0] {
                let a = no_answer_probability(&fx, i, r).unwrap();
                let b = no_answer_probability_literal(&fx, i, r).unwrap();
                assert!(
                    (a - b).abs() < 1e-12,
                    "i = {i}, r = {r}: telescoped {a} vs literal {b}"
                );
            }
        }
    }

    #[test]
    fn telescoped_form_keeps_defect_precision() {
        // For large i·r the no-answer probability is exactly the defect.
        let fx = paper_fx();
        let p = no_answer_probability(&fx, 1, 50.0).unwrap();
        assert!(((p - 1e-15) / 1e-15).abs() < 1e-9, "p = {p:e}");
    }

    #[test]
    fn pi_sequence_starts_at_one_and_decreases() {
        let fx = paper_fx();
        let pis = pi_sequence(&fx, 8, 2.0).unwrap();
        assert_eq!(pis.len(), 9);
        assert_eq!(pis[0], 1.0);
        for w in pis.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn pi_at_r_zero_is_one() {
        // Section 4.2: π_i(0) = 1.
        let fx = paper_fx();
        let pis = pi_sequence(&fx, 5, 0.0).unwrap();
        for p in pis {
            assert_eq!(p, 1.0);
        }
    }

    #[test]
    fn pi_limit_matches_paper_formula() {
        // Section 4.2: lim_{r→∞} π_i(r) = (1 − l)^i.
        let fx = DefectiveExponential::new(0.99, 10.0, 0.1).unwrap();
        for i in 0..5 {
            let analytic = pi_limit(&fx, i);
            let numeric = pi(&fx, i, 1e6).unwrap();
            let tolerance = 1e-9 * analytic.max(1e-300);
            assert!(
                (numeric - analytic).abs() <= tolerance,
                "i = {i}: {numeric:e} vs {analytic:e}"
            );
        }
    }

    #[test]
    fn pi_equals_product_of_survivals() {
        // π_i(r) = Π_{j=1..i} survival(j r): the independent-probes reading.
        let fx = DefectiveExponential::new(0.95, 3.0, 0.2).unwrap();
        let r = 0.7;
        let n = 6;
        let pis = pi_sequence(&fx, n, r).unwrap();
        use crate::ReplyTimeDistribution;
        for (i, pi) in pis.iter().enumerate() {
            let product: f64 = (1..=i).map(|j| fx.survival(j as f64 * r)).product();
            assert!((pi - product).abs() < 1e-14 * (1.0 + product), "i = {i}");
        }
    }

    #[test]
    fn deterministic_distribution_gives_step_pis() {
        // Fixed RTT 1.0, full mass: p_i(r) = 0 as soon as i·r >= 1.
        let d = DefectiveDeterministic::new(1.0, 1.0).unwrap();
        assert_eq!(no_answer_probability(&d, 1, 0.5).unwrap(), 1.0);
        assert_eq!(no_answer_probability(&d, 2, 0.5).unwrap(), 0.0);
        assert_eq!(no_answer_probability(&d, 1, 1.0).unwrap(), 0.0);
        let pis = pi_sequence(&d, 3, 0.5).unwrap();
        assert_eq!(pis, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn negative_or_nan_r_is_rejected() {
        let fx = paper_fx();
        assert!(no_answer_probability(&fx, 1, -1.0).is_err());
        assert!(no_answer_probability(&fx, 1, f64::NAN).is_err());
        assert!(pi_sequence(&fx, 3, f64::INFINITY).is_err());
        assert!(no_answer_probability_literal(&fx, 1, -0.5).is_err());
    }

    #[test]
    fn figure6_magnitudes_are_reachable() {
        // The paper observes error probabilities within [1e−54, 1e−35];
        // those come from π_n(r) of this order. Check we can compute them.
        let fx = paper_fx();
        let p = pi(&fx, 3, 10.0).unwrap();
        assert!(p > 0.0, "π must stay positive");
        assert!(p < 1e-40, "π = {p:e} should be tiny");
    }

    #[test]
    fn works_through_trait_object() {
        let fx: Box<dyn ReplyTimeDistribution> = Box::new(paper_fx());
        let p = no_answer_probability(fx.as_ref(), 2, 2.0).unwrap();
        assert!(p > 0.0 && p < 1.0);
    }

    /// `p_rounds_batch_with` must replay the scalar path bit for bit on
    /// every backend the host has, for every vendored distribution family,
    /// including ones whose `survival(0)` is not exactly one (zero-delay
    /// exponential: the `div_clamp_unit` branch), the mixture, and
    /// `Empirical`, which has no vector override.
    #[test]
    fn p_rounds_batch_with_is_bit_identical_to_scalar_for_every_family() {
        use std::sync::Arc;

        use crate::{DefectiveUniform, DefectiveWeibull, Empirical, Mixture};

        let exp_delayed = Arc::new(paper_fx());
        let exp_zero_delay = Arc::new(DefectiveExponential::new(0.9, 3.0, 0.0).unwrap());
        let mixture = Mixture::new(vec![
            (0.6, exp_delayed.clone() as Arc<dyn ReplyTimeDistribution>),
            (
                0.4,
                exp_zero_delay.clone() as Arc<dyn ReplyTimeDistribution>,
            ),
        ])
        .unwrap();
        let empirical =
            Empirical::from_observations(vec![Some(0.4), Some(1.1), None, Some(2.5)]).unwrap();
        let dists: Vec<Box<dyn ReplyTimeDistribution>> = vec![
            Box::new(paper_fx()),
            Box::new(DefectiveExponential::new(0.9, 3.0, 0.0).unwrap()),
            Box::new(DefectiveDeterministic::new(0.7, 1.25).unwrap()),
            Box::new(DefectiveUniform::new(0.8, 0.5, 2.5).unwrap()),
            Box::new(DefectiveWeibull::new(0.9, 1.7, 1.3, 0.4).unwrap()),
            Box::new(mixture),
            Box::new(empirical),
        ];
        let rs = [0.0, 0.1, 0.5, 1.0, 1.25, 2.0, 7.5, 30.0];
        let rounds = 6;
        let mut out = [0.0f64; 6 * 8];
        for dist in &dists {
            for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512]
                .into_iter()
                .filter(|&b| b <= Backend::detect())
            {
                p_rounds_batch_with(dist.as_ref(), backend, &rs, 1, rounds, &mut out).unwrap();
                for (k, row) in out.chunks_exact(rs.len()).enumerate() {
                    let i = k + 1;
                    for (&p, &r) in row.iter().zip(&rs) {
                        let scalar = no_answer_probability(dist.as_ref(), i, r).unwrap();
                        assert_eq!(
                            p.to_bits(),
                            scalar.to_bits(),
                            "{dist:?} on {backend:?}: i = {i}, r = {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn p_rounds_batch_with_rejects_bad_r_and_mismatched_lengths() {
        let fx = paper_fx();
        let mut out = [0.0f64; 2];
        let backend = Backend::detect();
        assert!(p_rounds_batch_with(&fx, backend, &[1.0, -1.0], 1, 1, &mut out).is_err());
        assert!(p_rounds_batch_with(&fx, backend, &[f64::NAN, 1.0], 1, 1, &mut out).is_err());
        let result = std::panic::catch_unwind(|| {
            let mut short = [0.0f64; 1];
            let _ = p_rounds_batch_with(&paper_fx(), backend, &[1.0, 2.0], 1, 1, &mut short);
        });
        assert!(result.is_err(), "length mismatch must panic");
    }
}
