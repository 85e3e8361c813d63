//! Cross-backend parity for the batch survival and π entry points.
//!
//! Every vendored reply-time family must produce, from
//! `survival_batch_with` and `noanswer::p_rounds_batch_with` on every
//! backend the host supports, results `to_bits`-identical to the
//! per-element `survival` and `no_answer_probability` oracle, across
//! lengths that exercise full lanes and every remainder (1..=2·8+1 covers
//! both SIMD widths), and across boundary inputs: times below/at/above
//! the delay knee, `NaN`, and `+inf`. The suite also asserts the honesty contract: a vectorized
//! family reports the tier it was asked for (clamped to the CPU), while
//! `Empirical` — which has no vector override — always reports
//! `Backend::Scalar`, so a silent fallback cannot masquerade as SIMD.

use std::sync::Arc;

use zeroconf_dist::{
    noanswer, Backend, DefectiveDeterministic, DefectiveExponential, DefectiveUniform,
    DefectiveWeibull, Empirical, Mixture, ReplyTimeDistribution,
};

/// Lengths covering empty, sub-lane, exact-lane, and lane+remainder
/// shapes for both the 4-lane and 8-lane tiers.
const LENGTHS: std::ops::RangeInclusive<usize> = 0..=17;

fn backends() -> Vec<Backend> {
    let mut tiers = vec![Backend::Scalar];
    if Backend::detect() >= Backend::Avx2 {
        tiers.push(Backend::Avx2);
    }
    if Backend::detect() >= Backend::Avx512 {
        tiers.push(Backend::Avx512);
    }
    tiers
}

/// The six vendored families, with the delay knee near 1.0 so the
/// boundary times below straddle every branch.
fn families() -> Vec<(&'static str, Arc<dyn ReplyTimeDistribution>, bool)> {
    let exponential = Arc::new(DefectiveExponential::new(0.9, 2.0, 1.0).unwrap());
    let deterministic = Arc::new(DefectiveDeterministic::new(0.75, 1.0).unwrap());
    let uniform = Arc::new(DefectiveUniform::new(0.8, 0.5, 1.5).unwrap());
    let weibull = Arc::new(DefectiveWeibull::new(0.85, 1.7, 0.9, 1.0).unwrap());
    let mixture = Arc::new(
        Mixture::new(vec![
            (0.6, exponential.clone() as Arc<dyn ReplyTimeDistribution>),
            (0.4, uniform.clone() as Arc<dyn ReplyTimeDistribution>),
        ])
        .unwrap(),
    );
    let empirical = Arc::new(
        Empirical::from_observations(vec![Some(0.4), Some(1.2), None, Some(2.5)]).unwrap(),
    );
    // The bool marks families with a vector override (everything but
    // Empirical): those must report the requested tier back.
    vec![
        ("exponential", exponential, true),
        ("deterministic", deterministic, true),
        ("uniform", uniform, true),
        ("weibull", weibull, true),
        ("mixture", mixture, true),
        ("empirical", empirical, false),
    ]
}

/// `len` times straddling the delay knee at 1.0: below, exactly at, just
/// above, far above — plus `NaN` and `+inf` lanes on the longer shapes.
fn boundary_times(len: usize) -> Vec<f64> {
    let mut ts: Vec<f64> = (0..len)
        .map(|j| match j % 6 {
            0 => 0.0,
            1 => 1.0 - f64::EPSILON,
            2 => 1.0,
            3 => 1.0 + f64::EPSILON,
            4 => 0.25 + 0.37 * j as f64,
            _ => 40.0 + j as f64,
        })
        .collect();
    if len > 9 {
        ts[7] = f64::NAN;
        ts[9] = f64::INFINITY;
    }
    ts
}

fn assert_bits_eq(family: &str, backend: Backend, expected: &[f64], got: &[f64]) {
    assert_eq!(expected.len(), got.len());
    for (j, (e, g)) in expected.iter().zip(got).enumerate() {
        assert!(
            e.to_bits() == g.to_bits(),
            "{family} on {backend:?}, element {j}: scalar {e:?} ({:#018x}) \
             vs batch {g:?} ({:#018x})",
            e.to_bits(),
            g.to_bits()
        );
    }
}

#[test]
fn survival_batch_with_matches_scalar_bit_for_bit_on_every_backend() {
    for (family, dist, _) in families() {
        for backend in backends() {
            for len in LENGTHS {
                let times = boundary_times(len);
                let reference: Vec<f64> = times.iter().map(|&t| dist.survival(t)).collect();
                let mut batch = times.clone();
                dist.survival_batch_with(backend, &mut batch);
                assert_bits_eq(family, backend, &reference, &batch);
            }
        }
    }
}

/// The multi-round batch must reproduce the scalar
/// `no_answer_probability` bit for bit on every backend, for every row of
/// every chunk shape: single-round chunks at rounds 1, 3 and 7, and
/// multi-round chunks whose total element count spans sub-lane through
/// multi-lane survival batches, at every width from empty to two full
/// 8-lane steps plus a remainder.
#[test]
fn p_rounds_batch_with_matches_no_answer_probability_bit_for_bit() {
    for (family, dist, _) in families() {
        for backend in backends() {
            for width in LENGTHS {
                // Listening periods must be finite and non-negative; keep
                // a spread that lands π both near 1 and deep in the tail.
                let rs: Vec<f64> = (0..width).map(|j| 0.05 + 0.21 * j as f64).collect();
                for (first, rounds) in [(1usize, 1usize), (3, 1), (7, 1), (1, 4), (2, 8), (7, 3)] {
                    let mut block = vec![0.0f64; rounds * width];
                    noanswer::p_rounds_batch_with(
                        dist.as_ref(),
                        backend,
                        &rs,
                        first,
                        rounds,
                        &mut block,
                    )
                    .unwrap();
                    for k in 0..rounds {
                        let reference: Vec<f64> = rs
                            .iter()
                            .map(|&r| noanswer::no_answer_probability(dist.as_ref(), first + k, r))
                            .collect::<Result<_, _>>()
                            .unwrap();
                        assert_bits_eq(
                            family,
                            backend,
                            &reference,
                            &block[k * width..(k + 1) * width],
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn vectorized_families_report_the_requested_tier_and_empirical_reports_scalar() {
    for (family, dist, vectorized) in families() {
        for backend in backends() {
            let mut ts = boundary_times(13);
            let used = dist.survival_batch_with(backend, &mut ts);
            let expected = if vectorized {
                backend.min(Backend::detect())
            } else {
                Backend::Scalar
            };
            assert_eq!(used, expected, "{family} asked for {backend:?}");

            let rs: Vec<f64> = (0..13).map(|j| 0.1 + 0.2 * j as f64).collect();
            let mut out = vec![0.0f64; 13];
            let used =
                noanswer::p_rounds_batch_with(dist.as_ref(), backend, &rs, 2, 1, &mut out).unwrap();
            assert_eq!(used, expected, "{family} π batch asked for {backend:?}");
        }
    }
}
