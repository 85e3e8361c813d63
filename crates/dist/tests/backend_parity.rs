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
//! The saturation tests hold the exponential and Weibull kernels' `exp`
//! skip (`zeroconf_simd::saturation_cut`) to the same oracle, whose
//! `survival` always calls `exp`.

use std::sync::Arc;

use zeroconf_dist::{
    noanswer, Backend, DefectiveDeterministic, DefectiveExponential, DefectiveUniform,
    DefectiveWeibull, Empirical, Mixture, ReplyTimeDistribution,
};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{for_each_seed, Rng};
use zeroconf_simd::saturation_cut;

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

/// `2^-1000`, the smallest loss the saturation cut is taken for.
const MIN_CUT_LOSS: f64 = 9.332_636_185_032_189e-302;

/// A loss in `[2^-1000, 1 − 2^-53]`, log-uniform, each endpoint drawn
/// outright one time in eight.
fn draw_loss(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => MIN_CUT_LOSS,
        1 => 1.0 - f64::EPSILON / 2.0,
        _ => 2f64
            .powf(-rng.gen_range(0.0..1000.0))
            .min(1.0 - f64::EPSILON / 2.0),
    }
}

/// Exponents around `cut`: every float within 64 ulps of it, then
/// `cut − 8 ..= cut + 64` in quarter steps, across the point near
/// `cut + 2.4` where the sum first leaves `loss`.
fn exponents_around(cut: f64) -> Vec<f64> {
    let mut xs: Vec<f64> = (-64i64..=64)
        .map(|k| f64::from_bits(cut.to_bits().wrapping_add_signed(k)))
        .collect();
    xs.extend((-32..=256).map(|j| cut + f64::from(j) / 4.0));
    xs
}

/// `times` with the lanes the kernels branch on appended (`NaN`, `+∞`,
/// below the delay, at it), then the whole list again shuffled, so lane
/// chunks mix skipped and computed exponents at every offset.
fn with_edges_and_shuffled(rng: &mut StdRng, mut times: Vec<f64>, delay: f64) -> Vec<f64> {
    times.extend([f64::NAN, f64::INFINITY, delay - 0.5, -1.0, delay]);
    let mut shuffled = times.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..i + 1));
    }
    times.extend(shuffled);
    times
}

/// Every backend's batch must give `survival`'s bits at every time, and
/// the times must straddle the cut: some survivals are `loss` to the last
/// bit and some are above it.
fn assert_batch_matches_survival(family: &str, dist: &dyn ReplyTimeDistribution, ts: &[f64]) {
    let reference: Vec<f64> = ts.iter().map(|&t| dist.survival(t)).collect();
    for backend in backends() {
        for len in [ts.len(), ts.len() - 3] {
            let mut batch = ts[..len].to_vec();
            dist.survival_batch_with(backend, &mut batch);
            assert_bits_eq(family, backend, &reference[..len], &batch);
        }
    }
}

/// The exponential kernel returns `loss` without `exp` below
/// `saturation_cut(loss, 1 − loss)`. Over seeded losses from `2^-1000` to
/// `1 − 2^-53`, rates and delays (zero one time in four), every backend
/// must match `survival` bit for bit at exponents straddling the cut; with
/// rate 1 and delay 0 the exponent is `−t` exactly, so the ±64 ulps are
/// exact too.
#[test]
fn exponential_survival_skips_exp_only_where_it_rounds_to_loss() {
    for_each_seed(0..96, |rng| {
        let loss = draw_loss(rng);
        let (rate, delay) = match rng.gen_range(0..4u32) {
            0 => (1.0, 0.0),
            1 => (rng.gen_range(0.1..50.0), 0.0),
            _ => (rng.gen_range(0.1..50.0), rng.gen_range(0.0..3.0)),
        };
        let dist = DefectiveExponential::from_loss(loss, rate, delay).unwrap();
        let cut = saturation_cut(loss, 1.0 - loss);
        assert!(cut.is_finite(), "loss {loss:e} must take a cut");
        let times = exponents_around(cut)
            .into_iter()
            .map(|x| delay - x / rate)
            .collect();
        let ts = with_edges_and_shuffled(rng, times, delay);
        let survivals: Vec<f64> = ts.iter().map(|&t| dist.survival(t)).collect();
        assert!(
            survivals.contains(&loss),
            "loss {loss:e}: nothing saturates"
        );
        assert!(
            ts.iter()
                .zip(&survivals)
                .any(|(&t, &s)| t >= delay && s > loss),
            "loss {loss:e}: nothing is computed"
        );
        assert_batch_matches_survival("exponential", &dist, &ts);
    });
}

/// A loss of 0, a subnormal loss, a normal loss under `2^-1000` and a
/// loss of 1 (no reply mass) take no cut, and still match `survival`.
#[test]
fn losses_outside_the_cut_range_skip_nothing() {
    let subnormal = f64::from_bits(1 << 40);
    let below_range = MIN_CUT_LOSS / 2.0;
    for (loss, scale) in [
        (0.0, 1.0),
        (subnormal, 1.0),
        (below_range, 1.0),
        (1.0, 0.0),
        (0.5, 0.0),
        (0.5, 2.0),
    ] {
        assert_eq!(saturation_cut(loss, scale), f64::NEG_INFINITY, "{loss:e}");
    }
    assert!(saturation_cut(MIN_CUT_LOSS, 1.0).is_finite());
    for_each_seed(0..8, |rng| {
        for loss in [0.0, subnormal, below_range] {
            let dist = DefectiveExponential::from_loss(loss, 1.0, 0.0).unwrap();
            let times = (0..=300).map(|j| 2.5 * f64::from(j)).collect();
            let ts = with_edges_and_shuffled(rng, times, 0.0);
            assert_batch_matches_survival("exponential", &dist, &ts);
        }
        let no_reply = DefectiveExponential::new(0.0, 3.0, 1.0).unwrap();
        let ts = with_edges_and_shuffled(rng, (0..64).map(f64::from).collect(), 1.0);
        assert_batch_matches_survival("exponential", &no_reply, &ts);
    });
}

/// The Weibull kernel skips `exp` (not `powf`) below
/// `saturation_cut(1 − mass, mass)`, by the same rule. Shape and scale 1
/// with delay 0 make the exponent `−t` exactly.
#[test]
fn weibull_survival_skips_exp_only_where_it_rounds_to_the_defect() {
    for_each_seed(0..96, |rng| {
        let mass = 1.0 - draw_loss(rng).max(f64::EPSILON);
        let (shape, scale, delay) = match rng.gen_range(0..4u32) {
            0 => (1.0, 1.0, 0.0),
            1 => (rng.gen_range(0.3..4.0), rng.gen_range(0.05..5.0), 0.0),
            _ => (
                rng.gen_range(0.3..4.0),
                rng.gen_range(0.05..5.0),
                rng.gen_range(0.0..3.0),
            ),
        };
        let dist = DefectiveWeibull::new(mass, shape, scale, delay).unwrap();
        let survived = 1.0 - mass;
        let cut = saturation_cut(survived, mass);
        assert!(cut.is_finite(), "mass {mass} must take a cut");
        let times = exponents_around(cut)
            .into_iter()
            .map(|x| delay + scale * (-x).powf(1.0 / shape))
            .collect();
        let ts = with_edges_and_shuffled(rng, times, delay);
        let survivals: Vec<f64> = ts.iter().map(|&t| dist.survival(t)).collect();
        assert!(
            survivals.contains(&survived),
            "mass {mass}: nothing saturates"
        );
        assert!(
            ts.iter()
                .zip(&survivals)
                .any(|(&t, &s)| t >= delay && s > survived),
            "mass {mass}: nothing is computed"
        );
        assert_batch_matches_survival("weibull", &dist, &ts);
    });
}
