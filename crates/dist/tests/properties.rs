//! Seeded property tests of the reply-time distributions and Eq. (1).
//!
//! Random distributions of every family are checked against the
//! distribution contract (a monotone, mass-bounded CDF complementing the
//! survival function), against the no-answer identities of Eq. (1) (π
//! decreasing in the probe count, a product of survivals, bounded below
//! by the defect power, the literal form matching the telescoped one),
//! and the batched `p_i` the π-table cache is built from is checked bit
//! for bit against the scalar form across all six families, on every
//! backend the host has. Two sampling
//! properties tie the samplers to the closed forms.
//!
//! Each property runs through `zeroconf_rng::for_each_seed` on seeds
//! `0..CASES`; a failure prints the seed that produced it, and passing
//! `seed..seed + 1` in place of `0..CASES` replays that case alone.

use std::sync::Arc;

use zeroconf_dist::{
    noanswer, Backend, DefectiveDeterministic, DefectiveExponential, DefectiveUniform,
    DefectiveWeibull, Empirical, Mixture, ReplyTimeDistribution,
};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{for_each_seed, Rng, SeedableRng};

const CASES: u64 = 128;

/// A mass in the closed interval `[0, 1]`: both endpoints are drawn
/// outright one time in eight each, the interior uniformly otherwise.
fn mass(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen_range(0.0..1.0),
    }
}

fn exponential(rng: &mut StdRng) -> DefectiveExponential {
    let mass = mass(rng);
    DefectiveExponential::new(mass, rng.gen_range(0.1..50.0), rng.gen_range(0.0..5.0)).unwrap()
}

fn weibull(rng: &mut StdRng) -> DefectiveWeibull {
    let mass = mass(rng);
    DefectiveWeibull::new(
        mass,
        rng.gen_range(0.3..4.0),
        rng.gen_range(0.05..5.0),
        rng.gen_range(0.0..3.0),
    )
    .unwrap()
}

fn uniform(rng: &mut StdRng) -> DefectiveUniform {
    let mass = mass(rng);
    let lo = rng.gen_range(0.0..3.0);
    DefectiveUniform::new(mass, lo, lo + rng.gen_range(0.01..4.0)).unwrap()
}

fn deterministic(rng: &mut StdRng) -> DefectiveDeterministic {
    let mass = mass(rng);
    DefectiveDeterministic::new(mass, rng.gen_range(0.0..5.0)).unwrap()
}

fn mixture(rng: &mut StdRng) -> Mixture {
    let e = exponential(rng);
    let w = weibull(rng);
    let split = rng.gen_range(0.05..0.95);
    Mixture::new(vec![
        (split, Arc::new(e) as Arc<dyn ReplyTimeDistribution>),
        (1.0 - split, Arc::new(w)),
    ])
    .unwrap()
}

/// 3–39 observations in `[0, 8)`, each lost with probability one half,
/// redrawn until at least one reply was observed.
fn empirical(rng: &mut StdRng) -> Empirical {
    loop {
        let len = rng.gen_range(3..40usize);
        let observations: Vec<Option<f64>> = (0..len)
            .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0.0..8.0)))
            .collect();
        if observations.iter().any(Option::is_some) {
            return Empirical::from_observations(observations).unwrap();
        }
    }
}

/// 1–11 listening periods spanning the interesting regimes: each is
/// zero, the smallest normal, the smallest subnormal, or uniform in
/// `[0.001, 50)`, with equal odds.
fn listening_periods(rng: &mut StdRng) -> Vec<f64> {
    let len = rng.gen_range(1..12usize);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => f64::MIN_POSITIVE,
            2 => 5e-324,
            _ => rng.gen_range(0.001..50.0),
        })
        .collect()
}

/// `p_rounds_batch_with` must agree with the scalar
/// `no_answer_probability` down to the last bit at every index of the
/// batch, on every backend the host has — the blocked π builder's
/// correctness rests on this. Rounds 1..=7 run as one chunk; round 0 is
/// the `p_0 = 1` convention the π builder writes itself.
fn check_batch_bit_identity<D: ReplyTimeDistribution>(d: &D, rs: &[f64]) {
    const ROUNDS: usize = 7;
    let mut batch = vec![0.0f64; ROUNDS * rs.len()];
    for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512]
        .into_iter()
        .filter(|&b| b <= Backend::detect())
    {
        noanswer::p_rounds_batch_with(d, backend, rs, 1, ROUNDS, &mut batch).unwrap();
        for (k, row) in batch.chunks_exact(rs.len()).enumerate() {
            let i = k + 1;
            for (&p, &r) in row.iter().zip(rs) {
                let scalar = noanswer::no_answer_probability(d, i, r).unwrap();
                assert_eq!(
                    p.to_bits(),
                    scalar.to_bits(),
                    "{backend:?}, i = {i}, r = {r}: batch {p} vs scalar {scalar}"
                );
            }
        }
    }
}

/// Shared contract checks for any distribution.
fn check_contract<D: ReplyTimeDistribution>(d: &D) {
    let mut prev_cdf = 0.0;
    for t in (0..40).map(|k| k as f64 * 0.25) {
        let c = d.cdf(t);
        let s = d.survival(t);
        assert!((0.0..=1.0 + 1e-12).contains(&c), "cdf {c} at {t}");
        assert!(c <= d.mass() + 1e-12, "cdf beyond mass at {t}");
        assert!(c + 1e-12 >= prev_cdf, "cdf not monotone at {t}");
        // CDF and survival complement to within absolute precision.
        assert!((c + s - 1.0).abs() < 1e-9, "c + s = {} at {t}", c + s);
        prev_cdf = c;
    }
    assert!(d.defect() >= -1e-15 && d.defect() <= 1.0 + 1e-15);
}

#[test]
fn exponential_satisfies_contract() {
    for_each_seed(0..CASES, |rng| check_contract(&exponential(rng)));
}

#[test]
fn weibull_satisfies_contract() {
    for_each_seed(0..CASES, |rng| check_contract(&weibull(rng)));
}

#[test]
fn uniform_satisfies_contract() {
    for_each_seed(0..CASES, |rng| check_contract(&uniform(rng)));
}

#[test]
fn no_answer_probability_is_monotone_in_probe_count() {
    for_each_seed(0..CASES, |rng| {
        let d = exponential(rng);
        let r = rng.gen_range(0.01..5.0);
        // More probes sent means more chances a reply arrived: p_i ≥ p_{i+1}
        // cannot hold in general for p (conditional), but π must decrease.
        let pis = noanswer::pi_sequence(&d, 8, r).unwrap();
        for w in pis.windows(2) {
            assert!(w[1] <= w[0] + 1e-15, "r = {r}: {} after {}", w[1], w[0]);
        }
    });
}

#[test]
fn pi_is_product_of_survivals() {
    for_each_seed(0..CASES, |rng| {
        let d = exponential(rng);
        let r = rng.gen_range(0.01..5.0);
        let pis = noanswer::pi_sequence(&d, 6, r).unwrap();
        for (i, &pi) in pis.iter().enumerate() {
            let product: f64 = (1..=i).map(|j| d.survival(j as f64 * r)).product();
            assert!(
                (pi - product).abs() <= 1e-12 * (1.0 + product),
                "i = {i}: {pi} vs {product}"
            );
        }
    });
}

#[test]
fn literal_matches_telescoped_where_conditioning_is_valid() {
    for_each_seed(0..CASES, |rng| {
        let d = exponential(rng);
        let r = rng.gen_range(0.01..5.0);
        let i = rng.gen_range(0..8usize);
        let telescoped = noanswer::no_answer_probability(&d, i, r).unwrap();
        let literal = noanswer::no_answer_probability_literal(&d, i, r).unwrap();
        // Literal form degrades when the CDF saturates; compare with an
        // absolute tolerance scaled by where we are.
        assert!(
            (telescoped - literal).abs() < 1e-8,
            "i = {i}, r = {r}: {telescoped} vs {literal}"
        );
    });
}

#[test]
fn pi_bounded_by_defect_power_below() {
    for_each_seed(0..CASES, |rng| {
        let d = exponential(rng);
        let r = rng.gen_range(0.1..10.0);
        // π_i(r) ≥ (1 − l)^i always: the defect is the floor of every
        // survival factor.
        let pis = noanswer::pi_sequence(&d, 5, r).unwrap();
        for (i, &p) in pis.iter().enumerate() {
            assert!(p >= noanswer::pi_limit(&d, i) * (1.0 - 1e-12), "i = {i}");
        }
    });
}

#[test]
fn batch_p_i_is_bit_identical_for_exponential() {
    for_each_seed(0..CASES, |rng| {
        let d = exponential(rng);
        check_batch_bit_identity(&d, &listening_periods(rng));
    });
}

#[test]
fn batch_p_i_is_bit_identical_for_weibull() {
    for_each_seed(0..CASES, |rng| {
        let d = weibull(rng);
        check_batch_bit_identity(&d, &listening_periods(rng));
    });
}

#[test]
fn batch_p_i_is_bit_identical_for_uniform() {
    for_each_seed(0..CASES, |rng| {
        let d = uniform(rng);
        check_batch_bit_identity(&d, &listening_periods(rng));
    });
}

#[test]
fn batch_p_i_is_bit_identical_for_deterministic() {
    for_each_seed(0..CASES, |rng| {
        let d = deterministic(rng);
        check_batch_bit_identity(&d, &listening_periods(rng));
    });
}

#[test]
fn batch_p_i_is_bit_identical_for_mixture() {
    for_each_seed(0..CASES, |rng| {
        let d = mixture(rng);
        check_batch_bit_identity(&d, &listening_periods(rng));
    });
}

#[test]
fn batch_p_i_is_bit_identical_for_empirical() {
    for_each_seed(0..CASES, |rng| {
        let d = empirical(rng);
        check_batch_bit_identity(&d, &listening_periods(rng));
    });
}

#[test]
fn sampled_defect_matches_mass() {
    for_each_seed(0..CASES, |rng| {
        let d = DefectiveExponential::new(rng.gen_range(0.1..0.9), 5.0, 0.1).unwrap();
        let mut sampler = StdRng::seed_from_u64(7);
        let n = 20_000;
        let lost = (0..n).filter(|_| d.sample(&mut sampler).is_none()).count();
        let loss_rate = lost as f64 / n as f64;
        assert!(
            (loss_rate - d.defect()).abs() < 0.02,
            "loss {loss_rate} vs defect {}",
            d.defect()
        );
    });
}

#[test]
fn empirical_cdf_converges_to_source() {
    for_each_seed(0..CASES, |rng| {
        let source = DefectiveExponential::new(rng.gen_range(0.3..1.0), 2.0, 0.5).unwrap();
        let mut sampler = StdRng::seed_from_u64(13);
        let observations: Vec<Option<f64>> =
            (0..30_000).map(|_| source.sample(&mut sampler)).collect();
        let empirical = Empirical::from_observations(observations).unwrap();
        for t in [0.5, 1.0, 2.0, 4.0] {
            assert!(
                (empirical.cdf(t) - source.cdf(t)).abs() < 0.02,
                "t = {t}: {} vs {}",
                empirical.cdf(t),
                source.cdf(t)
            );
        }
    });
}
