//! Seeded cross-crate property tests: invariants of the cost model that
//! must hold for *any* admissible scenario, not just the paper's
//! parameter sets — a finite non-negative cost, a collision probability
//! that falls with more probes and longer listening, costs monotone in
//! both prices, the closed forms agreeing with the reward-model solve,
//! and the `r → 0` and large-`r` limits.
//!
//! Each property runs through `zeroconf_rng::for_each_seed` on seeds
//! `0..CASES`; a failure prints the seed that produced it, and passing
//! `seed..seed + 1` in place of `0..CASES` replays that case alone. The
//! properties of one `(scenario, n, r)` point run [`recorded_case`]
//! first.

use std::ops::Range;
use std::sync::Arc;

use zeroconf_repro::cost::Scenario;
use zeroconf_repro::dist::DefectiveExponential;
use zeroconf_repro::rng::rngs::StdRng;
use zeroconf_repro::rng::{for_each_seed, Rng, SeedableRng};

const CASES: u64 = 128;

/// An arbitrary admissible scenario with an exponential reply time (the
/// paper's family), away from degenerate corners.
fn scenario(rng: &mut StdRng) -> Scenario {
    let q = rng.gen_range(0.001..0.9);
    let c = rng.gen_range(0.0..10.0);
    let e = rng.gen_range(0.0..1e12);
    let loss = rng.gen_range(0.0..0.999);
    let rate = rng.gen_range(0.2..50.0);
    let delay = rng.gen_range(0.0..3.0);
    Scenario::builder()
        .occupancy(q)
        .probe_cost(c)
        .error_cost(e)
        .reply_time(Arc::new(
            DefectiveExponential::from_loss(loss, rate, delay).unwrap(),
        ))
        .build()
        .unwrap()
}

/// A point the seeded generator essentially never draws: an exponential
/// reply time with no delay at all. It was recorded as a shrunk failure
/// case when these properties ran on randomly generated inputs, and every
/// property of one `(scenario, n, r)` point checks it before the seeded
/// draws.
fn recorded_case() -> (Scenario, u32, f64) {
    let scenario = Scenario::builder()
        .occupancy(0.6794283468963527)
        .probe_cost(1.0958169542622196)
        .error_cost(492455694234.7783)
        .reply_time(Arc::new(
            DefectiveExponential::from_loss(0.042595875685479706, 24.937640770828356, 0.0).unwrap(),
        ))
        .build()
        .unwrap();
    (scenario, 7, 3.080312825840064)
}

/// Checks `property` on [`recorded_case`], then on `CASES` seeded draws of
/// a scenario, an `n` from `n_range` and an `r` from `r_range`, drawn in
/// that order before anything the property draws itself.
fn for_each_case(
    n_range: Range<u32>,
    r_range: Range<f64>,
    mut property: impl FnMut(&Scenario, u32, f64, &mut StdRng),
) {
    let (s, n, r) = recorded_case();
    property(&s, n, r, &mut StdRng::seed_from_u64(0));
    for_each_seed(0..CASES, |rng| {
        let s = scenario(rng);
        let n = rng.gen_range(n_range.clone());
        let r = rng.gen_range(r_range.clone());
        property(&s, n, r, rng);
    });
}

#[test]
fn cost_is_positive_and_finite() {
    for_each_case(1..10, 0.0..30.0, |s, n, r, _| {
        let cost = s.mean_cost(n, r).unwrap();
        assert!(cost.is_finite(), "C({n}, {r}) = {cost}");
        assert!(cost >= 0.0, "C({n}, {r}) = {cost}");
    });
}

#[test]
fn error_probability_is_a_probability() {
    for_each_case(1..10, 0.0..30.0, |s, n, r, _| {
        let p = s.error_probability(n, r).unwrap();
        // Eq. (4) is E = qπ / (1 − q(1 − π)) with π the probability that
        // all n probes go unanswered, and E ≤ q ⇔ π ≤ 1: a collision can
        // be no likelier than picking an occupied address. Equality holds
        // at r = 0 (π = 1), so the bound is exact, with no slack.
        assert!(
            0.0 <= p && p <= s.occupancy(),
            "E({n}, {r}) = {p}, q = {}",
            s.occupancy()
        );
    });
}

#[test]
fn error_probability_decreases_in_n_and_r() {
    for_each_case(1..8, 0.1..10.0, |s, n, r, _| {
        let base = s.error_probability(n, r).unwrap();
        let more_probes = s.error_probability(n + 1, r).unwrap();
        let longer_listen = s.error_probability(n, r * 1.5).unwrap();
        assert!(more_probes <= base + 1e-15, "n = {n}, r = {r}");
        assert!(longer_listen <= base + 1e-15, "n = {n}, r = {r}");
    });
}

#[test]
fn cost_is_monotone_in_error_cost() {
    for_each_case(1..8, 0.0..10.0, |s, n, r, rng| {
        let factor = rng.gen_range(1.1..100.0);
        let cheap = s.mean_cost(n, r).unwrap();
        let pricey = s
            .with_error_cost(s.error_cost() * factor + 1.0)
            .unwrap()
            .mean_cost(n, r)
            .unwrap();
        assert!(pricey >= cheap - 1e-9 * cheap.abs(), "{pricey} < {cheap}");
    });
}

#[test]
fn cost_is_monotone_in_probe_cost() {
    for_each_case(1..8, 0.0..10.0, |s, n, r, rng| {
        let extra = rng.gen_range(0.1..10.0);
        let base = s.mean_cost(n, r).unwrap();
        let pricier = s
            .with_probe_cost(s.probe_cost() + extra)
            .unwrap()
            .mean_cost(n, r)
            .unwrap();
        assert!(pricier >= base, "{pricier} < {base}");
    });
}

#[test]
fn closed_form_matches_drm_for_random_scenarios() {
    for_each_case(1..8, 0.0..10.0, |s, n, r, _| {
        let closed = s.mean_cost(n, r).unwrap();
        let solved = s.mean_cost_via_drm(n, r).unwrap();
        let scale = closed.abs().max(1.0);
        // The linear-solve route loses a few digits when a huge error cost
        // multiplies a vanishing path probability; 1e-6 relative is still
        // far beyond plot-reading precision.
        assert!(
            ((closed - solved) / scale).abs() < 1e-6,
            "closed {closed} vs solved {solved}"
        );
        let closed_p = s.error_probability(n, r).unwrap();
        let solved_p = s.error_probability_via_drm(n, r).unwrap();
        assert!(
            (closed_p - solved_p).abs() < 1e-10,
            "closed {closed_p} vs solved {solved_p}"
        );
    });
}

#[test]
fn asymptote_dominates_cost_from_below_at_large_r() {
    for_each_seed(0..CASES, |rng| {
        let s = scenario(rng);
        let n = rng.gen_range(1..6u32);
        // For r far beyond the reply window the cost approaches A_n(r)
        // from above (the remaining collision term is nonnegative).
        let r = 200.0;
        let cost = s.mean_cost(n, r).unwrap();
        let asym = s.asymptote(n, r).unwrap();
        assert!(
            cost >= asym * (1.0 - 1e-9),
            "cost {cost} vs asymptote {asym}"
        );
    });
}

#[test]
fn cost_at_zero_listening_collapses() {
    for_each_seed(0..CASES, |rng| {
        let s = scenario(rng);
        let n = rng.gen_range(1..10u32);
        let direct = s.mean_cost(n, 0.0).unwrap();
        let collapsed = s.probe_cost() * n as f64 + s.occupancy() * s.error_cost();
        let scale = collapsed.abs().max(1.0);
        assert!(
            ((direct - collapsed) / scale).abs() < 1e-9,
            "{direct} vs {collapsed}"
        );
    });
}

#[test]
fn variance_is_nonnegative() {
    for_each_case(1..6, 0.0..5.0, |s, n, r, _| {
        let sd = s.cost_standard_deviation(n, r).unwrap();
        assert!(sd >= 0.0, "sd = {sd}");
        assert!(sd.is_finite(), "sd = {sd}");
    });
}
