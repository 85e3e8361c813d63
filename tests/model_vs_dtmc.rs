//! Integration: the closed forms of Eq. (3)/(4) must agree with linear
//! solves on the explicitly constructed Markov reward model, across both
//! moderate and numerically extreme scenarios.
//!
//! The fixed scenarios hold the two routes to a relative 1e-9. The seeded
//! test draws scenarios across the whole input range and holds them to
//! the LU solve's own forward-error bound instead, together with
//! absorption with probability one.

use std::sync::Arc;

use zeroconf_repro::cost::{drm, paper, Scenario};
use zeroconf_repro::dist::{
    DefectiveDeterministic, DefectiveExponential, DefectiveUniform, DefectiveWeibull,
    ReplyTimeDistribution,
};
use zeroconf_repro::dtmc::{AbsorbingAnalysis, StateId};
use zeroconf_repro::rng::rngs::StdRng;
use zeroconf_repro::rng::{for_each_seed, Rng};

fn scenarios() -> Vec<(&'static str, Scenario)> {
    let mut out: Vec<(&'static str, Scenario)> = Vec::new();
    out.push(("figure2 (extreme)", paper::figure2_scenario().unwrap()));
    out.push(("section6", paper::section6_scenario().unwrap()));
    let builders: Vec<(&'static str, Arc<dyn ReplyTimeDistribution>)> = vec![
        (
            "moderate exponential",
            Arc::new(DefectiveExponential::new(0.8, 2.0, 0.4).unwrap()),
        ),
        (
            "uniform window",
            Arc::new(DefectiveUniform::new(0.9, 0.2, 1.5).unwrap()),
        ),
        (
            "weibull",
            Arc::new(DefectiveWeibull::new(0.7, 1.7, 0.6, 0.1).unwrap()),
        ),
        (
            "deterministic rtt",
            Arc::new(DefectiveDeterministic::new(0.95, 0.7).unwrap()),
        ),
    ];
    for (name, dist) in builders {
        out.push((
            name,
            Scenario::builder()
                .occupancy(0.25)
                .probe_cost(1.0)
                .error_cost(200.0)
                .reply_time(dist)
                .build()
                .unwrap(),
        ));
    }
    out
}

#[test]
fn mean_cost_closed_form_matches_linear_solve_everywhere() {
    for (name, scenario) in scenarios() {
        for n in [1u32, 2, 3, 4, 7, 12] {
            for r in [0.0, 0.3, 0.7, 1.0, 2.0, 5.0, 20.0] {
                let closed = scenario.mean_cost(n, r).unwrap();
                let solved = scenario.mean_cost_via_drm(n, r).unwrap();
                let scale = closed.abs().max(1e-12);
                assert!(
                    ((closed - solved) / scale).abs() < 1e-9,
                    "{name}: n = {n}, r = {r}: closed {closed:e} vs solved {solved:e}"
                );
            }
        }
    }
}

#[test]
fn error_probability_closed_form_matches_absorption_solve_everywhere() {
    for (name, scenario) in scenarios() {
        for n in [1u32, 2, 4, 8] {
            for r in [0.0, 0.5, 1.5, 4.0] {
                let closed = scenario.error_probability(n, r).unwrap();
                let solved = scenario.error_probability_via_drm(n, r).unwrap();
                // Absolute agreement for probabilities; relative when they
                // are representably positive.
                assert!(
                    (closed - solved).abs() < 1e-12,
                    "{name}: n = {n}, r = {r}: {closed:e} vs {solved:e}"
                );
                if closed > 1e-250 {
                    assert!(
                        ((closed - solved) / closed).abs() < 1e-9,
                        "{name}: n = {n}, r = {r}: rel diff too large"
                    );
                }
            }
        }
    }
}

#[test]
fn reliability_complements_error_probability() {
    let scenario = paper::figure2_scenario().unwrap();
    for n in [1u32, 4, 8] {
        for r in [0.0, 1.0, 3.0] {
            let e = scenario.error_probability(n, r).unwrap();
            let rel = scenario.reliability(n, r).unwrap();
            assert!((e + rel - 1.0).abs() < 1e-12);
        }
    }
}

#[test]
fn drm_cost_variance_is_consistent_with_direct_two_state_reasoning() {
    // A scenario where the run is a single Bernoulli trial: occupied
    // candidates always collide (no replies ever), free candidates cost a
    // deterministic amount. Then the total-cost variance has a hand
    // formula.
    let q = 0.3;
    let n = 2u32;
    let r = 1.0;
    let c = 1.0;
    let e = 50.0;
    let scenario = Scenario::builder()
        .occupancy(q)
        .probe_cost(c)
        .error_cost(e)
        .reply_time(Arc::new(DefectiveExponential::new(0.0, 1.0, 0.1).unwrap()))
        .build()
        .unwrap();
    let free_cost = n as f64 * (r + c);
    let collide_cost = n as f64 * (r + c) + e;
    let mean = q * collide_cost + (1.0 - q) * free_cost;
    let second = q * collide_cost * collide_cost + (1.0 - q) * free_cost * free_cost;
    let variance = second - mean * mean;
    assert!((scenario.mean_cost(n, r).unwrap() - mean).abs() < 1e-10);
    let sd = scenario.cost_standard_deviation(n, r).unwrap();
    assert!(
        (sd - variance.sqrt()).abs() < 1e-8,
        "sd {sd} vs {}",
        variance.sqrt()
    );
}

#[test]
fn expected_steps_have_closed_form_in_blackout_regime() {
    // With replies never arriving, every attempt is one start-transition
    // plus n probe rounds, and exactly one attempt happens.
    let scenario = Scenario::builder()
        .occupancy(0.5)
        .probe_cost(1.0)
        .error_cost(10.0)
        .reply_time(Arc::new(DefectiveExponential::new(0.0, 1.0, 0.1).unwrap()))
        .build()
        .unwrap();
    // Occupied: start -> probe1..4 -> error = 1 + 4 steps; free: start ->
    // ok = 1 step. Expectation: 0.5 * 5 + 0.5 * 1 = 3.
    let steps = zeroconf_repro::cost::drm::expected_steps(&scenario, 4, 1.0).unwrap();
    assert!((steps - 3.0).abs() < 1e-10, "steps {steps}");
}

/// Seeded draws of the oracle test; a failure prints its seed.
const ORACLE_CASES: u64 = 1_000;

/// `10^x` for `x` uniform on `[log10(lo), log10(hi))`.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.gen_range(lo.log10()..hi.log10()))
}

/// A delay that is exactly zero one time in four.
fn delay(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.25) {
        0.0
    } else {
        rng.gen_range(0.0..3.0)
    }
}

/// A scenario anywhere in the model's input range: `hosts` on 1–65,023
/// (a quarter of draws at 1, 1000, 65000 or 65023), an exponential,
/// uniform, Weibull or deterministic reply time whose loss is
/// log-uniform on 1e-15–0.5, `c` log-uniform on 1e-3–1e2 and `E`
/// log-uniform on 1–1e15.
fn oracle_scenario(rng: &mut StdRng) -> Scenario {
    let hosts = if rng.gen_bool(0.25) {
        [1, 1000, 65000, 65023][rng.gen_range(0..4usize)]
    } else {
        rng.gen_range(1..65_024u32)
    };
    let loss = log_uniform(rng, 1e-15, 0.5);
    let mass = 1.0 - loss;
    let reply_time: Arc<dyn ReplyTimeDistribution> = match rng.gen_range(0..4u32) {
        0 => Arc::new(
            DefectiveExponential::from_loss(loss, rng.gen_range(0.1..50.0), delay(rng)).unwrap(),
        ),
        1 => {
            let lo = rng.gen_range(0.0..3.0);
            Arc::new(DefectiveUniform::new(mass, lo, lo + rng.gen_range(0.01..4.0)).unwrap())
        }
        2 => Arc::new(
            DefectiveWeibull::new(
                mass,
                rng.gen_range(0.3..4.0),
                rng.gen_range(0.05..5.0),
                delay(rng),
            )
            .unwrap(),
        ),
        _ => Arc::new(DefectiveDeterministic::new(mass, rng.gen_range(0.0..4.0)).unwrap()),
    };
    Scenario::builder()
        .hosts(hosts)
        .unwrap()
        .probe_cost(log_uniform(rng, 1e-3, 1e2))
        .error_cost(log_uniform(rng, 1.0, 1e15))
        .reply_time(reply_time)
        .build()
        .unwrap()
}

#[test]
fn closed_forms_agree_with_lu_within_its_forward_error_bound_on_seeded_scenarios() {
    // The reward model has n + 3 states. With S = E[steps from start], the
    // start row sum of the non-negative fundamental matrix, and M the
    // largest |solution| over the transient states, the LU solve's
    // forward error is within ε·(n + 3)·S·M, and absorption into ok or
    // error within ε·(n + 3)·S of one.
    for_each_seed(0..ORACLE_CASES, |rng| {
        let scenario = oracle_scenario(rng);
        let n = rng.gen_range(1..17u32);
        let r = if rng.gen_bool(0.1) {
            0.0
        } else {
            log_uniform(rng, 0.01, 20.0)
        };
        let model = drm::build(&scenario, n, r).unwrap();
        let analysis = AbsorbingAnalysis::new(&model.chain).unwrap();
        let transient = analysis.transient_states();
        let steps = analysis.expected_steps(model.start).unwrap();
        let scale = f64::EPSILON * f64::from(n + 3) * steps;
        let largest = |value: &dyn Fn(StateId) -> f64| -> f64 {
            transient
                .iter()
                .map(|&s| value(s).abs())
                .fold(0.0, f64::max)
        };
        let context = format!(
            "q = {:e}, c = {:e}, E = {:e}, {:?}, n = {n}, r = {r:e}",
            scenario.occupancy(),
            scenario.probe_cost(),
            scenario.error_cost(),
            scenario.reply_time()
        );

        let closed_cost = scenario.mean_cost(n, r).unwrap();
        let lu_cost = analysis.expected_total_reward(model.start).unwrap();
        let cost_bound = scale * largest(&|s| analysis.expected_total_reward(s).unwrap());
        assert!(
            (closed_cost - lu_cost).abs() <= cost_bound,
            "Eq. (3): closed {closed_cost:e} vs LU {lu_cost:e}, bound {cost_bound:e}; {context}"
        );

        let closed_error = scenario.error_probability(n, r).unwrap();
        let lu_error = analysis
            .absorption_probability(model.start, model.error)
            .unwrap();
        let error_bound =
            scale * largest(&|s| analysis.absorption_probability(s, model.error).unwrap());
        assert!(
            (closed_error - lu_error).abs() <= error_bound,
            "Eq. (4): closed {closed_error:e} vs LU {lu_error:e}, bound {error_bound:e}; {context}"
        );

        let lu_ok = analysis
            .absorption_probability(model.start, model.ok)
            .unwrap();
        assert!(
            (lu_ok + lu_error - 1.0).abs() <= scale,
            "absorption: P(ok) + P(error) = {:e}, bound {scale:e}; {context}",
            lu_ok + lu_error
        );
    });
}
