//! Integration: Monte-Carlo simulation of the protocol must converge onto
//! the closed forms (the telescoping argument makes the two *exactly* the
//! same law, so only sampling noise separates them).

use std::sync::Arc;

use zeroconf_repro::cost::Scenario;
use zeroconf_repro::dist::{
    DefectiveDeterministic, DefectiveExponential, DefectiveUniform, ReplyTimeDistribution,
};
use zeroconf_repro::sim::protocol::{run_many, ProtocolConfig};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{for_each_seed, Rng, SeedableRng};

struct Case {
    name: &'static str,
    q: f64,
    c: f64,
    e: f64,
    n: u32,
    r: f64,
    dist: Arc<dyn ReplyTimeDistribution>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "lossy exponential",
            q: 0.3,
            c: 1.5,
            e: 50.0,
            n: 3,
            r: 0.8,
            dist: Arc::new(DefectiveExponential::from_loss(0.2, 3.0, 0.2).unwrap()),
        },
        Case {
            name: "very lossy, single probe",
            q: 0.5,
            c: 0.5,
            e: 20.0,
            n: 1,
            r: 0.5,
            dist: Arc::new(DefectiveExponential::from_loss(0.6, 5.0, 0.1).unwrap()),
        },
        Case {
            name: "uniform reply window",
            q: 0.2,
            c: 2.0,
            e: 100.0,
            n: 4,
            r: 0.6,
            dist: Arc::new(DefectiveUniform::new(0.85, 0.3, 2.5).unwrap()),
        },
    ]
}

#[test]
fn simulated_mean_cost_converges_to_eq3() {
    let mut rng = StdRng::seed_from_u64(77);
    for case in cases() {
        let scenario = Scenario::builder()
            .occupancy(case.q)
            .probe_cost(case.c)
            .error_cost(case.e)
            .reply_time(case.dist.clone())
            .build()
            .unwrap();
        let exact = scenario.mean_cost(case.n, case.r).unwrap();
        let config = ProtocolConfig::builder()
            .probes(case.n)
            .listen_period(case.r)
            .probe_cost(case.c)
            .error_cost(case.e)
            .occupancy(case.q)
            .reply_time(case.dist.clone())
            .build()
            .unwrap();
        let summary = run_many(&config, 150_000, &mut rng).unwrap();
        let se = summary.cost.standard_error();
        let z = (summary.cost.mean() - exact) / se;
        assert!(
            z.abs() < 5.0,
            "{}: simulated {} vs exact {} (z = {z:.2})",
            case.name,
            summary.cost.mean(),
            exact
        );
    }
}

#[test]
fn simulated_collision_rate_converges_to_eq4() {
    let mut rng = StdRng::seed_from_u64(78);
    for case in cases() {
        let scenario = Scenario::builder()
            .occupancy(case.q)
            .probe_cost(case.c)
            .error_cost(case.e)
            .reply_time(case.dist.clone())
            .build()
            .unwrap();
        let exact = scenario.error_probability(case.n, case.r).unwrap();
        let config = ProtocolConfig::builder()
            .probes(case.n)
            .listen_period(case.r)
            .probe_cost(case.c)
            .error_cost(case.e)
            .occupancy(case.q)
            .reply_time(case.dist.clone())
            .build()
            .unwrap();
        let summary = run_many(&config, 150_000, &mut rng).unwrap();
        let (lo, hi) = summary.collision_interval_95();
        // Wilson 95% can miss ~5% of the time per case; widen slightly by
        // also accepting small absolute deviations.
        assert!(
            (lo - 1e-3..=hi + 1e-3).contains(&exact),
            "{}: exact {exact} outside [{lo}, {hi}]",
            case.name
        );
    }
}

#[test]
fn simulated_cost_variance_matches_drm_variance() {
    let mut rng = StdRng::seed_from_u64(79);
    let case = &cases()[0];
    let scenario = Scenario::builder()
        .occupancy(case.q)
        .probe_cost(case.c)
        .error_cost(case.e)
        .reply_time(case.dist.clone())
        .build()
        .unwrap();
    let exact_sd = scenario.cost_standard_deviation(case.n, case.r).unwrap();
    let config = ProtocolConfig::builder()
        .probes(case.n)
        .listen_period(case.r)
        .probe_cost(case.c)
        .error_cost(case.e)
        .occupancy(case.q)
        .reply_time(case.dist.clone())
        .build()
        .unwrap();
    let summary = run_many(&config, 150_000, &mut rng).unwrap();
    let sim_sd = summary.cost.standard_deviation();
    assert!(
        ((sim_sd - exact_sd) / exact_sd).abs() < 0.05,
        "sd {sim_sd} vs {exact_sd}"
    );
}

#[test]
fn protocol_metrics_match_simulation() {
    // The fundamental-matrix metrics (attempts, probes) must agree with
    // the simulator's direct counts.
    let case = &cases()[0];
    let scenario = Scenario::builder()
        .occupancy(case.q)
        .probe_cost(case.c)
        .error_cost(case.e)
        .reply_time(case.dist.clone())
        .build()
        .unwrap();
    let metrics =
        zeroconf_repro::cost::metrics::protocol_metrics(&scenario, case.n, case.r).unwrap();
    let config = ProtocolConfig::builder()
        .probes(case.n)
        .listen_period(case.r)
        .probe_cost(case.c)
        .error_cost(case.e)
        .occupancy(case.q)
        .reply_time(case.dist.clone())
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(81);
    let summary = run_many(&config, 120_000, &mut rng).unwrap();
    assert!(
        ((summary.attempts.mean() - metrics.expected_attempts) / metrics.expected_attempts).abs()
            < 0.01,
        "attempts: sim {} vs model {}",
        summary.attempts.mean(),
        metrics.expected_attempts
    );
    assert!(
        ((summary.probes_sent.mean() - metrics.expected_probes) / metrics.expected_probes).abs()
            < 0.01,
        "probes: sim {} vs model {}",
        summary.probes_sent.mean(),
        metrics.expected_probes
    );
}

#[test]
fn probes_sent_match_chain_expectation() {
    // With E = 0, every unit of cost is one probe round times (r + c), so
    // the model's mean cost divided by (r + c) is exactly the expected
    // number of probes sent per run.
    let dist: Arc<dyn ReplyTimeDistribution> =
        Arc::new(DefectiveExponential::from_loss(0.3, 4.0, 0.05).unwrap());
    let (q, c, r, n) = (0.4, 1.0, 0.4, 3u32);
    let scenario = Scenario::builder()
        .occupancy(q)
        .probe_cost(c)
        .error_cost(0.0)
        .reply_time(dist.clone())
        .build()
        .unwrap();
    let expected_probes = scenario.mean_cost(n, r).unwrap() / (r + c);
    let config = ProtocolConfig::builder()
        .probes(n)
        .listen_period(r)
        .probe_cost(c)
        .error_cost(0.0)
        .occupancy(q)
        .reply_time(dist)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(80);
    let summary = run_many(&config, 100_000, &mut rng).unwrap();
    assert!(
        ((summary.probes_sent.mean() - expected_probes) / expected_probes).abs() < 0.02,
        "sim probes {} vs model {}",
        summary.probes_sent.mean(),
        expected_probes
    );
}

/// The regime the seeded draws below are held to: a collision
/// probability (Eq. 4) of at least this. Below it the runs of one draw
/// see too few collisions for the normal approximation behind a z-score,
/// and the mean cost hardly depends on `E`, so a draw there tests little.
/// A draw outside the regime is rejected and drawn again.
const LOSSY_REGIME_MIN_ERROR: f64 = 1e-3;
/// Simulated runs per seeded draw.
const SEEDED_TRIALS: u64 = 60_000;

#[derive(Debug, Clone, Copy)]
enum Family {
    Exponential,
    Uniform,
    Deterministic,
}

/// One scenario of `family` in the lossy regime, drawn from `rng` alone:
/// the reply time's parameters and `q`, `c`, `E`, `n` and `r` all vary.
fn draw_lossy_case(rng: &mut StdRng, family: Family) -> Case {
    for _ in 0..1_000 {
        let mass = rng.gen_range(0.4..0.95);
        let dist: Arc<dyn ReplyTimeDistribution> = match family {
            Family::Exponential => Arc::new(
                DefectiveExponential::new(mass, rng.gen_range(1.0..8.0), rng.gen_range(0.0..0.3))
                    .unwrap(),
            ),
            Family::Uniform => {
                let lo = rng.gen_range(0.0..0.5);
                Arc::new(DefectiveUniform::new(mass, lo, lo + rng.gen_range(0.1..2.0)).unwrap())
            }
            Family::Deterministic => {
                Arc::new(DefectiveDeterministic::new(mass, rng.gen_range(0.05..1.0)).unwrap())
            }
        };
        let case = Case {
            name: "seeded draw",
            q: rng.gen_range(0.05..0.6),
            c: rng.gen_range(0.1..3.0),
            e: rng.gen_range(1.0..200.0),
            n: rng.gen_range(1..5),
            r: rng.gen_range(0.1..1.5),
            dist,
        };
        if scenario(&case).error_probability(case.n, case.r).unwrap() >= LOSSY_REGIME_MIN_ERROR {
            return case;
        }
    }
    panic!("no {family:?} draw in 1,000 reached the lossy regime");
}

fn scenario(case: &Case) -> Scenario {
    Scenario::builder()
        .occupancy(case.q)
        .probe_cost(case.c)
        .error_cost(case.e)
        .reply_time(case.dist.clone())
        .build()
        .unwrap()
}

/// Eight seeded scenarios (three exponential, three uniform and two
/// deterministic reply times) against the protocol simulator: for each,
/// the simulated mean cost and collision rate sit within five standard
/// errors of Eq. (3) and Eq. (4).
#[test]
fn seeded_draws_match_the_simulator_in_the_lossy_regime() {
    for (family, seeds) in [
        (Family::Exponential, 0..3),
        (Family::Uniform, 3..6),
        (Family::Deterministic, 6..8),
    ] {
        for_each_seed(seeds, |rng| {
            let case = draw_lossy_case(rng, family);
            let scenario = scenario(&case);
            let (cost, error) = (
                scenario.mean_cost(case.n, case.r).unwrap(),
                scenario.error_probability(case.n, case.r).unwrap(),
            );
            assert!(error >= LOSSY_REGIME_MIN_ERROR);
            let config = ProtocolConfig::builder()
                .probes(case.n)
                .listen_period(case.r)
                .probe_cost(case.c)
                .error_cost(case.e)
                .occupancy(case.q)
                .reply_time(case.dist.clone())
                .build()
                .unwrap();
            let summary = run_many(&config, SEEDED_TRIALS, rng).unwrap();
            let described = format!(
                "{family:?} q = {}, c = {}, E = {}, n = {}, r = {}: Eq. (3) {cost}, Eq. (4) {error}",
                case.q, case.c, case.e, case.n, case.r
            );
            let z_cost = (summary.cost.mean() - cost) / summary.cost.standard_error();
            assert!(
                z_cost.abs() < 5.0,
                "{described}: simulated mean cost {} (z = {z_cost:.2})",
                summary.cost.mean()
            );
            let error_se = (error * (1.0 - error) / SEEDED_TRIALS as f64).sqrt();
            let z_error = (summary.collision_rate() - error) / error_se;
            assert!(
                z_error.abs() < 5.0,
                "{described}: simulated collision rate {} (z = {z_error:.2})",
                summary.collision_rate()
            );
        });
    }
}
