//! Golden bit-identity of the parametric sufficient-statistic layer.
//!
//! [`ParamLandscape`] claims that `C(n, r)` and `Err(n, r)` reconstructed
//! from the per-cell statistic `(Σ_{i<n} π_i, π_n)` reproduce the kernel
//! (and therefore the per-`n` closed forms) *float for float* — no
//! tolerance. This suite asserts that with [`f64::to_bits`] across all
//! six reply-time distribution families, both under the scenario's own
//! economics and under re-parameterized `(q, E, c)`.

use std::sync::Arc;

use zeroconf_cost::kernel::{ColumnBlockKernel, ScenarioFactors};
use zeroconf_cost::param::ParamLandscape;
use zeroconf_cost::{cost, Scenario};
use zeroconf_dist::{
    DefectiveDeterministic, DefectiveExponential, DefectiveUniform, DefectiveWeibull, Empirical,
    Mixture, ReplyTimeDistribution,
};

/// One scenario per reply-time distribution family.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    let exponential: Arc<dyn ReplyTimeDistribution> =
        Arc::new(DefectiveExponential::from_loss(1e-6, 10.0, 1.0).unwrap());
    let deterministic: Arc<dyn ReplyTimeDistribution> =
        Arc::new(DefectiveDeterministic::new(0.999, 1.0).unwrap());
    let uniform: Arc<dyn ReplyTimeDistribution> =
        Arc::new(DefectiveUniform::new(0.99, 0.5, 2.5).unwrap());
    let weibull: Arc<dyn ReplyTimeDistribution> =
        Arc::new(DefectiveWeibull::new(0.995, 1.7, 1.2, 0.3).unwrap());
    let mixture: Arc<dyn ReplyTimeDistribution> = Arc::new(
        Mixture::new(vec![
            (0.7, Arc::clone(&exponential)),
            (0.3, Arc::clone(&deterministic)),
        ])
        .unwrap(),
    );
    let empirical: Arc<dyn ReplyTimeDistribution> = Arc::new(
        Empirical::from_observations(vec![
            Some(0.4),
            Some(0.9),
            Some(1.1),
            Some(1.6),
            Some(2.2),
            None,
        ])
        .unwrap(),
    );
    [
        ("exponential", exponential),
        ("deterministic", deterministic),
        ("uniform", uniform),
        ("weibull", weibull),
        ("mixture", mixture),
        ("empirical", empirical),
    ]
    .into_iter()
    .map(|(name, dist)| {
        (
            name,
            Scenario::builder()
                .hosts(1000)
                .unwrap()
                .probe_cost(2.0)
                .error_cost(1e12)
                .reply_time(dist)
                .build()
                .unwrap(),
        )
    })
    .collect()
}

/// One column's `(C, E)` through a width-1 block kernel.
fn single_column(scenario: &Scenario, n_max: u32, r: f64) -> (Vec<f64>, Vec<f64>) {
    let pis = cost::pi_table(scenario, n_max, r).unwrap();
    let mut costs = vec![0.0; n_max as usize];
    let mut errors = vec![0.0; n_max as usize];
    ColumnBlockKernel::new(scenario)
        .evaluate(n_max, &[r], &[&pis], Some(&mut costs), Some(&mut errors))
        .unwrap();
    (costs, errors)
}

#[test]
fn reconstruction_is_bit_identical_across_all_six_distributions() {
    let n_max = 20u32;
    let rs = [0.0, 0.3, 1.0, 2.0, 4.5, 12.0];
    for (name, scenario) in scenarios() {
        let landscape = ParamLandscape::build(&scenario, n_max, &rs).unwrap();
        let factors = ScenarioFactors::new(&scenario);
        for (j, &r) in rs.iter().enumerate() {
            let (costs, errors) = single_column(&scenario, n_max, r);
            for n in 1..=n_max {
                assert_eq!(
                    landscape.cost_at(&factors, j, n).to_bits(),
                    costs[n as usize - 1].to_bits(),
                    "{name}: C(n = {n}, r = {r})"
                );
                assert_eq!(
                    landscape.error_at(&factors, j, n).to_bits(),
                    errors[n as usize - 1].to_bits(),
                    "{name}: Err(n = {n}, r = {r})"
                );
            }
        }
    }
}

#[test]
fn reparameterized_reconstruction_matches_direct_evaluation_bitwise() {
    // The statistic is scenario-economics-free: one landscape must serve
    // any (q, E, c) the caller re-parameterizes with, matching a from-
    // scratch evaluation of the varied scenario bit for bit.
    let n_max = 12u32;
    let rs = [0.2, 1.5, 6.0];
    let economies = [
        (0.05f64, 3.5f64, 5e20f64),
        (0.4, 0.5, 1e35),
        (0.9, 0.0, 0.0),
    ];
    for (name, scenario) in scenarios() {
        let landscape = ParamLandscape::build(&scenario, n_max, &rs).unwrap();
        for (q, c, e) in economies {
            let varied = scenario
                .with_occupancy(q)
                .unwrap()
                .with_probe_cost(c)
                .unwrap()
                .with_error_cost(e)
                .unwrap();
            let factors = ScenarioFactors::new(&varied);
            for (j, &r) in rs.iter().enumerate() {
                for n in 1..=n_max {
                    let direct = cost::mean_cost(&varied, n, r).unwrap();
                    assert_eq!(
                        landscape.cost_at(&factors, j, n).to_bits(),
                        direct.to_bits(),
                        "{name}: C(n = {n}, r = {r}) under (q = {q}, c = {c}, E = {e})"
                    );
                    let direct_err = cost::error_probability(&varied, n, r).unwrap();
                    assert_eq!(
                        landscape.error_at(&factors, j, n).to_bits(),
                        direct_err.to_bits(),
                        "{name}: Err(n = {n}, r = {r}) under (q = {q}, c = {c}, E = {e})"
                    );
                }
            }
        }
    }
}
