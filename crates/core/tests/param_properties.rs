//! Seeded property tests of the parametric layer.
//!
//! Random scenarios across all six reply-time distribution families,
//! random grids (including the `r = 0` boundary, shuffled and duplicated
//! `r` lists), and random re-parameterized economics:
//!
//! - the `C`/`Err` values reconstructed from the sufficient statistic
//!   `(Σπ, π_n)` match the per-`n` closed forms float for float;
//! - the grid-scan selection (`min_cost_cell_with`, and
//!   `min_cost_cell_near` under every kind of hint) picks the same cell,
//!   cost bits and error bits as the scalar `min_cost_cell` oracle on
//!   every backend the host has.
//!
//! Each property runs through `zeroconf_rng::for_each_seed` on seeds
//! `0..CASES`; a failure prints the seed that produced it, and passing
//! `seed..seed + 1` in place of `0..CASES` replays that case alone.

use std::ops::Range;
use std::sync::Arc;

use zeroconf_cost::kernel::{Backend, ColumnBlockKernel, Mode, ScenarioFactors};
use zeroconf_cost::param::ParamLandscape;
use zeroconf_cost::{cost, Scenario};
use zeroconf_dist::{
    DefectiveDeterministic, DefectiveExponential, DefectiveUniform, DefectiveWeibull, Empirical,
    Mixture, ReplyTimeDistribution,
};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{for_each_seed, Rng};

const CASES: u64 = 128;

fn reply_time(rng: &mut StdRng) -> Arc<dyn ReplyTimeDistribution> {
    let family = rng.gen_range(0..6u32);
    reply_time_of(family, rng)
}

/// A reply time of one family: exponential, deterministic, uniform,
/// Weibull, empirical, or a mixture.
fn reply_time_of(family: u32, rng: &mut StdRng) -> Arc<dyn ReplyTimeDistribution> {
    match family {
        0 => Arc::new(
            DefectiveExponential::from_loss(
                rng.gen_range(0.0..0.5),
                rng.gen_range(0.1..50.0),
                rng.gen_range(0.0..5.0),
            )
            .unwrap(),
        ),
        1 => Arc::new(
            DefectiveDeterministic::new(rng.gen_range(0.5..1.0), rng.gen_range(0.0..5.0)).unwrap(),
        ),
        2 => {
            let lo = rng.gen_range(0.0..2.0);
            Arc::new(
                DefectiveUniform::new(rng.gen_range(0.5..1.0), lo, lo + rng.gen_range(0.1..5.0))
                    .unwrap(),
            )
        }
        3 => Arc::new(
            DefectiveWeibull::new(
                rng.gen_range(0.5..1.0),
                rng.gen_range(0.5..3.0),
                rng.gen_range(0.1..3.0),
                rng.gen_range(0.0..2.0),
            )
            .unwrap(),
        ),
        4 => {
            // At least one arrival: the first observation always answers.
            let len = rng.gen_range(2..30usize);
            let observations = (0..len)
                .map(|i| (i == 0 || rng.gen_bool(0.8)).then(|| rng.gen_range(0.01..10.0)))
                .collect();
            Arc::new(Empirical::from_observations(observations).unwrap())
        }
        _ => {
            let a: Arc<dyn ReplyTimeDistribution> = Arc::new(
                DefectiveExponential::from_loss(
                    rng.gen_range(0.0..0.5),
                    rng.gen_range(0.1..50.0),
                    rng.gen_range(0.0..5.0),
                )
                .unwrap(),
            );
            let b: Arc<dyn ReplyTimeDistribution> = Arc::new(
                DefectiveDeterministic::new(rng.gen_range(0.5..1.0), rng.gen_range(0.0..5.0))
                    .unwrap(),
            );
            let w = rng.gen_range(0.1..0.9);
            Arc::new(Mixture::new(vec![(w, a), (1.0 - w, b)]).unwrap())
        }
    }
}

fn occupancy(rng: &mut StdRng) -> f64 {
    rng.gen_range(1e-6..0.999)
}

/// A probe cost: often zero, sometimes so large that every cost with
/// two or more probes overflows to `+∞`.
fn probe_cost(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => 0.0,
        1 => rng.gen_range(1e300..f64::MAX),
        _ => rng.gen_range(0.0..100.0),
    }
}

/// A collision cost: often zero, sometimes large enough for the
/// collision penalty to overflow the numerator.
fn error_cost(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => 0.0,
        1 => rng.gen_range(1e300..f64::MAX),
        _ => rng.gen_range(0.0..1e36),
    }
}

fn scenario(rng: &mut StdRng) -> Scenario {
    scenario_with(rng, reply_time)
}

fn scenario_with(
    rng: &mut StdRng,
    reply_time: impl FnOnce(&mut StdRng) -> Arc<dyn ReplyTimeDistribution>,
) -> Scenario {
    Scenario::builder()
        .occupancy(occupancy(rng))
        .probe_cost(rng.gen_range(0.0..100.0))
        .error_cost(rng.gen_range(0.0..1e36))
        .reply_time(reply_time(rng))
        .build()
        .unwrap()
}

fn listening_period(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => f64::MIN_POSITIVE,
        2 => rng.gen_range(1e-12..1e-6),
        3 => rng.gen_range(0.0..60.0),
        _ => rng.gen_range(60.0..1e4),
    }
}

fn listening_periods(rng: &mut StdRng, len: Range<usize>) -> Vec<f64> {
    let len = rng.gen_range(len);
    (0..len).map(|_| listening_period(rng)).collect()
}

/// Fisher–Yates with the seeded generator.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

#[test]
fn reconstruction_matches_closed_forms_bitwise() {
    for_each_seed(0..CASES, |rng| {
        let scenario = scenario(rng);
        let n_max = rng.gen_range(1..97u32);
        let rs = listening_periods(rng, 1..8);
        let landscape = ParamLandscape::build(&scenario, n_max, &rs).unwrap();
        let factors = ScenarioFactors::new(&scenario);
        for (j, &r) in rs.iter().enumerate() {
            for n in 1..=n_max {
                let direct = cost::mean_cost(&scenario, n, r).unwrap();
                let rebuilt = landscape.cost_at(&factors, j, n);
                assert_eq!(
                    rebuilt.to_bits(),
                    direct.to_bits(),
                    "C(n = {n}, r = {r}) diverges: reconstructed {rebuilt} vs direct {direct}"
                );
                let direct_err = cost::error_probability(&scenario, n, r).unwrap();
                let rebuilt_err = landscape.error_at(&factors, j, n);
                assert_eq!(
                    rebuilt_err.to_bits(),
                    direct_err.to_bits(),
                    "Err(n = {n}, r = {r}) diverges: reconstructed {rebuilt_err} vs direct \
                     {direct_err}"
                );
            }
        }
    });
}

#[test]
fn reparameterization_matches_fresh_evaluation_bitwise() {
    for_each_seed(0..CASES, |rng| {
        let scenario = scenario(rng);
        let n_max = rng.gen_range(1..49u32);
        let rs = listening_periods(rng, 1..6);
        let landscape = ParamLandscape::build(&scenario, n_max, &rs).unwrap();
        let varied = scenario
            .with_occupancy(occupancy(rng))
            .unwrap()
            .with_probe_cost(rng.gen_range(0.0..100.0))
            .unwrap()
            .with_error_cost(rng.gen_range(0.0..1e36))
            .unwrap();
        let factors = ScenarioFactors::new(&varied);
        for (j, &r) in rs.iter().enumerate() {
            for n in 1..=n_max {
                let direct = cost::mean_cost(&varied, n, r).unwrap();
                assert_eq!(
                    landscape.cost_at(&factors, j, n).to_bits(),
                    direct.to_bits(),
                    "C(n = {n}, r = {r})"
                );
                let direct_err = cost::error_probability(&varied, n, r).unwrap();
                assert_eq!(
                    landscape.error_at(&factors, j, n).to_bits(),
                    direct_err.to_bits(),
                    "Err(n = {n}, r = {r})"
                );
            }
        }
    });
}

/// π-tables built into buffers that already hold something, NaN or a
/// stale table of another distribution and `r`, match `cost::pi_table`
/// bit for bit on every backend: the builder writes every entry, the
/// zero tail included. Each seed runs every family at `n_max` on both
/// sides of a probe-round chunk (8) and of an engine sweep chunk (64),
/// with `r = 0` in every block.
#[test]
fn pi_tables_built_over_stale_buffers_match_pi_table_bitwise() {
    for_each_seed(0..CASES / 4, |rng| {
        for family in 0..6 {
            let family_scenario = scenario_with(rng, |rng| reply_time_of(family, rng));
            for n_max in [1, 7, 8, 9, 64, 65, 200] {
                let mut rs = listening_periods(rng, 0..12);
                rs.push(0.0);
                shuffle(rng, &mut rs);
                let other = scenario(rng);
                let stale: Vec<Vec<f64>> = rs
                    .iter()
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            vec![f64::NAN; n_max as usize + 1]
                        } else {
                            cost::pi_table(&other, n_max, listening_period(rng)).unwrap()
                        }
                    })
                    .collect();
                for backend in backends() {
                    let mut tables = stale.clone();
                    let mut buffers: Vec<&mut [f64]> =
                        tables.iter_mut().map(Vec::as_mut_slice).collect();
                    ColumnBlockKernel::with_backend(&family_scenario, backend, Mode::Exact)
                        .pi_tables_into(n_max, &rs, &mut buffers)
                        .unwrap();
                    for (&r, table) in rs.iter().zip(&tables) {
                        let reference = cost::pi_table(&family_scenario, n_max, r).unwrap();
                        for (i, (a, b)) in table.iter().zip(&reference).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{backend:?}, family {family}, n_max {n_max}: π_{i}(r = {r}) \
                                 is {a}, not {b}"
                            );
                        }
                    }
                }
            }
        }
    });
}

/// The fused statistic build gives the bits of `statistic_rows` over
/// `pi_tables`, cell for cell, on every backend and for all six
/// families: `n_max` from 1 to 256 (every seed draws one, beside the
/// edges of a probe-round chunk and of an engine sweep chunk), blocks of
/// 1–17 and 64 columns written at a `row_stride` wider than the block
/// into NaN-filled slabs, on grids with repeated `r`, `±0`, and `r` near
/// 0 and next to the subnormals. The slabs' columns past the block stay
/// NaN, and a `-0.0` column matches the tables built at `0.0`.
#[test]
fn fused_statistic_rows_match_statistic_rows_over_pi_tables_bitwise() {
    for_each_seed(0..CASES / 4, |rng| {
        for family in 0..6 {
            let family_scenario = scenario_with(rng, |rng| reply_time_of(family, rng));
            let scalar = ColumnBlockKernel::new(&family_scenario);
            let drawn = rng.gen_range(1..257u32);
            for n_max in [1, 8, 9, 64, 65, 256, drawn] {
                let width = if rng.gen_bool(0.25) {
                    64
                } else {
                    rng.gen_range(1..18usize)
                };
                let mut rs = listening_periods(rng, width - 1..width);
                rs.push([0.0, -0.0, f64::MIN_POSITIVE][rng.gen_range(0..3usize)]);
                if width > 2 {
                    rs[0] = rs[rng.gen_range(1..width)];
                }
                shuffle(rng, &mut rs);
                let row_stride = width + rng.gen_range(1..5usize);
                let len = n_max as usize * row_stride;
                // The engine's cache builds a `-0.0` column's table at
                // `0.0`, so the oracle does too.
                let canonical: Vec<f64> =
                    rs.iter().map(|&r| if r == 0.0 { 0.0 } else { r }).collect();
                let tables = scalar.pi_tables(n_max, &canonical).unwrap();
                let (mut want_prefix, mut want_n) = (vec![f64::NAN; len], vec![f64::NAN; len]);
                scalar
                    .statistic_rows(
                        n_max,
                        &rs,
                        &tables,
                        row_stride,
                        &mut want_prefix,
                        &mut want_n,
                    )
                    .unwrap();
                for backend in backends() {
                    let (mut prefix, mut pi_n) = (vec![f64::NAN; len], vec![f64::NAN; len]);
                    ColumnBlockKernel::with_backend(&family_scenario, backend, Mode::Exact)
                        .fused_statistic_rows(n_max, &rs, row_stride, &mut prefix, &mut pi_n)
                        .unwrap();
                    for at in 0..len {
                        let (j, n) = (at % row_stride, at / row_stride + 1);
                        let what = format!(
                            "{backend:?}, family {family}, n_max {n_max}, width {width}: \
                             cell (r_index = {j}, n = {n})"
                        );
                        assert_eq!(
                            (prefix[at].to_bits(), pi_n[at].to_bits()),
                            (want_prefix[at].to_bits(), want_n[at].to_bits()),
                            "{what}"
                        );
                        assert_eq!(j >= width, prefix[at].is_nan(), "{what}");
                    }
                }
            }
        }
    });
}

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

/// A shuffled `r` list with forced ties: some values repeat, so whole
/// columns (and, on a built landscape, their costs) are duplicated. Rows
/// run up to 139 columns, so the row filter meets many full lane chunks
/// and every remainder; now and then a row is exactly one AVX-512 chunk
/// (8), one engine sweep chunk (64) or one column past it (65).
fn selection_grid(rng: &mut StdRng) -> Vec<f64> {
    let columns = if rng.gen_bool(0.125) {
        [8, 64, 65][rng.gen_range(0..3usize)]
    } else {
        rng.gen_range(1..140usize)
    };
    let twins = rng.gen_range(0..4usize).min(columns - 1);
    let mut rs = listening_periods(rng, columns - twins..columns - twins + 1);
    for _ in 0..twins {
        let twin = rs[rng.gen_range(0..rs.len())];
        rs.push(twin);
    }
    shuffle(rng, &mut rs);
    rs
}

/// A statistic landscape straight from π-shaped slabs: each column's
/// `π_n` falls from 1 by random factors, often into an exact-zero tail,
/// and now and then a cell is NaN — so some cells cost NaN while their
/// neighbours stay finite.
fn synthetic_landscape(rng: &mut StdRng, n_max: u32, rs: Vec<f64>) -> ParamLandscape {
    let (n, columns) = (n_max as usize, rs.len());
    let mut pi_prefix = vec![0.0; columns * n];
    let mut pi_n = vec![0.0; columns * n];
    for j in 0..columns {
        let mut pi = 1.0f64;
        let mut prefix = 0.0f64;
        for k in 0..n {
            prefix += pi;
            pi = if rng.gen_bool(0.1) {
                0.0
            } else {
                pi * rng.gen_range(0.0..1.0)
            };
            pi_prefix[k * columns + j] = prefix;
            pi_n[k * columns + j] = pi;
        }
    }
    if rng.gen_bool(0.5) {
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..pi_n.len());
            if rng.gen_bool(0.5) {
                pi_n[at] = f64::NAN;
            } else {
                pi_prefix[at] = f64::NAN;
            }
        }
    }
    ParamLandscape::from_parts(n_max, rs, pi_prefix, pi_n)
}

/// Economics for the selection property: re-parameterized scenarios
/// (zero, ordinary and overflowing `c` and `E`), or hand-built factors
/// at the ends of the model's domain (`q` of exactly 0 or 1, `E = +∞`).
fn selection_factors(rng: &mut StdRng, scenario: &Scenario) -> ScenarioFactors {
    if rng.gen_bool(0.8) {
        let varied = scenario
            .with_occupancy(occupancy(rng))
            .unwrap()
            .with_probe_cost(probe_cost(rng))
            .unwrap()
            .with_error_cost(error_cost(rng))
            .unwrap();
        return ScenarioFactors::new(&varied);
    }
    let q = if rng.gen_bool(0.5) { 0.0 } else { 1.0 };
    let e = if rng.gen_bool(0.5) {
        f64::INFINITY
    } else {
        error_cost(rng)
    };
    ScenarioFactors {
        q,
        one_minus_q: 1.0 - q,
        q_error_cost: q * e,
        probe_cost: probe_cost(rng),
        error_cost: e,
    }
}

#[test]
fn grid_scan_selection_matches_the_scalar_oracle() {
    for_each_seed(0..CASES, |rng| {
        let scenario = scenario(rng);
        let n_max = rng.gen_range(1..41u32);
        let rs = selection_grid(rng);
        let landscape = if rng.gen_bool(0.5) {
            ParamLandscape::build(&scenario, n_max, &rs).unwrap()
        } else {
            synthetic_landscape(rng, n_max, rs)
        };
        let columns = landscape.r_values().len();
        for _ in 0..4 {
            let factors = selection_factors(rng, &scenario);
            let want = landscape.min_cost_cell(&factors);
            let random_cell = (rng.gen_range(0..columns), rng.gen_range(1..n_max + 1));
            let not_finite: Vec<(usize, u32)> = (0..columns)
                .flat_map(|j| (1..=n_max).map(move |n| (j, n)))
                .filter(|&(j, n)| !landscape.cost_at(&factors, j, n).is_finite())
                .collect();
            let mut hints = vec![None, Some(random_cell)];
            hints.extend(want.map(|(j, n, _, _)| Some((j, n))));
            if !not_finite.is_empty() {
                hints.push(Some(not_finite[rng.gen_range(0..not_finite.len())]));
            }
            for backend in backends() {
                let context = format!(
                    "{backend:?} n_max={n_max} r={:?} q={} c={} E={}",
                    landscape.r_values(),
                    factors.q,
                    factors.probe_cost,
                    factors.error_cost
                );
                assert_same_selection(
                    &format!("{context} unhinted"),
                    want,
                    landscape.min_cost_cell_with(&factors, backend),
                );
                for &hint in &hints {
                    assert_same_selection(
                        &format!("{context} hint={hint:?}"),
                        want,
                        landscape.min_cost_cell_near(&factors, backend, hint),
                    );
                }
            }
        }
    });
}

fn assert_same_selection(
    context: &str,
    want: Option<(usize, u32, f64, f64)>,
    got: Option<(usize, u32, f64, f64)>,
) {
    match (want, got) {
        (None, None) => {}
        (Some((wj, wn, wc, we)), Some((j, n, c, e))) => {
            assert_eq!((wj, wn), (j, n), "{context}: selected cell");
            assert_eq!(wc.to_bits(), c.to_bits(), "{context}: cost bits");
            assert_eq!(we.to_bits(), e.to_bits(), "{context}: error bits");
        }
        other => panic!("{context}: selection diverged: {other:?}"),
    }
}
