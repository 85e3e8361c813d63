//! Cross-backend parity for the column kernel and the parametric layer.
//!
//! The contract: every SIMD tier the host supports computes
//! `to_bits`-identical results to the scalar reference program —
//! π-tables, the blocked cost/error pass with statistic capture, and the
//! `min_cost_cell` selection — and rejects bad input the same way,
//! before writing anything. Grid extents run `1..=17` (full 4- and
//! 8-lane chunks plus every remainder), across all six reply-time
//! families.

use std::sync::Arc;

use zeroconf_cost::kernel::{Backend, ColumnBlockKernel, Mode, ScenarioFactors};
use zeroconf_cost::param::ParamLandscape;
use zeroconf_cost::{CostError, Scenario};
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

/// An r-grid of `len` columns including the `r = 0` boundary.
fn r_grid(len: usize) -> Vec<f64> {
    (0..len).map(|j| 0.45 * j as f64).collect()
}

fn assert_bits_eq(context: &str, expected: &[f64], got: &[f64]) {
    assert_eq!(expected.len(), got.len(), "{context}: lengths differ");
    for (k, (e, g)) in expected.iter().zip(got).enumerate() {
        assert!(
            e.to_bits() == g.to_bits(),
            "{context}, element {k}: expected {e:?} ({:#018x}), got {g:?} ({:#018x})",
            e.to_bits(),
            g.to_bits()
        );
    }
}

/// The block widths and probe counts of the parity sweep: lane
/// remainders along *both* axes — probe counts (the per-column loop
/// length) and columns (the lane dimension of the column-parallel block
/// pass; widths up to 2·8+1 cover full 4- and 8-lane chunks plus every
/// remainder) — and a single column (width 1, at `r = 1.3`) for every
/// `n_max` in `1..=17`.
fn parity_cases() -> Vec<(u32, Vec<f64>)> {
    let blocks = [
        (1u32, 5usize),
        (3, 17),
        (4, 9),
        (5, 1),
        (8, 8),
        (9, 4),
        (16, 17),
        (17, 12),
    ]
    .into_iter()
    .map(|(n_max, width)| (n_max, r_grid(width)));
    let columns = (1..=17u32).map(|n_max| (n_max, vec![1.3]));
    blocks.chain(columns).collect()
}

/// The full blocked kernel — π-table build plus the cost/error pass and
/// the sufficient-statistic slabs — is bit-identical to the scalar
/// construction on every backend, at every extent of [`parity_cases`].
#[test]
fn blocked_kernel_exact_mode_is_bit_identical_across_backends() {
    for (name, scenario) in scenarios() {
        let scalar = ColumnBlockKernel::new(&scenario);
        for backend in backends() {
            let kernel = ColumnBlockKernel::with_backend(&scenario, backend, Mode::Exact);
            for (n_max, rs) in parity_cases() {
                let width = rs.len();
                let cells = n_max as usize * width;
                let tables = scalar.pi_tables(n_max, &rs).unwrap();
                let simd_tables = kernel.pi_tables(n_max, &rs).unwrap();
                for (j, (t, s)) in tables.iter().zip(&simd_tables).enumerate() {
                    assert_bits_eq(&format!("{name} {backend:?} π column {j}"), t, s);
                }
                let slab = kernel.pi_table_block(n_max, &rs).unwrap();
                for (j, t) in tables.iter().enumerate() {
                    assert_bits_eq(
                        &format!("{name} {backend:?} slab π column {j}"),
                        t,
                        slab.column(j),
                    );
                }
                let mut want = BlockOutputs::new(cells);
                scalar
                    .evaluate_with_statistic(
                        n_max,
                        &rs,
                        &tables,
                        Some(&mut want.costs),
                        Some(&mut want.errors),
                        Some(&mut want.pi_prefix),
                        Some(&mut want.pi_n),
                    )
                    .unwrap();
                let mut got = BlockOutputs::new(cells);
                kernel
                    .evaluate_with_statistic(
                        n_max,
                        &rs,
                        &simd_tables,
                        Some(&mut got.costs),
                        Some(&mut got.errors),
                        Some(&mut got.pi_prefix),
                        Some(&mut got.pi_n),
                    )
                    .unwrap();
                let context = format!("{name} {backend:?} n_max={n_max} width={width}");
                assert_bits_eq(&format!("{context} costs"), &want.costs, &got.costs);
                assert_bits_eq(&format!("{context} errors"), &want.errors, &got.errors);
                assert_bits_eq(
                    &format!("{context} π-prefix"),
                    &want.pi_prefix,
                    &got.pi_prefix,
                );
                assert_bits_eq(&format!("{context} π_n"), &want.pi_n, &got.pi_n);
            }
        }
    }
}

/// The fused statistic build (rows straight from the π build's running
/// products) is bit-identical on every backend to the scalar
/// `statistic_rows` over scalar π-tables, at every extent of
/// [`parity_cases`] and on a 64-column block, written at a `row_stride`
/// three columns wider than the block into NaN-filled slabs; the columns
/// past the block stay NaN.
#[test]
fn fused_statistic_rows_are_bit_identical_across_backends() {
    let cases = parity_cases()
        .into_iter()
        .chain([(64, r_grid(64)), (200, r_grid(64))]);
    for (n_max, rs) in cases {
        let width = rs.len();
        let row_stride = width + 3;
        let len = n_max as usize * row_stride;
        for (name, scenario) in scenarios() {
            let scalar = ColumnBlockKernel::new(&scenario);
            let tables = scalar.pi_tables(n_max, &rs).unwrap();
            let mut want = BlockOutputs::filled(len, f64::NAN);
            scalar
                .statistic_rows(
                    n_max,
                    &rs,
                    &tables,
                    row_stride,
                    &mut want.pi_prefix,
                    &mut want.pi_n,
                )
                .unwrap();
            for backend in backends() {
                let mut got = BlockOutputs::filled(len, f64::NAN);
                ColumnBlockKernel::with_backend(&scenario, backend, Mode::Exact)
                    .fused_statistic_rows(n_max, &rs, row_stride, &mut got.pi_prefix, &mut got.pi_n)
                    .unwrap();
                let context = format!("{name} {backend:?} n_max={n_max} width={width} fused");
                assert_bits_eq(
                    &format!("{context} π-prefix"),
                    &want.pi_prefix,
                    &got.pi_prefix,
                );
                assert_bits_eq(&format!("{context} π_n"), &want.pi_n, &got.pi_n);
                for (at, x) in got.pi_prefix.iter().enumerate() {
                    assert_eq!(at % row_stride >= width, x.is_nan(), "{context}: {at}");
                }
            }
        }
    }
}

/// The four output slabs of the blocked statistic pass: costs and errors
/// r-major, the statistic n-major.
struct BlockOutputs {
    costs: Vec<f64>,
    errors: Vec<f64>,
    pi_prefix: Vec<f64>,
    pi_n: Vec<f64>,
}

impl BlockOutputs {
    fn new(cells: usize) -> BlockOutputs {
        BlockOutputs::filled(cells, 0.0)
    }

    fn filled(cells: usize, value: f64) -> BlockOutputs {
        BlockOutputs {
            costs: vec![value; cells],
            errors: vec![value; cells],
            pi_prefix: vec![value; cells],
            pi_n: vec![value; cells],
        }
    }
}

/// The min-cost selection dispatch matches the scalar `min_cost_cell`
/// oracle exactly on every backend, including under re-parameterized
/// economics.
#[test]
fn param_layer_selection_is_backend_invariant() {
    let economies = [
        (0.05f64, 3.5f64, 5e20f64),
        (0.4, 0.5, 1e35),
        (0.9, 0.0, 0.0),
    ];
    for (name, scenario) in scenarios() {
        for n_max in [1u32, 4, 7, 16, 17] {
            let rs = r_grid(9);
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
                let want_cell = landscape.min_cost_cell(&factors);
                for backend in backends() {
                    let context = format!("{name} {backend:?} n_max={n_max} q={q} c={c} E={e}");
                    let cell = landscape.min_cost_cell_with(&factors, backend);
                    match (want_cell, cell) {
                        (None, None) => {}
                        (Some((wj, wn, wc, we)), Some((j, n, cost, err))) => {
                            assert_eq!((wj, wn), (j, n), "{context} selected cell");
                            assert_eq!(wc.to_bits(), cost.to_bits(), "{context} cost bits");
                            assert_eq!(we.to_bits(), err.to_bits(), "{context} error bits");
                        }
                        other => panic!("{context}: selection diverged: {other:?}"),
                    }
                }
            }
        }
    }
}

/// Bad input is rejected the same way on every backend, and before
/// anything is written: an empty block at `n_max = 0`, a negative `r` in
/// the middle of a block, and a short table late in a block each return
/// their error with every output slab still holding its sentinel bits.
#[test]
fn block_validation_is_backend_independent_and_writes_nothing() {
    let (_, scenario) = &scenarios()[0];
    let n_max = 6u32;
    let rs = r_grid(9);
    let tables = ColumnBlockKernel::new(scenario)
        .pi_tables(n_max, &rs)
        .unwrap();
    let mut negative_rs = rs.clone();
    negative_rs[2] = -0.5;
    let mut short_tables = tables.clone();
    short_tables[8].truncate(n_max as usize);
    for backend in backends() {
        let kernel = ColumnBlockKernel::with_backend(scenario, backend, Mode::Exact);
        assert_rejected_before_writing(
            &format!("{backend:?} empty block at n_max = 0"),
            &kernel,
            0,
            &[],
            &tables[..0],
            CostError::InvalidProbeCount { n: 0 },
        );
        assert_rejected_before_writing(
            &format!("{backend:?} negative r in column 2"),
            &kernel,
            n_max,
            &negative_rs,
            &tables,
            CostError::InvalidListeningPeriod { value: -0.5 },
        );
        assert_rejected_before_writing(
            &format!("{backend:?} short table in column 8"),
            &kernel,
            n_max,
            &rs,
            &short_tables,
            CostError::PiTableTooShort { needed: 7, len: 6 },
        );
    }
}

/// Evaluates a bad block into sentinel-filled slabs and checks that it
/// returns `want` with every slab untouched.
fn assert_rejected_before_writing(
    context: &str,
    kernel: &ColumnBlockKernel,
    n_max: u32,
    rs: &[f64],
    tables: &[Vec<f64>],
    want: CostError,
) {
    const SENTINEL: u64 = 0x7ff8_dead_beef_0001;
    let mut out = BlockOutputs::filled(n_max as usize * rs.len(), f64::from_bits(SENTINEL));
    let result = kernel.evaluate_with_statistic(
        n_max,
        rs,
        tables,
        Some(&mut out.costs),
        Some(&mut out.errors),
        Some(&mut out.pi_prefix),
        Some(&mut out.pi_n),
    );
    assert_eq!(result, Err(want), "{context}");
    for (slab, values) in [
        ("costs", &out.costs),
        ("errors", &out.errors),
        ("π-prefix", &out.pi_prefix),
        ("π_n", &out.pi_n),
    ] {
        for (k, value) in values.iter().enumerate() {
            assert_eq!(
                value.to_bits(),
                SENTINEL,
                "{context}: {slab} cell {k} was written before the error"
            );
        }
    }
}
