//! Seeded property tests of the single-pass column program.
//!
//! [`ColumnBlockKernel`] claims to reproduce the per-`n`
//! `mean_cost_from_pis` / `error_probability_from_pis` closed forms
//! *float for float* — same operations, same association order, no
//! tolerance — on every backend. These properties stress that claim
//! across random scenarios, `n_max` up to 256, listening periods that
//! include the `r = 0` boundary and subnormal-adjacent values, π-tables
//! cached for larger grids, and blocks of width 1 (a single column) and
//! 2 to 17 (full 4- and 8-lane chunks plus every remainder).
//!
//! Each property runs through `zeroconf_rng::for_each_seed` on seeds
//! `0..CASES`; a failure prints the seed that produced it, and passing
//! `seed..seed + 1` in place of `0..CASES` replays that case alone.

use std::sync::Arc;

use zeroconf_cost::kernel::{Backend, ColumnBlockKernel, Mode};
use zeroconf_cost::{cost, Scenario};
use zeroconf_dist::DefectiveExponential;
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{for_each_seed, Rng};

const CASES: u64 = 128;

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

/// Occupancy strictly inside (0, 1); costs non-negative and finite;
/// reply-time loss/rate/delay across the regimes the paper sweeps.
fn scenario(rng: &mut StdRng) -> Scenario {
    let dist = DefectiveExponential::from_loss(
        rng.gen_range(0.0..0.5),
        rng.gen_range(0.1..50.0),
        rng.gen_range(0.0..5.0),
    )
    .unwrap();
    Scenario::builder()
        .occupancy(rng.gen_range(1e-6..0.999))
        .probe_cost(rng.gen_range(0.0..100.0))
        .error_cost(rng.gen_range(0.0..1e36))
        .reply_time(Arc::new(dist))
        .build()
        .unwrap()
}

fn listening_period(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..7u32) {
        // The r = 0 boundary and subnormal-adjacent values: the pass
        // must take the same denormal-handling path as the closed form.
        0 => 0.0,
        1 => f64::MIN_POSITIVE,
        2 => f64::MIN_POSITIVE * 4.0,
        3 => 5e-324,
        4 => rng.gen_range(1e-12..1e-6),
        5 => rng.gen_range(0.0..60.0),
        _ => rng.gen_range(60.0..1e4),
    }
}

/// Evaluates `tables` as one block on `backend` and checks every cell's
/// cost and error bits against the per-`n` closed forms over the same
/// table.
fn assert_block_matches_closed_forms<T: AsRef<[f64]>>(
    scenario: &Scenario,
    backend: Backend,
    n_max: u32,
    rs: &[f64],
    tables: &[T],
) {
    let cells = rs.len() * n_max as usize;
    let mut costs = vec![0.0f64; cells];
    let mut errors = vec![0.0f64; cells];
    ColumnBlockKernel::with_backend(scenario, backend, Mode::Exact)
        .evaluate(n_max, rs, tables, Some(&mut costs), Some(&mut errors))
        .unwrap();
    for (j, (&r, table)) in rs.iter().zip(tables).enumerate() {
        let pis = table.as_ref();
        for n in 1..=n_max {
            let at = j * n_max as usize + (n as usize - 1);
            let direct_cost = cost::mean_cost_from_pis(scenario, n, r, pis).unwrap();
            let direct_error = cost::error_probability_from_pis(scenario, n, pis).unwrap();
            assert_eq!(
                costs[at].to_bits(),
                direct_cost.to_bits(),
                "{backend:?} width {}: C(n = {n}, r = {r}) diverges: kernel {} vs direct \
                 {direct_cost}",
                rs.len(),
                costs[at]
            );
            assert_eq!(
                errors[at].to_bits(),
                direct_error.to_bits(),
                "{backend:?} width {}: E(n = {n}, r = {r}) diverges: kernel {} vs direct \
                 {direct_error}",
                rs.len(),
                errors[at]
            );
        }
    }
}

#[test]
fn kernel_matches_per_n_closed_forms_bitwise() {
    for_each_seed(0..CASES, |rng| {
        let scenario = scenario(rng);
        let n_max = rng.gen_range(1..257u32);
        let r = listening_period(rng);
        let pis = cost::pi_table(&scenario, n_max, r).unwrap();
        for backend in backends() {
            assert_block_matches_closed_forms(&scenario, backend, n_max, &[r], &[&pis]);
        }
    });
}

#[test]
fn kernel_accepts_oversized_cached_tables() {
    for_each_seed(0..CASES, |rng| {
        // A cached π-table computed for a larger sweep must evaluate the
        // smaller column to the same bits as an exact-size table: the
        // prefix sum only ever reads the first n_max + 1 entries.
        let scenario = scenario(rng);
        let n_max = rng.gen_range(1..129u32);
        let extra = rng.gen_range(0..65u32);
        let r = listening_period(rng);
        let exact = cost::pi_table(&scenario, n_max, r).unwrap();
        let oversized = cost::pi_table(&scenario, n_max + extra, r).unwrap();
        for backend in backends() {
            let kernel = ColumnBlockKernel::with_backend(&scenario, backend, Mode::Exact);
            let mut from_exact = vec![0.0f64; n_max as usize];
            let mut from_oversized = vec![0.0f64; n_max as usize];
            kernel
                .evaluate(n_max, &[r], &[&exact], Some(&mut from_exact), None)
                .unwrap();
            kernel
                .evaluate(n_max, &[r], &[&oversized], Some(&mut from_oversized), None)
                .unwrap();
            for (a, b) in from_exact.iter().zip(&from_oversized) {
                assert_eq!(a.to_bits(), b.to_bits(), "{backend:?} r = {r}");
            }
            assert_block_matches_closed_forms(&scenario, backend, n_max, &[r], &[&oversized]);
        }
    });
}

#[test]
fn block_kernel_matches_per_column_paths_bitwise() {
    for_each_seed(0..CASES, |rng| {
        // The blocked batch path — batched π-tables (with the zero-tail
        // cutoff) plus the r-major block evaluation — must reproduce the
        // per-column `pi_table` + per-`n` closed forms float for float,
        // at every width up to two full 8-lane chunks plus one.
        let scenario = scenario(rng);
        let n_max = rng.gen_range(1..97u32);
        let width = rng.gen_range(1..18usize);
        let rs: Vec<f64> = (0..width).map(|_| listening_period(rng)).collect();
        for backend in backends() {
            let block = ColumnBlockKernel::with_backend(&scenario, backend, Mode::Exact);
            let tables = block.pi_tables(n_max, &rs).unwrap();
            for (j, &r) in rs.iter().enumerate() {
                let reference = cost::pi_table(&scenario, n_max, r).unwrap();
                assert_eq!(tables[j].len(), reference.len());
                for (i, (a, b)) in tables[j].iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{backend:?}: pi[{i}](r = {r}) diverges: block {a} vs reference {b}"
                    );
                }
            }
            assert_block_matches_closed_forms(&scenario, backend, n_max, &rs, &tables);
        }
    });
}
