//! Ablation: the single-pass column program versus the per-`n` closed
//! forms it replaced.
//!
//! Both evaluate Eq. (3)/(4) for every `n` of a column from the same
//! precomputed π-tables, over the 200 × 200 Figure-2 sweep the engine
//! bench times. The per-`n` forms (`cost::*_from_pis`) pay an O(n) prefix
//! sum per cell, so a column costs O(n²); the column program carries the
//! prefix sum down the column, O(n). The per-`n` forms stay in the tree as
//! the kernel's oracle, not as a serving path, so their cost is recorded
//! here rather than in `BENCH_engine.json`.

use zeroconf_bench::harness::{black_box, criterion_group, criterion_main, Criterion};
use zeroconf_cost::kernel::ColumnBlockKernel;
use zeroconf_cost::{cost, paper};
use zeroconf_engine::GridSpec;

/// Grid size: 200 probe counts × 200 listening periods = 40 000 cells.
const N_MAX: u32 = 200;
const R_POINTS: usize = 200;

fn bench(c: &mut Criterion) {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    let rs = GridSpec::linspace(N_MAX, 0.1, 30.0, R_POINTS).r_values;
    let tables: Vec<Vec<f64>> = rs
        .iter()
        .map(|&r| cost::pi_table(&scenario, N_MAX, r).expect("pi table computes"))
        .collect();
    let kernel = ColumnBlockKernel::new(&scenario);
    let mut costs = vec![0.0f64; N_MAX as usize];
    let mut errors = vec![0.0f64; N_MAX as usize];
    let mut group = c.benchmark_group("columns");
    group.bench_function("single_pass", |b| {
        b.iter(|| {
            for (r, pis) in rs.iter().zip(&tables) {
                kernel
                    .evaluate(N_MAX, &[*r], &[pis], Some(&mut costs), Some(&mut errors))
                    .expect("kernel evaluates");
            }
            black_box((costs.last().copied(), errors.last().copied()))
        })
    });
    group.bench_function("per_n_closed_forms", |b| {
        b.iter(|| {
            for (r, pis) in rs.iter().zip(&tables) {
                for n in 1..=N_MAX {
                    costs[n as usize - 1] =
                        cost::mean_cost_from_pis(&scenario, n, *r, pis).expect("cost evaluates");
                    errors[n as usize - 1] = cost::error_probability_from_pis(&scenario, n, pis)
                        .expect("error evaluates");
                }
            }
            black_box((costs.last().copied(), errors.last().copied()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
