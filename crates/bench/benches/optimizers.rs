//! Ablation: optimizer choice for `r_opt` — golden section against the
//! grid-then-refine strategy the cost optimizer actually uses.
//!
//! The objective is the real `C_4(r)` of the Figure-2 scenario, so the
//! numbers reflect the reproduction's actual workload (one such
//! minimization per `(n, E, c)` probe inside the Section 4.5 calibration).

use zeroconf_bench::harness::{black_box, criterion_group, criterion_main, Criterion};
use zeroconf_cost::paper;
use zeroconf_numopt::{golden_section_min, grid_refine_min, Tolerance};

fn bench(c: &mut Criterion) {
    let scenario = paper::figure2_scenario().expect("paper scenario builds");
    let objective = |r: f64| scenario.mean_cost(4, r).unwrap_or(f64::NAN);
    let tolerance = Tolerance::default();

    let mut group = c.benchmark_group("r_opt_of_c4");
    group.bench_function("golden_section", |b| {
        b.iter(|| {
            golden_section_min(objective, black_box(0.0), black_box(60.0), tolerance).unwrap()
        })
    });
    group.bench_function("grid_refine_100", |b| {
        b.iter(|| {
            grid_refine_min(objective, black_box(0.0), black_box(60.0), 100, tolerance).unwrap()
        })
    });
    group.bench_function("grid_refine_500", |b| {
        b.iter(|| {
            grid_refine_min(objective, black_box(0.0), black_box(60.0), 500, tolerance).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
