//! Seeded property tests for the scalar solvers.
//!
//! Each property runs through `zeroconf_rng::for_each_seed` on seeds
//! `0..CASES`; a failure prints the seed that produced it, and passing
//! `seed..seed + 1` in place of `0..CASES` replays that case alone.

use zeroconf_numopt::{
    brent_root, golden_section_min, grid_refine_min, invert_monotone, Tolerance,
};
use zeroconf_rng::{for_each_seed, Rng};

const CASES: u64 = 256;

#[test]
fn minimizers_locate_shifted_parabola_vertices() {
    for_each_seed(0..CASES, |rng| {
        let vertex = rng.gen_range(-50.0..50.0);
        let scale = rng.gen_range(0.01..100.0);
        let offset = rng.gen_range(-10.0..10.0);
        let f = |x: f64| scale * (x - vertex) * (x - vertex) + offset;
        let (lo, hi) = (vertex - 60.0, vertex + 80.0);
        let tol = Tolerance::default();
        let golden = golden_section_min(f, lo, hi, tol).unwrap();
        assert!((golden.argument - vertex).abs() < 1e-5);
        let grid = grid_refine_min(f, lo, hi, 50, tol).unwrap();
        assert!((grid.argument - vertex).abs() < 1e-5);
        // Values at the located minima agree with the analytic optimum.
        assert!((golden.value - offset).abs() < 1e-6 * scale.max(1.0));
    });
}

#[test]
fn root_finders_agree_on_cubic_roots() {
    for_each_seed(0..CASES, |rng| {
        let root = rng.gen_range(-20.0..20.0);
        let stretch = rng.gen_range(0.1..5.0);
        // f(x) = stretch·(x − root)³ has exactly one real root.
        let f = |x: f64| stretch * (x - root).powi(3);
        let (lo, hi) = (root - 7.0, root + 11.0);
        let tol = Tolerance::default();
        let bre = brent_root(f, lo, hi, tol).unwrap();
        assert!((bre.argument - root).abs() < 1e-4);
    });
}

#[test]
fn inversion_round_trips_monotone_maps() {
    for_each_seed(0..CASES, |rng| {
        let target_x = rng.gen_range(-5.0..5.0);
        let steepness = rng.gen_range(0.2..3.0);
        // g(x) = sinh(s·x) is strictly increasing and unbounded.
        let g = move |x: f64| (steepness * x).sinh();
        let target_y = g(target_x);
        let found = invert_monotone(g, target_y, -0.5, 0.5, true, Tolerance::default()).unwrap();
        assert!(
            (found.argument - target_x).abs() < 1e-6,
            "found {} for target x {}",
            found.argument,
            target_x
        );
    });
}

#[test]
fn grid_refinement_never_loses_to_the_plain_grid() {
    for_each_seed(0..CASES, |rng| {
        let len = rng.gen_range(3..8usize);
        let points: Vec<f64> = (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect();
        // A bumpy objective built from the random points: sum of inverted
        // Gaussian bumps. grid_refine must return a value at least as good
        // as the best of its own grid samples.
        let f = move |x: f64| {
            -points
                .iter()
                .map(|&p| (-(x - p) * (x - p)).exp())
                .sum::<f64>()
        };
        let grid_points = 60;
        let refined = grid_refine_min(&f, -12.0, 12.0, grid_points, Tolerance::default()).unwrap();
        let best_grid_sample = (0..grid_points)
            .map(|k| f(-12.0 + 24.0 * k as f64 / (grid_points - 1) as f64))
            .fold(f64::INFINITY, f64::min);
        assert!(refined.value <= best_grid_sample + 1e-12);
    });
}
