//! Seeded property tests of the linear-algebra substrate.
//!
//! Random strictly diagonally dominant matrices — always nonsingular,
//! like the `(I − P′)` systems the Markov analyses solve — are checked
//! for small LU residuals.
//!
//! Each property runs through `zeroconf_rng::for_each_seed` on seeds
//! `0..CASES`; a failure prints the seed that produced it, and passing
//! `seed..seed + 1` in place of `0..CASES` replays that case alone.

use zeroconf_linalg::{LuDecomposition, Matrix};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{for_each_seed, Rng};

const CASES: u64 = 128;

/// An `n × n` strictly diagonally dominant matrix with entries in
/// `[-1, 1)` off the diagonal. These are always nonsingular and keep LU
/// well behaved.
fn dominant_matrix(rng: &mut StdRng, n: usize) -> Matrix {
    let vals = vector_in(rng, n * n, -1.0, 1.0);
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        let mut off = 0.0;
        for c in 0..n {
            if r != c {
                let v = vals[r * n + c];
                m[(r, c)] = v;
                off += v.abs();
            }
        }
        m[(r, r)] = off + 1.0 + vals[r * n + r].abs();
    }
    m
}

fn vector_in(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

fn vector(rng: &mut StdRng, n: usize) -> Vec<f64> {
    vector_in(rng, n, -10.0, 10.0)
}

fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|r| (0..x.len()).map(|c| a[(r, c)] * x[c]).sum())
        .collect()
}

#[test]
fn lu_solve_has_small_residual() {
    for_each_seed(0..CASES, |rng| {
        let a = dominant_matrix(rng, 6);
        let b = vector(rng, 6);
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let ax = matvec(&a, &x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-8, "{l} vs {r}");
        }
    });
}
