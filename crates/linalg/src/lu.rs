//! LU factorization with partial pivoting.

use crate::{LinalgError, Matrix};

/// Pivot magnitude below which a matrix is treated as numerically singular.
const SINGULARITY_THRESHOLD: f64 = 1e-300;

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// The factorization is computed once and can then solve any number of
/// right-hand sides, of `A x = b` or of `Aᵀ x = b`. This is the direct solver behind the absorbing-chain analyses: the
/// systems `(I − P′)a = w` (mean total cost, Eq. 2/3 of the paper) and
/// `(I − P′)x = e` (absorption probabilities, Section 5) are both solved
/// through it.
///
/// # Examples
///
/// ```
/// use zeroconf_linalg::{LuDecomposition, Matrix};
///
/// # fn main() -> Result<(), zeroconf_linalg::LinalgError> {
/// // A = [[2, 1], [1, 3]].
/// let mut a = Matrix::identity(2);
/// a[(0, 0)] = 2.0;
/// a[(0, 1)] = 1.0;
/// a[(1, 0)] = 1.0;
/// a[(1, 1)] = 3.0;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// // Verify A x = b.
/// assert!((2.0 * x[0] + x[1] - 3.0).abs() < 1e-12);
/// assert!((x[0] + 3.0 * x[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined storage: `U` on and above the diagonal, the unit-diagonal
    /// `L` strictly below it.
    factors: Matrix,
    /// Row permutation applied to the input (`perm[i]` is the original row
    /// now at position `i`).
    perm: Vec<usize>,
}

impl LuDecomposition {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is rectangular.
    /// - [`LinalgError::Empty`] if `a` has no rows.
    /// - [`LinalgError::NonFiniteEntry`] if `a` contains NaN or infinities.
    /// - [`LinalgError::Singular`] if elimination encounters a vanishing
    ///   pivot.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        for r in 0..n {
            for (c, &v) in a.row(r).iter().enumerate() {
                if !v.is_finite() {
                    return Err(LinalgError::NonFiniteEntry { row: r, col: c });
                }
            }
        }

        let mut f = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: bring the largest |entry| in column k to the
            // diagonal.
            let mut pivot_row = k;
            let mut pivot_mag = f[(k, k)].abs();
            for r in (k + 1)..n {
                let mag = f[(r, k)].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < SINGULARITY_THRESHOLD {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = f[(k, c)];
                    f[(k, c)] = f[(pivot_row, c)];
                    f[(pivot_row, c)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = f[(k, k)];
            for r in (k + 1)..n {
                let m = f[(r, k)] / pivot;
                f[(r, k)] = m;
                if m == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    f[(r, c)] -= m * f[(k, c)];
                }
            }
        }

        Ok(LuDecomposition { factors: f, perm })
    }

    /// Dimension of the factored matrix.
    fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` differs from
    /// the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply the permutation, then forward- and back-substitute.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            let mut acc = x[r];
            for (c, &xc) in x.iter().enumerate().take(r) {
                acc -= self.factors[(r, c)] * xc;
            }
            x[r] = acc;
        }
        for r in (0..n).rev() {
            let mut acc = x[r];
            for (c, &xc) in x.iter().enumerate().skip(r + 1) {
                acc -= self.factors[(r, c)] * xc;
            }
            x[r] = acc / self.factors[(r, r)];
        }
        Ok(x)
    }

    /// Solves the transposed system `Aᵀ x = b` using the same factors:
    /// with `P·A = L·U` we have `Aᵀ = Uᵀ·Lᵀ·P`, so forward-substitute
    /// through `Uᵀ`, back-substitute through `Lᵀ` (unit diagonal), and
    /// undo the permutation.
    ///
    /// Used by the fundamental-matrix queries of absorbing-chain analysis,
    /// where one transposed solve yields the expected visit counts to
    /// *all* states from one start state.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` differs
    /// from the factored dimension.
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu_solve_transposed",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution with Uᵀ (lower triangular, real diagonal).
        let mut y = b.to_vec();
        for r in 0..n {
            let mut acc = y[r];
            for (c, &yc) in y.iter().enumerate().take(r) {
                acc -= self.factors[(c, r)] * yc;
            }
            y[r] = acc / self.factors[(r, r)];
        }
        // Back substitution with Lᵀ (upper triangular, unit diagonal).
        for r in (0..n).rev() {
            let mut acc = y[r];
            for (c, &yc) in y.iter().enumerate().skip(r + 1) {
                acc -= self.factors[(c, r)] * yc;
            }
            y[r] = acc;
        }
        // x = Pᵀ y: entry that row i of PA took came from original row
        // perm[i], so x[perm[i]] = y[i].
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = y[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from its rows (all of one length).
    fn matrix(rows: &[&[f64]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows[0].len());
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    fn transpose(a: &Matrix) -> Matrix {
        let (rows, cols) = a.shape();
        let mut t = Matrix::zeros(cols, rows);
        for r in 0..rows {
            for c in 0..cols {
                t[(c, r)] = a[(r, c)];
            }
        }
        t
    }

    fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|r| a.row(r).iter().zip(x).map(|(l, r)| l * r).sum())
            .collect()
    }

    fn residual_inf(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = matvec(a, x);
        ax.iter()
            .zip(b)
            .fold(0.0f64, |acc, (l, r)| acc.max((l - r).abs()))
    }

    #[test]
    fn solves_simple_system() {
        let a = matrix(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let b = [9.0, 13.0];
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // Leading zero forces a row swap.
        let a = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = matrix(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_rectangular_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_entries() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NonFiniteEntry { row: 0, col: 1 })
        ));
    }

    #[test]
    fn solve_checks_rhs_length() {
        let lu = LuDecomposition::new(&Matrix::identity(2)).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn one_by_one_system() {
        let a = matrix(&[&[5.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert_eq!(lu.solve(&[10.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn transposed_solve_matches_explicit_transpose() {
        let a = matrix(&[&[0.0, 2.0, 1.0], &[3.0, 1.0, 0.5], &[1.0, 0.0, 4.0]]);
        let b = [1.0, -2.0, 3.0];
        let via_factors = LuDecomposition::new(&a)
            .unwrap()
            .solve_transposed(&b)
            .unwrap();
        let via_transpose = LuDecomposition::new(&transpose(&a))
            .unwrap()
            .solve(&b)
            .unwrap();
        for (l, r) in via_factors.iter().zip(&via_transpose) {
            assert!(
                (l - r).abs() < 1e-12,
                "{via_factors:?} vs {via_transpose:?}"
            );
        }
        // And the residual of the transposed system is tiny.
        let atx = matvec(&transpose(&a), &via_factors);
        for (l, r) in atx.iter().zip(&b) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn transposed_solve_checks_rhs_length() {
        let lu = LuDecomposition::new(&Matrix::identity(3)).unwrap();
        assert!(lu.solve_transposed(&[1.0]).is_err());
    }

    #[test]
    fn solves_moderately_large_diagonally_dominant_system() {
        // Deterministic pseudo-random but diagonally dominant matrix: the
        // kind of well-conditioned system the chain analyses produce.
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 0x12345678u64;
        let mut next = move || {
            // xorshift64
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        for r in 0..n {
            let mut off_sum = 0.0;
            for c in 0..n {
                if r != c {
                    let v = next();
                    a[(r, c)] = v;
                    off_sum += v.abs();
                }
            }
            a[(r, r)] = off_sum + 1.0;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) / n as f64).collect();
        let b = matvec(&a, &x_true);
        let x = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let err = x
            .iter()
            .zip(&x_true)
            .fold(0.0f64, |acc, (l, r)| acc.max((l - r).abs()));
        assert!(err < 1e-9, "error {err}");
    }
}
