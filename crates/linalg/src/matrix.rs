//! Dense row-major matrices.

use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` entries.
///
/// This type deliberately keeps a small API surface: exactly what the
/// absorbing-chain analysis in `zeroconf-dtmc` and the LU factorization
/// need (construction and element access).
///
/// # Examples
///
/// ```
/// use zeroconf_linalg::Matrix;
///
/// let mut a = Matrix::identity(2);
/// a[(0, 1)] = -0.5;
/// assert_eq!(a.rows(), 2);
/// assert_eq!(a[(0, 1)], -0.5);
/// assert_eq!(a[(1, 1)], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Shape as `(rows, cols)`.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// A view of row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub(crate) fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds for {}", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape_and_zero_entries() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn index_operator_reads_and_writes() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = 9.0;
        assert_eq!(m[(0, 1)], 9.0);
        assert_eq!(m.row(0), &[0.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_operator_panics_out_of_bounds() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(5, 0)];
    }
}
