//! Dense linear algebra for absorbing Markov-chain analysis.
//!
//! The DSN 2003 zeroconf cost paper reduces both its measures of interest —
//! the mean total cost (Eq. 3) and the collision probability (Eq. 4) — to
//! linear systems over the transient part of an absorbing discrete-time
//! Markov chain, citing Stewart's *Introduction to the Numerical Solution of
//! Markov Chains*. This crate provides the numerical substrate for that
//! reduction:
//!
//! - [`Matrix`]: dense row-major matrices, built and indexed entry by entry,
//! - [`LuDecomposition`]: LU factorization with partial pivoting, used to
//!   solve `(I − P′)x = b` and `(I − P′)ᵀx = b` systems exactly (up to
//!   floating point).
//!
//! # Examples
//!
//! Solve a linear system with LU:
//!
//! ```
//! use zeroconf_linalg::{LuDecomposition, Matrix};
//!
//! # fn main() -> Result<(), zeroconf_linalg::LinalgError> {
//! // A = [[4, 1], [1, 3]].
//! let mut a = Matrix::identity(2);
//! a[(0, 0)] = 4.0;
//! a[(0, 1)] = 1.0;
//! a[(1, 0)] = 1.0;
//! a[(1, 1)] = 3.0;
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;
mod lu;
mod matrix;

pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
