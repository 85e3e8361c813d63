//! Scalar numerical optimization for the zeroconf cost model.
//!
//! The paper computes all of its optima "by numerical means" in Maple
//! (Section 4.2: *"Computing `r_opt` is best done by numerical means … from
//! a numerical point of view this is not particularly challenging"*). This
//! crate is that replacement: derivative-free one-dimensional minimization
//! and root finding, plus the grid-then-refine global search used for the
//! multimodal landscapes of `C_min(r)` and a monotone-inversion helper for
//! the Section 4.5 calibration of `E` and `c`.
//!
//! - [`golden_section_min`] — robust unimodal minimization,
//! - [`grid_refine_min`] — coarse scan + local refinement for functions
//!   with several local minima,
//! - [`brent_root`] — bracketed root finding,
//! - [`invert_monotone`] — solve `g(x) = target` for monotone `g` with
//!   automatic bracket expansion (used to calibrate `E`).
//!
//! # Examples
//!
//! ```
//! use zeroconf_numopt::{golden_section_min, Tolerance};
//!
//! # fn main() -> Result<(), zeroconf_numopt::NumOptError> {
//! let min = golden_section_min(|x| (x - 2.0) * (x - 2.0), 0.0, 5.0, Tolerance::default())?;
//! assert!((min.argument - 2.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;
mod minimize;
mod roots;

pub use error::NumOptError;
pub use minimize::{golden_section_min, grid_refine_min, Minimum};
pub use roots::{brent_root, invert_monotone, Root};

/// Convergence control shared by all methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute tolerance on the argument.
    pub x_abs: f64,
    /// Relative tolerance on the argument.
    pub x_rel: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            x_abs: 1e-10,
            x_rel: 1e-12,
            max_iterations: 500,
        }
    }
}

impl Tolerance {
    /// Effective tolerance around a point `x`.
    pub(crate) fn at(&self, x: f64) -> f64 {
        self.x_abs + self.x_rel * x.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tolerance_is_tight_but_positive() {
        let t = Tolerance::default();
        assert!(t.x_abs > 0.0 && t.x_abs < 1e-6);
        assert!(t.max_iterations >= 100);
    }

    #[test]
    fn tolerance_scales_with_magnitude() {
        let t = Tolerance {
            x_abs: 1e-10,
            x_rel: 1e-6,
            max_iterations: 100,
        };
        assert!(t.at(1e6) > 0.9);
        assert!(t.at(0.0) == 1e-10);
    }
}
