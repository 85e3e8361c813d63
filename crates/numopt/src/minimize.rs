//! Derivative-free one-dimensional minimization.

use crate::{NumOptError, Tolerance};

/// A located minimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minimum {
    /// Argument of the minimum.
    pub argument: f64,
    /// Objective value at [`Minimum::argument`].
    pub value: f64,
    /// Objective evaluations spent.
    pub evaluations: usize,
}

const INV_GOLDEN: f64 = 0.618_033_988_749_894_9; // (√5 − 1) / 2

/// Golden-section search for the minimum of a unimodal function on
/// `[lo, hi]`.
///
/// Robust (no interpolation, guaranteed linear convergence). On a
/// non-unimodal function it converges to *some* local minimum.
///
/// # Errors
///
/// - [`NumOptError::InvalidInterval`] when `lo ≥ hi` or bounds are not
///   finite.
/// - [`NumOptError::ObjectiveNaN`] when the objective produces NaN.
///
/// # Examples
///
/// ```
/// use zeroconf_numopt::{golden_section_min, Tolerance};
///
/// # fn main() -> Result<(), zeroconf_numopt::NumOptError> {
/// let m = golden_section_min(|x: f64| x.cosh(), -3.0, 4.0, Tolerance::default())?;
/// assert!(m.argument.abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn golden_section_min(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    tolerance: Tolerance,
) -> Result<Minimum, NumOptError> {
    check_interval(lo, hi)?;
    let mut a = lo;
    let mut b = hi;
    let mut evaluations = 0;
    let mut eval = |x: f64, evaluations: &mut usize| -> Result<f64, NumOptError> {
        *evaluations += 1;
        let v = f(x);
        if v.is_nan() {
            Err(NumOptError::ObjectiveNaN { at: x })
        } else {
            Ok(v)
        }
    };

    let mut x1 = b - INV_GOLDEN * (b - a);
    let mut x2 = a + INV_GOLDEN * (b - a);
    let mut f1 = eval(x1, &mut evaluations)?;
    let mut f2 = eval(x2, &mut evaluations)?;

    for _ in 0..tolerance.max_iterations {
        if (b - a) <= tolerance.at(0.5 * (a + b)) {
            break;
        }
        if f1 <= f2 {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - INV_GOLDEN * (b - a);
            f1 = eval(x1, &mut evaluations)?;
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + INV_GOLDEN * (b - a);
            f2 = eval(x2, &mut evaluations)?;
        }
    }
    let (argument, value) = if f1 <= f2 { (x1, f1) } else { (x2, f2) };
    Ok(Minimum {
        argument,
        value,
        evaluations,
    })
}

/// Global minimization by a coarse grid scan followed by golden-section
/// refinement around the best grid cell.
///
/// This is the workhorse for the zeroconf cost curves: `C_n(r)` is unimodal
/// in practice but the envelope `C_min(r)` and the calibration objectives
/// are not, and a blind golden-section could settle in the wrong valley.
/// `grid_points` controls the scan density.
///
/// # Errors
///
/// - [`NumOptError::InvalidInterval`] / [`NumOptError::ObjectiveNaN`] as in
///   [`golden_section_min`].
/// - [`NumOptError::InvalidConfiguration`] when `grid_points < 3`.
pub fn grid_refine_min(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    grid_points: usize,
    tolerance: Tolerance,
) -> Result<Minimum, NumOptError> {
    check_interval(lo, hi)?;
    if grid_points < 3 {
        return Err(NumOptError::InvalidConfiguration {
            what: "grid_points must be at least 3",
        });
    }
    let step = (hi - lo) / (grid_points - 1) as f64;
    let mut best_index = 0;
    let mut best_value = f64::INFINITY;
    let mut evaluations = 0;
    for k in 0..grid_points {
        let x = lo + k as f64 * step;
        let v = f(x);
        evaluations += 1;
        if v.is_nan() {
            return Err(NumOptError::ObjectiveNaN { at: x });
        }
        if v < best_value {
            best_value = v;
            best_index = k;
        }
    }
    // Refine inside the two cells adjacent to the best grid point.
    let refine_lo = lo + best_index.saturating_sub(1) as f64 * step;
    let refine_hi = (lo + (best_index + 1) as f64 * step).min(hi);
    let refined = golden_section_min(&mut f, refine_lo, refine_hi, tolerance)?;
    let (argument, value) = if refined.value <= best_value {
        (refined.argument, refined.value)
    } else {
        (lo + best_index as f64 * step, best_value)
    };
    Ok(Minimum {
        argument,
        value,
        evaluations: evaluations + refined.evaluations,
    })
}

fn check_interval(lo: f64, hi: f64) -> Result<(), NumOptError> {
    if !lo.is_finite() || !hi.is_finite() || lo >= hi {
        Err(NumOptError::InvalidInterval { lo, hi })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_finds_parabola_vertex() {
        let m = golden_section_min(
            |x| (x - 3.5) * (x - 3.5) + 2.0,
            0.0,
            10.0,
            Tolerance::default(),
        )
        .unwrap();
        assert!((m.argument - 3.5).abs() < 1e-6);
        assert!((m.value - 2.0).abs() < 1e-10);
    }

    #[test]
    fn minimum_at_boundary_is_found() {
        let m = golden_section_min(|x| x, 1.0, 2.0, Tolerance::default()).unwrap();
        assert!((m.argument - 1.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_intervals_are_rejected() {
        let t = Tolerance::default();
        assert!(golden_section_min(|x| x, 2.0, 1.0, t).is_err());
        assert!(grid_refine_min(|x| x, f64::NAN, 1.0, 10, t).is_err());
    }

    #[test]
    fn nan_objective_is_reported() {
        let t = Tolerance::default();
        let err = golden_section_min(|_| f64::NAN, 0.0, 1.0, t).unwrap_err();
        assert!(matches!(err, NumOptError::ObjectiveNaN { .. }));
    }

    #[test]
    fn grid_refine_escapes_local_minimum() {
        // Two valleys: local at x≈1 (value ~1), global at x≈6 (value ~0).
        let f = |x: f64| {
            let a = (x - 1.0) * (x - 1.0) + 1.0;
            let b = 4.0 * (x - 6.0) * (x - 6.0);
            a.min(b)
        };
        let m = grid_refine_min(f, 0.0, 8.0, 40, Tolerance::default()).unwrap();
        assert!((m.argument - 6.0).abs() < 1e-5, "got {}", m.argument);
        // A plain golden-section on the same interval lands in either
        // valley depending on the shape; grid refinement must find the
        // global one.
    }

    #[test]
    fn grid_refine_validates_grid_size() {
        assert!(matches!(
            grid_refine_min(|x| x, 0.0, 1.0, 2, Tolerance::default()),
            Err(NumOptError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn grid_refine_keeps_grid_best_when_refinement_fails_to_improve() {
        // A sawtooth where the grid point itself is the minimum.
        let f = |x: f64| (x * std::f64::consts::PI).sin().abs();
        let m = grid_refine_min(f, 0.0, 4.0, 41, Tolerance::default()).unwrap();
        assert!(m.value < 1e-6);
    }

    #[test]
    fn flat_function_converges_anywhere() {
        let m = golden_section_min(|_| 1.0, 0.0, 1.0, Tolerance::default()).unwrap();
        assert_eq!(m.value, 1.0);
        assert!((0.0..=1.0).contains(&m.argument));
    }
}
