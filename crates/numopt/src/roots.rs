//! Bracketed root finding and monotone inversion.

use crate::{NumOptError, Tolerance};

/// A located root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    /// Argument where the function crosses zero (to tolerance).
    pub argument: f64,
    /// Residual function value at [`Root::argument`].
    pub residual: f64,
    /// Function evaluations spent.
    pub evaluations: usize,
}

/// Brent's root finding on a bracketing interval `[lo, hi]` with
/// `sign(f(lo)) ≠ sign(f(hi))`: bisection safety with inverse-quadratic /
/// secant acceleration. Superlinear on smooth functions.
///
/// # Errors
///
/// - [`NumOptError::InvalidInterval`] for an unordered/non-finite bracket.
/// - [`NumOptError::NoSignChange`] when both endpoints have the same sign.
/// - [`NumOptError::ObjectiveNaN`] when the function produces NaN.
///
/// # Examples
///
/// ```
/// use zeroconf_numopt::{brent_root, Tolerance};
///
/// # fn main() -> Result<(), zeroconf_numopt::NumOptError> {
/// let root = brent_root(|x| x * x - 2.0, 0.0, 2.0, Tolerance::default())?;
/// assert!((root.argument - 2f64.sqrt()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn brent_root(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    tolerance: Tolerance,
) -> Result<Root, NumOptError> {
    check_interval(lo, hi)?;
    let mut a = lo;
    let mut b = hi;
    let mut fa = checked(&mut f, a)?;
    let mut fb = checked(&mut f, b)?;
    let mut evaluations = 2;
    if fa == 0.0 {
        return Ok(Root {
            argument: a,
            residual: 0.0,
            evaluations,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            argument: b,
            residual: 0.0,
            evaluations,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(NumOptError::NoSignChange { f_lo: fa, f_hi: fb });
    }
    // Keep |f(b)| <= |f(a)|: b is the best iterate.
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = a;

    // `evaluations` counts f-calls, not iterations; the two bracket
    // evaluations above keep the counts distinct.
    #[allow(clippy::explicit_counter_loop)]
    for _ in 0..tolerance.max_iterations {
        if fb == 0.0 || (b - a).abs() <= tolerance.at(b) {
            return Ok(Root {
                argument: b,
                residual: fb,
                evaluations,
            });
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant step.
            b - fb * (b - a) / (fb - fa)
        };
        let between = {
            let left = (3.0 * a + b) / 4.0;
            let (x, y) = if left < b { (left, b) } else { (b, left) };
            s > x && s < y
        };
        let tol = tolerance.at(b);
        if !between
            || (mflag && (s - b).abs() >= (b - c).abs() / 2.0)
            || (!mflag && (s - b).abs() >= (c - d).abs() / 2.0)
            || (mflag && (b - c).abs() < tol)
            || (!mflag && (c - d).abs() < tol)
        {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = checked(&mut f, s)?;
        evaluations += 1;
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(NumOptError::MaxIterations {
        limit: tolerance.max_iterations,
        best: b,
    })
}

/// Solves `g(x) = target` for a monotone function `g`, expanding the
/// initial guess interval geometrically until the target is bracketed.
///
/// This drives the Section 4.5 calibration: the optimal listening period
/// `r_opt(n; E)` is monotone in the error cost `E`, so the `E` that makes a
/// prescribed `r` optimal is found by inverting that map. `increasing`
/// states the direction of monotonicity.
///
/// # Errors
///
/// - [`NumOptError::InvalidInterval`] for a degenerate initial interval.
/// - [`NumOptError::TargetNotBracketed`] when geometric expansion (60
///   doublings) never straddles the target.
/// - [`NumOptError::ObjectiveNaN`] when `g` produces NaN.
pub fn invert_monotone(
    mut g: impl FnMut(f64) -> f64,
    target: f64,
    guess_lo: f64,
    guess_hi: f64,
    increasing: bool,
    tolerance: Tolerance,
) -> Result<Root, NumOptError> {
    check_interval(guess_lo, guess_hi)?;
    let sign = if increasing { 1.0 } else { -1.0 };
    let mut residual = |x: f64| -> f64 { sign * (g(x) - target) };

    let mut lo = guess_lo;
    let mut hi = guess_hi;
    let mut f_lo = residual(lo);
    let mut f_hi = residual(hi);
    if f_lo.is_nan() {
        return Err(NumOptError::ObjectiveNaN { at: lo });
    }
    if f_hi.is_nan() {
        return Err(NumOptError::ObjectiveNaN { at: hi });
    }
    let mut expansions = 0;
    while f_lo > 0.0 || f_hi < 0.0 {
        if expansions >= 60 {
            return Err(NumOptError::TargetNotBracketed { target });
        }
        expansions += 1;
        let width = hi - lo;
        if f_lo > 0.0 {
            // Residual increases with x, so the root lies below lo.
            lo -= width;
            f_lo = residual(lo);
            if f_lo.is_nan() {
                return Err(NumOptError::ObjectiveNaN { at: lo });
            }
        } else {
            hi += width;
            f_hi = residual(hi);
            if f_hi.is_nan() {
                return Err(NumOptError::ObjectiveNaN { at: hi });
            }
        }
    }
    brent_root(residual, lo, hi, tolerance)
}

fn checked(f: &mut impl FnMut(f64) -> f64, x: f64) -> Result<f64, NumOptError> {
    let v = f(x);
    if v.is_nan() {
        Err(NumOptError::ObjectiveNaN { at: x })
    } else {
        Ok(v)
    }
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
    fn brent_on_sqrt_two_uses_fewer_evaluations() {
        let t = Tolerance::default();
        let q = brent_root(|x| x * x - 2.0, 0.0, 2.0, t).unwrap();
        assert!((q.argument - std::f64::consts::SQRT_2).abs() < 1e-9);
        // Bisection halves the bracket of width 2 until it is within
        // t.at(√2) ≈ 1.01e-10: 36 midpoints after the 2 endpoint
        // evaluations.
        assert!(q.evaluations < 38, "{} evaluations", q.evaluations);
    }

    #[test]
    fn exact_root_at_endpoint_is_returned_immediately() {
        let r = brent_root(|x| x, 0.0, 1.0, Tolerance::default()).unwrap();
        assert_eq!(r.argument, 0.0);
        let r = brent_root(|x| x - 1.0, 0.0, 1.0, Tolerance::default()).unwrap();
        assert_eq!(r.argument, 1.0);
    }

    #[test]
    fn same_sign_bracket_is_rejected() {
        let t = Tolerance::default();
        assert!(matches!(
            brent_root(|x| x * x + 1.0, -1.0, 1.0, t),
            Err(NumOptError::NoSignChange { .. })
        ));
    }

    #[test]
    fn nan_function_is_reported() {
        let t = Tolerance::default();
        assert!(matches!(
            brent_root(|_| f64::NAN, 0.0, 1.0, t),
            Err(NumOptError::ObjectiveNaN { .. })
        ));
    }

    #[test]
    fn brent_on_nasty_flat_function() {
        // f has a very flat region around the root at x = 1.
        let r = brent_root(|x: f64| (x - 1.0).powi(9), 0.0, 3.0, Tolerance::default()).unwrap();
        assert!((r.argument - 1.0).abs() < 1e-2);
    }

    #[test]
    fn invert_increasing_exponential() {
        // Solve e^x = 10 with an initial guess far from the answer.
        let r =
            invert_monotone(|x: f64| x.exp(), 10.0, 0.0, 0.5, true, Tolerance::default()).unwrap();
        assert!((r.argument - 10f64.ln()).abs() < 1e-8);
    }

    #[test]
    fn invert_decreasing_function() {
        // g(x) = 100 / x is decreasing; solve g(x) = 4 => x = 25.
        let r = invert_monotone(
            |x: f64| 100.0 / x,
            4.0,
            1.0,
            2.0,
            false,
            Tolerance::default(),
        )
        .unwrap();
        assert!((r.argument - 25.0).abs() < 1e-6);
    }

    #[test]
    fn invert_reports_unbracketable_targets() {
        // Bounded function can never reach the target.
        let r = invert_monotone(
            |x: f64| x.tanh(),
            5.0,
            -1.0,
            1.0,
            true,
            Tolerance::default(),
        );
        assert!(matches!(r, Err(NumOptError::TargetNotBracketed { .. })));
    }

    #[test]
    fn invert_over_many_orders_of_magnitude() {
        // The calibration solves for E around 1e20-1e35; emulate with a
        // log-scaled monotone map.
        let g = |log_e: f64| 0.3 * log_e - 4.0; // r_opt as a function of log10(E)
        let r = invert_monotone(g, 2.0, 0.0, 1.0, true, Tolerance::default()).unwrap();
        assert!((r.argument - 20.0).abs() < 1e-8);
    }

    #[test]
    fn invalid_guess_interval_is_rejected() {
        assert!(invert_monotone(|x| x, 0.0, 2.0, 1.0, true, Tolerance::default()).is_err());
    }
}
