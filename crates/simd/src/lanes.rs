//! The `f64x4`/`f64x8` lane abstraction and the feature-gated kernel bodies.
//!
//! Everything here is `pub(crate)`: the only way in is through the safe
//! dispatchers in `lib.rs`, which verify the required CPU features at runtime
//! before calling the `#[target_feature]` instantiations below. The generic
//! kernel bodies are written once over [`LaneVector`] and marked
//! `#[inline(always)]` so they inline into the feature-enabled wrapper frames
//! and the intrinsics compile to the wide instructions they name.
//!
//! Bit-exactness contract: every lanewise add/sub/mul/div is IEEE-754
//! correctly rounded, so as long as a kernel body performs the *same
//! operations in the same association* as the scalar reference loop, each
//! lane computes the identical bit pattern. Every body below keeps the
//! scalar association; none fuses or reassociates.
//!
//! NaN discipline: x86 `max/minpd` return the *second* operand when either
//! input is NaN, so clamps place the constant first (`min(one, max(zero, x))`)
//! to propagate data NaNs exactly like scalar `f64::clamp`. Comparisons use
//! the quiet ordered predicates (`_CMP_LT_OQ`/`_CMP_GE_OQ`), which evaluate to
//! false on NaN just like the scalar `<` / `>=` operators.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::{
    __m256d, __m512d, _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_div_pd,
    _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd, _mm256_movemask_pd, _mm256_mul_pd,
    _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm512_add_pd, _mm512_cmp_pd_mask,
    _mm512_div_pd, _mm512_loadu_pd, _mm512_mask_blend_pd, _mm512_max_pd, _mm512_min_pd,
    _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd, _mm512_sub_pd, _CMP_GE_OQ, _CMP_LT_OQ,
};

use crate::{cost_block_pass_scalar, ColumnTerms, Record};

/// Widest lane count any backend uses; sizes the stack scratch buffers used
/// for per-lane transcendentals.
pub(crate) const MAX_LANES: usize = 8;

/// A pack of `LANES` f64 values with IEEE-754 lanewise arithmetic.
///
/// # Safety
///
/// Every method lowers to intrinsics of the implementing type's ISA extension
/// (AVX/AVX2 for [`F64x4`], AVX-512F for [`F64x8`]). Callers must only
/// invoke them from a context where that extension is known to be available —
/// in this crate, from inside the matching `#[target_feature]` wrapper after
/// runtime detection. `load`/`store` additionally require `LANES` elements.
pub(crate) unsafe trait LaneVector: Copy {
    const LANES: usize;

    /// # Safety
    /// Requires the implementing ISA extension and `src.len() >= LANES`.
    unsafe fn load(src: &[f64]) -> Self;
    /// # Safety
    /// Requires the implementing ISA extension and `dst.len() >= LANES`.
    unsafe fn store(self, dst: &mut [f64]);
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn splat(x: f64) -> Self;
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn add(self, other: Self) -> Self;
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn sub(self, other: Self) -> Self;
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn mul(self, other: Self) -> Self;
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn div(self, other: Self) -> Self;
    /// Lanewise max; returns `other` when either operand is NaN.
    ///
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn max_of(self, other: Self) -> Self;
    /// Lanewise min; returns `other` when either operand is NaN.
    ///
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn min_of(self, other: Self) -> Self;
    /// Lanewise `if a < b { t } else { f }`; NaN compares false.
    ///
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self;
    /// Lanewise `if a >= b { t } else { f }`; NaN compares false.
    ///
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn select_ge(a: Self, b: Self, t: Self, f: Self) -> Self;
    /// True when any lane satisfies `a < b` (NaN lanes compare false).
    ///
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn any_lt(a: Self, b: Self) -> bool;
}

/// Four f64 lanes over AVX (arithmetic), behind the AVX2 detection gate.
#[derive(Clone, Copy)]
pub(crate) struct F64x4(__m256d);

// SAFETY: every method lowers to an AVX intrinsic; the trait contract
// obliges the caller to guarantee the feature before invoking.
unsafe impl LaneVector for F64x4 {
    const LANES: usize = 4;

    /// # Safety
    /// See trait: requires AVX and `src.len() >= 4`.
    #[inline(always)]
    unsafe fn load(src: &[f64]) -> Self {
        debug_assert!(src.len() >= Self::LANES);
        // SAFETY: caller guarantees at least LANES readable elements; loadu
        // has no alignment requirement.
        Self(unsafe { _mm256_loadu_pd(src.as_ptr()) })
    }

    /// # Safety
    /// See trait: requires AVX and `dst.len() >= 4`.
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f64]) {
        debug_assert!(dst.len() >= Self::LANES);
        // SAFETY: caller guarantees at least LANES writable elements; storeu
        // has no alignment requirement.
        unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), self.0) }
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        // SAFETY: lanewise AVX broadcast, caller guarantees the feature.
        Self(unsafe { _mm256_set1_pd(x) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        // SAFETY: lanewise AVX arithmetic, caller guarantees the feature.
        Self(unsafe { _mm256_add_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn sub(self, other: Self) -> Self {
        // SAFETY: lanewise AVX arithmetic, caller guarantees the feature.
        Self(unsafe { _mm256_sub_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn mul(self, other: Self) -> Self {
        // SAFETY: lanewise AVX arithmetic, caller guarantees the feature.
        Self(unsafe { _mm256_mul_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn div(self, other: Self) -> Self {
        // SAFETY: lanewise AVX arithmetic, caller guarantees the feature.
        Self(unsafe { _mm256_div_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn max_of(self, other: Self) -> Self {
        // SAFETY: lanewise AVX max (second operand wins on NaN), caller
        // guarantees the feature.
        Self(unsafe { _mm256_max_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn min_of(self, other: Self) -> Self {
        // SAFETY: lanewise AVX min (second operand wins on NaN), caller
        // guarantees the feature.
        Self(unsafe { _mm256_min_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self {
        // SAFETY: lanewise AVX compare + blend, caller guarantees the
        // feature; _CMP_LT_OQ is quiet-ordered so NaN lanes pick `f`.
        Self(unsafe { _mm256_blendv_pd(f.0, t.0, _mm256_cmp_pd::<_CMP_LT_OQ>(a.0, b.0)) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn select_ge(a: Self, b: Self, t: Self, f: Self) -> Self {
        // SAFETY: lanewise AVX compare + blend, caller guarantees the
        // feature; _CMP_GE_OQ is quiet-ordered so NaN lanes pick `f`.
        Self(unsafe { _mm256_blendv_pd(f.0, t.0, _mm256_cmp_pd::<_CMP_GE_OQ>(a.0, b.0)) })
    }

    /// # Safety
    /// See trait: requires AVX.
    #[inline(always)]
    unsafe fn any_lt(a: Self, b: Self) -> bool {
        // SAFETY: lanewise AVX compare + sign-bit extraction, caller
        // guarantees the feature.
        unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(a.0, b.0)) != 0 }
    }
}

/// Eight f64 lanes over AVX-512F.
#[derive(Clone, Copy)]
pub(crate) struct F64x8(__m512d);

// SAFETY: every method lowers to an AVX-512F intrinsic; the trait contract
// obliges the caller to guarantee the feature before invoking.
unsafe impl LaneVector for F64x8 {
    const LANES: usize = 8;

    /// # Safety
    /// See trait: requires AVX-512F and `src.len() >= 8`.
    #[inline(always)]
    unsafe fn load(src: &[f64]) -> Self {
        debug_assert!(src.len() >= Self::LANES);
        // SAFETY: caller guarantees at least LANES readable elements; loadu
        // has no alignment requirement.
        Self(unsafe { _mm512_loadu_pd(src.as_ptr()) })
    }

    /// # Safety
    /// See trait: requires AVX-512F and `dst.len() >= 8`.
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f64]) {
        debug_assert!(dst.len() >= Self::LANES);
        // SAFETY: caller guarantees at least LANES writable elements; storeu
        // has no alignment requirement.
        unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), self.0) }
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        // SAFETY: lanewise AVX-512F broadcast, caller guarantees the feature.
        Self(unsafe { _mm512_set1_pd(x) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        // SAFETY: lanewise AVX-512F arithmetic, caller guarantees the feature.
        Self(unsafe { _mm512_add_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn sub(self, other: Self) -> Self {
        // SAFETY: lanewise AVX-512F arithmetic, caller guarantees the feature.
        Self(unsafe { _mm512_sub_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn mul(self, other: Self) -> Self {
        // SAFETY: lanewise AVX-512F arithmetic, caller guarantees the feature.
        Self(unsafe { _mm512_mul_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn div(self, other: Self) -> Self {
        // SAFETY: lanewise AVX-512F arithmetic, caller guarantees the feature.
        Self(unsafe { _mm512_div_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn max_of(self, other: Self) -> Self {
        // SAFETY: lanewise AVX-512F max (second operand wins on NaN), caller
        // guarantees the feature.
        Self(unsafe { _mm512_max_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn min_of(self, other: Self) -> Self {
        // SAFETY: lanewise AVX-512F min (second operand wins on NaN), caller
        // guarantees the feature.
        Self(unsafe { _mm512_min_pd(self.0, other.0) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self {
        // SAFETY: lanewise AVX-512F masked compare + blend (mask bit set
        // picks `t`), caller guarantees the feature; _CMP_LT_OQ is
        // quiet-ordered so NaN lanes pick `f`.
        Self(unsafe { _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(a.0, b.0), f.0, t.0) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn select_ge(a: Self, b: Self, t: Self, f: Self) -> Self {
        // SAFETY: lanewise AVX-512F masked compare + blend (mask bit set
        // picks `t`), caller guarantees the feature; _CMP_GE_OQ is
        // quiet-ordered so NaN lanes pick `f`.
        Self(unsafe { _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_GE_OQ>(a.0, b.0), f.0, t.0) })
    }

    /// # Safety
    /// See trait: requires AVX-512F.
    #[inline(always)]
    unsafe fn any_lt(a: Self, b: Self) -> bool {
        // SAFETY: lanewise AVX-512F compare to mask register, caller
        // guarantees the feature.
        unsafe { _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a.0, b.0) != 0 }
    }
}

// ---------------------------------------------------------------------------
// Generic kernel bodies. Each mirrors a scalar reference loop in `lib.rs`
// operation-for-operation (same association), which is what makes every
// dispatch `to_bits`-identical. Remainder elements always run the scalar
// reference loop.
// ---------------------------------------------------------------------------

/// `out[k] = scale * rs[k]` — the π-round scaling fill in
/// `noanswer::p_rounds_batch_with`.
///
/// # Safety
/// Requires `V`'s ISA extension; `rs.len() == out.len()`.
#[inline(always)]
unsafe fn fill_scaled_body<V: LaneVector>(scale: f64, rs: &[f64], out: &mut [f64]) {
    debug_assert_eq!(rs.len(), out.len());
    let len = out.len();
    let mut k = 0;
    // SAFETY: V's extension is active per this function's contract; every
    // load/store stays within the `len` bound checked by the loop condition.
    unsafe {
        let scale_v = V::splat(scale);
        while k + V::LANES <= len {
            scale_v.mul(V::load(&rs[k..])).store(&mut out[k..]);
            k += V::LANES;
        }
    }
    for (t, &r) in out[k..].iter_mut().zip(&rs[k..]) {
        *t = scale * r;
    }
}

/// `xs[k] = xs[k].clamp(0.0, 1.0)` with scalar-`clamp` NaN propagation.
///
/// # Safety
/// Requires `V`'s ISA extension.
#[inline(always)]
unsafe fn clamp_unit_body<V: LaneVector>(xs: &mut [f64]) {
    let len = xs.len();
    let mut k = 0;
    // SAFETY: V's extension is active per this function's contract; every
    // load/store stays within the `len` bound checked by the loop condition.
    // Constants ride in the FIRST operand of max/min so a NaN in `xs`
    // (second operand) propagates, exactly like `f64::clamp(0.0, 1.0)`.
    unsafe {
        let zero = V::splat(0.0);
        let one = V::splat(1.0);
        while k + V::LANES <= len {
            one.min_of(zero.max_of(V::load(&xs[k..])))
                .store(&mut xs[k..]);
            k += V::LANES;
        }
    }
    for x in &mut xs[k..] {
        *x = x.clamp(0.0, 1.0);
    }
}

/// `xs[k] = (xs[k] / base).clamp(0.0, 1.0)` — conditioning on a defective
/// round-0 survival in `noanswer::p_rounds_batch_with`.
///
/// # Safety
/// Requires `V`'s ISA extension.
#[inline(always)]
unsafe fn div_clamp_unit_body<V: LaneVector>(base: f64, xs: &mut [f64]) {
    let len = xs.len();
    let mut k = 0;
    // SAFETY: V's extension is active per this function's contract; every
    // load/store stays within the `len` bound checked by the loop condition.
    unsafe {
        let base_v = V::splat(base);
        let zero = V::splat(0.0);
        let one = V::splat(1.0);
        while k + V::LANES <= len {
            let q = V::load(&xs[k..]).div(base_v);
            one.min_of(zero.max_of(q)).store(&mut xs[k..]);
            k += V::LANES;
        }
    }
    for x in &mut xs[k..] {
        *x = (*x / base).clamp(0.0, 1.0);
    }
}

/// `acc[k] += weight * src[k]` — mixture-component accumulation.
///
/// # Safety
/// Requires `V`'s ISA extension; `acc.len() == src.len()`.
#[inline(always)]
unsafe fn weighted_accumulate_body<V: LaneVector>(weight: f64, src: &[f64], acc: &mut [f64]) {
    debug_assert_eq!(acc.len(), src.len());
    let len = acc.len();
    let mut k = 0;
    // SAFETY: V's extension is active per this function's contract; every
    // load/store stays within the `len` bound checked by the loop condition.
    // `acc + w*s` keeps the scalar association (w*s first, then add).
    unsafe {
        let w = V::splat(weight);
        while k + V::LANES <= len {
            V::load(&acc[k..])
                .add(w.mul(V::load(&src[k..])))
                .store(&mut acc[k..]);
            k += V::LANES;
        }
    }
    for (a, &s) in acc[k..].iter_mut().zip(&src[k..]) {
        *a += weight * s;
    }
}

/// Defective-exponential survival: `1.0` before `delay`, else
/// `loss + scale * exp(neg_rate * (t - delay))`.
///
/// The `exp` itself is evaluated scalar per lane (there is no correctly
/// rounded vector exp), so lanes stay `to_bits`-identical to the scalar loop;
/// the surrounding affine work and the select are vectorized. Lanes with
/// `t < delay` still evaluate `exp` on garbage offsets — harmless (no traps,
/// result discarded by the select).
///
/// # Safety
/// Requires `V`'s ISA extension and `V::LANES <= MAX_LANES`.
#[inline(always)]
unsafe fn survival_exponential_body<V: LaneVector>(
    delay: f64,
    loss: f64,
    scale: f64,
    neg_rate: f64,
    ts: &mut [f64],
) {
    let len = ts.len();
    let mut k = 0;
    let mut scratch = [0.0f64; MAX_LANES];
    // SAFETY: V's extension is active per this function's contract; every
    // load/store stays within the `len` bound checked by the loop condition,
    // and scratch holds MAX_LANES >= V::LANES elements.
    unsafe {
        let delay_v = V::splat(delay);
        let loss_v = V::splat(loss);
        let scale_v = V::splat(scale);
        let neg_rate_v = V::splat(neg_rate);
        let one = V::splat(1.0);
        while k + V::LANES <= len {
            let t = V::load(&ts[k..]);
            neg_rate_v.mul(t.sub(delay_v)).store(&mut scratch);
            for s in &mut scratch[..V::LANES] {
                *s = s.exp();
            }
            let tail = loss_v.add(scale_v.mul(V::load(&scratch)));
            V::select_lt(t, delay_v, one, tail).store(&mut ts[k..]);
            k += V::LANES;
        }
    }
    for t in &mut ts[k..] {
        *t = if *t < delay {
            1.0
        } else {
            loss + scale * (neg_rate * (*t - delay)).exp()
        };
    }
}

/// Deterministic (point-mass) survival: `survived` once `t >= delay`.
///
/// Uses `select_ge` (not an inverted `select_lt`) so NaN inputs map to `1.0`
/// exactly like the scalar `if *t >= delay` branch.
///
/// # Safety
/// Requires `V`'s ISA extension.
#[inline(always)]
unsafe fn survival_deterministic_body<V: LaneVector>(delay: f64, survived: f64, ts: &mut [f64]) {
    let len = ts.len();
    let mut k = 0;
    // SAFETY: V's extension is active per this function's contract; every
    // load/store stays within the `len` bound checked by the loop condition.
    unsafe {
        let delay_v = V::splat(delay);
        let survived_v = V::splat(survived);
        let one = V::splat(1.0);
        while k + V::LANES <= len {
            let t = V::load(&ts[k..]);
            V::select_ge(t, delay_v, survived_v, one).store(&mut ts[k..]);
            k += V::LANES;
        }
    }
    for t in &mut ts[k..] {
        *t = if *t >= delay { survived } else { 1.0 };
    }
}

/// Uniform survival: `1.0` below `lo`, `survived` at/above `hi`, linear
/// interpolation `survived + mass * (hi - t) / width` in between.
///
/// Composed as two selects evaluating both arms; NaN inputs fall through both
/// quiet-ordered compares to the interpolated arm, which is NaN — matching
/// the scalar chain where NaN reaches the `else` branch.
///
/// # Safety
/// Requires `V`'s ISA extension.
#[inline(always)]
unsafe fn survival_uniform_body<V: LaneVector>(
    lo: f64,
    hi: f64,
    mass: f64,
    survived: f64,
    width: f64,
    ts: &mut [f64],
) {
    let len = ts.len();
    let mut k = 0;
    // SAFETY: V's extension is active per this function's contract; every
    // load/store stays within the `len` bound checked by the loop condition.
    unsafe {
        let lo_v = V::splat(lo);
        let hi_v = V::splat(hi);
        let mass_v = V::splat(mass);
        let survived_v = V::splat(survived);
        let width_v = V::splat(width);
        let one = V::splat(1.0);
        while k + V::LANES <= len {
            let t = V::load(&ts[k..]);
            let fraction_remaining = hi_v.sub(t).div(width_v);
            let interior = survived_v.add(mass_v.mul(fraction_remaining));
            let above_lo = V::select_ge(t, hi_v, survived_v, interior);
            V::select_lt(t, lo_v, one, above_lo).store(&mut ts[k..]);
            k += V::LANES;
        }
    }
    for t in &mut ts[k..] {
        *t = if *t < lo {
            1.0
        } else if *t >= hi {
            survived
        } else {
            let fraction_remaining = (hi - *t) / width;
            survived + mass * fraction_remaining
        };
    }
}

/// Defective-Weibull survival: `1.0` before `delay`, else
/// `survived + mass * exp(-((t - delay) / scale).powf(shape))`.
///
/// Like the exponential body, `powf`/`exp` run scalar per lane for bit parity
/// with the scalar loop; masked-off lanes may evaluate them on garbage
/// offsets, which cannot trap and is discarded by the select.
///
/// # Safety
/// Requires `V`'s ISA extension and `V::LANES <= MAX_LANES`.
#[inline(always)]
unsafe fn survival_weibull_body<V: LaneVector>(
    delay: f64,
    scale: f64,
    shape: f64,
    mass: f64,
    survived: f64,
    ts: &mut [f64],
) {
    let len = ts.len();
    let mut k = 0;
    let mut scratch = [0.0f64; MAX_LANES];
    // SAFETY: V's extension is active per this function's contract; every
    // load/store stays within the `len` bound checked by the loop condition,
    // and scratch holds MAX_LANES >= V::LANES elements.
    unsafe {
        let delay_v = V::splat(delay);
        let scale_v = V::splat(scale);
        let mass_v = V::splat(mass);
        let survived_v = V::splat(survived);
        let one = V::splat(1.0);
        while k + V::LANES <= len {
            let t = V::load(&ts[k..]);
            t.sub(delay_v).div(scale_v).store(&mut scratch);
            for s in &mut scratch[..V::LANES] {
                *s = (-s.powf(shape)).exp();
            }
            let tail = survived_v.add(mass_v.mul(V::load(&scratch)));
            V::select_lt(t, delay_v, one, tail).store(&mut ts[k..]);
            k += V::LANES;
        }
    }
    for t in &mut ts[k..] {
        *t = if *t < delay {
            1.0
        } else {
            let hazard = ((*t - delay) / scale).powf(shape);
            survived + mass * (-hazard).exp()
        };
    }
}

/// The column-parallel blocked cost/error pass: `V::LANES` columns advance in
/// lockstep, one probe round per step. Lane `l` performs exactly the scalar
/// per-column program of `cost_block_pass_scalar` — the `0.0`-seeded left-fold
/// prefix (`prefix += π_{i−1}` on the step that evaluates `i`) and the same
/// left-associated numerator/denominator — so every lane stays
/// `to_bits`-identical while the serially-dependent prefix chains of `LANES`
/// columns retire concurrently. The probe-count coefficient starts at `1.0`
/// and advances by `+1.0` per round, which reproduces `i as f64` exactly
/// (small integers are exact in f64). Remainder columns (fewer than `LANES`
/// left) are handed to `cost_block_pass_scalar` itself.
///
/// Outputs are r-major (column `j` at `out[j*n_max ..]`), so row stores
/// scatter lane by lane; gathers and scatters are scalar (no AVX2 gather —
/// its lane traps on faulting addresses differ, and the π rows live in L1
/// here anyway), only the arithmetic is wide.
///
/// # Safety
/// Requires `V`'s ISA extension; every `tables[j]` must hold at least
/// `n_max + 1` entries, `r_plus_c`/`r_plus_c_q` one entry per
/// column, every provided output slice exactly `tables.len() * n_max`, and
/// `V::LANES <= MAX_LANES`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn cost_block_pass_body<V: LaneVector>(
    q: f64,
    one_minus_q: f64,
    q_error_cost: f64,
    r_plus_c: &[f64],
    r_plus_c_q: &[f64],
    n_max: usize,
    tables: &[&[f64]],
    mut costs: Option<&mut [f64]>,
    mut errors: Option<&mut [f64]>,
    mut pi_prefix: Option<&mut [f64]>,
    mut pi_n_out: Option<&mut [f64]>,
) {
    let n_cols = tables.len();
    debug_assert_eq!(r_plus_c.len(), n_cols);
    debug_assert_eq!(r_plus_c_q.len(), n_cols);
    let mut row = [0.0f64; MAX_LANES];
    let mut out_row = [0.0f64; MAX_LANES];
    let mut c0 = 0;
    // SAFETY: V's extension is active per this function's contract. Lane
    // loads/stores touch the MAX_LANES >= V::LANES scratch rows;
    // per-column reads `tables[c0 + l][i]` stay within the caller-asserted
    // `n_max + 1` table length for `i <= n_max` and `c0 + l < n_cols` by the
    // chunk loop condition; output writes land at `(c0 + l) * n_max + i - 1 <
    // n_cols * n_max`, the caller-asserted output length.
    unsafe {
        let q_v = V::splat(q);
        let one_minus_q_v = V::splat(one_minus_q);
        let q_error_cost_v = V::splat(q_error_cost);
        let one = V::splat(1.0);
        while c0 + V::LANES <= n_cols {
            let columns = &tables[c0..c0 + V::LANES];
            let rpc = V::load(&r_plus_c[c0..]);
            let rpcq = V::load(&r_plus_c_q[c0..]);
            let mut prefix = V::splat(0.0);
            let mut n_v = one;
            for (slot, table) in row.iter_mut().zip(columns) {
                // SAFETY: tables hold n_max + 1 >= 1 entries (caller assert).
                *slot = *table.get_unchecked(0);
            }
            let mut prev = V::load(&row);
            let mut drain_from = n_max + 1;
            for i in 1..=n_max {
                for (slot, table) in row.iter_mut().zip(columns) {
                    // SAFETY: i <= n_max < table.len() (caller assert).
                    *slot = *table.get_unchecked(i);
                }
                // Once every lane's π hits the zero tail it stays there
                // (π-tables are nonincreasing with an exact-zero tail), so
                // the remaining rounds take the cheaper drain loop below.
                // This round still runs the full body: its prefix update
                // folds in the last nonzero π row. The `== 0.0` check is
                // deliberately scalar — it rejects NaN lanes, so a table
                // violating the π contract falls through to the full body
                // rather than silently diverging from the scalar program.
                // The `one_minus_q > 0.0` guard keeps the degenerate q = 1
                // scenario (error term 0/0 = NaN) on the full body too.
                if one_minus_q > 0.0 && row[..V::LANES].iter().all(|&x| x == 0.0) {
                    drain_from = i + 1;
                }
                let pi_n = V::load(&row);
                // Lane l replays column (c0 + l)'s left fold exactly:
                // prefix += π_{i−1}, where prev carries last round's π row.
                prefix = prefix.add(prev);
                let denominator = one.sub(q_v.mul(one.sub(pi_n)));
                let at = i - 1;
                if let Some(costs) = costs.as_deref_mut() {
                    let free_address_probing = rpc.mul(n_v).mul(one_minus_q_v);
                    let numerator = free_address_probing
                        .add(rpcq.mul(prefix))
                        .add(q_error_cost_v.mul(pi_n));
                    numerator.div(denominator).store(&mut out_row);
                    for (l, &value) in out_row[..V::LANES].iter().enumerate() {
                        // SAFETY: index < n_cols * n_max (caller assert).
                        *costs.get_unchecked_mut((c0 + l) * n_max + at) = value;
                    }
                }
                if let Some(errors) = errors.as_deref_mut() {
                    q_v.mul(pi_n).div(denominator).store(&mut out_row);
                    for (l, &value) in out_row[..V::LANES].iter().enumerate() {
                        // SAFETY: index < n_cols * n_max (caller assert).
                        *errors.get_unchecked_mut((c0 + l) * n_max + at) = value;
                    }
                }
                if let Some(out) = pi_prefix.as_deref_mut() {
                    prefix.store(&mut out_row);
                    for (l, &value) in out_row[..V::LANES].iter().enumerate() {
                        // SAFETY: index < n_cols * n_max (caller assert).
                        *out.get_unchecked_mut((c0 + l) * n_max + at) = value;
                    }
                }
                if let Some(out) = pi_n_out.as_deref_mut() {
                    for (l, &value) in row[..V::LANES].iter().enumerate() {
                        // SAFETY: index < n_cols * n_max (caller assert).
                        *out.get_unchecked_mut((c0 + l) * n_max + at) = value;
                    }
                }
                prev = pi_n;
                n_v = n_v.add(one);
                if drain_from <= n_max {
                    break;
                }
            }
            // Drain: every lane's π is an exact +0.0 from here on, which
            // collapses the per-round arithmetic without moving a bit:
            //   denominator = 1 − q·(1 − 0)   = the caller's 1 − q,
            //   collision   = q_error_cost·0  = +0.0 (adding it is the
            //                 identity on the strictly positive numerator),
            //   error       = q·0 / (1 − q)   = +0.0 exactly,
            //   prefix      += 0              = prefix (frozen).
            // So the drain pays one division per round instead of two, no
            // gathers, and no prefix fold — on cutoff-heavy grids that is
            // most rounds.
            if drain_from <= n_max {
                let denominator = one_minus_q_v;
                let occupied = rpcq.mul(prefix);
                let frozen_prefix_row = {
                    let mut frozen = [0.0f64; MAX_LANES];
                    prefix.store(&mut frozen);
                    frozen
                };
                for i in drain_from..=n_max {
                    let at = i - 1;
                    if let Some(costs) = costs.as_deref_mut() {
                        let free_address_probing = rpc.mul(n_v).mul(one_minus_q_v);
                        free_address_probing
                            .add(occupied)
                            .div(denominator)
                            .store(&mut out_row);
                        for (l, &value) in out_row[..V::LANES].iter().enumerate() {
                            // SAFETY: index < n_cols * n_max (caller assert).
                            *costs.get_unchecked_mut((c0 + l) * n_max + at) = value;
                        }
                    }
                    if let Some(errors) = errors.as_deref_mut() {
                        for l in 0..V::LANES {
                            // SAFETY: index < n_cols * n_max (caller assert).
                            *errors.get_unchecked_mut((c0 + l) * n_max + at) = 0.0;
                        }
                    }
                    if let Some(out) = pi_prefix.as_deref_mut() {
                        for (l, &value) in frozen_prefix_row[..V::LANES].iter().enumerate() {
                            // SAFETY: index < n_cols * n_max (caller assert).
                            *out.get_unchecked_mut((c0 + l) * n_max + at) = value;
                        }
                    }
                    if let Some(out) = pi_n_out.as_deref_mut() {
                        for l in 0..V::LANES {
                            // SAFETY: index < n_cols * n_max (caller assert).
                            *out.get_unchecked_mut((c0 + l) * n_max + at) = 0.0;
                        }
                    }
                    n_v = n_v.add(one);
                }
            }
            c0 += V::LANES;
        }
    }
    // Remainder columns: the scalar reference program itself, on the
    // r-major tail of every slab.
    let offset = c0 * n_max;
    cost_block_pass_scalar(
        q,
        one_minus_q,
        q_error_cost,
        &r_plus_c[c0..],
        &r_plus_c_q[c0..],
        n_max,
        &tables[c0..],
        costs.map(|out| &mut out[offset..]),
        errors.map(|out| &mut out[offset..]),
        pi_prefix.map(|out| &mut out[offset..]),
        pi_n_out.map(|out| &mut out[offset..]),
    );
}

/// The whole-grid body of `min_cost_grid_scan`: the column loop runs in
/// this feature-enabled frame, so one parameter point costs one dispatch.
///
/// Each column first meets the column stop (`lib.rs` gives the exactness
/// argument), then the lane pass. The lane pass only *filters*: a chunk
/// is skipped when no lane's numerator beats the incumbent as of the
/// chunk start (the incumbent never increases, so skipping is
/// conservative); any chunk with a candidate lane is replayed by the
/// scalar [`Record::scan`], preserving the scalar selection order
/// bit-for-bit. The free-probing early exit is checked per chunk on lane
/// 0 and inside every replay; when it fires the scan moves on to the next
/// column.
///
/// # Safety
/// Requires `V`'s ISA extension; `r_floor.len() == r_values.len()`,
/// `prefix` and `tail` hold `r_values.len() * n_max` elements, and
/// `V::LANES <= MAX_LANES`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn min_cost_grid_scan_body<V: LaneVector>(
    q: f64,
    one_minus_q: f64,
    q_error_cost: f64,
    probe_cost: f64,
    r_values: &[f64],
    r_floor: &[f64],
    n_max: usize,
    prefix: &[f64],
    tail: &[f64],
    record: &mut Record,
) {
    debug_assert_eq!(r_floor.len(), r_values.len());
    let mut lane_index = [0.0f64; MAX_LANES];
    // SAFETY: V's extension is active per this function's contract; each
    // column's loads stay within its `n_max`-long slices by the loop
    // condition, and lane_index holds MAX_LANES >= V::LANES elements.
    unsafe {
        let one_minus_q_v = V::splat(one_minus_q);
        let q_error_cost_v = V::splat(q_error_cost);
        'columns: for (j, (&r, &floor)) in r_values.iter().zip(r_floor).enumerate() {
            if (floor + probe_cost) * one_minus_q >= record.incumbent {
                break;
            }
            let r_plus_c = r + probe_cost;
            let terms = ColumnTerms {
                q,
                one_minus_q,
                q_error_cost,
                r_plus_c,
                r_plus_c_q: r_plus_c * q,
            };
            let base = j * n_max;
            let column_prefix = &prefix[base..base + n_max];
            let column_tail = &tail[base..base + n_max];
            let r_plus_c_v = V::splat(r_plus_c);
            let r_plus_c_q_v = V::splat(terms.r_plus_c_q);
            for (i, slot) in lane_index.iter_mut().enumerate() {
                *slot = (i + 1) as f64;
            }
            let mut k = 0;
            while k + V::LANES <= n_max {
                let first_free_probing = r_plus_c * (k + 1) as f64 * one_minus_q;
                if first_free_probing >= record.incumbent {
                    continue 'columns;
                }
                let free_v = r_plus_c_v.mul(V::load(&lane_index)).mul(one_minus_q_v);
                let numerator_v = free_v
                    .add(r_plus_c_q_v.mul(V::load(&column_prefix[k..])))
                    .add(q_error_cost_v.mul(V::load(&column_tail[k..])));
                if V::any_lt(numerator_v, V::splat(record.incumbent))
                    && !record.scan(&terms, column_prefix, column_tail, k..k + V::LANES, base)
                {
                    continue 'columns;
                }
                for slot in &mut lane_index[..V::LANES] {
                    *slot += V::LANES as f64;
                }
                k += V::LANES;
            }
            record.scan(&terms, column_prefix, column_tail, k..n_max, base);
        }
    }
}

// ---------------------------------------------------------------------------
// Feature-gated instantiations. These are the only functions `lib.rs` calls;
// each carries the runtime-detection obligation in its `# Safety` contract.
// The AVX2 tier enables `avx2`, the AVX-512 tier `avx512f`; no body uses
// fused multiply-add, so neither tier needs `fma`.
// ---------------------------------------------------------------------------

macro_rules! instantiate {
    ($avx2:ident, $avx512:ident, $body:ident => ($($arg:ident : $ty:ty),*) $(-> $ret:ty)?) => {
        /// # Safety
        /// Caller must have runtime-verified AVX2 support.
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        pub(crate) unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? {
            // SAFETY: AVX2 is available per this function's contract; the
            // generic body only uses F64x4 lane ops.
            unsafe { $body::<F64x4>($($arg),*) }
        }

        /// # Safety
        /// Caller must have runtime-verified AVX-512F support.
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        pub(crate) unsafe fn $avx512($($arg: $ty),*) $(-> $ret)? {
            // SAFETY: AVX-512F is available per this function's contract; the
            // generic body only uses F64x8 lane ops.
            unsafe { $body::<F64x8>($($arg),*) }
        }
    };
}

instantiate!(fill_scaled_avx2, fill_scaled_avx512, fill_scaled_body =>
    (scale: f64, rs: &[f64], out: &mut [f64]));
instantiate!(clamp_unit_avx2, clamp_unit_avx512, clamp_unit_body =>
    (xs: &mut [f64]));
instantiate!(div_clamp_unit_avx2, div_clamp_unit_avx512, div_clamp_unit_body =>
    (base: f64, xs: &mut [f64]));
instantiate!(weighted_accumulate_avx2, weighted_accumulate_avx512, weighted_accumulate_body =>
    (weight: f64, src: &[f64], acc: &mut [f64]));
instantiate!(survival_exponential_avx2, survival_exponential_avx512, survival_exponential_body =>
    (delay: f64, loss: f64, scale: f64, neg_rate: f64, ts: &mut [f64]));
instantiate!(survival_deterministic_avx2, survival_deterministic_avx512, survival_deterministic_body =>
    (delay: f64, survived: f64, ts: &mut [f64]));
instantiate!(survival_uniform_avx2, survival_uniform_avx512, survival_uniform_body =>
    (lo: f64, hi: f64, mass: f64, survived: f64, width: f64, ts: &mut [f64]));
instantiate!(survival_weibull_avx2, survival_weibull_avx512, survival_weibull_body =>
    (delay: f64, scale: f64, shape: f64, mass: f64, survived: f64, ts: &mut [f64]));
instantiate!(cost_block_pass_avx2, cost_block_pass_avx512, cost_block_pass_body =>
    (q: f64, one_minus_q: f64, q_error_cost: f64, r_plus_c: &'_ [f64], r_plus_c_q: &'_ [f64],
     n_max: usize, tables: &'_ [&'_ [f64]], costs: Option<&mut [f64]>, errors: Option<&mut [f64]>,
     pi_prefix: Option<&mut [f64]>, pi_n_out: Option<&mut [f64]>));
instantiate!(min_cost_grid_scan_avx2, min_cost_grid_scan_avx512, min_cost_grid_scan_body =>
    (q: f64, one_minus_q: f64, q_error_cost: f64, probe_cost: f64, r_values: &[f64],
     r_floor: &[f64], n_max: usize, prefix: &[f64], tail: &[f64], record: &mut Record));
