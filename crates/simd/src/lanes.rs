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

use crate::{
    clamp_unit_scalar, cost_block_pass_scalar, div_clamp_unit_scalar, fill_scaled_scalar,
    survival_deterministic_scalar, survival_exponential_scalar, survival_uniform_scalar,
    survival_weibull_scalar, weighted_accumulate_scalar, Grid, Record,
};

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
    /// The lanes where `a < b`, as a bitmask: bit `l` is set when lane `l`
    /// compares true (NaN lanes compare false).
    ///
    /// # Safety
    /// Requires the implementing ISA extension.
    unsafe fn lt_mask(a: Self, b: Self) -> u32;
    /// True when every lane satisfies `a < b` (NaN lanes compare false).
    ///
    /// # Safety
    /// Requires the implementing ISA extension.
    #[inline(always)]
    unsafe fn all_lt(a: Self, b: Self) -> bool {
        // SAFETY: the caller guarantees the extension `lt_mask` needs.
        unsafe { Self::lt_mask(a, b) == (1 << Self::LANES) - 1 }
    }
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
    unsafe fn lt_mask(a: Self, b: Self) -> u32 {
        // SAFETY: lanewise AVX compare + sign-bit extraction, caller
        // guarantees the feature; movemask sets only the low four bits.
        unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(a.0, b.0)) as u32 }
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
    unsafe fn lt_mask(a: Self, b: Self) -> u32 {
        // SAFETY: lanewise AVX-512F compare to mask register, caller
        // guarantees the feature.
        unsafe { u32::from(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(a.0, b.0)) }
    }
}

// ---------------------------------------------------------------------------
// Generic kernel bodies. Each mirrors a scalar reference loop in `lib.rs`
// operation-for-operation (same association), which is what makes every
// dispatch `to_bits`-identical. Remainder elements run that scalar
// function itself, so each kernel has one scalar program.
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
    fill_scaled_scalar(scale, &rs[k..], &mut out[k..]);
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
    clamp_unit_scalar(&mut xs[k..]);
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
    div_clamp_unit_scalar(base, &mut xs[k..]);
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
    weighted_accumulate_scalar(weight, &src[k..], &mut acc[k..]);
}

/// Defective-exponential survival: `1.0` before `delay`, else
/// `loss + scale * exp(neg_rate * (t - delay))`.
///
/// The `exp` itself is evaluated scalar per lane (there is no correctly
/// rounded vector exp), so lanes stay `to_bits`-identical to the scalar loop;
/// the surrounding affine work and the select are vectorized. Lanes with
/// `t < delay` still evaluate `exp` on garbage offsets — harmless (no traps,
/// result discarded by the select). A chunk whose every exponent is below
/// `cut` (see [`crate::saturation_cut`]) skips `exp` for the whole chunk:
/// each of its lanes rounds to `loss`, as the scalar program's per-element
/// skip gives.
///
/// # Safety
/// Requires `V`'s ISA extension and `V::LANES <= MAX_LANES`.
#[inline(always)]
unsafe fn survival_exponential_body<V: LaneVector>(
    delay: f64,
    loss: f64,
    scale: f64,
    neg_rate: f64,
    cut: f64,
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
        let cut_v = V::splat(cut);
        let one = V::splat(1.0);
        while k + V::LANES <= len {
            let t = V::load(&ts[k..]);
            let x = neg_rate_v.mul(t.sub(delay_v));
            let tail = if V::all_lt(x, cut_v) {
                loss_v
            } else {
                x.store(&mut scratch);
                for s in &mut scratch[..V::LANES] {
                    *s = s.exp();
                }
                loss_v.add(scale_v.mul(V::load(&scratch)))
            };
            V::select_lt(t, delay_v, one, tail).store(&mut ts[k..]);
            k += V::LANES;
        }
    }
    survival_exponential_scalar(delay, loss, scale, neg_rate, cut, &mut ts[k..]);
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
    survival_deterministic_scalar(delay, survived, &mut ts[k..]);
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
    survival_uniform_scalar(lo, hi, mass, survived, width, &mut ts[k..]);
}

/// Defective-Weibull survival: `1.0` before `delay`, else
/// `survived + mass * exp(-((t - delay) / scale).powf(shape))`.
///
/// Like the exponential body, `powf`/`exp` run scalar per lane for bit parity
/// with the scalar loop; masked-off lanes may evaluate them on garbage
/// offsets, which cannot trap and is discarded by the select. A chunk whose
/// every exponent `-hazard` is below `cut` skips `exp` (not `powf`) for the
/// whole chunk, as the exponential body does.
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
    cut: f64,
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
        let cut_v = V::splat(cut);
        let one = V::splat(1.0);
        while k + V::LANES <= len {
            let t = V::load(&ts[k..]);
            t.sub(delay_v).div(scale_v).store(&mut scratch);
            for s in &mut scratch[..V::LANES] {
                *s = -s.powf(shape);
            }
            let tail = if V::all_lt(V::load(&scratch), cut_v) {
                survived_v
            } else {
                for s in &mut scratch[..V::LANES] {
                    *s = s.exp();
                }
                survived_v.add(mass_v.mul(V::load(&scratch)))
            };
            V::select_lt(t, delay_v, one, tail).store(&mut ts[k..]);
            k += V::LANES;
        }
    }
    survival_weibull_scalar(delay, scale, shape, mass, survived, cut, &mut ts[k..]);
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
/// Costs and errors are r-major (column `j` at `out[j*n_max ..]`), so their
/// row stores scatter lane by lane; the n-major statistic rows take one
/// vector store per round. Gathers are scalar (no AVX2 gather — its lane
/// traps on faulting addresses differ, and the π rows live in L1 here
/// anyway), only the arithmetic is wide.
///
/// # Safety
/// Requires `V`'s ISA extension; every `tables[j]` must hold at least
/// `n_max + 1` entries, `r_plus_c`/`r_plus_c_q` one entry per
/// column, every provided cost or error slice exactly
/// `tables.len() * n_max`, `row_stride >= tables.len()`, every provided
/// statistic slice at least `(n_max − 1)·row_stride + tables.len()` when
/// the block has cells, and `V::LANES <= MAX_LANES`.
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
    row_stride: usize,
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
    // chunk loop condition; cost and error writes land at
    // `(c0 + l) * n_max + i - 1 < n_cols * n_max`, the caller-asserted
    // output length; a statistic row store covers
    // `(i - 1) * row_stride + c0 .. + V::LANES`, whose end is at most
    // `(n_max - 1) * row_stride + n_cols`, the caller-asserted slab length.
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
                let row_at = at * row_stride + c0;
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
                    // SAFETY: the row store ends within the slab (caller
                    // assert, see above).
                    prefix.store(out.get_unchecked_mut(row_at..));
                }
                if let Some(out) = pi_n_out.as_deref_mut() {
                    // SAFETY: the row store ends within the slab (caller
                    // assert, see above).
                    pi_n.store(out.get_unchecked_mut(row_at..));
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
                let zero = V::splat(0.0);
                for i in drain_from..=n_max {
                    let at = i - 1;
                    let row_at = at * row_stride + c0;
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
                        // SAFETY: the row store ends within the slab
                        // (caller assert, see above).
                        prefix.store(out.get_unchecked_mut(row_at..));
                    }
                    if let Some(out) = pi_n_out.as_deref_mut() {
                        // SAFETY: the row store ends within the slab
                        // (caller assert, see above).
                        zero.store(out.get_unchecked_mut(row_at..));
                    }
                    n_v = n_v.add(one);
                }
            }
            c0 += V::LANES;
        }
    }
    // Remainder columns: the scalar reference program itself, on the
    // r-major tail of the cost and error slabs and from column `c0` of
    // every statistic row.
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
        pi_prefix.map(|out| &mut out[c0..]),
        pi_n_out.map(|out| &mut out[c0..]),
        row_stride,
    );
}

/// The whole-grid body of `min_cost_grid_scan`: the row loop runs in this
/// feature-enabled frame, so one parameter point costs one dispatch.
///
/// Each row runs up to the column where the previous row's tail was cut
/// (`lib.rs` gives the exactness argument). A lane chunk first meets the
/// row-tail stop at its first column, then forms `V::LANES` numerators
/// with [`Record::scan_row`]'s operations and compares them with the
/// bound into a bitmask. A chunk with no lane under the bound is passed
/// over without a division. Otherwise one vector division gives every
/// lane's cost, and the lanes whose numerator and cost are both under
/// the bound are offered to [`Record::take`], the scalar program's own
/// update; the record does not depend on the order of the offers.
/// Columns that do not fill a chunk run `scan_row` itself.
///
/// # Safety
/// Requires `V`'s ISA extension; `grid.r_floor` as long as
/// `grid.r_values`, `grid.prefix` and `grid.tail` holding
/// `r_values.len() * n_max` elements, and `V::LANES <= MAX_LANES`.
#[inline(always)]
unsafe fn min_cost_grid_scan_body<V: LaneVector>(grid: &Grid<'_>, record: &mut Record) {
    debug_assert_eq!(grid.r_floor.len(), grid.r_values.len());
    let mut limit = grid.r_values.len();
    let mut costs = [0.0f64; MAX_LANES];
    // SAFETY: V's extension is active per this function's contract; every
    // lane load reads `j0 .. j0 + V::LANES` with `j0 + V::LANES <= limit
    // <= r_values.len()`, within `r_values` and the row's slices, and
    // `costs` holds MAX_LANES >= V::LANES elements.
    unsafe {
        let one = V::splat(1.0);
        let q = V::splat(grid.q);
        let one_minus_q = V::splat(grid.one_minus_q);
        let q_error_cost = V::splat(grid.q_error_cost);
        let probe_cost = V::splat(grid.probe_cost);
        for n in 1..=grid.n_max {
            if limit == 0 {
                break;
            }
            let (prefix, tail) = grid.row(n);
            let n_v = V::splat(n as f64);
            let mut j0 = 0;
            let mut cut = None;
            while j0 + V::LANES <= limit {
                if grid.floor_free(j0, n) >= record.bound {
                    cut = Some(j0);
                    break;
                }
                let r_plus_c = V::load(&grid.r_values[j0..]).add(probe_cost);
                let pi_n = V::load(&tail[j0..]);
                let numerator = r_plus_c
                    .mul(n_v)
                    .mul(one_minus_q)
                    .add(r_plus_c.mul(q).mul(V::load(&prefix[j0..])))
                    .add(q_error_cost.mul(pi_n));
                let bound = V::splat(record.bound);
                let mut lanes = V::lt_mask(numerator, bound);
                if lanes != 0 {
                    let cost = numerator.div(one.sub(q.mul(one.sub(pi_n))));
                    lanes &= V::lt_mask(cost, bound);
                    cost.store(&mut costs);
                    while lanes != 0 {
                        let l = lanes.trailing_zeros() as usize;
                        record.take(costs[l], (j0 + l) * grid.n_max + (n - 1));
                        lanes &= lanes - 1;
                    }
                }
                j0 += V::LANES;
            }
            limit = match cut {
                Some(j) => j,
                None => record.scan_row(grid, n, j0..limit),
            };
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
    (delay: f64, loss: f64, scale: f64, neg_rate: f64, cut: f64, ts: &mut [f64]));
instantiate!(survival_deterministic_avx2, survival_deterministic_avx512, survival_deterministic_body =>
    (delay: f64, survived: f64, ts: &mut [f64]));
instantiate!(survival_uniform_avx2, survival_uniform_avx512, survival_uniform_body =>
    (lo: f64, hi: f64, mass: f64, survived: f64, width: f64, ts: &mut [f64]));
instantiate!(survival_weibull_avx2, survival_weibull_avx512, survival_weibull_body =>
    (delay: f64, scale: f64, shape: f64, mass: f64, survived: f64, cut: f64, ts: &mut [f64]));
instantiate!(cost_block_pass_avx2, cost_block_pass_avx512, cost_block_pass_body =>
    (q: f64, one_minus_q: f64, q_error_cost: f64, r_plus_c: &'_ [f64], r_plus_c_q: &'_ [f64],
     n_max: usize, tables: &'_ [&'_ [f64]], costs: Option<&mut [f64]>, errors: Option<&mut [f64]>,
     pi_prefix: Option<&mut [f64]>, pi_n_out: Option<&mut [f64]>, row_stride: usize));
instantiate!(min_cost_grid_scan_avx2, min_cost_grid_scan_avx512, min_cost_grid_scan_body =>
    (grid: &Grid<'_>, record: &mut Record));
