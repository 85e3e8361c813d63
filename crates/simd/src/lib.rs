//! Runtime-dispatched f64 lane kernels for the zeroconf cost model.
//!
//! This crate owns the workspace's only explicit SIMD: a small
//! `f64x4`/`f64x8` lane abstraction (see `lanes.rs`) instantiated for AVX2 and
//! AVX-512F via `std::arch`, with a portable scalar fallback on every other
//! target. The public functions here are all *safe*: each one re-checks the
//! requested [`Backend`] against the CPU's actual capabilities (cached
//! `is_x86_feature_detected!` probes) before entering an `unsafe`
//! feature-gated instantiation, and degrades to the scalar reference loop
//! otherwise. The scalar loops in this file are the normative programs — the
//! vector bodies replicate their operation order, so every backend is
//! `to_bits`-identical (proven by the parity suites in `crates/dist` and
//! `crates/core`). No body fuses or reassociates: each pass has one float
//! program, whichever backend runs it.

#![deny(unsafe_op_in_unsafe_fn)]

mod lanes;

use std::sync::OnceLock;

/// The instruction tier a kernel actually ran with.
///
/// Ordered so that `min` over a set of observations yields the weakest tier
/// that participated — the engine uses this to surface silent scalar
/// fallbacks in its stats block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Backend {
    /// Portable scalar reference loops.
    Scalar = 0,
    /// 4-lane `__m256d` (requires AVX2).
    Avx2 = 1,
    /// 8-lane `__m512d` (requires AVX-512F).
    Avx512 = 2,
}

impl Backend {
    /// Probe the CPU once and return the widest supported tier.
    pub fn detect() -> Backend {
        static DETECTED: OnceLock<Backend> = OnceLock::new();
        *DETECTED.get_or_init(Self::probe)
    }

    #[cfg(target_arch = "x86_64")]
    fn probe() -> Backend {
        if std::arch::is_x86_feature_detected!("avx512f") {
            Backend::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn probe() -> Backend {
        Backend::Scalar
    }

    /// Stable lowercase label used in stats blocks and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Recover a backend from its `repr(u8)` discriminant (for atomics).
    pub fn from_u8(raw: u8) -> Backend {
        match raw {
            2 => Backend::Avx512,
            1 => Backend::Avx2,
            _ => Backend::Scalar,
        }
    }

    /// Clamp a requested tier to what the CPU can actually run.
    ///
    /// This is what makes the public kernels safe: no matter what a caller
    /// asks for, dispatch never exceeds the detected tier.
    fn effective(self) -> Backend {
        self.min(Self::detect())
    }
}

/// The kernel-selection policy: the engine runs the widest tier the CPU
/// has, and `perfbench`'s replay resolves its backend through this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// The widest detected tier (scalar on hosts with neither AVX2 nor
    /// AVX-512).
    Auto,
}

impl KernelChoice {
    /// Resolve the policy to a concrete backend: [`Backend::detect`].
    pub fn resolve(self) -> Backend {
        match self {
            KernelChoice::Auto => Backend::detect(),
        }
    }
}

/// The per-column scenario constants consumed by the selection scan;
/// mirrors `ScenarioFactors` plus the per-column `r + probe_cost` hoists
/// from `crates/core`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnTerms {
    /// Collision probability `q`.
    pub q: f64,
    /// `1 - q`.
    pub one_minus_q: f64,
    /// `q * error_cost`.
    pub q_error_cost: f64,
    /// `r + probe_cost` for this column.
    pub r_plus_c: f64,
    /// `(r + probe_cost) * q` for this column.
    pub r_plus_c_q: f64,
}

macro_rules! dispatch {
    ($backend:expr, $avx2:ident($($a2:expr),*), $avx512:ident($($a5:expr),*), $scalar:block) => {
        match $backend.effective() {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                // SAFETY: `effective` only returns Avx2 after
                // `is_x86_feature_detected!` confirmed AVX2, which is exactly
                // the instantiation's contract.
                unsafe { lanes::$avx2($($a2),*) };
                Backend::Avx2
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                // SAFETY: `effective` only returns Avx512 after
                // `is_x86_feature_detected!` confirmed AVX-512F, which is
                // exactly the instantiation's contract.
                unsafe { lanes::$avx512($($a5),*) };
                Backend::Avx512
            }
            _ => {
                $scalar
                Backend::Scalar
            }
        }
    };
}

/// `out[k] = scale * rs[k]`. Returns the backend that ran.
///
/// # Panics
/// When `rs` and `out` differ in length.
pub fn fill_scaled(backend: Backend, scale: f64, rs: &[f64], out: &mut [f64]) -> Backend {
    assert_eq!(
        rs.len(),
        out.len(),
        "fill_scaled slices must share a length"
    );
    dispatch!(
        backend,
        fill_scaled_avx2(scale, rs, out),
        fill_scaled_avx512(scale, rs, out),
        {
            for (t, &r) in out.iter_mut().zip(rs) {
                *t = scale * r;
            }
        }
    )
}

/// `xs[k] = xs[k].clamp(0.0, 1.0)` (NaN propagates, as with `f64::clamp`).
/// Returns the backend that ran.
pub fn clamp_unit(backend: Backend, xs: &mut [f64]) -> Backend {
    dispatch!(backend, clamp_unit_avx2(xs), clamp_unit_avx512(xs), {
        for x in xs.iter_mut() {
            *x = x.clamp(0.0, 1.0);
        }
    })
}

/// `xs[k] = (xs[k] / base).clamp(0.0, 1.0)`. Returns the backend that ran.
pub fn div_clamp_unit(backend: Backend, base: f64, xs: &mut [f64]) -> Backend {
    dispatch!(
        backend,
        div_clamp_unit_avx2(base, xs),
        div_clamp_unit_avx512(base, xs),
        {
            for x in xs.iter_mut() {
                *x = (*x / base).clamp(0.0, 1.0);
            }
        }
    )
}

/// `acc[k] += weight * src[k]`. Returns the backend that ran.
///
/// # Panics
/// When `acc` and `src` differ in length.
pub fn weighted_accumulate(backend: Backend, weight: f64, src: &[f64], acc: &mut [f64]) -> Backend {
    assert_eq!(
        acc.len(),
        src.len(),
        "weighted_accumulate slices must share a length"
    );
    dispatch!(
        backend,
        weighted_accumulate_avx2(weight, src, acc),
        weighted_accumulate_avx512(weight, src, acc),
        {
            for (a, &s) in acc.iter_mut().zip(src) {
                *a += weight * s;
            }
        }
    )
}

/// Defective-exponential survival over `ts` in place:
/// `1.0` before `delay`, else `loss + scale * exp(neg_rate * (t - delay))`.
/// Returns the backend that ran.
pub fn survival_exponential(
    backend: Backend,
    delay: f64,
    loss: f64,
    scale: f64,
    neg_rate: f64,
    ts: &mut [f64],
) -> Backend {
    dispatch!(
        backend,
        survival_exponential_avx2(delay, loss, scale, neg_rate, ts),
        survival_exponential_avx512(delay, loss, scale, neg_rate, ts),
        {
            for t in ts.iter_mut() {
                *t = if *t < delay {
                    1.0
                } else {
                    loss + scale * (neg_rate * (*t - delay)).exp()
                };
            }
        }
    )
}

/// Deterministic (point-mass) survival over `ts` in place:
/// `survived` once `t >= delay`, else `1.0`. Returns the backend that ran.
pub fn survival_deterministic(
    backend: Backend,
    delay: f64,
    survived: f64,
    ts: &mut [f64],
) -> Backend {
    dispatch!(
        backend,
        survival_deterministic_avx2(delay, survived, ts),
        survival_deterministic_avx512(delay, survived, ts),
        {
            for t in ts.iter_mut() {
                *t = if *t >= delay { survived } else { 1.0 };
            }
        }
    )
}

/// Uniform survival over `ts` in place: `1.0` below `lo`, `survived` at/above
/// `hi`, linear in between. Returns the backend that ran.
pub fn survival_uniform(
    backend: Backend,
    lo: f64,
    hi: f64,
    mass: f64,
    survived: f64,
    width: f64,
    ts: &mut [f64],
) -> Backend {
    dispatch!(
        backend,
        survival_uniform_avx2(lo, hi, mass, survived, width, ts),
        survival_uniform_avx512(lo, hi, mass, survived, width, ts),
        {
            for t in ts.iter_mut() {
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
    )
}

/// Defective-Weibull survival over `ts` in place: `1.0` before `delay`, else
/// `survived + mass * exp(-((t - delay) / scale).powf(shape))`. Returns the
/// backend that ran.
pub fn survival_weibull(
    backend: Backend,
    delay: f64,
    scale: f64,
    shape: f64,
    mass: f64,
    survived: f64,
    ts: &mut [f64],
) -> Backend {
    dispatch!(
        backend,
        survival_weibull_avx2(delay, scale, shape, mass, survived, ts),
        survival_weibull_avx512(delay, scale, shape, mass, survived, ts),
        {
            for t in ts.iter_mut() {
                *t = if *t < delay {
                    1.0
                } else {
                    let hazard = ((*t - delay) / scale).powf(shape);
                    survived + mass * (-hazard).exp()
                };
            }
        }
    )
}

/// The scenario-constant (broadcast) factors of the column-parallel
/// blocked pass [`cost_block_pass`] and of [`min_cost_grid_scan`]; the
/// per-column `r + c` terms travel as slices (or are formed per column)
/// instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTerms {
    /// Collision probability `q`.
    pub q: f64,
    /// `1 - q`.
    pub one_minus_q: f64,
    /// `q * error_cost`.
    pub q_error_cost: f64,
}

/// Column-parallel cost/error pass over a whole block of π-tables: `LANES`
/// columns advance in lockstep, one probe round per step, with lane `j`
/// running *exactly* the scalar per-column program of
/// `cost_block_pass_scalar` — its own `0.0`-seeded left-fold π prefix and
/// the same operation association — so every backend stays
/// `to_bits`-identical while the serially-dependent prefix chain is
/// amortized across `LANES` independent columns. A block of one column is
/// the single-column pass.
///
/// Outputs are r-major: column `j` occupies `out[j*n_max .. (j+1)*n_max]`.
/// Returns the backend that ran.
///
/// Once every column of a chunk reaches the π-tables' exact-zero tail,
/// the vector tiers switch to a drain loop that pays one division per
/// round instead of two and skips the gathers — an algebraic collapse
/// (`q·0/d = +0.0`, `x + q_error_cost·0 = x`, `1 − q·(1 − 0) = 1 − q`)
/// that moves no bits. The drain leans on π-table structure: entries in
/// `[0, 1]`, nonincreasing per column, zero tails exact (`NaN` entries —
/// which only a caller violating the π contract can produce — are
/// detected and keep the full per-round program instead).
///
/// # Panics
/// When `r_plus_c`, `r_plus_c_q`, and `tables` disagree on the column
/// count, any table holds fewer than `n_max + 1` entries, or a provided
/// output slice is not exactly `tables.len() * n_max` long.
#[allow(clippy::too_many_arguments)]
pub fn cost_block_pass(
    backend: Backend,
    terms: BlockTerms,
    r_plus_c: &[f64],
    r_plus_c_q: &[f64],
    n_max: usize,
    tables: &[&[f64]],
    costs: Option<&mut [f64]>,
    errors: Option<&mut [f64]>,
    pi_prefix: Option<&mut [f64]>,
    pi_n_out: Option<&mut [f64]>,
) -> Backend {
    let n_cols = tables.len();
    assert_eq!(
        r_plus_c.len(),
        n_cols,
        "cost_block_pass needs one r + c per column"
    );
    assert_eq!(
        r_plus_c_q.len(),
        n_cols,
        "cost_block_pass needs one (r + c)q per column"
    );
    for table in tables {
        assert!(
            table.len() > n_max,
            "cost_block_pass tables need n_max + 1 entries"
        );
    }
    let cells = n_cols * n_max;
    for slice in [
        costs.as_deref(),
        errors.as_deref(),
        pi_prefix.as_deref(),
        pi_n_out.as_deref(),
    ]
    .into_iter()
    .flatten()
    {
        assert_eq!(
            slice.len(),
            cells,
            "cost_block_pass outputs must hold n_cols * n_max entries"
        );
    }
    let BlockTerms {
        q,
        one_minus_q,
        q_error_cost,
    } = terms;
    dispatch!(
        backend,
        cost_block_pass_avx2(
            q,
            one_minus_q,
            q_error_cost,
            r_plus_c,
            r_plus_c_q,
            n_max,
            tables,
            costs,
            errors,
            pi_prefix,
            pi_n_out
        ),
        cost_block_pass_avx512(
            q,
            one_minus_q,
            q_error_cost,
            r_plus_c,
            r_plus_c_q,
            n_max,
            tables,
            costs,
            errors,
            pi_prefix,
            pi_n_out
        ),
        {
            cost_block_pass_scalar(
                q,
                one_minus_q,
                q_error_cost,
                r_plus_c,
                r_plus_c_q,
                n_max,
                tables,
                costs,
                errors,
                pi_prefix,
                pi_n_out,
            );
        }
    )
}

/// The normative scalar program of [`cost_block_pass`], and the only
/// scalar copy of the Eq. (3)/(4) column pass: one single pass per column,
/// threading a `0.0`-seeded running π prefix down the column, r-major.
/// Every vector body replays exactly this association per lane and runs
/// this function itself on the columns that do not fill a lane chunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cost_block_pass_scalar(
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
    for (j, table) in tables.iter().enumerate() {
        let base = j * n_max;
        let mut prefix_sum = 0.0f64;
        for i in 1..=n_max {
            prefix_sum += table[i - 1];
            let pi_n = table[i];
            let at = base + (i - 1);
            let denominator = 1.0 - q * (1.0 - pi_n);
            if let Some(costs) = costs.as_deref_mut() {
                let free_address_probing = r_plus_c[j] * i as f64 * one_minus_q;
                let occupied_address_probing = r_plus_c_q[j] * prefix_sum;
                let collision_penalty = q_error_cost * pi_n;
                costs[at] = (free_address_probing + occupied_address_probing + collision_penalty)
                    / denominator;
            }
            if let Some(errors) = errors.as_deref_mut() {
                errors[at] = q * pi_n / denominator;
            }
            if let Some(prefix) = pi_prefix.as_deref_mut() {
                prefix[at] = prefix_sum;
            }
            if let Some(tail) = pi_n_out.as_deref_mut() {
                tail[at] = pi_n;
            }
        }
    }
}

/// The strict-`<` record of a `min_cost_cell` scan: the cheapest finite
/// cost met so far (or the caller's starting bound) and the flat index of
/// the cell that set it.
pub(crate) struct Record {
    pub(crate) incumbent: f64,
    pub(crate) best: Option<usize>,
}

impl Record {
    /// The normative scalar selection program over elements `ks` of one
    /// column (`prefix`/`tail` are the column's slices; element `k` is
    /// probe count `n = k + 1`, flat index `base + k`). Every backend
    /// replays exactly this program on the cells it cannot rule out.
    ///
    /// Returns `false` once the free-probing term reaches the incumbent:
    /// it is a float lower bound on the numerator (the other addends are
    /// non-negative) and weakly increasing in `n`, so no later element of
    /// the column can win. A numerator at or above the incumbent loses
    /// without the division, because the denominator `1 − q·(1 − π_n)`
    /// never exceeds 1. NaN and `+∞` costs fail the `<` and never win.
    #[inline(always)]
    pub(crate) fn scan(
        &mut self,
        terms: &ColumnTerms,
        prefix: &[f64],
        tail: &[f64],
        ks: std::ops::Range<usize>,
        base: usize,
    ) -> bool {
        for at in ks {
            let free_probing = terms.r_plus_c * (at + 1) as f64 * terms.one_minus_q;
            if free_probing >= self.incumbent {
                return false;
            }
            let pi_n = tail[at];
            let numerator =
                free_probing + terms.r_plus_c_q * prefix[at] + terms.q_error_cost * pi_n;
            if numerator < self.incumbent {
                let denominator = 1.0 - terms.q * (1.0 - pi_n);
                let cost = numerator / denominator;
                if cost.is_finite() && cost < self.incumbent {
                    self.incumbent = cost;
                    self.best = Some(base + at);
                }
            }
        }
        true
    }
}

/// The `min_cost_cell` scan over a whole r-major statistic grid, in one
/// dispatch: the column loop runs inside the scalar, AVX2 or AVX-512
/// body. Column `j` listens for `r_values[j]` and holds elements
/// `j·n_max .. (j+1)·n_max` of `prefix`/`tail` (element `k` of a column
/// is probe count `n = k + 1`). Returns the flat index of the cheapest
/// finite-cost cell strictly below `incumbent`, if any, plus the final
/// incumbent; ties keep the first cell in storage order.
///
/// Selection is `to_bits`-faithful to the scalar record scan on every
/// backend: the vector pass only skips lane chunks whose numerators all
/// fail the incumbent test, and replays the rest with the scalar program
/// (see `lanes::min_cost_grid_scan_body`).
///
/// **Column stop.** `r_floor[j]` must be the smallest `r` at or after
/// column `j`. The scan ends before column `j` once
/// `(r_floor[j] + c)·(1 − q)` reaches the incumbent. `fl(r + c)` is
/// monotone in `r`, and so is its product with `1 − q ≥ 0` (every
/// occupancy `q ≤ 1`), so every later column's `n = 1` free-probing term
/// `(r + c)·1·(1 − q)` is at least as large: each of those columns would
/// exit at its first element without touching the incumbent. The stop is
/// therefore exact for sorted and unsorted `r` alike; for a sorted grid
/// `r_floor` is `r_values` itself.
///
/// Starting from a finite `incumbent` above the true minimum (a
/// warm-start bound) selects the same cell as starting from `+∞`: the
/// first cell attaining the minimum still beats every incumbent the scan
/// can hold when it gets there.
///
/// # Panics
/// When `r_floor` and `r_values` differ in length, or `prefix`/`tail` do
/// not hold `r_values.len() · n_max` elements each.
#[allow(clippy::too_many_arguments)]
pub fn min_cost_grid_scan(
    backend: Backend,
    terms: BlockTerms,
    probe_cost: f64,
    r_values: &[f64],
    r_floor: &[f64],
    n_max: usize,
    prefix: &[f64],
    tail: &[f64],
    incumbent: f64,
) -> (Option<usize>, f64) {
    assert_eq!(
        r_floor.len(),
        r_values.len(),
        "min_cost_grid_scan needs one r floor per column"
    );
    let cells = r_values.len() * n_max;
    assert_eq!(
        prefix.len(),
        cells,
        "min_cost_grid_scan π-prefix slab must hold every cell"
    );
    assert_eq!(
        tail.len(),
        cells,
        "min_cost_grid_scan π_n slab must hold every cell"
    );
    let BlockTerms {
        q,
        one_minus_q,
        q_error_cost,
    } = terms;
    let mut record = Record {
        incumbent,
        best: None,
    };
    dispatch!(
        backend,
        min_cost_grid_scan_avx2(
            q,
            one_minus_q,
            q_error_cost,
            probe_cost,
            r_values,
            r_floor,
            n_max,
            prefix,
            tail,
            &mut record
        ),
        min_cost_grid_scan_avx512(
            q,
            one_minus_q,
            q_error_cost,
            probe_cost,
            r_values,
            r_floor,
            n_max,
            prefix,
            tail,
            &mut record
        ),
        {
            for (j, (&r, &floor)) in r_values.iter().zip(r_floor).enumerate() {
                if (floor + probe_cost) * one_minus_q >= record.incumbent {
                    break;
                }
                let r_plus_c = r + probe_cost;
                let column = ColumnTerms {
                    q,
                    one_minus_q,
                    q_error_cost,
                    r_plus_c,
                    r_plus_c_q: r_plus_c * q,
                };
                let span = j * n_max..(j + 1) * n_max;
                record.scan(
                    &column,
                    &prefix[span.clone()],
                    &tail[span],
                    0..n_max,
                    j * n_max,
                );
            }
        }
    );
    (record.best, record.incumbent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64).sin().abs() * 3.0 - 0.5)
            .collect()
    }

    fn backends() -> Vec<Backend> {
        let mut tiers = vec![Backend::Scalar];
        if Backend::detect() >= Backend::Avx2 {
            tiers.push(Backend::Avx2);
        }
        if Backend::detect() >= Backend::Avx512 {
            tiers.push(Backend::Avx512);
        }
        tiers
    }

    #[test]
    fn backend_ordering_reflects_capability_tiers() {
        assert!(Backend::Scalar < Backend::Avx2);
        assert!(Backend::Avx2 < Backend::Avx512);
        for tier in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            assert_eq!(Backend::from_u8(tier as u8), tier);
        }
    }

    #[test]
    fn kernel_choice_resolves_to_the_detected_tier() {
        assert_eq!(KernelChoice::Auto.resolve(), Backend::detect());
    }

    #[test]
    fn requesting_more_than_the_cpu_has_degrades_gracefully() {
        let mut xs = inputs(7);
        let used = clamp_unit(Backend::Avx512, &mut xs);
        assert!(used <= Backend::detect());
        for &x in &xs {
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn elementwise_kernels_match_scalar_bit_for_bit() {
        for backend in backends() {
            for len in 0..=19 {
                let rs = inputs(len);
                let mut scalar_out = vec![0.0; len];
                let mut simd_out = vec![0.0; len];
                fill_scaled(Backend::Scalar, 3.5, &rs, &mut scalar_out);
                fill_scaled(backend, 3.5, &rs, &mut simd_out);
                assert_bits_eq(&scalar_out, &simd_out);

                let mut scalar_clamped = rs.clone();
                let mut simd_clamped = rs.clone();
                clamp_unit(Backend::Scalar, &mut scalar_clamped);
                clamp_unit(backend, &mut simd_clamped);
                assert_bits_eq(&scalar_clamped, &simd_clamped);

                let mut scalar_div = rs.clone();
                let mut simd_div = rs.clone();
                div_clamp_unit(Backend::Scalar, 0.75, &mut scalar_div);
                div_clamp_unit(backend, 0.75, &mut simd_div);
                assert_bits_eq(&scalar_div, &simd_div);

                let mut scalar_acc = inputs(len);
                let mut simd_acc = scalar_acc.clone();
                weighted_accumulate(Backend::Scalar, 0.3, &rs, &mut scalar_acc);
                weighted_accumulate(backend, 0.3, &rs, &mut simd_acc);
                assert_bits_eq(&scalar_acc, &simd_acc);
            }
        }
    }

    #[test]
    fn clamp_propagates_nan_and_signed_zero_like_scalar_clamp() {
        for backend in backends() {
            let mut xs = vec![f64::NAN, -0.0, 0.0, 1.5, -2.0, f64::INFINITY, 0.25, 0.75];
            clamp_unit(backend, &mut xs);
            assert!(xs[0].is_nan(), "{backend:?} must propagate NaN");
            assert_eq!(xs[1].to_bits(), (-0.0f64).clamp(0.0, 1.0).to_bits());
            assert_eq!(xs[3], 1.0);
            assert_eq!(xs[4], 0.0);
            assert_eq!(xs[5], 1.0);
        }
    }

    fn assert_bits_eq(expected: &[f64], got: &[f64]) {
        assert_eq!(expected.len(), got.len());
        for (i, (e, g)) in expected.iter().zip(got).enumerate() {
            assert!(
                e.to_bits() == g.to_bits(),
                "lane {i}: expected {e:?} ({:#x}), got {g:?} ({:#x})",
                e.to_bits(),
                g.to_bits()
            );
        }
    }
}
