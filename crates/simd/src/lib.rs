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
        { fill_scaled_scalar(scale, rs, out) }
    )
}

/// The scalar program of [`fill_scaled`]; the vector bodies run it on
/// the elements that do not fill a lane chunk.
pub(crate) fn fill_scaled_scalar(scale: f64, rs: &[f64], out: &mut [f64]) {
    for (t, &r) in out.iter_mut().zip(rs) {
        *t = scale * r;
    }
}

/// `xs[k] = xs[k].clamp(0.0, 1.0)` (NaN propagates, as with `f64::clamp`).
/// Returns the backend that ran.
pub fn clamp_unit(backend: Backend, xs: &mut [f64]) -> Backend {
    dispatch!(backend, clamp_unit_avx2(xs), clamp_unit_avx512(xs), {
        clamp_unit_scalar(xs)
    })
}

/// The scalar program of [`clamp_unit`]; the vector bodies run it on the
/// elements that do not fill a lane chunk.
pub(crate) fn clamp_unit_scalar(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = x.clamp(0.0, 1.0);
    }
}

/// `xs[k] = (xs[k] / base).clamp(0.0, 1.0)`. Returns the backend that ran.
pub fn div_clamp_unit(backend: Backend, base: f64, xs: &mut [f64]) -> Backend {
    dispatch!(
        backend,
        div_clamp_unit_avx2(base, xs),
        div_clamp_unit_avx512(base, xs),
        { div_clamp_unit_scalar(base, xs) }
    )
}

/// The scalar program of [`div_clamp_unit`]; the vector bodies run it on
/// the elements that do not fill a lane chunk.
pub(crate) fn div_clamp_unit_scalar(base: f64, xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = (*x / base).clamp(0.0, 1.0);
    }
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
        { weighted_accumulate_scalar(weight, src, acc) }
    )
}

/// The scalar program of [`weighted_accumulate`]; the vector bodies run it
/// on the elements that do not fill a lane chunk.
pub(crate) fn weighted_accumulate_scalar(weight: f64, src: &[f64], acc: &mut [f64]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += weight * s;
    }
}

/// The saturation cut of `loss + scale * exp(x)`: for every `x` below it
/// the sum rounds to `loss` exactly, so the survival kernels return `loss`
/// there without calling `exp`.
///
/// The cut is `ln(ulp(loss) / (8·scale)) − 1`, where `ulp(loss)` is the
/// gap from `loss` up to the next float. Below it `scale·e^x` is under
/// `ulp(loss) / (8e)`, about a 22nd of an ulp, while the sum only leaves
/// `loss` once the addend reaches half an ulp. So a skipped point keeps
/// its bits unless libm's `exp` there and its `ln` of the cut's argument
/// together overstate by a factor of about 10; both are accurate to a few
/// ulps. The cut is only taken when `loss` is normal with
/// `2^-1000 ≤ loss < 1` and `0 < scale ≤ 1`, which keeps the rounding of a
/// subnormal addend (at most `2^-1075`) far below half an ulp of `loss`;
/// otherwise it is `−∞` and nothing is skipped. A NaN exponent compares
/// false and still runs `exp`.
#[must_use]
pub fn saturation_cut(loss: f64, scale: f64) -> f64 {
    /// `2^-1000`, the smallest `loss` the cut is taken for.
    const MIN_LOSS: f64 = f64::from_bits((1023 - 1000) << 52);
    if !(loss.is_normal() && (MIN_LOSS..1.0).contains(&loss) && scale > 0.0 && scale <= 1.0) {
        return f64::NEG_INFINITY;
    }
    // Exact: both are floats of one binade (or its upper edge).
    let ulp = f64::from_bits(loss.to_bits() + 1) - loss;
    (ulp / (8.0 * scale)).ln() - 1.0
}

/// Defective-exponential survival over `ts` in place:
/// `1.0` before `delay`, else `loss + scale * exp(neg_rate * (t - delay))`,
/// with `exp` skipped below [`saturation_cut`]`(loss, scale)`, where the
/// sum is `loss` to the last bit. Returns the backend that ran.
pub fn survival_exponential(
    backend: Backend,
    delay: f64,
    loss: f64,
    scale: f64,
    neg_rate: f64,
    ts: &mut [f64],
) -> Backend {
    let cut = saturation_cut(loss, scale);
    dispatch!(
        backend,
        survival_exponential_avx2(delay, loss, scale, neg_rate, cut, ts),
        survival_exponential_avx512(delay, loss, scale, neg_rate, cut, ts),
        { survival_exponential_scalar(delay, loss, scale, neg_rate, cut, ts) }
    )
}

/// The scalar program of [`survival_exponential`]; the vector bodies run
/// it on the elements that do not fill a lane chunk.
pub(crate) fn survival_exponential_scalar(
    delay: f64,
    loss: f64,
    scale: f64,
    neg_rate: f64,
    cut: f64,
    ts: &mut [f64],
) {
    for t in ts.iter_mut() {
        *t = if *t < delay {
            1.0
        } else {
            let x = neg_rate * (*t - delay);
            if x < cut {
                loss
            } else {
                loss + scale * x.exp()
            }
        };
    }
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
        { survival_deterministic_scalar(delay, survived, ts) }
    )
}

/// The scalar program of [`survival_deterministic`]; the vector bodies run
/// it on the elements that do not fill a lane chunk.
pub(crate) fn survival_deterministic_scalar(delay: f64, survived: f64, ts: &mut [f64]) {
    for t in ts.iter_mut() {
        *t = if *t >= delay { survived } else { 1.0 };
    }
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
        { survival_uniform_scalar(lo, hi, mass, survived, width, ts) }
    )
}

/// The scalar program of [`survival_uniform`]; the vector bodies run it on
/// the elements that do not fill a lane chunk.
pub(crate) fn survival_uniform_scalar(
    lo: f64,
    hi: f64,
    mass: f64,
    survived: f64,
    width: f64,
    ts: &mut [f64],
) {
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

/// Defective-Weibull survival over `ts` in place: `1.0` before `delay`, else
/// `survived + mass * exp(-((t - delay) / scale).powf(shape))`, with `exp`
/// (not `powf`) skipped below [`saturation_cut`]`(survived, mass)`. Returns
/// the backend that ran.
pub fn survival_weibull(
    backend: Backend,
    delay: f64,
    scale: f64,
    shape: f64,
    mass: f64,
    survived: f64,
    ts: &mut [f64],
) -> Backend {
    let cut = saturation_cut(survived, mass);
    dispatch!(
        backend,
        survival_weibull_avx2(delay, scale, shape, mass, survived, cut, ts),
        survival_weibull_avx512(delay, scale, shape, mass, survived, cut, ts),
        { survival_weibull_scalar(delay, scale, shape, mass, survived, cut, ts) }
    )
}

/// The scalar program of [`survival_weibull`]; the vector bodies run it on
/// the elements that do not fill a lane chunk.
pub(crate) fn survival_weibull_scalar(
    delay: f64,
    scale: f64,
    shape: f64,
    mass: f64,
    survived: f64,
    cut: f64,
    ts: &mut [f64],
) {
    for t in ts.iter_mut() {
        *t = if *t < delay {
            1.0
        } else {
            let x = -((*t - delay) / scale).powf(shape);
            if x < cut {
                survived
            } else {
                survived + mass * x.exp()
            }
        };
    }
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
/// `costs` and `errors` are r-major: column `j` occupies
/// `out[j*n_max .. (j+1)*n_max]`. The statistic slabs `pi_prefix` and
/// `pi_n_out` are n-major rows of `row_stride` columns: column `j`'s
/// probe count `n` lands at `(n − 1)·row_stride + j`, so one probe round
/// of a lane chunk is one contiguous store, and a block that is a run of
/// columns of a wider grid writes its rows in place (pass the slabs from
/// the block's first column on, with the grid's width as the stride).
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
/// count, any table holds fewer than `n_max + 1` entries, a provided
/// cost or error slice is not exactly `tables.len() * n_max` long,
/// `row_stride` is below the column count, or a provided statistic slice
/// is shorter than `(n_max − 1)·row_stride + tables.len()`.
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
    row_stride: usize,
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
    for slice in [costs.as_deref(), errors.as_deref()].into_iter().flatten() {
        assert_eq!(
            slice.len(),
            cells,
            "cost_block_pass outputs must hold n_cols * n_max entries"
        );
    }
    assert!(
        row_stride >= n_cols,
        "cost_block_pass statistic rows must hold every column"
    );
    // The slab length a statistic slice must reach; no row index the
    // passes form can exceed it, so none overflows.
    let rows = if cells == 0 {
        Some(0)
    } else {
        (n_max - 1)
            .checked_mul(row_stride)
            .and_then(|span| span.checked_add(n_cols))
    };
    assert!(
        rows.is_some(),
        "cost_block_pass statistic rows overflow usize"
    );
    let rows = rows.unwrap_or(usize::MAX);
    for slice in [pi_prefix.as_deref(), pi_n_out.as_deref()]
        .into_iter()
        .flatten()
    {
        assert!(
            slice.len() >= rows,
            "cost_block_pass statistic slabs must reach the last row's last column"
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
            pi_n_out,
            row_stride
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
            pi_n_out,
            row_stride
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
                row_stride,
            );
        }
    )
}

/// The normative scalar program of [`cost_block_pass`], and the only
/// scalar copy of the Eq. (3)/(4) column pass: one single pass per column,
/// threading a `0.0`-seeded running π prefix down the column. Every vector
/// body replays exactly this association per lane and runs this function
/// itself on the columns that do not fill a lane chunk.
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
    row_stride: usize,
) {
    for (j, table) in tables.iter().enumerate() {
        let base = j * n_max;
        let mut prefix_sum = 0.0f64;
        for i in 1..=n_max {
            prefix_sum += table[i - 1];
            let pi_n = table[i];
            let at = base + (i - 1);
            let row_at = (i - 1) * row_stride + j;
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
                prefix[row_at] = prefix_sum;
            }
            if let Some(tail) = pi_n_out.as_deref_mut() {
                tail[row_at] = pi_n;
            }
        }
    }
}

/// One parameter point's selection scan: its economics and the n-major
/// statistic grid. Row `n` of `prefix`/`tail` holds every column's
/// `Σ_{i<n} π_i` and `π_n`, column `j` listening for `r_values[j]`.
pub(crate) struct Grid<'a> {
    pub(crate) q: f64,
    pub(crate) one_minus_q: f64,
    pub(crate) q_error_cost: f64,
    pub(crate) probe_cost: f64,
    pub(crate) n_max: usize,
    pub(crate) r_values: &'a [f64],
    /// `r_floor[j]`: the smallest `r` at or after column `j`.
    pub(crate) r_floor: &'a [f64],
    pub(crate) prefix: &'a [f64],
    pub(crate) tail: &'a [f64],
}

impl<'a> Grid<'a> {
    /// Row `n`'s `Σ_{i<n} π_i` and `π_n`, one element per column.
    #[inline(always)]
    pub(crate) fn row(&self, n: usize) -> (&'a [f64], &'a [f64]) {
        let columns = self.r_values.len();
        let span = (n - 1) * columns..n * columns;
        (&self.prefix[span.clone()], &self.tail[span])
    }

    /// The free-probing term `(r + c)·n·(1 − q)` at the smallest `r` at
    /// or after column `j`: a float lower bound on the numerator of every
    /// cell of row `n` from column `j` on, and of every later row too.
    #[inline(always)]
    pub(crate) fn floor_free(&self, j: usize, n: usize) -> f64 {
        (self.r_floor[j] + self.probe_cost) * n as f64 * self.one_minus_q
    }
}

/// The record of a `min_cost_cell` scan: the lexicographic minimum of
/// (cost, r-major flat index) over the finite-cost cells taken so far,
/// and the bound a cell's numerator must stay under to be looked at.
pub(crate) struct Record {
    /// `next_up` of `cost`, or the caller's starting bound until a cell
    /// is taken. A cell whose numerator reaches it costs strictly more
    /// than `cost` (the denominator never exceeds 1), so it can neither
    /// win nor tie.
    pub(crate) bound: f64,
    /// The cheapest finite cost taken so far; `+∞` before the first.
    pub(crate) cost: f64,
    /// The r-major flat index `j·n_max + (n − 1)` of the cell that set
    /// `cost`; `usize::MAX` before the first.
    pub(crate) at: usize,
}

impl Record {
    /// Offers the cell at r-major flat index `at` with cost `cost`: it is
    /// taken when its cost is finite and under the bound, and either
    /// cheaper than the record or as cheap and earlier in r-major order.
    /// So the record is always the lexicographic minimum of (cost, `at`)
    /// over the finite-cost cells offered under the starting bound,
    /// whatever order they are offered in — the strict-`<`,
    /// first-in-storage pick of the r-major scalar scan. NaN and `+∞`
    /// costs never win.
    #[inline(always)]
    pub(crate) fn take(&mut self, cost: f64, at: usize) {
        if cost.is_finite() && cost < self.bound && (cost < self.cost || at < self.at) {
            self.cost = cost;
            self.at = at;
            self.bound = cost.next_up();
        }
    }

    /// The normative scalar selection program over columns `js` of row
    /// `n`; the vector bodies run it on the columns that do not fill a
    /// lane chunk, and form each chunk's numerators and costs with its
    /// operations in its order.
    ///
    /// Returns the column at which the row's tail was cut, or `js.end`:
    /// once [`Grid::floor_free`] reaches the bound, no cell of this row at
    /// or after that column can be taken, nor can one of a later row. A
    /// numerator at or above the bound is passed over without the
    /// division; the denominator `1 − q·(1 − π_n)` never exceeds 1, so
    /// such a cell costs at least the bound.
    #[inline(always)]
    pub(crate) fn scan_row(
        &mut self,
        grid: &Grid<'_>,
        n: usize,
        js: std::ops::Range<usize>,
    ) -> usize {
        let (prefix, tail) = grid.row(n);
        for j in js.clone() {
            if grid.floor_free(j, n) >= self.bound {
                return j;
            }
            let r_plus_c = grid.r_values[j] + grid.probe_cost;
            let free_probing = r_plus_c * n as f64 * grid.one_minus_q;
            let pi_n = tail[j];
            let numerator = free_probing + r_plus_c * grid.q * prefix[j] + grid.q_error_cost * pi_n;
            if numerator < self.bound {
                let cost = numerator / (1.0 - grid.q * (1.0 - pi_n));
                self.take(cost, j * grid.n_max + (n - 1));
            }
        }
        js.end
    }

    /// The scalar program of [`min_cost_grid_scan`]: every row in turn,
    /// each up to the column where the previous row's tail was cut.
    fn scan_grid(&mut self, grid: &Grid<'_>) {
        let mut limit = grid.r_values.len();
        for n in 1..=grid.n_max {
            if limit == 0 {
                break;
            }
            limit = self.scan_row(grid, n, 0..limit);
        }
    }
}

/// The `min_cost_cell` scan over a whole n-major statistic grid, in one
/// dispatch: row `n − 1` of `prefix`/`tail` holds every column's
/// `Σ_{i<n} π_i` and `π_n`, column `j` listening for `r_values[j]`.
/// Returns `(j, n, cost)` of the cheapest finite-cost cell whose cost is
/// under `bound`, if any; ties go to the cell first in r-major order
/// (`j·n_max + (n − 1)`), as the r-major strict-`<` scan picks them.
///
/// **Row filter.** The rows run `n = 1, 2, …`; the vector tiers form the
/// numerators of `LANES` columns per operation, divide a lane chunk only
/// when some lane's numerator is under the bound, and offer only those
/// lanes to the scalar program's record update. The bound starts at the
/// caller's and drops to `next_up` of each cost taken, so a cell passed
/// over costs strictly more than the record.
///
/// **Row stops.** `r_floor[j]` must be the smallest `r` at or after
/// column `j`. Row `n` ends at the first column `j` where
/// `(r_floor[j] + c)·n·(1 − q)` reaches the bound, and no later row goes
/// past that column. `fl(r + c)` is monotone in `r`, and so are its
/// products with `n` and with `1 − q ≥ 0` (every occupancy `q ≤ 1`), so
/// every cell at or after column `j`, in this row or a later one, has a
/// free-probing term at least that large; the other addends of its
/// numerator are non-negative, and the bound only falls. A stop at
/// column 0 ends the scan.
///
/// A `bound` strictly above the true minimum (`next_up` of a real cell's
/// cost: a warm start) selects the same cell as `+∞`: the bound stays
/// above the minimum throughout, so the winning cell is always looked at.
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
    bound: f64,
) -> Option<(usize, usize, f64)> {
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
    let grid = Grid {
        q: terms.q,
        one_minus_q: terms.one_minus_q,
        q_error_cost: terms.q_error_cost,
        probe_cost,
        n_max,
        r_values,
        r_floor,
        prefix,
        tail,
    };
    let mut record = Record {
        bound,
        cost: f64::INFINITY,
        at: usize::MAX,
    };
    dispatch!(
        backend,
        min_cost_grid_scan_avx2(&grid, &mut record),
        min_cost_grid_scan_avx512(&grid, &mut record),
        { record.scan_grid(&grid) }
    );
    (record.at != usize::MAX).then(|| (record.at / n_max, record.at % n_max + 1, record.cost))
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
