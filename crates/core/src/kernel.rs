//! The π-table → C/E/statistic column pass behind landscape sweeps.
//!
//! Every consumer of the closed forms evaluates them over *columns*: all
//! probe counts `n = 1..=n_max` at one listening period `r`. Evaluated
//! per cell through [`crate::cost::mean_cost_from_pis`], each `n`
//! re-sums the π prefix `Σ_{i<n} π_i(r)` from scratch — `O(n_max²)`
//! floating-point additions per column. [`ColumnBlockKernel`] walks each column once
//! instead. Its one scalar program, `zeroconf_simd::cost_block_pass_scalar`,
//! threads a *running* prefix sum down the column and hoists every
//! scenario-constant factor (`q`, `1 − q`, `q·E`, and the per-column
//! `r + c`, `(r + c)·q`) out of the loop, emitting `C(n, r)` and
//! `E(n, r)` for the whole column in `O(n_max)` — a ~`n_max/2`-fold
//! arithmetic reduction (100× at the paper's `n_max = 200` grids). The
//! AVX2 and AVX-512 lane bodies run that same program on 4 or 8 columns
//! in lockstep; a single column is simply a block of width 1.
//!
//! # Bit-identity
//!
//! The pass is **bit-identical** to the per-`n` evaluators, not merely
//! close, because it performs the *same float operations in the same
//! order*:
//!
//! - `pis[..n].iter().sum::<f64>()` folds left-to-right from `0.0`:
//!   `((0.0 + π_0) + π_1) + … + π_{n−1}`. The pass's running sum starts
//!   at `0.0` and adds `π_{n−1}` on the step that evaluates `n`, so after
//!   that step it holds exactly the same chain of additions — IEEE-754
//!   operations are deterministic, so the bits agree for every `n`.
//! - Each hoisted product mirrors the left-associated grouping of the
//!   per-`n` arithmetic: `(r+c)·q·Σ` is `((r+c)·q)·Σ` in both paths, and
//!   `q·E·π_n` is `(q·E)·π_n`, so factoring `(r+c)·q` and `q·E` out of
//!   the loop changes no intermediate value.
//!
//! A statistic build can skip the π-tables altogether:
//! [`ColumnBlockKernel::fused_statistic_rows`] writes the n-major rows
//! `(Σ_{i<n} π_i, π_n)` from the π construction's running products, with
//! the same float operations in the same order as the table build
//! followed by the block pass, so the bits are the same.
//!
//! The golden tests and two seeded property suites assert this with
//! [`f64::to_bits`] comparisons, on every backend the host has, in every
//! `cargo test`: `crates/core/tests/kernel_properties.rs` (`n_max` up to
//! 256, subnormal-adjacent `r`, oversized cached tables, blocks of width
//! 1 to 17) and `param_properties.rs` (all six reply-time families);
//! `param_properties.rs` and `kernel_backend_parity.rs` hold the fused
//! rows to `statistic_rows` over `pi_tables`.

use std::sync::atomic::{AtomicU8, Ordering};

use zeroconf_dist::noanswer;
pub use zeroconf_simd::Backend;
use zeroconf_simd::BlockTerms;

use crate::cost::{check_n, check_r};
use crate::{CostError, Scenario};

/// The scenario-constant factors of Eq. (3)/(4), hoisted once.
///
/// Every evaluator of the closed forms needs the same four products of
/// scenario parameters; this is the *single* place they are computed, so
/// the column pass, the parametric reconstruction and the reporting code
/// share one hoist instead of three copies. Each field is
/// exactly the expression the per-`n` arithmetic evaluates inline
/// (`1 − q`, `q·E`), so routing through the struct changes no bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioFactors {
    /// Occupancy `q`.
    pub q: f64,
    /// `1 − q`, the free-address weight of Eq. (3)'s numerator.
    pub one_minus_q: f64,
    /// `q·E`, the collision-penalty factor (left-associated `q·E·π_n`).
    pub q_error_cost: f64,
    /// Probe postage `c` (joins `r` per column as `r + c`).
    pub probe_cost: f64,
    /// Collision penalty `E` alone (reporting, asymptotes).
    pub error_cost: f64,
}

impl ScenarioFactors {
    /// Hoists `q`, `1 − q`, `q·E`, `c` and `E` from the scenario.
    #[must_use]
    pub fn new(scenario: &Scenario) -> ScenarioFactors {
        let q = scenario.occupancy();
        ScenarioFactors {
            q,
            one_minus_q: 1.0 - q,
            q_error_cost: q * scenario.error_cost(),
            probe_cost: scenario.probe_cost(),
            error_cost: scenario.error_cost(),
        }
    }
}

/// The rounding discipline of [`ColumnBlockKernel::with_backend`].
///
/// There is one: every backend performs the scalar program's operations
/// in the scalar program's order, so results are `to_bits`-identical
/// across backends. The parameter stays in `with_backend`'s signature for
/// its existing callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// The scalar program's operation order on every backend.
    #[default]
    Exact,
}

/// A blocked evaluator for one scenario's Eq. (3)/(4) columns: B
/// `r`-columns per pass.
///
/// Construction hoists the scenario-constant factors;
/// [`ColumnBlockKernel::evaluate`] then runs the single-pass column
/// program over a block of cached π-tables, writing results r-major
/// straight into caller-provided slices (no per-cell allocation).
///
/// ```
/// use zeroconf_cost::{cost, kernel::ColumnBlockKernel, paper};
///
/// # fn main() -> Result<(), zeroconf_cost::CostError> {
/// let scenario = paper::figure2_scenario()?;
/// let kernel = ColumnBlockKernel::new(&scenario);
/// let (n_max, r) = (8, 2.0);
/// let pis = cost::pi_table(&scenario, n_max, r)?;
/// let mut costs = vec![0.0; n_max as usize];
/// let mut errors = vec![0.0; n_max as usize];
/// kernel.evaluate(n_max, &[r], &[&pis], Some(&mut costs), Some(&mut errors))?;
/// // Bit-identical to the per-n closed forms:
/// assert_eq!(
///     costs[3].to_bits(),
///     cost::mean_cost(&scenario, 4, r)?.to_bits()
/// );
/// # Ok(())
/// # }
/// ```
///
/// The per-cell arithmetic is cheap; what remains of the cold path is
/// building π-tables column by column — one virtual `survival` call per
/// (round, column) cell plus the telescoped division and clamp. The block
/// kernel turns that inside out: it walks probe rounds `i = 1..=n_max`
/// *across a whole block of columns*, calling
/// [`noanswer::p_rounds_batch_with`] once per chunk of eight rounds so
/// the reply-time distribution evaluates its closed form over the block
/// with hoisted constants and a single virtual dispatch (its
/// `survival_batch_with`, one `zeroconf_simd::survival_*` kernel per
/// family).
///
/// # The zero-tail cutoff
///
/// The running product `π_i(r) = π_{i−1}(r)·p_i(r)` underflows to exactly
/// `+0.0` within a few dozen rounds on realistic grids (the paper's
/// figure-2 scenario reaches `π ≈ 1e−309` by round ~25 at `r = 1`). Once
/// it does, every later entry of that column is exactly `+0.0` too —
/// `p_i ∈ [0, 1]` is clamped and never NaN, and IEEE `+0.0 · p` is
/// `+0.0` — so the scalar recurrence can be *replayed without evaluating
/// it*: the block builder drops the column from the active set and fills
/// the rest of its table with `+0.0`. This skips the dominant `exp` work for
/// most of each column while remaining bit-identical to
/// [`crate::cost::pi_table`], which the golden and property suites assert with
/// [`f64::to_bits`].
#[derive(Debug)]
pub struct ColumnBlockKernel {
    scenario: Scenario,
    /// The shared scenario-constant hoist.
    factors: ScenarioFactors,
    /// SIMD tier for π construction and the cost/error pass (requests are
    /// clamped to the CPU's actual capabilities at dispatch).
    backend: Backend,
    /// Weakest SIMD tier any distribution batch actually ran with
    /// (`Backend` discriminant, folded with `fetch_min`). Starts at the
    /// requested backend; a distribution without a vector override drags
    /// it down to `Scalar`, which the engine surfaces in its stats.
    dist_used: AtomicU8,
}

impl Clone for ColumnBlockKernel {
    fn clone(&self) -> ColumnBlockKernel {
        ColumnBlockKernel {
            scenario: self.scenario.clone(),
            factors: self.factors,
            backend: self.backend,
            // ORDERING: a diagnostic low-water mark; cloning observes
            // whatever tier happens to be recorded, no data hangs off it.
            dist_used: AtomicU8::new(self.dist_used.load(Ordering::Relaxed)),
        }
    }
}

/// Probe rounds consumed per [`noanswer::p_rounds_batch_with`] call when
/// building π-tables. Large enough to amortize per-call dispatch and
/// pass setup across the shrinking zero-tail active set, small enough
/// that a column underflowing mid-chunk discards only a few survival
/// evaluations (live columns on realistic grids survive ~20+ rounds).
const PI_ROUND_CHUNK: usize = 8;

/// A block of π-tables in one flat slab: column `j` occupies
/// `data[j·stride .. (j+1)·stride]` where `stride = n_max + 1`. Built by
/// [`ColumnBlockKernel::pi_table_block`]; bit-identical per column to
/// [`ColumnBlockKernel::pi_tables`] but with a single allocation. The
/// engine builds into the tables its cache keeps, with
/// [`ColumnBlockKernel::pi_tables_into`]; the slab serves the
/// `kernel/block/*` bench rows and parity tests.
#[derive(Debug, Clone, PartialEq)]
pub struct PiTableBlock {
    data: Vec<f64>,
    stride: usize,
}

impl PiTableBlock {
    /// Number of columns in the block.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.data.len() / self.stride
    }

    /// `true` when the block holds no columns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Column `j`'s π-table: `n_max + 1` entries, `π_0 = 1.0` first.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    #[must_use]
    pub fn column(&self, j: usize) -> &[f64] {
        &self.data[j * self.stride..(j + 1) * self.stride]
    }

    /// Per-column views over the slab, in the same shape the blocked
    /// evaluators accept (`&[T]` with `T: AsRef<[f64]>`).
    #[must_use]
    pub fn views(&self) -> Vec<&[f64]> {
        self.data.chunks_exact(self.stride).collect()
    }
}

/// Where [`ColumnBlockKernel::build_pi_columns`] writes what it builds.
enum PiOut<'a, 'b> {
    /// Column `j`'s π-table into `tables[j]`, `n + 1` entries.
    Tables(&'a mut [&'b mut [f64]]),
    /// The n-major statistic rows `(Σ_{i<n} π_i, π_n)`, column `j` and
    /// probe count `n` at `(n − 1)·row_stride + j` of each slab.
    Rows {
        row_stride: usize,
        pi_prefix: &'a mut [f64],
        pi_n: &'a mut [f64],
    },
}

impl PiOut<'_, '_> {
    /// Copies out one chunk of rounds from `i` on: row `k` of `rows`
    /// holds round `i + k`'s products of the active columns, slot `s`
    /// for column `active[s]`. Tables get their entries; statistic rows
    /// get each round's products as row `i + k − 1` of `π_n`, and the
    /// running `Σ` (`sums`, one per slot) before the products join it as
    /// the prefix row. `whole` says no column has left the active set
    /// (slot `s` is column `s`), so a row is one contiguous copy.
    fn store(&mut self, i: usize, rows: &[f64], active: &[usize], sums: &mut [f64], whole: bool) {
        let width = active.len();
        match self {
            PiOut::Tables(tables) => {
                for (slot, &column) in active.iter().enumerate() {
                    let column = &mut tables[column][i..i + rows.len() / width];
                    for (entry, row) in column.iter_mut().zip(rows.chunks_exact(width)) {
                        *entry = row[slot];
                    }
                }
            }
            PiOut::Rows {
                row_stride,
                pi_prefix,
                pi_n,
            } => {
                for (k, row) in rows.chunks_exact(width).enumerate() {
                    let at = (i + k - 1) * *row_stride;
                    if whole {
                        pi_prefix[at..at + width].copy_from_slice(sums);
                        pi_n[at..at + width].copy_from_slice(row);
                    } else {
                        for (slot, &column) in active.iter().enumerate() {
                            pi_prefix[at + column] = sums[slot];
                            pi_n[at + column] = row[slot];
                        }
                    }
                    for (sum, &pi) in sums.iter_mut().zip(row) {
                        *sum += pi;
                    }
                }
            }
        }
    }

    /// Fills what is left of `column` once its running product reached
    /// zero by round `next − 1`: π entries `next..=n` are `+0.0`, and
    /// rows `next − 1 .. n` get the column's final running `Σ`,
    /// `sums[slot]`, and `+0.0`.
    fn zero_tail(&mut self, column: usize, slot: usize, sums: &[f64], next: usize, n: usize) {
        match self {
            PiOut::Tables(tables) => tables[column][next..].fill(0.0),
            PiOut::Rows {
                row_stride,
                pi_prefix,
                pi_n,
            } => {
                for row in next - 1..n {
                    let at = row * *row_stride + column;
                    pi_prefix[at] = sums[slot];
                    pi_n[at] = 0.0;
                }
            }
        }
    }
}

impl ColumnBlockKernel {
    /// Hoists the scenario constants and keeps the scenario for π-table
    /// construction. Uses the scalar reference kernel; see
    /// [`ColumnBlockKernel::with_backend`] for the vectorized tiers.
    #[must_use]
    pub fn new(scenario: &Scenario) -> ColumnBlockKernel {
        Self::with_backend(scenario, Backend::Scalar, Mode::Exact)
    }

    /// [`ColumnBlockKernel::new`] with an explicit SIMD backend. Every
    /// backend's output — π-tables, costs, errors and statistic — is
    /// `to_bits`-identical to the scalar kernel's; [`Mode::Exact`] is the
    /// only mode.
    #[must_use]
    pub fn with_backend(scenario: &Scenario, backend: Backend, mode: Mode) -> ColumnBlockKernel {
        let Mode::Exact = mode;
        ColumnBlockKernel {
            scenario: scenario.clone(),
            factors: ScenarioFactors::new(scenario),
            backend,
            dist_used: AtomicU8::new(backend as u8),
        }
    }

    /// The weakest SIMD tier any distribution batch observed so far —
    /// the requested backend if every batch vectorized as requested,
    /// [`Backend::Scalar`] if any distribution fell back to the default
    /// scalar loop.
    #[must_use]
    pub fn dist_backend_used(&self) -> Backend {
        // ORDERING: diagnostic read of the SIMD-tier low-water mark; a
        // momentarily stale tier only affects reporting, not results.
        Backend::from_u8(self.dist_used.load(Ordering::Relaxed))
    }

    /// Builds the π-tables for a whole block of listening periods,
    /// i-major with the zero-tail cutoff. Each returned table is
    /// bit-identical to `cost::pi_table(scenario, n_max, rs[j])`.
    ///
    /// # Errors
    ///
    /// [`CostError::InvalidListeningPeriod`] for any negative or
    /// non-finite `r` in the block.
    pub fn pi_tables(&self, n_max: u32, rs: &[f64]) -> Result<Vec<Vec<f64>>, CostError> {
        let mut tables: Vec<Vec<f64>> = rs.iter().map(|_| vec![0.0; n_max as usize + 1]).collect();
        let mut columns: Vec<&mut [f64]> = tables.iter_mut().map(Vec::as_mut_slice).collect();
        self.pi_tables_into(n_max, rs, &mut columns)?;
        Ok(tables)
    }

    /// [`ColumnBlockKernel::pi_tables`] into a single flat slab instead of
    /// one heap table per column. Column `j`'s table is bit-identical to
    /// `pi_tables(n_max, rs)[j]` — both run the same construction loop —
    /// but the slab costs one allocation where the per-column layout pays
    /// `rs.len()` small allocator round-trips. Only the `kernel/block/*`
    /// bench rows and parity tests use it: the engine builds into the
    /// tables its cache keeps, with [`ColumnBlockKernel::pi_tables_into`].
    ///
    /// # Errors
    ///
    /// [`CostError::InvalidListeningPeriod`] for any negative or
    /// non-finite `r` in the block.
    pub fn pi_table_block(&self, n_max: u32, rs: &[f64]) -> Result<PiTableBlock, CostError> {
        let stride = n_max as usize + 1;
        let mut data = vec![0.0f64; rs.len() * stride];
        let mut columns: Vec<&mut [f64]> = data.chunks_exact_mut(stride).collect();
        self.pi_tables_into(n_max, rs, &mut columns)?;
        Ok(PiTableBlock { data, stride })
    }

    /// Builds column `j`'s π-table into `tables[j]`, which must hold
    /// exactly `n_max + 1` entries. Every entry is written, the zero tail
    /// included, so the buffers may hold anything beforehand (a table of
    /// another `r`, or NaN); afterwards each is bit-identical to
    /// `cost::pi_table(scenario, n_max, rs[j])`. This is the one
    /// construction loop: [`ColumnBlockKernel::pi_tables`] and
    /// [`ColumnBlockKernel::pi_table_block`] call it on their own
    /// buffers, and the engine on the tables its cache will keep.
    ///
    /// # Errors
    ///
    /// [`CostError::InvalidListeningPeriod`] for any negative or
    /// non-finite `r` in the block, before anything is written.
    ///
    /// # Panics
    ///
    /// When `tables` does not hold one buffer per `r`, or a buffer is not
    /// `n_max + 1` long: caller-side sizing bugs.
    pub fn pi_tables_into(
        &self,
        n_max: u32,
        rs: &[f64],
        tables: &mut [&mut [f64]],
    ) -> Result<(), CostError> {
        for &r in rs {
            check_r(r)?;
        }
        let n = n_max as usize;
        assert_eq!(rs.len(), tables.len(), "one π-table buffer per r");
        for table in tables.iter() {
            assert_eq!(
                table.len(),
                n + 1,
                "a π-table buffer holds n_max + 1 entries"
            );
        }
        self.build_pi_columns(n, rs, PiOut::Tables(tables))
    }

    /// The statistic rows of [`ColumnBlockKernel::statistic_rows`], built
    /// straight from the π construction's running products: no π-table
    /// is built or read. Round `i`'s row of products is row `i − 1` of
    /// `π_n`, and a running `Σ` beside it, `0.0 + π_0` to start, gives
    /// the prefix row before `π_i` joins it. A column whose product has
    /// reached zero gets its final `Σ` and `+0.0` in its remaining rows
    /// (the `Σ` is at least 1, so adding `+0.0` leaves it as it is). So
    /// each cell holds the bits of `statistic_rows` over
    /// [`ColumnBlockKernel::pi_tables`], on every backend.
    ///
    /// The layout is `statistic_rows`': the block's column `j` and probe
    /// count `n` land at `(n − 1)·row_stride + j`, and each slab must
    /// reach `(n_max − 1)·row_stride + rs.len()` values. Every entry of
    /// the block's stretch of both slabs is written, so they may hold
    /// anything beforehand.
    ///
    /// # Errors
    ///
    /// - [`CostError::InvalidProbeCount`] when `n_max == 0`.
    /// - [`CostError::InvalidListeningPeriod`] for any negative or
    ///   non-finite `r` in the block, before anything is written.
    ///
    /// # Panics
    ///
    /// When `row_stride` is below `rs.len()` or a slab is too short.
    pub fn fused_statistic_rows(
        &self,
        n_max: u32,
        rs: &[f64],
        row_stride: usize,
        pi_prefix: &mut [f64],
        pi_n: &mut [f64],
    ) -> Result<(), CostError> {
        check_n(n_max)?;
        for &r in rs {
            check_r(r)?;
        }
        assert!(row_stride >= rs.len(), "a row holds the whole block");
        if !rs.is_empty() {
            let reach = (n_max as usize - 1) * row_stride + rs.len();
            assert!(
                pi_prefix.len() >= reach && pi_n.len() >= reach,
                "a statistic slab reaches the block's last row"
            );
        }
        self.build_pi_columns(
            n_max as usize,
            rs,
            PiOut::Rows {
                row_stride,
                pi_prefix,
                pi_n,
            },
        )
    }

    /// The i-major π construction loop behind every table layout and the
    /// fused statistic rows: rounds `1..=n` of every column of `rs`,
    /// written to `out` (see [`PiOut`]), every entry written.
    ///
    /// Probe rounds are consumed [`PI_ROUND_CHUNK`] at a time through
    /// [`noanswer::p_rounds_batch_with`]: one scaling fill, one batch
    /// survival, and one clamp per *chunk* of rounds instead of per round.
    /// The active columns' running products sit side by side in one
    /// vector, so each round is one loop over a row of factors that the
    /// compiler vectorizes, with no load from the tables: it replays
    /// `running *= p_i` exactly, except that a running product of ±0
    /// stays `+0.0` (the scalar recurrence's `+0.0·p` from there on, `p`
    /// being clamped to `[0, 1]` and never NaN). The round's products
    /// overwrite its factors and are then copied out: into their
    /// columns' tables, or as a statistic row (one contiguous copy while
    /// no column has left the active set, a scatter after that), with
    /// the running `Σ` row beside it.
    ///
    /// The zero-tail active set compacts at chunk granularity: a column
    /// whose product is zero at a chunk's end gets the rest of its table
    /// (or rows) filled and leaves the active set. One that underflows
    /// mid-chunk wastes at most `PI_ROUND_CHUNK − 1` discarded survival
    /// evaluations, a small price against the per-call overhead this
    /// amortizes.
    fn build_pi_columns(
        &self,
        n: usize,
        rs: &[f64],
        mut out: PiOut<'_, '_>,
    ) -> Result<(), CostError> {
        let dist = self.scenario.reply_time();
        // π_0 = 1: each table's first entry, and the first term of each
        // column's running Σ, which starts as the block pass starts it.
        let mut sums: Vec<f64> = match &mut out {
            PiOut::Tables(tables) => {
                for table in tables.iter_mut() {
                    table[0] = 1.0;
                }
                Vec::new()
            }
            PiOut::Rows { .. } => vec![0.0 + 1.0; rs.len()],
        };
        // Columns whose running product is still nonzero, their `r`s,
        // their products and (for rows) their sums, compacted in place so
        // the round batches always see a dense block.
        let mut active: Vec<usize> = (0..rs.len()).collect();
        let mut rs_active: Vec<f64> = rs.to_vec();
        let mut running: Vec<f64> = vec![1.0; rs.len()];
        let mut p_rows: Vec<f64> = vec![0.0f64; rs.len() * PI_ROUND_CHUNK];
        let mut i = 1;
        while i <= n && !active.is_empty() {
            let rounds = PI_ROUND_CHUNK.min(n - i + 1);
            let width = active.len();
            let rows = &mut p_rows[..rounds * width];
            let used =
                noanswer::p_rounds_batch_with(dist, self.backend, &rs_active, i, rounds, rows)?;
            // ORDERING: monotonic min of a diagnostic tier marker; the
            // fetch_min's atomicity alone keeps it a true low-water mark.
            self.dist_used.fetch_min(used as u8, Ordering::Relaxed);
            for row in rows.chunks_exact_mut(width) {
                for (x, p) in running.iter_mut().zip(row.iter_mut()) {
                    *x = if *x == 0.0 { 0.0 } else { *x * *p };
                    *p = *x;
                }
            }
            out.store(i, rows, &active, &mut sums, width == rs.len());
            let next = i + rounds;
            let mut kept = 0;
            for slot in 0..width {
                let column = active[slot];
                if running[slot] == 0.0 {
                    out.zero_tail(column, slot, &sums, next, n);
                } else {
                    active[kept] = column;
                    rs_active[kept] = rs_active[slot];
                    running[kept] = running[slot];
                    if let Some(&sum) = sums.get(slot) {
                        sums[kept] = sum;
                    }
                    kept += 1;
                }
            }
            active.truncate(kept);
            rs_active.truncate(kept);
            running.truncate(kept);
            sums.truncate(kept);
            i = next;
        }
        Ok(())
    }

    /// Evaluates a block of columns against their π-tables, writing
    /// r-major results: column `j` lands in `out[j·n_max .. (j+1)·n_max]`.
    /// Either output may be `None`; provided slices must hold exactly
    /// `rs.len()·n_max` values. A block of one column evaluates a single
    /// column; `tables[j]` may be longer than `n_max + 1` (a table cached
    /// for a larger grid), and only its first `n_max + 1` entries are read.
    ///
    /// # Errors
    ///
    /// - [`CostError::InvalidProbeCount`] when `n_max == 0`.
    /// - [`CostError::InvalidListeningPeriod`] for a negative or
    ///   non-finite `r`.
    /// - [`CostError::PiTableTooShort`] when a table has fewer than
    ///   `n_max + 1` entries.
    ///
    /// Every column is validated before anything is written, so on error
    /// every output slice is left untouched, on every backend.
    ///
    /// # Panics
    ///
    /// Panics when `tables` does not hold one π-table per column or a
    /// provided output slice is not exactly `rs.len()·n_max` long —
    /// caller-side sizing bugs, not data-dependent conditions.
    pub fn evaluate<T: AsRef<[f64]>>(
        &self,
        n_max: u32,
        rs: &[f64],
        tables: &[T],
        costs: Option<&mut [f64]>,
        errors: Option<&mut [f64]>,
    ) -> Result<(), CostError> {
        self.evaluate_with_statistic(n_max, rs, tables, costs, errors, None, None)
    }

    /// [`ColumnBlockKernel::evaluate`], additionally emitting the n-major
    /// sufficient-statistic slabs `(Σ_{i<n} π_i, π_n)` — the storage the
    /// parametric layer ([`crate::param::ParamLandscape`]) wraps. The
    /// statistic is the pass's *own* running state, captured mid-loop, so
    /// reconstructing `C` and `Err` from it replays bit-identical floats.
    /// All four outputs are optional; provided slices must hold exactly
    /// `rs.len()·n_max` values. Costs and errors are r-major (column `j`
    /// in `out[j·n_max .. (j+1)·n_max]`); the statistic is n-major (row
    /// `n − 1` in `out[(n−1)·rs.len() .. n·rs.len()]`, column `j` at
    /// offset `j`).
    ///
    /// The whole block is one [`zeroconf_simd::cost_block_pass`] call on
    /// every backend, the scalar one included.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ColumnBlockKernel::evaluate`], with the same
    /// guarantee that an error writes nothing.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ColumnBlockKernel::evaluate`].
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_with_statistic<T: AsRef<[f64]>>(
        &self,
        n_max: u32,
        rs: &[f64],
        tables: &[T],
        costs: Option<&mut [f64]>,
        errors: Option<&mut [f64]>,
        pi_prefix: Option<&mut [f64]>,
        pi_n: Option<&mut [f64]>,
    ) -> Result<(), CostError> {
        let cells = rs.len() * n_max as usize;
        for (slice, what) in [
            (costs.as_deref(), "cost"),
            (errors.as_deref(), "error"),
            (pi_prefix.as_deref(), "π-prefix"),
            (pi_n.as_deref(), "π_n"),
        ] {
            if let Some(slice) = slice {
                assert_eq!(slice.len(), cells, "{what} block must hold rs.len()*n_max");
            }
        }
        self.block_pass(n_max, rs, tables, costs, errors, pi_prefix, pi_n, rs.len())
    }

    /// The statistic of [`ColumnBlockKernel::evaluate_with_statistic`]
    /// for a block that is a run of columns of a wider grid, written in
    /// place into the grid's n-major slabs: with `row_stride` the grid's
    /// column count and the slabs passed from the block's first column
    /// on, the block's column `j` and probe count `n` land at
    /// `(n − 1)·row_stride + j`. Each slab must reach
    /// `(n_max − 1)·row_stride + rs.len()` values. This is how a chunked
    /// sweep builds a [`crate::param::ParamLandscape`] without a
    /// transposition pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ColumnBlockKernel::evaluate`], with the same
    /// guarantee that an error writes nothing.
    ///
    /// # Panics
    ///
    /// When `tables` does not hold one π-table per column, `row_stride`
    /// is below `rs.len()`, or a slab is too short.
    pub fn statistic_rows<T: AsRef<[f64]>>(
        &self,
        n_max: u32,
        rs: &[f64],
        tables: &[T],
        row_stride: usize,
        pi_prefix: &mut [f64],
        pi_n: &mut [f64],
    ) -> Result<(), CostError> {
        self.block_pass(
            n_max,
            rs,
            tables,
            None,
            None,
            Some(pi_prefix),
            Some(pi_n),
            row_stride,
        )
    }

    /// Validates a block and runs its one [`zeroconf_simd::cost_block_pass`],
    /// statistic rows `row_stride` apart.
    #[allow(clippy::too_many_arguments)]
    fn block_pass<T: AsRef<[f64]>>(
        &self,
        n_max: u32,
        rs: &[f64],
        tables: &[T],
        costs: Option<&mut [f64]>,
        errors: Option<&mut [f64]>,
        pi_prefix: Option<&mut [f64]>,
        pi_n: Option<&mut [f64]>,
        row_stride: usize,
    ) -> Result<(), CostError> {
        assert_eq!(
            rs.len(),
            tables.len(),
            "block evaluation needs one π-table per column"
        );
        check_n(n_max)?;
        let column = n_max as usize;
        let mut views: Vec<&[f64]> = Vec::with_capacity(rs.len());
        for (&r, table) in rs.iter().zip(tables) {
            check_r(r)?;
            let table = table.as_ref();
            if table.len() <= column {
                return Err(CostError::PiTableTooShort {
                    needed: column + 1,
                    len: table.len(),
                });
            }
            views.push(table);
        }
        // Per-column constants of Eq. (3), `r + c` and `(r + c)·q`,
        // grouped exactly as the per-n arithmetic groups them.
        let f = &self.factors;
        let r_plus_c: Vec<f64> = rs.iter().map(|&r| r + f.probe_cost).collect();
        let r_plus_c_q: Vec<f64> = r_plus_c.iter().map(|&rc| rc * f.q).collect();
        zeroconf_simd::cost_block_pass(
            self.backend,
            BlockTerms {
                q: f.q,
                one_minus_q: f.one_minus_q,
                q_error_cost: f.q_error_cost,
            },
            &r_plus_c,
            &r_plus_c_q,
            column,
            &views,
            costs,
            errors,
            pi_prefix,
            pi_n,
            row_stride,
        );
        Ok(())
    }

    /// Builds the full sufficient-statistic landscape for an `(n, r)`
    /// grid in one [`ColumnBlockKernel::fused_statistic_rows`] pass
    /// (blocked, zero-tail cutoff, no π-table) — after which every
    /// re-evaluation under changed `(q, E, c)` is pure arithmetic.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ColumnBlockKernel::fused_statistic_rows`].
    pub(crate) fn param_landscape(
        &self,
        n_max: u32,
        rs: &[f64],
    ) -> Result<crate::param::ParamLandscape, CostError> {
        let cells = rs.len() * n_max as usize;
        let mut pi_prefix = vec![0.0f64; cells];
        let mut pi_n = vec![0.0f64; cells];
        self.fused_statistic_rows(n_max, rs, rs.len(), &mut pi_prefix, &mut pi_n)?;
        Ok(crate::param::ParamLandscape::from_parts(
            n_max,
            rs.to_vec(),
            pi_prefix,
            pi_n,
        ))
    }
}

/// One column's `(C, E)` through a width-1 block: the π-table for
/// `(scenario, r)`, then the single-pass program over it.
#[cfg(test)]
pub(crate) fn single_column(
    scenario: &Scenario,
    n_max: u32,
    r: f64,
) -> Result<(Vec<f64>, Vec<f64>), CostError> {
    let pis = crate::cost::pi_table(scenario, n_max, r)?;
    let mut costs = vec![0.0; n_max as usize];
    let mut errors = vec![0.0; n_max as usize];
    ColumnBlockKernel::new(scenario).evaluate(
        n_max,
        &[r],
        &[&pis],
        Some(&mut costs),
        Some(&mut errors),
    )?;
    Ok((costs, errors))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_dist::DefectiveExponential;

    use super::*;
    use crate::cost;

    fn figure2() -> Scenario {
        Scenario::builder()
            .hosts(1000)
            .unwrap()
            .probe_cost(2.0)
            .error_cost(1e35)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(1e-15, 10.0, 1.0).unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn kernel_is_bit_identical_to_per_n_closed_forms() {
        let s = figure2();
        let n_max = 40;
        for r in [0.0, 1e-12, 0.1, 2.0, 17.5, 500.0] {
            let (costs, errors) = single_column(&s, n_max, r).unwrap();
            for n in 1..=n_max {
                let direct_cost = cost::mean_cost(&s, n, r).unwrap();
                let direct_error = cost::error_probability(&s, n, r).unwrap();
                assert_eq!(
                    costs[n as usize - 1].to_bits(),
                    direct_cost.to_bits(),
                    "C(n = {n}, r = {r})"
                );
                assert_eq!(
                    errors[n as usize - 1].to_bits(),
                    direct_error.to_bits(),
                    "E(n = {n}, r = {r})"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_from_pis_against_an_oversized_cached_table() {
        // The engine hands the kernel tables cached for larger grids;
        // evaluating a shorter column against them must not change bits.
        let s = figure2();
        let table = cost::pi_table(&s, 64, 3.0).unwrap();
        let n_max = 10;
        let mut costs = vec![0.0; n_max as usize];
        let mut errors = vec![0.0; n_max as usize];
        ColumnBlockKernel::new(&s)
            .evaluate(
                n_max,
                &[3.0],
                &[&table],
                Some(&mut costs),
                Some(&mut errors),
            )
            .unwrap();
        for n in 1..=n_max {
            let via_table = cost::mean_cost_from_pis(&s, n, 3.0, &table).unwrap();
            assert_eq!(costs[n as usize - 1].to_bits(), via_table.to_bits());
            let via_table_e = cost::error_probability_from_pis(&s, n, &table).unwrap();
            assert_eq!(errors[n as usize - 1].to_bits(), via_table_e.to_bits());
        }
    }

    #[test]
    fn single_metric_evaluation_leaves_the_other_buffer_untouched() {
        let s = figure2();
        let pis = cost::pi_table(&s, 4, 2.0).unwrap();
        let kernel = ColumnBlockKernel::new(&s);
        let mut costs = vec![-1.0; 4];
        kernel
            .evaluate(4, &[2.0], &[&pis], Some(&mut costs), None)
            .unwrap();
        assert_eq!(
            costs[3].to_bits(),
            cost::mean_cost(&s, 4, 2.0).unwrap().to_bits()
        );
        let mut errors = vec![-1.0; 4];
        kernel
            .evaluate(4, &[2.0], &[&pis], None, Some(&mut errors))
            .unwrap();
        assert_eq!(
            errors[3].to_bits(),
            cost::error_probability(&s, 4, 2.0).unwrap().to_bits()
        );
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let s = figure2();
        let kernel = ColumnBlockKernel::new(&s);
        let pis = cost::pi_table(&s, 4, 1.0).unwrap();
        assert!(matches!(
            kernel.evaluate(0, &[1.0], &[&pis], None, None),
            Err(CostError::InvalidProbeCount { n: 0 })
        ));
        assert!(matches!(
            kernel.evaluate(4, &[-1.0], &[&pis], None, None),
            Err(CostError::InvalidListeningPeriod { .. })
        ));
        assert!(matches!(
            kernel.evaluate(8, &[1.0], &[&pis], None, None),
            Err(CostError::PiTableTooShort { needed: 9, len: 5 })
        ));
        assert!(single_column(&s, 3, f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "cost block must hold rs.len()*n_max")]
    fn wrongly_sized_output_slice_panics() {
        let s = figure2();
        let pis = cost::pi_table(&s, 4, 1.0).unwrap();
        let mut costs = vec![0.0; 3];
        let _ = ColumnBlockKernel::new(&s).evaluate(4, &[1.0], &[&pis], Some(&mut costs), None);
    }

    /// The blocked π builder must replay `cost::pi_table` bit for bit on
    /// a grid whose columns underflow to +0.0 at different rounds — the
    /// zero-tail cutoff has to hand back exactly the scalar tails.
    #[test]
    fn block_pi_tables_are_bit_identical_to_per_column_tables() {
        let s = figure2();
        let n_max = 200;
        let rs: Vec<f64> = (0..40).map(|k| 0.1 + k as f64 * 0.75).collect();
        let block = ColumnBlockKernel::new(&s);
        let tables = block.pi_tables(n_max, &rs).unwrap();
        for (j, &r) in rs.iter().enumerate() {
            let scalar = cost::pi_table(&s, n_max, r).unwrap();
            assert_eq!(tables[j].len(), scalar.len(), "r = {r}");
            for (i, (a, b)) in tables[j].iter().zip(&scalar).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "π_{i}({r})");
            }
        }
    }

    /// Step distributions drive π to an exact 0.0 without underflow;
    /// mixtures exercise the default (scalar-loop) batch survival.
    #[test]
    fn block_pi_tables_handle_exact_zeros_and_mixtures() {
        use zeroconf_dist::{DefectiveDeterministic, Mixture, ReplyTimeDistribution};
        let step = Scenario::builder()
            .hosts(1000)
            .unwrap()
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(DefectiveDeterministic::new(1.0, 1.0).unwrap()))
            .build()
            .unwrap();
        let a: Arc<dyn ReplyTimeDistribution> =
            Arc::new(DefectiveExponential::new(0.9, 10.0, 1.0).unwrap());
        let b: Arc<dyn ReplyTimeDistribution> =
            Arc::new(DefectiveDeterministic::new(0.5, 2.0).unwrap());
        let mixed = Scenario::builder()
            .hosts(1000)
            .unwrap()
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(Mixture::new(vec![(0.5, a), (0.5, b)]).unwrap()))
            .build()
            .unwrap();
        let rs = [0.0, 0.25, 0.5, 1.0, 2.0];
        for scenario in [&step, &mixed] {
            let tables = ColumnBlockKernel::new(scenario).pi_tables(16, &rs).unwrap();
            for (j, &r) in rs.iter().enumerate() {
                let scalar = cost::pi_table(scenario, 16, r).unwrap();
                for (i, (x, y)) in tables[j].iter().zip(&scalar).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "π_{i}({r})");
                }
            }
        }
    }

    #[test]
    fn block_evaluate_matches_width_one_columns_r_major() {
        let s = figure2();
        let n_max = 32u32;
        let rs = [0.0, 0.4, 2.0, 9.5];
        let block = ColumnBlockKernel::new(&s);
        let tables = block.pi_tables(n_max, &rs).unwrap();
        let cells = rs.len() * n_max as usize;
        let mut costs = vec![0.0; cells];
        let mut errors = vec![0.0; cells];
        block
            .evaluate(n_max, &rs, &tables, Some(&mut costs), Some(&mut errors))
            .unwrap();
        for (j, &r) in rs.iter().enumerate() {
            let (column_costs, column_errors) = single_column(&s, n_max, r).unwrap();
            let span = j * n_max as usize..(j + 1) * n_max as usize;
            for (a, b) in costs[span.clone()].iter().zip(&column_costs) {
                assert_eq!(a.to_bits(), b.to_bits(), "C column at r = {r}");
            }
            for (a, b) in errors[span].iter().zip(&column_errors) {
                assert_eq!(a.to_bits(), b.to_bits(), "E column at r = {r}");
            }
        }
    }

    #[test]
    fn block_rejects_invalid_listening_periods() {
        let s = figure2();
        let block = ColumnBlockKernel::new(&s);
        assert!(block.pi_tables(8, &[1.0, -2.0]).is_err());
        assert!(block.pi_tables(8, &[f64::INFINITY]).is_err());
        assert!(block.pi_tables(8, &[]).unwrap().is_empty());
        assert!(block.pi_table_block(8, &[1.0, -2.0]).is_err());
        assert!(block.pi_table_block(8, &[f64::NAN]).is_err());
        assert!(block.pi_table_block(8, &[]).unwrap().is_empty());
    }

    /// The flat-slab layout carries exactly the per-column tables: same
    /// bits, same column extents, and views that feed straight into the
    /// blocked evaluator.
    #[test]
    fn pi_table_block_matches_per_column_tables_bit_for_bit() {
        let s = figure2();
        let n_max = 200;
        let rs: Vec<f64> = (0..40).map(|k| 0.1 + k as f64 * 0.75).collect();
        let block = ColumnBlockKernel::new(&s);
        let tables = block.pi_tables(n_max, &rs).unwrap();
        let slab = block.pi_table_block(n_max, &rs).unwrap();
        assert_eq!(slab.columns(), rs.len());
        for (j, table) in tables.iter().enumerate() {
            let column = slab.column(j);
            assert_eq!(column.len(), table.len(), "column {j}");
            for (i, (a, b)) in column.iter().zip(table).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "π_{i} of column {j}");
            }
        }
        let cells = rs.len() * n_max as usize;
        let (mut from_vecs, mut from_slab) = (vec![0.0; cells], vec![0.0; cells]);
        block
            .evaluate(n_max, &rs, &tables, Some(&mut from_vecs), None)
            .unwrap();
        block
            .evaluate(n_max, &rs, &slab.views(), Some(&mut from_slab), None)
            .unwrap();
        for (k, (a, b)) in from_vecs.iter().zip(&from_slab).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "cost cell {k}");
        }
    }
}
