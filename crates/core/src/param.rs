//! The parametric sufficient-statistic layer.
//!
//! Eq. (3) and Eq. (4) are *rational functions of the economic
//! parameters* `(q, E, c)` once the distribution-side quantities are
//! known: for a cell `(n, r)` the only inputs that touch the reply-time
//! distribution are the prefix sum `Σ_{i<n} π_i(r)` and the tail product
//! `π_n(r)`. That pair is a **sufficient statistic** — with it in hand,
//!
//! ```text
//!            (r+c)·( n(1−q) + q·Σ_{i<n} π_i ) + q·E·π_n
//! C(n, r) = ────────────────────────────────────────────
//!                      1 − q·(1 − π_n)
//!
//! Err(n, r) = q·π_n / (1 − q·(1 − π_n))
//! ```
//!
//! are pure arithmetic in `(q, E, c)`. A whole calibration loop, Pareto
//! frontier, or optimal-`(n, r)` map over a 2-D parameter grid therefore
//! touches **no distribution math at all** after the statistic is built
//! once (the incremental-verification idea of Gainer et al. applied to
//! this model).
//!
//! [`ParamLandscape`] stores the statistic for a full `(n, r)` grid as
//! flat n-major SoA slabs: row `n − 1` holds every column's value side by
//! side, so cell `(n, r_values[j])` lives at `(n−1)·r_values.len() + j`.
//! The selection scan reads the grid row by row, `LANES` columns per
//! vector operation.
//!
//! # Bit-identity
//!
//! `reconstruct_cost` / `reconstruct_error` — behind
//! [`ParamLandscape::cost_at`] and [`ParamLandscape::error_at`] — replay
//! the *exact* float operations
//! of the column pass ([`ColumnBlockKernel::evaluate`]) in the exact
//! order — same hoisted [`ScenarioFactors`], same left-associated
//! groupings, same division — so reconstruction from the statistic is
//! bit-identical to a direct kernel sweep, not merely close. The golden
//! suites and the seeded property suite `tests/param_properties.rs`
//! assert this with [`f64::to_bits`] across all six reply-time
//! distributions; the same suite holds the grid-scan selection
//! ([`ParamLandscape::min_cost_cell_near`]) to the scalar
//! [`ParamLandscape::min_cost_cell`] oracle on every backend.
//!
//! [`ColumnBlockKernel::evaluate`]: crate::kernel::ColumnBlockKernel::evaluate

use zeroconf_simd::{Backend, BlockTerms};

use crate::kernel::ScenarioFactors;
use crate::{CostError, Scenario};

/// The per-cell sufficient statistic `(Σ_{i<n} π_i(r), π_n(r))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStatistic {
    /// `Σ_{i<n} π_i(r)`, accumulated left-to-right from `0.0` exactly as
    /// the kernel's running prefix sum.
    pub pi_prefix: f64,
    /// `π_n(r)`, the probability that all `n` probes went unanswered.
    pub pi_n: f64,
}

/// Sufficient statistics for a whole `(n, r)` grid, in flat n-major SoA
/// slabs: cell `(n, r_values[j])` is at index `(n−1)·r_values.len() + j`.
///
/// Built by
/// `ColumnBlockKernel::param_landscape`
/// (or from engine-owned slabs via [`ParamLandscape::from_parts`]); once
/// built, every re-evaluation under changed `(q, E, c)` is pure
/// arithmetic via [`ParamLandscape::cost_at`] /
/// [`ParamLandscape::error_at`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParamLandscape {
    n_max: u32,
    r_values: Vec<f64>,
    /// `r_floor[j]`: the smallest `r` at or after column `j`, the row-tail
    /// stop of the selection scan (equal to `r_values` on a sorted grid).
    r_floor: Vec<f64>,
    pi_prefix: Vec<f64>,
    pi_n: Vec<f64>,
}

impl ParamLandscape {
    /// Assembles a landscape from its raw n-major slabs, as
    /// `ColumnBlockKernel::evaluate_with_statistic` writes them (the engine
    /// writes them chunk by chunk through `ColumnBlockKernel::statistic_rows`
    /// or `ColumnBlockKernel::fused_statistic_rows` and hands them over
    /// whole).
    ///
    /// # Panics
    ///
    /// Panics when a slab is not exactly `r_values.len()·n_max` long or
    /// `n_max == 0` — caller-side sizing bugs, not data-dependent
    /// conditions.
    #[must_use]
    pub fn from_parts(
        n_max: u32,
        r_values: Vec<f64>,
        pi_prefix: Vec<f64>,
        pi_n: Vec<f64>,
    ) -> ParamLandscape {
        assert!(n_max > 0, "a landscape needs at least one probe count");
        let cells = r_values.len() * n_max as usize;
        assert_eq!(pi_prefix.len(), cells, "π-prefix slab must hold every cell");
        assert_eq!(pi_n.len(), cells, "π_n slab must hold every cell");
        let mut r_floor = r_values.clone();
        for j in (1..r_floor.len()).rev() {
            r_floor[j - 1] = r_floor[j - 1].min(r_floor[j]);
        }
        ParamLandscape {
            n_max,
            r_values,
            r_floor,
            pi_prefix,
            pi_n,
        }
    }

    /// Largest probe count of the grid.
    #[must_use]
    pub fn n_max(&self) -> u32 {
        self.n_max
    }

    /// The listening periods of the grid, in storage order.
    #[must_use]
    pub fn r_values(&self) -> &[f64] {
        &self.r_values
    }

    /// Number of cells (`r_values.len() · n_max`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pi_n.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pi_n.is_empty()
    }

    /// Slab index of cell `(n, r_values[r_index])`.
    fn slot(&self, r_index: usize, n: u32) -> usize {
        assert!(
            r_index < self.r_values.len() && (1..=self.n_max).contains(&n),
            "cell (r_index = {r_index}, n = {n}) is outside the grid"
        );
        (n as usize - 1) * self.r_values.len() + r_index
    }

    /// The sufficient statistic of one cell.
    ///
    /// # Panics
    ///
    /// Panics when `r_index` or `n` is outside the grid.
    #[must_use]
    pub fn statistic(&self, r_index: usize, n: u32) -> CellStatistic {
        let at = self.slot(r_index, n);
        CellStatistic {
            pi_prefix: self.pi_prefix[at],
            pi_n: self.pi_n[at],
        }
    }

    /// `C(n, r)` under the given economics, reconstructed from the
    /// statistic — bit-identical to the kernel's output for the same
    /// cell.
    #[must_use]
    pub fn cost_at(&self, factors: &ScenarioFactors, r_index: usize, n: u32) -> f64 {
        let at = self.slot(r_index, n);
        reconstruct_cost(
            factors,
            self.r_values[r_index],
            n,
            self.pi_prefix[at],
            self.pi_n[at],
        )
    }

    /// `Err(n, r)` under the given economics, reconstructed from the
    /// statistic — bit-identical to the kernel's output.
    #[must_use]
    pub fn error_at(&self, factors: &ScenarioFactors, r_index: usize, n: u32) -> f64 {
        let at = self.slot(r_index, n);
        reconstruct_error(factors, self.pi_n[at])
    }

    /// The cheapest finite-cost cell under the given economics:
    /// `(r_index, n, cost, error_probability)`, the first in r-major order
    /// among equally cheap cells. `None` when no cell has a finite cost
    /// (empty grid or overflowed economics).
    #[must_use]
    pub fn min_cost_cell(&self, factors: &ScenarioFactors) -> Option<(usize, u32, f64, f64)> {
        let mut best: Option<(usize, u32)> = None;
        let mut incumbent = f64::INFINITY;
        let n_max = self.n_max as usize;
        let columns = self.r_values.len();
        for (j, &r) in self.r_values.iter().enumerate() {
            let r_plus_c = r + factors.probe_cost;
            let r_plus_c_q = r_plus_c * factors.q;
            for n in 1..=n_max {
                // The free-probing term is a float lower bound on the
                // numerator (the other addends are non-negative) and is
                // weakly increasing in `n`, so once it reaches the
                // incumbent no later `n` in this column can win either.
                let free_probing = r_plus_c * n as f64 * factors.one_minus_q;
                if free_probing >= incumbent {
                    break;
                }
                let at = (n - 1) * columns + j;
                let pi_n = self.pi_n[at];
                let numerator =
                    free_probing + r_plus_c_q * self.pi_prefix[at] + factors.q_error_cost * pi_n;
                // `q·(1 − π_n)` is a product of non-negatives, so the
                // denominator is at most 1 and `cost ≥ numerator` holds in
                // floats (round-to-nearest of a real ≥ the representable
                // numerator). A numerator at or above the incumbent can
                // therefore never win strictly, and the division — the
                // dominant cost of this scan — is skipped for most cells
                // without changing a single selection. NaN and +∞
                // numerators fail the `<` too, matching the finite-cost
                // filter of a plain scan.
                if numerator < incumbent {
                    let denominator = 1.0 - factors.q * (1.0 - pi_n);
                    let cost = numerator / denominator;
                    if cost.is_finite() && cost < incumbent {
                        incumbent = cost;
                        best = Some((j, n as u32));
                    }
                }
            }
        }
        best.map(|(j, n)| {
            let pi_n = self.pi_n[self.slot(j, n)];
            let denominator = 1.0 - factors.q * (1.0 - pi_n);
            let error = factors.q * pi_n / denominator;
            (j, n, incumbent, error)
        })
    }

    /// [`ParamLandscape::min_cost_cell`] with an explicit SIMD backend:
    /// [`ParamLandscape::min_cost_cell_near`] with no hint.
    #[must_use]
    pub fn min_cost_cell_with(
        &self,
        factors: &ScenarioFactors,
        backend: Backend,
    ) -> Option<(usize, u32, f64, f64)> {
        self.min_cost_cell_near(factors, backend, None)
    }

    /// [`ParamLandscape::min_cost_cell`] with an explicit SIMD backend and
    /// an optional warm-start `hint` cell `(r_index, n)`, typically the
    /// winner of a neighbouring parameter point. The whole grid is one
    /// `zeroconf_simd::min_cost_grid_scan` dispatch: a row filter that
    /// forms `LANES` columns' numerators per vector operation, divides a
    /// lane chunk only when some lane is under its bound, and cuts each
    /// row at the first column whose smallest remaining `r` cannot win.
    /// The bound falls to `next_up` of each cost taken, and the scan
    /// keeps the lexicographic minimum of (cost, r-major index).
    ///
    /// The hint only sets the scan's starting bound: `next_up` of the
    /// hint cell's cost under `factors`, or `+∞` when that cost is not
    /// finite. That bound lies strictly above the true minimum `m`, so
    /// the first cell in r-major order attaining `m` is still looked at
    /// and taken, as it is from `+∞`. The selected cell, cost and error
    /// are therefore identical to [`ParamLandscape::min_cost_cell`] for
    /// any hint and on every backend; a good hint just lets more cells
    /// and rows be ruled out without a division.
    ///
    /// # Panics
    ///
    /// Panics when the hint names a cell outside the grid.
    #[must_use]
    pub fn min_cost_cell_near(
        &self,
        factors: &ScenarioFactors,
        backend: Backend,
        hint: Option<(usize, u32)>,
    ) -> Option<(usize, u32, f64, f64)> {
        let bound = hint.map_or(f64::INFINITY, |(r_index, n)| {
            let cost = self.cost_at(factors, r_index, n);
            if cost.is_finite() {
                cost.next_up()
            } else {
                f64::INFINITY
            }
        });
        zeroconf_simd::min_cost_grid_scan(
            backend,
            BlockTerms {
                q: factors.q,
                one_minus_q: factors.one_minus_q,
                q_error_cost: factors.q_error_cost,
            },
            factors.probe_cost,
            &self.r_values,
            &self.r_floor,
            self.n_max as usize,
            &self.pi_prefix,
            &self.pi_n,
            bound,
        )
        .map(|(j, n, cost)| {
            let n = n as u32;
            let error = reconstruct_error(factors, self.pi_n[self.slot(j, n)]);
            (j, n, cost, error)
        })
    }

    /// Convenience: builds the statistic landscape for `scenario`'s
    /// reply-time distribution over an `(n, r)` grid by delegating to the
    /// blocked kernel.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`ColumnBlockKernel::pi_tables`](crate::kernel::ColumnBlockKernel::pi_tables).
    pub fn build(scenario: &Scenario, n_max: u32, rs: &[f64]) -> Result<ParamLandscape, CostError> {
        crate::kernel::ColumnBlockKernel::new(scenario).param_landscape(n_max, rs)
    }
}

/// One-cell cost reconstruction: the exact Eq. (3) float sequence of the
/// column pass
/// ([`ColumnBlockKernel::evaluate`](crate::kernel::ColumnBlockKernel::evaluate)),
/// replayed from the sufficient statistic.
#[must_use]
pub(crate) fn reconstruct_cost(
    factors: &ScenarioFactors,
    r: f64,
    n: u32,
    pi_prefix: f64,
    pi_n: f64,
) -> f64 {
    let r_plus_c = r + factors.probe_cost;
    let r_plus_c_q = r_plus_c * factors.q;
    let denominator = 1.0 - factors.q * (1.0 - pi_n);
    let free_address_probing = r_plus_c * n as f64 * factors.one_minus_q;
    let occupied_address_probing = r_plus_c_q * pi_prefix;
    let collision_penalty = factors.q_error_cost * pi_n;
    (free_address_probing + occupied_address_probing + collision_penalty) / denominator
}

/// One-cell error reconstruction: the exact Eq. (4) float sequence.
#[must_use]
pub(crate) fn reconstruct_error(factors: &ScenarioFactors, pi_n: f64) -> f64 {
    factors.q * pi_n / (1.0 - factors.q * (1.0 - pi_n))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_dist::DefectiveExponential;

    use crate::kernel::single_column;
    use crate::{cost, Scenario};

    use super::*;

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
    fn reconstruction_is_bit_identical_to_the_kernel() {
        let s = figure2();
        let n_max = 24u32;
        let rs: Vec<f64> = (0..12).map(|k| 0.1 + k as f64 * 1.7).collect();
        let landscape = ParamLandscape::build(&s, n_max, &rs).unwrap();
        let factors = ScenarioFactors::new(&s);
        for (j, &r) in rs.iter().enumerate() {
            let (costs, errors) = single_column(&s, n_max, r).unwrap();
            for n in 1..=n_max {
                assert_eq!(
                    landscape.cost_at(&factors, j, n).to_bits(),
                    costs[n as usize - 1].to_bits(),
                    "C(n = {n}, r = {r})"
                );
                assert_eq!(
                    landscape.error_at(&factors, j, n).to_bits(),
                    errors[n as usize - 1].to_bits(),
                    "Err(n = {n}, r = {r})"
                );
            }
        }
    }

    #[test]
    fn reconstruction_under_changed_economics_matches_direct_evaluation() {
        // The whole point: one landscape serves every (q, E, c) without
        // touching the distribution again.
        let s = figure2();
        let n_max = 16u32;
        let rs = [0.0, 0.5, 2.0, 9.0];
        let landscape = ParamLandscape::build(&s, n_max, &rs).unwrap();
        let varied = s
            .with_occupancy(0.25)
            .unwrap()
            .with_probe_cost(0.7)
            .unwrap()
            .with_error_cost(1e9)
            .unwrap();
        let factors = ScenarioFactors::new(&varied);
        for (j, &r) in rs.iter().enumerate() {
            for n in 1..=n_max {
                let direct = cost::mean_cost(&varied, n, r).unwrap();
                assert_eq!(
                    landscape.cost_at(&factors, j, n).to_bits(),
                    direct.to_bits(),
                    "C(n = {n}, r = {r})"
                );
                let direct_e = cost::error_probability(&varied, n, r).unwrap();
                assert_eq!(
                    landscape.error_at(&factors, j, n).to_bits(),
                    direct_e.to_bits(),
                    "Err(n = {n}, r = {r})"
                );
            }
        }
    }

    #[test]
    fn min_cost_cell_agrees_with_a_full_scan() {
        let s = figure2();
        let rs: Vec<f64> = (1..40).map(|k| k as f64 * 0.5).collect();
        let landscape = ParamLandscape::build(&s, 8, &rs).unwrap();
        let factors = ScenarioFactors::new(&s);
        let (j, n, cost, error) = landscape.min_cost_cell(&factors).unwrap();
        let mut best = f64::INFINITY;
        for jj in 0..rs.len() {
            for nn in 1..=8 {
                best = best.min(landscape.cost_at(&factors, jj, nn));
            }
        }
        assert_eq!(cost.to_bits(), best.to_bits());
        assert_eq!(cost.to_bits(), landscape.cost_at(&factors, j, n).to_bits());
        assert_eq!(
            error.to_bits(),
            landscape.error_at(&factors, j, n).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "π-prefix slab must hold every cell")]
    fn mismatched_slabs_panic() {
        let _ = ParamLandscape::from_parts(4, vec![1.0], vec![0.0; 3], vec![0.0; 4]);
    }
}
