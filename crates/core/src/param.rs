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
//! flat r-major SoA slabs, mirroring the engine's `Landscape` layout:
//! cell `(n, r_values[j])` lives at `j·n_max + (n−1)`.
//!
//! # Bit-identity
//!
//! [`ParamLandscape::cost_at`] / [`ParamLandscape::error_at`] replay the
//! *exact* float operations of [`ColumnKernel::evaluate`] in the exact
//! order — same hoisted [`ScenarioFactors`], same left-associated
//! groupings, same division — so reconstruction from the statistic is
//! bit-identical to a direct kernel sweep, not merely close. The golden
//! suites and the seeded property suite `tests/param_properties.rs`
//! assert this with [`f64::to_bits`] across all six reply-time
//! distributions; the same suite holds the grid-scan selection
//! ([`ParamLandscape::min_cost_cell_near`]) to the scalar
//! [`ParamLandscape::min_cost_cell`] oracle on every backend.
//!
//! [`ColumnKernel::evaluate`]: crate::kernel::ColumnKernel::evaluate

use zeroconf_simd::{Backend, BlockTerms, ColumnTerms, Mode};

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

/// Sufficient statistics for a whole `(n, r)` grid, in flat r-major SoA
/// slabs: cell `(n, r_values[j])` is at index `j·n_max + (n−1)`.
///
/// Built by
/// [`ColumnBlockKernel::param_landscape`](crate::kernel::ColumnBlockKernel::param_landscape)
/// (or from engine-owned slabs via [`ParamLandscape::from_parts`]); once
/// built, every re-evaluation under changed `(q, E, c)` is pure
/// arithmetic via [`ParamLandscape::cost_at`] /
/// [`ParamLandscape::error_at`] / [`ParamLandscape::reconstruct`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParamLandscape {
    n_max: u32,
    r_values: Vec<f64>,
    /// `r_floor[j]`: the smallest `r` at or after column `j`, the column
    /// stop of the selection scan (equal to `r_values` on a sorted grid).
    r_floor: Vec<f64>,
    pi_prefix: Vec<f64>,
    pi_n: Vec<f64>,
}

impl ParamLandscape {
    /// Assembles a landscape from its raw slabs (the engine pool writes
    /// the slabs in disjoint column slices and hands them over whole).
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

    /// The raw r-major `Σ_{i<n} π_i` slab.
    #[must_use]
    pub fn pi_prefix(&self) -> &[f64] {
        &self.pi_prefix
    }

    /// The raw r-major `π_n` slab.
    #[must_use]
    pub fn pi_n(&self) -> &[f64] {
        &self.pi_n
    }

    /// Flat index of cell `(n, r_values[r_index])`.
    #[must_use]
    pub fn flat_index(&self, r_index: usize, n: u32) -> usize {
        r_index * self.n_max as usize + (n as usize - 1)
    }

    /// The sufficient statistic of one cell.
    ///
    /// # Panics
    ///
    /// Panics when `r_index` or `n` is outside the grid.
    #[must_use]
    pub fn statistic(&self, r_index: usize, n: u32) -> CellStatistic {
        let at = self.flat_index(r_index, n);
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
        let at = self.flat_index(r_index, n);
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
        let at = self.flat_index(r_index, n);
        reconstruct_error(factors, self.pi_n[at])
    }

    /// Reconstructs whole metric slabs under the given economics, writing
    /// r-major exactly like the kernel's block evaluation. Either output
    /// may be `None`; provided slices must hold exactly [`len`](Self::len)
    /// values.
    ///
    /// # Panics
    ///
    /// Panics when a provided output slice is not exactly `len()` long.
    pub fn reconstruct(
        &self,
        factors: &ScenarioFactors,
        mut costs: Option<&mut [f64]>,
        mut errors: Option<&mut [f64]>,
    ) {
        if let Some(costs) = costs.as_deref() {
            assert_eq!(costs.len(), self.len(), "cost slab must hold every cell");
        }
        if let Some(errors) = errors.as_deref() {
            assert_eq!(errors.len(), self.len(), "error slab must hold every cell");
        }
        let n_max = self.n_max as usize;
        for (j, &r) in self.r_values.iter().enumerate() {
            // Per-column constants hoisted exactly as the kernel hoists
            // them, so the replay keeps the kernel's bits.
            let r_plus_c = r + factors.probe_cost;
            let r_plus_c_q = r_plus_c * factors.q;
            for n in 1..=n_max {
                let at = j * n_max + (n - 1);
                let pi_n = self.pi_n[at];
                let denominator = 1.0 - factors.q * (1.0 - pi_n);
                if let Some(costs) = costs.as_deref_mut() {
                    let free_address_probing = r_plus_c * n as f64 * factors.one_minus_q;
                    let occupied_address_probing = r_plus_c_q * self.pi_prefix[at];
                    let collision_penalty = factors.q_error_cost * pi_n;
                    costs[at] =
                        (free_address_probing + occupied_address_probing + collision_penalty)
                            / denominator;
                }
                if let Some(errors) = errors.as_deref_mut() {
                    errors[at] = factors.q * pi_n / denominator;
                }
            }
        }
    }

    /// [`ParamLandscape::reconstruct`] with an explicit SIMD backend and
    /// rounding mode: each column's cost/error pass dispatches through
    /// `zeroconf_simd::cost_pass`. With [`Mode::Exact`] the output is
    /// `to_bits`-identical to [`ParamLandscape::reconstruct`] on every
    /// backend; [`Mode::Fast`] fuses and reassociates (ULP-bounded, see
    /// the golden tests).
    ///
    /// # Panics
    ///
    /// Panics when a provided output slice is not exactly `len()` long.
    pub fn reconstruct_with(
        &self,
        factors: &ScenarioFactors,
        backend: Backend,
        mode: Mode,
        mut costs: Option<&mut [f64]>,
        mut errors: Option<&mut [f64]>,
    ) {
        if let Some(costs) = costs.as_deref() {
            assert_eq!(costs.len(), self.len(), "cost slab must hold every cell");
        }
        if let Some(errors) = errors.as_deref() {
            assert_eq!(errors.len(), self.len(), "error slab must hold every cell");
        }
        let n_max = self.n_max as usize;
        for (j, &r) in self.r_values.iter().enumerate() {
            let r_plus_c = r + factors.probe_cost;
            let r_plus_c_q = r_plus_c * factors.q;
            let terms = ColumnTerms {
                q: factors.q,
                one_minus_q: factors.one_minus_q,
                q_error_cost: factors.q_error_cost,
                r_plus_c,
                r_plus_c_q,
            };
            let span = j * n_max..(j + 1) * n_max;
            zeroconf_simd::cost_pass(
                backend,
                mode,
                terms,
                &self.pi_prefix[span.clone()],
                &self.pi_n[span.clone()],
                costs.as_deref_mut().map(|c| &mut c[span.clone()]),
                errors.as_deref_mut().map(|e| &mut e[span.clone()]),
            );
        }
    }

    /// The cheapest finite-cost cell under the given economics:
    /// `(r_index, n, cost, error_probability)`. `None` when no cell has a
    /// finite cost (empty grid or overflowed economics).
    #[must_use]
    pub fn min_cost_cell(&self, factors: &ScenarioFactors) -> Option<(usize, u32, f64, f64)> {
        let mut best: Option<(usize, u32)> = None;
        let mut incumbent = f64::INFINITY;
        let n_max = self.n_max as usize;
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
                let at = j * n_max + (n - 1);
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
            let at = j * n_max + (n as usize - 1);
            let pi_n = self.pi_n[at];
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
    /// `zeroconf_simd::min_cost_grid_scan` dispatch, whose vector pass
    /// only *filters* cells against the incumbent and replays candidates
    /// with the scalar program, and which stops at the first column whose
    /// smallest remaining `r` cannot win.
    ///
    /// The hint only sets the scan's starting bound: `next_up` of the
    /// hint cell's cost under `factors`, or `+∞` when that cost is not
    /// finite. That bound lies strictly above the true minimum `m`, so
    /// the strict-`<` scan still ends at the first cell attaining `m`,
    /// as it does from `+∞`. The selected cell, cost and error are
    /// therefore identical to [`ParamLandscape::min_cost_cell`] for any
    /// hint and on every backend (there is no `fast` variant of
    /// selection); a good hint just lets more cells and columns be ruled
    /// out without a division.
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
        let n_max = self.n_max as usize;
        let (won, incumbent) = zeroconf_simd::min_cost_grid_scan(
            backend,
            BlockTerms {
                q: factors.q,
                one_minus_q: factors.one_minus_q,
                q_error_cost: factors.q_error_cost,
            },
            factors.probe_cost,
            &self.r_values,
            &self.r_floor,
            n_max,
            &self.pi_prefix,
            &self.pi_n,
            bound,
        );
        won.map(|at| {
            let (j, n) = (at / n_max, (at % n_max + 1) as u32);
            (j, n, incumbent, reconstruct_error(factors, self.pi_n[at]))
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

/// One-cell cost reconstruction: the exact Eq. (3) float sequence of
/// [`ColumnKernel::evaluate`](crate::kernel::ColumnKernel::evaluate),
/// replayed from the sufficient statistic.
#[must_use]
pub fn reconstruct_cost(
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
pub fn reconstruct_error(factors: &ScenarioFactors, pi_n: f64) -> f64 {
    factors.q * pi_n / (1.0 - factors.q * (1.0 - pi_n))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_dist::DefectiveExponential;

    use crate::kernel::evaluate_column;
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
            let (costs, errors) = evaluate_column(&s, n_max, r).unwrap();
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
    fn slab_reconstruction_matches_per_cell_reconstruction() {
        let s = figure2();
        let n_max = 12u32;
        let rs = [0.2, 1.0, 4.0];
        let landscape = ParamLandscape::build(&s, n_max, &rs).unwrap();
        let factors = ScenarioFactors::new(&s);
        let mut costs = vec![0.0; landscape.len()];
        let mut errors = vec![0.0; landscape.len()];
        landscape.reconstruct(&factors, Some(&mut costs), Some(&mut errors));
        for (j, _) in rs.iter().enumerate() {
            for n in 1..=n_max {
                let at = landscape.flat_index(j, n);
                assert_eq!(
                    costs[at].to_bits(),
                    landscape.cost_at(&factors, j, n).to_bits()
                );
                assert_eq!(
                    errors[at].to_bits(),
                    landscape.error_at(&factors, j, n).to_bits()
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
