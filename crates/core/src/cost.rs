//! The closed forms: mean total cost (Eq. 3), collision probability
//! (Eq. 4), the large-`r` asymptote and the `ν` bound of Section 4.4.

use zeroconf_dist::noanswer;

use crate::kernel::ScenarioFactors;
use crate::{CostError, Scenario};

/// A breakdown of the mean total cost into its Eq. (3) ingredients, for
/// reporting and debugging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostComponents {
    /// `(r + c) · n(1 − q)`: probing cost of the final, successful attempt.
    pub free_address_probing: f64,
    /// `(r + c) · q · Σ_{i=0}^{n−1} π_i(r)`: probing cost spent on occupied
    /// addresses.
    pub occupied_address_probing: f64,
    /// `q · E · π_n(r)`: expected collision penalty.
    pub collision_penalty: f64,
    /// The normalization `1 − q(1 − π_n(r))` (probability that one attempt
    /// resolves directly to `ok` or `error`).
    pub denominator: f64,
    /// The resulting total `C(n, r)`.
    pub total: f64,
}

/// Mean total cost `C(n, r)` — Eq. (3):
///
/// ```text
///            (r+c)·( n(1−q) + q·Σ_{i=0}^{n−1} π_i(r) ) + q·E·π_n(r)
/// C(n, r) = ────────────────────────────────────────────────────────
///                          1 − q·(1 − π_n(r))
/// ```
///
/// # Errors
///
/// - [`CostError::InvalidProbeCount`] when `n == 0`.
/// - [`CostError::InvalidListeningPeriod`] for negative/non-finite `r`.
pub fn mean_cost(scenario: &Scenario, n: u32, r: f64) -> Result<f64, CostError> {
    Ok(cost_components(scenario, n, r)?.total)
}

/// The full Eq. (3) breakdown behind [`mean_cost`].
///
/// # Errors
///
/// Same conditions as [`mean_cost`].
pub(crate) fn cost_components(
    scenario: &Scenario,
    n: u32,
    r: f64,
) -> Result<CostComponents, CostError> {
    check_n(n)?;
    check_r(r)?;
    let pis = noanswer::pi_sequence(scenario.reply_time(), n as usize, r)?;
    cost_components_from_pis(scenario, n, r, &pis)
}

/// The π-table `[π_0(r), …, π_{n_max}(r)]` for `scenario`'s reply-time
/// distribution — the shared input of the `*_from_pis` evaluators below.
///
/// The table depends only on the reply-time distribution and `r`, never on
/// `q`, `E` or `c`, so one table serves every probe count `n ≤ n_max` *and*
/// every re-evaluation under changed economic parameters. Because `π` is a
/// running prefix product, a table computed for a larger `n_max` is
/// bit-identical on its shared prefix with a shorter one; slicing a cached
/// table therefore reproduces the direct [`mean_cost`] floats exactly.
///
/// # Errors
///
/// Returns [`CostError::InvalidListeningPeriod`] for negative or
/// non-finite `r`.
pub fn pi_table(scenario: &Scenario, n_max: u32, r: f64) -> Result<Vec<f64>, CostError> {
    check_r(r)?;
    Ok(noanswer::pi_sequence(
        scenario.reply_time(),
        n_max as usize,
        r,
    )?)
}

/// The full Eq. (3) breakdown evaluated against a caller-supplied π-table
/// (from [`pi_table`], possibly cached and longer than `n + 1`).
///
/// This is the *single* implementation of the Eq. (3) arithmetic — the
/// direct entry points delegate here — so evaluating through a cache is
/// bit-identical to evaluating directly.
///
/// # Errors
///
/// Same conditions as [`mean_cost`], plus [`CostError::PiTableTooShort`]
/// when `pis` has fewer than `n + 1` entries.
pub fn cost_components_from_pis(
    scenario: &Scenario,
    n: u32,
    r: f64,
    pis: &[f64],
) -> Result<CostComponents, CostError> {
    check_n(n)?;
    check_r(r)?;
    check_table(n, pis)?;
    // The shared hoist: every factor below is the same expression the
    // inline form computed (`1 − q`, `(r+c)·q` left-associated, `q·E`),
    // so the components keep their exact bits.
    let f = ScenarioFactors::new(scenario);
    let pi_n = pis[n as usize];
    let pi_prefix_sum: f64 = pis[..n as usize].iter().sum();

    let free_address_probing = (r + f.probe_cost) * n as f64 * f.one_minus_q;
    let occupied_address_probing = (r + f.probe_cost) * f.q * pi_prefix_sum;
    let collision_penalty = f.q_error_cost * pi_n;
    let denominator = 1.0 - f.q * (1.0 - pi_n);
    let total = (free_address_probing + occupied_address_probing + collision_penalty) / denominator;
    Ok(CostComponents {
        free_address_probing,
        occupied_address_probing,
        collision_penalty,
        denominator,
        total,
    })
}

/// [`mean_cost`] evaluated against a caller-supplied π-table.
///
/// # Errors
///
/// Same conditions as [`cost_components_from_pis`].
pub fn mean_cost_from_pis(
    scenario: &Scenario,
    n: u32,
    r: f64,
    pis: &[f64],
) -> Result<f64, CostError> {
    Ok(cost_components_from_pis(scenario, n, r, pis)?.total)
}

/// Collision probability `E(n, r)` — Eq. (4):
///
/// ```text
///                  q·π_n(r)
/// E(n, r) = ─────────────────────
///            1 − q·(1 − π_n(r))
/// ```
///
/// # Errors
///
/// Same conditions as [`mean_cost`].
pub fn error_probability(scenario: &Scenario, n: u32, r: f64) -> Result<f64, CostError> {
    check_n(n)?;
    check_r(r)?;
    let pis = noanswer::pi_sequence(scenario.reply_time(), n as usize, r)?;
    error_probability_from_pis(scenario, n, &pis)
}

/// [`error_probability`] evaluated against a caller-supplied π-table.
///
/// Eq. (4) needs only `q` and `π_n(r)`, so `r` itself does not appear.
///
/// # Errors
///
/// [`CostError::InvalidProbeCount`] when `n == 0`,
/// [`CostError::PiTableTooShort`] when `pis` has fewer than `n + 1`
/// entries.
pub fn error_probability_from_pis(
    scenario: &Scenario,
    n: u32,
    pis: &[f64],
) -> Result<f64, CostError> {
    check_n(n)?;
    check_table(n, pis)?;
    let f = ScenarioFactors::new(scenario);
    let pi_n = pis[n as usize];
    Ok(f.q * pi_n / (1.0 - f.q * (1.0 - pi_n)))
}

/// The asymptote `A_n(r)` that `C_n(r)` approaches as `r → ∞`
/// (Section 4.2):
///
/// ```text
/// A_n(r) = (r+c)·( n(1−q) + q·Σ_{i=0}^{n−1} (1−l)^i ) / (1 − q)
/// ```
///
/// The geometric sum is written out instead of `(1−(1−l)^n)/l` so the
/// lossless case `l = 0` needs no special-casing.
///
/// # Errors
///
/// Same conditions as [`mean_cost`].
pub fn asymptote(scenario: &Scenario, n: u32, r: f64) -> Result<f64, CostError> {
    check_n(n)?;
    check_r(r)?;
    let q = scenario.occupancy();
    let c = scenario.probe_cost();
    let defect = scenario.reply_time().defect();
    let geometric_sum: f64 = (0..n).map(|i| defect.powi(i as i32)).sum();
    Ok((r + c) * (n as f64 * (1.0 - q) + q * geometric_sum) / (1.0 - q))
}

/// `C_n(0)`: with no listening at all, every occupied address is accepted
/// (`π_i(0) = 1`), so the cost collapses to `c·n + q·E` — the sanity anchor
/// the paper states as `C_n(0) = qE` for dominant `E`.
///
/// # Errors
///
/// Returns [`CostError::InvalidProbeCount`] when `n == 0`.
pub fn cost_at_zero_listening(scenario: &Scenario, n: u32) -> Result<f64, CostError> {
    check_n(n)?;
    Ok(scenario.probe_cost() * n as f64 + scenario.occupancy() * scenario.error_cost())
}

/// The minimal useful probe count (Section 4.4):
///
/// ```text
/// ν = ⌈ −log E / log(1 − l) ⌉
/// ```
///
/// For `n < ν` the residual collision term `q·E·π_n(r)` can never get
/// close to zero, whatever `r`. Returns `None` when the link never loses
/// replies (`l = 1`, the bound degenerates to zero) and saturates at
/// `u32::MAX` for extraordinarily lossy links.
pub fn nu_lower_bound(scenario: &Scenario) -> Option<u32> {
    let defect = scenario.reply_time().defect();
    let e = scenario.error_cost();
    if defect <= 0.0 {
        return None;
    }
    if e <= 1.0 {
        return Some(0);
    }
    if defect >= 1.0 {
        // Replies never arrive: no probe count helps.
        return Some(u32::MAX);
    }
    let nu = -(e.ln()) / defect.ln();
    if nu >= u32::MAX as f64 {
        Some(u32::MAX)
    } else {
        Some(nu.ceil() as u32)
    }
}

pub(crate) fn check_n(n: u32) -> Result<(), CostError> {
    if n == 0 {
        Err(CostError::InvalidProbeCount { n })
    } else {
        Ok(())
    }
}

pub(crate) fn check_r(r: f64) -> Result<(), CostError> {
    if !r.is_finite() || r < 0.0 {
        Err(CostError::InvalidListeningPeriod { value: r })
    } else {
        Ok(())
    }
}

fn check_table(n: u32, pis: &[f64]) -> Result<(), CostError> {
    let needed = n as usize + 1;
    if pis.len() < needed {
        Err(CostError::PiTableTooShort {
            needed,
            len: pis.len(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_dist::DefectiveExponential;

    use crate::Scenario;

    use super::*;

    /// The exact Figure 2 scenario.
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
    fn cost_at_zero_matches_collapse_formula() {
        let s = figure2();
        for n in [1, 2, 4, 8] {
            let direct = mean_cost(&s, n, 0.0).unwrap();
            let formula = cost_at_zero_listening(&s, n).unwrap();
            assert!(
                ((direct - formula) / formula).abs() < 1e-12,
                "n = {n}: {direct} vs {formula}"
            );
        }
        // And qE dominates: the paper states C_n(0) = qE.
        let qe = s.occupancy() * s.error_cost();
        assert!((mean_cost(&s, 4, 0.0).unwrap() / qe - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cost_has_interior_minimum_for_n_at_least_nu() {
        // Figure 2: each C_n first falls polynomially, then rises linearly.
        let s = figure2();
        let at = |r: f64| mean_cost(&s, 4, r).unwrap();
        let c_small = at(0.5);
        let c_mid = at(3.0);
        let c_large = at(60.0);
        assert!(c_mid < c_small, "{c_mid} < {c_small}");
        assert!(c_mid < c_large, "{c_mid} < {c_large}");
    }

    #[test]
    fn cost_approaches_asymptote_for_large_r() {
        let s = figure2();
        for n in [3, 5, 8] {
            let r = 500.0;
            let cost = mean_cost(&s, n, r).unwrap();
            let asym = asymptote(&s, n, r).unwrap();
            assert!(
                ((cost - asym) / asym).abs() < 1e-6,
                "n = {n}: cost {cost} vs asymptote {asym}"
            );
        }
    }

    #[test]
    fn asymptote_is_linear_in_r() {
        let s = figure2();
        let a1 = asymptote(&s, 4, 10.0).unwrap();
        let a2 = asymptote(&s, 4, 20.0).unwrap();
        let a3 = asymptote(&s, 4, 30.0).unwrap();
        assert!(((a3 - a2) - (a2 - a1)).abs() < 1e-9 * a2);
    }

    #[test]
    fn components_sum_to_total() {
        let s = figure2();
        let comp = cost_components(&s, 4, 2.0).unwrap();
        let reassembled =
            (comp.free_address_probing + comp.occupied_address_probing + comp.collision_penalty)
                / comp.denominator;
        assert!((reassembled - comp.total).abs() < 1e-12 * comp.total.abs());
        assert!(comp.denominator > 0.0 && comp.denominator <= 1.0);
    }

    #[test]
    fn error_probability_is_a_probability_and_decreases_with_n() {
        let s = figure2();
        let mut prev = 1.0;
        for n in 1..=8 {
            let p = error_probability(&s, n, 2.0).unwrap();
            assert!((0.0..=1.0).contains(&p));
            assert!(p <= prev);
            prev = p;
        }
    }

    #[test]
    fn error_probability_decreases_with_r() {
        let s = figure2();
        let p1 = error_probability(&s, 4, 1.5).unwrap();
        let p2 = error_probability(&s, 4, 3.0).unwrap();
        assert!(p2 < p1);
    }

    #[test]
    fn error_probability_at_zero_listening_is_conditional_occupancy() {
        // With π_n = 1, Eq. (4) gives q / (1 − q(1−1)) = q.
        let s = figure2();
        let p = error_probability(&s, 4, 0.0).unwrap();
        assert!((p - s.occupancy()).abs() < 1e-15);
    }

    #[test]
    fn figure5_magnitude_band() {
        // Figure 5/6: for the Figure 2 scenario the error probability at
        // moderate r and n in 3..8 lives around 1e−35 .. 1e−54.
        let s = figure2();
        let p = error_probability(&s, 4, 3.0).unwrap();
        assert!(p > 1e-60 && p < 1e-30, "p = {p:e}");
    }

    #[test]
    fn nu_matches_paper_value() {
        // Section 4.4: E = 1e35, 1 − l = 1e−15 gives ν = ⌈35/15⌉ = 3,
        // "therefore it is impossible to achieve a reasonable cost if
        // n = 1, 2".
        assert_eq!(nu_lower_bound(&figure2()), Some(3));
    }

    #[test]
    fn nu_edge_cases() {
        let s = figure2();
        // Lossless link: bound undefined.
        let lossless = Scenario::builder()
            .occupancy(s.occupancy())
            .probe_cost(s.probe_cost())
            .error_cost(s.error_cost())
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(0.0, 10.0, 1.0).unwrap(),
            ))
            .build()
            .unwrap();
        assert_eq!(nu_lower_bound(&lossless), None);
        // Cheap errors: any n works.
        let cheap = s.with_error_cost(0.5).unwrap();
        assert_eq!(nu_lower_bound(&cheap), Some(0));
    }

    #[test]
    fn from_pis_with_oversized_table_is_bit_identical() {
        // An engine caches one π-table per r, long enough for every n in
        // the sweep; slicing it must reproduce the direct floats exactly.
        let s = figure2();
        let n_max = 10;
        for r in [0.0, 0.3, 2.0, 17.5] {
            let table = pi_table(&s, n_max, r).unwrap();
            for n in 1..=n_max {
                let direct = mean_cost(&s, n, r).unwrap();
                let via_table = mean_cost_from_pis(&s, n, r, &table).unwrap();
                assert_eq!(direct.to_bits(), via_table.to_bits(), "n = {n}, r = {r}");
                let direct_e = error_probability(&s, n, r).unwrap();
                let via_table_e = error_probability_from_pis(&s, n, &table).unwrap();
                assert_eq!(
                    direct_e.to_bits(),
                    via_table_e.to_bits(),
                    "n = {n}, r = {r}"
                );
            }
        }
    }

    #[test]
    fn from_pis_rejects_short_tables() {
        let s = figure2();
        let table = pi_table(&s, 2, 1.0).unwrap();
        assert!(matches!(
            mean_cost_from_pis(&s, 5, 1.0, &table),
            Err(CostError::PiTableTooShort { needed: 6, len: 3 })
        ));
        assert!(matches!(
            error_probability_from_pis(&s, 3, &table),
            Err(CostError::PiTableTooShort { .. })
        ));
        // Exactly n + 1 entries is enough.
        assert!(mean_cost_from_pis(&s, 2, 1.0, &table).is_ok());
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let s = figure2();
        assert!(matches!(
            mean_cost(&s, 0, 1.0),
            Err(CostError::InvalidProbeCount { n: 0 })
        ));
        assert!(matches!(
            mean_cost(&s, 4, -1.0),
            Err(CostError::InvalidListeningPeriod { .. })
        ));
        assert!(error_probability(&s, 0, 1.0).is_err());
        assert!(error_probability(&s, 4, f64::NAN).is_err());
        assert!(asymptote(&s, 0, 1.0).is_err());
        assert!(cost_at_zero_listening(&s, 0).is_err());
    }

    #[test]
    fn n_one_and_two_are_off_scale_in_figure2() {
        // "the functions for n = 1, 2 are not visible, since their smallest
        // values are much too large": their minima over r remain astronomical
        // compared to C_4's.
        let s = figure2();
        let min_c4: f64 = (1..200)
            .map(|k| mean_cost(&s, 4, k as f64 * 0.1).unwrap())
            .fold(f64::INFINITY, f64::min);
        for n in [1, 2] {
            let min_cn: f64 = (1..400)
                .map(|k| mean_cost(&s, n, k as f64 * 0.25).unwrap())
                .fold(f64::INFINITY, f64::min);
            // n = 1 is astronomically off (qEπ_1 -> 1.5e18); n = 2 still
            // two orders of magnitude above the visible curves.
            assert!(
                min_cn > 50.0 * min_c4,
                "n = {n}: min {min_cn:e} vs C4 min {min_c4:e}"
            );
        }
    }
}
