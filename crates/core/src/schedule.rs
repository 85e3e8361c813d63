//! Extension: non-uniform listening schedules.
//!
//! The paper's protocol listens for the same `r` seconds after every
//! probe, and its introduction explicitly asks: *"Are there variations of
//! the protocol which behave equivalently except that configuration takes
//! less time?"* This module answers that question within the model: let
//! round `j` listen for its own `r_j`, so probe `j` goes out at
//! `T_{j−1} = r_1 + … + r_{j−1}`.
//!
//! The DRM of Section 3.1 carries over unchanged in structure — only the
//! round costs become `r_j + c` and the no-answer probabilities generalize
//! through the independent-probes reading of Eq. (1):
//!
//! ```text
//! π_i = Π_{j=1..i} survival(T_i − T_{j−1})      (π of the first i rounds)
//! p_i = π_i / π_{i−1}
//! ```
//!
//! and the mean total cost becomes
//!
//! ```text
//!      Σ_{i=1..n} (r_i + c)·((1−q) + q·π_{i−1}) + q·E·π_n
//! C = ─────────────────────────────────────────────────────
//!                    1 − q·(1 − π_n)
//! ```
//!
//! which collapses to Eq. (3) for a uniform schedule (tested). A
//! coordinate-descent optimizer then searches the schedule space; the
//! `schedules` benchmark and the integration tests quantify how much a
//! tuned schedule saves over the best uniform one.

use zeroconf_dist::ReplyTimeDistribution;
use zeroconf_dtmc::{AbsorbingAnalysis, DtmcBuilder, StateId};
use zeroconf_numopt::{golden_section_min, Tolerance};

use crate::cost::check_n;
use crate::drm::Drm;
use crate::optimize::{self, OptimizeConfig};
use crate::{CostError, Scenario};

/// A per-round listening schedule `r_1, …, r_n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    periods: Vec<f64>,
}

impl Schedule {
    /// Creates a schedule from explicit per-round periods.
    ///
    /// # Errors
    ///
    /// - [`CostError::InvalidProbeCount`] for an empty list.
    /// - [`CostError::InvalidListeningPeriod`] for a negative or
    ///   non-finite period.
    pub fn new(periods: Vec<f64>) -> Result<Self, CostError> {
        if periods.is_empty() {
            return Err(CostError::InvalidProbeCount { n: 0 });
        }
        for &r in &periods {
            if !r.is_finite() || r < 0.0 {
                return Err(CostError::InvalidListeningPeriod { value: r });
            }
        }
        Ok(Schedule { periods })
    }

    /// The paper's protocol: `n` rounds of `r` seconds each.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Schedule::new`].
    pub fn uniform(n: u32, r: f64) -> Result<Self, CostError> {
        check_n(n)?;
        Schedule::new(vec![r; n as usize])
    }

    /// Number of probes `n`.
    pub fn probes(&self) -> u32 {
        self.periods.len() as u32
    }

    /// The per-round periods.
    pub fn periods(&self) -> &[f64] {
        &self.periods
    }

    /// Total listening time `T_n = Σ r_j` — the user-visible wait on a
    /// free address.
    pub fn total_listening(&self) -> f64 {
        self.periods.iter().sum()
    }

    /// Probe transmission times `T_0 = 0, T_1, …, T_{n−1}`.
    pub fn probe_times(&self) -> Vec<f64> {
        let mut times = Vec::with_capacity(self.periods.len());
        let mut t = 0.0;
        for &r in &self.periods {
            times.push(t);
            t += r;
        }
        times
    }

    /// Round-end times `T_1, …, T_n`.
    pub fn round_ends(&self) -> Vec<f64> {
        let mut ends = Vec::with_capacity(self.periods.len());
        let mut t = 0.0;
        for &r in &self.periods {
            t += r;
            ends.push(t);
        }
        ends
    }
}

/// `π_0, …, π_n` for a schedule: `π_i` is the probability that none of the
/// first `i` probes has been answered by the end of round `i`.
pub fn pi_sequence<D: ReplyTimeDistribution + ?Sized>(dist: &D, schedule: &Schedule) -> Vec<f64> {
    let sends = schedule.probe_times();
    let ends = schedule.round_ends();
    let mut out = Vec::with_capacity(sends.len() + 1);
    out.push(1.0);
    for i in 0..sends.len() {
        let t_i = ends[i];
        let pi: f64 = sends[..=i]
            .iter()
            .map(|&send| dist.survival(t_i - send))
            .product();
        out.push(pi.clamp(0.0, 1.0));
    }
    out
}

/// Mean total cost of a protocol run under a schedule (the generalized
/// Eq. 3).
///
/// # Errors
///
/// Infallible for a valid schedule and scenario; the `Result` mirrors the
/// uniform API.
pub fn mean_cost(scenario: &Scenario, schedule: &Schedule) -> Result<f64, CostError> {
    let q = scenario.occupancy();
    let c = scenario.probe_cost();
    let e = scenario.error_cost();
    let pis = pi_sequence(scenario.reply_time(), schedule);
    let n = schedule.periods().len();
    let mut probing = 0.0;
    for (period, pi) in schedule.periods().iter().zip(&pis) {
        probing += (period + c) * ((1.0 - q) + q * pi);
    }
    let pi_n = pis[n];
    Ok((probing + q * e * pi_n) / (1.0 - q * (1.0 - pi_n)))
}

/// Collision probability under a schedule (the generalized Eq. 4).
///
/// # Errors
///
/// Infallible for a valid schedule; mirrors the uniform API.
pub fn error_probability(scenario: &Scenario, schedule: &Schedule) -> Result<f64, CostError> {
    let q = scenario.occupancy();
    let pis = pi_sequence(scenario.reply_time(), schedule);
    let pi_n = *pis.last().expect("pi_sequence is never empty");
    Ok(q * pi_n / (1.0 - q * (1.0 - pi_n)))
}

/// Builds the schedule's DRM explicitly (cross-validation route).
///
/// # Errors
///
/// Propagates chain-construction failures (not expected for valid input).
fn build_drm(scenario: &Scenario, schedule: &Schedule) -> Result<Drm, CostError> {
    let q = scenario.occupancy();
    let c = scenario.probe_cost();
    let e = scenario.error_cost();
    let pis = pi_sequence(scenario.reply_time(), schedule);
    let n = schedule.periods().len();
    let p: Vec<f64> = (1..=n)
        .map(|i| {
            if pis[i - 1] <= 0.0 {
                0.0
            } else {
                (pis[i] / pis[i - 1]).clamp(0.0, 1.0)
            }
        })
        .collect();

    let mut b = DtmcBuilder::with_capacity(n + 3);
    let start = b.add_state("start");
    let probes: Vec<StateId> = (1..=n).map(|i| b.add_state(format!("probe{i}"))).collect();
    let error = b.add_state("error");
    let ok = b.add_state("ok");
    let total_ok_cost = schedule.total_listening() + n as f64 * c;
    b.add_transition(start, probes[0], q, schedule.periods()[0] + c)?;
    b.add_transition(start, ok, 1.0 - q, total_ok_cost)?;
    for i in 0..n {
        let (next, cost) = if i + 1 < n {
            (probes[i + 1], schedule.periods()[i + 1] + c)
        } else {
            (error, e)
        };
        b.add_transition(probes[i], next, p[i], cost)?;
        b.add_transition(probes[i], start, 1.0 - p[i], 0.0)?;
    }
    b.make_absorbing(error)?;
    b.make_absorbing(ok)?;
    Ok(Drm {
        chain: b.build()?,
        start,
        probes,
        error,
        ok,
    })
}

/// Mean cost via the schedule DRM's linear solve.
///
/// # Errors
///
/// Propagates chain-analysis failures.
pub fn mean_cost_via_drm(scenario: &Scenario, schedule: &Schedule) -> Result<f64, CostError> {
    let drm = build_drm(scenario, schedule)?;
    let analysis = AbsorbingAnalysis::new(&drm.chain)?;
    Ok(analysis.expected_total_reward(drm.start)?)
}

/// An optimized schedule with its performance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOptimum {
    /// The optimized per-round periods.
    pub schedule: Schedule,
    /// Mean cost under the optimized schedule.
    pub cost: f64,
    /// Collision probability under the optimized schedule.
    pub error_probability: f64,
    /// Cost of the best *uniform* schedule with the same probe count, for
    /// comparison.
    pub uniform_cost: f64,
    /// Coordinate-descent sweeps performed.
    pub sweeps: usize,
}

/// Optimizes the per-round periods for a fixed probe count by cyclic
/// coordinate descent (golden-section line searches), starting from the
/// best uniform schedule.
///
/// The objective is smooth and each coordinate slice is unimodal in
/// practice (a scaled copy of the uniform trade-off), so descent converges
/// quickly; iteration stops when a full sweep improves the cost by less
/// than `1e−10` relative, or after 40 sweeps.
///
/// # Errors
///
/// - Argument validation as in [`Scenario::mean_cost`].
/// - Propagated optimizer failures.
pub fn optimize_schedule(
    scenario: &Scenario,
    n: u32,
    config: &OptimizeConfig,
) -> Result<ScheduleOptimum, CostError> {
    check_n(n)?;
    let uniform = optimize::optimal_listening(scenario, n, config)?;
    let mut periods = vec![uniform.r; n as usize];
    let mut best = mean_cost(scenario, &Schedule::new(periods.clone())?)?;
    let tolerance = Tolerance {
        x_abs: 1e-9,
        x_rel: 1e-11,
        max_iterations: 200,
    };
    let mut sweeps = 0;
    for _ in 0..40 {
        sweeps += 1;
        let before = best;
        for i in 0..periods.len() {
            let objective = |r: f64| {
                let mut candidate = periods.clone();
                candidate[i] = r;
                Schedule::new(candidate)
                    .and_then(|s| mean_cost(scenario, &s))
                    .unwrap_or(f64::NAN)
            };
            let minimum = golden_section_min(objective, 0.0, config.r_max, tolerance)?;
            if minimum.value < best {
                periods[i] = minimum.argument;
                best = minimum.value;
            }
        }
        if (before - best) / before.abs().max(1e-300) < 1e-10 {
            break;
        }
    }
    let schedule = Schedule::new(periods)?;
    let error_probability = error_probability(scenario, &schedule)?;
    Ok(ScheduleOptimum {
        cost: best,
        error_probability,
        uniform_cost: uniform.cost,
        schedule,
        sweeps,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_dist::DefectiveExponential;

    use crate::{cost, paper};

    use super::*;

    fn figure2() -> Scenario {
        paper::figure2_scenario().unwrap()
    }

    fn moderate() -> Scenario {
        Scenario::builder()
            .occupancy(0.3)
            .probe_cost(1.5)
            .error_cost(500.0)
            .reply_time(Arc::new(DefectiveExponential::new(0.8, 2.0, 0.4).unwrap()))
            .build()
            .unwrap()
    }

    #[test]
    fn schedule_construction_validates() {
        assert!(Schedule::new(vec![]).is_err());
        assert!(Schedule::new(vec![1.0, -0.5]).is_err());
        assert!(Schedule::new(vec![1.0, f64::NAN]).is_err());
        assert!(Schedule::uniform(0, 1.0).is_err());
        let s = Schedule::uniform(4, 2.0).unwrap();
        assert_eq!(s.probes(), 4);
        assert_eq!(s.total_listening(), 8.0);
        assert_eq!(s.probe_times(), vec![0.0, 2.0, 4.0, 6.0]);
        assert_eq!(s.round_ends(), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn uniform_schedule_reproduces_eq3_exactly() {
        for scenario in [figure2(), moderate()] {
            for n in [1u32, 3, 5, 8] {
                for r in [0.0, 0.5, 2.0, 6.0] {
                    let uniform = Schedule::uniform(n, r).unwrap();
                    let general = mean_cost(&scenario, &uniform).unwrap();
                    let eq3 = cost::mean_cost(&scenario, n, r).unwrap();
                    assert!(
                        ((general - eq3) / eq3.abs().max(1e-300)).abs() < 1e-12,
                        "n = {n}, r = {r}: {general} vs {eq3}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_schedule_reproduces_eq4_exactly() {
        let scenario = moderate();
        for n in [1u32, 4] {
            for r in [0.3, 1.0] {
                let uniform = Schedule::uniform(n, r).unwrap();
                let general = error_probability(&scenario, &uniform).unwrap();
                let eq4 = cost::error_probability(&scenario, n, r).unwrap();
                assert!((general - eq4).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn schedule_pi_differs_from_uniform_pi_when_rounds_differ() {
        // Sanity: the generalization is not just reading r_1.
        let scenario = moderate();
        let skewed = Schedule::new(vec![2.0, 0.1]).unwrap();
        let uniform = Schedule::uniform(2, 1.05).unwrap(); // same total
        let pi_skewed = pi_sequence(scenario.reply_time(), &skewed);
        let pi_uniform = pi_sequence(scenario.reply_time(), &uniform);
        assert!((pi_skewed[2] - pi_uniform[2]).abs() > 1e-6);
    }

    #[test]
    fn closed_form_matches_drm_for_non_uniform_schedules() {
        let scenario = moderate();
        for periods in [
            vec![0.5, 1.0, 2.0],
            vec![2.0, 0.2],
            vec![0.0, 1.0, 0.0, 2.0],
            vec![3.0],
        ] {
            let schedule = Schedule::new(periods.clone()).unwrap();
            let closed = mean_cost(&scenario, &schedule).unwrap();
            let solved = mean_cost_via_drm(&scenario, &schedule).unwrap();
            assert!(
                ((closed - solved) / closed).abs() < 1e-10,
                "{periods:?}: {closed} vs {solved}"
            );
        }
    }

    #[test]
    fn optimized_schedule_beats_or_matches_uniform() {
        let scenario = figure2();
        let config = OptimizeConfig {
            r_max: 30.0,
            grid_points: 300,
            n_max: 12,
            ..OptimizeConfig::default()
        };
        let optimum = optimize_schedule(&scenario, 3, &config).unwrap();
        assert!(
            optimum.cost <= optimum.uniform_cost + 1e-9,
            "optimized {} vs uniform {}",
            optimum.cost,
            optimum.uniform_cost
        );
        assert!(optimum.sweeps >= 1);
        assert_eq!(optimum.schedule.probes(), 3);
    }

    #[test]
    fn optimized_schedule_back_loads_waiting() {
        // The optimum fires probes early and listens late: a reply to ANY
        // earlier probe can still arrive during the long final round, so
        // compressing the early rounds multiplies the chances the last
        // window catches something. This is the schedule-space version of
        // the paper's own Section 4.3 remark that with free postage "the
        // optimal strategy would be to send as many ARP probes as fast as
        // possible".
        let scenario = figure2();
        let config = OptimizeConfig {
            r_max: 30.0,
            grid_points: 300,
            n_max: 12,
            ..OptimizeConfig::default()
        };
        let optimum = optimize_schedule(&scenario, 3, &config).unwrap();
        let p = optimum.schedule.periods();
        assert!(
            p[p.len() - 1] >= p[0] - 1e-6,
            "expected back-loaded schedule, got {p:?}"
        );
        // And the tuned schedule strictly beats the best uniform one.
        assert!(optimum.cost < optimum.uniform_cost * 0.999);
    }

    #[test]
    fn error_probability_of_schedule_is_a_probability() {
        let scenario = moderate();
        let schedule = Schedule::new(vec![0.7, 0.1, 1.3]).unwrap();
        let p = error_probability(&scenario, &schedule).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn zero_length_rounds_degenerate_to_fewer_effective_probes() {
        // An all-zero schedule never hears a delayed reply: every occupied
        // candidate collides (π_n = 1), like r = 0 in the uniform model.
        let scenario = moderate();
        let schedule = Schedule::new(vec![0.0, 0.0, 0.0]).unwrap();
        let p = error_probability(&scenario, &schedule).unwrap();
        assert!((p - scenario.occupancy()).abs() < 1e-12);
    }
}
