//! Figures 1 – 6: the paper's evaluation plots, regenerated.

use zeroconf_cost::kernel::ScenarioFactors;
use zeroconf_cost::optimize::{self, OptimizeConfig};
use zeroconf_cost::{drm, paper, Scenario};
use zeroconf_engine::{Engine, EngineConfig, GridSpec, Metric, SweepRequest, SweepResponse};
use zeroconf_plot::{Chart, Series};

use super::sample_grid;
use crate::{harness_err, ExperimentOutput, HarnessError};

/// Listening-period range shared by Figures 2 – 6.
const R_LO: f64 = 0.0;
const R_HI: f64 = 20.0;
/// Sampling density of the curves.
const SAMPLES: usize = 400;
/// Figure 2 clips its y-axis so that the astronomical `C_1`, `C_2` curves
/// fall outside the plot, exactly as in the paper ("the functions for
/// n = 1, 2 are not visible").
const FIG2_Y_CAP: f64 = 100.0;

fn figure2_scenario() -> Result<Scenario, HarnessError> {
    paper::figure2_scenario().map_err(harness_err("figures"))
}

fn optimize_config() -> OptimizeConfig {
    OptimizeConfig {
        r_max: 60.0,
        grid_points: 500,
        n_max: 32,
        ..OptimizeConfig::default()
    }
}

/// The cells of one probe count `n` from an `r`-major sweep response, in
/// grid order, materialized lazily from the flat landscape buffers.
fn cells_for_n(
    response: &SweepResponse,
    n: u32,
) -> impl Iterator<Item = zeroconf_engine::Cell> + '_ {
    response.landscape.iter().filter(move |cell| cell.n == n)
}

/// One observability row summarizing what the engine did for a figure.
fn engine_row(response: &SweepResponse) -> String {
    format!(
        "engine: {} cells, {} π-tables computed, {} served from cache",
        response.stats.cells, response.stats.cache_misses, response.stats.cache_hits
    )
}

/// Figure 1: the structure of the DRM family — regenerated as a full
/// state/transition dump of the constructed chain for `n = 4`.
pub fn fig1() -> Result<ExperimentOutput, HarnessError> {
    let scenario = figure2_scenario()?;
    let model = drm::build(&scenario, 4, 2.0).map_err(harness_err("fig1"))?;
    // The same shared hoist the kernels use; the header thereby prints
    // exactly the constants the arithmetic ran with.
    let factors = ScenarioFactors::new(&scenario);
    let mut rows = vec![format!(
        "DRM for n = 4, r = 2 (q = {:.6}, c = {}, E = {:e}):",
        factors.q, factors.probe_cost, factors.error_cost
    )];
    rows.extend(model.chain.to_string().lines().map(str::to_owned));
    Ok(ExperimentOutput {
        id: "fig1",
        description: "Figure 1: structure of the DRM family (state dump)",
        rows,
        chart: None,
    })
}

/// Figure 2: the cost curves `C_1(r) … C_8(r)`.
///
/// All 8 × `SAMPLES` grid cells come from a single batched engine sweep;
/// per-curve clipping and the paper's "invisible" off-scale curves are
/// applied to the returned cells.
pub fn fig2() -> Result<ExperimentOutput, HarnessError> {
    let scenario = figure2_scenario()?;
    let engine = Engine::new(EngineConfig::default());
    let request = SweepRequest {
        scenario: scenario.clone(),
        grid: GridSpec {
            n_max: 8,
            r_values: sample_grid(R_LO, R_HI, SAMPLES),
        },
        metrics: vec![Metric::MeanCost],
    };
    let response = engine.evaluate(&request).map_err(harness_err("fig2"))?;
    let mut chart = Chart::new("Figure 2: cost functions C_n(r)")
        .x_label("listening period r (s)")
        .y_label("mean total cost");
    for n in 1..=8u32 {
        let points: Vec<(f64, f64)> = cells_for_n(&response, n)
            .filter_map(|cell| {
                let cost = cell.mean_cost?;
                // Off-scale cells (the paper's invisible n = 1, 2) are
                // skipped, exactly as Series::sample skipped them.
                (cost.is_finite() && cost <= FIG2_Y_CAP).then_some((cell.r, cost))
            })
            .collect();
        if points.is_empty() {
            // Entirely off-scale curves simply do not appear — like the
            // paper's C_1.
            continue;
        }
        chart =
            chart.with_series(Series::new(format!("C_{n}"), points).map_err(harness_err("fig2"))?);
    }
    let mut rows = vec![
        engine_row(&response),
        "per-n minima (cf. Figure 2: minima rise again beyond n = 3):".to_owned(),
        format!("{:>3} {:>12} {:>18}", "n", "r_opt", "C_n(r_opt)"),
    ];
    let cfg = optimize_config();
    for n in 1..=8u32 {
        let opt = optimize::optimal_listening(&scenario, n, &cfg).map_err(harness_err("fig2"))?;
        rows.push(format!("{:>3} {:>12.4} {:>18.6e}", n, opt.r, opt.cost));
    }
    Ok(ExperimentOutput {
        id: "fig2",
        description: "Figure 2: cost functions C_1..C_8 over r",
        rows,
        chart: Some(chart),
    })
}

/// Figure 3: the optimal probe count `N(r)`.
pub fn fig3() -> Result<ExperimentOutput, HarnessError> {
    let scenario = figure2_scenario()?;
    let cfg = optimize_config();
    let mut points = Vec::with_capacity(SAMPLES);
    let mut jumps: Vec<(f64, u32, u32)> = Vec::new();
    let mut previous: Option<u32> = None;
    for k in 0..SAMPLES {
        let r = 0.2 + (R_HI - 0.2) * k as f64 / (SAMPLES - 1) as f64;
        let best =
            optimize::optimal_probe_count(&scenario, r, &cfg).map_err(harness_err("fig3"))?;
        points.push((r, best.n as f64));
        if let Some(prev) = previous {
            if prev != best.n {
                jumps.push((r, prev, best.n));
            }
        }
        previous = Some(best.n);
    }
    let chart = Chart::new("Figure 3: optimal probe count N(r)")
        .x_label("listening period r (s)")
        .y_label("N(r)")
        .with_series(Series::new("N(r)", points).map_err(harness_err("fig3"))?);
    let mut rows = vec!["steps of the piecewise-constant N(r):".to_owned()];
    for (r, from, to) in jumps {
        rows.push(format!("  at r ≈ {r:.3}: N drops {from} -> {to}"));
    }
    Ok(ExperimentOutput {
        id: "fig3",
        description: "Figure 3: optimal n for given r (decreasing step function)",
        rows,
        chart: Some(chart),
    })
}

/// Figure 4: the minimal-cost envelope `C_min(r)`.
pub fn fig4() -> Result<ExperimentOutput, HarnessError> {
    let scenario = figure2_scenario()?;
    let cfg = optimize_config();
    let mut points = Vec::with_capacity(SAMPLES);
    let mut best = (f64::INFINITY, 0.0);
    for k in 0..SAMPLES {
        let r = 0.2 + (R_HI - 0.2) * k as f64 / (SAMPLES - 1) as f64;
        let envelope =
            optimize::minimal_cost_envelope(&scenario, r, &cfg).map_err(harness_err("fig4"))?;
        points.push((r, envelope));
        if envelope < best.0 {
            best = (envelope, r);
        }
    }
    let chart = Chart::new("Figure 4: minimal-cost function C_min(r)")
        .x_label("listening period r (s)")
        .y_label("C_min(r)")
        .with_series(Series::new("C_min", points).map_err(harness_err("fig4"))?);
    let joint = optimize::joint_optimum(&scenario, &cfg).map_err(harness_err("fig4"))?;
    let rows = vec![
        format!(
            "grid minimum of the envelope: C_min ≈ {:.4} at r ≈ {:.3}",
            best.0, best.1
        ),
        format!(
            "joint optimum (refined): n* = {}, r* = {:.4}, C = {:.4}",
            joint.n, joint.r, joint.cost
        ),
    ];
    Ok(ExperimentOutput {
        id: "fig4",
        description: "Figure 4: lower envelope C_min(r) = C(N(r), r)",
        rows,
        chart: Some(chart),
    })
}

/// Figure 5: the collision probability `E(n, r)` on a log axis.
///
/// One engine sweep supplies all eight curves.
pub fn fig5() -> Result<ExperimentOutput, HarnessError> {
    let scenario = figure2_scenario()?;
    let engine = Engine::new(EngineConfig::default());
    let request = SweepRequest {
        scenario: scenario.clone(),
        grid: GridSpec {
            n_max: 8,
            r_values: sample_grid(0.05, R_HI, SAMPLES),
        },
        metrics: vec![Metric::ErrorProbability],
    };
    let response = engine.evaluate(&request).map_err(harness_err("fig5"))?;
    let mut chart = Chart::new("Figure 5: probability to reach state error")
        .x_label("listening period r (s)")
        .y_label("E(n, r)")
        .log_y(true);
    for n in 1..=8u32 {
        let points: Vec<(f64, f64)> = cells_for_n(&response, n)
            .filter_map(|cell| Some((cell.r, cell.error_probability?)))
            .collect();
        let series = Series::new(format!("E_{n}"), points).map_err(harness_err("fig5"))?;
        chart = chart.with_series(series);
    }
    let mut rows = vec![
        engine_row(&response),
        "collision probabilities at the draft configuration:".to_owned(),
        format!(
            "E(4, 2.0)  = {:.4e}",
            scenario
                .error_probability(4, 2.0)
                .map_err(harness_err("fig5"))?
        ),
        format!(
            "E(4, 0.2)  = {:.4e}",
            scenario
                .error_probability(4, 0.2)
                .map_err(harness_err("fig5"))?
        ),
    ];
    rows.push("per-n probabilities at r = 2:".to_owned());
    for n in 1..=8u32 {
        rows.push(format!(
            "  E({n}, 2.0) = {:.4e}",
            scenario
                .error_probability(n, 2.0)
                .map_err(harness_err("fig5"))?
        ));
    }
    Ok(ExperimentOutput {
        id: "fig5",
        description: "Figure 5: error probability E(n, r), log scale",
        rows,
        chart: Some(chart),
    })
}

/// Figure 6: `E(N(r), r)` — the collision probability when `n` is always
/// chosen cost-optimally.
///
/// A single engine sweep up to the optimizer's `n_max` serves both the
/// sawtooth main curve (one lookup per cost-optimal `N(r)`) and the
/// fixed-`n` overlay curves; only the `N(r)` search itself stays with the
/// optimizer.
pub fn fig6() -> Result<ExperimentOutput, HarnessError> {
    let scenario = figure2_scenario()?;
    let cfg = optimize_config();
    let engine = Engine::new(EngineConfig::default());
    let r_values = sample_grid(0.4, R_HI, SAMPLES);
    let request = SweepRequest {
        scenario: scenario.clone(),
        grid: GridSpec {
            n_max: cfg.n_max,
            r_values,
        },
        metrics: vec![Metric::ErrorProbability],
    };
    let response = engine.evaluate(&request).map_err(harness_err("fig6"))?;
    let error_at = |k: usize, n: u32| -> Result<f64, HarnessError> {
        // O(1) lookup into the flat r-major error buffer.
        response
            .landscape
            .error_at(k, n)
            .ok_or_else(|| harness_err("fig6")("sweep omitted the error metric"))
    };
    let mut points = Vec::with_capacity(SAMPLES);
    let mut lo = f64::INFINITY;
    let mut hi: f64 = 0.0;
    let mut local_maxima: Vec<(f64, f64)> = Vec::new();
    let mut window: Vec<(f64, f64)> = Vec::new();
    for (k, &r) in request.grid.r_values.iter().enumerate() {
        let n = optimize::optimal_probe_count(&scenario, r, &cfg)
            .map_err(harness_err("fig6"))?
            .n;
        let p = error_at(k, n)?;
        points.push((r, p));
        lo = lo.min(p);
        hi = hi.max(p);
        window.push((r, p));
        if window.len() == 3 {
            if window[1].1 > window[0].1 && window[1].1 > window[2].1 {
                local_maxima.push(window[1]);
            }
            window.remove(0);
        }
    }
    let mut chart = Chart::new("Figure 6: error probability under optimal cost")
        .x_label("listening period r (s)")
        .y_label("E(N(r), r)")
        .log_y(true)
        .with_series(Series::new("E(N(r),r)", points).map_err(harness_err("fig6"))?);
    // Overlay the fixed-n curves as in the paper's Figure 6.
    for n in [3u32, 4, 6, 8] {
        let overlay: Vec<(f64, f64)> = cells_for_n(&response, n)
            .filter_map(|cell| Some((cell.r, cell.error_probability?)))
            .collect();
        let series = Series::new(format!("E_{n}"), overlay).map_err(harness_err("fig6"))?;
        chart = chart.with_series(series);
    }
    let mut rows = vec![
        engine_row(&response),
        format!(
            "E(N(r), r) spans [{lo:.3e}, {hi:.3e}] over r in [0.4, {R_HI}] \
             (paper: roughly within [1e-54, 1e-35])"
        ),
    ];
    rows.push("sawtooth local maxima (each corresponds to a step of N(r)):".to_owned());
    for (r, p) in local_maxima.iter().take(12) {
        rows.push(format!("  r ≈ {r:.3}: E = {p:.3e}"));
    }
    Ok(ExperimentOutput {
        id: "fig6",
        description: "Figure 6: E(N(r), r) sawtooth under cost-optimal n",
        rows,
        chart: Some(chart),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_dumps_the_chain() {
        let out = fig1().unwrap();
        let text = out.to_report();
        assert!(text.contains("start"));
        assert!(text.contains("probe4"));
        assert!(text.contains("error"));
        assert!(out.chart.is_none());
    }

    #[test]
    fn fig2_has_visible_curves_only_for_large_n() {
        let out = fig2().unwrap();
        let chart = out.chart.unwrap();
        let names: Vec<&str> = chart.series().iter().map(|s| s.name()).collect();
        // C_1 is entirely above the cap and must be absent.
        assert!(!names.contains(&"C_1"));
        // C_3..C_8 are visible.
        for n in 3..=8 {
            assert!(names.contains(&format!("C_{n}").as_str()), "{names:?}");
        }
    }

    #[test]
    fn fig5_probabilities_are_positive_for_log_axis() {
        let out = fig5().unwrap();
        let chart = out.chart.unwrap();
        assert!(chart.is_log_y());
        for series in chart.series() {
            assert!(series.points().iter().all(|&(_, p)| p > 0.0));
        }
    }
}
