//! Extension study: the explicit cost/reliability Pareto frontier.

use zeroconf_cost::paper;
use zeroconf_cost::tradeoff::{self, ParetoPoint, TradeoffConfig};
use zeroconf_engine::{Engine, EngineConfig, GridSpec, SweepRequest};
use zeroconf_plot::{Chart, Series};

use crate::{harness_err, ExperimentOutput, HarnessError};

/// Materializes the paper's headline trade-off ("minimal cost and maximal
/// reliability ... cannot be achieved at the same time") as the Pareto
/// frontier over `(n, r)`, plus reliability-budget queries.
///
/// The full `(n, r)` grid is evaluated once by the batched engine —
/// `GridSpec::linspace` shares its grid arithmetic with
/// `tradeoff::pareto_frontier`, so the candidate set is bit-identical to
/// the direct computation — and reduced with the library's own
/// `frontier_from_candidates`. The budget queries then read the frontier
/// instead of re-evaluating the grid once per budget.
pub fn tradeoff() -> Result<ExperimentOutput, HarnessError> {
    let scenario = paper::figure2_scenario().map_err(harness_err("tradeoff"))?;
    let config = TradeoffConfig {
        n_max: 10,
        r_range: (0.2, 25.0),
        r_points: 250,
    };
    let engine = Engine::new(EngineConfig::default());
    let request = SweepRequest::new(
        scenario,
        GridSpec::linspace(
            config.n_max,
            config.r_range.0,
            config.r_range.1,
            config.r_points,
        ),
    );
    let response = engine.evaluate(&request).map_err(harness_err("tradeoff"))?;
    let candidates: Vec<ParetoPoint> = response
        .landscape
        .iter()
        .filter_map(|cell| {
            Some(ParetoPoint {
                n: cell.n,
                r: cell.r,
                cost: cell.mean_cost?,
                error_probability: cell.error_probability?,
            })
        })
        .collect();
    let frontier = tradeoff::frontier_from_candidates(candidates);
    let mut rows = vec![format!(
        "Pareto frontier over n <= {}, r in [{}, {}]: {} non-dominated configurations",
        config.n_max,
        config.r_range.0,
        config.r_range.1,
        frontier.len()
    )];
    rows.push(format!(
        "engine: {} candidate cells, {} π-tables computed",
        response.stats.cells, response.stats.cache_misses
    ));
    rows.push(format!(
        "{:>10} {:>4} {:>9} {:>14}",
        "cost", "n", "r", "P(collision)"
    ));
    // Print a readable subset: every ~10th point.
    for point in frontier.iter().step_by((frontier.len() / 12).max(1)) {
        rows.push(format!(
            "{:>10.4} {:>4} {:>9.3} {:>14.3e}",
            point.cost, point.n, point.r, point.error_probability
        ));
    }
    rows.push("reliability-budget queries:".to_owned());
    for budget in [1e-30f64, 1e-40, 1e-50, 1e-60] {
        match frontier.iter().find(|p| p.error_probability <= budget) {
            Some(p) => rows.push(format!(
                "  P(collision) <= {budget:.0e}: cheapest is n = {}, r = {:.3}, cost {:.4}",
                p.n, p.r, p.cost
            )),
            None => rows.push(format!(
                "  P(collision) <= {budget:.0e}: not reachable on grid"
            )),
        }
    }

    let points: Vec<(f64, f64)> = frontier
        .iter()
        .map(|p| (p.cost, p.error_probability))
        .collect();
    let chart = Chart::new("Cost/reliability Pareto frontier (Figure-2 scenario)")
        .x_label("mean total cost")
        .y_label("collision probability")
        .log_y(true)
        .with_series(Series::new("frontier", points).map_err(harness_err("tradeoff"))?);
    Ok(ExperimentOutput {
        id: "tradeoff",
        description: "extension: Pareto frontier of (cost, collision probability)",
        rows,
        chart: Some(chart),
    })
}
