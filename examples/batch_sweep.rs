//! Batch sweep: evaluate a whole cost landscape through the engine.
//!
//! ```text
//! cargo run --release --example batch_sweep
//! ```
//!
//! Sweeps the Figure-2 scenario's entire `(n, r)` landscape through the
//! batched evaluation engine, reads the cost-optimal configuration off the
//! grid, then rescores the same landscape under a cheaper collision
//! penalty — without recomputing a single π-table, as the printed cache
//! counters show. Then streams a burst of narrower sweeps through a
//! pipelined session, where completions arrive out of submission order,
//! and finishes with the parametric verbs — a closed-form `E`
//! calibration and a 64×64 `(E, c)` Pareto frontier — both running
//! against the warm sufficient-statistic cache with zero π recomputation.

use std::sync::Arc;

use zeroconf_repro::cost::paper;
use zeroconf_repro::engine::wire::{parse_response_line, Json, PipelinedSession, WireRequest};
use zeroconf_repro::engine::{
    AxisSpec, CalibrateRequest, Engine, EngineConfig, ExecutorTeam, FrontierRequest, GridSpec,
    ParamAxis, RescoreDelta, SweepRequest,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = paper::figure2_scenario()?;
    let engine = Engine::new(EngineConfig::default());

    // 12 probe counts x 240 listening periods = 2880 cells, one request.
    // The engine validates the grid and metric set before it evaluates
    // anything.
    let request = SweepRequest::new(scenario, GridSpec::linspace(12, 0.1, 30.0, 240));
    let response = engine.evaluate(&request)?;
    println!(
        "swept {} cells in {:.2} ms ({} pi-tables computed)",
        response.stats.cells,
        response.stats.wall_nanos as f64 / 1e6,
        response.stats.cache_misses
    );

    let best = response
        .landscape
        .iter()
        .filter(|c| c.mean_cost.is_some_and(f64::is_finite))
        .min_by(|a, b| a.mean_cost.partial_cmp(&b.mean_cost).expect("finite costs"))
        .expect("grid is non-empty");
    println!(
        "cheapest configuration on the grid: n = {}, r = {:.3} -> C = {:.4}, E = {:.3e}",
        best.n,
        best.r,
        best.mean_cost.unwrap_or(f64::NAN),
        best.error_probability.unwrap_or(f64::NAN)
    );

    // What if a collision were only worth 1e20 instead of 1e35? Changing
    // the economics never touches the reply-time distribution, so the
    // rescore reuses every cached pi-table.
    let delta = RescoreDelta {
        error_cost: Some(1e20),
        ..RescoreDelta::default()
    };
    let (_, rescored) = engine.rescore(&request, &delta)?;
    let best = rescored
        .landscape
        .iter()
        .filter(|c| c.mean_cost.is_some_and(f64::is_finite))
        .min_by(|a, b| a.mean_cost.partial_cmp(&b.mean_cost).expect("finite costs"))
        .expect("grid is non-empty");
    println!(
        "rescored with E = 1e20: cheapest is now n = {}, r = {:.3} -> C = {:.4} \
         ({} pi-tables recomputed, {} served from cache)",
        best.n,
        best.r,
        best.mean_cost.unwrap_or(f64::NAN),
        rescored.stats.cache_misses,
        rescored.stats.cache_hits
    );

    let stats = engine.stats();
    println!(
        "engine lifetime: {} requests, {} cells, cache {} hits / {} misses",
        stats.requests, stats.cells, stats.cache_hits, stats.cache_misses
    );

    // Pipelined dispatch: one per-n slice of the landscape per request,
    // up to four in flight on a team over a shared engine. Answers come
    // back keyed by request id in whatever order they finish, and the
    // session's counters split their latency into queue and service time.
    let shared = Arc::new(Engine::new(EngineConfig::default()));
    let mut session =
        PipelinedSession::with_team(Arc::new(ExecutorTeam::new(Arc::clone(&shared), 4)));
    let scenario = paper::figure2_scenario()?;
    for n in 1..=8 {
        let request = SweepRequest::new(scenario.clone(), GridSpec::linspace(n, 0.1, 30.0, 240));
        let id = format!("n{n}");
        if let Some(refused) = session
            .submit_request(WireRequest::Sweep { id, request })
            .first()
        {
            return Err(refused.to_line().into());
        }
    }
    for line in session.drain() {
        let (head, landscape) = parse_response_line(&line)?;
        let Some(Json::Str(id)) = head.get("id") else {
            return Err(format!("an answer without its id: {line}").into());
        };
        let cells = landscape.ok_or_else(|| format!("{id} has no cells: {line}"))?;
        println!("pipelined {id}: {} cells", cells.len());
    }
    let pstats = session.pipeline_stats();
    println!(
        "pipeline: {} submitted, {} completed, queued {:.2} ms in all (worst {:.2} ms), \
         evaluated {:.2} ms in all (worst {:.2} ms)",
        pstats.submitted,
        pstats.completed,
        pstats.queue_nanos_total as f64 / 1e6,
        pstats.queue_nanos_max as f64 / 1e6,
        pstats.service_nanos_total as f64 / 1e6,
        pstats.service_nanos_max as f64 / 1e6
    );

    // Parametric finale over the warm cache. The n = 8 slice above
    // computed every pi-table this grid needs, so both verbs below report
    // cache_misses: 0 — calibration and a 4096-point frontier without a
    // single pi recomputation.
    let grid = GridSpec::linspace(8, 0.1, 30.0, 240);
    let target_r = grid.r_values[60];
    let calibrate = CalibrateRequest {
        scenario: scenario.clone(),
        grid: grid.clone(),
        target_n: 4,
        target_r,
    };
    let calibrated = shared.calibrate(&calibrate)?;
    println!(
        "calibrate: E* = {:.3e} makes (n = 4, r = {:.3}) optimal \
         (cache_misses: {})",
        calibrated.error_cost, calibrated.r, calibrated.stats.cache_misses
    );

    let error_costs: Vec<f64> = (0..64)
        .map(|i| 10f64.powf(10.0 + 25.0 * i as f64 / 63.0))
        .collect();
    let probe_costs: Vec<f64> = (0..64).map(|i| 0.5 + 3.5 * i as f64 / 63.0).collect();
    let frontier = FrontierRequest {
        scenario,
        grid,
        x: AxisSpec::new(ParamAxis::ErrorCost, error_costs),
        y: AxisSpec::new(ParamAxis::ProbeCost, probe_costs),
    };
    let front = shared.frontier(&frontier)?;
    println!(
        "frontier: {} Pareto points from {} (E, c) candidates \
         (cache_misses: {})",
        front.points.len(),
        front.candidates,
        front.stats.cache_misses
    );
    if let (Some(cheap), Some(safe)) = (front.points.first(), front.points.last()) {
        println!(
            "  cheapest end: n = {}, r = {:.3}, C = {:.4}, Err = {:.3e}",
            cheap.n, cheap.r, cheap.cost, cheap.error_probability
        );
        println!(
            "  safest end:   n = {}, r = {:.3}, C = {:.4}, Err = {:.3e}",
            safe.n, safe.r, safe.cost, safe.error_probability
        );
    }
    Ok(())
}
