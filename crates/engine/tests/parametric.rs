//! The parametric verbs end-to-end: calibrate and frontier against the
//! engine's cached sufficient statistic, including the warm-path
//! guarantee — after a sweep over the same `(scenario, grid)`, a 64×64
//! parameter-grid frontier recomputes **zero** π-tables.

use std::sync::Arc;

use zeroconf_cost::kernel::ScenarioFactors;
use zeroconf_cost::param::ParamLandscape;
use zeroconf_cost::{tradeoff, Scenario};
use zeroconf_dist::DefectiveExponential;
use zeroconf_engine::{
    AxisSpec, CalibrateRequest, Engine, EngineConfig, FrontierPoint, FrontierRequest, GridSpec,
    ParamAxis, Pipeline, PipelineConfig, SweepRequest, WorkRequest, WorkResponse,
};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{Rng, SeedableRng};

fn scenario() -> Scenario {
    Scenario::builder()
        .occupancy(0.5)
        .probe_cost(2.0)
        .error_cost(1e6)
        .reply_time(Arc::new(
            DefectiveExponential::from_loss(1e-6, 10.0, 1.0).unwrap(),
        ))
        .build()
        .unwrap()
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        cache_tables: 4096,
        ..EngineConfig::default()
    })
}

fn grid() -> GridSpec {
    GridSpec::linspace(12, 0.25, 10.0, 40)
}

/// 64 log-spaced collision costs and 64 linear probe costs: the
/// acceptance-grade (E, c) parameter grid.
fn axes_64x64() -> (Vec<f64>, Vec<f64>) {
    let error_costs = (0..64)
        .map(|i| 10f64.powf(2.0 + 10.0 * i as f64 / 63.0))
        .collect();
    let probe_costs = (0..64).map(|i| 0.5 + 3.5 * i as f64 / 63.0).collect();
    (error_costs, probe_costs)
}

#[test]
fn warm_frontier_64x64_recomputes_no_pi_tables() {
    let engine = engine();
    let grid = grid();
    // Warm-up: an ordinary sweep computes every π-table the grid needs.
    let sweep = engine
        .evaluate(&SweepRequest::new(scenario(), grid.clone()))
        .unwrap();
    assert_eq!(sweep.stats.cache_misses as usize, grid.r_values.len());

    let (error_costs, probe_costs) = axes_64x64();
    let request = FrontierRequest {
        scenario: scenario(),
        grid,
        x: AxisSpec::new(ParamAxis::ErrorCost, error_costs),
        y: AxisSpec::new(ParamAxis::ProbeCost, probe_costs),
    };
    let response = engine.frontier(&request).unwrap();

    // The acceptance criterion: 4096 parameter points against a warm
    // π-table cache, zero π recomputation.
    assert_eq!(response.candidates, 64 * 64);
    assert_eq!(
        response.stats.cache_misses, 0,
        "warm frontier must not recompute π-tables"
    );
    assert!(!response.points.is_empty());

    // The frontier is Pareto: non-decreasing cost, strictly decreasing
    // collision probability.
    for pair in response.points.windows(2) {
        assert!(pair[1].cost >= pair[0].cost, "{pair:?}");
        assert!(
            pair[1].error_probability < pair[0].error_probability,
            "{pair:?}"
        );
    }

    // A second identical frontier rebuilds the statistic from the same
    // cached π-tables: one hit per `r`, no recomputation.
    let again = engine.frontier(&request).unwrap();
    assert_eq!(again.stats.cache_misses, 0);
    assert_eq!(again.points, response.points);
}

/// The frontier the engine must reproduce bit for bit: every parameter
/// point re-scored by the scalar `min_cost_cell` oracle over a freshly
/// built statistic, reduced through `tradeoff::frontier_indices`.
fn oracle_frontier(request: &FrontierRequest) -> Vec<FrontierPoint> {
    let grid = &request.grid;
    let landscape = ParamLandscape::build(&request.scenario, grid.n_max, &grid.r_values).unwrap();
    let mut candidates = Vec::new();
    for &x in &request.x.values {
        let on_x = request.x.axis.apply(&request.scenario, x).unwrap();
        for &y in &request.y.values {
            let varied = request.y.axis.apply(&on_x, y).unwrap();
            let factors = ScenarioFactors::new(&varied);
            if let Some((j, n, cost, error_probability)) = landscape.min_cost_cell(&factors) {
                candidates.push(FrontierPoint {
                    x,
                    y,
                    n,
                    r: grid.r_values[j],
                    cost,
                    error_probability,
                });
            }
        }
    }
    tradeoff::frontier_indices(&candidates, |p| p.cost, |p| p.error_probability)
        .into_iter()
        .map(|i| candidates[i])
        .collect()
}

fn assert_same_points(context: &str, want: &[FrontierPoint], got: &[FrontierPoint]) {
    let bits = |p: &FrontierPoint| {
        (
            p.x.to_bits(),
            p.y.to_bits(),
            p.n,
            p.r.to_bits(),
            p.cost.to_bits(),
            p.error_probability.to_bits(),
        )
    };
    let want: Vec<_> = want.iter().map(bits).collect();
    let got: Vec<_> = got.iter().map(bits).collect();
    assert_eq!(want, got, "{context}");
}

/// The engine's frontier scan (one grid dispatch per parameter point,
/// column stop, warm start from the previous point's winner) against the
/// per-point scalar oracle, on `param-cold`-shaped requests: a 64 × 400
/// linspace grid and the same `r` values shuffled with duplicates, under
/// a 16 × 16 `(E, c)` parameter grid.
#[test]
fn frontier_matches_the_per_point_scalar_oracle_bit_for_bit() {
    let engine = engine();
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = Scenario::builder()
            .occupancy(10f64.powf(rng.gen_range(-4.0..-1.0)))
            .probe_cost(rng.gen_range(0.5..4.0))
            .error_cost(10f64.powf(rng.gen_range(3.0..18.0)))
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(
                    10f64.powf(rng.gen_range(-12.0..-3.0)),
                    rng.gen_range(2.0..20.0),
                    rng.gen_range(0.0..0.5),
                )
                .unwrap(),
            ))
            .build()
            .unwrap();
        let e0 = 10f64.powf(rng.gen_range(2.0..4.0));
        let c0 = rng.gen_range(0.2..1.0);
        let error_costs: Vec<f64> = (0..16).map(|k| e0 * 10f64.powf(0.75 * k as f64)).collect();
        let probe_costs: Vec<f64> = (0..16).map(|k| c0 * (1.0 + 0.5 * k as f64)).collect();

        let linspace = GridSpec::linspace(64, 0.02, 8.0, 400);
        let mut shuffled = linspace.r_values.clone();
        for _ in 0..8 {
            let twin = shuffled[rng.gen_range(0..shuffled.len())];
            shuffled.push(twin);
        }
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        let explicit = GridSpec {
            n_max: 64,
            r_values: shuffled,
        };
        for (name, grid) in [("linspace", linspace), ("shuffled", explicit)] {
            let request = FrontierRequest {
                scenario: scenario.clone(),
                grid,
                x: AxisSpec::new(ParamAxis::ErrorCost, error_costs.clone()),
                y: AxisSpec::new(ParamAxis::ProbeCost, probe_costs.clone()),
            };
            let response = engine.frontier(&request).unwrap();
            assert!(!response.points.is_empty(), "seed {seed} {name}");
            assert_same_points(
                &format!("seed {seed} {name}"),
                &oracle_frontier(&request),
                &response.points,
            );
        }
    }
}

#[test]
fn calibrated_error_cost_makes_the_target_optimal() {
    let engine = engine();
    let grid = grid();
    let k = 20;
    let target_r = grid.r_values[k];
    let request = CalibrateRequest {
        scenario: scenario(),
        grid: grid.clone(),
        target_n: 4,
        target_r,
    };
    let response = engine.calibrate(&request).unwrap();
    assert!(response.error_cost.is_finite() && response.error_cost > 0.0);
    assert_eq!(response.n, 4);
    assert_eq!(response.r.to_bits(), target_r.to_bits());

    // Under the recovered E*, the target r beats its grid neighbors at
    // n = 4 (stationarity of the calibrated cost curve).
    let calibrated = scenario().with_error_cost(response.error_cost).unwrap();
    let at = |r: f64| zeroconf_cost::cost::mean_cost(&calibrated, 4, r).unwrap();
    let target_cost = at(target_r);
    // Central differencing makes the target optimal up to the grid's
    // curvature; allow one part in 1e6 of slack against the neighbors.
    let slack = 1.0 + 1e-6;
    assert!(
        target_cost <= at(grid.r_values[k - 1]) * slack,
        "left neighbor beats the calibrated target"
    );
    assert!(
        target_cost <= at(grid.r_values[k + 1]) * slack,
        "right neighbor beats the calibrated target"
    );
    assert_eq!(target_cost.to_bits(), response.cost.to_bits());

    // Warm path: a second calibration over the same grid recomputes no
    // π-table.
    let warm = engine.calibrate(&request).unwrap();
    assert_eq!(warm.stats.cache_misses, 0);
    assert_eq!(warm.error_cost.to_bits(), response.error_cost.to_bits());
}

#[test]
fn parametric_verbs_flow_through_the_pipeline() {
    let grid = grid();
    let mut pipeline = Pipeline::new(Arc::new(engine()), PipelineConfig::with_depth(3));
    let sweep_id = pipeline
        .submit(SweepRequest::new(scenario(), grid.clone()))
        .unwrap();
    let calibrate_id = pipeline
        .submit_work(WorkRequest::Calibrate(CalibrateRequest {
            scenario: scenario(),
            grid: grid.clone(),
            target_n: 4,
            target_r: grid.r_values[20],
        }))
        .unwrap();
    let frontier_id = pipeline
        .submit_work(WorkRequest::Frontier(FrontierRequest {
            scenario: scenario(),
            grid,
            x: AxisSpec::new(ParamAxis::ErrorCost, vec![1e3, 1e6, 1e9]),
            y: AxisSpec::new(ParamAxis::Occupancy, vec![0.25, 0.5]),
        }))
        .unwrap();
    let completions = pipeline.drain();
    assert_eq!(completions.len(), 3);
    for completion in completions {
        let response = completion.result.unwrap();
        if completion.id == sweep_id {
            assert!(matches!(response, WorkResponse::Sweep(_)));
        } else if completion.id == calibrate_id {
            let WorkResponse::Calibrate(calibrate) = response else {
                panic!("calibrate submissions complete as calibrations");
            };
            assert!(calibrate.error_cost > 0.0);
        } else {
            assert_eq!(completion.id, frontier_id);
            let WorkResponse::Frontier(frontier) = response else {
                panic!("frontier submissions complete as frontiers");
            };
            assert_eq!(frontier.candidates, 6);
        }
    }
}

#[test]
fn invalid_parametric_requests_are_rejected_with_pointed_errors() {
    let engine = engine();
    let grid = grid();
    // Target r off the grid.
    let off_grid = CalibrateRequest {
        scenario: scenario(),
        grid: grid.clone(),
        target_n: 4,
        target_r: 0.3,
    };
    let e = engine.calibrate(&off_grid).unwrap_err();
    assert!(e.to_string().contains("not a grid member"), "{e}");
    // Target r on the boundary (no neighbor on each side).
    let boundary = CalibrateRequest {
        scenario: scenario(),
        grid: grid.clone(),
        target_n: 4,
        target_r: grid.r_values[0],
    };
    let e = engine.calibrate(&boundary).unwrap_err();
    assert!(e.to_string().contains("grid neighbor"), "{e}");
    // Frontier axes must differ.
    let same_axes = FrontierRequest {
        scenario: scenario(),
        grid,
        x: AxisSpec::new(ParamAxis::ErrorCost, vec![1e3]),
        y: AxisSpec::new(ParamAxis::ErrorCost, vec![1e6]),
    };
    let e = engine.frontier(&same_axes).unwrap_err();
    assert!(e.to_string().contains("axes must differ"), "{e}");
    assert_eq!(engine.stats().cache_misses, 0, "nothing was computed");
}

/// The lifetime `cache_hits`/`cache_misses` of `Engine::stats` count every
/// π-table lookup, also those of a request that ends in an error, while
/// `requests`, `cells` and the answers' `stats` count answered requests
/// only. A calibration answered `calibration failed` (a step reply time
/// whose error probability is exactly zero on both sides of the target,
/// so the inverse is `−∞`) builds three π-tables and is answered with an
/// error line that carries no `stats`; repeating it hits all three.
#[test]
fn a_failed_calibration_counts_its_lookups_but_answers_no_stats() {
    use zeroconf_engine::wire::PipelinedSession;

    let line = concat!(
        r#"{"v":1,"id":"k","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"#,
        r#""reply_time":{"kind":"deterministic","mass":1.0,"delay":0.5}},"#,
        r#""grid":{"n_max":3,"r":[1.0,2.0,3.0]},"calibrate":{"n":2,"r":2.0}}"#
    );
    let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
    for (round, hits) in [(1, 0), (2, 3)] {
        assert!(session.submit_line(line).is_empty());
        let answers = session.drain();
        assert_eq!(answers.len(), 1, "{answers:?}");
        assert!(
            answers[0].contains("\"error\":\"evaluation failed: calibration failed"),
            "{}",
            answers[0]
        );
        assert!(!answers[0].contains("\"stats\""), "{}", answers[0]);
        let stats = session.stats();
        assert_eq!((stats.requests, stats.cells), (0, 0), "round {round}");
        assert_eq!(
            (stats.cache_hits, stats.cache_misses, stats.cache_len),
            (hits, 3, 3),
            "round {round}"
        );
    }
}
