//! Throughput of the batched landscape-evaluation engine.
//!
//! Times one 200 × 200 `(n, r)` sweep of the Figure-2 scenario cache-cold
//! and cache-warm, the parametric verbs (a frontier over a warm statistic,
//! a `param-cold`-shaped frontier whose every π-table misses, and a warm
//! calibration), the blocked kernel and the single-pass column program
//! (run one column at a time through a width-1
//! [`zeroconf_cost::kernel::ColumnBlockKernel`]) over the same grid, a
//! 16-request session dispatched serially vs through the pipelined
//! front-end, and the wire layer on `landscape-warm`-shaped answers: a
//! 16 × 100 sweep written as its v1 response line and decoded back. The
//! per-`n` closed forms the column program replaced are timed by the
//! `column_kernel_vs_per_n` ablation bench. Measurements go to
//! `BENCH_engine.json` at the repository root for machine consumption,
//! alongside the human-readable summary on stdout. Uses a custom `main`
//! on top of [`zeroconf_bench::harness`] rather than the Criterion-shaped
//! macros, because the cold/warm split needs explicit control over engine
//! lifetimes.
//!
//! Knobs:
//!
//! * `--samples N` — timed samples per benchmark (default 7). `--samples 2`
//!   is the CI smoke setting.
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_engine.json` at the repository root).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use zeroconf_bench::harness::{black_box, format_nanos, measure, BenchRecord};
use zeroconf_bench::schema;
use zeroconf_cost::kernel::{Backend, ColumnBlockKernel, Mode};
use zeroconf_cost::{cost, paper, Scenario};
use zeroconf_dist::DefectiveExponential;
use zeroconf_engine::wire::{parse_response_line, WireResponse};
use zeroconf_engine::{
    AxisSpec, CalibrateRequest, Engine, EngineConfig, FrontierRequest, GridSpec, ParamAxis,
    Pipeline, PipelineConfig, SweepRequest,
};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{Rng, SeedableRng};

/// Grid size: 200 probe counts × 200 listening periods = 40 000 cells.
const N_MAX: u32 = 200;
const R_POINTS: usize = 200;
const DEFAULT_SAMPLES: usize = 7;
const GRID_CELLS: usize = N_MAX as usize * R_POINTS;

fn sweep() -> SweepRequest {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    SweepRequest::new(scenario, GridSpec::linspace(N_MAX, 0.1, 30.0, R_POINTS))
}

fn config() -> EngineConfig {
    EngineConfig {
        // Room for every r column, so the warm runs never evict.
        cache_tables: R_POINTS.next_power_of_two(),
        ..EngineConfig::default()
    }
}

/// Cache-cold sweep: a fresh engine per iteration, so every π-table is
/// computed.
fn cold(samples: usize, request: &SweepRequest) -> BenchRecord {
    measure(schema::ROW_ENGINE_COLD, samples, || {
        let engine = Engine::new(config());
        engine.evaluate(request).expect("sweep evaluates")
    })
}

/// Cache-warm sweep: one long-lived engine, primed once, so every π-table
/// is served from the cache and only Eq. (3)/(4) arithmetic remains.
fn warm(samples: usize, request: &SweepRequest) -> BenchRecord {
    let engine = Engine::new(config());
    engine.evaluate(request).expect("priming sweep evaluates");
    measure(schema::ROW_ENGINE_WARM, samples, || {
        engine.evaluate(request).expect("sweep evaluates")
    })
}

/// Blocked batch kernel, cold: each iteration batch-computes every
/// π-table ([`ColumnBlockKernel::pi_table_block`], with the zero-tail
/// cutoff, into one flat slab) and then evaluates the whole grid in one
/// r-major block pass. This is the engine's cold path without chunking
/// or cache overhead.
fn block_columns(samples: usize, request: &SweepRequest) -> BenchRecord {
    let block = ColumnBlockKernel::new(&request.scenario);
    let rs = request.grid.r_values.clone();
    let mut costs = vec![0.0f64; GRID_CELLS];
    let mut errors = vec![0.0f64; GRID_CELLS];
    measure(schema::ROW_KERNEL_BLOCK, samples, move || {
        let tables = block.pi_table_block(N_MAX, &rs).expect("pi tables compute");
        block
            .evaluate(
                N_MAX,
                &rs,
                &tables.views(),
                Some(&mut costs),
                Some(&mut errors),
            )
            .expect("block evaluates");
        black_box((costs.last().copied(), errors.last().copied()))
    })
}

/// Blocked batch kernel on the widest SIMD tier the host supports
/// (bit-identical results to [`block_columns`] — the parity suite proves
/// it; this row measures what the identical bits cost).
/// On a host without AVX2 the backend clamps to scalar and the row
/// duplicates [`schema::ROW_KERNEL_BLOCK`], which the note records.
fn block_simd(samples: usize, request: &SweepRequest) -> BenchRecord {
    let block = ColumnBlockKernel::with_backend(&request.scenario, Backend::detect(), Mode::Exact);
    let rs = request.grid.r_values.clone();
    let mut costs = vec![0.0f64; GRID_CELLS];
    let mut errors = vec![0.0f64; GRID_CELLS];
    measure(schema::ROW_KERNEL_BLOCK_SIMD, samples, move || {
        let tables = block.pi_table_block(N_MAX, &rs).expect("pi tables compute");
        block
            .evaluate(
                N_MAX,
                &rs,
                &tables.views(),
                Some(&mut costs),
                Some(&mut errors),
            )
            .expect("block evaluates");
        black_box((costs.last().copied(), errors.last().copied()))
    })
}

/// Single-pass column program over precomputed π-tables, one column at a
/// time through a scalar width-1 block: the O(n_max) arithmetic the
/// engine runs once tables are cached, without the lane parallelism.
fn kernel_columns(samples: usize, request: &SweepRequest) -> BenchRecord {
    let kernel = ColumnBlockKernel::new(&request.scenario);
    let tables: Vec<Vec<f64>> = request
        .grid
        .r_values
        .iter()
        .map(|&r| cost::pi_table(&request.scenario, N_MAX, r).expect("pi table computes"))
        .collect();
    let mut costs = vec![0.0f64; N_MAX as usize];
    let mut errors = vec![0.0f64; N_MAX as usize];
    measure(schema::ROW_KERNEL_SINGLE_PASS, samples, move || {
        for (r, pis) in request.grid.r_values.iter().zip(&tables) {
            kernel
                .evaluate(N_MAX, &[*r], &[pis], Some(&mut costs), Some(&mut errors))
                .expect("kernel evaluates");
        }
        black_box((costs.last().copied(), errors.last().copied()))
    })
}

/// Session shape for the pipelined-vs-serial comparison: 16 moderate
/// sweeps with staggered r-grids (no π-table aliasing between requests).
const SESSION_REQUESTS: usize = 16;
const SESSION_N_MAX: u32 = 32;
const SESSION_R_POINTS: usize = 40;

fn session_requests() -> Vec<SweepRequest> {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    (0..SESSION_REQUESTS)
        .map(|k| {
            let lo = 0.1 + 0.013 * k as f64;
            SweepRequest::new(
                scenario.clone(),
                GridSpec::linspace(SESSION_N_MAX, lo, 30.0, SESSION_R_POINTS),
            )
        })
        .collect()
}

/// Baseline session: the requests evaluated one at a time on a fresh
/// engine — blocking, one request in flight.
fn serial_session(samples: usize, requests: &[SweepRequest]) -> BenchRecord {
    measure(schema::ROW_SESSION_SERIAL, samples, || {
        let engine = Engine::new(config());
        requests
            .iter()
            .map(|request| {
                engine
                    .evaluate(request)
                    .expect("sweep evaluates")
                    .landscape
                    .len()
            })
            .sum::<usize>()
    })
}

/// The same requests streamed through a `Pipeline` with `depth` in
/// flight, drained at the end. On a multi-core host the overlap wins; on
/// a single-CPU host this measures pure pipelining overhead, and is
/// expected to come out *slower* than the serial dispatch.
fn pipelined_session(depth: usize, samples: usize, requests: &[SweepRequest]) -> BenchRecord {
    measure(&schema::row_session_pipelined(depth), samples, || {
        let engine = Arc::new(Engine::new(config()));
        let mut pipeline = Pipeline::new(engine, PipelineConfig::with_depth(depth));
        for request in requests {
            pipeline.submit(request.clone()).expect("sweep submits");
        }
        pipeline.drain().len()
    })
}

/// Parametric-verb shape: a 32 × 40 scenario grid swept by a 64 × 64
/// `(E, c)` parameter grid — the frontier acceptance geometry.
const PARAM_N_MAX: u32 = 32;
const PARAM_R_POINTS: usize = 40;
const PARAM_AXIS_POINTS: usize = 64;
/// Stride of the per-point-recompute baseline: an 8 × 8 subsample of the
/// same axes, because a cold sweep per parameter point is orders of
/// magnitude slower than the statistic scan. Rows are normalized to
/// parameter-cell evaluations (`candidates × grid cells`), so
/// `cells_per_sec` stays directly comparable across the two.
const RECOMPUTE_STRIDE: usize = 8;

fn param_grid() -> GridSpec {
    GridSpec::linspace(PARAM_N_MAX, 0.1, 30.0, PARAM_R_POINTS)
}

/// Log-spaced collision costs and linear probe costs for the frontier.
fn frontier_axes() -> (Vec<f64>, Vec<f64>) {
    let span = (PARAM_AXIS_POINTS - 1) as f64;
    let error_costs = (0..PARAM_AXIS_POINTS)
        .map(|i| 10f64.powf(10.0 + 25.0 * i as f64 / span))
        .collect();
    let probe_costs = (0..PARAM_AXIS_POINTS)
        .map(|i| 0.5 + 3.5 * i as f64 / span)
        .collect();
    (error_costs, probe_costs)
}

fn frontier_request() -> FrontierRequest {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    let (error_costs, probe_costs) = frontier_axes();
    FrontierRequest {
        scenario,
        grid: param_grid(),
        x: AxisSpec::new(ParamAxis::ErrorCost, error_costs),
        y: AxisSpec::new(ParamAxis::ProbeCost, probe_costs),
    }
}

/// Warm frontier: the first call builds the sufficient-statistic
/// landscape (and the π-tables under it); every timed pass answers the
/// full 64 × 64 parameter grid from the cached statistic with zero π
/// work, as asserted each iteration.
fn frontier_warm(samples: usize) -> BenchRecord {
    let engine = Engine::new(config());
    let request = frontier_request();
    let primed = engine
        .frontier(&request)
        .expect("priming frontier evaluates");
    assert!(!primed.points.is_empty());
    measure(schema::ROW_FRONTIER_WARM, samples, move || {
        let response = engine.frontier(&request).expect("frontier evaluates");
        assert_eq!(
            response.stats.cache_misses, 0,
            "warm frontier must not recompute π-tables"
        );
        black_box(response.points.len())
    })
}

/// `param-cold`-shaped frontier: a 64 × 400 grid, `r` from 0.02 to 8.0,
/// under a 16 × 16 `(E, c)` parameter grid.
const COLD_N_MAX: u32 = 64;
const COLD_R_POINTS: usize = 400;
const COLD_AXIS_POINTS: usize = 16;
/// Seed of the cold frontier's request stream.
const COLD_SEED: u64 = 30_000;

fn log_uniform(rng: &mut StdRng, lo_exp: f64, hi_exp: f64) -> f64 {
    10f64.powf(rng.gen_range(lo_exp..hi_exp))
}

/// One cold frontier request, drawn as perfbench's `param-cold` workload
/// draws its lines: a fresh defective-exponential reply time (a new
/// fingerprint, so every π-table misses), then the scenario's economics,
/// then the axes' starting points.
fn cold_frontier_request(rng: &mut StdRng) -> FrontierRequest {
    let (loss, rate, delay) = (
        log_uniform(rng, -12.0, -3.0),
        rng.gen_range(2.0..20.0),
        rng.gen_range(0.0..0.5),
    );
    let scenario = Scenario::builder()
        .occupancy(log_uniform(rng, -4.0, -1.0))
        .probe_cost(rng.gen_range(0.5..4.0))
        .error_cost(log_uniform(rng, 3.0, 18.0))
        .reply_time(Arc::new(
            DefectiveExponential::from_loss(loss, rate, delay).expect("reply time is valid"),
        ))
        .build()
        .expect("drawn scenario is valid");
    let e0 = log_uniform(rng, 2.0, 4.0);
    let c0 = rng.gen_range(0.2..1.0);
    let error_costs = (0..COLD_AXIS_POINTS)
        .map(|k| e0 * 10f64.powf(0.75 * k as f64))
        .collect();
    let probe_costs = (0..COLD_AXIS_POINTS)
        .map(|k| c0 * (1.0 + 0.5 * k as f64))
        .collect();
    FrontierRequest {
        scenario,
        grid: GridSpec::linspace(COLD_N_MAX, 0.02, 8.0, COLD_R_POINTS),
        x: AxisSpec::new(ParamAxis::ErrorCost, error_costs),
        y: AxisSpec::new(ParamAxis::ProbeCost, probe_costs),
    }
}

/// Cold frontier: one long-lived engine with the daemon's default cache
/// answers a fresh request per iteration, so each iteration builds 400
/// π-tables, the statistic and 256 selection scans. Drawing the request
/// (its 400-point grid and 32 axis values) is timed with it.
fn frontier_cold(samples: usize) -> BenchRecord {
    let engine = Engine::new(EngineConfig::default());
    let mut rng = StdRng::seed_from_u64(COLD_SEED);
    measure(schema::ROW_FRONTIER_COLD, samples, move || {
        let request = cold_frontier_request(&mut rng);
        let response = engine.frontier(&request).expect("frontier evaluates");
        assert_eq!(
            response.stats.cache_misses, COLD_R_POINTS as u64,
            "cold frontier must build every π-table"
        );
        black_box(response.points.len())
    })
}

/// The naive baseline the frontier verb replaces: per parameter point, a
/// cold engine (as in the cold row) recomputes every π-table, sweeps the
/// grid, and scans for the cheapest cell.
fn frontier_recompute(samples: usize) -> BenchRecord {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    let (error_costs, probe_costs) = frontier_axes();
    let grid = param_grid();
    measure(schema::ROW_FRONTIER_RECOMPUTE, samples, move || {
        let mut finite = 0_usize;
        for &error_cost in error_costs.iter().step_by(RECOMPUTE_STRIDE) {
            for &probe_cost in probe_costs.iter().step_by(RECOMPUTE_STRIDE) {
                let point = ParamAxis::ErrorCost
                    .apply(&scenario, error_cost)
                    .and_then(|s| ParamAxis::ProbeCost.apply(&s, probe_cost))
                    .expect("axis values are valid");
                let engine = Engine::new(config());
                let response = engine
                    .evaluate(&SweepRequest::new(point, grid.clone()))
                    .expect("sweep evaluates");
                let best = response
                    .landscape
                    .iter()
                    .filter(|cell| cell.mean_cost.is_some_and(f64::is_finite))
                    .min_by(|a, b| a.mean_cost.partial_cmp(&b.mean_cost).expect("finite costs"));
                finite += usize::from(best.is_some());
            }
        }
        black_box(finite)
    })
}

/// Closed-form `E*` calibration against the warm statistic: after the
/// priming call the engine's landscape slot answers without touching a
/// single π-table.
fn calibrate_warm(samples: usize) -> BenchRecord {
    let engine = Engine::new(config());
    let grid = param_grid();
    // An interior target in the regime where π_n is still representable:
    // at larger r the n-probe no-answer probability underflows to zero
    // and no finite collision cost can make the cell optimal.
    let target_r = grid.r_values[5];
    let request = CalibrateRequest {
        scenario: paper::figure2_scenario().expect("paper scenario is valid"),
        grid,
        target_n: 4,
        target_r,
    };
    engine
        .calibrate(&request)
        .expect("priming calibration evaluates");
    measure(schema::ROW_CALIBRATE_WARM, samples, move || {
        let response = engine.calibrate(&request).expect("calibration evaluates");
        black_box(response.error_cost)
    })
}

/// `landscape-warm`-shaped answers: 16 × 100 sweeps over `r` from 0.02
/// to 4.0, on the warm reply time perfbench's workload shares (loss 1e-6,
/// rate 10, delay 0.05).
const WIRE_N_MAX: u32 = 16;
const WIRE_R_POINTS: usize = 100;
const WIRE_CELLS: usize = WIRE_N_MAX as usize * WIRE_R_POINTS;
/// Answers in the seeded set; each iteration takes the next one.
const WIRE_ANSWERS: usize = 8;
/// Seed of the answers' economics.
const WIRE_SEED: u64 = 32_000;

/// The seeded answers, each drawn with perfbench's economics: `q`
/// log-uniform on 1e-4 to 1e-1, the probe cost uniform on 0.5 to 4, and
/// the collision cost log-uniform on 1e3 to 1e18. About half their floats
/// take the exponent form and half are `ddd.ddd` costs.
fn wire_answers() -> Vec<WireResponse> {
    let engine = Engine::new(EngineConfig::default());
    let reply_time =
        Arc::new(DefectiveExponential::from_loss(1e-6, 10.0, 0.05).expect("reply time is valid"));
    let mut rng = StdRng::seed_from_u64(WIRE_SEED);
    (0..WIRE_ANSWERS)
        .map(|k| {
            let scenario = Scenario::builder()
                .occupancy(log_uniform(&mut rng, -4.0, -1.0))
                .probe_cost(rng.gen_range(0.5..4.0))
                .error_cost(log_uniform(&mut rng, 3.0, 18.0))
                .reply_time(reply_time.clone())
                .build()
                .expect("drawn scenario is valid");
            let grid = GridSpec::linspace(WIRE_N_MAX, 0.02, 4.0, WIRE_R_POINTS);
            let response = engine
                .evaluate(&SweepRequest::new(scenario, grid))
                .expect("sweep evaluates");
            WireResponse::Sweep {
                id: format!("t0.{k}"),
                response,
            }
        })
        .collect()
}

/// Each iteration writes the next answer of the set as its v1 line, the
/// daemon's `wire.serialize` layer.
fn wire_encode(samples: usize, answers: &[WireResponse]) -> BenchRecord {
    let mut next = 0;
    measure(schema::ROW_WIRE_ENCODE_SWEEP, samples, move || {
        let line = answers[next % answers.len()].to_line();
        next += 1;
        black_box(line.len())
    })
}

/// Each iteration decodes the next answer's line into its landscape, as
/// `zeroconf-client` decodes an answer.
fn wire_decode(samples: usize, lines: &[String]) -> BenchRecord {
    let mut next = 0;
    measure(schema::ROW_WIRE_DECODE_SWEEP, samples, move || {
        let (_, landscape) =
            parse_response_line(&lines[next % lines.len()]).expect("answer decodes");
        next += 1;
        black_box(landscape.map(|landscape| landscape.len()))
    })
}

struct Options {
    samples: usize,
    out: PathBuf,
}

fn parse_options() -> Options {
    let mut samples = DEFAULT_SAMPLES;
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                let value = args.next().expect("--samples takes a count");
                samples = value.parse().expect("--samples takes an integer");
            }
            "--out" => {
                out = PathBuf::from(args.next().expect("--out takes a path"));
            }
            // `cargo bench` forwards its own flags (e.g. `--bench`); ignore
            // anything we do not recognise rather than failing the run.
            _ => {}
        }
    }
    Options { samples, out }
}

fn main() {
    let options = parse_options();
    let samples = options.samples;
    let request = sweep();
    let single_cpu = std::thread::available_parallelism().map_or(true, |p| p.get() < 2);
    println!(
        "engine throughput on a {N_MAX} x {R_POINTS} grid ({} cells, {samples} samples):",
        request.grid.cells()
    );
    let grid_runs = [
        (cold(samples, &request), "cold"),
        (warm(samples, &request), "warm"),
    ];
    // The SIMD row's note pins the dispatched backend, so a scalar-clamped
    // run on a host without AVX2 is visible in the artifact.
    let simd_note = format!("backend={}", Backend::detect().name());
    let kernel_runs = [
        (block_columns(samples, &request), "cold", None),
        (
            block_simd(samples, &request),
            "cold",
            Some(simd_note.as_str()),
        ),
        (kernel_columns(samples, &request), "warm", None),
    ];
    // Parametric verbs: one candidate costs `grid cells` reconstruction
    // work, so rows are normalized to parameter-cell evaluations and
    // `cells_per_sec` compares the statistic scan against the naive
    // per-point recompute directly.
    let param_cells = PARAM_N_MAX as usize * PARAM_R_POINTS;
    let frontier_candidates = PARAM_AXIS_POINTS * PARAM_AXIS_POINTS;
    let cold_cells = COLD_AXIS_POINTS * COLD_AXIS_POINTS * COLD_N_MAX as usize * COLD_R_POINTS;
    let recompute_candidates = frontier_candidates / (RECOMPUTE_STRIDE * RECOMPUTE_STRIDE);
    let recompute_note = format!(
        "{}x{} subsample of the {}x{} parameter grid; cells count \
         parameter-cell evaluations",
        PARAM_AXIS_POINTS / RECOMPUTE_STRIDE,
        PARAM_AXIS_POINTS / RECOMPUTE_STRIDE,
        PARAM_AXIS_POINTS,
        PARAM_AXIS_POINTS
    );
    let param_grid_dims = (PARAM_N_MAX, PARAM_R_POINTS);
    let param_runs = [
        (
            frontier_warm(samples),
            "warm",
            param_grid_dims,
            frontier_candidates * param_cells,
            None,
        ),
        (
            frontier_recompute(samples),
            "cold",
            param_grid_dims,
            recompute_candidates * param_cells,
            Some(recompute_note.as_str()),
        ),
        (
            calibrate_warm(samples),
            "warm",
            param_grid_dims,
            param_cells,
            None,
        ),
        (
            frontier_cold(samples),
            "cold",
            (COLD_N_MAX, COLD_R_POINTS),
            cold_cells,
            None,
        ),
    ];
    let requests = session_requests();
    let session_cells = SESSION_REQUESTS * SESSION_N_MAX as usize * SESSION_R_POINTS;
    let depth = SESSION_REQUESTS.min(4);
    let pipelined_note = if single_cpu {
        Some(
            "single-CPU host: pipelining only adds dispatch overhead here, \
             so slower-than-serial is the expected result",
        )
    } else {
        None
    };
    let session_runs = [
        (serial_session(samples, &requests), "cold", None),
        (
            pipelined_session(depth, samples, &requests),
            "cold",
            pipelined_note,
        ),
    ];
    let answers = wire_answers();
    let answer_lines: Vec<String> = answers.iter().map(WireResponse::to_line).collect();
    let wire_runs = [
        wire_encode(samples, &answers),
        wire_decode(samples, &answer_lines),
    ];
    for (record, _) in &grid_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    for (record, _, _) in &kernel_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    for (record, ..) in &param_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    for (record, _, _) in &session_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    for record in &wire_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    let speedup = |single: &BenchRecord, multi: &BenchRecord| single.median_ns / multi.median_ns;
    println!(
        "  warm vs cold engine: {:.2}x",
        speedup(&grid_runs[0].0, &grid_runs[1].0)
    );
    println!(
        "  block kernel (incl. pi) vs cold engine: {:.2}x",
        speedup(&grid_runs[0].0, &kernel_runs[0].0)
    );
    println!(
        "  simd block kernel ({}) vs scalar block: {:.2}x",
        Backend::detect().name(),
        speedup(&kernel_runs[0].0, &kernel_runs[1].0)
    );
    println!(
        "  pipelined session (depth {depth}) vs serial: {:.2}x over {} requests",
        speedup(&session_runs[0].0, &session_runs[1].0),
        SESSION_REQUESTS
    );
    // Throughput ratio in parameter-cell evaluations per second: the warm
    // statistic scan against the per-point cold recompute.
    let per_cell = |run: &(BenchRecord, &str, (u32, usize), usize, Option<&str>)| {
        run.3 as f64 / run.0.median_ns
    };
    println!(
        "  warm frontier vs per-point recompute: {:.0}x parameter-cell throughput",
        per_cell(&param_runs[0]) / per_cell(&param_runs[1])
    );
    if single_cpu {
        println!(
            "  note: host exposes a single CPU, so the pipelined run can only \
             measure dispatch overhead, not speedup"
        );
    }

    let mut lines: Vec<String> = grid_runs
        .iter()
        .map(|(record, cache)| schema::row_json(record, cache, N_MAX, R_POINTS, GRID_CELLS, None))
        .collect();
    lines.extend(kernel_runs.iter().map(|(record, cache, note)| {
        schema::row_json(record, cache, N_MAX, R_POINTS, GRID_CELLS, *note)
    }));
    lines.extend(
        param_runs
            .iter()
            .map(|(record, cache, (n_max, r_points), cells, note)| {
                schema::row_json(record, cache, *n_max, *r_points, *cells, *note)
            }),
    );
    lines.extend(session_runs.iter().map(|(record, cache, note)| {
        schema::row_json(
            record,
            cache,
            SESSION_N_MAX,
            SESSION_R_POINTS,
            session_cells,
            *note,
        )
    }));
    lines.extend(wire_runs.iter().map(|record| {
        schema::row_json(record, "warm", WIRE_N_MAX, WIRE_R_POINTS, WIRE_CELLS, None)
    }));
    let json = format!("[\n  {}\n]\n", lines.join(",\n  "));
    match std::fs::write(&options.out, json) {
        Ok(()) => println!("  wrote {}", options.out.display()),
        Err(e) => eprintln!("  could not write {}: {e}", options.out.display()),
    }
}
