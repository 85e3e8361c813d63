//! A batched, cached landscape-evaluation engine for the zeroconf cost
//! model.
//!
//! The closed forms of the paper — mean cost `C(n, r)` (Eq. 3) and
//! collision probability `E(n, r)` (Eq. 4) — are cheap per cell, but every
//! consumer of the model evaluates them over *grids*: figure regeneration
//! sweeps `n = 1..8` across hundreds of `r` values, the tradeoff frontier
//! crosses thousands of `(n, r)` pairs, and calibration re-walks the same
//! landscape under perturbed economics. This crate turns those sweeps into
//! a request/response service:
//!
//! - **Batched**: a [`SweepRequest`] names a scenario, an `(n, r)` grid
//!   and the metrics wanted; [`Engine::evaluate`] answers with every cell
//!   in deterministic `r`-major order, stored as flat structure-of-arrays
//!   [`Landscape`] buffers (one `f64` slab per metric), filled chunk by
//!   chunk through the single-pass O(n_max) column program of
//!   [`zeroconf_cost::kernel::ColumnBlockKernel`].
//! - **Cached**: the only expensive part of a cell is the π-table of
//!   Eq. (1), and that table depends *only* on the reply-time distribution
//!   and `r`. The engine memoizes tables keyed on
//!   `(distribution fingerprint, r)` in a bounded LRU cache, so all `n`
//!   at one `r` share one table — and re-evaluations under changed `q`,
//!   `E` or `c` ([`Engine::rescore`]) recompute *no* π at all.
//! - **One thread per sweep**: a sweep runs on the thread that calls the
//!   engine, in chunks of consecutive `r` columns with a cancellation
//!   check between them. Parallelism comes from requests in flight: the
//!   [`ExecutorTeam`] runs one request per executor.
//!
//! Results are **bit-identical** to calling
//! [`zeroconf_cost::cost::mean_cost`] /
//! [`zeroconf_cost::cost::error_probability`] directly: the column kernel
//! performs the exact float operations of the `*_from_pis` evaluators in
//! the exact order (its running prefix sum replays `iter().sum()`'s
//! left-to-right fold), and a π prefix product is prefix-stable, so
//! caching longer tables changes no float. The golden tests assert this
//! with [`f64::to_bits`] comparisons.
//!
//! The [`wire`] module speaks a JSON-lines protocol over the same API for
//! the `zeroconf engine` CLI subcommand.
//!
//! ```
//! use zeroconf_engine::{Engine, EngineConfig, GridSpec, SweepRequest};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = zeroconf_cost::paper::figure2_scenario()?;
//! let engine = Engine::new(EngineConfig::default());
//! let request = SweepRequest::new(scenario, GridSpec::linspace(8, 0.1, 30.0, 60));
//! let response = engine.evaluate(&request)?;
//! assert_eq!(response.landscape.len(), 8 * 60);
//! // Every r shares one cached π-table across its 8 probe counts.
//! assert_eq!(response.stats.cache_misses, 60);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

// The one platform guard of the workspace. The serve reactor and its
// signal hook call the Linux ABI directly; every crate that builds on
// the engine inherits this target.
#[cfg(not(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
)))]
compile_error!("zeroconf-engine builds for 64-bit little-endian Linux only");

mod cache;
mod pipeline;
mod request;
mod sweep;
pub mod testkit;
pub mod wire;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use zeroconf_cost::kernel::ScenarioFactors;
use zeroconf_cost::param::ParamLandscape;
use zeroconf_cost::{tradeoff, CostError, Scenario};
use zeroconf_simd::Backend;

pub use pipeline::{CompletionNotifier, ExecutorTeam, PipelineConfig, PipelineStats};
pub use request::{
    AxisSpec, BatchStats, CalibrateRequest, CalibrateResponse, Cell, EngineStats, FrontierPoint,
    FrontierRequest, FrontierResponse, GridSpec, Landscape, Metric, ParamAxis, RescoreDelta,
    SweepRequest, SweepResponse,
};
pub use wire::WireError;

use cache::SharedCache;
use sweep::{MetricSlabs, Swept};

/// Engine construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Ignored: every sweep runs on the thread that calls the engine. The
    /// field stays, at 1 by default, because perfbench still sets it and
    /// its daemon announces it.
    pub workers: usize,
    /// Maximum number of π-tables kept resident.
    pub cache_tables: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            cache_tables: 1024,
        }
    }
}

/// Errors from the engine.
///
/// This is the single error surface of the crate: wire-protocol failures
/// ([`WireError`]) and cost-model failures ([`CostError`]) both convert
/// into it, so [`Engine`] and [`wire::PipelinedSession`] return one
/// type and the wire encoder stringifies an error exactly once.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The request was malformed (empty grid, no metrics, bad `r`).
    InvalidRequest {
        /// Description of the problem.
        what: String,
    },
    /// An underlying cost-model evaluation failed.
    Cost(CostError),
    /// A wire-protocol line failed to parse or decode.
    Wire(wire::WireError),
    /// The request was cancelled before it finished evaluating.
    Cancelled,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidRequest { what } => write!(f, "invalid request: {what}"),
            EngineError::Cost(e) => write!(f, "evaluation failed: {e}"),
            EngineError::Wire(e) => write!(f, "{e}"),
            EngineError::Cancelled => write!(f, "request cancelled"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Cost(e) => Some(e),
            EngineError::Wire(e) => Some(e),
            EngineError::InvalidRequest { .. } | EngineError::Cancelled => None,
        }
    }
}

impl From<CostError> for EngineError {
    fn from(e: CostError) -> Self {
        EngineError::Cost(e)
    }
}

impl From<wire::WireError> for EngineError {
    fn from(e: wire::WireError) -> Self {
        EngineError::Wire(e)
    }
}

/// A shareable cancellation flag for one in-flight request.
///
/// Cloning shares the flag. [`CancelToken::cancel`] is sticky: once set,
/// the thread evaluating the request bails out at its next check (between
/// `r` chunks, and between a chunk's π and kernel phases) and the request
/// completes with [`EngineError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        // ORDERING: a standalone stop flag; evaluators poll it and only
        // the flag itself matters, no other memory is published through it.
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        // ORDERING: polling the stop flag; a late observation only delays
        // cancellation by one check, it cannot corrupt anything.
        self.0.load(Ordering::Relaxed)
    }
}

/// The evaluation engine: a shared π-table cache and lifetime counters.
/// Cheap to share behind an `Arc`; all methods take `&self`.
pub struct Engine {
    cache: SharedCache,
    /// The column-kernel backend every sweep runs with: the widest tier
    /// the CPU has ([`Backend::detect`]), or scalar in tests.
    backend: Backend,
    /// The weakest distribution-batch tier observed so far, as a
    /// [`Backend`] discriminant folded with `fetch_min` — starts at
    /// `backend` and can only go down (a distribution without a
    /// vectorized batch honestly reports scalar).
    dist_floor: AtomicU8,
    requests: AtomicU64,
    cells: AtomicU64,
    wall_nanos: AtomicU64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Engine {
    /// Builds an engine. It runs the widest SIMD tier the CPU has; every
    /// tier gives the same bits. `config.workers` is ignored.
    #[must_use]
    pub fn new(config: EngineConfig) -> Engine {
        Self::with_backend(config, Backend::detect())
    }

    /// [`Engine::new`] on an explicit backend: how tests reach the scalar
    /// tier on a host that has a wider one.
    fn with_backend(config: EngineConfig, backend: Backend) -> Engine {
        Engine {
            cache: SharedCache::new(config.cache_tables),
            backend,
            dist_floor: AtomicU8::new(backend as u8),
            requests: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
        }
    }

    /// Evaluates one sweep. Cells come back in deterministic `r`-major
    /// order — for each `r` in request order, `n = 1..=n_max`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for malformed grids and propagated
    /// [`EngineError::Cost`] evaluation failures.
    pub fn evaluate(&self, request: &SweepRequest) -> Result<SweepResponse, EngineError> {
        self.evaluate_cancellable(request, &CancelToken::new())
    }

    /// Like [`Engine::evaluate`], but observing `cancel`: if the token is
    /// cancelled before or during the sweep, evaluation stops at its next
    /// check (between chunks of `r` columns, and between a chunk's π and
    /// kernel phases) and the call returns [`EngineError::Cancelled`]. The
    /// [`wire::PipelinedSession`] uses this to abort in-flight requests.
    ///
    /// # Errors
    ///
    /// The [`Engine::evaluate`] conditions plus [`EngineError::Cancelled`].
    pub fn evaluate_cancellable(
        &self,
        request: &SweepRequest,
        cancel: &CancelToken,
    ) -> Result<SweepResponse, EngineError> {
        request.validate()?;
        let (slabs, stats) = self.run_job(request, cancel, sweep::run::<MetricSlabs>)?;
        let landscape = Landscape::new(
            request.grid.n_max,
            request.grid.r_values.clone(),
            slabs.costs,
            slabs.errors,
        )?;
        self.observe_request(&stats);
        Ok(SweepResponse { landscape, stats })
    }

    /// Runs one sweep over `request`'s grid on this thread, [`sweep::run`]
    /// or [`sweep::statistic`], and folds its distribution tier into the
    /// engine's.
    fn run_job<S>(
        &self,
        request: &SweepRequest,
        cancel: &CancelToken,
        sweep: impl FnOnce(
            &SweepRequest,
            &SharedCache,
            Backend,
            &CancelToken,
        ) -> Result<Swept<S>, EngineError>,
    ) -> Result<(S, BatchStats), EngineError> {
        let start = Instant::now();
        let swept = sweep(request, &self.cache, self.backend, cancel)?;
        // ORDERING: monotonic min of a diagnostic SIMD-tier marker; the
        // fetch_min's atomicity alone keeps it a true low-water mark.
        self.dist_floor
            .fetch_min(swept.dist_backend as u8, Ordering::Relaxed);
        let stats = BatchStats {
            wall_nanos: start.elapsed().as_nanos(),
            cache_hits: swept.hits,
            cache_misses: swept.misses,
            cells: request.grid.cells() as u64,
            workers: 1,
        };
        Ok((swept.slabs, stats))
    }

    /// Re-evaluates `base`'s grid under changed economic parameters.
    ///
    /// The delta can touch `q`, `E` and `c` but never the reply-time
    /// distribution, so the scenario fingerprint is unchanged and every
    /// π-table lookup hits the cache warmed by the base evaluation: a
    /// rescore performs zero π recomputations (observable as
    /// `stats.cache_misses == 0`). Returns the rescored request (for
    /// further deltas) alongside the response.
    ///
    /// # Errors
    ///
    /// Propagates invalid delta parameters as [`EngineError::Cost`], plus
    /// the [`Engine::evaluate`] conditions.
    pub fn rescore(
        &self,
        base: &SweepRequest,
        delta: &RescoreDelta,
    ) -> Result<(SweepRequest, SweepResponse), EngineError> {
        let mut rescored = base.clone();
        rescored.scenario = delta.apply(&base.scenario)?;
        let response = self.evaluate(&rescored)?;
        Ok((rescored, response))
    }

    /// The sufficient-statistic landscape for `(scenario, grid)`, built
    /// by one sweep ([`sweep::statistic`]): one π-table per `r` from the
    /// shared cache (zero *misses* when warm) and one statistic pass, or,
    /// when the full cache turns the reply time away, the rows straight
    /// from the π build with no table. No cost/error arithmetic. The
    /// caller owns it, so it is dropped with the request it answers.
    fn param_landscape_cancellable(
        &self,
        scenario: &Scenario,
        grid: &GridSpec,
        cancel: &CancelToken,
    ) -> Result<(ParamLandscape, BatchStats), EngineError> {
        // The statistic ignores the metric selection, so the synthetic
        // request carries none.
        let request = SweepRequest {
            scenario: scenario.clone(),
            grid: grid.clone(),
            metrics: Vec::new(),
        };
        let (slabs, stats) = self.run_job(&request, cancel, sweep::statistic)?;
        let landscape = ParamLandscape::from_parts(
            grid.n_max,
            grid.r_values.clone(),
            slabs.pi_prefix,
            slabs.pi_n,
        );
        Ok((landscape, stats))
    }

    /// Folds one answered request's work into the lifetime counters.
    fn observe_request(&self, stats: &BatchStats) {
        let wall_nanos = u64::try_from(stats.wall_nanos).unwrap_or(u64::MAX);
        // ORDERING: lifetime statistics tallies; reported, never
        // synchronized on.
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(stats.cells, Ordering::Relaxed);
        self.wall_nanos.fetch_add(wall_nanos, Ordering::Relaxed);
    }

    /// Recovers the collision cost `E*` that makes the request's target
    /// `(n, r)` cost-optimal — the paper's Section 4.5 question, answered
    /// in closed form against the cached sufficient statistic.
    ///
    /// `C_n(r; E) = α_n(r) + E·Err_n(r)` is linear in `E`; stationarity
    /// at the target `r` gives `E* = −α_n′(r) / Err_n′(r)`, with both
    /// derivatives taken as central differences over the target's grid
    /// neighbors. After a sweep (or earlier parametric verb) over the
    /// same grid, a calibration recomputes **zero** π-tables
    /// (`stats.cache_misses == 0`): it rebuilds the statistic from the
    /// cached ones.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for malformed requests,
    /// [`EngineError::Cost`] when the inverse yields no positive finite
    /// `E` (the target admits no calibration), plus propagated evaluation
    /// failures.
    pub fn calibrate(&self, request: &CalibrateRequest) -> Result<CalibrateResponse, EngineError> {
        self.calibrate_cancellable(request, &CancelToken::new())
    }

    /// Like [`Engine::calibrate`], observing `cancel` during the
    /// landscape build.
    ///
    /// # Errors
    ///
    /// The [`Engine::calibrate`] conditions plus
    /// [`EngineError::Cancelled`].
    pub fn calibrate_cancellable(
        &self,
        request: &CalibrateRequest,
        cancel: &CancelToken,
    ) -> Result<CalibrateResponse, EngineError> {
        request.validate()?;
        let start = Instant::now();
        let (landscape, build) =
            self.param_landscape_cancellable(&request.scenario, &request.grid, cancel)?;
        let k = request
            .target_index()
            .expect("validate() established the target r is a grid member");
        let n = request.target_n;
        // α is the cost at E = 0; Err never depends on E, so the zero-E
        // factors serve both difference quotients.
        let zero_e = ScenarioFactors::new(&request.scenario.with_error_cost(0.0)?);
        let d_alpha = landscape.cost_at(&zero_e, k + 1, n) - landscape.cost_at(&zero_e, k - 1, n);
        let d_err = landscape.error_at(&zero_e, k + 1, n) - landscape.error_at(&zero_e, k - 1, n);
        let error_cost = -d_alpha / d_err;
        if !error_cost.is_finite() || error_cost <= 0.0 {
            return Err(EngineError::Cost(CostError::CalibrationFailed {
                what: format!(
                    "the closed-form inverse gives E = {error_cost} at (n = {n}, r = {}); \
                     no positive collision cost makes that configuration optimal",
                    request.target_r
                ),
            }));
        }
        let calibrated = ScenarioFactors::new(&request.scenario.with_error_cost(error_cost)?);
        let stats = BatchStats {
            wall_nanos: start.elapsed().as_nanos(),
            ..build
        };
        self.observe_request(&stats);
        Ok(CalibrateResponse {
            error_cost,
            n,
            r: request.target_r,
            cost: landscape.cost_at(&calibrated, k, n),
            error_probability: landscape.error_at(&calibrated, k, n),
            stats,
        })
    }

    /// The Pareto frontier of `(cost, collision probability)` over a 2-D
    /// parameter grid (e.g. `(E, c)` or `(q, E)`): every parameter point
    /// re-scores the request's sufficient statistic by pure arithmetic, its
    /// cost-minimal `(n, r)` cell becomes a candidate, and the candidates
    /// are reduced with the tradeoff module's exact dominance logic.
    /// After warm-up over the same `(scenario, grid)`, the whole verb
    /// recomputes **zero** π-tables (`stats.cache_misses == 0`).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for malformed requests,
    /// [`EngineError::Cost`] when an axis value leaves its parameter's
    /// domain, plus propagated evaluation failures.
    pub fn frontier(&self, request: &FrontierRequest) -> Result<FrontierResponse, EngineError> {
        self.frontier_cancellable(request, &CancelToken::new())
    }

    /// Like [`Engine::frontier`], observing `cancel` between parameter
    /// columns and during the landscape build.
    ///
    /// # Errors
    ///
    /// The [`Engine::frontier`] conditions plus
    /// [`EngineError::Cancelled`].
    pub fn frontier_cancellable(
        &self,
        request: &FrontierRequest,
        cancel: &CancelToken,
    ) -> Result<FrontierResponse, EngineError> {
        request.validate()?;
        let start = Instant::now();
        let (landscape, build) =
            self.param_landscape_cancellable(&request.scenario, &request.grid, cancel)?;
        let mut candidates = Vec::with_capacity(request.candidates());
        // Neighbouring parameter points usually share their cheapest
        // cell, so each scan starts from the last winner's cost (an exact
        // warm start, see `min_cost_cell_near`).
        let mut hint = None;
        for &xv in &request.x.values {
            if cancel.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
            let on_x = request.x.axis.apply(&request.scenario, xv)?;
            for &yv in &request.y.values {
                let varied = request.y.axis.apply(&on_x, yv)?;
                let factors = ScenarioFactors::new(&varied);
                // Parameter points whose every cell is non-finite (cost
                // overflow) yield no candidate; they still count toward
                // `candidates` so the reduction ratio stays honest.
                if let Some((r_index, n, cost, error_probability)) =
                    landscape.min_cost_cell_near(&factors, self.backend, hint)
                {
                    hint = Some((r_index, n));
                    candidates.push(FrontierPoint {
                        x: xv,
                        y: yv,
                        n,
                        r: landscape.r_values()[r_index],
                        cost,
                        error_probability,
                    });
                }
            }
        }
        let points = tradeoff::frontier_indices(&candidates, |p| p.cost, |p| p.error_probability)
            .into_iter()
            .map(|i| candidates[i])
            .collect();
        let stats = BatchStats {
            wall_nanos: start.elapsed().as_nanos(),
            ..build
        };
        self.observe_request(&stats);
        Ok(FrontierResponse {
            points,
            candidates: request.candidates(),
            stats,
        })
    }

    /// A snapshot of the engine-lifetime counters. It takes one lock,
    /// the cache's, for the cache's length and evictions together.
    ///
    /// `cache_hits` and `cache_misses` count what every request was
    /// charged, including requests that end in an error or are
    /// cancelled; `requests`, `cells` and `wall_nanos` count answered
    /// requests only (see [`EngineStats`]).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let (cache_len, cache_evictions) = self.cache.occupancy();
        EngineStats {
            // ORDERING: statistics snapshot; each counter is independently
            // relaxed-read, a momentarily torn view across counters is
            // acceptable for reporting.
            requests: self.requests.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_len,
            cache_evictions,
            // ORDERING: same snapshot; one thread evaluates each request.
            cells_per_worker: vec![self.cells.load(Ordering::Relaxed)],
            // ORDERING: same snapshot.
            wall_nanos: u128::from(self.wall_nanos.load(Ordering::Relaxed)),
            kernel_backend: self.backend.name(),
            // ORDERING: diagnostic low-water mark read, reporting only.
            dist_backend: Backend::from_u8(self.dist_floor.load(Ordering::Relaxed)).name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_cost::{cost, Scenario};
    use zeroconf_dist::{
        DefectiveDeterministic, DefectiveExponential, DefectiveUniform, DefectiveWeibull,
        Empirical, Mixture, ReplyTimeDistribution,
    };
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::{for_each_seed, Rng};

    use super::*;

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
            cache_tables: 64,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn evaluate_returns_r_major_cells() {
        let e = engine();
        let req = SweepRequest::new(scenario(), GridSpec::linspace(3, 0.5, 2.0, 4));
        let resp = e.evaluate(&req).unwrap();
        assert_eq!(resp.landscape.len(), 12);
        let mut expected = Vec::new();
        for r in &req.grid.r_values {
            for n in 1..=3 {
                expected.push((n, *r));
            }
        }
        let got: Vec<(u32, f64)> = resp.landscape.iter().map(|c| (c.n, c.r)).collect();
        assert_eq!(got, expected);
        assert!(resp
            .landscape
            .iter()
            .all(|c| c.mean_cost.is_some() && c.error_probability.is_some()));
    }

    #[test]
    fn one_table_per_r_and_warm_reuse() {
        let e = engine();
        let req = SweepRequest::new(scenario(), GridSpec::linspace(6, 0.5, 2.0, 5));
        let cold = e.evaluate(&req).unwrap();
        assert_eq!(cold.stats.cache_misses, 5, "one table per r");
        assert_eq!(cold.stats.cache_hits, 0);
        let warm = e.evaluate(&req).unwrap();
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.stats.cache_hits, 5);
        assert_eq!(cold.landscape, warm.landscape);
    }

    #[test]
    fn metric_selection_controls_cell_fields() {
        let e = engine();
        let mut req = SweepRequest::new(scenario(), GridSpec::linspace(2, 0.5, 1.0, 2));
        req.metrics = vec![Metric::MeanCost];
        let resp = e.evaluate(&req).unwrap();
        assert!(resp.landscape.costs().is_some());
        assert!(resp.landscape.errors().is_none());
        assert!(resp
            .landscape
            .iter()
            .all(|c| c.mean_cost.is_some() && c.error_probability.is_none()));
    }

    #[test]
    fn rescore_is_miss_free_and_changes_costs() {
        let e = engine();
        let req = SweepRequest::new(scenario(), GridSpec::linspace(4, 0.5, 5.0, 20));
        let base = e.evaluate(&req).unwrap();
        assert_eq!(base.stats.cache_misses, 20);
        let delta = RescoreDelta {
            error_cost: Some(1e9),
            probe_cost: Some(3.0),
            occupancy: Some(0.25),
        };
        let (rescored_req, rescored) = e.rescore(&req, &delta).unwrap();
        assert_eq!(
            rescored.stats.cache_misses, 0,
            "q/E/c changes recompute no pi table"
        );
        assert_eq!(rescored.stats.cache_hits, 20);
        assert_eq!(rescored_req.scenario.error_cost(), 1e9);
        // And the numbers actually moved.
        assert_ne!(
            base.landscape.cell(0).mean_cost.unwrap(),
            rescored.landscape.cell(0).mean_cost.unwrap()
        );
    }

    #[test]
    fn stats_accumulate_across_requests() {
        let e = engine();
        let req = SweepRequest::new(scenario(), GridSpec::linspace(3, 0.5, 2.0, 6));
        e.evaluate(&req).unwrap();
        e.evaluate(&req).unwrap();
        let stats = e.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cells, 36);
        assert_eq!(stats.cache_misses, 6);
        assert_eq!(stats.cache_hits, 6);
        assert_eq!(stats.cache_len, 6);
        assert_eq!(stats.cache_evictions, 0);
        assert_eq!(stats.cells_per_worker, vec![36]);
    }

    #[test]
    fn stats_report_the_kernel_tier_and_surface_scalar_dist_fallbacks() {
        let simd = Backend::detect();
        let config = EngineConfig {
            cache_tables: 64,
            ..EngineConfig::default()
        };
        let grid = GridSpec::linspace(3, 0.5, 2.0, 4);

        // A vectorized family keeps the dist floor at the kernel tier.
        let e = Engine::new(config.clone());
        assert_eq!(e.stats().kernel_backend, simd.name());
        e.evaluate(&SweepRequest::new(scenario(), grid.clone()))
            .unwrap();
        assert_eq!(e.stats().dist_backend, simd.name());

        // Empirical has no vector override: its π builds honestly report
        // scalar, the floor drops, and the stats block shows the gap
        // between the kernel tier and the weakest distribution tier.
        let empirical = Scenario::builder()
            .occupancy(0.5)
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(
                Empirical::from_observations(vec![Some(0.4), Some(1.2), None]).unwrap(),
            ))
            .build()
            .unwrap();
        let e = Engine::new(config.clone());
        e.evaluate(&SweepRequest::new(empirical, grid.clone()))
            .unwrap();
        let stats = e.stats();
        assert_eq!(stats.kernel_backend, simd.name());
        assert_eq!(stats.dist_backend, "scalar");

        // The scalar engine reports scalar for both fields.
        let e = Engine::with_backend(config, Backend::Scalar);
        e.evaluate(&SweepRequest::new(scenario(), grid)).unwrap();
        assert_eq!(e.stats().kernel_backend, "scalar");
        assert_eq!(e.stats().dist_backend, "scalar");
    }

    /// A mass in `[0, 1]`, each endpoint drawn outright one time in eight.
    fn draw_mass(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.0..1.0),
        }
    }

    /// A delay that is exactly zero one time in four: `survival(0)` may
    /// then round below one, and the π build divides by it.
    fn draw_delay(rng: &mut StdRng) -> f64 {
        if rng.gen_bool(0.25) {
            0.0
        } else {
            rng.gen_range(0.0..3.0)
        }
    }

    /// A reply time of every kind the wire decodes, or an `Empirical`; a
    /// mixture nests up to `depth` more levels. The flag says whether an
    /// `Empirical` sits anywhere in it.
    fn draw_reply_time(rng: &mut StdRng, depth: u32) -> (Arc<dyn ReplyTimeDistribution>, bool) {
        let kinds = if depth == 0 { 6u32 } else { 7 };
        let dist: Arc<dyn ReplyTimeDistribution> = match rng.gen_range(0..kinds) {
            0 => Arc::new(
                DefectiveDeterministic::new(draw_mass(rng), rng.gen_range(0.0..4.0)).unwrap(),
            ),
            1 => Arc::new(
                DefectiveExponential::from_loss(
                    10f64.powf(-rng.gen_range(0.0..16.0)),
                    rng.gen_range(0.1..50.0),
                    draw_delay(rng),
                )
                .unwrap(),
            ),
            2 => Arc::new(
                DefectiveExponential::new(
                    draw_mass(rng),
                    rng.gen_range(0.1..50.0),
                    draw_delay(rng),
                )
                .unwrap(),
            ),
            3 => {
                let lo = rng.gen_range(0.0..3.0);
                Arc::new(
                    DefectiveUniform::new(draw_mass(rng), lo, lo + rng.gen_range(0.01..4.0))
                        .unwrap(),
                )
            }
            4 => Arc::new(
                DefectiveWeibull::new(
                    draw_mass(rng),
                    rng.gen_range(0.3..4.0),
                    rng.gen_range(0.05..5.0),
                    draw_delay(rng),
                )
                .unwrap(),
            ),
            5 => {
                let observations = (0..rng.gen_range(1..20usize))
                    .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range(0.0..6.0)))
                    .collect();
                return (
                    Arc::new(Empirical::from_observations(observations).unwrap()),
                    true,
                );
            }
            _ => {
                let mut empirical = false;
                let components = (0..rng.gen_range(2..4usize))
                    .map(|_| {
                        let (dist, nested) = draw_reply_time(rng, depth - 1);
                        empirical |= nested;
                        (rng.gen_range(0.05..1.0), dist)
                    })
                    .collect();
                return (Arc::new(Mixture::new(components).unwrap()), empirical);
            }
        };
        (dist, false)
    }

    /// `n_max` ≤ 48 and 1–24 listening periods, shuffled: each is zero, a
    /// subnormal, a repeat of an earlier one, or uniform in `[0.001, 20)`.
    fn draw_grid(rng: &mut StdRng) -> GridSpec {
        let len = rng.gen_range(1..25usize);
        let mut r_values: Vec<f64> = Vec::with_capacity(len);
        for _ in 0..len {
            let r = match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
                2 if !r_values.is_empty() => r_values[rng.gen_range(0..r_values.len())],
                _ => rng.gen_range(0.001..20.0),
            };
            r_values.push(r);
        }
        for i in (1..len).rev() {
            r_values.swap(i, rng.gen_range(0..i + 1));
        }
        GridSpec {
            n_max: rng.gen_range(1..49u32),
            r_values,
        }
    }

    /// An error cost from 1 to 1e40, log-uniform.
    fn draw_error_cost(rng: &mut StdRng) -> f64 {
        10f64.powf(rng.gen_range(0.0..40.0))
    }

    /// Every value of a sweep landscape, and its shape, as bits.
    fn landscape_bits(landscape: &Landscape) -> Vec<u64> {
        let metrics = landscape.costs().into_iter().chain(landscape.errors());
        std::iter::once(u64::from(landscape.n_max()))
            .chain(
                landscape
                    .r_values()
                    .iter()
                    .chain(metrics.flatten())
                    .map(|x| x.to_bits()),
            )
            .collect()
    }

    /// Every sweep cell must be the closed forms' `to_bits`, and the
    /// collision probability must lie in `[0, q]` and not increase in `n`
    /// (with the slack of the root property suite).
    fn check_against_closed_forms(request: &SweepRequest, landscape: &Landscape) {
        let scenario = &request.scenario;
        let (costs, errors) = (landscape.costs().unwrap(), landscape.errors().unwrap());
        let n_max = request.grid.n_max as usize;
        for (k, &r) in request.grid.r_values.iter().enumerate() {
            let mut previous = f64::INFINITY;
            for n in 1..=request.grid.n_max {
                let at = k * n_max + n as usize - 1;
                let expected_cost = cost::mean_cost(scenario, n, r).unwrap();
                let expected_error = cost::error_probability(scenario, n, r).unwrap();
                assert_eq!(
                    costs[at].to_bits(),
                    expected_cost.to_bits(),
                    "C({n}, {r:e}) = {} vs {expected_cost}",
                    costs[at]
                );
                assert_eq!(
                    errors[at].to_bits(),
                    expected_error.to_bits(),
                    "E({n}, {r:e}) = {} vs {expected_error}",
                    errors[at]
                );
                let error = errors[at];
                assert!(
                    0.0 <= error && error <= scenario.occupancy(),
                    "E({n}, {r:e}) = {error}, q = {}",
                    scenario.occupancy()
                );
                assert!(
                    error <= previous + 1e-15,
                    "E({n}, {r:e}) = {error} > {previous}"
                );
                previous = error;
            }
        }
    }

    /// A seeded backend differential oracle at the engine level. Each seed
    /// draws a scenario and a grid, and a scalar engine and `Engine::new`
    /// (the CPU's widest tier) each answer a sweep, a rescore, a calibrate
    /// of an interior grid member and a small frontier over them: the two
    /// engines' answers must be equal `to_bits`, errors included, and
    /// every sweep cell must be the closed forms' bits. The stats block
    /// names each engine's tier, and `Engine::new`'s `dist_backend` drops
    /// to scalar exactly when an `Empirical` was evaluated.
    #[test]
    fn scalar_and_detected_engines_answer_every_verb_with_the_same_bits() {
        let detected = Backend::detect();
        for_each_seed(0..128, |rng| {
            let (reply_time, empirical) = draw_reply_time(rng, 2);
            let scenario = Scenario::builder()
                .occupancy(rng.gen_range(0.001..0.999))
                .probe_cost(rng.gen_range(0.0..10.0))
                .error_cost(draw_error_cost(rng))
                .reply_time(reply_time)
                .build()
                .unwrap();
            let grid = draw_grid(rng);
            let sweep = SweepRequest::new(scenario.clone(), grid.clone());
            let delta = RescoreDelta {
                occupancy: rng.gen_bool(0.5).then(|| rng.gen_range(0.001..0.999)),
                probe_cost: rng.gen_bool(0.5).then(|| rng.gen_range(0.0..10.0)),
                error_cost: rng.gen_bool(0.5).then(|| draw_error_cost(rng)),
            };
            let len = grid.r_values.len();
            let calibrate = (len >= 3).then(|| CalibrateRequest {
                scenario: scenario.clone(),
                grid: grid.clone(),
                target_n: rng.gen_range(1..grid.n_max + 1),
                target_r: grid.r_values[rng.gen_range(1..len - 1)],
            });
            let y_axis = if rng.gen_bool(0.5) {
                ParamAxis::ProbeCost
            } else {
                ParamAxis::Occupancy
            };
            let frontier = FrontierRequest {
                scenario,
                grid,
                x: AxisSpec::new(
                    ParamAxis::ErrorCost,
                    (0..rng.gen_range(1..4usize))
                        .map(|_| draw_error_cost(rng))
                        .collect(),
                ),
                y: AxisSpec::new(
                    y_axis,
                    (0..rng.gen_range(1..4usize))
                        .map(|_| rng.gen_range(0.001..0.999))
                        .collect(),
                ),
            };

            let config = EngineConfig {
                cache_tables: 64,
                ..EngineConfig::default()
            };
            let engines = [
                Engine::with_backend(config.clone(), Backend::Scalar),
                Engine::new(config),
            ];
            let answers = engines.each_ref().map(|engine| {
                let swept = engine.evaluate(&sweep).unwrap();
                check_against_closed_forms(&sweep, &swept.landscape);
                let (rescored, rescore) = engine.rescore(&sweep, &delta).unwrap();
                check_against_closed_forms(&rescored, &rescore.landscape);
                let mut bits = vec![
                    Ok(landscape_bits(&swept.landscape)),
                    Ok(landscape_bits(&rescore.landscape)),
                ];
                bits.extend(calibrate.iter().map(|request| {
                    engine.calibrate(request).map(|answer| {
                        vec![
                            answer.error_cost.to_bits(),
                            u64::from(answer.n),
                            answer.r.to_bits(),
                            answer.cost.to_bits(),
                            answer.error_probability.to_bits(),
                        ]
                    })
                }));
                bits.push(engine.frontier(&frontier).map(|answer| {
                    let mut bits = vec![answer.candidates as u64];
                    for point in &answer.points {
                        bits.extend([
                            point.x.to_bits(),
                            point.y.to_bits(),
                            u64::from(point.n),
                            point.r.to_bits(),
                            point.cost.to_bits(),
                            point.error_probability.to_bits(),
                        ]);
                    }
                    bits
                }));
                bits
            });
            assert_eq!(answers[0], answers[1]);

            let [scalar, widest] = engines.each_ref().map(Engine::stats);
            assert_eq!(scalar.kernel_backend, "scalar");
            assert_eq!(scalar.dist_backend, "scalar");
            assert_eq!(widest.kernel_backend, detected.name());
            let dist_tier = if empirical { "scalar" } else { detected.name() };
            assert_eq!(widest.dist_backend, dist_tier);
        });
    }

    /// A 8 × 100 sweep on the `k`-th of a family of reply times.
    fn sweep_on(k: u32) -> SweepRequest {
        let scenario = Scenario::builder()
            .occupancy(0.5)
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(1e-6, 10.0 + f64::from(k), 1.0).unwrap(),
            ))
            .build()
            .unwrap();
        SweepRequest::new(scenario, GridSpec::linspace(8, 0.1, 5.0, 100))
    }

    /// An inline `param-cold`-shaped frontier: 64 × 400 on a reply time
    /// none of [`sweep_on`]'s shares, under a 4 × 4 `(E, c)` grid.
    fn cold_frontier() -> FrontierRequest {
        let scenario = Scenario::builder()
            .occupancy(0.01)
            .probe_cost(2.0)
            .error_cost(1e12)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(1e-9, 7.5, 0.2).unwrap(),
            ))
            .build()
            .unwrap();
        FrontierRequest {
            scenario,
            grid: GridSpec::linspace(64, 0.02, 8.0, 400),
            x: AxisSpec::new(ParamAxis::ErrorCost, vec![1e3, 1e6, 1e9, 1e12]),
            y: AxisSpec::new(ParamAxis::ProbeCost, vec![0.5, 1.0, 2.0, 4.0]),
        }
    }

    fn frontier_bits(answer: &FrontierResponse) -> Vec<[u64; 6]> {
        answer
            .points
            .iter()
            .map(|p| {
                [
                    p.x.to_bits(),
                    p.y.to_bits(),
                    u64::from(p.n),
                    p.r.to_bits(),
                    p.cost.to_bits(),
                    p.error_probability.to_bits(),
                ]
            })
            .collect()
    }

    /// Eight sweeps' 800 tables stay resident in the default cache while
    /// a cold inline frontier that does not fit beside them is answered:
    /// it is built without tables, so the same sweeps again read 800
    /// hits, where an LRU that admitted its 400 tables read none.
    #[test]
    fn a_warm_set_survives_a_cold_inline_frontier() {
        let e = Engine::new(EngineConfig::default());
        let sweeps: Vec<SweepRequest> = (0..8).map(sweep_on).collect();
        for sweep in &sweeps {
            assert_eq!(e.evaluate(sweep).unwrap().stats.cache_misses, 100);
        }
        let frontier = e.frontier(&cold_frontier()).unwrap();
        assert_eq!(
            (frontier.stats.cache_hits, frontier.stats.cache_misses),
            (0, 400)
        );
        let hits: u64 = sweeps
            .iter()
            .map(|sweep| {
                let stats = e.evaluate(sweep).unwrap().stats;
                assert_eq!(stats.cache_misses, 0);
                stats.cache_hits
            })
            .sum();
        assert_eq!(hits, 800);
        let stats = e.stats();
        assert_eq!(
            (stats.cache_hits, stats.cache_misses),
            (800, 1200),
            "the frontier's misses are booked"
        );
        assert_eq!((stats.cache_len, stats.cache_evictions), (800, 0));
    }

    /// The same cold inline frontier, sent three times on a full cache:
    /// the first is built without tables, the second comes back within
    /// the turned-away list and goes through the cache (400 misses,
    /// inserted), and the third finds its tables resident (0 misses).
    /// Every answer has the bits of the cache path on a roomy cache.
    #[test]
    fn a_repeated_cold_frontier_is_admitted_on_reuse() {
        let request = cold_frontier();
        let roomy = Engine::new(EngineConfig::default());
        let want = roomy.frontier(&request).unwrap();
        assert_eq!(want.stats.cache_misses, 400);
        assert_eq!(roomy.stats().cache_len, 400, "a cache with room admits");

        let e = Engine::new(EngineConfig::default());
        for k in 0..11 {
            e.evaluate(&sweep_on(k)).unwrap();
        }
        assert_eq!((e.stats().cache_len, e.stats().cache_evictions), (1024, 76));
        let counts: Vec<(u64, u64, u64)> = (0..3)
            .map(|_| {
                let answer = e.frontier(&request).unwrap();
                assert_eq!(frontier_bits(&answer), frontier_bits(&want));
                assert_eq!(answer.candidates, want.candidates);
                let evictions = e.stats().cache_evictions;
                (
                    answer.stats.cache_hits,
                    answer.stats.cache_misses,
                    evictions,
                )
            })
            .collect();
        assert_eq!(counts, [(0, 400, 76), (0, 400, 476), (400, 0, 476)]);
    }

    #[test]
    fn invalid_scenario_evaluation_surfaces_cost_error() {
        // A deterministic full-mass distribution with r past the delay
        // drives the denominator to 1 - q: fine. Instead force an error
        // with n = 0 via a doctored grid.
        let e = engine();
        let mut req = SweepRequest::new(scenario(), GridSpec::linspace(2, 0.5, 1.0, 2));
        req.grid.n_max = 0;
        assert!(matches!(
            e.evaluate(&req),
            Err(EngineError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn grids_over_the_wire_caps_are_refused_before_evaluation() {
        // 4,096 × 257 cells: one column over `MAX_GRID_CELLS`, which the
        // wire refuses at decode and the library now refuses as well.
        let e = engine();
        let grid = GridSpec::linspace(wire::MAX_GRID_N_MAX, 0.5, 1.0, 257);
        let sweep = SweepRequest::new(scenario(), grid.clone());
        assert!(matches!(
            e.evaluate(&sweep),
            Err(EngineError::InvalidRequest { what }) if what.starts_with("grid cell count")
        ));
        let frontier = FrontierRequest {
            scenario: scenario(),
            grid,
            x: AxisSpec::new(ParamAxis::ErrorCost, vec![1e6]),
            y: AxisSpec::new(ParamAxis::ProbeCost, vec![2.0]),
        };
        assert!(matches!(
            e.frontier(&frontier),
            Err(EngineError::InvalidRequest { .. })
        ));
        assert_eq!(e.stats().cache_misses, 0, "nothing was computed");
    }
}
