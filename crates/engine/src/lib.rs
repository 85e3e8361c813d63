//! A batched, cached, multi-threaded landscape-evaluation engine for the
//! zeroconf cost model.
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
//!   [`Landscape`] buffers (one `f64` slab per metric) that each worker
//!   fills through the single-pass O(n_max) column program of
//!   [`zeroconf_cost::kernel::ColumnBlockKernel`].
//! - **Cached**: the only expensive part of a cell is the π-table of
//!   Eq. (1), and that table depends *only* on the reply-time distribution
//!   and `r`. The engine memoizes tables keyed on
//!   `(distribution fingerprint, r)` in a bounded LRU cache, so all `n`
//!   at one `r` share one table — and re-evaluations under changed `q`,
//!   `E` or `c` ([`Engine::rescore`]) recompute *no* π at all.
//! - **Multi-threaded**: the `r` grid is self-scheduled in chunks across a
//!   persistent `std::thread` pool; the calling thread participates, so a
//!   single-worker engine is just the plain loop with no thread traffic.
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

// The engine is one of the workspace's three unsafe-bearing crates,
// beside `zeroconf-serve` and `zeroconf-simd` (see `zeroconf-audit`); its
// unsafe code is the signal hook in `signal.rs`. Every unsafe operation
// inside an `unsafe fn` must sit in its own block with its own SAFETY
// comment.
#![deny(unsafe_op_in_unsafe_fn)]

// The one platform guard of the workspace. The serve reactor and the
// signal hook call the Linux ABI directly; every crate that builds on
// the engine inherits this target.
#[cfg(not(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
)))]
compile_error!("zeroconf-engine builds for 64-bit little-endian Linux only");

mod cache;
pub mod pipeline;
mod pool;
mod request;
pub mod signal;
pub mod testkit;
pub mod wire;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use zeroconf_cost::kernel::ScenarioFactors;
use zeroconf_cost::param::ParamLandscape;
use zeroconf_cost::{tradeoff, CostError, Scenario};
use zeroconf_dist::ReplyTimeDistribution;
use zeroconf_simd::Backend;

pub use pipeline::{
    Completion, CompletionNotifier, ExecutorTeam, Pipeline, PipelineConfig, PipelineStats,
    RequestId,
};
pub use request::{
    AxisSpec, BatchStats, CalibrateRequest, CalibrateResponse, Cell, EngineStats, FrontierPoint,
    FrontierRequest, FrontierResponse, GridSpec, Landscape, Metric, ParamAxis, RescoreDelta,
    SweepRequest, SweepResponse, WorkRequest, WorkResponse,
};
pub use wire::WireError;

use cache::SharedCache;
use pool::{Job, MetricSlabs, Slabs, StatisticSlabs, WorkerPool};

/// Engine construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Total threads evaluating a sweep, including the calling thread;
    /// `workers = 1` means fully synchronous in-caller evaluation.
    pub workers: usize,
    /// Maximum number of π-tables kept resident.
    pub cache_tables: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            cache_tables: 1024,
        }
    }
}

/// Errors from the engine.
///
/// This is the single error surface of the crate: wire-protocol failures
/// ([`WireError`]) and cost-model failures ([`CostError`]) both convert
/// into it, so [`Engine`], [`wire::PipelinedSession`] and [`Pipeline`]
/// all return one type and the wire encoder stringifies an error exactly
/// once.
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
/// every participant evaluating the request bails out at the next `r`
/// boundary and the request completes with [`EngineError::Cancelled`].
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
        // ORDERING: a standalone stop flag; workers poll it and only the
        // flag itself matters, no other memory is published through it.
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

/// The evaluation engine: a worker pool plus a shared π-table cache and
/// lifetime counters. Cheap to share behind an `Arc`; all methods take
/// `&self`.
pub struct Engine {
    pool: WorkerPool,
    cache: Arc<SharedCache>,
    /// The column-kernel backend every job runs with: the widest tier the
    /// CPU has ([`Backend::detect`]), or scalar in tests.
    backend: Backend,
    /// The weakest distribution-batch tier observed so far, as a
    /// [`Backend`] discriminant folded with `fetch_min` — starts at
    /// `backend` and can only go down (a distribution without a
    /// vectorized batch honestly reports scalar).
    dist_floor: AtomicU8,
    /// Single-slot cache of the most recent sufficient-statistic
    /// landscape, keyed by distribution fingerprint (the grid is compared
    /// against the landscape itself). A warm parametric verb skips even
    /// the statistic pass; a cold one still recomputes no π when the
    /// π-table cache is warm.
    landscape: Mutex<Option<LandscapeSlot>>,
    /// EWMA of warm per-cell kernel cost in nanoseconds, stored as f64
    /// bits (0 = no measurement yet). Fed by fully-warm sweeps.
    ewma_cell_nanos: AtomicU64,
    /// EWMA of the cost of one π-table *cell* relative to one kernel
    /// cell, stored as f64 bits (0 = no measurement yet). Fed by sweeps
    /// with misses once a warm baseline exists.
    ewma_pi_ratio: AtomicU64,
    requests: AtomicU64,
    cells: AtomicU64,
    wall_nanos: Mutex<u128>,
    cells_per_worker: Vec<AtomicU64>,
}

/// Sweeps estimated below this many equivalent warm cells run on the
/// calling thread alone: fan-out overhead (broadcast, cursor and latch
/// traffic, cache-line ping-pong) exceeds the parallel win for small or
/// fully-warm grids. Missing π-tables weigh extra via a measured cost
/// ratio, so a *cold* sweep of the same grid can still fan out.
const SMALL_SWEEP_CELLS: usize = 65_536;

/// How many chunks each participant should get on average; more than one
/// so uneven cells rebalance, not so many that cursor traffic dominates.
const CHUNKS_PER_WORKER: usize = 4;

/// A chunk should cost at least this long to evaluate, so the shared
/// cursor fetch, cache lock round-trip and latch update stay amortized.
const MIN_CHUNK_NANOS: f64 = 20_000.0;

/// Scheduler priors used until the EWMAs have real measurements: a warm
/// cell costs a few nanoseconds, and a π cell costs several times that
/// (one `survival` evaluation per cell versus pure arithmetic).
const DEFAULT_CELL_NANOS: f64 = 5.0;
const DEFAULT_PI_RATIO: f64 = 8.0;

/// How a sweep will be executed: how many threads participate and how
/// many consecutive `r` columns one claimed chunk spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SweepPlan {
    participants: usize,
    chunk: usize,
}

/// The engine's cached sufficient-statistic landscape and its key.
struct LandscapeSlot {
    fingerprint: u64,
    landscape: Arc<ParamLandscape>,
}

/// An EWMA cell stored as f64 bits in an `AtomicU64`; all-zero bits mean
/// "no measurement yet" (the all-zero pattern is `+0.0`, which no clamp
/// range below ever produces, so the sentinel is unambiguous).
fn ewma_get(cell: &AtomicU64, default: f64) -> f64 {
    // ORDERING: the EWMA cell is a self-contained planning hint; any
    // recent value is acceptable, so no cross-cell ordering is needed.
    let bits = cell.load(Ordering::Relaxed);
    if bits == 0 {
        default
    } else {
        f64::from_bits(bits)
    }
}

fn ewma_update(cell: &AtomicU64, measured: f64, lo: f64, hi: f64) {
    if !measured.is_finite() {
        return;
    }
    let measured = measured.clamp(lo, hi);
    // ORDERING: read-modify-write race on a planning hint is benign (see
    // the store below); relaxed keeps the hot path uncontended.
    let bits = cell.load(Ordering::Relaxed);
    let next = if bits == 0 {
        measured
    } else {
        // α = 0.25: reactive enough to track a machine warming up,
        // damped enough that one noisy sweep cannot flip the plan.
        let old = f64::from_bits(bits);
        old + 0.25 * (measured - old)
    };
    // ORDERING: a racing store loses one sample; the estimate converges
    // anyway, and nothing else is published through the cell.
    cell.store(next.to_bits(), Ordering::Relaxed);
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Engine {
    /// Builds an engine, spawning `config.workers - 1` background threads.
    /// It runs the widest SIMD tier the CPU has; every tier gives the same
    /// bits.
    #[must_use]
    pub fn new(config: EngineConfig) -> Engine {
        Self::with_backend(config, Backend::detect())
    }

    /// [`Engine::new`] on an explicit backend: how tests reach the scalar
    /// tier on a host that has a wider one.
    fn with_backend(config: EngineConfig, backend: Backend) -> Engine {
        let workers = config.workers.max(1);
        Engine {
            pool: WorkerPool::new(workers - 1),
            cache: Arc::new(SharedCache::new(config.cache_tables)),
            backend,
            dist_floor: AtomicU8::new(backend as u8),
            landscape: Mutex::new(None),
            ewma_cell_nanos: AtomicU64::new(0),
            ewma_pi_ratio: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            wall_nanos: Mutex::new(0),
            cells_per_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Total threads (pool workers plus the caller) evaluating a sweep.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.background_workers() + 1
    }

    /// Decides how a sweep will run, from measured costs rather than
    /// fixed rules:
    ///
    /// - The sweep's cost is estimated in *equivalent warm cells*:
    ///   `cells + missing_tables · n_max · π-ratio`, where residency
    ///   comes from a recency-neutral cache probe and the π-ratio from
    ///   the EWMA. Below [`SMALL_SWEEP_CELLS`] the sweep stays on the
    ///   calling thread — fan-out overhead would dominate (this is what
    ///   keeps a warm re-sweep from running *slower* with two threads
    ///   than with one).
    /// - The chunk size balances load (`CHUNKS_PER_WORKER` chunks per
    ///   participant) but never drops below the size whose estimated
    ///   runtime amortizes the per-chunk cursor/cache/latch traffic
    ///   ([`MIN_CHUNK_NANOS`]).
    fn plan(&self, request: &SweepRequest) -> SweepPlan {
        let r_count = request.grid.r_values.len().max(1);
        let n_max = request.grid.n_max.max(1) as usize;
        let cells = r_count * n_max;
        let workers = self.workers();
        let cell_nanos = ewma_get(&self.ewma_cell_nanos, DEFAULT_CELL_NANOS);
        let pi_ratio = ewma_get(&self.ewma_pi_ratio, DEFAULT_PI_RATIO);
        let resident = self.cache.count_resident(
            request.scenario.reply_time().fingerprint(),
            &request.grid.r_values,
            request.grid.n_max,
        );
        let missing = request.grid.r_values.len() - resident;
        let effective = cells as f64 + (missing * n_max) as f64 * pi_ratio;
        let participants = if workers == 1 || effective < SMALL_SWEEP_CELLS as f64 {
            1
        } else {
            workers
        };
        let balance = (r_count / (participants * CHUNKS_PER_WORKER)).max(1);
        let column_nanos =
            cell_nanos * n_max as f64 * (1.0 + pi_ratio * missing as f64 / r_count as f64);
        let min_chunk = (MIN_CHUNK_NANOS / column_nanos.max(1.0)).ceil() as usize;
        SweepPlan {
            participants,
            chunk: balance.max(min_chunk).min(r_count),
        }
    }

    /// Feeds a finished sweep back into the scheduler's cost model.
    /// Fully-warm sweeps calibrate the per-cell nanoseconds; sweeps with
    /// misses calibrate how much dearer a π cell is than a kernel cell.
    /// Both are heuristics only — they steer scheduling, never results.
    fn observe_sweep(&self, stats: &BatchStats, participants: usize, n_max: u32) {
        if stats.cells == 0 || stats.wall_nanos == 0 {
            return;
        }
        let cpu_nanos = stats.wall_nanos as f64 * participants as f64;
        if stats.cache_misses == 0 {
            ewma_update(
                &self.ewma_cell_nanos,
                cpu_nanos / stats.cells as f64,
                0.05,
                1e4,
            );
        } else {
            let cell_nanos = ewma_get(&self.ewma_cell_nanos, DEFAULT_CELL_NANOS);
            let pi_cells = (stats.cache_misses * u64::from(n_max.max(1))) as f64;
            let surplus = cpu_nanos - stats.cells as f64 * cell_nanos;
            if surplus > 0.0 {
                ewma_update(
                    &self.ewma_pi_ratio,
                    surplus / (pi_cells * cell_nanos),
                    1.0,
                    64.0,
                );
            }
        }
    }

    /// Evaluates one sweep. Cells come back in deterministic `r`-major
    /// order — for each `r` in request order, `n = 1..=n_max` — whatever
    /// the thread scheduling did.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for malformed grids and propagated
    /// [`EngineError::Cost`] evaluation failures.
    pub fn evaluate(&self, request: &SweepRequest) -> Result<SweepResponse, EngineError> {
        self.evaluate_cancellable(request, &CancelToken::new())
    }

    /// Like [`Engine::evaluate`], but observing `cancel`: if the token is
    /// cancelled before or during the sweep, evaluation stops at the next
    /// `r` boundary and the call returns [`EngineError::Cancelled`]. The
    /// [`Pipeline`] uses this to abort in-flight requests.
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
        let (slabs, stats) = self.run_job::<MetricSlabs>(request, cancel)?;
        let landscape = Landscape::new(
            request.grid.n_max,
            request.grid.r_values.clone(),
            slabs.costs,
            slabs.errors,
        )?;
        self.observe_request(&stats);
        Ok(SweepResponse { landscape, stats })
    }

    /// Runs one pool job over `request`'s grid into slabs of type `S`:
    /// plans it, fans it out when the plan calls for more than one
    /// participant, runs its share on this thread, and folds the job's
    /// work into the scheduler's cost model and the per-worker tallies.
    fn run_job<S: Slabs>(
        &self,
        request: &SweepRequest,
        cancel: &CancelToken,
    ) -> Result<(S, BatchStats), EngineError> {
        let plan = self.plan(request);
        let start = Instant::now();
        // The slabs are allocated before the job, so the job's own small
        // allocations sit above them: freeing a large answer's slabs then
        // leaves no free block at the top of the heap for the allocator
        // to trim and the next sweep to fault back in, which costs a warm
        // 200 × 200 sweep 124 page faults and 3× its time.
        let mut slabs = S::zeroed(request, request.grid.cells());
        let job = Arc::new(Job::<S>::new(
            request,
            Arc::clone(&self.cache),
            self.backend,
            plan.participants,
            plan.chunk,
            cancel.clone(),
        ));
        if plan.participants > 1 {
            self.pool.broadcast(&job);
        }
        job.run_here(&mut slabs)?;
        // ORDERING: monotonic min of a diagnostic SIMD-tier marker; the
        // fetch_min's atomicity alone keeps it a true low-water mark.
        self.dist_floor
            .fetch_min(job.dist_backend_used() as u8, Ordering::Relaxed);
        let by_worker = job.cells_per_worker();
        // ORDERING: statistics tallies; the job is already joined, so
        // these relaxed reads and adds race with nothing.
        for (total, done) in self.cells_per_worker.iter().zip(&by_worker) {
            total.fetch_add(*done, Ordering::Relaxed);
        }
        let stats = BatchStats {
            wall_nanos: start.elapsed().as_nanos(),
            // ORDERING: same statistics block, job already joined.
            cache_hits: job.hits.load(Ordering::Relaxed),
            cache_misses: job.misses.load(Ordering::Relaxed),
            cells: request.grid.cells() as u64,
            workers: self.workers(),
        };
        self.observe_sweep(&stats, plan.participants, request.grid.n_max);
        Ok((slabs, stats))
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

    /// The sufficient-statistic landscape for `(scenario, grid)`: served
    /// from the engine's single-slot landscape cache when the fingerprint
    /// and grid match (zero work), otherwise built through the pool — one
    /// π-table per `r` from the shared cache (zero *misses* when warm),
    /// one statistic pass, no cost/error arithmetic.
    ///
    /// A slot holding some other landscape is emptied before the build
    /// starts, so a cold verb never keeps the stale statistic alive
    /// beside the one it is building.
    fn param_landscape_cancellable(
        &self,
        scenario: &Scenario,
        grid: &GridSpec,
        cancel: &CancelToken,
    ) -> Result<(Arc<ParamLandscape>, BatchStats), EngineError> {
        let fingerprint = scenario.reply_time().fingerprint();
        {
            let mut slot = self.landscape.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(cached) = slot.as_ref() {
                let same_grid = cached.fingerprint == fingerprint
                    && cached.landscape.n_max() == grid.n_max
                    && cached.landscape.r_values().len() == grid.r_values.len()
                    && cached
                        .landscape
                        .r_values()
                        .iter()
                        .zip(&grid.r_values)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if same_grid {
                    return Ok((
                        Arc::clone(&cached.landscape),
                        BatchStats {
                            workers: self.workers(),
                            ..BatchStats::default()
                        },
                    ));
                }
            }
            *slot = None;
        }
        // The statistic ignores the metric selection, so the synthetic
        // request carries none.
        let request = SweepRequest {
            scenario: scenario.clone(),
            grid: grid.clone(),
            metrics: Vec::new(),
        };
        let (slabs, stats) = self.run_job::<StatisticSlabs>(&request, cancel)?;
        let landscape = Arc::new(ParamLandscape::from_parts(
            grid.n_max,
            grid.r_values.clone(),
            slabs.pi_prefix,
            slabs.pi_n,
        ));
        *self.landscape.lock().unwrap_or_else(|e| e.into_inner()) = Some(LandscapeSlot {
            fingerprint,
            landscape: Arc::clone(&landscape),
        });
        Ok((landscape, stats))
    }

    /// Folds one answered request's work into the lifetime counters.
    fn observe_request(&self, stats: &BatchStats) {
        // ORDERING: lifetime statistics tallies; reported, never
        // synchronized on.
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(stats.cells, Ordering::Relaxed);
        *self.wall_nanos.lock().unwrap_or_else(|e| e.into_inner()) += stats.wall_nanos;
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
    /// (`stats.cache_misses == 0`).
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
    /// re-scores the cached sufficient statistic by pure arithmetic, its
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

    /// A snapshot of the engine-lifetime counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            // ORDERING: statistics snapshot; each counter is independently
            // relaxed-read, a momentarily torn view across counters is
            // acceptable for reporting.
            requests: self.requests.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_len: self.cache.len(),
            cache_evictions: self.cache.evictions(),
            cells_per_worker: self
                .cells_per_worker
                .iter()
                // ORDERING: same snapshot — per-worker tallies, reporting
                // only.
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            wall_nanos: *self.wall_nanos.lock().unwrap_or_else(|e| e.into_inner()),
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
        Empirical, Mixture,
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

    fn engine(workers: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            cache_tables: 64,
        })
    }

    #[test]
    fn evaluate_returns_r_major_cells() {
        let e = engine(1);
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
        let e = engine(1);
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
        let e = engine(1);
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

    /// The grid is cold and above [`SMALL_SWEEP_CELLS`] (12,800 cells
    /// plus 200 missing tables × 64 × the default π-ratio of 8 = 115,200
    /// effective cells), so the 4-worker engine fans the sweep out: pool
    /// threads evaluate chunks into slabs of their own, which the caller
    /// copies in. A pool thread that wakes after the caller has claimed
    /// every chunk helps with nothing, so the sweep is repeated on fresh
    /// engines until one has helped.
    #[test]
    fn multi_thread_result_matches_single_thread() {
        let req = SweepRequest::new(scenario(), GridSpec::linspace(64, 0.1, 30.0, 200));
        let single = engine(1).evaluate(&req).unwrap();
        for attempt in 1.. {
            let pool = engine(4);
            assert_eq!(pool.plan(&req).participants, 4, "the sweep must fan out");
            let multi = pool.evaluate(&req).unwrap();
            assert_eq!(single.landscape.len(), multi.landscape.len());
            for (a, b) in single.landscape.iter().zip(multi.landscape.iter()) {
                assert_eq!(a.n, b.n);
                assert_eq!(a.r.to_bits(), b.r.to_bits());
                assert_eq!(
                    a.mean_cost.unwrap().to_bits(),
                    b.mean_cost.unwrap().to_bits()
                );
                assert_eq!(
                    a.error_probability.unwrap().to_bits(),
                    b.error_probability.unwrap().to_bits()
                );
            }
            let by_worker = pool.stats().cells_per_worker;
            assert_eq!(by_worker.iter().sum::<u64>(), req.grid.cells() as u64);
            if by_worker[1..].iter().any(|&cells| cells > 0) {
                break;
            }
            assert!(attempt < 100, "no pool thread evaluated a cell");
        }
    }

    #[test]
    fn rescore_is_miss_free_and_changes_costs() {
        let e = engine(2);
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
        let e = engine(2);
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
        assert_eq!(stats.cells_per_worker.len(), 2);
        assert_eq!(stats.cells_per_worker.iter().sum::<u64>(), 36);
    }

    #[test]
    fn stats_report_the_kernel_tier_and_surface_scalar_dist_fallbacks() {
        let simd = Backend::detect();
        let config = EngineConfig {
            workers: 1,
            cache_tables: 64,
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
                workers: 1,
                cache_tables: 64,
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

    #[test]
    fn invalid_scenario_evaluation_surfaces_cost_error() {
        // A deterministic full-mass distribution with r past the delay
        // drives the denominator to 1 - q: fine. Instead force an error
        // with n = 0 via a doctored grid.
        let e = engine(1);
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
        let e = engine(1);
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

    #[test]
    fn a_rebuild_releases_the_stale_statistic_first() {
        let e = engine(1);
        let frontier = |loss: f64| FrontierRequest {
            scenario: Scenario::builder()
                .occupancy(0.5)
                .probe_cost(2.0)
                .error_cost(1e6)
                .reply_time(Arc::new(
                    DefectiveExponential::from_loss(loss, 10.0, 1.0).unwrap(),
                ))
                .build()
                .unwrap(),
            grid: GridSpec::linspace(4, 0.5, 3.0, 8),
            x: AxisSpec::new(ParamAxis::ErrorCost, vec![1e3, 1e6]),
            y: AxisSpec::new(ParamAxis::ProbeCost, vec![0.5, 2.0]),
        };
        let slot_fingerprint = || {
            e.landscape
                .lock()
                .unwrap()
                .as_ref()
                .map(|slot| slot.fingerprint)
        };
        let a = frontier(1e-6);
        e.frontier(&a).unwrap();
        assert_eq!(
            slot_fingerprint(),
            Some(a.scenario.reply_time().fingerprint())
        );
        // B's build never runs, so an empty slot afterwards shows that A
        // was dropped before the build started, not replaced after it.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_eq!(
            e.frontier_cancellable(&frontier(1e-3), &cancelled)
                .unwrap_err(),
            EngineError::Cancelled
        );
        assert_eq!(slot_fingerprint(), None);
    }
}
