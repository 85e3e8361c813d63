//! Request and response types of the evaluation engine.

use zeroconf_cost::{CostError, Scenario};

use crate::EngineError;

/// A metric the engine can evaluate per grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Mean total cost `C(n, r)` — Eq. (3).
    MeanCost,
    /// Collision probability `E(n, r)` — Eq. (4).
    ErrorProbability,
}

/// The `(n, r)` grid of one sweep: every probe count `1..=n_max` crossed
/// with every listening period in `r_values`.
///
/// The `r` grid is a list of explicit values, not a range description, so
/// the caller controls the exact floats — a prerequisite for bit-identical
/// agreement with direct evaluation over the same grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Largest probe count; the grid covers `n = 1..=n_max`.
    pub n_max: u32,
    /// The listening periods to evaluate, in output order.
    pub r_values: Vec<f64>,
}

impl GridSpec {
    /// An evenly spaced `r` grid of `points >= 2` values across
    /// `[r_lo, r_hi]`, using the same `r_lo + (r_hi − r_lo)·k/(points−1)`
    /// arithmetic as the tradeoff module so shared grids share floats.
    #[must_use]
    pub fn linspace(n_max: u32, r_lo: f64, r_hi: f64, points: usize) -> GridSpec {
        let r_values = (0..points)
            .map(|k| {
                if points < 2 {
                    r_lo
                } else {
                    r_lo + (r_hi - r_lo) * k as f64 / (points - 1) as f64
                }
            })
            .collect();
        GridSpec { n_max, r_values }
    }

    /// Number of `(n, r)` cells on the grid.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.n_max as usize * self.r_values.len()
    }
}

/// One grid sweep: a scenario, a grid and the metrics to evaluate.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The scenario under evaluation.
    pub scenario: Scenario,
    /// The `(n, r)` grid.
    pub grid: GridSpec,
    /// Which metrics to compute per cell (at least one).
    pub metrics: Vec<Metric>,
}

impl SweepRequest {
    /// A sweep over `grid` computing both metrics. A struct literal
    /// selects the metrics.
    ///
    /// Construction checks nothing, here or in a literal: every consumer
    /// ([`crate::Engine::evaluate`], [`crate::wire::PipelinedSession`])
    /// runs [`SweepRequest::validate`] on the request it is given.
    ///
    /// ```
    /// use zeroconf_engine::{Engine, EngineConfig, GridSpec, Metric, SweepRequest};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let scenario = zeroconf_cost::paper::figure2_scenario()?;
    /// let request = SweepRequest {
    ///     metrics: vec![Metric::MeanCost],
    ///     ..SweepRequest::new(scenario, GridSpec::linspace(8, 0.1, 30.0, 60))
    /// };
    /// let engine = Engine::new(EngineConfig::default());
    /// assert_eq!(engine.evaluate(&request)?.landscape.len(), 8 * 60);
    /// let mut empty = request;
    /// empty.grid.r_values.clear();
    /// assert!(engine.evaluate(&empty).is_err());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn new(scenario: Scenario, grid: GridSpec) -> SweepRequest {
        SweepRequest {
            scenario,
            grid,
            metrics: vec![Metric::MeanCost, Metric::ErrorProbability],
        }
    }

    /// Validates grid shape and metric selection.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] naming the first problem: a zero
    /// `n_max`, an empty or non-finite/negative `r` grid, or an empty
    /// metric list.
    pub fn validate(&self) -> Result<(), EngineError> {
        validate_grid(&self.grid)?;
        if self.metrics.is_empty() {
            return Err(EngineError::InvalidRequest {
                what: "at least one metric must be requested".to_owned(),
            });
        }
        Ok(())
    }

    /// Whether `metric` was requested.
    #[must_use]
    pub fn wants(&self, metric: Metric) -> bool {
        self.metrics.contains(&metric)
    }
}

/// The largest `n_max` a grid may ask for. Every π-table of the grid holds
/// `n_max + 1` floats.
pub const MAX_GRID_N_MAX: u32 = 4_096;

/// The most listening periods a grid may carry, as a wire grid's
/// `r_points` or as the length of an `r` list: one π-table each.
pub const MAX_GRID_R_POINTS: usize = 65_536;

/// The most `(n, r)` cells a grid may span. A sweep answers with up to two
/// floats per cell.
pub const MAX_GRID_CELLS: usize = 1 << 20;

/// The most parameter points (`|x| × |y|`) a frontier may span. Each point
/// re-scores the whole statistic landscape.
pub const MAX_FRONTIER_POINTS: usize = 1 << 16;

/// The deepest nesting of arrays and objects a JSON line may carry. The
/// parser descends one call per level, so without a bound a short line
/// of `[`s overflows the parsing thread's stack. No answer the codec
/// writes nests deeper than 4 levels (a frontier's points, a `stats`
/// answer's blocks); a request nests 4 levels (a frontier's axis
/// values) plus 3 for each level of mixture in its reply time. A level
/// takes about 256 bytes of stack in a release build, so 64 levels use
/// under 1% of a 2 MiB thread stack. The cap also bounds the recursion
/// that decodes nested mixtures and drops a parsed value.
pub const MAX_JSON_DEPTH: usize = 64;

/// The most reply-time mixture components one scenario may carry,
/// counted at every level of nesting. A component multiplies the cost of
/// every π-table the request builds. The shortest component the decoder
/// accepts, `{"weight":1,"dist":{"kind":"uniform","mass":1,"lo":0,"hi":1}},`,
/// takes 62 bytes, so at 64 bytes each a mixture at the cap fits in the
/// 64 KiB that `zeroconf serve`'s line cap allows for the scenario, keys
/// and id.
pub const MAX_MIXTURE_COMPONENTS: usize = 64 * 1024 / 64;

/// The most JSON values (numbers, strings, literals, arrays and objects,
/// at every level) a request line may carry; the parser refuses the value
/// past it, before the rest of the line's tree exists. It is the sum of
/// what the largest line the decoder caps let through needs:
///
/// - an explicit `r` list of [`MAX_GRID_R_POINTS`] values;
/// - frontier axes of [`MAX_FRONTIER_POINTS`]` + 1` values (`|x| + |y|`
///   is largest when one axis has a single value);
/// - [`MAX_MIXTURE_COMPONENTS`] components of the widest kind, 8 values
///   each: `{"weight":…,"dist":{"kind":"weibull","mass":…,"shape":…,
///   "scale":…,"delay":…}}` is the component and dist objects, the
///   weight, the kind and four parameters;
/// - 64 values for the envelope: the top-level object with `v` and `id`,
///   the scenario and grid objects and their scalar members, the
///   `metrics` list and the verb's own object and axis headers, which
///   come to fewer than 50.
///
/// A line one value past any of those caps, with every other part at its
/// own cap, still fits, so it is answered with that cap's error.
pub const MAX_REQUEST_VALUES: usize =
    MAX_GRID_R_POINTS + MAX_FRONTIER_POINTS + 1 + MAX_MIXTURE_COMPONENTS * 8 + 64;

/// Bytes a wire session charges a retained base beyond its `r` list, its
/// id and its reply-time distribution: the rest of the scenario, the grid
/// header, the metrics and the map entry.
pub(crate) const RETAINED_BASE_OVERHEAD: usize = 1024;

/// The bytes of completed sweeps one wire session keeps as bases for
/// later `rescore`, `calibrate` and `frontier` lines: room for two bases
/// with a full [`MAX_GRID_R_POINTS`] `r` list. A base is charged 8 bytes
/// per `r` value, the bytes of its id, what its reply-time distribution
/// keeps (a mixture, every component) and a fixed 1 KiB; past the budget
/// the least recently referenced base is evicted, and a base over the
/// budget on its own is not kept at all.
pub const MAX_RETAINED_BASE_BYTES: usize = 2 * (MAX_GRID_R_POINTS * 8 + RETAINED_BASE_OVERHEAD);

/// A size of a request that has a cap, as the request states it.
pub(crate) enum Extent {
    /// `grid.n_max`. A float, because a wire grid's may be NaN, infinite
    /// or fractional.
    NMax(f64),
    /// The length of an explicit `r` list.
    RList(usize),
    /// A wire linspace grid's `r_points`, again as a float.
    RPoints(f64),
    /// `n_max × r values`, once both factors have passed their caps, so
    /// the product cannot overflow.
    Cells(usize),
    /// `|x| × |y|` of a frontier.
    FrontierPoints(usize),
    /// The nesting level of a JSON array or object.
    JsonDepth(usize),
    /// A scenario's mixture components, counted at every level.
    MixtureComponents(usize),
    /// The JSON values a request line's parse has built so far.
    RequestValues(usize),
}

/// Refuses an extent over its cap, with the text the wire answers. The
/// wire decoder checks each extent before it allocates anything sized by
/// it; [`validate_grid`] and [`FrontierRequest::validate`] check built
/// requests, so library callers meet the same caps.
pub(crate) fn check_cap(extent: Extent) -> Result<(), String> {
    let refusal = match extent {
        Extent::NMax(n_max) if n_max.is_nan() || n_max > f64::from(MAX_GRID_N_MAX) => {
            format!("grid `n_max` {n_max:?} is over the limit of {MAX_GRID_N_MAX}")
        }
        Extent::RList(len) if len > MAX_GRID_R_POINTS => {
            format!("grid `r` length {len} is over the limit of {MAX_GRID_R_POINTS}")
        }
        Extent::RPoints(points) if points.is_nan() || points > MAX_GRID_R_POINTS as f64 => {
            format!("grid `r_points` {points:?} is over the limit of {MAX_GRID_R_POINTS}")
        }
        Extent::Cells(cells) if cells > MAX_GRID_CELLS => format!(
            "grid cell count {cells} (n_max × r values) is over the limit of {MAX_GRID_CELLS}"
        ),
        Extent::FrontierPoints(points) if points > MAX_FRONTIER_POINTS => format!(
            "frontier parameter point count {points} (|x| × |y|) is over the limit of \
             {MAX_FRONTIER_POINTS}"
        ),
        Extent::JsonDepth(depth) if depth > MAX_JSON_DEPTH => {
            format!("JSON nesting depth {depth} is over the limit of {MAX_JSON_DEPTH}")
        }
        Extent::MixtureComponents(count) if count > MAX_MIXTURE_COMPONENTS => format!(
            "reply_time mixture component count {count} is over the limit of \
             {MAX_MIXTURE_COMPONENTS}"
        ),
        Extent::RequestValues(count) if count > MAX_REQUEST_VALUES => {
            format!("request line JSON value count is over the limit of {MAX_REQUEST_VALUES}")
        }
        _ => return Ok(()),
    };
    Err(refusal)
}

fn invalid(what: String) -> EngineError {
    EngineError::InvalidRequest { what }
}

/// Validates one `(n, r)` grid: `n_max >= 1`, a non-empty `r` list, every
/// `r` finite and nonnegative, and the `MAX_GRID_*` caps. Shared by every
/// grid-carrying request.
///
/// # Errors
///
/// [`EngineError::InvalidRequest`] naming the first problem.
pub(crate) fn validate_grid(grid: &GridSpec) -> Result<(), EngineError> {
    if grid.n_max == 0 {
        return Err(EngineError::InvalidRequest {
            what: "grid needs n_max >= 1".to_owned(),
        });
    }
    if grid.r_values.is_empty() {
        return Err(EngineError::InvalidRequest {
            what: "grid needs at least one r value".to_owned(),
        });
    }
    if let Some(bad) = grid.r_values.iter().find(|r| !r.is_finite() || **r < 0.0) {
        return Err(EngineError::InvalidRequest {
            what: format!("r = {bad} must be nonnegative and finite"),
        });
    }
    check_cap(Extent::NMax(f64::from(grid.n_max))).map_err(invalid)?;
    check_cap(Extent::RList(grid.r_values.len())).map_err(invalid)?;
    check_cap(Extent::Cells(grid.cells())).map_err(invalid)
}

/// A change to the economic scenario parameters — the inputs Eq. (3)/(4)
/// consume *besides* the π-table. Applying a delta never changes the
/// reply-time distribution, so every π-table cached for the base request
/// stays valid and a warm re-evaluation recomputes no π at all.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RescoreDelta {
    /// New occupancy `q`, if changed.
    pub occupancy: Option<f64>,
    /// New probe cost `c`, if changed.
    pub probe_cost: Option<f64>,
    /// New error cost `E`, if changed.
    pub error_cost: Option<f64>,
}

impl RescoreDelta {
    /// Applies the delta to `scenario`, validating each changed parameter.
    ///
    /// # Errors
    ///
    /// Propagates [`CostError::InvalidParameter`] from the scenario
    /// mutators.
    pub fn apply(&self, scenario: &Scenario) -> Result<Scenario, CostError> {
        let mut out = scenario.clone();
        if let Some(q) = self.occupancy {
            out = out.with_occupancy(q)?;
        }
        if let Some(c) = self.probe_cost {
            out = out.with_probe_cost(c)?;
        }
        if let Some(e) = self.error_cost {
            out = out.with_error_cost(e)?;
        }
        Ok(out)
    }

    /// Whether the delta changes anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == RescoreDelta::default()
    }
}

/// An economic scenario parameter addressable by the parametric verbs —
/// exactly the inputs a [`RescoreDelta`] can change, because they are the
/// inputs of Eq. (3)/(4) that do *not* touch the reply-time distribution
/// (and therefore never invalidate a cached π-table or statistic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamAxis {
    /// The occupancy probability `q` (wire name `q`).
    Occupancy,
    /// The per-probe postage `c` (wire name `probe_cost`).
    ProbeCost,
    /// The collision cost `E` (wire name `error_cost`).
    ErrorCost,
}

impl ParamAxis {
    /// The wire/field name of this axis — the same spelling a rescore
    /// delta uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ParamAxis::Occupancy => "q",
            ParamAxis::ProbeCost => "probe_cost",
            ParamAxis::ErrorCost => "error_cost",
        }
    }

    /// Parses a wire/field name back into an axis.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ParamAxis> {
        match name {
            "q" => Some(ParamAxis::Occupancy),
            "probe_cost" => Some(ParamAxis::ProbeCost),
            "error_cost" => Some(ParamAxis::ErrorCost),
            _ => None,
        }
    }

    /// Applies `value` on this axis to `scenario`, validating the domain.
    ///
    /// # Errors
    ///
    /// Propagates [`CostError::InvalidParameter`] from the scenario
    /// mutators.
    pub fn apply(self, scenario: &Scenario, value: f64) -> Result<Scenario, CostError> {
        match self {
            ParamAxis::Occupancy => scenario.with_occupancy(value),
            ParamAxis::ProbeCost => scenario.with_probe_cost(value),
            ParamAxis::ErrorCost => scenario.with_error_cost(value),
        }
    }
}

/// One axis of a parameter grid: which scenario parameter to vary and the
/// explicit values to visit (caller-controlled floats, like `GridSpec`).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// The varied parameter.
    pub axis: ParamAxis,
    /// The values to visit, in output order.
    pub values: Vec<f64>,
}

impl AxisSpec {
    /// An axis visiting `values` on `axis`.
    #[must_use]
    pub fn new(axis: ParamAxis, values: Vec<f64>) -> AxisSpec {
        AxisSpec { axis, values }
    }

    fn validate(&self, role: &str) -> Result<(), EngineError> {
        if self.values.is_empty() {
            return Err(EngineError::InvalidRequest {
                what: format!("{role} axis needs at least one value"),
            });
        }
        if let Some(bad) = self.values.iter().find(|v| !v.is_finite()) {
            return Err(EngineError::InvalidRequest {
                what: format!("{role} axis value {bad} must be finite"),
            });
        }
        Ok(())
    }
}

/// A calibration request: recover the collision cost `E` that makes the
/// configuration `(target_n, target_r)` cost-optimal in `r` — the paper's
/// Section 4.5 inverse question, answered in closed form.
///
/// `C_n(r; E) = α_n(r) + E·Err_n(r)` is linear in `E`, so stationarity at
/// the target `r` gives `E* = −α_n′(r) / Err_n′(r)`; both derivatives are
/// central differences over the target's *grid neighbors*, evaluated
/// against the cached sufficient statistic — a warm calibration recomputes
/// no π at all. `target_r` must therefore be an interior grid point
/// (bit-exact member of `grid.r_values` with a neighbor on each side).
#[derive(Debug, Clone)]
pub struct CalibrateRequest {
    /// The scenario whose economics are being calibrated (its `error_cost`
    /// is ignored by the inverse — `E` is the unknown).
    pub scenario: Scenario,
    /// The `(n, r)` grid the statistic is built over.
    pub grid: GridSpec,
    /// The probe count of the target configuration.
    pub target_n: u32,
    /// The listening period of the target configuration; must be an
    /// interior member of `grid.r_values` (bit-exact).
    pub target_r: f64,
}

impl CalibrateRequest {
    /// Index of `target_r` in the grid, when present (bit-exact match).
    #[must_use]
    pub fn target_index(&self) -> Option<usize> {
        self.grid
            .r_values
            .iter()
            .position(|r| r.to_bits() == self.target_r.to_bits())
    }

    /// Validates the grid and the target configuration.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] naming the first problem: a bad
    /// grid, `target_n` outside `1..=n_max`, or a `target_r` that is not
    /// an interior grid member.
    pub fn validate(&self) -> Result<(), EngineError> {
        validate_grid(&self.grid)?;
        if self.target_n == 0 || self.target_n > self.grid.n_max {
            return Err(EngineError::InvalidRequest {
                what: format!(
                    "calibrate target n = {} outside the grid's 1..={}",
                    self.target_n, self.grid.n_max
                ),
            });
        }
        match self.target_index() {
            None => Err(EngineError::InvalidRequest {
                what: format!(
                    "calibrate target r = {} is not a grid member",
                    self.target_r
                ),
            }),
            Some(k) if k == 0 || k + 1 >= self.grid.r_values.len() => {
                Err(EngineError::InvalidRequest {
                    what: format!(
                        "calibrate target r = {} needs a grid neighbor on each side",
                        self.target_r
                    ),
                })
            }
            Some(_) => Ok(()),
        }
    }
}

/// The answer to a [`CalibrateRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrateResponse {
    /// The recovered collision cost `E*`.
    pub error_cost: f64,
    /// The target probe count, echoed.
    pub n: u32,
    /// The target listening period, echoed.
    pub r: f64,
    /// Mean cost `C(n, r)` under the calibrated `E*`.
    pub cost: f64,
    /// Collision probability `Err(n, r)` (independent of `E`).
    pub error_probability: f64,
    /// Work counters for this request.
    pub stats: BatchStats,
}

/// A frontier request: the Pareto frontier of `(cost, collision
/// probability)` over a 2-D *parameter* grid — e.g. `(E, c)` or `(q, E)`.
///
/// Every parameter point re-scores the cached sufficient statistic (zero
/// π work when warm), takes its cost-minimal `(n, r)` cell, and the
/// resulting candidates are reduced to their Pareto frontier with the
/// exact dominance logic of the tradeoff module.
#[derive(Debug, Clone)]
pub struct FrontierRequest {
    /// The base scenario; axis values override its parameters pointwise.
    pub scenario: Scenario,
    /// The `(n, r)` grid the statistic is built over.
    pub grid: GridSpec,
    /// The first varied parameter.
    pub x: AxisSpec,
    /// The second varied parameter; must differ from `x.axis`.
    pub y: AxisSpec,
}

impl FrontierRequest {
    /// Number of parameter points on the 2-D grid.
    #[must_use]
    pub fn candidates(&self) -> usize {
        self.x.values.len() * self.y.values.len()
    }

    /// Validates the grid and both axes.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] naming the first problem: a bad
    /// grid, an empty or non-finite axis, more than
    /// [`MAX_FRONTIER_POINTS`] parameter points, or two axes varying the
    /// same parameter.
    pub fn validate(&self) -> Result<(), EngineError> {
        validate_grid(&self.grid)?;
        self.x.validate("x")?;
        self.y.validate("y")?;
        let points = self.x.values.len().saturating_mul(self.y.values.len());
        check_cap(Extent::FrontierPoints(points)).map_err(invalid)?;
        if self.x.axis == self.y.axis {
            return Err(EngineError::InvalidRequest {
                what: format!(
                    "frontier axes must differ; both vary `{}`",
                    self.x.axis.name()
                ),
            });
        }
        Ok(())
    }
}

/// One Pareto-optimal parameter point: where it sits on the parameter
/// grid, which configuration is optimal there, and at what cost/risk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// The `x`-axis parameter value.
    pub x: f64,
    /// The `y`-axis parameter value.
    pub y: f64,
    /// The cost-minimal probe count at this parameter point.
    pub n: u32,
    /// The cost-minimal listening period at this parameter point.
    pub r: f64,
    /// Mean cost of that configuration.
    pub cost: f64,
    /// Collision probability of that configuration.
    pub error_probability: f64,
}

/// The answer to a [`FrontierRequest`]: the Pareto-optimal parameter
/// points in increasing-cost order.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierResponse {
    /// The frontier, sorted by increasing cost (and therefore strictly
    /// decreasing collision probability).
    pub points: Vec<FrontierPoint>,
    /// Parameter points examined (the full 2-D grid, including dominated
    /// and non-finite ones).
    pub candidates: usize,
    /// Work counters for this request.
    pub stats: BatchStats,
}

/// One unit of engine work a session submits to its executor team: the
/// closed set of verbs the wire protocol speaks.
#[derive(Debug, Clone)]
pub(crate) enum WorkRequest {
    /// A grid sweep ([`crate::Engine::evaluate`]).
    Sweep(SweepRequest),
    /// A closed-form `E` calibration ([`crate::Engine::calibrate`]).
    Calibrate(CalibrateRequest),
    /// A parameter-grid Pareto frontier ([`crate::Engine::frontier`]).
    Frontier(FrontierRequest),
}

impl WorkRequest {
    /// Validates the inner request.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] from the inner `validate`.
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        match self {
            WorkRequest::Sweep(r) => r.validate(),
            WorkRequest::Calibrate(r) => r.validate(),
            WorkRequest::Frontier(r) => r.validate(),
        }
    }
}

/// The answer to one [`WorkRequest`], same variant as the request.
#[derive(Debug)]
pub(crate) enum WorkResponse {
    /// A sweep's evaluated landscape.
    Sweep(SweepResponse),
    /// A calibration's recovered `E*`.
    Calibrate(CalibrateResponse),
    /// A frontier's Pareto points.
    Frontier(FrontierResponse),
}

/// One evaluated grid cell. Metric fields are `None` when the metric was
/// not requested.
///
/// `Cell` is the *presentation* shape: the engine stores results in the
/// flat structure-of-arrays [`Landscape`] and materializes `Cell`s only at
/// consumption boundaries ([`Landscape::iter`], the wire encoder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Probe count.
    pub n: u32,
    /// Listening period.
    pub r: f64,
    /// `C(n, r)` when requested.
    pub mean_cost: Option<f64>,
    /// `E(n, r)` when requested.
    pub error_probability: Option<f64>,
}

/// The evaluated grid as flat structure-of-arrays buffers.
///
/// Layout is `r`-major: the value for `(r_index, n)` lives at
/// `r_index · n_max + (n − 1)` of each metric buffer. The column kernel
/// writes whole `r`-columns straight into these buffers — one contiguous
/// `f64` slab per metric, no per-cell struct, no per-cell `Option`
/// discriminants — and consumers either index the slabs directly
/// ([`Landscape::cost_at`] / [`Landscape::error_at`], `O(1)`) or
/// materialize [`Cell`]s on the fly ([`Landscape::iter`]).
///
/// A metric buffer is `None` iff the metric was not requested; a present
/// buffer always holds exactly `r_values.len() · n_max` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Landscape {
    n_max: u32,
    r_values: Vec<f64>,
    costs: Option<Vec<f64>>,
    errors: Option<Vec<f64>>,
}

impl Landscape {
    /// Assembles a landscape from `r`-major metric buffers, as the kernel
    /// writes them and as the wire's response decoder reads them.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] when a provided buffer's length is
    /// not `r_values.len() · n_max`.
    pub fn new(
        n_max: u32,
        r_values: Vec<f64>,
        costs: Option<Vec<f64>>,
        errors: Option<Vec<f64>>,
    ) -> Result<Landscape, EngineError> {
        let cells = r_values.len().checked_mul(n_max as usize);
        for (metric, buffer) in [("cost", &costs), ("error", &errors)] {
            if let Some(buffer) = buffer.as_ref().filter(|b| Some(b.len()) != cells) {
                return Err(invalid(format!(
                    "{metric} buffer of {} values does not cover the {n_max} × {} grid",
                    buffer.len(),
                    r_values.len()
                )));
            }
        }
        Ok(Landscape {
            n_max,
            r_values,
            costs,
            errors,
        })
    }

    /// Largest probe count; rows cover `n = 1..=n_max`.
    #[must_use]
    pub fn n_max(&self) -> u32 {
        self.n_max
    }

    /// The listening periods, in request order.
    #[must_use]
    pub fn r_values(&self) -> &[f64] {
        &self.r_values
    }

    /// Number of `(n, r)` cells on the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.r_values.len() * self.n_max as usize
    }

    /// Whether the grid has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat `C(n, r)` buffer (`r`-major), if the metric was requested.
    #[must_use]
    pub fn costs(&self) -> Option<&[f64]> {
        self.costs.as_deref()
    }

    /// The flat `E(n, r)` buffer (`r`-major), if the metric was requested.
    #[must_use]
    pub fn errors(&self) -> Option<&[f64]> {
        self.errors.as_deref()
    }

    /// `C(n, r_values[r_index])`, or `None` when the metric was not
    /// requested.
    ///
    /// # Panics
    ///
    /// Panics when `r_index` or `n` is outside the grid.
    #[must_use]
    pub fn cost_at(&self, r_index: usize, n: u32) -> Option<f64> {
        self.costs.as_ref().map(|c| c[self.flat_index(r_index, n)])
    }

    /// `E(n, r_values[r_index])`, or `None` when the metric was not
    /// requested.
    ///
    /// # Panics
    ///
    /// Panics when `r_index` or `n` is outside the grid.
    #[must_use]
    pub fn error_at(&self, r_index: usize, n: u32) -> Option<f64> {
        self.errors.as_ref().map(|e| e[self.flat_index(r_index, n)])
    }

    /// The [`Cell`] at flat index `index` (`r`-major).
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    #[must_use]
    pub fn cell(&self, index: usize) -> Cell {
        assert!(index < self.len(), "cell index {index} outside the grid");
        let n_max = self.n_max as usize;
        Cell {
            n: (index % n_max) as u32 + 1,
            r: self.r_values[index / n_max],
            mean_cost: self.costs.as_ref().map(|c| c[index]),
            error_probability: self.errors.as_ref().map(|e| e[index]),
        }
    }

    /// Materializes [`Cell`]s lazily, in deterministic `r`-major order:
    /// for each `r` in request order, `n = 1..=n_max`.
    pub fn iter(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.len()).map(|index| self.cell(index))
    }

    fn flat_index(&self, r_index: usize, n: u32) -> usize {
        assert!(
            r_index < self.r_values.len() && (1..=self.n_max).contains(&n),
            "(r_index = {r_index}, n = {n}) outside the grid"
        );
        r_index * self.n_max as usize + (n as usize - 1)
    }
}

/// Counters for one evaluated request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Wall-clock time of the sweep in nanoseconds.
    pub wall_nanos: u128,
    /// π-table cache hits during the sweep (for a statistic built
    /// without tables, its repeated `r`s).
    pub cache_hits: u64,
    /// π-table cache misses during the sweep: tables computed, or, for a
    /// statistic built without tables, its distinct `r`s.
    pub cache_misses: u64,
    /// Cells evaluated.
    pub cells: u64,
    /// Threads that evaluated the request: always 1, since a sweep runs
    /// on the thread that runs its request (kept for the wire's
    /// `"workers"` key).
    pub workers: usize,
}

/// The evaluated grid plus its work counters.
///
/// Results live in the flat SoA [`Landscape`]; `r`-major [`Cell`] views
/// are materialized on demand via [`Landscape::iter`] or
/// [`Landscape::cell`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResponse {
    /// The evaluated grid, as flat metric buffers.
    pub landscape: Landscape,
    /// Work counters for this request.
    pub stats: BatchStats,
}

/// Cumulative engine-lifetime observability counters.
///
/// `requests`, `cells` and `wall_nanos` count answered requests only.
/// `cache_hits` and `cache_misses` count what every request was charged
/// for its π-tables, also a request that then ends in an error or is
/// cancelled, so they do not reconcile with the sum of the answers'
/// `stats`. Nor do they reconcile with `cache_len` and
/// `cache_evictions`: a sweep's miss inserts one table, but a
/// `calibrate` or `frontier` the full cache turned away builds its
/// statistic without tables and inserts nothing, though it is charged
/// a miss per distinct `r` and a hit per repeat, as if nothing of its
/// reply time had been resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests answered.
    pub requests: u64,
    /// Cells evaluated across all answered requests.
    pub cells: u64,
    /// π-table hits charged to every request: lookups served from the
    /// cache, and the repeated `r`s of statistic builds made without
    /// tables.
    pub cache_hits: u64,
    /// π-table misses charged to every request, those that ended in an
    /// error or were cancelled after a chunk included: tables built, and
    /// the distinct `r`s of statistic builds made without tables.
    pub cache_misses: u64,
    /// π-tables currently resident in the cache.
    pub cache_len: usize,
    /// π-tables evicted from the cache to make room. A count that grows
    /// by about one per miss means the cache is thrashing.
    pub cache_evictions: u64,
    /// Cells evaluated per thread: one entry, equal to `cells`, since the
    /// engine has no thread pool (kept for the wire's `cells_per_worker`
    /// key).
    pub cells_per_worker: Vec<u64>,
    /// Total wall-clock nanoseconds of the answered requests.
    pub wall_nanos: u128,
    /// The SIMD tier the column kernel ran at (`"scalar"`, `"avx2"` or
    /// `"avx512"`), resolved once at engine construction.
    pub kernel_backend: &'static str,
    /// The *weakest* SIMD tier any distribution's survival batch actually
    /// ran at across the engine's lifetime. A distribution without a
    /// vectorized `survival_batch_with` override honestly reports scalar,
    /// so this field surfaces a silent scalar fallback that the kernel
    /// tier alone would hide. Equals `kernel_backend` until a request has
    /// built at least one π-table.
    pub dist_backend: &'static str,
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_dist::DefectiveExponential;

    use super::*;

    fn scenario() -> Scenario {
        Scenario::builder()
            .occupancy(0.5)
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(1e-3, 10.0, 1.0).unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn linspace_matches_tradeoff_grid_arithmetic() {
        let g = GridSpec::linspace(4, 0.1, 30.0, 300);
        assert_eq!(g.r_values.len(), 300);
        assert_eq!(g.r_values[0], 0.1);
        // The endpoint carries the formula's rounding, exactly as the
        // tradeoff module computes it — bit-compatibility is the contract,
        // not endpoint exactness.
        assert_eq!(
            g.r_values[299].to_bits(),
            (0.1f64 + (30.0 - 0.1) * 299.0 / 299.0).to_bits()
        );
        let k = 137;
        assert_eq!(
            g.r_values[k].to_bits(),
            (0.1 + (30.0 - 0.1) * k as f64 / 299.0).to_bits()
        );
        assert_eq!(g.cells(), 1200);
    }

    #[test]
    fn degenerate_linspace_collapses_to_lo() {
        assert_eq!(GridSpec::linspace(2, 1.5, 9.0, 1).r_values, vec![1.5]);
        assert!(GridSpec::linspace(2, 1.5, 9.0, 0).r_values.is_empty());
    }

    #[test]
    fn validation_rejects_bad_grids() {
        let s = scenario();
        let ok = SweepRequest::new(s.clone(), GridSpec::linspace(3, 0.5, 2.0, 4));
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.grid.n_max = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.grid.r_values.clear();
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.grid.r_values[1] = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.metrics.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn landscape_indexes_r_major_and_materializes_cells() {
        let landscape = Landscape::new(
            2,
            vec![0.5, 1.0, 1.5],
            Some(vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
            None,
        )
        .unwrap();
        assert_eq!(landscape.len(), 6);
        assert!(!landscape.is_empty());
        assert_eq!(landscape.n_max(), 2);
        assert_eq!(landscape.r_values(), &[0.5, 1.0, 1.5]);
        assert_eq!(landscape.cost_at(1, 2), Some(40.0));
        assert_eq!(landscape.error_at(1, 2), None);
        let cell = landscape.cell(3);
        assert_eq!((cell.n, cell.r, cell.mean_cost), (2, 1.0, Some(40.0)));
        assert!(landscape.iter().all(|c| c.error_probability.is_none()));
        // Cells stream in r-major order: n cycles fastest.
        let order: Vec<(u32, f64)> = landscape.iter().map(|c| (c.n, c.r)).collect();
        assert_eq!(
            order,
            vec![(1, 0.5), (2, 0.5), (1, 1.0), (2, 1.0), (1, 1.5), (2, 1.5)]
        );
    }

    #[test]
    #[should_panic(expected = "outside the grid")]
    fn landscape_rejects_out_of_grid_lookup() {
        let landscape = Landscape::new(2, vec![1.0], Some(vec![1.0, 2.0]), None).unwrap();
        let _ = landscape.cost_at(0, 3);
    }

    #[test]
    fn landscape_rejects_wrongly_sized_buffers() {
        let short = Landscape::new(2, vec![1.0], Some(vec![1.0]), None);
        assert!(
            matches!(&short, Err(EngineError::InvalidRequest { what })
                if what == "cost buffer of 1 values does not cover the 2 × 1 grid"),
            "{short:?}"
        );
        let long = Landscape::new(1, vec![1.0], None, Some(vec![1.0, 2.0]));
        assert!(matches!(long, Err(EngineError::InvalidRequest { .. })));
    }

    #[test]
    fn library_requests_meet_the_wire_caps() {
        // One column over the cell cap, at the largest n_max.
        let over = GridSpec::linspace(
            MAX_GRID_N_MAX,
            0.1,
            1.0,
            MAX_GRID_CELLS / MAX_GRID_N_MAX as usize + 1,
        );
        let refused = SweepRequest::new(scenario(), over.clone()).validate();
        assert!(
            matches!(&refused, Err(EngineError::InvalidRequest { what })
                if what == "grid cell count 1052672 (n_max × r values) is over the limit of 1048576"),
            "{refused:?}"
        );
        let mut at_cap = over;
        at_cap.r_values.pop();
        assert!(SweepRequest::new(scenario(), at_cap.clone())
            .validate()
            .is_ok());
        let mut long_n = at_cap.clone();
        long_n.n_max += 1;
        assert!(SweepRequest::new(scenario(), long_n).validate().is_err());
        let long_r = GridSpec {
            n_max: 1,
            r_values: vec![1.0; MAX_GRID_R_POINTS + 1],
        };
        assert!(SweepRequest::new(scenario(), long_r).validate().is_err());
        let frontier = |x_points: usize| {
            FrontierRequest {
                scenario: scenario(),
                grid: GridSpec::linspace(2, 0.5, 2.0, 3),
                x: AxisSpec::new(ParamAxis::ErrorCost, vec![1e6; x_points]),
                y: AxisSpec::new(ParamAxis::ProbeCost, vec![2.0; 256]),
            }
            .validate()
        };
        assert!(frontier(256).is_ok());
        assert!(
            matches!(&frontier(257), Err(EngineError::InvalidRequest { what })
                if what.starts_with("frontier parameter point count 65792")),
            "{:?}",
            frontier(257)
        );
    }

    #[test]
    fn rescore_delta_applies_only_changed_fields() {
        let s = scenario();
        let delta = RescoreDelta {
            error_cost: Some(1e9),
            ..RescoreDelta::default()
        };
        let rescored = delta.apply(&s).unwrap();
        assert_eq!(rescored.error_cost(), 1e9);
        assert_eq!(rescored.occupancy(), s.occupancy());
        assert_eq!(rescored.probe_cost(), s.probe_cost());
        assert!(RescoreDelta::default().is_empty());
        assert!(!delta.is_empty());
        // Invalid values are rejected by the scenario mutators.
        let bad = RescoreDelta {
            occupancy: Some(1.5),
            ..RescoreDelta::default()
        };
        assert!(bad.apply(&s).is_err());
    }
}
