//! The JSON-lines wire protocol of the `zeroconf engine` subcommand.
//!
//! One request per input line, one response per output line. A sweep:
//!
//! ```json
//! {"v":1,"id":"s1",
//!  "scenario":{"q":0.000975,"probe_cost":2.0,"error_cost":1e35,
//!              "reply_time":{"kind":"exponential","loss":1e-15,"rate":10.0,"delay":1.0}},
//!  "grid":{"n_max":8,"r_min":0.1,"r_max":30.0,"r_points":300},
//!  "metrics":["mean_cost","error_probability"]}
//! ```
//!
//! The protocol is versioned: requests may carry `"v"` (defaulting to
//! [`WIRE_VERSION`] when absent), responses always do, and an unknown
//! version is answered with a structured error line instead of a guess.
//! `scenario.hosts` may replace `q` (occupancy `1/hosts`, the paper's
//! convention), `grid.r` may list explicit values instead of the
//! `r_min`/`r_max`/`r_points` linspace, and `metrics` defaults to both. A
//! rescore references an earlier sweep by id and changes only economics,
//! and a cancel withdraws an in-flight request by id:
//!
//! ```json
//! {"v":1,"id":"s2","rescore":{"of":"s1","error_cost":1e30}}
//! {"v":1,"id":"c1","cancel":"s2"}
//! ```
//!
//! The parametric verbs ride the same versioned envelope. A `calibrate`
//! recovers the collision cost `E*` that makes a target `(n, r)` optimal;
//! a `frontier` sweeps a 2-D parameter grid and returns the Pareto
//! frontier of `(cost, error)`. Both either reference a completed sweep
//! by id (`"of"`, reusing its scenario and grid — and its warm statistic)
//! or carry inline `scenario`/`grid` like a sweep:
//!
//! ```json
//! {"v":1,"id":"k1","calibrate":{"of":"s1","n":4,"r":2.0}}
//! {"v":1,"id":"f1","frontier":{"of":"s1",
//!   "x":{"axis":"error_cost","values":[1e20,1e30]},
//!   "y":{"axis":"probe_cost","values":[0.5,2.0]}}}
//! ```
//!
//! Responses carry the cells in `r`-major order plus per-request counters
//! (`{"v":1,"id":"s1","cells":[{"n":1,"r":0.1,"mean_cost":…,"error_probability":…},…],
//! "stats":{"wall_ns":…,"cache_hits":…,"cache_misses":…,"cells":…,"workers":…}}`);
//! failures come back as `{"v":1,"id":…,"error":"…"}` without ending the
//! session. Every float in a response is its shortest round-trip decimal,
//! so it parses back to the identical bits. JSON cannot spell infinity
//! or NaN, so a value that is not finite is written as `null` (a
//! `probe_cost` near `f64::MAX` overflows the mean cost of two probes,
//! for one).
//! Reply-time kinds on the wire: `deterministic` (mass, delay),
//! `exponential` (loss *or* mass, rate, delay), `uniform` (mass, lo, hi),
//! `weibull` (mass, shape, scale, delay) and `mixture` (components of
//! `{"weight":…,"dist":{…}}`). The library API accepts any
//! [`ReplyTimeDistribution`]; the wire is limited to these constructors.
//! The wire also bounds what one line may cost: a grid over
//! [`MAX_GRID_N_MAX`], [`MAX_GRID_R_POINTS`] or [`MAX_GRID_CELLS`], a
//! frontier over [`MAX_FRONTIER_POINTS`], or a reply time over
//! [`MAX_MIXTURE_COMPONENTS`], is refused with an error line when it is
//! decoded, before anything sized by it is allocated. A line nested
//! deeper than [`MAX_JSON_DEPTH`], or a request line of more than
//! [`MAX_REQUEST_VALUES`] values, is refused while it is parsed.
//!
//! [`PipelinedSession`] speaks the protocol: a thin codec over
//! [`Pipeline`](crate::Pipeline), keeping several requests in flight and
//! emitting responses in **completion order** (out of order with respect
//! to the input when a short sweep overtakes a long one). Rescores of a
//! still-in-flight base are held back and dispatched the moment the base
//! completes. A session keeps completed sweeps as bases within
//! [`MAX_RETAINED_BASE_BYTES`], evicting the least recently referenced
//! one past it. A depth-1 session with `submit_line` + `drain` per line is
//! the blocking form: one line in, one line out, in order.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write;
use std::hash::BuildHasher;
use std::sync::Arc;

use zeroconf_cost::Scenario;
use zeroconf_dist::{
    DefectiveDeterministic, DefectiveExponential, DefectiveUniform, DefectiveWeibull, Mixture,
    ReplyTimeDistribution,
};

use crate::pipeline::{
    Completion, ExecutorTeam, Pipeline, PipelineConfig, PipelineStats, RequestId,
};
use crate::request::{check_cap, BatchStats, Extent, RETAINED_BASE_OVERHEAD};
pub use crate::request::{
    MAX_FRONTIER_POINTS, MAX_GRID_CELLS, MAX_GRID_N_MAX, MAX_GRID_R_POINTS, MAX_JSON_DEPTH,
    MAX_MIXTURE_COMPONENTS, MAX_REQUEST_VALUES, MAX_RETAINED_BASE_BYTES,
};
use crate::{
    AxisSpec, CalibrateRequest, CalibrateResponse, Engine, EngineError, EngineStats,
    FrontierRequest, FrontierResponse, GridSpec, Landscape, Metric, ParamAxis, RescoreDelta,
    SweepRequest, SweepResponse, WorkRequest, WorkResponse,
};

mod float;

pub use float::push_f64;
use float::{push_u64, F64_TEXT_MAX};

/// The wire-protocol version this build speaks. Requests without a `"v"`
/// field are treated as this version; any other value is rejected with a
/// structured error line.
pub const WIRE_VERSION: u64 = 1;

/// The wire verb (request key) of a calibration.
pub const VERB_CALIBRATE: &str = "calibrate";

/// The wire verb (request key) of a parameter-grid frontier.
pub const VERB_FRONTIER: &str = "frontier";

/// A wire-protocol failure: parse errors and semantic errors, rendered
/// into the `error` response field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

fn err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON value model, parser and writer (the workspace builds fully
// offline, so no serde).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`WireError`] describing the first syntax problem, or the
/// first array or object nested deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(input: &str) -> Result<Json, WireError> {
    parse_document(input, &mut None)
}

/// Parses one request line as [`parse_json`] does, but stops at the first
/// value past [`MAX_REQUEST_VALUES`]: a line that no decoder cap would
/// let through is refused before its tree outgrows that of the largest
/// line they do let through. Every request front end parses with it:
/// [`parse_request_line`], [`PipelinedSession::submit_line`] and
/// `zeroconf serve`.
///
/// # Errors
///
/// The [`parse_json`] conditions, and a line of more than
/// [`MAX_REQUEST_VALUES`] values.
pub fn parse_request_json(line: &str) -> Result<Json, WireError> {
    parse_document(line, &mut Some(0))
}

/// Parses one document. `values` is `Some(values built so far)` when the
/// parse counts them against [`MAX_REQUEST_VALUES`], `None` when it does
/// not.
fn parse_document(input: &str, values: &mut Option<usize>) -> Result<Json, WireError> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0, values)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(err(format!("trailing input at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which `depth` arrays and objects enclose,
/// counting it in `values` (see [`parse_document`]).
fn parse_value(
    text: &str,
    pos: &mut usize,
    depth: usize,
    values: &mut Option<usize>,
) -> Result<Json, WireError> {
    if let Some(count) = values {
        *count += 1;
        check_cap(Extent::RequestValues(*count)).map_err(err)?;
    }
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input")),
        Some(b'{') => parse_object(text, pos, depth + 1, values, &mut claim_nothing),
        Some(b'[') => parse_array(text, pos, depth + 1, values),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(text, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, WireError> {
    if eat(bytes, pos, word) {
        Ok(value)
    } else {
        Err(err(format!("expected `{word}` at byte {pos}", pos = *pos)))
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, WireError> {
    number(text, pos).map(Json::Num)
}

/// Consumes the run of number characters at `pos` and parses it.
fn number(text: &str, pos: &mut usize) -> Result<f64, WireError> {
    let start = *pos;
    let token = number_token(text, pos);
    token
        .parse::<f64>()
        .map_err(|_| err(format!("invalid number `{token}` at byte {start}")))
}

/// Consumes the run of number characters at `pos`.
fn number_token<'a>(text: &'a str, pos: &mut usize) -> &'a str {
    let bytes = text.as_bytes();
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    // Number bytes are ASCII, so the token ends on a char boundary.
    text.get(start..*pos).unwrap_or_default()
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, WireError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Take the run of plain characters up to the next quote or
        // backslash in one step. Both delimiters are ASCII, so the run
        // is a `str` slice: no per-character work, no UTF-8 recheck.
        let start = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        let run = text.get(start..*pos).unwrap_or_default();
        match bytes.get(*pos) {
            None => return Err(err("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                out.push_str(run);
                return Ok(out);
            }
            Some(_) => {
                out.push_str(run);
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if *pos + 5 > bytes.len() {
                            return Err(err("truncated \\u escape"));
                        }
                        let hex = text
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u escape"))?;
                        out.push(char::from_u32(code).ok_or_else(|| err("bad \\u code point"))?);
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape sequence")),
                }
                *pos += 1;
            }
        }
    }
}

/// Parses the array at `pos`, which is nested `depth` levels deep.
fn parse_array(
    text: &str,
    pos: &mut usize,
    depth: usize,
    values: &mut Option<usize>,
) -> Result<Json, WireError> {
    check_cap(Extent::JsonDepth(depth)).map_err(err)?;
    let bytes = text.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth, values)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected `,` or `]` in array")),
        }
    }
}

/// The member hook of a plain object parse: it claims no member.
fn claim_nothing(_key: &str, _text: &str, _pos: &mut usize) -> Result<bool, WireError> {
    Ok(false)
}

/// Parses the object at `pos`, which is nested `depth` levels deep.
/// `claim` is shown each member's key with `pos` at its value; when it
/// returns `true` it has consumed the value itself and the member stays
/// out of the tree. Nested objects claim nothing.
fn parse_object<C>(
    text: &str,
    pos: &mut usize,
    depth: usize,
    values: &mut Option<usize>,
    claim: &mut C,
) -> Result<Json, WireError>
where
    C: FnMut(&str, &str, &mut usize) -> Result<bool, WireError>,
{
    check_cap(Extent::JsonDepth(depth)).map_err(err)?;
    let bytes = text.as_bytes();
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected string key in object"));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err("expected `:` after object key"));
        }
        *pos += 1;
        if !claim(&key, text, pos)? {
            let value = parse_value(text, pos, depth, values)?;
            members.push((key, value));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err("expected `,` or `}` in object")),
        }
    }
}

/// Writes `s` as a JSON string literal, quotes included, escaping `"`,
/// `\` and control characters. The one string escaper of the protocol:
/// responses and `zeroconf-client`'s request frames both go through it.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

/// What a parametric verb evaluates against: a completed sweep referenced
/// by id (reusing its scenario, grid and warm statistic) or an inline
/// scenario/grid pair carried by the request itself.
#[derive(Debug, Clone)]
pub enum WorkTarget {
    /// `"of"`: the wire id of an earlier sweep.
    Base(String),
    /// Top-level `scenario` and `grid` fields, as in a sweep line.
    Inline {
        /// The decoded scenario.
        scenario: Scenario,
        /// The decoded grid.
        grid: GridSpec,
    },
}

/// A decoded request line.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// A full sweep.
    Sweep {
        /// Caller-chosen id echoed in the response and referencable by
        /// later rescores.
        id: String,
        /// The decoded sweep.
        request: SweepRequest,
    },
    /// A rescore of an earlier sweep's grid under changed economics.
    Rescore {
        /// Id of this request.
        id: String,
        /// Id of the base sweep.
        of: String,
        /// The economic changes.
        delta: RescoreDelta,
    },
    /// A closed-form `E` calibration for a target configuration.
    Calibrate {
        /// Id of this request.
        id: String,
        /// Scenario/grid source.
        target: WorkTarget,
        /// Target probe count.
        n: u32,
        /// Target listening period (must be an interior grid member).
        r: f64,
    },
    /// A Pareto frontier over a 2-D parameter grid.
    Frontier {
        /// Id of this request.
        id: String,
        /// Scenario/grid source.
        target: WorkTarget,
        /// The first varied parameter.
        x: AxisSpec,
        /// The second varied parameter.
        y: AxisSpec,
    },
    /// Cancellation of an in-flight request.
    Cancel {
        /// Id of this request (echoed in the acknowledgement).
        id: String,
        /// Id of the request to cancel.
        of: String,
    },
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, WireError> {
    obj.get(key)
        .and_then(Json::num)
        .ok_or_else(|| err(format!("missing numeric field `{key}`")))
}

/// A member that may be left out, but is a number when it is given: a
/// `null` (what a client writes for a value that is not finite) or a
/// string is refused, not read as absent.
fn optional_f64(obj: &Json, key: &str) -> Result<Option<f64>, WireError> {
    obj.get(key)
        .map(|value| {
            value
                .num()
                .ok_or_else(|| err(format!("numeric field `{key}` is not a number")))
        })
        .transpose()
}

/// Decodes a scenario's reply time. A mixture over
/// [`MAX_MIXTURE_COMPONENTS`] is refused before any component is built.
fn decode_reply_time(value: &Json) -> Result<Arc<dyn ReplyTimeDistribution>, WireError> {
    check_cap(Extent::MixtureComponents(mixture_components(value))).map_err(err)?;
    build_reply_time(value)
}

/// The components of `value` when it is a mixture, counted at every
/// level of nesting; 0 for any other reply time.
fn mixture_components(value: &Json) -> usize {
    match (value.get("kind"), value.get("components")) {
        (Some(Json::Str(kind)), Some(Json::Arr(items))) if kind == "mixture" => {
            let nested: usize = items
                .iter()
                .filter_map(|item| item.get("dist"))
                .map(mixture_components)
                .sum();
            items.len() + nested
        }
        _ => 0,
    }
}

/// Builds the reply time `value` describes, a mixture's components
/// included.
fn build_reply_time(value: &Json) -> Result<Arc<dyn ReplyTimeDistribution>, WireError> {
    let kind = value
        .get("kind")
        .and_then(Json::str)
        .ok_or_else(|| err("reply_time needs a string `kind`"))?;
    let dist: Arc<dyn ReplyTimeDistribution> = match kind {
        "deterministic" => Arc::new(
            DefectiveDeterministic::new(field_f64(value, "mass")?, field_f64(value, "delay")?)
                .map_err(|e| err(e.to_string()))?,
        ),
        "exponential" => {
            let rate = field_f64(value, "rate")?;
            let delay = field_f64(value, "delay")?;
            let dist = if let Some(loss) = value.get("loss").and_then(Json::num) {
                DefectiveExponential::from_loss(loss, rate, delay)
            } else {
                DefectiveExponential::new(field_f64(value, "mass")?, rate, delay)
            };
            Arc::new(dist.map_err(|e| err(e.to_string()))?)
        }
        "uniform" => Arc::new(
            DefectiveUniform::new(
                field_f64(value, "mass")?,
                field_f64(value, "lo")?,
                field_f64(value, "hi")?,
            )
            .map_err(|e| err(e.to_string()))?,
        ),
        "weibull" => Arc::new(
            DefectiveWeibull::new(
                field_f64(value, "mass")?,
                field_f64(value, "shape")?,
                field_f64(value, "scale")?,
                field_f64(value, "delay")?,
            )
            .map_err(|e| err(e.to_string()))?,
        ),
        "mixture" => {
            let Some(Json::Arr(items)) = value.get("components") else {
                return Err(err("mixture needs a `components` array"));
            };
            let mut components = Vec::with_capacity(items.len());
            for item in items {
                let weight = field_f64(item, "weight")?;
                let dist = item
                    .get("dist")
                    .ok_or_else(|| err("mixture component needs `dist`"))?;
                components.push((weight, build_reply_time(dist)?));
            }
            Arc::new(Mixture::new(components).map_err(|e| err(e.to_string()))?)
        }
        other => return Err(err(format!("unknown reply_time kind `{other}`"))),
    };
    Ok(dist)
}

fn decode_scenario(value: &Json) -> Result<Scenario, WireError> {
    let mut builder = Scenario::builder()
        .probe_cost(field_f64(value, "probe_cost")?)
        .error_cost(field_f64(value, "error_cost")?)
        .reply_time(decode_reply_time(
            value
                .get("reply_time")
                .ok_or_else(|| err("scenario needs `reply_time`"))?,
        )?);
    if let Some(hosts) = value.get("hosts").and_then(Json::num) {
        builder = builder
            .hosts(hosts as u32)
            .map_err(|e| err(e.to_string()))?;
    } else {
        builder = builder.occupancy(field_f64(value, "q")?);
    }
    builder.build().map_err(|e| err(e.to_string()))
}

/// Decodes a grid, rejecting one over the `MAX_GRID_*` limits before
/// anything sized by it is allocated.
fn decode_grid(value: &Json) -> Result<GridSpec, WireError> {
    let n_max = field_f64(value, "n_max")?;
    check_cap(Extent::NMax(n_max)).map_err(err)?;
    let n_max = n_max as u32;
    if let Some(Json::Arr(items)) = value.get("r") {
        check_cap(Extent::RList(items.len())).map_err(err)?;
        check_cap(Extent::Cells(n_max as usize * items.len())).map_err(err)?;
        let r_values = items
            .iter()
            .map(|v| v.num().ok_or_else(|| err("grid `r` must be numeric")))
            .collect::<Result<Vec<f64>, WireError>>()?;
        return Ok(GridSpec { n_max, r_values });
    }
    let lo = field_f64(value, "r_min")?;
    let hi = field_f64(value, "r_max")?;
    let points = field_f64(value, "r_points")?;
    check_cap(Extent::RPoints(points)).map_err(err)?;
    let points = points as usize;
    check_cap(Extent::Cells(n_max as usize * points)).map_err(err)?;
    Ok(GridSpec::linspace(n_max, lo, hi, points))
}

fn decode_metrics(value: Option<&Json>) -> Result<Vec<Metric>, WireError> {
    let Some(value) = value else {
        return Ok(vec![Metric::MeanCost, Metric::ErrorProbability]);
    };
    let Json::Arr(items) = value else {
        return Err(err("`metrics` must be an array"));
    };
    items
        .iter()
        .map(|item| match item.str() {
            Some("mean_cost") => Ok(Metric::MeanCost),
            Some("error_probability") => Ok(Metric::ErrorProbability),
            other => Err(err(format!("unknown metric {other:?}"))),
        })
        .collect()
}

/// Checks the request's protocol version field: absent means
/// [`WIRE_VERSION`]; anything else must match it exactly.
///
/// # Errors
///
/// Returns a [`WireError`] naming the unsupported version.
pub fn check_version(value: &Json) -> Result<(), WireError> {
    match value.get("v") {
        None => Ok(()),
        Some(Json::Num(v)) if *v == WIRE_VERSION as f64 => Ok(()),
        Some(Json::Num(v)) => Err(err(format!(
            "unsupported protocol version {v}; this build speaks v{WIRE_VERSION}"
        ))),
        Some(_) => Err(err("`v` must be a number")),
    }
}

/// Decodes the scenario/grid source of a parametric verb: `"of"` inside
/// the verb object, or top-level `scenario`/`grid` like a sweep.
fn decode_target(value: &Json, verb: &Json, name: &str) -> Result<WorkTarget, WireError> {
    if let Some(of) = verb.get("of") {
        let of = of
            .str()
            .ok_or_else(|| {
                err(format!(
                    "{name} `of` must be the base sweep's id as a string"
                ))
            })?
            .to_owned();
        return Ok(WorkTarget::Base(of));
    }
    let scenario = decode_scenario(
        value
            .get("scenario")
            .ok_or_else(|| err(format!("{name} needs `of` or an inline `scenario`")))?,
    )?;
    let grid = decode_grid(
        value
            .get("grid")
            .ok_or_else(|| err(format!("{name} needs `of` or an inline `grid`")))?,
    )?;
    Ok(WorkTarget::Inline { scenario, grid })
}

/// Decodes one frontier axis: `{"axis":"error_cost","values":[…]}`.
fn decode_axis(verb: &Json, role: &str) -> Result<AxisSpec, WireError> {
    let spec = verb
        .get(role)
        .ok_or_else(|| err(format!("frontier needs `{role}`")))?;
    let name = spec
        .get("axis")
        .and_then(Json::str)
        .ok_or_else(|| err(format!("frontier `{role}` needs a string `axis`")))?;
    let axis = ParamAxis::from_name(name).ok_or_else(|| {
        err(format!(
            "unknown frontier axis `{name}` (expected `q`, `probe_cost` or `error_cost`)"
        ))
    })?;
    let Some(Json::Arr(items)) = spec.get("values") else {
        return Err(err(format!("frontier `{role}` needs a `values` array")));
    };
    let values = items
        .iter()
        .map(|v| {
            v.num()
                .ok_or_else(|| err(format!("frontier `{role}` values must be numeric")))
        })
        .collect::<Result<Vec<f64>, WireError>>()?;
    Ok(AxisSpec::new(axis, values))
}

/// Decodes one parsed request object (version already checked).
///
/// # Errors
///
/// Returns a [`WireError`] for schema problems.
pub fn decode_request(value: &Json) -> Result<WireRequest, WireError> {
    let id = value
        .get("id")
        .and_then(Json::str)
        .ok_or_else(|| err("request needs a string `id`"))?
        .to_owned();
    if let Some(cancel) = value.get("cancel") {
        let of = cancel
            .str()
            .ok_or_else(|| err("cancel needs the target request's id as a string"))?
            .to_owned();
        return Ok(WireRequest::Cancel { id, of });
    }
    if let Some(rescore) = value.get("rescore") {
        let of = rescore
            .get("of")
            .and_then(Json::str)
            .ok_or_else(|| err("rescore needs the base sweep's id in `of`"))?
            .to_owned();
        let delta = RescoreDelta {
            occupancy: optional_f64(rescore, "q")?,
            probe_cost: optional_f64(rescore, "probe_cost")?,
            error_cost: optional_f64(rescore, "error_cost")?,
        };
        return Ok(WireRequest::Rescore { id, of, delta });
    }
    if let Some(calibrate) = value.get(VERB_CALIBRATE) {
        let target = decode_target(value, calibrate, VERB_CALIBRATE)?;
        let n = field_f64(calibrate, "n")? as u32;
        let r = field_f64(calibrate, "r")?;
        return Ok(WireRequest::Calibrate { id, target, n, r });
    }
    if let Some(frontier) = value.get(VERB_FRONTIER) {
        let target = decode_target(value, frontier, VERB_FRONTIER)?;
        let x = decode_axis(frontier, "x")?;
        let y = decode_axis(frontier, "y")?;
        let points = x.values.len().saturating_mul(y.values.len());
        check_cap(Extent::FrontierPoints(points)).map_err(err)?;
        return Ok(WireRequest::Frontier { id, target, x, y });
    }
    if value.get("scenario").is_none() {
        // Not a known verb and not a sweep: name the stray key so clients
        // speaking a newer (or wrong) verb set get a pointed diagnostic
        // instead of a misleading "needs `scenario`".
        if let Json::Obj(members) = value {
            const KNOWN_KEYS: [&str; 9] = [
                "v",
                "id",
                "cancel",
                "rescore",
                VERB_CALIBRATE,
                VERB_FRONTIER,
                "scenario",
                "grid",
                "metrics",
            ];
            if let Some((key, _)) = members
                .iter()
                .find(|(key, _)| !KNOWN_KEYS.contains(&key.as_str()))
            {
                return Err(err(format!("unknown request verb `{key}`")));
            }
        }
    }
    let scenario = decode_scenario(
        value
            .get("scenario")
            .ok_or_else(|| err("request needs `scenario`"))?,
    )?;
    let grid = decode_grid(
        value
            .get("grid")
            .ok_or_else(|| err("request needs `grid`"))?,
    )?;
    let metrics = decode_metrics(value.get("metrics"))?;
    Ok(WireRequest::Sweep {
        id,
        request: SweepRequest {
            scenario,
            grid,
            metrics,
        },
    })
}

/// Decodes one request line: parse, version check, schema decode.
///
/// # Errors
///
/// Returns a [`WireError`] for syntax, version or schema problems.
pub fn parse_request_line(line: &str) -> Result<WireRequest, WireError> {
    let value = parse_request_json(line)?;
    check_version(&value)?;
    decode_request(&value)
}

/// The id a request line's answer echoes: its `id` member when that is a
/// string, else empty.
#[must_use]
pub fn line_id(value: &Json) -> &str {
    value.get("id").and_then(Json::str).unwrap_or_default()
}

/// Decodes one parsed request line (version check, then schema decode).
/// The decode every front end shares: [`PipelinedSession::submit_line`]
/// runs it, and so does `zeroconf serve` after answering its own `stats`
/// lines.
///
/// # Errors
///
/// Returns the line's error answer: without an id when the line did not
/// parse, else echoing [`line_id`].
pub fn decode_line(parsed: Result<Json, WireError>) -> Result<WireRequest, String> {
    let value = parsed.map_err(|e| error_line("", &e.into()))?;
    check_version(&value)
        .and_then(|()| decode_request(&value))
        .map_err(|e| error_line(line_id(&value), &e.into()))
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

/// Writes the per-request `"stats"` member shared by every verb's
/// response line.
fn push_stats(out: &mut String, s: &BatchStats) {
    let _ = write!(
        out,
        "\"stats\":{{\"wall_ns\":{},\"cache_hits\":{},\"cache_misses\":{},\"cells\":{},\"workers\":{}}}",
        s.wall_nanos, s.cache_hits, s.cache_misses, s.cells, s.workers
    );
}

/// The keys of one landscape cell, shared by the writer and its size
/// bound.
const CELL_N: &str = "{\"n\":";
const CELL_R: &str = ",\"r\":";
const CELL_COST: &str = ",\"mean_cost\":";
const CELL_ERROR: &str = ",\"error_probability\":";

/// Writes the body of a sweep's `cells` array: one object per cell, in
/// the landscape's `r`-major order. Each column shares one `r`, so its
/// text is formatted once and copied into the column's `n_max` cells.
/// Every number goes through the `float` module's digit writers, so no
/// cell reaches `core::fmt`.
fn push_cells(out: &mut String, landscape: &Landscape) {
    let n_max = landscape.n_max() as usize;
    let costs = landscape.costs();
    let errors = landscape.errors();
    let mut r_text = String::with_capacity(F64_TEXT_MAX);
    for (column, &r) in landscape.r_values().iter().enumerate() {
        r_text.clear();
        push_f64(&mut r_text, r);
        for row in 0..n_max {
            let index = column * n_max + row;
            if index > 0 {
                out.push(',');
            }
            out.push_str(CELL_N);
            push_u64(out, row as u64 + 1);
            out.push_str(CELL_R);
            out.push_str(&r_text);
            if let Some(costs) = costs {
                out.push_str(CELL_COST);
                push_f64(out, costs[index]);
            }
            if let Some(errors) = errors {
                out.push_str(CELL_ERROR);
                push_f64(out, errors[index]);
            }
            out.push('}');
        }
    }
}

/// Decodes a `cells` array as [`push_cells`] writes it straight into a
/// [`Landscape`], with no `Json` value per cell: its inverse, for clients.
/// [`parse_response_line`] states what it accepts.
fn decode_cells(text: &str, pos: &mut usize) -> Result<Landscape, WireError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if !eat(bytes, pos, "[") {
        return Err(err(format!("`cells` at byte {} is not an array", *pos)));
    }
    let mut r_values = Vec::new();
    let (mut costs, mut errors) = (Vec::new(), Vec::new());
    // The first column's length once it has ended, this column's length
    // so far, and this column's `r` text.
    let (mut n_max, mut rows, mut r_text) = (0u32, 0u32, "");
    loop {
        let at = *pos;
        if !eat(bytes, pos, CELL_N) {
            return Err(err(format!("expected a cell at byte {at}")));
        }
        let token = number_token(text, pos);
        let n = token.parse::<u32>().ok();
        if n == Some(1) && rows > 0 {
            end_column(&mut n_max, rows, at)?;
            rows = 0;
        }
        rows += 1;
        if n != Some(rows) {
            return Err(err(format!(
                "cell at byte {at} has n = {token} where its column needs {rows}"
            )));
        }
        if !eat(bytes, pos, CELL_R) {
            return Err(err(format!("cell at byte {at} has no `r` after `n`")));
        }
        if rows == 1 {
            let start = *pos;
            r_values.push(cell_value(text, pos)?);
            r_text = text.get(start..*pos).unwrap_or_default();
        } else if value_token(text, pos) != r_text {
            return Err(err(format!(
                "cell at byte {at} has an `r` other than its column's {r_text}"
            )));
        }
        if eat(bytes, pos, CELL_COST) {
            costs.push(cell_value(text, pos)?);
        }
        if eat(bytes, pos, CELL_ERROR) {
            errors.push(cell_value(text, pos)?);
        }
        if !eat(bytes, pos, "}") {
            return Err(err(format!(
                "cell at byte {at} has a member other than n, r, mean_cost, error_probability"
            )));
        }
        if eat(bytes, pos, "]") {
            break;
        }
        if !eat(bytes, pos, ",") {
            return Err(err(format!(
                "expected `,` or `]` after the cell at byte {at}"
            )));
        }
    }
    end_column(&mut n_max, rows, *pos)?;
    if costs.is_empty() && errors.is_empty() {
        return Err(err("cells carry neither mean_cost nor error_probability"));
    }
    // A slab that is neither empty nor as long as the grid is a metric
    // some cells lack, and `Landscape::new` refuses it.
    let slab = |values: Vec<f64>| (!values.is_empty()).then_some(values);
    Landscape::new(n_max, r_values, slab(costs), slab(errors))
        .map_err(|_| err("a metric is missing from some cells"))
}

/// Ends a column of `rows` cells: the first column sets `n_max`, and every
/// later one must match it.
fn end_column(n_max: &mut u32, rows: u32, at: usize) -> Result<(), WireError> {
    if *n_max == 0 {
        *n_max = rows;
    }
    if rows != *n_max {
        return Err(err(format!(
            "the column ending at byte {at} has {rows} cells where the first has {n_max}",
            n_max = *n_max
        )));
    }
    Ok(())
}

/// One cell value: a number, or `null`, which [`push_f64`] writes for a
/// value that is not finite, read back as NaN. A number is any JSON
/// number, not only the `{:?}` bytes [`push_f64`] writes, and parses to
/// the float it names, so a written cell reads back to its own bits.
fn cell_value(text: &str, pos: &mut usize) -> Result<f64, WireError> {
    if eat(text.as_bytes(), pos, "null") {
        return Ok(f64::NAN);
    }
    number(text, pos)
}

/// Consumes one cell value's text, unparsed: `null` or a run of number
/// characters.
fn value_token<'a>(text: &'a str, pos: &mut usize) -> &'a str {
    if eat(text.as_bytes(), pos, "null") {
        "null"
    } else {
        number_token(text, pos)
    }
}

/// Consumes `expected` if the input holds it at `pos`.
fn eat(bytes: &[u8], pos: &mut usize, expected: &str) -> bool {
    let found = bytes
        .get(*pos..)
        .is_some_and(|rest| rest.starts_with(expected.as_bytes()));
    if found {
        *pos += expected.len();
    }
    found
}

/// Parses one response line in the single pass [`parse_json`] makes, but
/// decodes a top-level `cells` member straight into a [`Landscape`]
/// instead of a `Json` array, with no `Json` value per cell. Every other
/// member lands in the returned object as [`parse_json`] would build it,
/// so the object never holds `cells`.
///
/// The cells are read in the layout [`WireResponse::to_line`] writes and
/// no other: `{"n":…,"r":…}` followed by `mean_cost` and then
/// `error_probability`, with no whitespace. A column starts where `n`
/// returns to 1, every `n` must equal its row in the column, and every
/// column must be as long as the first. A column's `r` is parsed at its
/// first cell; the other cells' `r` texts must be the same bytes. A
/// metric must be in every cell or in none, and `null` reads back as NaN.
///
/// # Errors
///
/// A [`WireError`] for every line [`parse_json`] refuses, for a line that
/// is not an object, for a second `cells` member, and for `cells` that are
/// not a landscape as [`WireResponse::to_line`] writes one.
pub fn parse_response_line(line: &str) -> Result<(Json, Option<Landscape>), WireError> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err(err("a response line must be a JSON object"));
    }
    let mut landscape = None;
    let head = parse_object(
        line,
        &mut pos,
        1,
        &mut None,
        &mut |key: &str, text: &str, pos: &mut usize| {
            if key != "cells" {
                return Ok(false);
            }
            if landscape.is_some() {
                return Err(err("a response line has one `cells` member"));
            }
            landscape = Some(decode_cells(text, pos)?);
            Ok(true)
        },
    )?;
    skip_ws(bytes, &mut pos);
    if pos != line.len() {
        return Err(err(format!("trailing input at byte {pos}")));
    }
    Ok((head, landscape))
}

/// An upper bound on [`push_cells`]' text per cell of `landscape`.
fn cell_text_max(landscape: &Landscape) -> usize {
    let mut max = CELL_N.len() + 10 + CELL_R.len() + F64_TEXT_MAX + "},".len();
    if landscape.costs().is_some() {
        max += CELL_COST.len() + F64_TEXT_MAX;
    }
    if landscape.errors().is_some() {
        max += CELL_ERROR.len() + F64_TEXT_MAX;
    }
    max
}

/// A typed response line: every line the protocol can emit, in one closed
/// set, serialized by exactly one function ([`WireResponse::to_line`]).
///
/// Sessions and servers construct values of this type and stringify them
/// at the output boundary, so the wire format cannot drift between call
/// sites. The one other response writer is `zeroconf serve`'s answer to
/// its serve-level `stats` verb, which carries server counters this
/// crate does not know; it writes its id through [`push_json_str`].
#[derive(Debug, Clone)]
pub enum WireResponse {
    /// A completed sweep: `{"v":…,"id":…,"cells":[…],"stats":{…}}`.
    Sweep {
        /// The caller's request id, echoed.
        id: String,
        /// The evaluated landscape and counters.
        response: SweepResponse,
    },
    /// A completed calibration:
    /// `{"v":…,"id":…,"calibrate":{…},"stats":{…}}`.
    Calibrate {
        /// The caller's request id, echoed.
        id: String,
        /// The recovered `E*` and the target's cost/risk under it.
        response: CalibrateResponse,
    },
    /// A completed frontier:
    /// `{"v":…,"id":…,"frontier":{"candidates":…,"points":[…]},"stats":{…}}`.
    Frontier {
        /// The caller's request id, echoed.
        id: String,
        /// The Pareto points and counters.
        response: FrontierResponse,
    },
    /// Acknowledgement of a `cancel` request:
    /// `{"v":…,"id":…,"cancelled":…}`.
    Cancelled {
        /// The cancel request's own id.
        id: String,
        /// The id of the request it withdrew.
        of: String,
    },
    /// Any failure — parse, validation, evaluation, cancellation:
    /// `{"v":…,"id":…,"error":…}`.
    Error {
        /// The failing request's id (empty when the line had none).
        id: String,
        /// The stringified failure.
        message: String,
    },
    /// A session stats snapshot: `{"v":…,"stats":{…}}`.
    Stats {
        /// The engine's cumulative counters.
        engine: EngineStats,
        /// The pipeline's cumulative counters.
        pipeline: PipelineStats,
        /// The pipeline's configured depth bound.
        depth: usize,
    },
}

impl WireResponse {
    /// An [`WireResponse::Error`] from the unified [`EngineError`], so
    /// every failure path stringifies exactly once, here.
    #[must_use]
    pub fn error(id: &str, error: &EngineError) -> WireResponse {
        WireResponse::Error {
            id: id.to_owned(),
            message: error.to_string(),
        }
    }

    /// Wraps one pipeline outcome — success of any verb, or failure —
    /// into the matching response.
    #[must_use]
    pub fn from_result(id: &str, result: Result<WorkResponse, EngineError>) -> WireResponse {
        match result {
            Ok(WorkResponse::Sweep(response)) => WireResponse::Sweep {
                id: id.to_owned(),
                response,
            },
            Ok(WorkResponse::Calibrate(response)) => WireResponse::Calibrate {
                id: id.to_owned(),
                response,
            },
            Ok(WorkResponse::Frontier(response)) => WireResponse::Frontier {
                id: id.to_owned(),
                response,
            },
            Err(e) => WireResponse::error(id, &e),
        }
    }

    /// Serializes this response as one JSON line (no trailing newline).
    /// The single writer of the response wire format.
    ///
    /// One pass writes every field straight into one `String`. A sweep's
    /// line is sized up front to an upper bound of the line plus the
    /// newline a transport appends, so it never regrows and can become a
    /// socket write chunk as it is. Floats are written by [`push_f64`]:
    /// Ryū's shortest round-trip digits in the bytes of `{:?}`, and
    /// infinities and NaN as `null`. A sweep's cells, the bulk of any
    /// large line, are written with no `core::fmt` call.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(self.line_capacity());
        if let WireResponse::Stats { .. } = self {
            let _ = write!(out, "{{\"v\":{WIRE_VERSION}");
        } else {
            let _ = write!(out, "{{\"v\":{WIRE_VERSION},\"id\":");
        }
        match self {
            WireResponse::Sweep { id, response } => {
                push_json_str(&mut out, id);
                out.push_str(",\"cells\":[");
                push_cells(&mut out, &response.landscape);
                out.push_str("],");
                push_stats(&mut out, &response.stats);
            }
            WireResponse::Calibrate { id, response } => {
                push_json_str(&mut out, id);
                let _ = write!(out, ",\"{VERB_CALIBRATE}\":{{\"error_cost\":");
                push_f64(&mut out, response.error_cost);
                let _ = write!(out, ",\"n\":{},\"r\":", response.n);
                push_f64(&mut out, response.r);
                out.push_str(",\"mean_cost\":");
                push_f64(&mut out, response.cost);
                out.push_str(",\"error_probability\":");
                push_f64(&mut out, response.error_probability);
                out.push_str("},");
                push_stats(&mut out, &response.stats);
            }
            WireResponse::Frontier { id, response } => {
                push_json_str(&mut out, id);
                let _ = write!(
                    out,
                    ",\"{VERB_FRONTIER}\":{{\"candidates\":{},\"points\":[",
                    response.candidates
                );
                for (i, p) in response.points.iter().enumerate() {
                    out.push_str(if i > 0 { ",{\"x\":" } else { "{\"x\":" });
                    push_f64(&mut out, p.x);
                    out.push_str(",\"y\":");
                    push_f64(&mut out, p.y);
                    let _ = write!(out, ",\"n\":{},\"r\":", p.n);
                    push_f64(&mut out, p.r);
                    out.push_str(",\"mean_cost\":");
                    push_f64(&mut out, p.cost);
                    out.push_str(",\"error_probability\":");
                    push_f64(&mut out, p.error_probability);
                    out.push('}');
                }
                out.push_str("]},");
                push_stats(&mut out, &response.stats);
            }
            WireResponse::Cancelled { id, of } => {
                push_json_str(&mut out, id);
                out.push_str(",\"cancelled\":");
                push_json_str(&mut out, of);
            }
            WireResponse::Error { id, message } => {
                push_json_str(&mut out, id);
                out.push_str(",\"error\":");
                push_json_str(&mut out, message);
            }
            WireResponse::Stats {
                engine: s,
                pipeline: p,
                depth,
            } => {
                let _ = write!(
                    out,
                    ",\"stats\":{{\"requests\":{},\"cells\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_len\":{},\"cache_evictions\":{},\"cells_per_worker\":[",
                    s.requests,
                    s.cells,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_len,
                    s.cache_evictions
                );
                for (i, cells) in s.cells_per_worker.iter().enumerate() {
                    let _ = if i > 0 {
                        write!(out, ",{cells}")
                    } else {
                        write!(out, "{cells}")
                    };
                }
                let _ = write!(
                    out,
                    "],\"wall_ns\":{},\"kernel_backend\":\"{}\",\"dist_backend\":\"{}\",\
                     \"pipeline\":{{\"depth\":{},\"submitted\":{},\"completed\":{},\"cancelled\":{},\"failed\":{},\
                     \"queue_ns_total\":{},\"queue_ns_max\":{},\"service_ns_total\":{},\"service_ns_max\":{}}}}}",
                    s.wall_nanos,
                    s.kernel_backend,
                    s.dist_backend,
                    depth,
                    p.submitted,
                    p.completed,
                    p.cancelled,
                    p.failed,
                    p.queue_nanos_total,
                    p.queue_nanos_max,
                    p.service_nanos_total,
                    p.service_nanos_max,
                );
            }
        }
        out.push('}');
        out
    }

    /// The capacity [`WireResponse::to_line`] starts from. Only a sweep's
    /// line is large enough for a regrow to cost anything, so only it is
    /// sized from its contents: an upper bound per cell, plus the id
    /// (escaping grows it at most sixfold, `\u001f`) and [`SHORT_LINE`]
    /// for the rest. Every other line starts at [`SHORT_LINE`].
    fn line_capacity(&self) -> usize {
        match self {
            WireResponse::Sweep { id, response } => {
                let landscape = &response.landscape;
                landscape.len() * cell_text_max(landscape) + 6 * id.len() + SHORT_LINE
            }
            _ => SHORT_LINE,
        }
    }
}

/// Room for a sweep line's head, stats member and newline (under 240
/// bytes with the widest counters), and the starting capacity of every
/// other response line.
const SHORT_LINE: usize = 256;

/// Shorthand for an [`WireResponse::Error`] line.
fn error_line(id: &str, error: &EngineError) -> String {
    WireResponse::error(id, error).to_line()
}

fn invalid(what: impl Into<String>) -> EngineError {
    EngineError::InvalidRequest { what: what.into() }
}

// ---------------------------------------------------------------------------
// Sessions: JSON-lines codecs over the pipeline
// ---------------------------------------------------------------------------

/// Work held back because its base sweep is still in flight: everything
/// needed to build the real [`WorkRequest`] once the base's scenario and
/// grid become available.
enum PendingWork {
    /// A rescore's economic delta.
    Rescore(RescoreDelta),
    /// A calibration's target configuration.
    Calibrate {
        /// Target probe count.
        n: u32,
        /// Target listening period.
        r: f64,
    },
    /// A frontier's parameter axes.
    Frontier {
        /// The first varied parameter.
        x: AxisSpec,
        /// The second varied parameter.
        y: AxisSpec,
    },
}

impl PendingWork {
    /// Builds the concrete request against the completed base sweep.
    fn into_request(self, base: &SweepRequest) -> Result<WorkRequest, EngineError> {
        match self {
            PendingWork::Rescore(delta) => {
                let scenario = delta.apply(&base.scenario)?;
                Ok(WorkRequest::Sweep(SweepRequest {
                    scenario,
                    grid: base.grid.clone(),
                    metrics: base.metrics.clone(),
                }))
            }
            PendingWork::Calibrate { n, r } => Ok(WorkRequest::Calibrate(CalibrateRequest {
                scenario: base.scenario.clone(),
                grid: base.grid.clone(),
                target_n: n,
                target_r: r,
            })),
            PendingWork::Frontier { x, y } => Ok(WorkRequest::Frontier(FrontierRequest {
                scenario: base.scenario.clone(),
                grid: base.grid.clone(),
                x,
                y,
            })),
        }
    }
}

/// Evicted ids a session remembers, as 8-byte hashes, so that a line
/// naming one is told its base was evicted rather than never sent.
const EVICTED_IDS_KEPT: usize = 4096;

/// The completed sweeps a session keeps as bases, within
/// [`MAX_RETAINED_BASE_BYTES`]: past the budget the least recently
/// referenced base is evicted.
#[derive(Default)]
struct Bases {
    by_id: HashMap<String, Base>,
    /// The last reference tick handed out.
    ticks: u64,
    /// Bytes charged for the bases in `by_id`.
    bytes: usize,
    evictions: u64,
    /// Hashes of the last [`EVICTED_IDS_KEPT`] evicted ids, oldest first.
    evicted: VecDeque<u64>,
    hasher: RandomState,
}

/// One retained base, its last-reference tick and its charge.
struct Base {
    sweep: SweepRequest,
    tick: u64,
    bytes: usize,
}

impl Bases {
    /// Retains `sweep` under `id` (replacing any base with that id), then
    /// evicts least recently referenced bases until the budget holds. A
    /// base over the budget on its own is evicted on arrival, and no other
    /// base makes room for it.
    fn insert(&mut self, id: String, sweep: SweepRequest) {
        if let Some(old) = self.by_id.remove(&id) {
            self.bytes -= old.bytes;
        }
        let bytes = RETAINED_BASE_OVERHEAD
            + id.len()
            + 8 * sweep.grid.r_values.len()
            + sweep.scenario.reply_time().retained_bytes();
        if bytes > MAX_RETAINED_BASE_BYTES {
            self.evict(&id);
            return;
        }
        self.ticks += 1;
        self.by_id.insert(
            id,
            Base {
                sweep,
                tick: self.ticks,
                bytes,
            },
        );
        self.bytes += bytes;
        while self.bytes > MAX_RETAINED_BASE_BYTES {
            // A linear scan: the per-base overhead keeps the map to about
            // a thousand bases.
            let Some(oldest) = self
                .by_id
                .iter()
                .min_by_key(|(_, base)| base.tick)
                .map(|(id, _)| id.clone())
            else {
                break;
            };
            self.evict(&oldest);
        }
    }

    /// Drops the base retained under `id`, if any, and remembers `id` as
    /// evicted.
    fn evict(&mut self, id: &str) {
        if let Some(base) = self.by_id.remove(id) {
            self.bytes -= base.bytes;
        }
        self.evictions += 1;
        if self.evicted.len() == EVICTED_IDS_KEPT {
            self.evicted.pop_front();
        }
        self.evicted.push_back(self.hasher.hash_one(id));
    }

    /// The base retained under `id`, marked as just referenced.
    fn get(&mut self, id: &str) -> Option<&SweepRequest> {
        let base = self.by_id.get_mut(id)?;
        self.ticks += 1;
        base.tick = self.ticks;
        Some(&base.sweep)
    }

    /// Whether `id` names one of the last [`EVICTED_IDS_KEPT`] evictions.
    fn was_evicted(&self, id: &str) -> bool {
        self.evicted.contains(&self.hasher.hash_one(id))
    }
}

/// A pipelined JSON-lines session: a thin codec over
/// [`Pipeline`](crate::Pipeline).
///
/// [`PipelinedSession::submit_line`] decodes one input line and enqueues
/// it, and [`PipelinedSession::submit_request`] enqueues a request that
/// is already decoded (both block only when the pipeline's depth bound
/// is reached — backpressure); [`PipelinedSession::poll_responses`]
/// encodes whatever has completed so far; [`PipelinedSession::drain`] blocks until every
/// in-flight request is answered. Responses therefore come back in
/// **completion order**, keyed by the caller's `id` field, not in input
/// order.
///
/// Rescore, calibrate and frontier lines whose base sweep is still in
/// flight are *held back* and submitted automatically the moment the base
/// completes, so a pipelined client may stream `sweep s1` / `rescore s2
/// of s1` / `calibrate k1 of s1` back-to-back without waiting. Every
/// non-empty input line produces exactly one output line, pipelined or
/// not.
pub struct PipelinedSession {
    pipeline: Pipeline,
    /// Completed sweeps by wire id, referencable by later rescores,
    /// calibrations and frontiers.
    bases: Bases,
    /// The wire ids of requests inside the pipeline, keyed by pipeline
    /// id. A `cancel` line finds its targets here by wire id: the
    /// pipeline's depth bounds the scan. The requests themselves come
    /// back with their completions.
    in_flight: HashMap<RequestId, String>,
    /// Dependent work waiting for its base to complete: base wire id →
    /// list of (dependent wire id, pending work).
    waiting: HashMap<String, Vec<(String, PendingWork)>>,
    /// Wire ids submitted or waiting whose response has not been emitted,
    /// which routes a dependent: held back while its base's id is here. A
    /// set of ids, not a count — [`PipelinedSession::pending`] counts
    /// requests, and a client may reuse an id.
    pending_ids: HashSet<String>,
}

impl PipelinedSession {
    /// Starts a pipelined session around an engine owned by this session
    /// alone, with a private team of up to `config.depth` executor
    /// threads.
    /// Multi-session fronts (one session per client connection of
    /// `zeroconf serve`) share one team via
    /// [`PipelinedSession::with_team`] instead.
    #[must_use]
    pub fn new(engine: Engine, config: PipelineConfig) -> PipelinedSession {
        let team = ExecutorTeam::new(Arc::new(engine), config.depth);
        PipelinedSession::with_team(Arc::new(team), config)
    }

    /// Starts a pipelined session on a *shared* executor team. The
    /// session keeps only its bookkeeping (ids, bases, held-back
    /// dependents, cancel tokens); the team's threads and its engine —
    /// worker pool, π-table cache, lifetime counters — are common to
    /// every session on the team, so a sweep completed through one
    /// session warms the cache for all.
    #[must_use]
    pub fn with_team(team: Arc<ExecutorTeam>, config: PipelineConfig) -> PipelinedSession {
        PipelinedSession {
            pipeline: Pipeline::with_team(team, config),
            bases: Bases::default(),
            in_flight: HashMap::new(),
            waiting: HashMap::new(),
            pending_ids: HashSet::new(),
        }
    }

    /// Registers a [`CompletionNotifier`](crate::CompletionNotifier) on
    /// the session's pipeline: an executor thread invokes it each time a
    /// completion becomes pollable, so a readiness-driven front-end
    /// (the `zeroconf serve` reactor) can sleep in `epoll_wait` and be
    /// woken instead of polling [`PipelinedSession::poll_responses`] on
    /// a timer.
    pub fn set_completion_notifier(&self, notifier: crate::CompletionNotifier) {
        self.pipeline.set_completion_notifier(notifier);
    }

    /// Unanswered requests: submitted or held back, response not yet
    /// emitted. Each request counts once, also when it reuses the id of
    /// another one still unanswered. Connection handlers use this to
    /// bound per-connection admission and to decide when a drain is
    /// complete.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.in_flight.len() + self.waiting.values().map(Vec::len).sum::<usize>()
    }

    /// Withdraws every unanswered request in the session: in-flight
    /// pipeline requests are flagged for cancellation (their
    /// [`EngineError::Cancelled`] responses arrive through
    /// [`PipelinedSession::poll_responses`] / [`PipelinedSession::drain`]
    /// as usual), and held-back rescores — which never reached the
    /// pipeline — are answered right here with the returned error lines.
    /// This is the connection-drop path of `zeroconf serve`: a client
    /// that vanishes takes only its own requests down.
    pub fn cancel_all(&mut self) -> Vec<String> {
        for pipeline_id in self.in_flight.keys() {
            self.pipeline.cancel(*pipeline_id);
        }
        let waiting = std::mem::take(&mut self.waiting);
        let mut out = Vec::new();
        for (_, dependents) in waiting {
            for (rescore_id, _) in dependents {
                self.pending_ids.remove(&rescore_id);
                out.push(error_line(&rescore_id, &EngineError::Cancelled));
            }
        }
        out
    }

    /// Decodes and enqueues one input line: [`parse_request_json`], then
    /// [`decode_line`], then [`PipelinedSession::submit_request`]. A line
    /// that fails to decode is answered with its error line. Blank lines
    /// produce nothing.
    pub fn submit_line(&mut self, line: &str) -> Vec<String> {
        let line = line.trim();
        if line.is_empty() {
            return Vec::new();
        }
        match decode_line(parse_request_json(line)) {
            Ok(request) => self.submit_request(request),
            Err(answer) => vec![answer],
        }
    }

    /// Enqueues one decoded request. Returns the response lines that are
    /// ready *immediately* — dispatch errors and cancel acknowledgements;
    /// sweep, rescore, calibrate and frontier answers arrive later via
    /// [`PipelinedSession::poll_responses`] / [`PipelinedSession::drain`].
    /// Blocks when the pipeline is at its depth bound.
    pub fn submit_request(&mut self, request: WireRequest) -> Vec<String> {
        match request {
            WireRequest::Sweep { id, request } => self.submit_work(id, WorkRequest::Sweep(request)),
            WireRequest::Rescore { id, of, delta } => {
                self.submit_dependent(id, &of, PendingWork::Rescore(delta))
            }
            WireRequest::Calibrate { id, target, n, r } => match target {
                WorkTarget::Base(of) => {
                    self.submit_dependent(id, &of, PendingWork::Calibrate { n, r })
                }
                WorkTarget::Inline { scenario, grid } => self.submit_work(
                    id,
                    WorkRequest::Calibrate(CalibrateRequest {
                        scenario,
                        grid,
                        target_n: n,
                        target_r: r,
                    }),
                ),
            },
            WireRequest::Frontier { id, target, x, y } => match target {
                WorkTarget::Base(of) => {
                    self.submit_dependent(id, &of, PendingWork::Frontier { x, y })
                }
                WorkTarget::Inline { scenario, grid } => self.submit_work(
                    id,
                    WorkRequest::Frontier(FrontierRequest {
                        scenario,
                        grid,
                        x,
                        y,
                    }),
                ),
            },
            WireRequest::Cancel { id, of } => self.submit_cancel(&id, &of),
        }
    }

    /// Encodes every completion that is ready right now, without
    /// blocking. May also dispatch rescores that were waiting on a newly
    /// completed base.
    pub fn poll_responses(&mut self) -> Vec<String> {
        let completions = self.pipeline.poll_completions();
        let mut out = Vec::new();
        for completion in completions {
            out.extend(self.finish(completion));
        }
        out
    }

    /// Blocks until every in-flight and held-back request is answered,
    /// returning the response lines in completion order.
    pub fn drain(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(completion) = self.pipeline.next_completion() {
            out.extend(self.finish(completion));
        }
        debug_assert!(self.waiting.is_empty(), "no rescore left behind");
        debug_assert!(self.pending_ids.is_empty(), "every id answered");
        out
    }

    /// Bases evicted from this session to keep it within
    /// [`MAX_RETAINED_BASE_BYTES`].
    #[must_use]
    pub fn base_evictions(&self) -> u64 {
        self.bases.evictions
    }

    /// The engine's cumulative counters (for `--stats` reporting).
    #[must_use]
    pub fn stats(&self) -> crate::EngineStats {
        self.pipeline.engine().stats()
    }

    /// The pipeline's cumulative counters, including per-request latency
    /// aggregates.
    #[must_use]
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// Renders the engine and pipeline stats as one JSON line.
    #[must_use]
    pub fn stats_line(&self) -> String {
        WireResponse::Stats {
            engine: self.stats(),
            pipeline: self.pipeline_stats(),
            depth: self.pipeline.depth(),
        }
        .to_line()
    }

    /// Submits one decoded work request of any verb; an immediate error
    /// line when the pipeline rejects it.
    fn submit_work(&mut self, wire_id: String, request: WorkRequest) -> Vec<String> {
        match self.pipeline.submit_work(request) {
            Ok(pipeline_id) => {
                self.pending_ids.insert(wire_id.clone());
                self.in_flight.insert(pipeline_id, wire_id);
                Vec::new()
            }
            Err(e) => {
                let mut out = vec![error_line(&wire_id, &e)];
                out.extend(self.fail_dependents(&wire_id));
                out
            }
        }
    }

    /// Routes one base-referencing request (rescore, calibrate or
    /// frontier): straight into the pipeline when the base sweep has
    /// completed, held back when the base is pending, an error otherwise.
    fn submit_dependent(&mut self, wire_id: String, of: &str, work: PendingWork) -> Vec<String> {
        if let Some(base) = self.bases.get(of) {
            let built = work.into_request(base);
            return self.dispatch(wire_id, built);
        }
        if self.pending_ids.contains(of) {
            self.pending_ids.insert(wire_id.clone());
            self.waiting
                .entry(of.to_owned())
                .or_default()
                .push((wire_id, work));
            return Vec::new();
        }
        let missing = if self.bases.was_evicted(of) {
            format!(
                "base sweep `{of}` was evicted: a session keeps at most \
                 {MAX_RETAINED_BASE_BYTES} bytes of bases"
            )
        } else {
            format!("no sweep with id `{of}`")
        };
        vec![error_line(&wire_id, &invalid(missing))]
    }

    /// Submits dependent work built against its base. Work that fails at
    /// dispatch time must still fail everything chained on it, or
    /// held-back dependents are stranded forever.
    fn dispatch(
        &mut self,
        wire_id: String,
        built: Result<WorkRequest, EngineError>,
    ) -> Vec<String> {
        match built {
            Ok(request) => self.submit_work(wire_id, request),
            Err(e) => {
                let mut out = vec![error_line(&wire_id, &e)];
                out.extend(self.fail_dependents(&wire_id));
                out
            }
        }
    }

    /// Handles one cancel line: flags every request in the pipeline
    /// under that id, or else withdraws every held-back one outright.
    fn submit_cancel(&mut self, wire_id: &str, of: &str) -> Vec<String> {
        let mut in_pipeline = false;
        for (pipeline_id, _) in self.in_flight.iter().filter(|(_, id)| *id == of) {
            // The cancelled completion arrives (and is encoded) through
            // the normal completion path.
            self.pipeline.cancel(*pipeline_id);
            in_pipeline = true;
        }
        if in_pipeline {
            return vec![WireResponse::Cancelled {
                id: wire_id.to_owned(),
                of: of.to_owned(),
            }
            .to_line()];
        }
        // Held-back work never reached the pipeline; answer for it here
        // and fail anything chained on it.
        let mut withdrawn = 0;
        for deps in self.waiting.values_mut() {
            let held = deps.len();
            deps.retain(|(id, _)| id != of);
            withdrawn += held - deps.len();
        }
        if withdrawn > 0 {
            self.waiting.retain(|_, deps| !deps.is_empty());
            self.pending_ids.remove(of);
            let mut out = vec![WireResponse::Cancelled {
                id: wire_id.to_owned(),
                of: of.to_owned(),
            }
            .to_line()];
            out.extend((0..withdrawn).map(|_| error_line(of, &EngineError::Cancelled)));
            out.extend(self.fail_dependents(of));
            return out;
        }
        vec![error_line(
            wire_id,
            &invalid(format!("no in-flight request with id `{of}`")),
        )]
    }

    /// Encodes one completion and dispatches any dependent work that was
    /// waiting on it.
    fn finish(&mut self, completion: Completion) -> Vec<String> {
        let Some(wire_id) = self.in_flight.remove(&completion.id) else {
            debug_assert!(false, "completion for unknown pipeline id");
            return Vec::new();
        };
        let request = completion.request;
        self.pending_ids.remove(&wire_id);
        let succeeded = completion.result.is_ok();
        let mut out = vec![WireResponse::from_result(&wire_id, completion.result).to_line()];
        if !succeeded {
            out.extend(self.fail_dependents(&wire_id));
            return out;
        }
        for (dependent_id, work) in self.waiting.remove(&wire_id).unwrap_or_default() {
            self.pending_ids.remove(&dependent_id);
            out.extend(match &request {
                // Held-back work is built on the sweep in hand, so it is
                // answered even when that sweep is too large to retain.
                WorkRequest::Sweep(base) => self.dispatch(dependent_id, work.into_request(base)),
                _ => self.submit_dependent(dependent_id, &wire_id, work),
            });
        }
        // Only a sweep establishes a base that dependents (rescore,
        // calibrate, frontier) can reference.
        if let WorkRequest::Sweep(sweep) = request {
            self.bases.insert(wire_id, sweep);
        }
        out
    }

    /// Answers (with an error) every dependent waiting on `base`, and
    /// transitively everything waiting on those.
    fn fail_dependents(&mut self, base: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut stack = vec![base.to_owned()];
        while let Some(failed) = stack.pop() {
            for (dependent_id, _) in self.waiting.remove(&failed).unwrap_or_default() {
                self.pending_ids.remove(&dependent_id);
                out.push(error_line(
                    &dependent_id,
                    &invalid(format!("base sweep `{failed}` did not complete")),
                ));
                stack.push(dependent_id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineConfig, FrontierPoint};

    use super::*;

    fn sweep_line(id: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
             \"grid\":{{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}}}"
        )
    }

    fn engine(workers: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            cache_tables: 64,
        })
    }

    /// Blocking one-line-in/one-line-out over a pipelined session: with
    /// depth 1, each line is answered before the next is read.
    fn handle(session: &mut PipelinedSession, line: &str) -> Option<String> {
        let mut lines = session.submit_line(line);
        lines.extend(session.drain());
        lines.into_iter().next()
    }

    #[test]
    fn json_roundtrip_basics() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"y","c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").and_then(Json::str), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn float_writer_roundtrips() {
        for x in [
            1.0,
            0.1,
            1e35,
            1e-15,
            12.600000000000001,
            f64::MIN_POSITIVE,
            -0.00012345678901234567,
            -1234567890123456.8,
            -1.7976931348623157e308,
            -2.2250738585072014e-308,
        ] {
            let mut text = String::new();
            push_f64(&mut text, x);
            assert_eq!(text, format!("{x:?}"));
            assert!(text.len() <= F64_TEXT_MAX, "{text}");
            let back: f64 = match parse_json(&text).unwrap() {
                Json::Num(v) => v,
                other => panic!("parsed {other:?}"),
            };
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        assert_eq!(
            format!("{:?}", -2.2250738585072014e-308).len(),
            F64_TEXT_MAX
        );
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut text = String::new();
            push_f64(&mut text, x);
            assert_eq!(text, "null");
        }
    }

    fn golden_stats(wall_nanos: u128) -> BatchStats {
        BatchStats {
            wall_nanos,
            cache_hits: 3,
            cache_misses: 1,
            cells: 9,
            workers: 2,
        }
    }

    /// One response of every variant, with hand-picked values covering
    /// the float shapes `{:?}` produces (plain, integral, exponent,
    /// subnormal, negative zero) and ids that need escaping.
    fn golden_fixtures() -> Vec<WireResponse> {
        let both = Landscape::new(
            3,
            vec![0.1, 1.0, 12.600000000000001],
            Some(vec![
                2.0,
                0.30000000000000004,
                1e35,
                1.5e-300,
                5e-324,
                123456789.125,
                1e16,
                9007199254740993.0,
                0.0001,
            ]),
            Some(vec![
                1e-5,
                0.5,
                1.0,
                4.026e-22,
                -0.0,
                0.25,
                1e-15,
                7.0,
                2.2250738585072014e-308,
            ]),
        )
        .unwrap();
        let cost_only =
            Landscape::new(2, vec![0.5, 3.0], Some(vec![6.5, 1e20, 3.25, 17.0]), None).unwrap();
        let error_only = Landscape::new(
            11,
            vec![1e-7],
            None,
            Some(vec![
                0.9,
                0.81,
                0.729,
                0.6561,
                0.59049,
                0.531441,
                0.4782969,
                0.43046721,
                0.387420489,
                0.3486784401,
                0.31381059609,
            ]),
        )
        .unwrap();
        vec![
            WireResponse::Sweep {
                id: "s1".to_owned(),
                response: SweepResponse {
                    landscape: both,
                    stats: golden_stats(1_234_567),
                },
            },
            WireResponse::Sweep {
                id: "cost-only".to_owned(),
                response: SweepResponse {
                    landscape: cost_only,
                    stats: golden_stats(0),
                },
            },
            WireResponse::Sweep {
                id: "error-only".to_owned(),
                response: SweepResponse {
                    landscape: error_only,
                    stats: golden_stats(u128::MAX),
                },
            },
            WireResponse::Calibrate {
                id: "k1".to_owned(),
                response: CalibrateResponse {
                    error_cost: 3.0517578125e-5,
                    n: 4,
                    r: 2.0,
                    cost: 8.000000000000002,
                    error_probability: 1.6e-19,
                    stats: golden_stats(42),
                },
            },
            WireResponse::Frontier {
                id: "f1".to_owned(),
                response: FrontierResponse {
                    points: vec![
                        FrontierPoint {
                            x: 1e3,
                            y: 0.5,
                            n: 2,
                            r: 1.7484,
                            cost: 3.5,
                            error_probability: 4.026e-22,
                        },
                        FrontierPoint {
                            x: 1e20,
                            y: 2.0,
                            n: 12,
                            r: 0.1,
                            cost: 25.000000000000004,
                            error_probability: 1e-300,
                        },
                    ],
                    candidates: 256,
                    stats: golden_stats(7),
                },
            },
            WireResponse::Cancelled {
                id: "c1".to_owned(),
                of: "s\"2".to_owned(),
            },
            WireResponse::Error {
                id: "a\"b\\c\u{1}".to_owned(),
                message: "bad \"x\"\n\ttab\\ \r\u{8}\u{c}\u{1f}\u{7f} é".to_owned(),
            },
            WireResponse::Stats {
                engine: EngineStats {
                    requests: 7,
                    cells: 84,
                    cache_hits: 10,
                    cache_misses: 2,
                    cache_len: 2,
                    cache_evictions: 5,
                    cells_per_worker: vec![80, 4, 0],
                    wall_nanos: 123_456_789,
                    kernel_backend: "avx512",
                    dist_backend: "scalar",
                },
                pipeline: PipelineStats {
                    submitted: 9,
                    completed: 6,
                    cancelled: 2,
                    failed: 1,
                    queue_nanos_total: 1_000,
                    queue_nanos_max: 600,
                    service_nanos_total: 5_000_000,
                    service_nanos_max: 4_000_000,
                },
                depth: 4,
            },
            WireResponse::Stats {
                engine: EngineStats {
                    requests: 0,
                    cells: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                    cache_len: 0,
                    cache_evictions: 0,
                    cells_per_worker: Vec::new(),
                    wall_nanos: 0,
                    kernel_backend: "scalar",
                    dist_backend: "scalar",
                },
                pipeline: PipelineStats::default(),
                depth: 1,
            },
        ]
    }

    /// The wire bytes of each [`golden_fixtures`] entry, recorded from the
    /// per-value `format!` encoder the one-pass writer replaced. The two
    /// stats lines have since gained `cache_evictions` after `cache_len`.
    const GOLDEN_LINES: [&str; 9] = [
        r#"{"v":1,"id":"s1","cells":[{"n":1,"r":0.1,"mean_cost":2.0,"error_probability":1e-5},{"n":2,"r":0.1,"mean_cost":0.30000000000000004,"error_probability":0.5},{"n":3,"r":0.1,"mean_cost":1e35,"error_probability":1.0},{"n":1,"r":1.0,"mean_cost":1.5e-300,"error_probability":4.026e-22},{"n":2,"r":1.0,"mean_cost":5e-324,"error_probability":-0.0},{"n":3,"r":1.0,"mean_cost":123456789.125,"error_probability":0.25},{"n":1,"r":12.600000000000001,"mean_cost":1e16,"error_probability":1e-15},{"n":2,"r":12.600000000000001,"mean_cost":9007199254740992.0,"error_probability":7.0},{"n":3,"r":12.600000000000001,"mean_cost":0.0001,"error_probability":2.2250738585072014e-308}],"stats":{"wall_ns":1234567,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"cost-only","cells":[{"n":1,"r":0.5,"mean_cost":6.5},{"n":2,"r":0.5,"mean_cost":1e20},{"n":1,"r":3.0,"mean_cost":3.25},{"n":2,"r":3.0,"mean_cost":17.0}],"stats":{"wall_ns":0,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"error-only","cells":[{"n":1,"r":1e-7,"error_probability":0.9},{"n":2,"r":1e-7,"error_probability":0.81},{"n":3,"r":1e-7,"error_probability":0.729},{"n":4,"r":1e-7,"error_probability":0.6561},{"n":5,"r":1e-7,"error_probability":0.59049},{"n":6,"r":1e-7,"error_probability":0.531441},{"n":7,"r":1e-7,"error_probability":0.4782969},{"n":8,"r":1e-7,"error_probability":0.43046721},{"n":9,"r":1e-7,"error_probability":0.387420489},{"n":10,"r":1e-7,"error_probability":0.3486784401},{"n":11,"r":1e-7,"error_probability":0.31381059609}],"stats":{"wall_ns":340282366920938463463374607431768211455,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"k1","calibrate":{"error_cost":3.0517578125e-5,"n":4,"r":2.0,"mean_cost":8.000000000000002,"error_probability":1.6e-19},"stats":{"wall_ns":42,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"f1","frontier":{"candidates":256,"points":[{"x":1000.0,"y":0.5,"n":2,"r":1.7484,"mean_cost":3.5,"error_probability":4.026e-22},{"x":1e20,"y":2.0,"n":12,"r":0.1,"mean_cost":25.000000000000004,"error_probability":1e-300}]},"stats":{"wall_ns":7,"cache_hits":3,"cache_misses":1,"cells":9,"workers":2}}"#,
        r#"{"v":1,"id":"c1","cancelled":"s\"2"}"#,
        "{\"v\":1,\"id\":\"a\\\"b\\\\c\\u0001\",\"error\":\"bad \\\"x\\\"\\n\\ttab\\\\ \\r\\u0008\\u000c\\u001f\u{7f} é\"}",
        r#"{"v":1,"stats":{"requests":7,"cells":84,"cache_hits":10,"cache_misses":2,"cache_len":2,"cache_evictions":5,"cells_per_worker":[80,4,0],"wall_ns":123456789,"kernel_backend":"avx512","dist_backend":"scalar","pipeline":{"depth":4,"submitted":9,"completed":6,"cancelled":2,"failed":1,"queue_ns_total":1000,"queue_ns_max":600,"service_ns_total":5000000,"service_ns_max":4000000}}}"#,
        r#"{"v":1,"stats":{"requests":0,"cells":0,"cache_hits":0,"cache_misses":0,"cache_len":0,"cache_evictions":0,"cells_per_worker":[],"wall_ns":0,"kernel_backend":"scalar","dist_backend":"scalar","pipeline":{"depth":1,"submitted":0,"completed":0,"cancelled":0,"failed":0,"queue_ns_total":0,"queue_ns_max":0,"service_ns_total":0,"service_ns_max":0}}}"#,
    ];

    #[test]
    fn golden_lines_are_byte_identical() {
        let fixtures = golden_fixtures();
        assert_eq!(fixtures.len(), GOLDEN_LINES.len());
        for (response, golden) in fixtures.iter().zip(GOLDEN_LINES) {
            assert_eq!(response.to_line(), golden);
        }
    }

    /// Asserts that `got` holds `expected`'s grid and the same bits in
    /// every value, where a value that is not finite must read back as
    /// NaN (it travels as `null`).
    fn assert_same_landscape(got: &Landscape, expected: &Landscape) {
        fn same(got: Option<&[f64]>, expected: Option<&[f64]>) -> bool {
            match (got, expected) {
                (Some(got), Some(expected)) => {
                    got.len() == expected.len()
                        && got.iter().zip(expected).all(|(g, e)| {
                            g.to_bits() == e.to_bits() || (!e.is_finite() && g.is_nan())
                        })
                }
                (got, expected) => got.is_none() && expected.is_none(),
            }
        }
        assert_eq!(got.n_max(), expected.n_max());
        assert!(same(Some(got.r_values()), Some(expected.r_values())), "r");
        assert!(same(got.costs(), expected.costs()), "mean_cost");
        assert!(same(got.errors(), expected.errors()), "error_probability");
    }

    /// `parse_json` of `line` without its `cells` member.
    fn head_of(line: &str) -> Json {
        let Ok(Json::Obj(mut members)) = parse_json(line) else {
            panic!("not an object: {line}");
        };
        members.retain(|(key, _)| key != "cells");
        Json::Obj(members)
    }

    #[test]
    fn golden_lines_decode_to_their_fixtures() {
        for (response, golden) in golden_fixtures().iter().zip(GOLDEN_LINES) {
            let (head, landscape) = parse_response_line(golden).unwrap();
            assert_eq!(head, head_of(golden), "{golden}");
            match (response, landscape) {
                (WireResponse::Sweep { response, .. }, Some(landscape)) => {
                    assert_same_landscape(&landscape, &response.landscape);
                }
                (WireResponse::Sweep { .. }, None) => panic!("no landscape from {golden}"),
                (_, landscape) => assert!(landscape.is_none(), "{golden}"),
            }
        }
    }

    /// Response lines whose `cells` are not the writer's layout, each with
    /// the reason the decoder gives.
    const MALFORMED_CELLS: [(&str, &str); 13] = [
        (
            r#"[{"n":2,"r":0.5,"mean_cost":1.0}]"#,
            "cell at byte 25 has n = 2 where its column needs 1",
        ),
        (
            r#"[{"n":1,"r":0.5,"mean_cost":1.0},{"n":3,"r":0.5,"mean_cost":1.0}]"#,
            "cell at byte 57 has n = 3 where its column needs 2",
        ),
        (
            r#"[{"n":1.0,"r":0.5,"mean_cost":1.0}]"#,
            "cell at byte 25 has n = 1.0 where its column needs 1",
        ),
        (
            r#"[{"n":1,"r":0.5,"mean_cost":1.0},{"n":2,"r":0.5,"mean_cost":1.0},{"n":1,"r":1.0,"mean_cost":1.0}]"#,
            "the column ending at byte 121 has 1 cells where the first has 2",
        ),
        (
            r#"[{"n":1,"r":0.5,"mean_cost":1.0},{"n":1,"r":1.0,"mean_cost":1.0},{"n":2,"r":1.0,"mean_cost":1.0}]"#,
            "the column ending at byte 121 has 2 cells where the first has 1",
        ),
        (
            r#"[{"n":1,"r":0.5,"mean_cost":1.0},{"n":2,"r":0.50,"mean_cost":1.0}]"#,
            "cell at byte 57 has an `r` other than its column's 0.5",
        ),
        (
            r#"[{"n":1,"r":0.5,"mean_cost":1.0,"error_probability":0.1},{"n":2,"r":0.5,"mean_cost":1.0}]"#,
            "a metric is missing from some cells",
        ),
        (
            r#"[{"n":1,"r":0.5,"mean_cost":1.0},{"n":2,"r":0.5,"error_probability":0.1}]"#,
            "a metric is missing from some cells",
        ),
        (
            r#"[{"n":1,"r":0.5,"mean_cost":1.0,"median_cost":1.0}]"#,
            "cell at byte 25 has a member other than n, r, mean_cost, error_probability",
        ),
        (
            r#"[{"n":1, "r":0.5,"mean_cost":1.0}]"#,
            "cell at byte 25 has no `r` after `n`",
        ),
        (
            r#"[{"n":1,"r":0.5}]"#,
            "cells carry neither mean_cost nor error_probability",
        ),
        (r#"[]"#, "expected a cell at byte 25"),
        (r#"{"n":1}"#, "`cells` at byte 24 is not an array"),
    ];

    #[test]
    fn malformed_cells_are_refused_with_their_reason() {
        for (cells, reason) in MALFORMED_CELLS {
            let line = format!("{{\"v\":1,\"id\":\"s\",\"cells\":{cells}}}");
            assert!(parse_json(&line).is_ok(), "{line}");
            assert_eq!(
                parse_response_line(&line).map(|_| ()),
                Err(err(reason)),
                "{line}"
            );
        }
        for (line, reason) in [
            ("[1]", "a response line must be a JSON object"),
            (
                r#"{"cells":[{"n":1,"r":1.0,"mean_cost":1.0}],"cells":[{"n":1,"r":1.0,"mean_cost":1.0}]}"#,
                "a response line has one `cells` member",
            ),
            (
                r#"{"cells":[{"n":1,"r":1.0,"mean_cost":1.0}]} x"#,
                "trailing input at byte 44",
            ),
        ] {
            assert_eq!(
                parse_response_line(line).map(|_| ()),
                Err(err(reason)),
                "{line}"
            );
        }
    }

    #[test]
    fn sweep_line_capacity_holds_for_the_widest_values() {
        // Every float at its longest text, every counter at its widest,
        // and an id that escapes to six bytes per byte.
        let wide = -2.2250738585072014e-308;
        let stats = BatchStats {
            wall_nanos: u128::MAX,
            cache_hits: u64::MAX,
            cache_misses: u64::MAX,
            cells: u64::MAX,
            workers: usize::MAX,
        };
        for (costs, errors) in [(true, true), (true, false), (false, true)] {
            let cells = 3 * 12;
            let response = WireResponse::Sweep {
                id: "\u{1}\u{1f}".to_owned(),
                response: SweepResponse {
                    landscape: Landscape::new(
                        12,
                        vec![wide; 3],
                        costs.then(|| vec![wide; cells]),
                        errors.then(|| vec![wide; cells]),
                    )
                    .unwrap(),
                    stats,
                },
            };
            let line = response.to_line();
            // Room is left for the newline a transport appends.
            assert!(
                line.len() < response.line_capacity(),
                "{} bytes against a capacity of {}: {line}",
                line.len(),
                response.line_capacity()
            );
            parse_json(&line).unwrap();
        }
    }

    /// Inputs and the `{:?}` of what `parse_json` made of them when it
    /// decoded bytes and rechecked UTF-8 for every string run.
    const DECODER_PARITY: [(&str, &str); 31] = [
        (r#"0"#, r#"Ok(Num(0.0))"#),
        (r#"7"#, r#"Ok(Num(7.0))"#),
        (r#"007"#, r#"Ok(Num(7.0))"#),
        (r#"-0"#, r#"Ok(Num(-0.0))"#),
        (r#"-7"#, r#"Ok(Num(-7.0))"#),
        (r#"7.0"#, r#"Ok(Num(7.0))"#),
        (r#"7e0"#, r#"Ok(Num(7.0))"#),
        (r#"+1"#, r#"Ok(Num(1.0))"#),
        (r#"1e5"#, r#"Ok(Num(100000.0))"#),
        (r#"123456789012345"#, r#"Ok(Num(123456789012345.0))"#),
        (r#"999999999999999"#, r#"Ok(Num(999999999999999.0))"#),
        (r#"1234567890123456"#, r#"Ok(Num(1234567890123456.0))"#),
        (r#"9007199254740993"#, r#"Ok(Num(9007199254740992.0))"#),
        (
            r#"12345678901234567890"#,
            r#"Ok(Num(1.2345678901234567e19))"#,
        ),
        (
            r#"[0,7,007,-0,1e5]"#,
            r#"Ok(Arr([Num(0.0), Num(7.0), Num(7.0), Num(-0.0), Num(100000.0)]))"#,
        ),
        (
            r#"{"n":16,"r":0.5}"#,
            r#"Ok(Obj([("n", Num(16.0)), ("r", Num(0.5))]))"#,
        ),
        (
            r#"1-2"#,
            r#"Err(WireError { message: "invalid number `1-2` at byte 0" })"#,
        ),
        (
            r#"-"#,
            r#"Err(WireError { message: "invalid number `-` at byte 0" })"#,
        ),
        (
            r#"1e"#,
            r#"Err(WireError { message: "invalid number `1e` at byte 0" })"#,
        ),
        (
            r#"01.5.5"#,
            r#"Err(WireError { message: "invalid number `01.5.5` at byte 0" })"#,
        ),
        (r#""""#, r#"Ok(Str(""))"#),
        (r#""plain""#, r#"Ok(Str("plain"))"#),
        (r#""é unicode ✓""#, r#"Ok(Str("é unicode ✓"))"#),
        (
            r#""a\"b\\c\/d\n\t\r\b\f\u00e9\u0001""#,
            r#"Ok(Str("a\"b\\c/d\n\t\r\u{8}\u{c}é\u{1}"))"#,
        ),
        (r#""tail\\""#, r#"Ok(Str("tail\\"))"#),
        (
            r#""\u00""#,
            r#"Err(WireError { message: "truncated \\u escape" })"#,
        ),
        (
            r#""\ud800""#,
            r#"Err(WireError { message: "bad \\u code point" })"#,
        ),
        (
            r#""bad \x escape""#,
            r#"Err(WireError { message: "bad escape sequence" })"#,
        ),
        (
            r#""unterminated"#,
            r#"Err(WireError { message: "unterminated string" })"#,
        ),
        (
            r#""unterminated\"#,
            r#"Err(WireError { message: "bad escape sequence" })"#,
        ),
        (
            r#""\u00é""#,
            r#"Err(WireError { message: "bad \\u escape" })"#,
        ),
    ];

    #[test]
    fn decoder_keeps_its_recorded_decodes() {
        for (input, expected) in DECODER_PARITY {
            assert_eq!(format!("{:?}", parse_json(input)), expected, "{input}");
        }
    }

    #[test]
    fn sweep_request_decodes() {
        let parsed = parse_request_line(&sweep_line("s1")).unwrap();
        let WireRequest::Sweep { id, request } = parsed else {
            panic!("expected sweep");
        };
        assert_eq!(id, "s1");
        assert_eq!(request.grid.n_max, 3);
        assert_eq!(request.grid.r_values, vec![0.5, 1.0, 2.0]);
        assert_eq!(request.metrics.len(), 2, "metrics default to both");
        assert_eq!(request.scenario.occupancy(), 0.5);
    }

    #[test]
    fn linspace_grid_and_hosts_decode() {
        let line = "{\"id\":\"x\",\"scenario\":{\"hosts\":1000,\"probe_cost\":2.0,\
                    \"error_cost\":1e35,\"reply_time\":{\"kind\":\"deterministic\",\
                    \"mass\":0.9,\"delay\":1.0}},\
                    \"grid\":{\"n_max\":4,\"r_min\":0.1,\"r_max\":30.0,\"r_points\":300},\
                    \"metrics\":[\"mean_cost\"]}";
        let WireRequest::Sweep { request, .. } = parse_request_line(line).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(request.grid.r_values.len(), 300);
        // hosts uses the paper's q = hosts / 65024 parameterization.
        assert_eq!(request.scenario.occupancy(), 1000.0 / 65024.0);
        assert_eq!(request.metrics, vec![Metric::MeanCost]);
    }

    #[test]
    fn oversized_grids_and_frontiers_are_refused_at_decode() {
        let scenario = "\"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
                        \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}";
        let sweep = |grid: &str| format!("{{\"id\":\"g\",{scenario},\"grid\":{grid}}}");
        let long_r = format!(
            "{{\"n_max\":2,\"r\":[{}]}}",
            vec!["1.0"; MAX_GRID_R_POINTS + 1].join(",")
        );
        for (grid, expected) in [
            (
                "{\"n_max\":2,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":1e300}".to_owned(),
                "grid `r_points` 1e300 is over the limit of 65536",
            ),
            (
                "{\"n_max\":4e9,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":2}".to_owned(),
                "grid `n_max` 4000000000.0 is over the limit of 4096",
            ),
            (
                "{\"n_max\":1e999,\"r\":[1.0]}".to_owned(),
                "grid `n_max` inf is over the limit of 4096",
            ),
            (long_r, "grid `r` length 65537 is over the limit of 65536"),
            (
                "{\"n_max\":4096,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":257}".to_owned(),
                "grid cell count 1052672 (n_max × r values) is over the limit of 1048576",
            ),
        ] {
            let error = parse_request_line(&sweep(&grid)).unwrap_err();
            assert_eq!(error.message, expected);
        }
        // The limits themselves are accepted.
        let at_limit = sweep("{\"n_max\":4096,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":256}");
        let WireRequest::Sweep { request, .. } = parse_request_line(&at_limit).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(request.grid.r_values.len() * 4096, MAX_GRID_CELLS);

        let axis = |n: usize| vec!["1.0"; n].join(",");
        let frontier = |x: usize, y: usize| {
            format!(
                "{{\"id\":\"f\",{scenario},\"grid\":{{\"n_max\":2,\"r\":[0.5,1.0,2.0]}},\
                 \"frontier\":{{\"x\":{{\"axis\":\"error_cost\",\"values\":[{}]}},\
                 \"y\":{{\"axis\":\"probe_cost\",\"values\":[{}]}}}}}}",
                axis(x),
                axis(y)
            )
        };
        assert_eq!(
            parse_request_line(&frontier(257, 256)).unwrap_err().message,
            "frontier parameter point count 65792 (|x| × |y|) is over the limit of 65536"
        );
        assert!(matches!(
            parse_request_line(&frontier(256, 256)),
            Ok(WireRequest::Frontier { .. })
        ));
    }

    #[test]
    fn mixture_reply_time_decodes() {
        let line = "{\"id\":\"m\",\"scenario\":{\"q\":0.1,\"probe_cost\":1.0,\"error_cost\":10.0,\
            \"reply_time\":{\"kind\":\"mixture\",\"components\":[\
              {\"weight\":0.6,\"dist\":{\"kind\":\"deterministic\",\"mass\":1.0,\"delay\":0.5}},\
              {\"weight\":0.4,\"dist\":{\"kind\":\"uniform\",\"mass\":0.9,\"lo\":0.0,\"hi\":2.0}}]}},\
            \"grid\":{\"n_max\":2,\"r\":[1.0]}}";
        let WireRequest::Sweep { request, .. } = parse_request_line(line).unwrap() else {
            panic!("expected sweep");
        };
        assert!((request.scenario.reply_time().mass() - (0.6 + 0.4 * 0.9)).abs() < 1e-12);
    }

    #[test]
    fn session_answers_sweep_then_miss_free_rescore() {
        let mut session = PipelinedSession::new(engine(2), PipelineConfig::with_depth(1));
        let first = handle(&mut session, &sweep_line("s1")).unwrap();
        assert!(first.contains("\"id\":\"s1\""), "{first}");
        assert!(first.contains("\"cache_misses\":3"), "{first}");
        let rescore =
            "{\"id\":\"s2\",\"rescore\":{\"of\":\"s1\",\"error_cost\":1e9,\"probe_cost\":3.0}}";
        let second = handle(&mut session, rescore).unwrap();
        assert!(second.contains("\"id\":\"s2\""), "{second}");
        assert!(second.contains("\"cache_misses\":0"), "{second}");
        assert!(second.contains("\"cache_hits\":3"), "{second}");
        // Chained rescore off the rescored request.
        let third = handle(
            &mut session,
            "{\"id\":\"s3\",\"rescore\":{\"of\":\"s2\",\"q\":0.25}}",
        )
        .unwrap();
        assert!(third.contains("\"cache_misses\":0"), "{third}");
        let stats = session.stats_line();
        assert!(stats.contains("\"requests\":3"), "{stats}");
        // The stats block names the kernel tier it ran and the weakest
        // distribution-batch tier observed — both drawn from the single
        // `Backend::name` vocabulary.
        let engine_stats = session.stats();
        assert!(
            stats.contains(&format!(
                "\"kernel_backend\":\"{}\"",
                engine_stats.kernel_backend
            )),
            "{stats}"
        );
        assert!(
            stats.contains(&format!(
                "\"dist_backend\":\"{}\"",
                engine_stats.dist_backend
            )),
            "{stats}"
        );
    }

    #[test]
    fn session_reports_errors_without_dying() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        assert!(handle(&mut session, "   ").is_none());
        let bad = handle(&mut session, "not json").unwrap();
        assert!(bad.contains("\"error\""), "{bad}");
        let unknown = handle(
            &mut session,
            "{\"id\":\"r\",\"rescore\":{\"of\":\"ghost\"}}",
        )
        .unwrap();
        assert!(unknown.contains("no sweep with id"), "{unknown}");
        // The session still works afterwards.
        assert!(handle(&mut session, &sweep_line("ok"))
            .unwrap()
            .contains("\"cells\""));
    }

    #[test]
    fn response_line_parses_back_with_exact_floats() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        let line = handle(&mut session, &sweep_line("s1")).unwrap();
        let parsed = parse_json(&line).unwrap();
        let Some(Json::Arr(cells)) = parsed.get("cells") else {
            panic!("no cells in {line}");
        };
        assert_eq!(cells.len(), 9);
        // Spot-check cell 0 against a direct evaluation.
        let WireRequest::Sweep { request, .. } = parse_request_line(&sweep_line("s1")).unwrap()
        else {
            panic!("expected sweep");
        };
        let direct = zeroconf_cost::cost::mean_cost(&request.scenario, 1, 0.5).unwrap();
        let wire = cells[0].get("mean_cost").and_then(Json::num).unwrap();
        assert_eq!(direct.to_bits(), wire.to_bits());
        // The typed decoder reads the same line into the engine's own
        // landscape, bit for bit.
        let (head, landscape) = parse_response_line(&line).unwrap();
        assert_eq!(head, head_of(&line));
        let evaluated = engine(1).evaluate(&request).unwrap();
        assert_same_landscape(&landscape.unwrap(), &evaluated.landscape);
    }

    #[test]
    fn non_finite_cells_round_trip_as_null() {
        // A probe cost near f64::MAX overflows the mean cost of n >= 2
        // probes; the answer must still parse, with `null` for those
        // cells and the finite cells bit for bit.
        let line = "{\"id\":\"big\",\"scenario\":{\"q\":0.5,\"probe_cost\":1.7e308,\
                    \"error_cost\":1e6,\"reply_time\":{\"kind\":\"exponential\",\
                    \"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
                    \"grid\":{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}";
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        let answer = handle(&mut session, line).unwrap();
        let parsed = parse_json(&answer).unwrap_or_else(|e| panic!("{e}: {answer}"));
        let Some(Json::Arr(cells)) = parsed.get("cells") else {
            panic!("no cells in {answer}");
        };
        let WireRequest::Sweep { request, .. } = parse_request_line(line).unwrap() else {
            panic!("expected sweep");
        };
        let direct = engine(1).evaluate(&request).unwrap();
        assert_eq!(cells.len(), direct.landscape.len());
        let (mut finite, mut null) = (0, 0);
        for (cell, expected) in cells.iter().zip(direct.landscape.iter()) {
            for (key, value) in [
                ("mean_cost", expected.mean_cost),
                ("error_probability", expected.error_probability),
            ] {
                let value = value.unwrap();
                match cell.get(key) {
                    Some(Json::Num(got)) if value.is_finite() => {
                        assert_eq!(got.to_bits(), value.to_bits(), "{key} in {answer}");
                        finite += 1;
                    }
                    Some(Json::Null) if !value.is_finite() => null += 1,
                    other => panic!("{key} = {value} encoded as {other:?}: {answer}"),
                }
            }
        }
        assert!(
            finite > 0 && null > 0,
            "{finite} finite, {null} null: {answer}"
        );
        // The typed decoder reads the `null` cells back as NaN and the
        // finite ones bit for bit.
        let (_, landscape) = parse_response_line(&answer).unwrap();
        assert_same_landscape(&landscape.unwrap(), &direct.landscape);
    }

    #[test]
    fn calibrate_and_frontier_lines_decode() {
        let calibrate =
            parse_request_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}")
                .unwrap();
        let WireRequest::Calibrate { id, target, n, r } = calibrate else {
            panic!("expected calibrate");
        };
        assert_eq!(id, "k1");
        assert!(matches!(target, WorkTarget::Base(of) if of == "s1"));
        assert_eq!((n, r), (2, 1.0));
        let frontier = parse_request_line(
            "{\"id\":\"f1\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"error_cost\",\"values\":[1e3,1e6]},\
             \"y\":{\"axis\":\"probe_cost\",\"values\":[1.0,2.0]}}}",
        )
        .unwrap();
        let WireRequest::Frontier { target, x, y, .. } = frontier else {
            panic!("expected frontier");
        };
        assert!(matches!(target, WorkTarget::Base(_)));
        assert_eq!(x.axis, ParamAxis::ErrorCost);
        assert_eq!(y.values, vec![1.0, 2.0]);
        // Unknown axis and missing target are named in the error.
        let bad = parse_request_line(
            "{\"id\":\"f2\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"rate\",\"values\":[1.0]},\
             \"y\":{\"axis\":\"q\",\"values\":[0.5]}}}",
        );
        assert!(bad.unwrap_err().message.contains("unknown frontier axis"));
        let bare = parse_request_line("{\"id\":\"k2\",\"calibrate\":{\"n\":2,\"r\":1.0}}");
        assert!(bare
            .unwrap_err()
            .message
            .contains("needs `of` or an inline `scenario`"));
    }

    #[test]
    fn pipelined_calibrate_of_pending_base_is_held_back_and_warm() {
        let mut session = PipelinedSession::new(engine(2), PipelineConfig::with_depth(4));
        // Sweep and dependent calibrate/frontier streamed back-to-back,
        // before the base completes.
        let mut out = session.submit_line(&sweep_line("s1"));
        out.extend(
            session.submit_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}"),
        );
        out.extend(session.submit_line(
            "{\"id\":\"f1\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"error_cost\",\"values\":[1e3,1e9]},\
             \"y\":{\"axis\":\"probe_cost\",\"values\":[0.5,2.0]}}}",
        ));
        assert!(out.is_empty(), "nothing answers before the base: {out:?}");
        assert_eq!(session.pending(), 3);
        let lines = session.drain();
        assert_eq!(lines.len(), 3, "{lines:?}");
        let calibrate = lines.iter().find(|l| l.contains("\"id\":\"k1\"")).unwrap();
        assert!(
            calibrate.contains("\"calibrate\":{\"error_cost\":"),
            "{calibrate}"
        );
        // The base sweep warmed the π cache; the statistic build misses
        // zero tables, and the frontier reuses the statistic outright.
        assert!(calibrate.contains("\"cache_misses\":0"), "{calibrate}");
        let frontier = lines.iter().find(|l| l.contains("\"id\":\"f1\"")).unwrap();
        assert!(
            frontier.contains("\"frontier\":{\"candidates\":4,\"points\":["),
            "{frontier}"
        );
        assert!(frontier.contains("\"cache_misses\":0"), "{frontier}");
    }

    #[test]
    fn inline_calibrate_answers_without_a_base() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        let line = handle(
            &mut session,
            "{\"id\":\"k1\",\"calibrate\":{\"n\":2,\"r\":1.0},\
             \"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
             \"grid\":{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}",
        )
        .unwrap();
        assert!(line.contains("\"id\":\"k1\""), "{line}");
        assert!(line.contains("\"calibrate\":{\"error_cost\":"), "{line}");
        let parsed = parse_json(&line).unwrap();
        let e_star = parsed
            .get("calibrate")
            .and_then(|c| c.get("error_cost"))
            .and_then(Json::num)
            .unwrap();
        assert!(e_star.is_finite() && e_star > 0.0, "{line}");
    }

    #[test]
    fn dependents_of_a_non_sweep_base_are_refused() {
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(4));
        session.submit_line(&sweep_line("s1"));
        session.submit_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}");
        // Chained on the *calibration*, which never becomes a sweep base.
        session.submit_line("{\"id\":\"r1\",\"rescore\":{\"of\":\"k1\",\"error_cost\":1e9}}");
        let lines = session.drain();
        let refused = lines.iter().find(|l| l.contains("\"id\":\"r1\"")).unwrap();
        assert!(refused.contains("no sweep with id `k1`"), "{refused}");
    }

    #[test]
    fn bases_past_the_budget_are_evicted_least_recently_referenced_first() {
        // Each base carries a quarter of the longest `r` list, so the
        // budget holds a handful and 21 bases overflow it several times.
        let r = vec!["1.0"; MAX_GRID_R_POINTS / 4].join(",");
        let sweep = |id: &str| {
            format!(
                "{{\"id\":\"{id}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
                 \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
                 \"grid\":{{\"n_max\":1,\"r\":[{r}]}},\"metrics\":[\"error_probability\"]}}"
            )
        };
        let rescore = |id: &str, of: &str| {
            format!("{{\"id\":\"{id}\",\"rescore\":{{\"of\":\"{of}\",\"error_cost\":1e9}}}}")
        };
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        let sent = 21;
        for i in 0..sent {
            let answer = handle(&mut session, &sweep(&format!("b{i:02}"))).unwrap();
            assert!(answer.contains("\"cells\""), "b{i:02} answered");
            assert!(session.bases.bytes <= MAX_RETAINED_BASE_BYTES);
        }
        let kept = session.bases.by_id.len();
        assert!(
            (2..=sent / 3).contains(&kept),
            "{kept} of {sent} bases kept"
        );
        assert_eq!(session.base_evictions(), (sent - kept) as u64);

        // The oldest base is gone, and the one error line says so.
        let mut lines = session.submit_line(&rescore("x0", "b00"));
        lines.extend(session.drain());
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("base sweep `b00` was evicted"),
            "{}",
            lines[0]
        );
        let unknown = handle(&mut session, &rescore("x1", "ghost")).unwrap();
        assert!(unknown.contains("no sweep with id `ghost`"), "{unknown}");
        let newest = handle(&mut session, &rescore("x2", "b20")).unwrap();
        assert!(newest.contains("\"cells\""), "the newest base is answered");

        // The answered rescore became a base and evicted the oldest one
        // left; referencing the next oldest now makes it the most recent,
        // so the following eviction passes it over.
        let oldest = format!("b{:02}", sent - kept + 1);
        let passed_over = handle(&mut session, &rescore("x3", &oldest)).unwrap();
        assert!(passed_over.contains("\"cells\""), "{oldest} answered");
        let evicted = format!("b{:02}", sent - kept + 2);
        let gone = handle(&mut session, &rescore("x4", &evicted)).unwrap();
        assert!(
            gone.contains(&format!("base sweep `{evicted}` was evicted")),
            "{gone}"
        );
        let kept_on = handle(&mut session, &rescore("x5", &oldest)).unwrap();
        assert!(kept_on.contains("\"cells\""), "{oldest} still retained");
        assert!(session.bases.bytes <= MAX_RETAINED_BASE_BYTES);
    }

    #[test]
    fn bases_are_charged_for_their_mixture_components() {
        let sweep = |id: &str| crate::testkit::mixture_sweep_line(id, MAX_MIXTURE_COMPONENTS);
        let rescore = |id: &str, of: &str| {
            format!("{{\"id\":\"{id}\",\"rescore\":{{\"of\":\"{of}\",\"error_cost\":1e9}}}}")
        };
        // A frontier references its base without becoming one (a rescore
        // is a sweep, so it would be retained too).
        let frontier = |id: &str, of: &str| {
            format!(
                "{{\"id\":\"{id}\",\"frontier\":{{\"of\":\"{of}\",\
                 \"x\":{{\"axis\":\"error_cost\",\"values\":[1e9]}},\
                 \"y\":{{\"axis\":\"probe_cost\",\"values\":[2.0]}}}}}}"
            )
        };
        let answers = |session: &mut PipelinedSession, line: &str, member: &str| {
            let answer = handle(session, line).unwrap();
            assert!(
                answer.contains(member),
                "{}",
                &answer[..answer.len().min(200)]
            );
        };
        // One `r` value each: a mixture at the component cap is nearly all
        // of a base's charge, so a handful of bases fill the budget. Charged
        // for their `r` list and id alone, about a thousand would fit.
        let mut session = PipelinedSession::new(engine(1), PipelineConfig::with_depth(1));
        answers(&mut session, &sweep("m00"), "\"cells\"");
        let charge = session.bases.bytes;
        let fit = MAX_RETAINED_BASE_BYTES / charge;
        assert!((2..64).contains(&fit), "{fit} bases of {charge} bytes fit");
        for i in 1..fit {
            answers(&mut session, &sweep(&format!("m{i:02}")), "\"cells\"");
        }
        assert_eq!(session.base_evictions(), 0);

        // Referencing `m00` leaves `m01` the least recently referenced, and
        // one more base evicts it alone.
        answers(&mut session, &frontier("f0", "m00"), "\"frontier\"");
        answers(&mut session, &sweep(&format!("m{fit:02}")), "\"cells\"");
        assert_eq!(session.base_evictions(), 1);
        assert_eq!(session.bases.by_id.len(), fit);
        assert!(session.bases.bytes <= MAX_RETAINED_BASE_BYTES);
        answers(
            &mut session,
            &rescore("x1", "m01"),
            "base sweep `m01` was evicted",
        );
        answers(&mut session, &frontier("f1", "m00"), "\"frontier\"");

        // A base over the budget on its own, here through its id, still
        // serves the work held back behind it, is not kept, and evicts no
        // other base.
        let huge = "h".repeat(MAX_RETAINED_BASE_BYTES);
        let mut lines = session.submit_line(&sweep(&huge));
        lines.extend(session.submit_line(&frontier("held", &huge)));
        assert!(lines.is_empty(), "{lines:?}");
        assert_eq!(session.pending(), 2);
        let lines = session.drain();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.contains("\"cells\"")));
        assert!(lines.iter().any(|l| l.contains("\"frontier\"")));
        assert_eq!(session.bases.by_id.len(), fit, "the other bases stay");
        assert_eq!(session.base_evictions(), 2);
        assert!(session.bases.bytes <= MAX_RETAINED_BASE_BYTES);
        answers(&mut session, &rescore("late", &huge), "was evicted");
        answers(
            &mut session,
            &frontier("f2", &format!("m{fit:02}")),
            "\"frontier\"",
        );
    }

    #[test]
    fn a_reused_id_is_counted_and_cancelled_once_per_request() {
        // One executor, busy with a cold sweep, so the requests behind it
        // are still queued when they are cancelled. The sweeps build
        // 20,000 and 30,000 fresh π-tables, which outlast the submits and
        // the cancel even in a release build with every other unit test
        // running beside this one.
        let team = Arc::new(ExecutorTeam::new(Arc::new(engine(1)), 1));
        let mut session = PipelinedSession::with_team(team, PipelineConfig::with_depth(8));
        let heavy = |id: &str, r_points| crate::testkit::heavy_sweep_line(id, 32, r_points);
        let rescore = |error_cost: f64| {
            format!("{{\"id\":\"r\",\"rescore\":{{\"of\":\"dup\",\"error_cost\":{error_cost:?}}}}}")
        };
        for line in [
            heavy("b1", 20_000),
            heavy("dup", 400),
            heavy("dup", 400),
            rescore(1e9),
            rescore(1e8),
        ] {
            assert!(session.submit_line(&line).is_empty());
        }
        assert_eq!(session.pending(), 5, "three in the pipeline, two held back");

        // Both held rescores under `r` are withdrawn, one answer each.
        let cancelled = session.submit_line("{\"id\":\"c\",\"cancel\":\"r\"}");
        assert_eq!(cancelled.len(), 3, "{cancelled:?}");
        assert_eq!(session.pending(), 3);

        // A cancel line flags both requests in the pipeline under `dup`,
        // and hanging up flags both under `hup`.
        let ack = session.submit_line("{\"id\":\"c\",\"cancel\":\"dup\"}");
        assert_eq!(ack.len(), 1, "{ack:?}");
        let mut lines = session.drain();
        for line in [heavy("b2", 30_000), heavy("hup", 400), heavy("hup", 400)] {
            assert!(session.submit_line(&line).is_empty());
        }
        assert_eq!(session.pending(), 3);
        assert!(session.cancel_all().is_empty());
        lines.extend(session.drain());
        assert_eq!(lines.len(), 6, "{lines:?}");
        assert_eq!(session.pending(), 0);
        for id in ["dup", "hup"] {
            let answers: Vec<&String> = lines
                .iter()
                .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
                .collect();
            assert_eq!(answers.len(), 2, "{answers:?}");
            assert!(
                answers.iter().all(|l| l.contains("cancelled")),
                "{answers:?}"
            );
        }
    }
}
