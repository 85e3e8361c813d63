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
//! [`PipelinedSession`] speaks the protocol: it submits requests to an
//! [`ExecutorTeam`](crate::ExecutorTeam) itself, keeping several in flight and
//! emitting responses in **completion order** (out of order with respect
//! to the input when a short sweep overtakes a long one). Rescores of a
//! still-in-flight base are held back and dispatched the moment the base
//! completes. A session keeps completed sweeps as bases within
//! [`MAX_RETAINED_BASE_BYTES`], evicting the least recently referenced
//! one past it. A depth-1 session with `submit_line` + `drain` per line is
//! the blocking form: one line in, one line out, in order.

mod decode;
mod encode;
mod float;
mod json;
mod session;

pub use crate::request::{
    MAX_FRONTIER_POINTS, MAX_GRID_CELLS, MAX_GRID_N_MAX, MAX_GRID_R_POINTS, MAX_JSON_DEPTH,
    MAX_MIXTURE_COMPONENTS, MAX_REQUEST_VALUES, MAX_RETAINED_BASE_BYTES,
};
pub use decode::{
    check_version, decode_line, decode_request, line_id, parse_request_line, WireRequest,
    WorkTarget, VERB_CALIBRATE, VERB_FRONTIER, WIRE_VERSION,
};
pub use encode::{parse_response_line, LineCursor, ResponseDecoder, WireResponse};
pub use float::push_f64;
pub use json::{parse_json, parse_request_json, push_json_str, Json, WireError};
pub use session::PipelinedSession;
