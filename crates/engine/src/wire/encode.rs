use std::fmt::Write;

use super::decode::{VERB_CALIBRATE, VERB_FRONTIER, WIRE_VERSION};
use super::float::{
    is_number_byte, number_token, push_f64, push_u64, read_digits, read_f64, F64_TEXT_MAX,
};
use super::json::{eat, err, parse_object, push_json_str, skip_ws, Json, WireError};
use crate::pipeline::PipelineStats;
use crate::request::BatchStats;
use crate::{
    CalibrateResponse, EngineError, EngineStats, FrontierResponse, Landscape, SweepResponse,
    WorkResponse,
};

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
        let n_at = *pos;
        let n = cell_n(text, pos);
        if n == Some(1) && rows > 0 {
            end_column(&mut n_max, rows, at)?;
            rows = 0;
        }
        rows += 1;
        if n != Some(rows) {
            let token = text.get(n_at..*pos).unwrap_or_default();
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
        } else if !eat_value(bytes, pos, r_text) {
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

/// A cell's `n`, leaving `pos` after its number token: a run of at most
/// nine digits read in place, or else the token as `u32::from_str` reads
/// it (`+1`, say), `None` when that refuses it.
fn cell_n(text: &str, pos: &mut usize) -> Option<u32> {
    let start = *pos;
    let mut n = 0;
    let digits = read_digits(text.as_bytes(), pos, &mut n);
    if (1..=9).contains(&digits)
        && !text
            .as_bytes()
            .get(*pos)
            .copied()
            .is_some_and(is_number_byte)
    {
        return u32::try_from(n).ok();
    }
    *pos = start;
    number_token(text, pos).parse::<u32>().ok()
}

/// One cell value: a number, or `null`, which [`push_f64`] writes for a
/// value that is not finite, read back as NaN. A number is any JSON
/// number, not only the `{:?}` bytes [`push_f64`] writes, and parses to
/// the float it names, so a written cell reads back to its own bits.
fn cell_value(text: &str, pos: &mut usize) -> Result<f64, WireError> {
    if eat(text.as_bytes(), pos, "null") {
        return Ok(f64::NAN);
    }
    read_f64(text, pos)
}

/// Consumes a cell value whose text is `value` (a column's `r`, as its
/// first cell has it), comparing bytes in place: `null`, or the whole
/// number token.
fn eat_value(bytes: &[u8], pos: &mut usize, value: &str) -> bool {
    eat(bytes, pos, value)
        && (value == "null" || !bytes.get(*pos).copied().is_some_and(is_number_byte))
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
pub(super) fn error_line(id: &str, error: &EngineError) -> String {
    WireResponse::error(id, error).to_line()
}

pub(super) fn invalid(what: impl Into<String>) -> EngineError {
    EngineError::InvalidRequest { what: what.into() }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wire::parse_json;
    use crate::FrontierPoint;

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
    pub(crate) fn assert_same_landscape(got: &Landscape, expected: &Landscape) {
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
    pub(crate) fn head_of(line: &str) -> Json {
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
}
