use std::fmt::Write;
use std::ops::Range;

use super::decode::{VERB_CALIBRATE, VERB_FRONTIER, WIRE_VERSION};
use super::float::{
    is_number_byte, number_token, push_ascii, push_f64, read_digits, read_f64, write_count,
    write_f64, F64_REACH, F64_TEXT_MAX,
};
use super::json::{eat, err, parse_object, push_json_str, skip_ws, Json, WireError};
use crate::pipeline::PipelineStats;
use crate::request::{BatchStats, WorkResponse};
use crate::{
    CalibrateResponse, EngineError, EngineStats, FrontierResponse, Landscape, SweepResponse,
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

/// The stack buffer a run of cells is assembled in, from the run's last
/// `}` backwards: as many whole cells as [`cell_text_max`] lets fit after
/// [`F64_REACH`] bytes of slack for the fixed-size stores that reach
/// before a value's start. A run is appended with one `push_str`, whose
/// UTF-8 check costs far less per byte over kilobytes than over one cell.
const RUN_BUFFER: usize = 4096;

/// Writes the cells `cells` of a sweep's `cells` array: one object per
/// cell, in the landscape's `r`-major order, each after a comma but the
/// grid's first. Cells are assembled in runs in a stack buffer, each run
/// from its last cell's `}` backwards, and each run is appended with one
/// `push_str`. A cell's metrics are laid out by [`write_f64`], the layout
/// [`push_f64`] writes; its column's `r` text (laid out once per column
/// and run) and its keys go in by fixed-size copies, and its `n` by
/// [`write_count`], so no cell reaches `core::fmt`.
fn push_cells(out: &mut String, landscape: &Landscape, cells: Range<usize>) {
    let n_max = landscape.n_max() as usize;
    let costs = landscape.costs();
    let errors = landscape.errors();
    let per_run = (RUN_BUFFER - F64_REACH) / cell_text_max(landscape);
    let mut run = [0; RUN_BUFFER];
    let mut r_text = [0; F64_REACH];
    let (mut column, mut r_len) = (usize::MAX, 0);
    let mut first = cells.start;
    while first < cells.end {
        let last = cells.end.min(first + per_run);
        let mut at = RUN_BUFFER;
        for index in (first..last).rev() {
            if index / n_max != column {
                column = index / n_max;
                r_len = F64_REACH - write_f64(&mut r_text, F64_REACH, landscape.r_values()[column]);
            }
            at -= 1;
            run[at] = b'}';
            if let Some(errors) = errors {
                at = write_f64(&mut run, at, errors[index]);
                at = put_before(&mut run, at, CELL_ERROR);
            }
            if let Some(costs) = costs {
                at = write_f64(&mut run, at, costs[index]);
                at = put_before(&mut run, at, CELL_COST);
            }
            // The `r` text and the bytes before it, in one fixed-size copy.
            run[at - F64_TEXT_MAX..at].copy_from_slice(&r_text[F64_REACH - F64_TEXT_MAX..]);
            at = put_before(&mut run, at - r_len, CELL_R);
            at = write_count(&mut run, at, (index - column * n_max + 1) as u32);
            at = put_before(&mut run, at, CELL_N);
            if index > 0 {
                at = put_before(&mut run, at, ",");
            }
        }
        push_ascii(out, &run[at..]);
        first = last;
    }
}

/// Copies `key` so that it ends at `end` in `run`, and returns where it
/// starts.
fn put_before(run: &mut [u8; RUN_BUFFER], end: usize, key: &str) -> usize {
    let start = end - key.len();
    run[start..end].copy_from_slice(key.as_bytes());
    start
}

/// A line's `cells` array decoded as far as its text has arrived: the
/// inverse of [`push_cells`].
#[derive(Debug)]
struct CellsDecoder {
    /// The byte where the member's value starts.
    start: usize,
    /// The byte where the next cell starts, once the `[` is read.
    at: Option<usize>,
    /// Whether the `]` has been read.
    ended: bool,
    r_values: Vec<f64>,
    costs: Vec<f64>,
    errors: Vec<f64>,
    /// The first column's length once it has ended, and this column's
    /// length so far.
    n_max: u32,
    rows: u32,
    /// Where this column's `r` text lies in the line.
    r_text: Range<usize>,
}

impl CellsDecoder {
    fn new(start: usize) -> CellsDecoder {
        CellsDecoder {
            start,
            at: None,
            ended: false,
            r_values: Vec::new(),
            costs: Vec::new(),
            errors: Vec::new(),
            n_max: 0,
            rows: 0,
            r_text: 0..0,
        }
    }

    /// Decodes every cell `text` holds from where decoding stands, up to
    /// the end of the array or the first cell that fails.
    fn advance(&mut self, text: &str) -> Result<(), WireError> {
        let bytes = text.as_bytes();
        let mut pos = match self.at {
            Some(at) => at,
            None => {
                let mut pos = self.start;
                skip_ws(bytes, &mut pos);
                if !eat(bytes, &mut pos, "[") {
                    return Err(err(format!("`cells` at byte {pos} is not an array")));
                }
                pos
            }
        };
        self.at = Some(pos);
        while !self.ended {
            self.ended = self.cell(text, &mut pos)?;
            self.at = Some(pos);
        }
        Ok(())
    }

    /// Decodes the cell at `pos` and the `,` or `]` after it, leaving `pos`
    /// past them, and returns whether that ended the array. A cell that
    /// fails changes nothing but `pos`: it is committed only once its last
    /// byte has been read, so a cell cut short by the end of the bytes
    /// received so far can be decoded again once more have arrived.
    fn cell(&mut self, text: &str, pos: &mut usize) -> Result<bool, WireError> {
        let bytes = text.as_bytes();
        let at = *pos;
        if !eat(bytes, pos, CELL_N) {
            return Err(err(format!("expected a cell at byte {at}")));
        }
        let n_at = *pos;
        let n = cell_n(text, pos);
        let (mut n_max, mut rows) = (self.n_max, self.rows);
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
        let r = if rows == 1 {
            let start = *pos;
            Some((cell_value(text, pos)?, start..*pos))
        } else {
            let r_text = text.get(self.r_text.clone()).unwrap_or_default();
            if !eat_value(bytes, pos, r_text) {
                return Err(err(format!(
                    "cell at byte {at} has an `r` other than its column's {r_text}"
                )));
            }
            None
        };
        let cost = if eat(bytes, pos, CELL_COST) {
            Some(cell_value(text, pos)?)
        } else {
            None
        };
        let error = if eat(bytes, pos, CELL_ERROR) {
            Some(cell_value(text, pos)?)
        } else {
            None
        };
        if !eat(bytes, pos, "}") {
            return Err(err(format!(
                "cell at byte {at} has a member other than n, r, mean_cost, error_probability"
            )));
        }
        let last = eat(bytes, pos, "]");
        if !last && !eat(bytes, pos, ",") {
            return Err(err(format!(
                "expected `,` or `]` after the cell at byte {at}"
            )));
        }
        (self.n_max, self.rows) = (n_max, rows);
        if let Some((r, r_text)) = r {
            self.r_values.push(r);
            self.r_text = r_text;
        }
        self.costs.extend(cost);
        self.errors.extend(error);
        Ok(last)
    }

    /// Decodes the rest of the array in `text`, the whole line, leaving
    /// `pos` after it, and builds the landscape.
    fn finish(mut self, text: &str, pos: &mut usize) -> Result<Landscape, WireError> {
        self.advance(text)?;
        *pos = self.at.unwrap_or(self.start);
        end_column(&mut self.n_max, self.rows, *pos)?;
        if self.costs.is_empty() && self.errors.is_empty() {
            return Err(err("cells carry neither mean_cost nor error_probability"));
        }
        // A slab that is neither empty nor as long as the grid is a metric
        // some cells lack, and `Landscape::new` refuses it.
        let slab = |values: Vec<f64>| (!values.is_empty()).then_some(values);
        Landscape::new(
            self.n_max,
            self.r_values,
            slab(self.costs),
            slab(self.errors),
        )
        .map_err(|_| err("a metric is missing from some cells"))
    }
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

/// A cell's `n`, leaving `pos` after its number token: one to nine digits
/// without a leading zero, read in place, or `None` for any other token
/// (`+1`, `01`, `1.0`), whose text the caller quotes.
fn cell_n(text: &str, pos: &mut usize) -> Option<u32> {
    let bytes = text.as_bytes();
    let start = *pos;
    let mut n = 0;
    let digits = read_digits(bytes, pos, &mut n);
    if (1..=9).contains(&digits)
        && bytes[start] != b'0'
        && !bytes.get(*pos).copied().is_some_and(is_number_byte)
    {
        return u32::try_from(n).ok();
    }
    *pos = start;
    number_token(text, pos);
    None
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
/// so the object never holds `cells`. It is [`ResponseDecoder`] run on the
/// whole line at once.
///
/// The cells are read in the layout [`WireResponse::to_line`] writes and
/// no other: `{"n":…,"r":…}` followed by `mean_cost` and then
/// `error_probability`, with no whitespace. A column starts where `n`
/// returns to 1, every `n` must be its row in the column, written as
/// digits with no leading zero, and every column must be as long as the
/// first. A column's `r` is parsed at its first cell; the other cells' `r`
/// texts must be the same bytes. A metric must be in every cell or in
/// none, and `null` reads back as NaN.
///
/// # Errors
///
/// A [`WireError`] for every line [`parse_json`] refuses, for a line that
/// is not an object, for a second `cells` member, and for `cells` that are
/// not a landscape as [`WireResponse::to_line`] writes one.
pub fn parse_response_line(line: &str) -> Result<(Json, Option<Landscape>), WireError> {
    decode_response(line, None)
}

/// Decodes the whole `line`, resuming its `cells` from `started` when
/// that decoder was run on a prefix of it.
fn decode_response(
    line: &str,
    mut started: Option<CellsDecoder>,
) -> Result<(Json, Option<Landscape>), WireError> {
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
            let cells = match started.take() {
                Some(cells) if cells.start == *pos => cells,
                _ => CellsDecoder::new(*pos),
            };
            landscape = Some(cells.finish(text, pos)?);
            Ok(true)
        },
    )?;
    skip_ws(bytes, &mut pos);
    if pos != line.len() {
        return Err(err(format!("trailing input at byte {pos}")));
    }
    Ok((head, landscape))
}

/// The byte where the top-level `cells` member's value starts, if the
/// object's members up to it are all in `text` (a prefix of a line).
fn find_cells(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return None;
    }
    let mut found = None;
    // The hook stops the parse at `cells`; its error only ends the walk.
    let _ = parse_object(
        text,
        &mut pos,
        1,
        &mut None,
        &mut |key: &str, _: &str, pos: &mut usize| {
            if key != "cells" {
                return Ok(false);
            }
            found = Some(*pos);
            Err(err("found"))
        },
    );
    found
}

/// Decodes one response line as its text arrives, so a large answer is
/// decoded while the rest of it is still on its way: each cell is decoded
/// as soon as its last byte has been pushed. [`parse_response_line`] is
/// this decoder run on a whole line; [`ResponseDecoder::finish`] gives its
/// result for the same line, error texts included.
///
/// Pushed text is kept as the line. The head is parsed up to `cells` once
/// it has arrived, and then every complete cell is decoded; whatever is
/// left, the head's other members included, is decoded by `finish`. A
/// failure before the line has ended is not reported: the text may be cut
/// short, and `finish` decodes that cell again on the whole line.
#[derive(Debug, Default)]
pub struct ResponseDecoder {
    line: String,
    cells: Option<CellsDecoder>,
    /// The line length at which to look for `cells` again: doubled at each
    /// miss, so a long line without `cells` is parsed a bounded number of
    /// times before it ends.
    find_at: usize,
}

impl ResponseDecoder {
    /// Appends `text` to the line and decodes every cell it completes.
    pub fn push(&mut self, text: &str) {
        self.line.push_str(text);
        if self.cells.is_none() {
            if self.line.len() < self.find_at {
                return;
            }
            match find_cells(&self.line) {
                Some(start) => self.cells = Some(CellsDecoder::new(start)),
                None => {
                    self.find_at = 2 * self.line.len();
                    return;
                }
            }
        }
        if let Some(cells) = &mut self.cells {
            // A cell cut short by the end of the text so far fails here
            // and is decoded again when more arrives.
            let _ = cells.advance(&self.line);
        }
    }

    /// The line pushed so far.
    #[must_use]
    pub fn line(&self) -> &str {
        &self.line
    }

    /// Ends the line with `rest`, its last text: the whole line and its
    /// decode, which is [`parse_response_line`]'s, a [`WireError`]
    /// included. `rest` is not looked at before the line is whole, so a
    /// line that arrives in one piece is parsed once.
    pub fn finish(mut self, rest: &str) -> (String, Result<(Json, Option<Landscape>), WireError>) {
        self.line.push_str(rest);
        let decoded = decode_response(&self.line, self.cells);
        (self.line, decoded)
    }

    /// Ends the line with `rest`, its last text, without decoding it.
    #[must_use]
    pub fn into_line(mut self, rest: &str) -> String {
        self.line.push_str(rest);
        self.line
    }
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
        /// The pipeline's depth: its executor team's size.
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

    /// Wraps one evaluation's outcome — success of any verb, or failure —
    /// into the matching response.
    #[must_use]
    pub(crate) fn from_result(id: &str, result: Result<WorkResponse, EngineError>) -> WireResponse {
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

    /// Serializes this response as one JSON line (no trailing newline):
    /// [`WireResponse::write_slice`] run to the end of the line in one
    /// slice, so a line written whole and one written in slices are the
    /// same bytes. The single writer of the response wire format.
    ///
    /// A sweep's line is sized up front to an upper bound of the line plus
    /// the newline a transport appends, so it never regrows and can become
    /// a socket write chunk as it is. Floats are written in
    /// [`push_f64`]'s one layout: Ryū's shortest round-trip digits in the
    /// bytes of `{:?}`, and infinities and NaN as `null`. A sweep's cells,
    /// the bulk of any large line, are written with no `core::fmt` call.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(self.line_capacity());
        self.write_slice(&mut LineCursor::default(), &mut out, usize::MAX);
        out
    }

    /// Appends the next slice of this response's line to `out`, from where
    /// `cursor` stands, moves `cursor` past it and returns whether the line
    /// is complete.
    ///
    /// A slice grows `out` by at most `budget` bytes. A sweep's line is
    /// written in pieces: its head (through `"cells":[`), each cell and its
    /// tail (`]` and the stats member), and the slice stops before the
    /// first piece whose upper bound no longer fits; every other line is
    /// one piece. A slice holds at least one piece, so the line always
    /// moves on, also when that piece alone is over `budget` (a head with
    /// a long id). A cursor at the end of the line writes nothing.
    pub fn write_slice(&self, cursor: &mut LineCursor, out: &mut String, budget: usize) -> bool {
        let done = match (self, cursor.0) {
            (_, Stage::Done) => true,
            (WireResponse::Sweep { id, response }, _) => {
                write_sweep_slice(id, response, &mut cursor.0, out, budget)
            }
            (WireResponse::Calibrate { id, response }, _) => {
                push_open(out, Some(id));
                let _ = write!(out, ",\"{VERB_CALIBRATE}\":{{\"error_cost\":");
                push_f64(out, response.error_cost);
                let _ = write!(out, ",\"n\":{},\"r\":", response.n);
                push_f64(out, response.r);
                out.push_str(",\"mean_cost\":");
                push_f64(out, response.cost);
                out.push_str(",\"error_probability\":");
                push_f64(out, response.error_probability);
                out.push_str("},");
                push_stats(out, &response.stats);
                out.push('}');
                true
            }
            (WireResponse::Frontier { id, response }, _) => {
                push_open(out, Some(id));
                let _ = write!(
                    out,
                    ",\"{VERB_FRONTIER}\":{{\"candidates\":{},\"points\":[",
                    response.candidates
                );
                for (i, p) in response.points.iter().enumerate() {
                    out.push_str(if i > 0 { ",{\"x\":" } else { "{\"x\":" });
                    push_f64(out, p.x);
                    out.push_str(",\"y\":");
                    push_f64(out, p.y);
                    let _ = write!(out, ",\"n\":{},\"r\":", p.n);
                    push_f64(out, p.r);
                    out.push_str(",\"mean_cost\":");
                    push_f64(out, p.cost);
                    out.push_str(",\"error_probability\":");
                    push_f64(out, p.error_probability);
                    out.push('}');
                }
                out.push_str("]},");
                push_stats(out, &response.stats);
                out.push('}');
                true
            }
            (WireResponse::Cancelled { id, of }, _) => {
                push_open(out, Some(id));
                out.push_str(",\"cancelled\":");
                push_json_str(out, of);
                out.push('}');
                true
            }
            (WireResponse::Error { id, message }, _) => {
                push_open(out, Some(id));
                out.push_str(",\"error\":");
                push_json_str(out, message);
                out.push('}');
                true
            }
            (
                WireResponse::Stats {
                    engine: s,
                    pipeline: p,
                    depth,
                },
                _,
            ) => {
                push_open(out, None);
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
                     \"queue_ns_total\":{},\"queue_ns_max\":{},\"service_ns_total\":{},\"service_ns_max\":{}}}}}}}",
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
                true
            }
        };
        if done {
            cursor.0 = Stage::Done;
        }
        done
    }

    /// An upper bound on the bytes of this response's line not yet written
    /// at `cursor`, and the newline a transport appends: `Some` for a
    /// sweep's line, the one line large enough to write in slices, and
    /// `None` for every other line. A sweep's bound is the one
    /// [`WireResponse::to_line`] sizes its line from: an upper bound per
    /// cell, six bytes per byte of the id (escaping grows it at most
    /// sixfold, `\u001f`) and [`SHORT_LINE`] for the rest.
    #[must_use]
    pub fn unwritten_bound(&self, cursor: &LineCursor) -> Option<usize> {
        let WireResponse::Sweep { id, response } = self else {
            return None;
        };
        let landscape = &response.landscape;
        let (cells, head) = match cursor.0 {
            Stage::Start => (landscape.len(), 6 * id.len()),
            Stage::Cells(next) => (landscape.len() - next, 0),
            Stage::Done => return Some(0),
        };
        Some(cells * cell_text_max(landscape) + head + SHORT_LINE)
    }

    /// The capacity [`WireResponse::to_line`] starts from: a sweep's
    /// [`WireResponse::unwritten_bound`] from the start of its line, and
    /// [`SHORT_LINE`] for every other line. Only a sweep's line is large
    /// enough for a regrow to cost anything.
    fn line_capacity(&self) -> usize {
        self.unwritten_bound(&LineCursor::default())
            .unwrap_or(SHORT_LINE)
    }
}

/// Where [`WireResponse::write_slice`] stands in a response's line. A
/// fresh cursor stands at the start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCursor(Stage);

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Stage {
    /// Nothing written.
    #[default]
    Start,
    /// A sweep's head and this many of its cells are written.
    Cells(usize),
    /// The whole line is written.
    Done,
}

/// Writes `{"v":…`, and `,"id":…` when the line has an id.
fn push_open(out: &mut String, id: Option<&str>) {
    let _ = write!(out, "{{\"v\":{WIRE_VERSION}");
    if let Some(id) = id {
        out.push_str(",\"id\":");
        push_json_str(out, id);
    }
}

/// One slice of a sweep's line (see [`WireResponse::write_slice`]): cells
/// go in runs of as many as their upper bound lets fit in the room left,
/// so a slice checks its budget once per run, not once per cell.
fn write_sweep_slice(
    id: &str,
    response: &SweepResponse,
    stage: &mut Stage,
    out: &mut String,
    budget: usize,
) -> bool {
    let start = out.len();
    let room = |out: &String| budget.saturating_sub(out.len() - start);
    let landscape = &response.landscape;
    let mut next = match *stage {
        Stage::Start => {
            push_open(out, Some(id));
            out.push_str(",\"cells\":[");
            0
        }
        Stage::Cells(next) => next,
        Stage::Done => return true,
    };
    let cell_max = cell_text_max(landscape);
    while next < landscape.len() {
        let fit = match room(out) / cell_max {
            0 if out.len() == start => 1,
            fit => fit,
        };
        if fit == 0 {
            *stage = Stage::Cells(next);
            return false;
        }
        let end = landscape.len().min(next.saturating_add(fit));
        push_cells(out, landscape, next..end);
        next = end;
    }
    if room(out) < SHORT_LINE && out.len() > start {
        *stage = Stage::Cells(next);
        return false;
    }
    out.push_str("],");
    push_stats(out, &response.stats);
    out.push('}');
    true
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
    use zeroconf_rng::{rngs::StdRng, RngCore, SeedableRng};

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

    /// Writes `response` in slices of at most `budget` bytes and returns
    /// them, checking that each moves the line on, keeps to `budget`
    /// unless it is one piece over it, and stays under the bound of what
    /// was left to write; for a sweep, that a slice ends early only where
    /// one more cell or the tail might not fit.
    fn slices(response: &WireResponse, budget: usize) -> Vec<String> {
        let (largest_piece, cell_max) = match response {
            WireResponse::Sweep { id, response } => {
                let cell_max = cell_text_max(&response.landscape);
                (SHORT_LINE + 6 * id.len() + cell_max, cell_max)
            }
            other => (other.to_line().len(), 0),
        };
        let mut cursor = LineCursor::default();
        let mut slices = Vec::new();
        loop {
            let bound = response.unwritten_bound(&cursor);
            let mut slice = String::new();
            let done = response.write_slice(&mut cursor, &mut slice, budget);
            assert!(!slice.is_empty(), "a slice moves the line on");
            assert!(slice.len() <= budget.max(largest_piece), "{}", slice.len());
            assert!(bound.is_none_or(|bound| slice.len() < bound));
            if !done && budget >= largest_piece {
                assert!(slice.len() + cell_max.max(SHORT_LINE) > budget);
            }
            slices.push(slice);
            if done {
                break;
            }
        }
        assert_eq!(response.unwritten_bound(&cursor).unwrap_or(0), 0);
        let mut at_end = String::new();
        assert!(response.write_slice(&mut cursor, &mut at_end, budget));
        assert!(at_end.is_empty(), "a finished line writes nothing");
        slices
    }

    #[test]
    fn every_slice_budget_writes_the_bytes_of_to_line() {
        for response in golden_fixtures() {
            let line = response.to_line();
            assert_eq!(slices(&response, usize::MAX), std::slice::from_ref(&line));
            for budget in 1..=line.len() + 1 {
                assert_eq!(slices(&response, budget).concat(), line, "budget {budget}");
            }
        }
        // Answers the size of `landscape-warm`'s, at the daemon's slice size.
        let mut rng = StdRng::seed_from_u64(27);
        for case in 0..8 {
            let response = random_sweep(&mut rng, &format!("w{case}"));
            let pieces = slices(&response, 64 * 1024);
            assert!(pieces.len() > 1);
            assert_eq!(pieces.concat(), response.to_line());
        }
    }

    /// A seeded `landscape-warm`-sized answer: 16 × 100 cells of random
    /// bits (some not finite), one metric or both.
    fn random_sweep(rng: &mut StdRng, id: &str) -> WireResponse {
        let metrics = rng.next_u64() % 3;
        let wall_nanos = u128::from(rng.next_u64());
        let mut value = || match rng.next_u64() % 16 {
            0 => f64::INFINITY,
            1 => f64::NAN,
            _ => f64::from_bits(rng.next_u64()),
        };
        let r_values: Vec<f64> = (0..100).map(|_| value()).collect();
        let mut slab = || Some((0..1600).map(|_| value()).collect::<Vec<f64>>());
        let (costs, errors) = match metrics {
            0 => (slab(), None),
            1 => (None, slab()),
            _ => (slab(), slab()),
        };
        WireResponse::Sweep {
            id: id.to_owned(),
            response: SweepResponse {
                landscape: Landscape::new(16, r_values, costs, errors).unwrap(),
                stats: golden_stats(wall_nanos),
            },
        }
    }

    /// One cell as `format!` and `{:?}` write it, `null` for a value that
    /// is not finite: the cell writer's oracle, sharing none of its code.
    fn cell_by_format(n: usize, r: f64, cost: Option<f64>, error: Option<f64>) -> String {
        let value = |x: f64| {
            if x.is_finite() {
                format!("{x:?}")
            } else {
                "null".to_owned()
            }
        };
        let mut cell = format!("{{\"n\":{n},\"r\":{}", value(r));
        if let Some(cost) = cost {
            cell += &format!(",\"mean_cost\":{}", value(cost));
        }
        if let Some(error) = error {
            cell += &format!(",\"error_probability\":{}", value(error));
        }
        cell + "}"
    }

    #[test]
    fn every_cell_matches_its_format_oracle() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut metric_sets = Vec::new();
        for case in 0..12 {
            let response = random_sweep(&mut rng, &format!("o{case}"));
            let WireResponse::Sweep {
                response: sweep, ..
            } = &response
            else {
                panic!("random_sweep answers a sweep");
            };
            let landscape = &sweep.landscape;
            let n_max = landscape.n_max() as usize;
            let expected: Vec<String> = (0..landscape.len())
                .map(|i| {
                    cell_by_format(
                        i % n_max + 1,
                        landscape.r_values()[i / n_max],
                        landscape.costs().map(|costs| costs[i]),
                        landscape.errors().map(|errors| errors[i]),
                    )
                })
                .collect();
            // Cell by cell, each after a comma but the grid's first; the
            // whole line then holds them written in runs.
            for (i, cell) in expected.iter().enumerate() {
                let mut text = String::new();
                push_cells(&mut text, landscape, i..i + 1);
                let comma = if i > 0 { "," } else { "" };
                assert_eq!(text, format!("{comma}{cell}"), "cell {i} of case {case}");
            }
            let cells = format!("\"cells\":[{}]", expected.join(","));
            assert!(response.to_line().contains(&cells), "case {case}");
            metric_sets.push((landscape.costs().is_some(), landscape.errors().is_some()));
        }
        for metrics in [(true, true), (true, false), (false, true)] {
            assert!(
                metric_sets.contains(&metrics),
                "{metrics:?} in {metric_sets:?}"
            );
        }
    }

    /// Decodes `line` pushed as its text up to each char boundary and then
    /// the rest, expecting [`parse_response_line`]'s result every time.
    fn assert_every_split_decodes_as_whole(line: &str) {
        let whole = decoded(parse_response_line(line));
        for split in (0..=line.len()).filter(|&k| line.is_char_boundary(k)) {
            let mut decoder = ResponseDecoder::default();
            decoder.push(&line[..split]);
            let (text, result) = decoder.finish(&line[split..]);
            assert_eq!(text, line);
            assert_eq!(decoded(result), whole, "split at {split}: {line}");
        }
    }

    /// A decode's head, and its landscape's `n_max` and values as bits.
    type Bits = Result<(Json, Option<Vec<Vec<u64>>>), WireError>;

    /// A decode in a comparable form: the head, and every landscape value
    /// as bits.
    fn decoded(result: Result<(Json, Option<Landscape>), WireError>) -> Bits {
        result.map(|(head, landscape)| {
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
            let landscape = landscape.map(|l| {
                vec![
                    vec![u64::from(l.n_max())],
                    bits(l.r_values()),
                    l.costs().map_or_else(Vec::new, bits),
                    l.errors().map_or_else(Vec::new, bits),
                ]
            });
            (head, landscape)
        })
    }

    #[test]
    fn every_split_of_a_line_decodes_as_the_whole_line() {
        for golden in GOLDEN_LINES {
            assert_every_split_decodes_as_whole(golden);
        }
        for (cells, _) in MALFORMED_CELLS {
            assert_every_split_decodes_as_whole(&format!(
                "{{\"v\":1,\"id\":\"s\",\"cells\":{cells}}}"
            ));
        }
        for line in [
            "[1]",
            r#"{"cells":[{"n":1,"r":1.0,"mean_cost":1.0}],"cells":[{"n":1,"r":1.0,"mean_cost":1.0}]}"#,
            r#"{"cells":[{"n":1,"r":1.0,"mean_cost":1.0}]} x"#,
            r#"{"cells":[{"n":+1,"r":1.0,"mean_cost":1.0}]}"#,
            r#" {"v":1 , "cells" : [{"n":1,"r":2.5,"mean_cost":1.0},{"n":2,"r":2.5,"mean_cost":1.25}] }"#,
        ] {
            assert_every_split_decodes_as_whole(line);
        }
    }

    #[test]
    fn answers_in_random_chunks_decode_as_whole_lines() {
        let mut rng = StdRng::seed_from_u64(27_027);
        for _ in 0..4 {
            let lines: Vec<String> = (0..4)
                .map(|k| random_sweep(&mut rng, &format!("a{k}")).to_line())
                .chain(GOLDEN_LINES.iter().map(|line| (*line).to_owned()))
                .collect();
            let stream: String = lines.iter().map(|line| format!("{line}\n")).collect();
            // Frame the stream as a client does: push each chunk up to a
            // newline, finish the line there, and start the next.
            let mut decoder = ResponseDecoder::default();
            let mut got = Vec::new();
            let mut at = 0;
            while at < stream.len() {
                let mut end = (at + 1 + (rng.next_u64() % 70_000) as usize).min(stream.len());
                while !stream.is_char_boundary(end) {
                    end += 1;
                }
                let mut chunk = &stream[at..end];
                while let Some(newline) = chunk.find('\n') {
                    got.push(std::mem::take(&mut decoder).finish(&chunk[..newline]));
                    chunk = &chunk[newline + 1..];
                }
                decoder.push(chunk);
                at = end;
            }
            assert!(decoder.line().is_empty());
            assert_eq!(got.len(), lines.len());
            for ((text, result), line) in got.into_iter().zip(&lines) {
                assert_eq!(&text, line);
                assert_eq!(decoded(result), decoded(parse_response_line(line)));
            }
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
