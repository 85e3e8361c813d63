//! Typed blocking client for the `zeroconf serve` daemon.
//!
//! The serve daemon speaks a JSON-lines protocol over TCP and unix
//! sockets (see `crates/serve`): each request line carries a protocol
//! version, a caller-chosen `id`, and one verb; each response line echoes
//! the `id` it answers. Requests may be pipelined — many ids in flight on
//! one connection — and the daemon answers them as they complete, so
//! responses can arrive out of submission order.
//!
//! [`Client`] wraps one such connection:
//!
//! - **Typed senders** ([`Client::sweep`], [`Client::rescore`],
//!   [`Client::calibrate`], [`Client::frontier`], [`Client::cancel`],
//!   [`Client::stats`]) assemble well-formed frames, interpolating
//!   [`WIRE_VERSION`] so a protocol bump updates every caller at once and
//!   escaping ids with the wire's own string escaper.
//!   [`Client::send_raw`] is the escape hatch for malformed-frame and
//!   version-skew tests.
//! - **Typed answers**: a sweep or rescore answer's `cells` are decoded
//!   straight into the engine's [`Landscape`] ([`Response::landscape`]),
//!   in the one pass that parses the rest of the line into a [`Json`]
//!   tree, so a large answer costs no allocation per cell. A malformed
//!   answer is a [`ClientError::Protocol`], never a panic.
//! - **Pipelined waits**: [`Client::wait`] reads response lines until the
//!   requested id appears, parking any other ids it passes in an
//!   out-of-order buffer that later waits drain first. [`Client::wait_all`]
//!   collects a whole batch.
//! - **Deadlines**: every read is bounded. The socket runs with a short
//!   read timeout and the client loops until its per-call deadline
//!   (default [`DEFAULT_DEADLINE`]) elapses, so a wedged daemon fails a
//!   test instead of hanging it.
//!
//! The crate is used by the serve integration tests, perfbench, and the
//! `zeroconf-client` binary that `ci.sh` drives for its socket smoke
//! tests — one wire codec, no duplicated frame readers.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

pub use zeroconf_engine::wire::{parse_json, Json, WIRE_VERSION};
use zeroconf_engine::wire::{
    parse_response_line, push_f64, push_json_str, VERB_CALIBRATE, VERB_FRONTIER,
};
pub use zeroconf_engine::Landscape;

/// Default per-wait deadline: generous enough for a cold engine on a
/// loaded CI box, short enough that a hung daemon fails the run.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(60);

/// Socket-level read timeout; the wait loop spins on this tick so it can
/// re-check its overall deadline between reads.
const READ_TICK: Duration = Duration::from_millis(50);

/// Read buffer size. A dense sweep answers with one line of ~100 bytes
/// per cell, so a 16 × 100 landscape (~165 KB) arrives in three reads
/// instead of the twenty-one an 8 KiB default would take.
const READ_BUFFER: usize = 64 * 1024;

/// A client-side failure: socket error, undecodable response, elapsed
/// deadline, or a connection the daemon closed with waits outstanding.
#[derive(Debug)]
pub enum ClientError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The daemon sent a line the client could not decode.
    Protocol(String),
    /// The deadline elapsed before the awaited response arrived.
    Timeout(String),
    /// The daemon closed the connection while a wait was outstanding.
    Disconnected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Timeout(msg) => write!(f, "timed out: {msg}"),
            ClientError::Disconnected(msg) => write!(f, "connection closed: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A reply-time distribution in wire form.
#[derive(Debug, Clone)]
pub enum ReplyTime {
    /// `{"kind":"exponential",…}` — defective exponential reply time.
    Exponential {
        /// Probability the probe is lost outright.
        loss: f64,
        /// Rate of the exponential reply-delay component.
        rate: f64,
        /// Deterministic propagation delay added to every reply.
        delay: f64,
    },
    /// `{"kind":"deterministic",…}` — replies land after a fixed delay.
    Deterministic {
        /// Probability the reply arrives at all.
        mass: f64,
        /// The fixed reply delay.
        delay: f64,
    },
    /// `{"kind":"uniform",…}` — replies uniform on `[lo, hi]`.
    Uniform {
        /// Probability the reply arrives at all.
        mass: f64,
        /// Lower edge of the reply-delay support.
        lo: f64,
        /// Upper edge of the reply-delay support.
        hi: f64,
    },
    /// Any other wire shape (mixtures, weibull), supplied as raw JSON.
    Raw(String),
}

impl ReplyTime {
    fn push_wire(&self, line: &mut String) {
        let (kind, members): (&str, &[(&str, f64)]) = match self {
            ReplyTime::Exponential { loss, rate, delay } => (
                "exponential",
                &[("loss", *loss), ("rate", *rate), ("delay", *delay)],
            ),
            ReplyTime::Deterministic { mass, delay } => {
                ("deterministic", &[("mass", *mass), ("delay", *delay)])
            }
            ReplyTime::Uniform { mass, lo, hi } => {
                ("uniform", &[("mass", *mass), ("lo", *lo), ("hi", *hi)])
            }
            ReplyTime::Raw(json) => {
                line.push_str(json);
                return;
            }
        };
        let _ = write!(line, "{{\"kind\":\"{kind}\",");
        push_numbers(line, members);
        line.push('}');
    }
}

/// A protocol scenario: the model parameters a sweep evaluates.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Per-probe address-collision probability.
    pub q: f64,
    /// Cost of sending one probe.
    pub probe_cost: f64,
    /// Cost of settling on a colliding address.
    pub error_cost: f64,
    /// Reply-time distribution.
    pub reply_time: ReplyTime,
}

impl Scenario {
    /// The fixture scenario the workspace's session tests standardize on
    /// (`q = 0.5`, exponential replies) — mirrors
    /// `zeroconf_engine::testkit::sweep_line`.
    #[must_use]
    pub fn fixture() -> Scenario {
        Scenario {
            q: 0.5,
            probe_cost: 2.0,
            error_cost: 1e6,
            reply_time: ReplyTime::Exponential {
                loss: 1e-6,
                rate: 10.0,
                delay: 1.0,
            },
        }
    }

    fn push_wire(&self, line: &mut String) {
        line.push('{');
        push_numbers(
            line,
            &[
                ("q", self.q),
                ("probe_cost", self.probe_cost),
                ("error_cost", self.error_cost),
            ],
        );
        line.push_str(",\"reply_time\":");
        self.reply_time.push_wire(line);
        line.push('}');
    }
}

/// A policy grid: which `(n, r)` cells a sweep evaluates.
#[derive(Debug, Clone)]
pub enum Grid {
    /// An explicit list of timeout values per probe count.
    Explicit {
        /// Largest probe count to evaluate (1..=n_max).
        n_max: u32,
        /// The timeout values to evaluate at each probe count.
        r: Vec<f64>,
    },
    /// A dense linspace of timeouts — the heavy-load shape.
    Linspace {
        /// Largest probe count to evaluate (1..=n_max).
        n_max: u32,
        /// Smallest timeout in the linspace.
        r_min: f64,
        /// Largest timeout in the linspace.
        r_max: f64,
        /// Number of linspace points.
        r_points: usize,
    },
}

impl Grid {
    fn push_wire(&self, line: &mut String) {
        match self {
            Grid::Explicit { n_max, r } => {
                let _ = write!(line, "{{\"n_max\":{n_max},\"r\":[");
                push_list(line, r);
                line.push_str("]}");
            }
            Grid::Linspace {
                n_max,
                r_min,
                r_max,
                r_points,
            } => {
                let _ = write!(line, "{{\"n_max\":{n_max},");
                push_numbers(line, &[("r_min", *r_min), ("r_max", *r_max)]);
                let _ = write!(line, ",\"r_points\":{r_points}}}");
            }
        }
    }
}

/// A frontier axis: which scenario parameter varies, over which values.
#[derive(Debug, Clone)]
pub struct Axis {
    /// The scenario field to vary: `"q"`, `"probe_cost"` or `"error_cost"`.
    pub axis: &'static str,
    /// The values to take along this axis.
    pub values: Vec<f64>,
}

impl Axis {
    /// An axis over the collision probability `q`.
    #[must_use]
    pub fn q(values: &[f64]) -> Axis {
        Axis {
            axis: "q",
            values: values.to_vec(),
        }
    }

    /// An axis over the per-probe cost.
    #[must_use]
    pub fn probe_cost(values: &[f64]) -> Axis {
        Axis {
            axis: "probe_cost",
            values: values.to_vec(),
        }
    }

    /// An axis over the collision cost.
    #[must_use]
    pub fn error_cost(values: &[f64]) -> Axis {
        Axis {
            axis: "error_cost",
            values: values.to_vec(),
        }
    }

    fn push_wire(&self, line: &mut String) {
        let _ = write!(line, "{{\"axis\":\"{}\",\"values\":[", self.axis);
        push_list(line, &self.values);
        line.push_str("]}");
    }
}

/// Appends `"key":value` members, comma-separated. Each value goes through
/// the wire's own float writer, so a value that is not finite travels as
/// `null` and is refused by the daemon with an error line.
fn push_numbers(line: &mut String, members: &[(&str, f64)]) {
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{key}\":");
        push_f64(line, *value);
    }
}

/// Appends `values` as the body of a JSON array.
fn push_list(line: &mut String, values: &[f64]) {
    for (i, &value) in values.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_f64(line, value);
    }
}

/// One decoded response line.
///
/// A sweep or rescore answer's `cells` array is decoded straight into a
/// [`Landscape`] ([`Response::landscape`]) in the one pass that parses the
/// rest of the line into [`Response::json`], so no `Json` value is built
/// per cell. `json` therefore never holds `cells`; a caller that wants
/// them as a tree calls [`parse_json`] on [`Response::line`].
#[derive(Debug, Clone)]
pub struct Response {
    /// The raw line as received (without the trailing newline).
    pub line: String,
    /// Every member of the line except `cells`.
    pub json: Json,
    /// The decoded `cells`, when the line carries them.
    landscape: Option<Landscape>,
}

impl Response {
    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the line is not a JSON object, or
    /// when its `cells` are not a landscape as the daemon writes one: a
    /// cell whose `n` is not its row, a ragged column, a metric missing
    /// from one cell, an unknown key.
    pub fn parse(line: String) -> Result<Response> {
        let (json, landscape) = parse_response_line(&line)
            .map_err(|e| ClientError::Protocol(format!("bad response line: {e}")))?;
        Ok(Response {
            line,
            json,
            landscape,
        })
    }

    /// The answered landscape: `n_max`, one `r` per column and the
    /// `r`-major `mean_cost` / `error_probability` slabs, with NaN where
    /// the line has `null`.
    #[must_use]
    pub fn landscape(&self) -> Option<&Landscape> {
        self.landscape.as_ref()
    }

    /// The response id (`""` for id-less lines such as capacity refusals).
    #[must_use]
    pub fn id(&self) -> &str {
        match self.json.get("id") {
            Some(Json::Str(s)) => s,
            _ => "",
        }
    }

    /// The `error` member, if this response is an error line.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        match self.json.get("error") {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Whether this response carries a `cells` payload (a completed sweep
    /// or rescore).
    #[must_use]
    pub fn has_cells(&self) -> bool {
        self.landscape.is_some()
    }

    /// Number of entries in the `cells` array (0 when absent).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.landscape.as_ref().map_or(0, Landscape::len)
    }

    /// Walks `path` through nested objects of [`Response::json`] (which
    /// holds no `cells`) and returns the value.
    #[must_use]
    pub fn member(&self, path: &[&str]) -> Option<&Json> {
        let mut node = &self.json;
        for key in path {
            node = node.get(key)?;
        }
        Some(node)
    }

    /// Walks `path` and returns the number at its end, if any.
    #[must_use]
    pub fn number(&self, path: &[&str]) -> Option<f64> {
        match self.member(path) {
            Some(Json::Num(x)) => Some(*x),
            _ => None,
        }
    }
}

/// One half-duplex view of the connection (the write side, or the read
/// side wrapped in a [`BufReader`]).
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(timeout)),
            Stream::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A blocking connection to a serve daemon.
pub struct Client {
    writer: Stream,
    reader: BufReader<Stream>,
    /// Responses read past while waiting for a different id, keyed by id.
    parked: HashMap<String, Response>,
    /// Per-wait deadline.
    deadline: Duration,
}

impl Client {
    /// Connects over TCP to `addr` (e.g. `"127.0.0.1:7878"`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established.
    pub fn connect_tcp(addr: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Client::from_stream(Stream::Tcp(stream))
    }

    /// Connects to the unix socket at `path`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established.
    pub fn connect_unix(path: &Path) -> Result<Client> {
        let stream = UnixStream::connect(path)?;
        Client::from_stream(Stream::Unix(stream))
    }

    fn from_stream(stream: Stream) -> Result<Client> {
        stream.set_read_timeout(READ_TICK)?;
        let reader = BufReader::with_capacity(READ_BUFFER, stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            parked: HashMap::new(),
            deadline: DEFAULT_DEADLINE,
        })
    }

    /// Overrides the per-wait deadline (default [`DEFAULT_DEADLINE`]).
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    /// Sends one raw frame (a newline is appended). The escape hatch for
    /// malformed-frame and version-skew tests; prefer the typed senders.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the write fails.
    pub fn send_raw(&mut self, line: &str) -> Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Submits a sweep of `grid` under `scenario`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the write fails.
    pub fn sweep(&mut self, id: &str, scenario: &Scenario, grid: &Grid) -> Result<()> {
        let mut line = frame(id);
        push_inline(&mut line, scenario, grid);
        line.push('}');
        self.send_raw(&line)
    }

    /// Submits a rescore of the earlier sweep `of` under a changed
    /// collision cost.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the write fails.
    pub fn rescore(&mut self, id: &str, of: &str, error_cost: f64) -> Result<()> {
        let mut line = frame(id);
        line.push_str(",\"rescore\":{\"of\":");
        push_json_str(&mut line, of);
        line.push_str(",\"error_cost\":");
        push_f64(&mut line, error_cost);
        line.push_str("}}");
        self.send_raw(&line)
    }

    /// Submits a calibration anchored at the `(n, r)` cell of the earlier
    /// sweep `of`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the write fails.
    pub fn calibrate(&mut self, id: &str, of: &str, n: u32, r: f64) -> Result<()> {
        let mut line = frame(id);
        let _ = write!(line, ",\"{VERB_CALIBRATE}\":{{\"of\":");
        push_json_str(&mut line, of);
        let _ = write!(line, ",\"n\":{n},\"r\":");
        push_f64(&mut line, r);
        line.push_str("}}");
        self.send_raw(&line)
    }

    /// Submits an inline calibration: sweep `grid` under `scenario`, then
    /// calibrate at `(n, r)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the write fails.
    pub fn calibrate_inline(
        &mut self,
        id: &str,
        scenario: &Scenario,
        grid: &Grid,
        n: u32,
        r: f64,
    ) -> Result<()> {
        let mut line = frame(id);
        push_inline(&mut line, scenario, grid);
        let _ = write!(line, ",\"{VERB_CALIBRATE}\":{{\"n\":{n},\"r\":");
        push_f64(&mut line, r);
        line.push_str("}}");
        self.send_raw(&line)
    }

    /// Submits a frontier scan over axes `x` and `y`, anchored at the
    /// earlier sweep `of`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the write fails.
    pub fn frontier(&mut self, id: &str, of: &str, x: &Axis, y: &Axis) -> Result<()> {
        let mut line = frame(id);
        let _ = write!(line, ",\"{VERB_FRONTIER}\":{{\"of\":");
        push_json_str(&mut line, of);
        line.push_str(",\"x\":");
        x.push_wire(&mut line);
        line.push_str(",\"y\":");
        y.push_wire(&mut line);
        line.push_str("}}");
        self.send_raw(&line)
    }

    /// Cancels the in-flight request `of`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the write fails.
    pub fn cancel(&mut self, id: &str, of: &str) -> Result<()> {
        let mut line = frame(id);
        line.push_str(",\"cancel\":");
        push_json_str(&mut line, of);
        line.push('}');
        self.send_raw(&line)
    }

    /// Requests the per-connection / server / engine stats snapshot and
    /// waits for it.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]: write failure, timeout, undecodable response.
    pub fn stats(&mut self, id: &str) -> Result<Response> {
        let mut line = frame(id);
        line.push_str(",\"stats\":true}");
        self.send_raw(&line)?;
        self.wait(id)
    }

    /// Half-closes the write side, signalling the daemon that no further
    /// requests will arrive (responses can still be read).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the shutdown fails.
    pub fn shutdown_write(&mut self) -> Result<()> {
        self.writer.shutdown_write()?;
        Ok(())
    }

    /// Waits for the response with `id`, parking any other responses read
    /// past (later waits find them without touching the socket).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if the deadline elapses,
    /// [`ClientError::Disconnected`] on EOF before the id arrives,
    /// [`ClientError::Protocol`] on an undecodable line.
    pub fn wait(&mut self, id: &str) -> Result<Response> {
        if let Some(found) = self.parked.remove(id) {
            return Ok(found);
        }
        let deadline = Instant::now() + self.deadline;
        loop {
            match self.next_response(deadline)? {
                Some(response) if response.id() == id => return Ok(response),
                Some(response) => {
                    self.parked.insert(response.id().to_owned(), response);
                }
                None => {
                    return Err(ClientError::Disconnected(format!(
                        "EOF while waiting for id `{id}`"
                    )))
                }
            }
        }
    }

    /// Waits for every id in `ids` (in any arrival order) and returns the
    /// responses in the requested order.
    ///
    /// # Errors
    ///
    /// As for [`Client::wait`], on the first id that fails.
    pub fn wait_all(&mut self, ids: &[&str]) -> Result<Vec<Response>> {
        let mut responses = Vec::with_capacity(ids.len());
        for id in ids {
            responses.push(self.wait(id)?);
        }
        Ok(responses)
    }

    /// Reads the next response line from the socket (skipping the parked
    /// buffer), or `Ok(None)` on EOF.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if `deadline` passes with no line,
    /// [`ClientError::Protocol`] if a line fails to decode
    /// ([`Response::parse`]).
    pub fn next_response(&mut self, deadline: Instant) -> Result<Option<Response>> {
        self.next_line_until(deadline)?
            .map(Response::parse)
            .transpose()
    }

    /// Reads one raw line within the client's default deadline, or
    /// `Ok(None)` on EOF. Used by tests that inspect id-less lines (e.g.
    /// capacity refusals before the daemon closes the socket).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if the deadline passes with no line.
    pub fn next_line(&mut self) -> Result<Option<String>> {
        let deadline = Instant::now() + self.deadline;
        self.next_line_until(deadline)
    }

    fn next_line_until(&mut self, deadline: Instant) -> Result<Option<String>> {
        // `read_line` appends to `line`; when the socket's read timeout
        // fires mid-line it returns `WouldBlock` with the partial line
        // already accumulated, so the buffer must survive retries —
        // clearing it would silently drop bytes and break the framing.
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    // EOF. A leftover partial line is a truncated frame:
                    // hand it to the caller, whose parse will say so.
                    return if line.is_empty() {
                        Ok(None)
                    } else {
                        Ok(Some(line))
                    };
                }
                Ok(_) if line.ends_with('\n') => {
                    while line.ends_with('\n') || line.ends_with('\r') {
                        line.pop();
                    }
                    return Ok(Some(line));
                }
                // Ok(_) without a newline: EOF cut the line short; the
                // next read observes Ok(0) and returns the fragment.
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Timeout(
                            "no response line before the deadline".to_owned(),
                        ));
                    }
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}

/// Starts a request frame: the version and the id, escaped by the wire's
/// own [`push_json_str`]. Each sender appends its verb and the closing
/// brace.
fn frame(id: &str) -> String {
    let mut line = format!("{{\"v\":{WIRE_VERSION},\"id\":");
    push_json_str(&mut line, id);
    line
}

/// Appends the `scenario` and `grid` members of an inline request.
fn push_inline(line: &mut String, scenario: &Scenario, grid: &Grid) {
    line.push_str(",\"scenario\":");
    scenario.push_wire(line);
    line.push_str(",\"grid\":");
    grid.push_wire(line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroconf_engine::wire::{parse_request_line, WireRequest};

    /// `s` as it stands between the quotes of a JSON string, from the
    /// wire's escaper.
    fn escape(s: &str) -> String {
        let mut quoted = String::new();
        push_json_str(&mut quoted, s);
        quoted[1..quoted.len() - 1].to_owned()
    }

    fn render_sweep(scenario: &Scenario, grid: &Grid) -> String {
        let mut line = frame("t");
        push_inline(&mut line, scenario, grid);
        line.push('}');
        line
    }

    fn render_axis(axis: &Axis) -> String {
        let mut text = String::new();
        axis.push_wire(&mut text);
        text
    }

    #[test]
    fn typed_frames_decode_as_the_wire_parser_expects() {
        let scenario = Scenario::fixture();
        let explicit = Grid::Explicit {
            n_max: 4,
            r: vec![0.5, 1.0, 2.0],
        };
        let line = render_sweep(&scenario, &explicit);
        let WireRequest::Sweep { request, .. } = parse_request_line(&line).unwrap() else {
            panic!("explicit-grid sweep decodes as a sweep: {line}");
        };
        assert_eq!(request.grid.r_values.len(), 3);

        let linspace = Grid::Linspace {
            n_max: 8,
            r_min: 0.1,
            r_max: 30.0,
            r_points: 50,
        };
        let line = render_sweep(&scenario, &linspace);
        let WireRequest::Sweep { request, .. } = parse_request_line(&line).unwrap() else {
            panic!("linspace sweep decodes as a sweep: {line}");
        };
        assert_eq!(request.grid.r_values.len(), 50);
    }

    #[test]
    fn every_reply_time_variant_renders_a_known_wire_kind() {
        for reply_time in [
            ReplyTime::Exponential {
                loss: 1e-6,
                rate: 10.0,
                delay: 1.0,
            },
            ReplyTime::Deterministic {
                mass: 0.9,
                delay: 0.5,
            },
            ReplyTime::Uniform {
                mass: 0.95,
                lo: 0.0,
                hi: 2.0,
            },
        ] {
            let scenario = Scenario {
                reply_time,
                ..Scenario::fixture()
            };
            let line = render_sweep(
                &scenario,
                &Grid::Explicit {
                    n_max: 2,
                    r: vec![1.0],
                },
            );
            assert!(
                matches!(parse_request_line(&line), Ok(WireRequest::Sweep { .. })),
                "{line}"
            );
        }
    }

    #[test]
    fn verb_frames_decode_and_ids_escape() {
        let rescore = format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"{}\",\"rescore\":{{\"of\":\"{}\",\"error_cost\":{:?}}}}}",
            escape("a\"b"),
            escape("s1"),
            1e9
        );
        let WireRequest::Rescore { id, .. } = parse_request_line(&rescore).unwrap() else {
            panic!("rescore decodes: {rescore}");
        };
        assert_eq!(id, "a\"b");

        let frontier = format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"f\",\"{VERB_FRONTIER}\":{{\"of\":\"s1\",\"x\":{},\"y\":{}}}}}",
            render_axis(&Axis::error_cost(&[1e3, 1e6])),
            render_axis(&Axis::probe_cost(&[1.0, 2.0]))
        );
        assert!(
            matches!(
                parse_request_line(&frontier),
                Ok(WireRequest::Frontier { .. })
            ),
            "{frontier}"
        );

        let calibrate = format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"k\",\"{VERB_CALIBRATE}\":{{\"of\":\"s1\",\"n\":4,\"r\":{:?}}}}}",
            2.0
        );
        assert!(
            matches!(
                parse_request_line(&calibrate),
                Ok(WireRequest::Calibrate { .. })
            ),
            "{calibrate}"
        );
    }

    /// A two-column landscape as the daemon writes it, cost only, with
    /// one `null` cell.
    const CELLS: &str = "[{\"n\":1,\"r\":0.5,\"mean_cost\":2.0},{\"n\":2,\"r\":0.5,\"mean_cost\":3.5},\
                         {\"n\":1,\"r\":1e-7,\"mean_cost\":-0.0},{\"n\":2,\"r\":1e-7,\"mean_cost\":null}]";

    #[test]
    fn responses_expose_members_by_path() {
        let line = format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"s1\",\"cells\":{CELLS},\"stats\":{{\"engine\":{{\"requests\":7}}}}}}"
        );
        let response = Response::parse(line).unwrap();
        assert_eq!(response.id(), "s1");
        assert!(response.has_cells());
        assert_eq!(response.cell_count(), 4);
        let landscape = response.landscape().unwrap();
        assert_eq!(landscape.n_max(), 2);
        assert_eq!(landscape.r_values(), &[0.5, 1e-7]);
        let costs: Vec<u64> = landscape
            .costs()
            .unwrap()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(
            costs[..3],
            [2.0f64.to_bits(), 3.5f64.to_bits(), (-0.0f64).to_bits()]
        );
        assert!(f64::from_bits(costs[3]).is_nan(), "null reads back as NaN");
        assert_eq!(landscape.errors(), None);
        // The cells left the tree; the line still has them.
        assert_eq!(response.member(&["cells"]), None);
        assert!(matches!(
            parse_json(&response.line).unwrap().get("cells"),
            Some(Json::Arr(cells)) if cells.len() == 4
        ));
        assert_eq!(response.number(&["stats", "engine", "requests"]), Some(7.0));
        assert_eq!(response.number(&["stats", "engine", "absent"]), None);
        assert_eq!(response.error(), None);

        let error = Response::parse(format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"e\",\"error\":\"no\"}}"
        ))
        .unwrap();
        assert_eq!(error.error(), Some("no"));
        assert!(!error.has_cells() && error.cell_count() == 0 && error.landscape().is_none());
    }

    #[test]
    fn malformed_cells_are_protocol_errors() {
        // The wire's own tests pin each refusal's text; here every one
        // must reach the caller as a protocol error.
        for cells in [
            // A wrong n.
            "[{\"n\":1,\"r\":0.5,\"mean_cost\":1.0},{\"n\":3,\"r\":0.5,\"mean_cost\":1.0}]",
            // A ragged column: two cells, then one.
            "[{\"n\":1,\"r\":0.5,\"mean_cost\":1.0},{\"n\":2,\"r\":0.5,\"mean_cost\":1.0},\
              {\"n\":1,\"r\":1.0,\"mean_cost\":1.0}]",
            // A metric missing from one cell.
            "[{\"n\":1,\"r\":0.5,\"mean_cost\":1.0,\"error_probability\":0.1},\
              {\"n\":2,\"r\":0.5,\"mean_cost\":1.0}]",
            // An unknown key.
            "[{\"n\":1,\"r\":0.5,\"mean_cost\":1.0,\"median_cost\":1.0}]",
        ] {
            let line = format!("{{\"v\":{WIRE_VERSION},\"id\":\"s\",\"cells\":{cells}}}");
            assert!(
                matches!(Response::parse(line.clone()), Err(ClientError::Protocol(_))),
                "{line}"
            );
        }
    }

    #[test]
    fn waits_buffer_out_of_order_responses() {
        use std::os::unix::net::UnixListener;

        let dir = std::env::temp_dir().join(format!("zeroconf-client-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ooo.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();

        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            use std::io::{BufRead, BufReader, Write};
            let mut lines = BufReader::new(peer.try_clone().unwrap()).lines();
            let first = lines.next().unwrap().unwrap();
            let second = lines.next().unwrap().unwrap();
            assert!(first.contains("\"id\":\"a\""), "{first}");
            assert!(second.contains("\"id\":\"b\""), "{second}");
            // Answer in reverse order to exercise the parking buffer.
            let b = "[{\"n\":1,\"r\":2.0,\"error_probability\":0.25}]";
            writeln!(peer, "{{\"v\":{WIRE_VERSION},\"id\":\"b\",\"cells\":{b}}}").unwrap();
            writeln!(
                peer,
                "{{\"v\":{WIRE_VERSION},\"id\":\"a\",\"cells\":{CELLS}}}"
            )
            .unwrap();
        });

        let mut client = Client::connect_unix(&path).unwrap();
        client.set_deadline(Duration::from_secs(10));
        client.cancel("a", "x").unwrap();
        client.cancel("b", "y").unwrap();
        let a = client.wait("a").unwrap();
        let b = client.wait("b").unwrap();
        assert_eq!(a.cell_count(), 4);
        assert_eq!(a.landscape().unwrap().r_values(), &[0.5, 1e-7]);
        assert_eq!(b.cell_count(), 1);
        let b = b.landscape().unwrap();
        assert_eq!((b.n_max(), b.r_values()), (1, &[2.0][..]));
        assert_eq!((b.costs(), b.errors()), (None, Some(&[0.25][..])));
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
