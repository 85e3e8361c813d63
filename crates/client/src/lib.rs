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
//!   tree, so a large answer costs no allocation per cell. The client
//!   reads into its own buffer and hands each read to the wire's
//!   [`ResponseDecoder`], so a cell is decoded as soon as its bytes have
//!   arrived: the daemon writes a large answer in slices, and the client
//!   decodes one while the next is encoded. A malformed answer is a
//!   [`ClientError::Protocol`], never a panic.
//! - **Pipelined waits**: [`Client::wait`] reads response lines until the
//!   requested id appears, parking any other answers it passes, in
//!   arrival order per id, in an out-of-order buffer that later waits
//!   drain first. [`Client::wait_all`] collects a whole batch.
//! - **Deadlines**: every read is bounded. The socket runs with a short
//!   read timeout and the client loops until its per-call deadline
//!   (default [`DEFAULT_DEADLINE`]) elapses, so a wedged daemon fails a
//!   test instead of hanging it.
//!
//! The crate is used by the serve integration tests, perfbench, and the
//! `zeroconf-client` binary that `ci.sh` drives for its socket smoke
//! tests — one wire codec, no duplicated frame readers.

#![forbid(unsafe_code)]

use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

pub use zeroconf_engine::wire::{parse_json, Json, WIRE_VERSION};
use zeroconf_engine::wire::{
    parse_response_line, push_f64, push_json_str, ResponseDecoder, WireError, VERB_CALIBRATE,
    VERB_FRONTIER,
};
pub use zeroconf_engine::Landscape;

/// Default per-wait deadline: generous enough for a cold engine on a
/// loaded CI box, short enough that a hung daemon fails the run.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(60);

/// Socket-level read timeout; the wait loop spins on this tick so it can
/// re-check its overall deadline between reads.
const READ_TICK: Duration = Duration::from_millis(50);

/// Read size. A dense sweep answers with one line of ~100 bytes per cell,
/// so a 16 × 100 landscape (~165 KB) arrives in three reads instead of
/// the twenty-one an 8 KiB buffer would take.
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
        let decoded = parse_response_line(&line);
        Response::decoded(line, decoded)
    }

    /// The response of `line` from its decode.
    fn decoded(line: String, decoded: WireDecode) -> Result<Response> {
        let (json, landscape) =
            decoded.map_err(|e| ClientError::Protocol(format!("bad response line: {e}")))?;
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

/// A response line's decode: the members other than `cells`, and the
/// cells.
type WireDecode = std::result::Result<(Json, Option<Landscape>), WireError>;

/// One half-duplex view of the connection (the write side, or the read
/// side).
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
    reader: Stream,
    /// Bytes read, `buf[start..end]` not yet handed to `decoder`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The line being received.
    decoder: ResponseDecoder,
    /// Responses read past while waiting for a different id: per id, in
    /// arrival order.
    parked: HashMap<String, VecDeque<Response>>,
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
        Ok(Client {
            reader: stream.try_clone()?,
            writer: stream,
            buf: vec![0; READ_BUFFER],
            start: 0,
            end: 0,
            decoder: ResponseDecoder::default(),
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

    /// Waits for the response with `id`, parking any other responses read
    /// past (later waits find them without touching the socket). Answers
    /// to one id, which a client may reuse, come back in arrival order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if the deadline elapses,
    /// [`ClientError::Disconnected`] on EOF before the id arrives,
    /// [`ClientError::Protocol`] on an undecodable line.
    pub fn wait(&mut self, id: &str) -> Result<Response> {
        if let Some(parked) = self.parked.get_mut(id) {
            let found = parked.pop_front();
            if parked.is_empty() {
                self.parked.remove(id);
            }
            if let Some(found) = found {
                return Ok(found);
            }
        }
        let deadline = Instant::now() + self.deadline;
        loop {
            match self.next_response(deadline)? {
                Some(response) if response.id() == id => return Ok(response),
                Some(response) => {
                    self.parked
                        .entry(response.id().to_owned())
                        .or_default()
                        .push_back(response);
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
    /// buffer), or `Ok(None)` on EOF. Its cells are decoded as its bytes
    /// arrive, so once its last byte is in, only the last read's cells are
    /// left to decode.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if `deadline` passes with no line,
    /// [`ClientError::Protocol`] if a line fails to decode (as
    /// [`Response::parse`] would) or is not UTF-8.
    pub fn next_response(&mut self, deadline: Instant) -> Result<Option<Response>> {
        let Some((line, decoded)) = self.next_line_with(deadline, ResponseDecoder::finish)? else {
            return Ok(None);
        };
        Response::decoded(line, decoded).map(Some)
    }

    /// Reads one raw line within the client's default deadline, or
    /// `Ok(None)` on EOF. Used by tests that inspect id-less lines (e.g.
    /// capacity refusals before the daemon closes the socket).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if the deadline passes with no line,
    /// [`ClientError::Protocol`] for a line that is not UTF-8.
    pub fn next_line(&mut self) -> Result<Option<String>> {
        let deadline = Instant::now() + self.deadline;
        self.next_line_with(deadline, ResponseDecoder::into_line)
    }

    /// Reads until a line has ended and hands `end` its decoder, which has
    /// decoded every cell it could as the bytes arrived, and the line's
    /// last text, which the decoder has not seen. At EOF a leftover
    /// partial line is a truncated frame: it is handed over as it is, and
    /// its decode will say so.
    fn next_line_with<T>(
        &mut self,
        deadline: Instant,
        mut end: impl FnMut(ResponseDecoder, &str) -> T,
    ) -> Result<Option<T>> {
        loop {
            if let Some(ended) = self.feed(&mut end)? {
                return Ok(Some(ended));
            }
            if self.start == self.end {
                (self.start, self.end) = (0, 0);
            } else if self.end == self.buf.len() {
                // What is left unfed is at most a split character or an
                // invalid run waiting for its line's end.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if self.end == self.buf.len() {
                    self.buf.resize(2 * self.buf.len(), 0);
                }
            }
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    if self.start < self.end {
                        return Err(ClientError::Protocol(
                            "the connection closed inside a character that is not UTF-8".to_owned(),
                        ));
                    }
                    let decoder = std::mem::take(&mut self.decoder);
                    return Ok((!decoder.line().is_empty()).then(|| end(decoder, "")));
                }
                Ok(n) => self.end += n,
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
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Hands the decoder the unfed bytes, in whole UTF-8 characters, up
    /// to the next newline, and once the newline is there (it is
    /// consumed) ends the line with `end`. The text of a line that ends in
    /// this read goes to `end`, not through the decoder's `push`, so a
    /// line that arrives in one read is parsed once. A character split
    /// across reads waits for its other bytes.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] once a line that is not UTF-8 has ended;
    /// its bytes are dropped, and the next line is read afresh.
    fn feed<T>(&mut self, end: &mut impl FnMut(ResponseDecoder, &str) -> T) -> Result<Option<T>> {
        let unfed = &self.buf[self.start..self.end];
        let (text, invalid) = match std::str::from_utf8(unfed) {
            Ok(text) => (text, false),
            Err(e) => (
                std::str::from_utf8(&unfed[..e.valid_up_to()]).unwrap_or_default(),
                e.error_len().is_some(),
            ),
        };
        if let Some(newline) = text.find('\n') {
            let ended = end(std::mem::take(&mut self.decoder), &text[..newline]);
            self.start += newline + 1;
            return Ok(Some(ended));
        }
        self.decoder.push(text);
        self.start += text.len();
        if invalid {
            let unfed = &self.buf[self.start..self.end];
            if let Some(newline) = unfed.iter().position(|&byte| byte == b'\n') {
                self.start += newline + 1;
                self.decoder = ResponseDecoder::default();
                return Err(ClientError::Protocol(
                    "a response line is not UTF-8".to_owned(),
                ));
            }
        }
        Ok(None)
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
        let b = |error: f64| format!("[{{\"n\":1,\"r\":2.0,\"error_probability\":{error:?}}}]");
        for answers in [
            // Answers in reverse order, to exercise the parking buffer.
            vec![("b", b(0.25)), ("a", CELLS.to_owned())],
            // Two answers for one id ahead of the awaited one: both are
            // kept, and come back in arrival order.
            vec![("b", b(0.25)), ("b", b(0.75)), ("a", CELLS.to_owned())],
        ] {
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path).unwrap();
            let parked = answers.len() - 1;
            let server = std::thread::spawn(move || {
                let (mut peer, _) = listener.accept().unwrap();
                use std::io::{BufRead, BufReader, Write};
                let mut lines = BufReader::new(peer.try_clone().unwrap()).lines();
                let first = lines.next().unwrap().unwrap();
                let second = lines.next().unwrap().unwrap();
                assert!(first.contains("\"id\":\"a\""), "{first}");
                assert!(second.contains("\"id\":\"b\""), "{second}");
                for (id, cells) in answers {
                    writeln!(
                        peer,
                        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"cells\":{cells}}}"
                    )
                    .unwrap();
                }
            });

            let mut client = Client::connect_unix(&path).unwrap();
            client.set_deadline(Duration::from_secs(10));
            client.cancel("a", "x").unwrap();
            client.cancel("b", "y").unwrap();
            let a = client.wait("a").unwrap();
            assert_eq!(a.cell_count(), 4);
            assert_eq!(a.landscape().unwrap().r_values(), &[0.5, 1e-7]);
            for error in [0.25, 0.75].into_iter().take(parked) {
                let b = client.wait("b").unwrap();
                assert_eq!(b.cell_count(), 1);
                let b = b.landscape().unwrap();
                assert_eq!((b.n_max(), b.r_values()), (1, &[2.0][..]));
                assert_eq!((b.costs(), b.errors()), (None, Some(&[error][..])));
            }
            assert!(client.parked.is_empty());
            server.join().unwrap();
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// A daemon's answers as one byte stream: sweeps of every shape, with
    /// a 2-byte and a 3-byte character in ids.
    fn answer_stream() -> (Vec<String>, Vec<u8>) {
        let lines: Vec<String> = (0..6)
            .map(|k| {
                let cells: Vec<String> = (0..40 * (k + 1))
                    .map(|i| {
                        let column = i / 4;
                        format!(
                            "{{\"n\":{},\"r\":{:?},\"mean_cost\":{:?}}}",
                            i % 4 + 1,
                            0.5 + column as f64,
                            1.0 / (i as f64 + 1.0)
                        )
                    })
                    .collect();
                format!(
                    "{{\"v\":{WIRE_VERSION},\"id\":\"é✓{k}\",\"cells\":[{}],\"stats\":{{\"cells\":{}}}}}",
                    cells.join(","),
                    cells.len()
                )
            })
            .collect();
        let stream = lines
            .iter()
            .map(|line| format!("{line}\n"))
            .collect::<String>();
        (lines, stream.into_bytes())
    }

    #[test]
    fn answers_split_anywhere_decode_as_whole_lines() {
        use std::os::unix::net::UnixStream;

        let (lines, stream) = answer_stream();
        // Reads that end inside characters, cells and newlines.
        for chunk in [1, 2, 3, 7, 64, 1000, 4093, stream.len()] {
            let (ours, mut peer) = UnixStream::pair().unwrap();
            let mut client = Client::from_stream(Stream::Unix(ours)).unwrap();
            let bytes = stream.clone();
            let writer = std::thread::spawn(move || {
                for piece in bytes.chunks(chunk) {
                    peer.write_all(piece).unwrap();
                    peer.flush().unwrap();
                }
            });
            for line in &lines {
                let response = client
                    .next_response(Instant::now() + Duration::from_secs(10))
                    .unwrap()
                    .unwrap();
                assert_eq!(&response.line, line, "chunks of {chunk}");
                let whole = Response::parse(line.clone()).unwrap();
                assert_eq!(response.json, whole.json);
                assert_eq!(response.landscape(), whole.landscape());
            }
            writer.join().unwrap();
            assert!(
                client.next_line().unwrap().is_none(),
                "EOF after the stream"
            );
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_protocol_error_and_the_next_is_read() {
        use std::os::unix::net::UnixStream;

        let (ours, mut peer) = UnixStream::pair().unwrap();
        let mut client = Client::from_stream(Stream::Unix(ours)).unwrap();
        let good = format!("{{\"v\":{WIRE_VERSION},\"id\":\"e\",\"error\":\"no\"}}");
        peer.write_all(b"{\"id\":\"\xff\xfe\"}\n").unwrap();
        peer.write_all(good.as_bytes()).unwrap();
        peer.write_all(b"\n").unwrap();
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(10);
        assert!(matches!(
            client.next_response(deadline),
            Err(ClientError::Protocol(_))
        ));
        assert_eq!(client.next_response(deadline).unwrap().unwrap().line, good);
        assert!(client.next_response(deadline).unwrap().is_none());
    }
}
