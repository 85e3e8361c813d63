//! One client connection as a readiness-driven state machine.
//!
//! Connections no longer own a thread: the endpoint's event loop
//! ([`crate::listener::EndpointLoop`]) drives every [`Connection`]
//! through nonblocking reads, incremental JSON-line framing, fair
//! admission, and coalesced vectored writes. A connection therefore
//! *never blocks* — every method here either makes progress with the
//! bytes and permits available right now or records what it is waiting
//! for in its [`Interest`].
//!
//! Each connection's [`PipelinedSession`] submits to the daemon's one
//! [`ExecutorTeam`](zeroconf_engine::ExecutorTeam) and owns no thread,
//! so it is created with the connection: a thousand idle connections
//! cost a socket, a few buffers and an empty session each. Request-id
//! namespacing is unchanged from the threaded server: the server-side
//! identity of a request is `conn_id:wire_id`.
//!
//! **Backpressure** is the load-bearing invariant. Completions are
//! *always* polled — a permit returns to the [`FairBudget`] the moment
//! its response is polled out of the pipeline, never later — so a slow
//! reader can never pin a permit (PR 6's poll-time-release rule,
//! extended to the reactor). What a slow reader *does* stall is its own
//! intake: once the connection's output buffer crosses
//! [`OUT_HIGH_WATER`] (or the lines queued behind a request waiting for a
//! permit reach [`MAX_QUEUED_BYTES`]), the loop stops reading from that
//! socket and stops admitting its queued requests — stepping out of the
//! budget queue rather than camping at its head — so buffered output
//! stays bounded by the high water mark plus the responses already
//! admitted, and kernel TCP
//! backpressure propagates to the client. A sweep's answer waits as its
//! typed landscape, counted at the upper bound of its text, and is
//! encoded one slice of at most [`SLICE_BYTES`] at a time as the socket
//! takes it: the reactor spends at most one slice of encoding on a
//! connection per flush before it serves the others, and a reader that
//! stops pins 8 bytes per cell per metric, not the answer's text.
//!
//! End-of-stream semantics are those of the threaded server: **EOF (or
//! any read/write failure) means the client is gone** — the socket is
//! torn down immediately, unanswered requests are cancelled, and the
//! connection lingers as a socketless "zombie" only until the engine
//! confirms those cancellations, at which point its permits are all
//! home. Server drain is the opposite: stop reading, then answer
//! everything already received — queued requests trickle through the
//! fair budget as permits free, exactly as they would have without
//! the drain — flush, close. `zeroconf engine`'s one connection keeps
//! [`StdinRules`] of its own.
//!
//! **Intake** parses each request line once, with
//! [`wire::parse_request_json`], so a line over the request value budget
//! is refused before its tree outgrows the largest one the decoder
//! accepts. A line that is not UTF-8 gets one id-less error answer. The
//! connection reads one key itself, `stats`, and answers
//! it; [`wire::decode_line`] decodes everything else. A request that needs a permit when none is free is
//! held decoded at the head of the queue, and only the budget is retried.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, OnceLock};

use zeroconf_engine::wire::{self, LineCursor, PipelinedSession, WireRequest, WireResponse};

use crate::metrics::{stats_response_line, ConnMetrics, StatsSnapshot};
use crate::reactor::{Interest, WakeHandle};
use crate::ServerShared;

/// Buffered-output bound (bytes) above which the connection stops
/// reading and admitting: the client must drain what it already has
/// coming before it can cause more to exist.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// Input-line bound (bytes). A partial line that grows past it is
/// answered with one id-less error line; the connection then stops
/// reading, answers the lines it had already framed, flushes and closes.
/// The bound is sized from the wire caps: the longest line the decoder
/// can accept carries an explicit `r` list of `MAX_GRID_R_POINTS` values
/// and frontier axes of up to `MAX_FRONTIER_POINTS + 1` values, at 32
/// bytes per value (a shortest round-trip float is at most 24, plus its
/// separator), plus 64 KiB for the scenario, keys and id: room for a
/// reply time of `MAX_MIXTURE_COMPONENTS` components at 64 bytes each.
pub const MAX_LINE_BYTES: usize =
    (wire::MAX_GRID_R_POINTS + wire::MAX_FRONTIER_POINTS + 1) * 32 + 64 * 1024;

/// Queued-line bound (bytes) with the same role on the input side: while
/// a request waits for a permit or a stdin connection's gate is shut,
/// reads stop once the lines parked behind it and the partial line reach
/// this charge, so a client that floods requests faster than the budget
/// admits them is left in the kernel
/// socket buffer, not in server memory. The read that crosses the bound
/// parks what it completed, so the parked charge stays below
/// `MAX_QUEUED_BYTES + READ_CHUNK * QUEUED_LINE_OVERHEAD` (1.25 MiB).
const MAX_QUEUED_BYTES: usize = 1024 * 1024;

/// What a parked line is charged beyond its text: its `Vec` and its
/// slot in the queue, 24 bytes each, rounded up for the allocator. A
/// flood of empty lines is bounded too.
const QUEUED_LINE_OVERHEAD: usize = 64;

/// Read chunk size, and (via [`MAX_READ_CHUNKS`]) the per-event read
/// bound that keeps one chatty connection from starving the loop.
const READ_CHUNK: usize = 4096;
const MAX_READ_CHUNKS: usize = 16;

/// A connected client socket. The reactor needs concrete types (for
/// `as_raw_fd`), not the old `ClientStream` trait object.
pub(crate) enum ClientSocket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl ClientSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientSocket::Tcp(s) => s.read(buf),
            ClientSocket::Unix(s) => s.read(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            ClientSocket::Tcp(s) => s.write_vectored(bufs),
            ClientSocket::Unix(s) => s.write_vectored(bufs),
        }
    }

    /// Best-effort blocking write of one refusal line (used on sockets
    /// rejected at the connection cap, before they join the loop).
    pub(crate) fn write_line_best_effort(&mut self, line: &str) {
        let result = match self {
            ClientSocket::Tcp(s) => s
                .write_all(line.as_bytes())
                .and_then(|()| s.write_all(b"\n"))
                .and_then(|()| s.flush()),
            ClientSocket::Unix(s) => s
                .write_all(line.as_bytes())
                .and_then(|()| s.write_all(b"\n"))
                .and_then(|()| s.flush()),
        };
        let _ = result;
    }

    /// Switches an admitted socket to nonblocking mode: `accept(2)`
    /// does not inherit the listener's flags.
    pub(crate) fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            ClientSocket::Tcp(s) => s.set_nonblocking(true),
            ClientSocket::Unix(s) => s.set_nonblocking(true),
        }
    }

    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            ClientSocket::Tcp(s) => s.as_raw_fd(),
            ClientSocket::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// The coalescing output buffer: answers queue in order and leave
/// through `writev`-style vectored writes, so a burst of completions
/// costs one syscall, not one per line.
///
/// A sweep's answer queues as its typed response, the landscape's 8 bytes
/// per cell per metric, and is encoded by [`WireResponse::write_slice`]
/// only when everything ahead of it has been written, one slice of at
/// most [`SLICE_BYTES`] per [`OutBuf::write_to`]. Every other answer is
/// encoded when it is queued: its line becomes a chunk as it is, the
/// response `String`'s own buffer with its newline appended.
#[derive(Default)]
struct OutBuf {
    queue: VecDeque<Out>,
    /// Bytes of the front chunk already written.
    head: usize,
    /// Unwritten bytes: the chunks' text, and each typed answer's upper
    /// bound on the text it has still to encode.
    len: usize,
}

/// One answer, or part of one, in the output queue.
enum Out {
    /// Encoded text: a line and its newline, or a slice of a sweep's line.
    Text(Vec<u8>),
    /// A sweep's answer and how far its line is encoded.
    Typed(Box<(WireResponse, LineCursor)>),
}

/// The most text one slice of a sweep's line holds: the reactor encodes at
/// most this much for one connection before it serves the others, and a
/// client can decode one slice while the next is encoded. A 16 × 100
/// answer (≈166 kB) leaves in three slices.
const SLICE_BYTES: usize = 64 * 1024;

/// At most this many `IoSlice`s per vectored write (the kernel caps at
/// `IOV_MAX` anyway; 64 keeps the stack array small).
const MAX_IOVECS: usize = 64;

impl OutBuf {
    /// Queues one answer: a sweep's typed, counted at its line's upper
    /// bound, and any other as its line.
    fn push(&mut self, response: WireResponse) {
        let cursor = LineCursor::default();
        match response.unwritten_bound(&cursor) {
            Some(bound) => {
                self.len += bound;
                self.queue
                    .push_back(Out::Typed(Box::new((response, cursor))));
            }
            None => self.push_line(response.to_line()),
        }
    }

    fn push_line(&mut self, mut line: String) {
        // The newline goes into the line's own buffer, which becomes the
        // chunk: a line is never copied on its way to the socket.
        line.push('\n');
        self.len += line.len();
        self.queue.push_back(Out::Text(line.into_bytes()));
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Encodes the next slice of the typed answer at the front of the
    /// queue into a chunk ahead of it; the chunk replaces the answer once
    /// its line is complete.
    fn encode_slice(&mut self) {
        let Some(Out::Typed(typed)) = self.queue.front_mut() else {
            return;
        };
        let (response, cursor) = &mut **typed;
        let before = response.unwritten_bound(cursor).unwrap_or(0);
        let mut slice = String::with_capacity(SLICE_BYTES + 1);
        let done = response.write_slice(cursor, &mut slice, SLICE_BYTES);
        let after = response.unwritten_bound(cursor).unwrap_or(0);
        if done {
            slice.push('\n');
        }
        self.len = self.len + after + slice.len() - before;
        let chunk = Out::Text(slice.into_bytes());
        match self.queue.front_mut() {
            Some(front) if done => *front = chunk,
            _ => self.queue.push_front(chunk),
        }
    }

    /// Writes as much as the socket will take, encoding at most one slice
    /// of a typed answer when everything ahead of it is written. Returns
    /// the bytes moved; `WouldBlock` is progress-so-far, any other error
    /// propagates.
    fn write_to(&mut self, socket: &mut ClientSocket) -> io::Result<usize> {
        let mut written_total = 0;
        let mut sliced = false;
        loop {
            if !sliced && matches!(self.queue.front(), Some(Out::Typed(_))) {
                self.encode_slice();
                sliced = true;
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOVECS.min(self.queue.len()));
            for (i, out) in self.queue.iter().take(MAX_IOVECS).enumerate() {
                let Out::Text(chunk) = out else {
                    break;
                };
                let start = if i == 0 { self.head } else { 0 };
                slices.push(IoSlice::new(&chunk[start..]));
            }
            if slices.is_empty() {
                break;
            }
            match socket.write_vectored(&slices) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(mut n) => {
                    written_total += n;
                    self.len -= n;
                    while n > 0 {
                        let Some(Out::Text(front)) = self.queue.front() else {
                            break;
                        };
                        let remaining = front.len() - self.head;
                        if n >= remaining {
                            n -= remaining;
                            self.head = 0;
                            self.queue.pop_front();
                        } else {
                            self.head += n;
                            n = 0;
                        }
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(written_total)
    }
}

/// The two rules of `zeroconf engine`'s connection ([`crate::serve_stdio`]),
/// which no client can ask for: a readable EOF ends the input and drains
/// the connection, and a line is taken only while fewer than `capacity`
/// requests are unanswered (lines park at this gate).
pub(crate) struct StdinRules {
    pub(crate) capacity: usize,
    /// Set once: the session's counters line when its input ended and every
    /// line was answered, or why the session ended before its input did.
    pub(crate) end: Arc<OnceLock<Result<String, String>>>,
}

/// One client connection, owned and driven by its endpoint's event loop.
pub(crate) struct Connection {
    /// `None` once the client is gone and the loop has dropped the fd.
    socket: Option<ClientSocket>,
    conn_id: u64,
    shared: Arc<ServerShared>,
    session: PipelinedSession,
    stdin: Option<StdinRules>,
    /// Bytes read but not yet framed into a line.
    inbuf: Vec<u8>,
    /// Leading bytes of `inbuf` already searched for a newline.
    inbuf_scanned: usize,
    /// The head of the queue: a decoded request waiting for a budget
    /// permit. Only the budget is retried; the line is never parsed again.
    held: Option<WireRequest>,
    /// Complete lines queued behind the held request or a shut gate, still
    /// as bytes: admission order is arrival order, always.
    parked: VecDeque<Vec<u8>>,
    /// The charge for `parked`: each line's length plus
    /// [`QUEUED_LINE_OVERHEAD`].
    parked_bytes: usize,
    out: OutBuf,
    metrics: ConnMetrics,
    /// Budget permits held; kept equal to the session's pending count.
    permits: usize,
    /// Client gone (EOF, read/write error, hangup): withdrawing.
    gone: bool,
    /// Server drain: no more reading; queued and in-flight work is
    /// still answered, then the output is flushed and the conn closes.
    draining: bool,
}

impl Connection {
    /// A connection on `socket` whose session's completions wake the
    /// loop through `wake`; a stdin connection when `stdin` is set.
    pub(crate) fn new(
        socket: ClientSocket,
        conn_id: u64,
        shared: Arc<ServerShared>,
        wake: WakeHandle,
        stdin: Option<StdinRules>,
    ) -> Connection {
        let mut session = PipelinedSession::with_team(Arc::clone(&shared.team));
        session.set_completion_notifier(Arc::new(move || wake.notify()));
        Connection {
            socket: Some(socket),
            conn_id,
            shared,
            session,
            stdin,
            inbuf: Vec::new(),
            inbuf_scanned: 0,
            held: None,
            parked: VecDeque::new(),
            parked_bytes: 0,
            out: OutBuf::default(),
            metrics: ConnMetrics::default(),
            permits: 0,
            gone: false,
            draining: false,
        }
    }

    /// What this connection currently waits on. The event loop
    /// reregisters the fd whenever this changes.
    pub(crate) fn interest(&self) -> Interest {
        Interest {
            readable: !self.gone && !self.draining && !self.intake_gated(),
            writable: !self.gone && !self.out.is_empty(),
        }
    }

    /// Whether intake is paused by backpressure: the client has enough
    /// output to drain, or enough bytes waiting behind a request that
    /// waits for a permit or at a shut line gate, already.
    fn intake_gated(&self) -> bool {
        self.out.len() >= OUT_HIGH_WATER
            || ((self.queued() > 0 || self.at_gate())
                && self.parked_bytes + self.inbuf.len() >= MAX_QUEUED_BYTES)
    }

    /// Stdin rule 2: the gate is shut while `capacity` requests are unanswered.
    fn at_gate(&self) -> bool {
        self.stdin
            .as_ref()
            .is_some_and(|rules| self.pending() >= rules.capacity)
    }

    /// Requests received but not yet admitted: the held one plus the
    /// parked lines behind it.
    fn queued(&self) -> usize {
        usize::from(self.held.is_some()) + self.parked.len()
    }

    /// The connection has nothing left to do and can be reaped.
    pub(crate) fn finished(&self) -> bool {
        let pending = self.pending();
        if self.gone {
            return pending == 0;
        }
        self.draining && pending == 0 && self.queued() == 0 && self.out.is_empty()
    }

    pub(crate) fn is_gone(&self) -> bool {
        self.gone
    }

    /// Takes the socket so the loop can deregister and drop the fd
    /// (teardown order matters: deregister, then close).
    pub(crate) fn take_socket(&mut self) -> Option<ClientSocket> {
        self.socket.take()
    }

    pub(crate) fn raw_fd(&self) -> Option<RawFd> {
        self.socket.as_ref().map(ClientSocket::raw_fd)
    }

    fn pending(&self) -> usize {
        self.session.pending()
    }

    /// Readable readiness: read until `WouldBlock` (bounded per event),
    /// frame complete lines, process or queue each in arrival order.
    pub(crate) fn on_readable(&mut self) {
        if self.gone || self.draining {
            return;
        }
        let mut chunk = [0_u8; READ_CHUNK];
        for _ in 0..MAX_READ_CHUNKS {
            if self.intake_gated() {
                break;
            }
            let Some(socket) = &mut self.socket else {
                return;
            };
            match socket.read(&mut chunk) {
                Ok(0) if self.stdin.is_some() => {
                    // Stdin rule 1: the input ended; its trailing bytes
                    // are a last, unterminated line.
                    if !self.inbuf.is_empty() {
                        self.inbuf.push(b'\n');
                        self.frame_lines();
                    }
                    self.begin_drain();
                    return;
                }
                Ok(0) => {
                    self.become_gone();
                    return;
                }
                Ok(n) => {
                    self.metrics.bytes_in += n as u64;
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.frame_lines();
                    if self.inbuf.len() > MAX_LINE_BYTES {
                        self.refuse_long_line();
                        return;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    break;
                }
                Err(_) => {
                    self.become_gone();
                    return;
                }
            }
        }
    }

    /// Takes or parks each complete line of `inbuf`, in arrival order.
    fn frame_lines(&mut self) {
        for line in take_lines(&mut self.inbuf, &mut self.inbuf_scanned) {
            // Once anything is queued, everything queues: responses must
            // come back in request order.
            if self.queued() > 0 || self.at_gate() {
                self.parked_bytes += line.len() + QUEUED_LINE_OVERHEAD;
                self.parked.push_back(line);
            } else {
                self.try_process_line(&line);
            }
        }
    }

    /// The partial line outgrew [`MAX_LINE_BYTES`]: one id-less error
    /// line answers it, then the connection closes the way a drain does —
    /// no more reading, everything already framed is answered and
    /// flushed, then the loop reaps it. A stdin session ends there.
    fn refuse_long_line(&mut self) {
        let message = format!("input line is over the limit of {MAX_LINE_BYTES} bytes");
        if let Some(rules) = &self.stdin {
            let _ = rules.end.set(Err(message.clone()));
        }
        self.count_request();
        self.push_answer(WireResponse::Error {
            id: String::new(),
            message,
        });
        self.begin_drain();
    }

    /// Hangup/error readiness: `EPOLLHUP`/`EPOLLERR` mean the peer is
    /// unreachable in both directions (a half-close arrives as readable
    /// EOF instead), so the client is gone no matter what state the
    /// connection was in — including drain, where waiting to flush to a
    /// dead socket would stall the whole shutdown.
    pub(crate) fn on_hangup(&mut self) {
        self.become_gone();
    }

    /// The per-tick pump: poll completions (always — this is what frees
    /// permits), retry queued admissions, flush output.
    pub(crate) fn pump(&mut self) {
        let ready = self.session.poll_responses();
        // Permits return the moment completions are polled — before any
        // write, which can lag behind a slow reader. A slow reader
        // therefore backpressures only itself, never the shared budget.
        self.sync_permits();
        if !self.gone {
            for response in ready {
                self.push_answer(response);
            }
            self.admit_parked();
            self.flush();
        }
    }

    /// Writable readiness: same flush the pump does, but driven by the
    /// socket opening up rather than by new completions.
    pub(crate) fn on_writable(&mut self) {
        self.flush();
    }

    /// Enters drain mode: discard unframed input and stop reading.
    /// Everything already framed — the held request and parked lines
    /// included — is still answered: the pump keeps retrying
    /// [`Connection::admit_parked`], so queued work flows through the
    /// fair budget as permits free, then the flush empties `out`. The
    /// pre-reactor daemon answered five pipelined requests against
    /// `--inflight 4` across a SIGTERM; losing the queued fifth would
    /// regress that invariant.
    pub(crate) fn begin_drain(&mut self) {
        if self.draining || self.gone {
            return;
        }
        self.draining = true;
        self.inbuf.clear();
        self.inbuf_scanned = 0;
        self.admit_parked();
    }

    /// Admits queued requests in order until one must keep waiting: the
    /// held request first (a budget retry, no parse), then each parked
    /// line as it reaches the head. Under backpressure the connection
    /// steps *out* of the budget queue — holding the queue head while
    /// refusing to make progress would starve every other connection.
    fn admit_parked(&mut self) {
        while self.queued() > 0 {
            if self.intake_gated_for_admission() {
                self.shared.budget.leave(self.conn_id);
                return;
            }
            let admitted = if let Some(request) = self.held.take() {
                self.try_admit(request)
            } else if self.at_gate() {
                return;
            } else if let Some(line) = self.parked.pop_front() {
                self.parked_bytes -= line.len() + QUEUED_LINE_OVERHEAD;
                self.try_process_line(&line)
            } else {
                return;
            };
            if !admitted {
                return;
            }
        }
    }

    /// Admission backpressure: the output-side half of
    /// [`Connection::intake_gated`]. Applies during drain too — a slow
    /// reader's queued work admits only as it consumes its responses,
    /// so even a draining connection never pins unbounded output.
    fn intake_gated_for_admission(&self) -> bool {
        self.out.len() >= OUT_HIGH_WATER
    }

    /// Attempts one request line: the line's one parse, then its one
    /// decode. Returns `false` when the decoded request needs a budget
    /// permit that is not available right now; it is then held at the
    /// head of the queue, uncounted and unsubmitted.
    fn try_process_line(&mut self, line: &(impl AsRef<[u8]> + ?Sized)) -> bool {
        #[cfg(test)]
        tests::TAKEN_AT_GATE.with(|taken| taken.set(taken.get() + usize::from(self.at_gate())));
        let Ok(line) = std::str::from_utf8(line.as_ref()) else {
            // Its id cannot be read back: an id-less error answers it.
            self.count_request();
            self.push_answer(WireResponse::Error {
                id: String::new(),
                message: "input line is not valid UTF-8".to_owned(),
            });
            return true;
        };
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        #[cfg(test)]
        tests::PARSES.with(|parses| parses.set(parses.get() + 1));
        let request = match wire::parse_request_json(line) {
            // Stats lines are answered *before* admission — the threaded
            // handler's ordering. They submit no engine work, so they
            // must never consume a permit, even on a crafted line that
            // also carries a work verb.
            Ok(value) if value.get("stats").is_some() => {
                self.count_request();
                let stats_line = stats_response_line(wire::line_id(&value), &self.snapshot());
                self.push_out(stats_line);
                return true;
            }
            parsed => wire::decode_line(parsed),
        };
        match request {
            Ok(request) => self.try_admit(request),
            // A line that fails to decode is answered at once and never
            // waits for a permit.
            Err(answer) => {
                self.count_request();
                self.push_out(answer);
                true
            }
        }
    }

    /// Submits one decoded request, first taking a budget permit when it
    /// carries engine work (every verb but `cancel`). Returns `false`,
    /// holding the request, when no permit is free.
    fn try_admit(&mut self, request: WireRequest) -> bool {
        if let WireRequest::Cancel { .. } = request {
            self.metrics.cancellations += 1;
        } else if self.shared.budget.try_acquire(self.conn_id) {
            self.permits += 1;
        } else {
            self.held = Some(request);
            return false;
        }
        self.count_request();
        let immediate = self.session.submit_request(request);
        for response in immediate {
            self.push_answer(response);
        }
        self.sync_permits();
        true
    }

    /// Test seam (listener drain tests): queues output exactly as a
    /// polled completion would, without needing a live session.
    #[cfg(test)]
    pub(crate) fn test_push_out(&mut self, line: &str) {
        self.push_out(line.to_owned());
    }

    /// Counts one request as processed (exactly once per line, at the
    /// point where the line can no longer be held or refused).
    fn count_request(&mut self) {
        self.metrics.requests += 1;
        // ORDERING: server-wide statistics tally; readers only report it.
        self.shared
            .metrics
            .requests
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Releases permits for requests no longer pending, keeping
    /// `permits == session.pending()`.
    fn sync_permits(&mut self) {
        let pending = self.pending();
        if self.permits > pending {
            self.shared.budget.release_many(self.permits - pending);
            self.permits = pending;
        }
    }

    /// Queues one response line (counted here, written by the flush).
    fn push_out(&mut self, line: String) {
        self.count_response();
        self.out.push_line(line);
    }

    /// Queues one typed answer (counted here, encoded and written by the
    /// flush).
    fn push_answer(&mut self, response: WireResponse) {
        self.count_response();
        self.out.push(response);
    }

    fn count_response(&mut self) {
        self.metrics.responses += 1;
        // ORDERING: server-wide statistics tally; readers only report it.
        self.shared
            .metrics
            .responses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Moves buffered output into the socket until it would block.
    fn flush(&mut self) {
        if self.gone || self.out.is_empty() {
            return;
        }
        let Some(socket) = &mut self.socket else {
            return;
        };
        match self.out.write_to(socket) {
            Ok(n) => self.metrics.bytes_out += n as u64,
            Err(_) => self.become_gone(),
        }
    }

    /// The client-gone transition: cancel every unanswered request of
    /// this connection (and only this one), discard everything buffered,
    /// step out of the budget queue. Permits for in-flight work come
    /// home as the engine confirms each cancellation (via the pump);
    /// until then the connection lingers socketless in the loop's map.
    fn become_gone(&mut self) {
        if self.gone {
            return;
        }
        self.gone = true;
        let abandoned = self.pending() as u64;
        self.metrics.cancellations += abandoned;
        // ORDERING: server-wide statistics tally; readers only report it.
        self.shared
            .metrics
            .cancelled_on_disconnect
            .fetch_add(abandoned, std::sync::atomic::Ordering::Relaxed);
        let _ = self.session.cancel_all();
        self.sync_permits();
        self.inbuf.clear();
        self.inbuf_scanned = 0;
        self.held = None;
        self.parked.clear();
        self.parked_bytes = 0;
        self.out.clear();
        self.shared.budget.leave(self.conn_id);
    }

    /// Final accounting when the loop reaps this connection. A stdin
    /// session that drained did so at its input's end or a refusal.
    pub(crate) fn close(&mut self) {
        if let Some(rules) = &self.stdin {
            let _ = rules.end.set(if self.gone {
                Err("the session ended before its input did".to_owned())
            } else {
                Ok(self.session.stats_line())
            });
        }
        self.sync_permits();
        // A reaped connection must not leak permits even if a session
        // invariant broke; the budget caps releases at capacity anyway.
        if self.permits > 0 {
            self.shared.budget.release_many(self.permits);
            self.permits = 0;
        }
        self.shared.budget.leave(self.conn_id);
        // ORDERING: statistics tally; the opened/closed pair is only a
        // gauge, momentary skew between the two counters is acceptable.
        self.shared
            .metrics
            .connections_closed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot<'_> {
        StatsSnapshot {
            conn_id: self.conn_id,
            conn: self.metrics,
            pending: self.pending(),
            pipeline: self.session.pipeline_stats(),
            base_evictions: self.session.base_evictions(),
            server: &self.shared.metrics,
            budget_capacity: self.shared.budget.capacity(),
            engine: self.session.stats(),
        }
    }
}

/// Splits complete `\n`-terminated lines off the front of `buf`,
/// leaving any trailing partial line in place for the next read.
/// `scanned` counts the leading bytes of `buf` already searched (they
/// hold no newline): the search resumes there, so a long partial line
/// costs time linear in its length across all its reads instead of a
/// rescan per read, and the framed lines leave `buf` in one move.
fn take_lines(buf: &mut Vec<u8>, scanned: &mut usize) -> Vec<Vec<u8>> {
    let mut lines = Vec::new();
    let mut start = 0;
    let mut from = (*scanned).min(buf.len());
    while let Some(offset) = buf[from..].iter().position(|&b| b == b'\n') {
        let end = from + offset;
        lines.push(buf[start..end].to_vec());
        start = end + 1;
        from = start;
    }
    buf.drain(..start);
    *scanned = buf.len();
    lines
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// Request lines the intake has parsed on this thread.
        pub(super) static PARSES: Cell<usize> = const { Cell::new(0) };
        /// Lines taken on this thread while a stdin connection's gate was
        /// shut: none ever is.
        pub(super) static TAKEN_AT_GATE: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn take_lines_keeps_partial_tail() {
        let mut buf = b"one\ntwo\nthr".to_vec();
        let mut scanned = 0;
        assert_eq!(take_lines(&mut buf, &mut scanned), [b"one", b"two"]);
        assert_eq!(buf, b"thr");
        buf.extend_from_slice(b"ee\n");
        assert_eq!(take_lines(&mut buf, &mut scanned), [b"three"]);
        assert!(buf.is_empty());
    }

    #[test]
    fn take_lines_handles_empty_and_blank_lines() {
        let mut buf = b"\n\nx\n".to_vec();
        assert_eq!(take_lines(&mut buf, &mut 0), [&b""[..], b"", b"x"]);
        assert!(buf.is_empty());
    }

    #[test]
    fn take_lines_resumes_its_search_where_the_last_read_stopped() {
        let mut buf = b"partial".to_vec();
        let mut scanned = 0;
        assert!(take_lines(&mut buf, &mut scanned).is_empty());
        assert_eq!(scanned, buf.len(), "the partial line is searched once");
        buf.extend_from_slice(b" line\nnext");
        assert_eq!(take_lines(&mut buf, &mut scanned), [b"partial line"]);
        assert_eq!((buf.as_slice(), scanned), (&b"next"[..], 4));
    }

    #[test]
    fn outbuf_tracks_partial_vectored_writes() {
        // A socketpair via TcpStream would need a real fd; exercise the
        // chunk bookkeeping directly instead.
        let mut out = OutBuf::default();
        out.push_line("hello".to_owned());
        out.push_line("world!".to_owned());
        assert_eq!(out.len(), 13);
        assert!(!out.is_empty());
        out.clear();
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn outbuf_queues_a_response_line_without_copying_it() {
        let line = wire::WireResponse::Error {
            id: "e1".to_owned(),
            message: "boom".to_owned(),
        }
        .to_line();
        let (bytes, len) = (line.as_ptr(), line.len());
        let mut out = OutBuf::default();
        out.push_line(line);
        let Some(Out::Text(chunk)) = out.queue.front() else {
            panic!("an error line queues as text");
        };
        assert_eq!(chunk.as_ptr(), bytes, "the chunk is the line's own buffer");
        assert_eq!(chunk.len(), len + 1);
        assert_eq!(chunk.last(), Some(&b'\n'));
    }

    #[test]
    fn outbuf_flushes_through_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut socket = ClientSocket::Tcp(server);

        let mut out = OutBuf::default();
        out.push_line("alpha".to_owned());
        out.push_line("beta".to_owned());
        let written = out.write_to(&mut socket).unwrap();
        assert_eq!(written, 11);
        assert!(out.is_empty());

        let mut reader = std::io::BufReader::new(client);
        let mut got = String::new();
        std::io::BufRead::read_line(&mut reader, &mut got).unwrap();
        assert_eq!(got, "alpha\n");
        got.clear();
        std::io::BufRead::read_line(&mut reader, &mut got).unwrap();
        assert_eq!(got, "beta\n");
    }

    #[test]
    fn a_sweep_answer_waits_typed_and_leaves_one_slice_per_flush() {
        let cells = 16 * 400;
        let landscape = zeroconf_engine::Landscape::new(
            16,
            (0..400).map(|r| 0.1 * f64::from(r + 1)).collect(),
            Some((0..cells).map(|i| 1.0 / (i as f64 + 3.0)).collect()),
            Some((0..cells).map(|i| (i as f64).sqrt() * 1e-9).collect()),
        )
        .unwrap();
        let response = WireResponse::Sweep {
            id: "big".to_owned(),
            response: zeroconf_engine::SweepResponse {
                landscape,
                stats: zeroconf_engine::BatchStats::default(),
            },
        };
        let line = response.to_line();
        let bound = response.unwritten_bound(&LineCursor::default()).unwrap();

        let mut out = OutBuf::default();
        out.push(response);
        assert!(matches!(out.queue.front(), Some(Out::Typed(_))));
        assert_eq!(out.len(), bound, "counted at its bound until encoded");
        assert!(
            out.len() >= OUT_HIGH_WATER,
            "so it gates intake as its line did"
        );
        out.push_line("after".to_owned());

        let (server, mut client) = std::os::unix::net::UnixStream::pair().unwrap();
        server.set_nonblocking(true).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut socket = ClientSocket::Unix(server);
        let mut received = Vec::new();
        let mut flushes = 0;
        while !out.is_empty() {
            let written = out.write_to(&mut socket).unwrap();
            assert!(written <= SLICE_BYTES + 1 + "after\n".len(), "{written}");
            flushes += 1;
            let mut chunk = [0_u8; 64 * 1024];
            loop {
                match std::io::Read::read(&mut client, &mut chunk) {
                    Ok(n) if n > 0 => received.extend_from_slice(&chunk[..n]),
                    _ => break,
                }
            }
        }
        assert_eq!(out.len(), 0);
        assert_eq!(received, format!("{line}\nafter\n").into_bytes());
        assert!(flushes > line.len() / SLICE_BYTES, "{flushes} flushes");
    }

    #[test]
    fn set_nonblocking_makes_reads_return_would_block() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut socket = ClientSocket::Tcp(server);
        socket.set_nonblocking().unwrap();
        let mut buf = [0u8; 8];
        let err = socket.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    impl Connection {
        /// Requests waiting for admission: the held one and the parked
        /// lines behind it.
        fn parked_len(&self) -> usize {
            self.queued()
        }
    }

    fn test_shared(inflight: usize) -> Arc<crate::ServerShared> {
        Arc::new(crate::ServerShared::new(crate::ServeConfig {
            inflight,
            max_connections: 4,
            ..crate::ServeConfig::default()
        }))
    }

    fn test_conn(shared: Arc<crate::ServerShared>) -> Connection {
        test_conn_and_client(shared).0
    }

    /// A connection on a nonblocking socket, as the loop runs it, and
    /// the client end of that socket.
    fn test_conn_and_client(
        shared: Arc<crate::ServerShared>,
    ) -> (Connection, std::io::BufReader<std::net::TcpStream>) {
        test_conn_and_client_with(shared, None)
    }

    /// [`test_conn_and_client`] with the stdin rules when `stdin` is set.
    fn test_conn_and_client_with(
        shared: Arc<crate::ServerShared>,
        stdin: Option<StdinRules>,
    ) -> (Connection, std::io::BufReader<std::net::TcpStream>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let wake = WakeHandle::new().unwrap();
        let conn = Connection::new(ClientSocket::Tcp(server), 1, shared, wake, stdin);
        (conn, std::io::BufReader::new(client))
    }

    /// Pumps `conn` until it has written `responses` lines and has
    /// nothing pending.
    fn pump_until_answered(conn: &mut Connection, responses: u64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while conn.metrics.responses < responses || conn.pending() > 0 || !conn.out.is_empty() {
            assert!(std::time::Instant::now() < deadline, "no answer in 30 s");
            conn.pump();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    fn read_answer(client: &mut std::io::BufReader<std::net::TcpStream>) -> wire::Json {
        let mut line = String::new();
        std::io::BufRead::read_line(client, &mut line).unwrap();
        wire::parse_json(&line).unwrap()
    }

    /// Another connection takes every permit of the budget.
    fn exhaust(budget: &crate::FairBudget) {
        for _ in 0..budget.capacity() {
            assert!(budget.try_acquire(u64::MAX));
        }
        assert_eq!(budget.available(), 0);
    }

    fn sweep_line(id: &str) -> String {
        zeroconf_engine::testkit::sweep_line(id, 3, &[0.5, 1.0, 2.0])
    }

    #[test]
    fn interest_reflects_backpressure_and_output() {
        let mut conn = test_conn(test_shared(2));

        // Fresh connection: read-only interest.
        assert_eq!(conn.interest(), Interest::READ);

        // Queued output adds write interest.
        conn.push_out("pong".to_owned());
        assert!(conn.interest().writable);
        assert!(conn.interest().readable);

        // Crossing the high-water mark gates reading.
        conn.push_out("x".repeat(OUT_HIGH_WATER));
        assert!(!conn.interest().readable, "reads gate above high water");
        assert!(conn.interest().writable);
        assert_eq!(conn.parked_len(), 0);
    }

    /// Regression: a crafted line carrying both `"stats"` and a work
    /// verb must be answered as a stats request *without* touching the
    /// budget. The ordering bug (admission before the stats
    /// early-return) acquired a permit such a line never released,
    /// permanently shrinking the shared pool.
    #[test]
    fn stats_line_with_work_verb_never_consumes_a_permit() {
        let shared = test_shared(2);
        let capacity = shared.budget.capacity();
        let mut conn = test_conn(Arc::clone(&shared));

        for line in [
            r#"{"v":1,"id":"s","stats":true}"#,
            r#"{"v":1,"id":"s","stats":true,"scenario":{"n":4}}"#,
            r#"{"v":1,"id":"s","stats":true,"rescore":{}}"#,
        ] {
            assert!(conn.try_process_line(line), "stats lines never park");
        }
        assert_eq!(
            shared.budget.available(),
            capacity,
            "stats lines must not acquire (or leak) budget permits"
        );
        assert_eq!(conn.permits, 0);
        assert_eq!(conn.metrics.responses, 3, "each stats line is answered");
    }

    #[test]
    fn a_line_waiting_for_a_permit_is_parsed_once() {
        let shared = test_shared(1);
        let (mut conn, mut client) = test_conn_and_client(Arc::clone(&shared));
        exhaust(&shared.budget);
        let parses = PARSES.with(Cell::get);

        assert!(!conn.try_process_line(&sweep_line("w")), "no permit: held");
        for _ in 0..50 {
            conn.pump();
        }
        assert_eq!(
            PARSES.with(Cell::get) - parses,
            1,
            "a held request is never parsed again"
        );
        assert_eq!(conn.metrics.responses, 0);
        assert_eq!(conn.queued(), 1);

        shared.budget.release();
        pump_until_answered(&mut conn, 1);
        assert_eq!(PARSES.with(Cell::get) - parses, 1);
        assert_eq!(conn.metrics.responses, 1, "answered once");
        assert_eq!(conn.metrics.requests, 1);
        assert_eq!(conn.queued(), 0);
        let answer = read_answer(&mut client);
        assert_eq!(answer.get("id"), Some(&wire::Json::Str("w".to_owned())));
        assert!(answer.get("cells").is_some(), "{answer:?}");
        assert_eq!(conn.permits, 0);
        assert_eq!(shared.budget.available(), shared.budget.capacity());
    }

    #[test]
    fn a_line_that_fails_to_decode_is_answered_at_once_without_a_permit() {
        let shared = test_shared(2);
        let mut conn = test_conn(Arc::clone(&shared));
        exhaust(&shared.budget);

        let malformed = r#"{"v":1,"id":"x","scenario":{}}"#;
        let mut engine_session = PipelinedSession::new(
            zeroconf_engine::Engine::new(zeroconf_engine::EngineConfig::default()),
            zeroconf_engine::PipelineConfig::with_depth(1),
        );
        let expected = engine_session.submit_line(malformed);
        assert_eq!(expected.len(), 1, "`zeroconf engine` answers at once");

        assert!(conn.try_process_line(malformed), "answered, not held");
        assert_eq!(conn.queued(), 0);
        assert_eq!(conn.permits, 0);
        assert_eq!(shared.budget.available(), 0, "no permit taken");
        let Some(Out::Text(chunk)) = conn.out.queue.pop_front() else {
            panic!("an error answer queues as text");
        };
        assert_eq!(chunk, format!("{}\n", expected[0]).into_bytes());

        // A cancel that does not decode is not counted as a cancellation.
        assert!(conn.try_process_line(r#"{"v":1,"id":"c","cancel":5}"#));
        assert_eq!(conn.metrics.cancellations, 0);
        assert_eq!(conn.metrics.responses, 2);
        assert_eq!(
            conn.session.pipeline_stats().submitted,
            0,
            "no engine work was submitted"
        );
    }

    /// A sweep, a sweep whose id holds the byte 0xFF, a sweep: the middle
    /// line gets one id-less error answer (its id cannot be read back, so
    /// no answer guesses it) and the others their sweeps. On a stdin
    /// connection at capacity 1 the error is the middle answer.
    #[test]
    fn a_line_that_is_not_utf8_gets_one_id_less_error() {
        let mut lines = format!("{}\n", sweep_line("a")).into_bytes();
        let bad = sweep_line("b").replacen("\"b\"", "\"b\u{1}\"", 1);
        lines.extend(bad.bytes().map(|b| if b == 1 { 0xFF } else { b }));
        lines.extend(format!("\n{}\n", sweep_line("c")).bytes());
        for stdin in [false, true] {
            let end = Arc::new(OnceLock::new());
            let rules = stdin.then(|| StdinRules { capacity: 1, end });
            let (mut conn, mut client) = test_conn_and_client_with(test_shared(2), rules);
            std::io::Write::write_all(client.get_mut(), &lines).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while conn.metrics.bytes_in < lines.len() as u64 {
                assert!(std::time::Instant::now() < deadline, "lines never arrived");
                conn.on_readable();
                conn.pump();
            }
            pump_until_answered(&mut conn, 3);
            let answers: Vec<wire::Json> = (0..3).map(|_| read_answer(&mut client)).collect();
            let error = answers.iter().find(|a| a.get("error").is_some()).unwrap();
            assert_eq!(wire::line_id(error), "", "{error:?}");
            assert_eq!(
                error.get("error"),
                Some(&wire::Json::Str("input line is not valid UTF-8".to_owned()))
            );
            let mut ids: Vec<&str> = answers.iter().map(wire::line_id).collect();
            if stdin {
                assert_eq!(ids, ["a", "", "c"], "in input order");
            }
            ids.sort_unstable();
            assert_eq!(ids, ["", "a", "c"]);
            assert_eq!(conn.metrics.requests, 3);
        }
    }

    #[test]
    fn lines_behind_a_held_request_wait_and_keep_their_order() {
        let shared = test_shared(1);
        let (mut conn, mut client) = test_conn_and_client(Arc::clone(&shared));
        exhaust(&shared.budget);
        let parses = PARSES.with(Cell::get);

        let lines = format!(
            "{}\n{}\n{}\n",
            sweep_line("w"),
            r#"{"v":1,"id":"k","stats":true}"#,
            r#"{"v":1,"id":"m","scenario":{}}"#,
        );
        std::io::Write::write_all(client.get_mut(), lines.as_bytes()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while conn.queued() < 3 {
            assert!(std::time::Instant::now() < deadline, "lines never arrived");
            conn.on_readable();
        }
        for _ in 0..10 {
            conn.pump();
        }
        assert_eq!(
            conn.metrics.responses, 0,
            "nothing overtakes the held request"
        );
        assert_eq!(PARSES.with(Cell::get) - parses, 1, "queued lines stay text");

        shared.budget.release();
        pump_until_answered(&mut conn, 3);
        assert_eq!(PARSES.with(Cell::get) - parses, 3);
        let stats = read_answer(&mut client);
        assert_eq!(stats.get("id"), Some(&wire::Json::Str("k".to_owned())));
        let seen = stats.get("stats").and_then(|s| s.get("conn")).unwrap();
        assert_eq!(
            seen.get("pending"),
            Some(&wire::Json::Num(1.0)),
            "after admission"
        );
        let malformed = read_answer(&mut client);
        assert_eq!(malformed.get("id"), Some(&wire::Json::Str("m".to_owned())));
        assert!(malformed.get("error").is_some(), "{malformed:?}");
        let sweep = read_answer(&mut client);
        assert_eq!(sweep.get("id"), Some(&wire::Json::Str("w".to_owned())));
        assert!(sweep.get("cells").is_some(), "{sweep:?}");
        assert_eq!(shared.budget.available(), shared.budget.capacity());
    }

    /// The most a connection's parked lines are charged: the bound, plus
    /// the lines completed by the one read that crosses it.
    const PARKED_BOUND: usize = MAX_QUEUED_BYTES + READ_CHUNK * QUEUED_LINE_OVERHEAD;

    /// The parked lines' charge, recounted from the lines themselves.
    fn parked_charge(conn: &Connection) -> usize {
        conn.parked
            .iter()
            .map(|line| line.len() + QUEUED_LINE_OVERHEAD)
            .sum()
    }

    /// The id of a decoded request.
    fn request_id(request: &WireRequest) -> &str {
        match request {
            WireRequest::Sweep { id, .. }
            | WireRequest::Rescore { id, .. }
            | WireRequest::Calibrate { id, .. }
            | WireRequest::Frontier { id, .. }
            | WireRequest::Cancel { id, .. } => id,
        }
    }

    /// Lines behind a request that waits for a permit are bounded in
    /// bytes, not in count. The client writes 16 MiB of 16 KiB lines
    /// (1,024 of them, all of which a bound of 1,024 queued lines would
    /// keep) while its first line waits: reads stop within the bound, the
    /// rest waits in the kernel, and once the permit frees every line is
    /// answered once, in order.
    #[test]
    fn queued_lines_are_bounded_in_bytes() {
        const LINES: usize = 1024;
        let shared = test_shared(1);
        let (mut conn, mut client) = test_conn_and_client(Arc::clone(&shared));
        exhaust(&shared.budget);
        // JSON whitespace pads each sweep to 16 KiB; its answer is small.
        let line = |k: usize| {
            let sweep = sweep_line(&format!("p{k}"));
            format!(
                "{{{:pad$}{}\n",
                "",
                &sweep[1..],
                pad = 16 * 1024 - sweep.len()
            )
        };
        let text: String = (0..LINES).map(line).collect();
        let total = text.len() as u64;
        let mut writer = client.get_ref().try_clone().unwrap();
        let writing =
            std::thread::spawn(move || std::io::Write::write_all(&mut writer, text.as_bytes()));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while conn.interest().readable {
            assert!(std::time::Instant::now() < deadline, "intake never stopped");
            conn.on_readable();
            let charge = parked_charge(&conn);
            assert!(charge < PARKED_BOUND, "{charge} bytes parked");
        }
        let read = conn.metrics.bytes_in;
        assert!(read < total / 8, "{read} of {total} bytes read");
        for _ in 0..10 {
            conn.pump();
            conn.on_readable();
        }
        assert_eq!(conn.metrics.bytes_in, read, "reads stay stopped");
        assert_eq!(conn.metrics.responses, 0);

        let reading = std::thread::spawn(move || {
            (0..LINES)
                .map(|_| wire::line_id(&read_answer(&mut client)).to_owned())
                .collect::<Vec<String>>()
        });
        shared.budget.release();
        while conn.metrics.responses < LINES as u64 || conn.pending() > 0 || !conn.out.is_empty() {
            assert!(std::time::Instant::now() < deadline, "lines never answered");
            conn.pump();
            conn.on_readable();
            let charge = parked_charge(&conn);
            assert!(charge < PARKED_BOUND, "{charge} bytes parked");
        }
        writing.join().unwrap().unwrap();
        let ids = reading.join().unwrap();
        let sent: Vec<String> = (0..LINES).map(|k| format!("p{k}")).collect();
        assert_eq!(ids, sent, "every line answered once, in order");
        assert_eq!(conn.metrics.bytes_in, total);
        assert_eq!(shared.budget.available(), shared.budget.capacity());
    }

    /// A random request line for the model below: its text, and the id
    /// its one answer carries (`None` for a blank line, which gets none).
    /// One line in six reuses an earlier line's id.
    fn model_line(
        rng: &mut zeroconf_rng::rngs::StdRng,
        k: usize,
        ids: &[String],
    ) -> (String, Option<String>) {
        use zeroconf_engine::testkit;
        use zeroconf_rng::Rng;
        // A random earlier line's id (any verb), or `never` before the
        // first one.
        let earlier = |rng: &mut zeroconf_rng::rngs::StdRng| match ids.len() {
            0 => "never".to_owned(),
            n => ids[rng.gen_range(0..n)].clone(),
        };
        let id = if rng.gen_range(0..6_u32) == 0 {
            earlier(rng)
        } else {
            format!("l{k}")
        };
        let line = match rng.gen_range(0..12_u32) {
            0..=3 => testkit::sweep_line(&id, rng.gen_range(1..5), &[0.5, 1.0, 2.0]),
            4 => testkit::heavy_sweep_line(&id, 16, 400),
            5 | 6 => testkit::rescore_line(&id, &earlier(rng), 1e9),
            7 => testkit::cancel_request_line(&id, &earlier(rng)),
            8 => format!("{{\"v\":1,\"id\":\"{id}\",\"stats\":true}}"),
            9 => return (" ".repeat(rng.gen_range(0..3)), None),
            10 => format!("{{\"v\":1,\"id\":\"{id}\",\"scenario\":{{}}}}"),
            // Unparseable: answered with an id-less error line.
            _ => return (testkit::MALFORMED_FRAME.to_owned(), Some(String::new())),
        };
        (line, Some(id))
    }

    /// Moves whatever the connection has written so far into `into`
    /// without blocking, so the model never waits on kernel buffers.
    fn read_available(client: &mut std::net::TcpStream, into: &mut Vec<u8>) {
        let mut chunk = [0_u8; 64 * 1024];
        loop {
            match std::io::Read::read(client, &mut chunk) {
                Ok(0) => return,
                Ok(n) => into.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) => panic!("reading answers: {e}"),
            }
        }
    }

    /// Tickets the connection's session has in the executor team:
    /// submitted, completion not yet received.
    fn tickets(conn: &Connection) -> u64 {
        let stats = conn.session.pipeline_stats();
        stats.submitted - stats.completed - stats.cancelled - stats.failed
    }

    /// Seeded model of one connection on a shared team: random line
    /// arrivals (ids reused, some while the request under that id is
    /// still in flight), permits taken and freed by a foreign connection,
    /// pumps, hangup and drain, in any order. Permits always equal
    /// pending requests, which count every ticket in the team, and the
    /// budget is conserved; the queue is always the latest arrivals in
    /// arrival order, so lines are admitted in the order they came, and
    /// its charge is exact and within its bound; every non-blank line
    /// gets exactly one answer, none is written after a hangup, no ticket
    /// outlives the reap, and every permit comes home.
    #[test]
    fn a_seeded_model_of_a_connection_answers_every_line_once() {
        zeroconf_rng::for_each_seed(0..48, |rng| connection_model(rng, false));
    }

    /// The same model on a stdin connection, where the input's end (after
    /// an unterminated last line, sometimes) replaces hangup and drain:
    /// no line is taken while `--inflight` requests are unanswered, every
    /// non-blank line gets exactly one answer, at capacity 1 in arrival
    /// order, and the session reports that it ended at its input's end.
    #[test]
    fn a_seeded_model_of_a_stdin_connection_answers_every_line_once() {
        zeroconf_rng::for_each_seed(0..48, |rng| connection_model(rng, true));
    }

    /// Records the answer a line sent is owed: none for a blank line.
    fn note(id: Option<String>, ids: &mut Vec<String>, expected: &mut Vec<String>) {
        if let Some(id) = id {
            if !id.is_empty() {
                ids.push(id.clone());
            }
            expected.push(id);
        }
    }

    fn connection_model(rng: &mut zeroconf_rng::rngs::StdRng, stdin: bool) {
        use zeroconf_rng::Rng;
        const FOREIGN: u64 = u64::MAX;
        let capacity = rng.gen_range(1..4_usize);
        let shared = test_shared(capacity);
        let end = Arc::new(OnceLock::new());
        let rules = stdin.then(|| StdinRules {
            capacity,
            end: Arc::clone(&end),
        });
        let (mut conn, client) = test_conn_and_client_with(Arc::clone(&shared), rules);
        let mut client = client.into_inner();
        client.set_nonblocking(true).unwrap();
        let taken_at_gate = TAKEN_AT_GATE.with(Cell::get);
        let mut received = Vec::new();
        let mut foreign = 0_usize;
        let mut expected: Vec<String> = Vec::new();
        let mut ids: Vec<String> = Vec::new();
        let mut sent: Vec<String> = Vec::new();
        let mut written = 0_u64;
        // On a stdin connection `draining` is the input's end.
        let (mut draining, mut out_at_hangup) = (false, None);
        let check = |conn: &Connection, foreign: usize, sent: &[String]| {
            assert_eq!(conn.permits, conn.pending(), "permits == pending");
            assert!(
                conn.pending() as u64 >= tickets(conn),
                "every ticket in the team is pending"
            );
            assert_eq!(
                shared.budget.available() + conn.permits + foreign,
                capacity,
                "the budget is conserved"
            );
            // Every line sent has been read. The queue (the held
            // request, then the parked lines) is the tail of them.
            let behind = &sent[sent.len() - conn.parked.len()..];
            assert!(
                conn.parked.iter().eq(behind.iter().map(String::as_bytes)),
                "parked out of order"
            );
            if let Some(held) = &conn.held {
                let line = &sent[sent.len() - conn.parked.len() - 1];
                let line = wire::parse_json(line).unwrap();
                assert_eq!(request_id(held), wire::line_id(&line), "held out of order");
            }
            assert_eq!(conn.parked_bytes, parked_charge(conn));
            assert!(conn.parked_bytes < PARKED_BOUND);
            if stdin {
                assert!(conn.pending() <= capacity, "a request past the gate");
                assert_eq!(
                    TAKEN_AT_GATE.with(Cell::get),
                    taken_at_gate,
                    "a line taken at the gate"
                );
            }
        };
        for k in 0..rng.gen_range(8..40_usize) {
            match rng.gen_range(0..21_u32) {
                step @ (0..=8 | 20) if !draining && out_at_hangup.is_none() => {
                    // Step 20 frames two sweeps under one id in one
                    // write: the second arrives while the first is
                    // still in flight whenever a permit is free.
                    let lines = if step == 20 {
                        let id = format!("l{k}");
                        let line = zeroconf_engine::testkit::heavy_sweep_line(&id, 16, 400);
                        vec![(line.clone(), Some(id.clone())), (line, Some(id))]
                    } else {
                        vec![model_line(rng, k, &ids)]
                    };
                    let framed: String =
                        lines.iter().map(|(line, _)| format!("{line}\n")).collect();
                    std::io::Write::write_all(&mut client, framed.as_bytes()).unwrap();
                    written += framed.len() as u64;
                    // As the loop would: output drains while the line
                    // waits behind the high-water mark.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                    while conn.metrics.bytes_in < written {
                        assert!(std::time::Instant::now() < deadline, "line never read");
                        conn.on_writable();
                        read_available(&mut client, &mut received);
                        conn.on_readable();
                    }
                    for (line, id) in lines {
                        sent.push(line);
                        note(id, &mut ids, &mut expected);
                    }
                }
                9 | 10 => {
                    if shared.budget.try_acquire(FOREIGN) {
                        foreign += 1;
                    }
                    shared.budget.leave(FOREIGN);
                }
                11 | 12 if foreign > 0 => {
                    shared.budget.release();
                    foreign -= 1;
                }
                13 | 14 if stdin && !draining => {
                    // Sometimes a last line without its newline.
                    let last = (rng.gen_range(0..2_u32) == 0).then(|| model_line(rng, k, &ids));
                    if let Some((line, _)) = &last {
                        std::io::Write::write_all(&mut client, line.as_bytes()).unwrap();
                    }
                    client.shutdown(std::net::Shutdown::Write).unwrap();
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                    while !conn.draining {
                        assert!(std::time::Instant::now() < deadline, "the end never read");
                        conn.pump();
                        read_available(&mut client, &mut received);
                        conn.on_readable();
                    }
                    if let Some((line, id)) = last {
                        sent.push(line);
                        note(id, &mut ids, &mut expected);
                    }
                    draining = true;
                }
                13 if !stdin && out_at_hangup.is_none() => {
                    conn.on_hangup();
                    drop(conn.take_socket());
                    out_at_hangup = Some(conn.metrics.bytes_out);
                }
                14 if !stdin && !draining => {
                    conn.begin_drain();
                    draining = true;
                }
                _ => conn.pump(),
            }
            check(&conn, foreign, &sent);
            read_available(&mut client, &mut received);
        }

        shared.budget.release_many(foreign);
        if !stdin {
            conn.begin_drain();
        } else if !draining {
            client.shutdown(std::net::Shutdown::Write).unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !conn.finished() {
            assert!(std::time::Instant::now() < deadline, "never finished");
            conn.pump();
            conn.on_readable();
            check(&conn, 0, &sent);
            read_available(&mut client, &mut received);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(tickets(&conn), 0, "no ticket outlives the reap");
        drop(conn.take_socket());
        conn.close();
        assert_eq!(shared.budget.available(), capacity, "every permit is home");
        if stdin {
            assert!(matches!(end.get(), Some(Ok(_))), "{:?}", end.get());
        }

        client.set_nonblocking(false).unwrap();
        std::io::Read::read_to_end(&mut client, &mut received).unwrap();
        if out_at_hangup.is_some() {
            // A hangup drops the rest of a line whose first slices
            // were written: only whole lines are answers.
            let whole = received
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |n| n + 1);
            received.truncate(whole);
        }
        let mut answers: Vec<String> = String::from_utf8(received)
            .unwrap()
            .lines()
            .map(|line| wire::line_id(&wire::parse_json(line).unwrap()).to_owned())
            .collect();
        match out_at_hangup {
            Some(bytes) => {
                assert_eq!(
                    conn.metrics.bytes_out, bytes,
                    "nothing written after hangup"
                );
                for id in &answers {
                    let count = |of: &[String]| of.iter().filter(|a| *a == id).count();
                    assert!(
                        count(&answers) <= count(&expected),
                        "`{id}` answered at most once per line"
                    );
                }
            }
            None if stdin && capacity == 1 => {
                assert_eq!(answers, expected, "one answer per line, in arrival order");
            }
            None => {
                expected.sort();
                answers.sort();
                assert_eq!(answers, expected, "one answer per non-blank line");
            }
        }
    }
}
