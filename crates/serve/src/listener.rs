//! Listening endpoints and their readiness-driven event loops.
//!
//! One reactor thread per bound socket runs [`EndpointLoop::run`]: a
//! single `epoll` wait ([`crate::reactor`]) multiplexes the
//! nonblocking listener, every accepted connection, and the completion
//! wakeup handle, so a thousand established connections cost file
//! descriptors and buffers — not threads. The loop's tick is bounded
//! ([`TICK`]) so shutdown and parked-admission retries are noticed
//! promptly even with no readiness traffic.
//!
//! Token space: [`TOKEN_LISTENER`] is the accept socket, [`TOKEN_WAKE`]
//! the engine-completion wakeup, and every connection is
//! `TOKEN_CONN_BASE + conn_id` — connection ids are minted once and
//! never reused, so a late event for a reaped connection simply finds
//! no entry in the map.
//!
//! The connection-count bound is enforced at accept time (excess
//! connections get one refusal line and are closed before they ever
//! join the loop), and drain is loop-wide: stop accepting, switch every
//! connection to drain mode, and exit once the map is empty — which is
//! what makes SIGTERM lossless: the process only exits after every
//! connection has flushed its in-flight responses.
//!
//! A Unix-domain socket path is only taken over when the socket on it is
//! stale ([`claim_socket_path`]), and the file is unlinked again when the
//! loop ends.

use std::collections::HashMap;
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conn::{ClientSocket, Connection};
use crate::metrics::capacity_refusal_line;
use crate::reactor::{Event, Interest, Poller, WakeHandle};
use crate::{ServeError, ServerShared};

/// The readiness token of the listening socket.
pub(crate) const TOKEN_LISTENER: u64 = 0;
/// The readiness token of the completion wakeup handle.
pub(crate) const TOKEN_WAKE: u64 = 1;
/// Connection tokens start here: `TOKEN_CONN_BASE + conn_id`.
pub(crate) const TOKEN_CONN_BASE: u64 = 2;

/// The bounded wait: how stale the loop's view of shutdown and parked
/// admissions may get when no readiness event arrives first.
const TICK: Duration = Duration::from_millis(10);

/// How long a drain may wait for lingering connections before they are
/// force-closed. Drain normally ends when every connection has answered
/// and flushed; this deadline bounds shutdown when a client stops
/// *reading* — its output buffer never empties, so without a deadline
/// `SIGTERM` would hang forever on one unresponsive reader.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Backoff after a hard `accept(2)` failure (`EMFILE`/`ENFILE`, most
/// likely). The pending connection keeps a level-triggered listener
/// readable, so returning to the poller without a pause would spin
/// accept/fail at full CPU for as long as the condition persists.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Consecutive poller-wait failures tolerated (with [`TICK`] backoff
/// between attempts) before the endpoint loop gives up and tears down:
/// a wait that fails persistently (not `EINTR`) means the reactor can
/// no longer observe readiness at all.
const MAX_WAIT_FAILURES: u32 = 64;

/// One address the server listens on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7373` (port `0` picks one).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// A bound, non-blocking listening socket.
pub(crate) enum BoundListener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl BoundListener {
    /// Binds `endpoint`, configuring the socket for non-blocking
    /// accepts. A Unix path must be free or hold a stale socket (see
    /// [`claim_socket_path`]).
    pub(crate) fn bind(endpoint: &Endpoint) -> Result<BoundListener, ServeError> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| ServeError(format!("binding tcp {addr}: {e}")))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ServeError(format!("configuring tcp {addr}: {e}")))?;
                Ok(BoundListener::Tcp(listener))
            }
            Endpoint::Unix(path) => {
                claim_socket_path(path)?;
                let listener = UnixListener::bind(path)
                    .map_err(|e| ServeError(format!("binding unix {}: {e}", path.display())))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ServeError(format!("configuring unix {}: {e}", path.display())))?;
                Ok(BoundListener::Unix(listener, path.clone()))
            }
        }
    }

    /// A printable `scheme:address` description of the *bound* socket —
    /// for TCP this is the actual local address, so binding port `0`
    /// reports the ephemeral port picked by the OS.
    pub(crate) fn description(&self) -> String {
        match self {
            BoundListener::Tcp(listener) => match listener.local_addr() {
                Ok(addr) => format!("tcp:{addr}"),
                Err(_) => "tcp:<unknown>".to_owned(),
            },
            BoundListener::Unix(_, path) => format!("unix:{}", path.display()),
        }
    }

    /// One non-blocking accept: `Ok(Some(socket))` for a new client
    /// (still in whatever blocking mode `accept(2)` hands out — the
    /// loop makes it nonblocking once it is admitted), `Ok(None)` when
    /// nothing is pending.
    fn accept_socket(&self) -> std::io::Result<Option<ClientSocket>> {
        match self {
            BoundListener::Tcp(listener) => match listener.accept() {
                Ok((stream, _)) => Ok(Some(ClientSocket::Tcp(stream))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            BoundListener::Unix(listener, _) => match listener.accept() {
                Ok((stream, _)) => Ok(Some(ClientSocket::Unix(stream))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            BoundListener::Tcp(listener) => listener.as_raw_fd(),
            BoundListener::Unix(listener, _) => listener.as_raw_fd(),
        }
    }

    /// Removes the socket file of a Unix listener (no-op for TCP).
    fn cleanup(&self) {
        if let BoundListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Makes `path` free for a new Unix listener without destroying what is
/// not ours to remove. A missing path is free. Anything but a socket is
/// refused, and so is a socket a running server still accepts on — the
/// probe connect shows up there as one closed connection. Only a stale
/// socket, one that refuses the probe, is removed.
fn claim_socket_path(path: &Path) -> Result<(), ServeError> {
    let metadata = match std::fs::symlink_metadata(path) {
        Ok(metadata) => metadata,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(ServeError(format!("inspecting {}: {e}", path.display()))),
    };
    if !metadata.file_type().is_socket() {
        return Err(ServeError(format!(
            "refusing to bind unix {}: the path exists and is not a socket",
            path.display()
        )));
    }
    if UnixStream::connect(path).is_ok() {
        return Err(ServeError(format!(
            "refusing to bind unix {}: the socket is in use by a running server",
            path.display()
        )));
    }
    std::fs::remove_file(path)
        .map_err(|e| ServeError(format!("removing stale socket {}: {e}", path.display())))
}

/// The event loop for one listening socket: owns the poller, the wakeup
/// handle, and every connection accepted on this endpoint.
pub(crate) struct EndpointLoop {
    listener: BoundListener,
    shared: Arc<ServerShared>,
    poller: Poller,
    wake: WakeHandle,
    conns: HashMap<u64, Connection>,
    /// The interest last registered per connection, to skip redundant
    /// `epoll_ctl` calls when nothing changed.
    registered: HashMap<u64, Interest>,
    events: Vec<Event>,
    drain_started: bool,
    /// Set when drain begins: lingering connections are force-closed at
    /// this instant so shutdown is bounded (see [`DRAIN_DEADLINE`]).
    drain_deadline: Option<Instant>,
    /// How long [`EndpointLoop::begin_drain`] allows before the
    /// deadline; [`DRAIN_DEADLINE`] except in tests.
    drain_timeout: Duration,
    /// Consecutive failed poller waits (non-`EINTR`); reset on success.
    wait_failures: u32,
}

impl EndpointLoop {
    /// Builds the loop: poller created, listener and wakeup registered.
    /// Runs on the caller's thread of `Server::run` so a reactor that
    /// cannot start is a bind-time error, not a background panic.
    pub(crate) fn new(
        listener: BoundListener,
        shared: Arc<ServerShared>,
    ) -> Result<EndpointLoop, ServeError> {
        let mut poller =
            Poller::new().map_err(|e| ServeError(format!("creating readiness poller: {e}")))?;
        let wake =
            WakeHandle::new().map_err(|e| ServeError(format!("creating wakeup handle: {e}")))?;
        poller
            .register(listener.raw_fd(), TOKEN_LISTENER, Interest::READ)
            .map_err(|e| ServeError(format!("registering listener: {e}")))?;
        poller
            .register(wake.raw_fd(), TOKEN_WAKE, Interest::READ)
            .map_err(|e| ServeError(format!("registering wakeup handle: {e}")))?;
        Ok(EndpointLoop {
            listener,
            shared,
            poller,
            wake,
            conns: HashMap::new(),
            registered: HashMap::new(),
            events: Vec::new(),
            drain_started: false,
            drain_deadline: None,
            drain_timeout: DRAIN_DEADLINE,
            wait_failures: 0,
        })
    }

    /// Runs until the server drains and every connection has been
    /// reaped, then removes any Unix socket file.
    pub(crate) fn run(mut self) {
        loop {
            if !self.drain_started && self.shared.shutdown.is_triggered() {
                self.begin_drain();
            }
            if self.drain_started && self.conns.is_empty() {
                break;
            }
            let mut events = std::mem::take(&mut self.events);
            match self.poller.wait(&mut events, TICK) {
                Ok(()) => self.wait_failures = 0,
                // EINTR under a signal is routine: an empty tick — the
                // pump below still makes progress.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => self.wait_failures = 0,
                // Anything else (EBADF on a corrupted poller, say) would
                // busy-spin the loop at zero timeout: back off a tick,
                // and if the wait never recovers, tear the endpoint
                // down rather than burn a core forever.
                Err(e) => {
                    self.wait_failures += 1;
                    eprintln!(
                        "zeroconf-serve: readiness wait failed ({e}); backing off \
                         ({}/{MAX_WAIT_FAILURES})",
                        self.wait_failures
                    );
                    if self.wait_failures >= MAX_WAIT_FAILURES {
                        eprintln!(
                            "zeroconf-serve: readiness wait failing persistently; \
                             closing endpoint {}",
                            self.listener.description()
                        );
                        self.force_close_all();
                        self.events = events;
                        break;
                    }
                    std::thread::sleep(TICK);
                }
            }
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => self.wake.drain(),
                    token => {
                        let Some(conn_id) = token.checked_sub(TOKEN_CONN_BASE) else {
                            continue;
                        };
                        let Some(conn) = self.conns.get_mut(&conn_id) else {
                            continue;
                        };
                        if event.ready.readable {
                            conn.on_readable();
                        }
                        if event.ready.writable {
                            conn.on_writable();
                        }
                        if event.ready.hangup && !event.ready.readable {
                            conn.on_hangup();
                        }
                    }
                }
            }
            self.events = events;
            self.pump_all();
            // Bounded drain: a client that stops reading keeps its
            // output buffer non-empty forever; past the deadline such
            // lingerers are force-closed so `Server::run` returns.
            if self.drain_started
                && !self.conns.is_empty()
                && self.drain_deadline.is_some_and(|d| Instant::now() >= d)
            {
                eprintln!(
                    "zeroconf-serve: drain deadline reached; force-closing {} \
                     lingering connection(s)",
                    self.conns.len()
                );
                self.force_close_all();
            }
        }
        self.listener.cleanup();
    }

    /// Accepts until the listener would block. Connections over the
    /// `--max-conns` bound get one refusal line (written while the
    /// socket is still blocking and its send buffer empty, so the
    /// accept path never stalls) and are closed immediately.
    fn accept_burst(&mut self) {
        if self.drain_started {
            return;
        }
        loop {
            let mut socket = match self.listener.accept_socket() {
                Ok(Some(socket)) => socket,
                Ok(None) => break,
                // The aborted (or signal-interrupted) accept says nothing
                // about the sockets still queued behind it.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                // EMFILE/ENFILE and friends: the unaccepted connection
                // keeps the level-triggered listener readable, so the
                // next wait returns immediately — pause before ending
                // the burst or the loop spins accept/fail at full CPU
                // until descriptors free up.
                Err(e) => {
                    eprintln!("zeroconf-serve: accept failed ({e}); backing off");
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    break;
                }
            };
            let open = self.shared.metrics.open_connections();
            if open >= self.shared.max_connections as u64 {
                // ORDERING: statistics tally; readers only report it.
                self.shared
                    .metrics
                    .connections_rejected
                    .fetch_add(1, Ordering::Relaxed);
                socket.write_line_best_effort(&capacity_refusal_line());
                continue;
            }
            let conn_id = self.shared.metrics.next_connection_id();
            let admitted = socket.set_nonblocking().is_ok()
                && self
                    .poller
                    .register(socket.raw_fd(), TOKEN_CONN_BASE + conn_id, Interest::READ)
                    .is_ok();
            if !admitted {
                // ORDERING: statistics tally. The connection was counted
                // opened; count it closed so the open-connection gauge
                // stays true.
                self.shared
                    .metrics
                    .connections_closed
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.registered.insert(conn_id, Interest::READ);
            self.conns.insert(
                conn_id,
                Connection::new(socket, conn_id, Arc::clone(&self.shared), self.wake.clone()),
            );
        }
    }

    /// Drives every connection one step: drain transitions, completion
    /// polls (returning permits), parked admissions, flushes; then
    /// tears down gone sockets, reaps finished connections, and
    /// reconciles poller interest with what each connection now wants.
    fn pump_all(&mut self) {
        let drain = self.drain_started;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            if drain {
                conn.begin_drain();
            }
            conn.pump();
            if conn.is_gone() {
                // Teardown order: deregister, then close the fd (epoll
                // auto-removal only applies to the final close).
                if let Some(fd) = conn.raw_fd() {
                    let _ = self.poller.deregister(fd);
                }
                drop(conn.take_socket());
                self.registered.remove(&id);
            }
            if conn.finished() {
                if let Some(mut reaped) = self.conns.remove(&id) {
                    if let Some(fd) = reaped.raw_fd() {
                        let _ = self.poller.deregister(fd);
                        self.registered.remove(&id);
                    }
                    drop(reaped.take_socket());
                    reaped.close();
                }
                continue;
            }
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            let want = conn.interest();
            let Some(fd) = conn.raw_fd() else { continue };
            if self.registered.get(&id) != Some(&want)
                && self
                    .poller
                    .reregister(fd, TOKEN_CONN_BASE + id, want)
                    .is_ok()
            {
                self.registered.insert(id, want);
            }
        }
    }

    /// Enters drain: stop accepting (the listener leaves the poller);
    /// connections are switched to drain mode by the next pump, and the
    /// whole drain gets a deadline so one unresponsive reader cannot
    /// hold shutdown hostage.
    fn begin_drain(&mut self) {
        self.drain_started = true;
        self.drain_deadline = Some(Instant::now() + self.drain_timeout);
        let _ = self.poller.deregister(self.listener.raw_fd());
    }

    /// Force-closes every remaining connection (drain deadline expiry,
    /// or a poller that can no longer wait): pending work is cancelled,
    /// buffered output is discarded, sockets close, and each
    /// connection's final accounting returns its permits to the budget.
    fn force_close_all(&mut self) {
        for (id, mut conn) in self.conns.drain() {
            conn.on_hangup();
            if let Some(fd) = conn.raw_fd() {
                let _ = self.poller.deregister(fd);
            }
            drop(conn.take_socket());
            conn.close();
            self.registered.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared() -> Arc<ServerShared> {
        let engine = zeroconf_engine::Engine::new(zeroconf_engine::EngineConfig {
            workers: 1,
            ..zeroconf_engine::EngineConfig::default()
        });
        Arc::new(ServerShared {
            team: Arc::new(zeroconf_engine::ExecutorTeam::new(Arc::new(engine), 2)),
            budget: crate::FairBudget::new(2),
            shutdown: crate::Shutdown::new(false),
            metrics: crate::ServerMetrics::default(),
            max_connections: 4,
        })
    }

    /// Regression: `SIGTERM` drain must be bounded even when a client
    /// stops reading. Such a client's output buffer never empties, so
    /// without the drain deadline `finished()` stays false and
    /// `EndpointLoop::run` (and with it `Server::run`) never returns.
    #[test]
    fn drain_deadline_force_closes_unresponsive_readers() {
        let shared = test_shared();
        let bound = BoundListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = bound.description();
        let addr = addr.strip_prefix("tcp:").unwrap().to_owned();
        let mut event_loop = EndpointLoop::new(bound, Arc::clone(&shared)).unwrap();
        event_loop.drain_timeout = Duration::ZERO;

        // A connected client that will never read a byte.
        let client = std::net::TcpStream::connect(&addr).unwrap();
        event_loop.accept_burst();
        assert_eq!(event_loop.conns.len(), 1);

        // Far more output than the kernel will buffer, so the flush can
        // never complete while the client refuses to read.
        let big = "x".repeat(64 * 1024 * 1024);
        event_loop
            .conns
            .values_mut()
            .next()
            .unwrap()
            .test_push_out(&big);

        shared.shutdown.trigger();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            event_loop.run();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("drain must be bounded by the deadline, not the client");
        runner.join().unwrap();
        drop(client);
    }

    /// A fresh directory for one test's socket paths (short enough for
    /// the 108-byte `sun_path` limit under the usual temp dirs).
    fn scratch_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zc-listen-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Binds `path`, expecting a refusal, and returns its message.
    fn refusal(path: &Path) -> String {
        match BoundListener::bind(&Endpoint::Unix(path.to_path_buf())) {
            Ok(_) => panic!("bound over {}", path.display()),
            Err(e) => e.0,
        }
    }

    #[test]
    fn binding_over_a_regular_file_is_refused_and_leaves_it_intact() {
        let dir = scratch_dir("file");
        let path = dir.join("notes.txt");
        std::fs::write(&path, b"not a socket").unwrap();
        let message = refusal(&path);
        assert!(message.contains(&path.display().to_string()), "{message}");
        assert!(message.contains("not a socket"), "{message}");
        assert_eq!(std::fs::read(&path).unwrap(), b"not a socket");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binding_over_a_live_socket_is_refused() {
        let dir = scratch_dir("live");
        let path = dir.join("d.sock");
        let live = BoundListener::bind(&Endpoint::Unix(path.clone())).unwrap();
        let message = refusal(&path);
        assert!(message.contains("in use by a running server"), "{message}");
        // The running listener still owns its path.
        assert!(UnixStream::connect(&path).is_ok());
        live.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_socket_is_replaced() {
        let dir = scratch_dir("stale");
        let path = dir.join("d.sock");
        // Dropping a listener closes it but leaves its file behind, as a
        // killed daemon would.
        drop(BoundListener::bind(&Endpoint::Unix(path.clone())).unwrap());
        assert!(path.exists());
        let fresh = BoundListener::bind(&Endpoint::Unix(path.clone())).unwrap();
        assert!(UnixStream::connect(&path).is_ok());
        fresh.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
