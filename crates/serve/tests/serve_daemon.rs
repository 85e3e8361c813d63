//! Integration tests for the `zeroconf serve` daemon: real sockets,
//! concurrent clients, one shared engine, one reactor thread per
//! endpoint.
//!
//! The in-process tests bind a [`Server`] on an ephemeral TCP port and
//! drive it with [`zeroconf_client::Client`] — the same typed blocking
//! client `ci.sh` and the serve benches use, so there is exactly one
//! frame reader in the workspace. The tests that can kill or signal the
//! process (a real `SIGTERM`, lines that once overflowed the reactor's
//! stack, the socket fuzzer) spawn the actual `zeroconf-serve` binary
//! on a Unix socket. Request frames come from
//! [`zeroconf_engine::testkit`] — the same builders and fuzz mutations
//! the engine's own wire suites use.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use zeroconf_client::{Axis, Client, Grid, Json, Response, Scenario};
use zeroconf_engine::wire::{self, WIRE_VERSION};
use zeroconf_engine::{testkit, EngineConfig};
use zeroconf_serve::{Endpoint, ServeConfig, ServeError, Server, Shutdown};

const DEADLINE: Duration = Duration::from_secs(60);

/// An in-process server on an ephemeral TCP port.
struct TestServer {
    addr: String,
    shutdown: Shutdown,
    thread: Option<std::thread::JoinHandle<Result<String, ServeError>>>,
}

impl TestServer {
    fn start(inflight: usize, max_connections: usize) -> TestServer {
        let server = Server::bind(ServeConfig {
            endpoints: vec![Endpoint::Tcp("127.0.0.1:0".into())],
            engine: EngineConfig::default(),
            inflight,
            max_connections,
            follow_process_signals: false,
        })
        .expect("bind test server");
        let addr = server.endpoints()[0]
            .strip_prefix("tcp:")
            .expect("tcp endpoint description")
            .to_owned();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            shutdown,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect to test server")
    }

    fn stop(mut self) -> String {
        self.shutdown.trigger();
        self.thread
            .take()
            .expect("server thread present")
            .join()
            .expect("server thread joins")
            .expect("server drains cleanly")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A spawned `zeroconf-serve` on a Unix socket, killed and reaped on
/// drop.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon with `flags` and waits for its listening line.
    fn spawn(label: &str, flags: &[&str]) -> Daemon {
        let socket = std::env::temp_dir().join(format!(
            "zeroconf-serve-{label}-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(env!("CARGO_BIN_EXE_zeroconf-serve"))
            .arg("--unix")
            .arg(&socket)
            .args(flags)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn zeroconf-serve");
        let stdout = BufReader::new(child.stdout.take().expect("capture child stdout"));
        let mut daemon = Daemon {
            child,
            stdout,
            socket,
        };
        let mut announce = String::new();
        daemon
            .stdout
            .read_line(&mut announce)
            .expect("read listening line");
        assert!(announce.starts_with("listening unix:"), "{announce}");
        daemon
    }

    fn connect(&self) -> Client {
        Client::connect_unix(&self.socket).expect("connect to the daemon")
    }

    /// Whether the process is still running.
    fn alive(&mut self) -> bool {
        self.child.try_wait().expect("poll the daemon").is_none()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Path lookup that fails the test (rather than returning `None`) when
/// the member is missing — keeps assertion sites short.
fn number(response: &Response, path: &[&str]) -> f64 {
    response
        .number(path)
        .unwrap_or_else(|| panic!("missing number at {path:?} in {}", response.line))
}

#[test]
fn four_concurrent_clients_share_one_warm_engine() {
    let server = TestServer::start(8, 16);

    // Client 0 warms the cache: its identical-shape sweep misses all
    // three pi-tables.
    let mut warmer = server.connect();
    warmer
        .send_raw(&testkit::sweep_line("warm", 6, &[0.5, 1.0, 1.5]))
        .expect("send warm sweep");
    let cold = warmer.wait("warm").expect("warm response");
    assert!(cold.line.contains("\"cache_misses\":3"), "{}", cold.line);

    // Four more clients, concurrently, all issuing the identical sweep:
    // every one is served from the warm shared cache.
    let addr = server.addr.clone();
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect worker");
                let id = format!("c{i}");
                client
                    .send_raw(&testkit::sweep_line(&id, 6, &[0.5, 1.0, 1.5]))
                    .expect("send worker sweep");
                client.wait(&id).expect("worker response")
            })
        })
        .collect();
    for worker in workers {
        let response = worker.join().expect("client thread joins");
        assert!(response.has_cells(), "{}", response.line);
        assert!(
            response.line.contains("\"cache_misses\":0"),
            "a later client must hit the cache another client warmed: {}",
            response.line
        );
    }

    // The shared-engine block of `stats` shows the cross-client hits.
    let stats = warmer.stats("st").expect("stats response");
    assert!(
        number(&stats, &["stats", "engine", "cache_hits"]) >= 12.0,
        "{}",
        stats.line
    );
    assert_eq!(number(&stats, &["stats", "engine", "cache_misses"]), 3.0);
    assert!(number(&stats, &["stats", "server", "connections_total"]) >= 5.0);
    assert_eq!(number(&stats, &["stats", "conn", "id"]), 1.0);

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn mid_flight_disconnect_cancels_only_that_connection() {
    let server = TestServer::start(4, 16);

    // The victim pipelines a long sweep plus a rescore held back behind
    // it, then vanishes without reading anything. Both lines go out in
    // one write and the socket shuts down right after it, so the daemon
    // sees EOF within two syscalls of the lines: far sooner than the
    // 64 × 8000 sweep can finish in any build profile, so both requests
    // are still unanswered when the disconnect withdraws them.
    let mut victim = std::net::TcpStream::connect(&server.addr).expect("connect victim");
    let lines = format!(
        "{}\n{}\n",
        testkit::heavy_sweep_line("doomed", 64, 8000),
        testkit::rescore_line("follow", "doomed", 1e9)
    );
    victim
        .write_all(lines.as_bytes())
        .expect("send doomed sweep and follow rescore");
    victim
        .shutdown(std::net::Shutdown::Both)
        .expect("victim disconnects");
    drop(victim);

    // A survivor connected to the same engine still gets its answer.
    let mut survivor = server.connect();
    survivor
        .send_raw(&testkit::sweep_line("ok", 4, &[1.0, 2.0]))
        .expect("send survivor sweep");
    let response = survivor.wait("ok").expect("survivor response");
    assert!(response.has_cells(), "{}", response.line);

    // Both of the victim's requests — the in-flight sweep and the
    // held-back rescore — are withdrawn; the survivor's are not.
    let end = Instant::now() + DEADLINE;
    loop {
        let stats = survivor.stats("st").expect("stats response");
        let withdrawn = number(&stats, &["stats", "server", "cancelled_on_disconnect"]);
        if withdrawn >= 2.0 {
            assert_eq!(number(&stats, &["stats", "conn", "cancellations"]), 0.0);
            break;
        }
        assert!(
            Instant::now() < end,
            "disconnect never cancelled the victim's requests: {}",
            stats.line
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let summary = server.stop();
    assert!(summary.contains("2 withdrawn at disconnect"), "{summary}");
}

#[test]
fn wire_errors_and_capacity_refusals_over_a_real_socket() {
    let server = TestServer::start(4, 1);
    let mut client = server.connect();

    // Malformed frame mid-stream: an error line, session stays alive.
    client
        .send_raw(&testkit::sweep_line("s1", 4, &[1.0, 2.0]))
        .expect("send s1");
    client.wait("s1").expect("s1 response");
    client
        .send_raw(testkit::MALFORMED_FRAME)
        .expect("send malformed frame");
    let broken = client
        .next_line()
        .expect("read error line")
        .expect("error line before EOF");
    assert!(broken.contains("\"error\""), "{broken}");
    client
        .send_raw(&testkit::unknown_verb_line("u1"))
        .expect("send unknown verb");
    let unknown = client.wait("u1").expect("u1 response");
    assert!(
        unknown
            .error()
            .is_some_and(|e| e.contains("unknown request verb")),
        "{}",
        unknown.line
    );
    client
        .send_raw(&testkit::sweep_line("s2", 4, &[1.0, 2.0]))
        .expect("send s2");
    let alive = client.wait("s2").expect("s2 response");
    assert!(alive.has_cells(), "{}", alive.line);

    // The server is at --max-conns 1: a second connection is refused
    // with one structured error line and closed.
    let mut refused = server.connect();
    let refusal = refused
        .next_line()
        .expect("read refusal line")
        .expect("refusal line before EOF");
    assert!(
        refusal.contains("server at connection capacity"),
        "{refusal}"
    );
    assert!(
        refused
            .next_line()
            .expect("read post-refusal EOF")
            .is_none(),
        "refused connection must be closed after the refusal line"
    );

    let stats = client.stats("st").expect("stats response");
    assert_eq!(
        number(&stats, &["stats", "server", "connections_rejected"]),
        1.0
    );

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn request_values_that_are_not_finite_get_one_error_each_and_the_connection_serves_on() {
    let server = TestServer::start(4, 16);
    let mut client = server.connect();
    let grid = |r: Vec<f64>| Grid::Explicit { n_max: 4, r };
    client
        .sweep("base", &Scenario::fixture(), &grid(vec![1.0, 2.0]))
        .expect("send base");
    assert!(client.wait("base").expect("base response").has_cells());

    // The typed client writes a value that is not finite as `null`, so
    // each line is valid JSON and its decoder answers it, by id, once.
    let unbounded = Scenario {
        error_cost: f64::INFINITY,
        ..Scenario::fixture()
    };
    let refused = |client: &mut Client, id: &str, refusal: &str| {
        let answer = client
            .next_response(Instant::now() + DEADLINE)
            .expect("read the answer")
            .expect("an answer before EOF");
        assert_eq!(answer.id(), id, "{}", answer.line);
        assert!(
            answer.error().is_some_and(|e| e.contains(refusal)),
            "{}",
            answer.line
        );
    };
    client
        .sweep("inf", &unbounded, &grid(vec![1.0]))
        .expect("send inf");
    refused(&mut client, "inf", "missing numeric field `error_cost`");
    client
        .sweep("nan", &Scenario::fixture(), &grid(vec![1.0, f64::NAN]))
        .expect("send nan");
    refused(&mut client, "nan", "grid `r` must be numeric");
    client
        .rescore("rescore", "base", f64::NEG_INFINITY)
        .expect("send rescore");
    refused(
        &mut client,
        "rescore",
        "numeric field `error_cost` is not a number",
    );
    client
        .calibrate("calibrate", "base", 2, f64::NAN)
        .expect("send calibrate");
    refused(&mut client, "calibrate", "missing numeric field `r`");
    client
        .frontier(
            "frontier",
            "base",
            &Axis::error_cost(&[1e3, f64::INFINITY]),
            &Axis::probe_cost(&[1.0, 2.0]),
        )
        .expect("send frontier");
    refused(
        &mut client,
        "frontier",
        "frontier `x` values must be numeric",
    );

    // The next line read answers the next request: no refused line got a
    // second answer, and the connection still serves.
    client.rescore("ok", "base", 1e9).expect("send ok");
    let ok = client
        .next_response(Instant::now() + DEADLINE)
        .expect("read ok")
        .expect("ok before EOF");
    assert_eq!(ok.id(), "ok", "{}", ok.line);
    assert!(ok.has_cells(), "{}", ok.line);

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn oversized_grids_get_one_error_each_and_the_daemon_serves_on() {
    let server = TestServer::start(4, 16);
    let mut client = server.connect();
    let with_grid = |id: &str, grid: &str| {
        format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\
             \"error_cost\":1e6,\"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\
             \"rate\":10.0,\"delay\":1.0}}}},\"grid\":{grid}}}"
        )
    };
    // `r_points` of 1e300 once overflowed the linspace allocation and
    // killed the reactor thread; an `n_max` past the cap asks for a
    // π-table of that many floats per `r`.
    client
        .send_raw(&with_grid(
            "big-r",
            "{\"n_max\":2,\"r_min\":0.1,\"r_max\":1.0,\"r_points\":1e300}",
        ))
        .expect("send big-r");
    client
        .send_raw(&with_grid(
            "big-n",
            &format!("{{\"n_max\":{},\"r\":[0.5,1.0]}}", wire::MAX_GRID_N_MAX + 1),
        ))
        .expect("send big-n");
    client
        .send_raw(&testkit::sweep_line("ok1", 4, &[1.0, 2.0]))
        .expect("send ok1");
    let mut answered = Vec::new();
    while answered.last().map(|r: &Response| r.id()) != Some("ok1") {
        let response = client
            .next_response(Instant::now() + DEADLINE)
            .expect("read a response")
            .expect("a response before EOF");
        answered.push(response);
    }
    let ids: Vec<&str> = answered.iter().map(Response::id).collect();
    assert_eq!(ids, ["big-r", "big-n", "ok1"], "one answer per line");
    assert_eq!(
        answered[0].error(),
        Some(
            format!(
                "grid `r_points` 1e300 is over the limit of {}",
                wire::MAX_GRID_R_POINTS
            )
            .as_str()
        )
    );
    assert_eq!(
        answered[1].error(),
        Some(
            format!(
                "grid `n_max` {:?} is over the limit of {}",
                f64::from(wire::MAX_GRID_N_MAX + 1),
                wire::MAX_GRID_N_MAX
            )
            .as_str()
        )
    );
    assert!(answered[2].has_cells(), "{}", answered[2].line);

    // No stray line follows the errors, and a new connection is served.
    client
        .send_raw(&testkit::sweep_line("ok2", 4, &[1.0, 2.0]))
        .expect("send ok2");
    let next = client
        .next_response(Instant::now() + DEADLINE)
        .expect("read ok2")
        .expect("ok2 before EOF");
    assert_eq!(next.id(), "ok2", "{}", next.line);
    let mut fresh = server.connect();
    fresh
        .send_raw(&testkit::sweep_line("ok3", 4, &[1.0, 2.0]))
        .expect("send ok3");
    assert!(fresh.wait("ok3").expect("ok3 response").has_cells());

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn an_overlong_line_gets_one_error_then_eof_and_the_daemon_serves_on() {
    use std::io::BufRead;

    let server = TestServer::start(4, 16);
    // One byte past the cap, and no newline: the partial line alone
    // crosses the bound, and every byte sent has been read when it does.
    let mut raw = std::net::TcpStream::connect(&server.addr).expect("connect raw socket");
    raw.set_read_timeout(Some(DEADLINE)).expect("read timeout");
    raw.write_all(&vec![b'x'; zeroconf_serve::MAX_LINE_BYTES + 1])
        .expect("send the overlong partial line");
    let mut reader = std::io::BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the error line");
    let value = wire::parse_json(line.trim_end()).expect("the error line is JSON");
    assert_eq!(value.get("id"), Some(&Json::Str(String::new())), "{line}");
    assert_eq!(
        value.get("error"),
        Some(&Json::Str(format!(
            "input line is over the limit of {} bytes",
            zeroconf_serve::MAX_LINE_BYTES
        ))),
        "{line}"
    );
    line.clear();
    let read = reader.read_line(&mut line).expect("read to EOF");
    assert_eq!(read, 0, "EOF follows the one error line, got {line:?}");

    let mut fresh = server.connect();
    fresh
        .send_raw(&testkit::sweep_line("ok", 4, &[1.0, 2.0]))
        .expect("send ok");
    assert!(fresh.wait("ok").expect("ok response").has_cells());

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn programmatic_drain_answers_everything_in_flight() {
    // Budget of 2 permits under 4 pipelined sweeps: when the drain
    // lands, the tail of the pipeline is still *parked* waiting for a
    // permit, not merely in flight. Parked work must drain losslessly
    // too — the pre-reactor daemon answered a five-deep pipeline against
    // `--inflight 4` across SIGTERM, and the ci smoke still does.
    let server = TestServer::start(2, 8);
    let mut client = server.connect();
    let ids = ["q1", "q2", "q3", "q4"];
    for id in ids {
        client
            .send_raw(&testkit::heavy_sweep_line(id, 32, 1200))
            .expect("send pipelined sweep");
    }
    // Let the daemon admit the head of the pipeline, then drain under
    // load with the tail parked.
    std::thread::sleep(Duration::from_millis(200));
    server.shutdown.trigger();
    for (id, response) in ids
        .iter()
        .zip(client.wait_all(&ids).expect("drained responses"))
    {
        assert!(
            response.has_cells(),
            "lossy drain for {id}: {}",
            response.line
        );
    }
    let summary = server.stop();
    assert!(summary.contains("4 request(s)"), "{summary}");
}

#[test]
fn one_greedy_pipeliner_cannot_monopolize_the_budget() {
    // Budget of 2 permits; a greedy client floods 8 sweeps *without
    // reading any responses* while a modest client asks for one. The
    // greedy connection's output backs up in its write buffer, so this
    // only terminates if (a) admission rotates round-robin and (b)
    // permits return when completions are polled, not when the write
    // lands — i.e. a non-reading flooder cannot hold the budget.
    let server = TestServer::start(2, 8);

    let mut greedy = server.connect();
    for i in 0..8 {
        greedy
            .send_raw(&testkit::heavy_sweep_line(&format!("g{i}"), 24, 600))
            .expect("send greedy sweep");
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut modest = server.connect();
    modest
        .send_raw(&testkit::sweep_line("m", 4, &[1.0, 2.0]))
        .expect("send modest sweep");
    let response = modest.wait("m").expect("modest response");
    assert!(response.has_cells(), "{}", response.line);
    let greedy_ids: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
    let greedy_refs: Vec<&str> = greedy_ids.iter().map(String::as_str).collect();
    for response in greedy.wait_all(&greedy_refs).expect("greedy responses") {
        assert!(response.has_cells(), "{}", response.line);
    }
    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn overload_past_max_conns_refuses_structurally_and_recovers() {
    // 300 clients against --max-conns 256: exactly 256 are admitted and
    // answered, the other 44 get one structured refusal line and a
    // close, the listener never stalls, and once the crowd leaves a
    // fresh client is served normally.
    const CAPACITY: usize = 256;
    const CROWD: usize = 300;
    let server = TestServer::start(8, CAPACITY);

    let mut crowd: Vec<Client> = Vec::with_capacity(CROWD);
    for i in 0..CROWD {
        let mut client = server.connect();
        // A past-capacity connection may already be refused and reset
        // before this write lands; the read below classifies it either
        // way, so a broken pipe here is just an early refusal.
        match client.send_raw(&testkit::sweep_line(&format!("o{i}"), 2, &[1.0])) {
            Ok(()) => {}
            Err(zeroconf_client::ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
                ) => {}
            Err(e) => panic!("send overload sweep {i}: {e}"),
        }
        crowd.push(client);
    }

    // A refused connection gets one structured refusal line and a close.
    // Because these clients already pipelined a sweep the server never
    // reads, that close arrives as a TCP RST — which may reach the
    // client before it reads the refusal and discard it. Either
    // observation (the refusal line, or the reset) classifies the
    // connection as refused; the deterministic assertion on the refusal
    // line's exact shape lives in
    // `wire_errors_and_capacity_refusals_over_a_real_socket`.
    enum First {
        Line(String),
        Closed,
    }
    fn first_line(client: &mut Client) -> First {
        match client.next_line() {
            Ok(Some(line)) => First::Line(line),
            Ok(None) => First::Closed,
            Err(zeroconf_client::ClientError::Io(e))
                if e.kind() == std::io::ErrorKind::ConnectionReset =>
            {
                First::Closed
            }
            Err(e) => panic!("reading overload response: {e}"),
        }
    }
    let mut admitted = 0usize;
    let mut refused = 0usize;
    for client in &mut crowd {
        match first_line(client) {
            First::Line(line) if line.contains("server at connection capacity") => {
                refused += 1;
                assert!(
                    matches!(first_line(client), First::Closed),
                    "refused connection must be closed: {line}"
                );
            }
            First::Line(line) => {
                admitted += 1;
                assert!(line.contains("\"cells\""), "{line}");
            }
            First::Closed => refused += 1,
        }
    }
    assert_eq!(admitted, CAPACITY, "every slot under --max-conns is usable");
    assert_eq!(refused, CROWD - CAPACITY, "every overflow is refused");

    // Clean recovery: the crowd leaves, a fresh client gets a slot.
    drop(crowd);
    let end = Instant::now() + DEADLINE;
    loop {
        let mut fresh = server.connect();
        fresh
            .send_raw(&testkit::sweep_line("after", 2, &[1.0]))
            .expect("send recovery sweep");
        match first_line(&mut fresh) {
            First::Line(line) if line.contains("\"cells\"") => {
                let stats = fresh.stats("st").expect("stats response");
                assert!(
                    number(&stats, &["stats", "server", "connections_rejected"])
                        >= (CROWD - CAPACITY) as f64,
                    "{}",
                    stats.line
                );
                break;
            }
            // The reactor may not have reaped the dropped crowd yet.
            First::Line(line) => assert!(
                line.contains("server at connection capacity"),
                "unexpected recovery response: {line}"
            ),
            First::Closed => {}
        }
        assert!(
            Instant::now() < end,
            "capacity never recovered after the crowd left"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn one_reactor_thread_holds_a_thousand_idle_conns_and_serves_64_pipeliners() {
    use std::net::TcpStream;

    // The acceptance bar for the reactor rewrite: >=1000 concurrent
    // established connections on one event-loop thread while 64 clients
    // actively pipeline. Connections own no threads (one executor team
    // serves every session), so holding a thousand of them is cheap.
    const IDLE: usize = 1000;
    const ACTIVE: usize = 64;
    const PIPELINE: usize = 8;
    let server = TestServer::start(8, 2 * IDLE);

    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| TcpStream::connect(&server.addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();

    let addr = server.addr.clone();
    let workers: Vec<_> = (0..ACTIVE)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect pipeliner");
                let ids: Vec<String> = (0..PIPELINE).map(|j| format!("p{i}-{j}")).collect();
                for id in &ids {
                    client
                        .send_raw(&testkit::sweep_line(id, 4, &[0.5, 1.0]))
                        .expect("send pipelined sweep");
                }
                let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
                for response in client.wait_all(&refs).expect("pipelined responses") {
                    assert!(response.has_cells(), "{}", response.line);
                }
                ids.len()
            })
        })
        .collect();
    let answered: usize = workers
        .into_iter()
        .map(|w| w.join().expect("pipeliner joins"))
        .sum();
    assert_eq!(answered, ACTIVE * PIPELINE);

    // All thousand idle connections are still established alongside the
    // pipeliners' — the reactor held every one of them concurrently.
    let mut inspector = server.connect();
    let stats = inspector.stats("st").expect("stats response");
    assert!(
        number(&stats, &["stats", "server", "connections_open"]) >= (IDLE + 1) as f64,
        "{}",
        stats.line
    );
    assert!(
        number(&stats, &["stats", "server", "connections_total"]) >= (IDLE + ACTIVE + 1) as f64,
        "{}",
        stats.line
    );

    drop(idle);
    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn stats_wire_field_names_survive_the_reactor_rewrite() {
    // The stats response is machine-consumed (dashboards, ci.sh, the
    // serve bench): every field name below is wire contract. A rename
    // breaks this test on purpose — bump consumers in the same change.
    let server = TestServer::start(4, 8);
    let mut client = server.connect();
    client
        .send_raw(&testkit::sweep_line("s1", 4, &[1.0, 2.0]))
        .expect("send sweep");
    client.wait("s1").expect("sweep response");
    let stats = client.stats("st").expect("stats response");

    for field in [
        "id",
        "requests",
        "responses",
        "cancellations",
        "bytes_in",
        "bytes_out",
        "pending",
        "queue_ns_total",
        "queue_ns_max",
        "service_ns_total",
        "service_ns_max",
        "base_evictions",
    ] {
        number(&stats, &["stats", "conn", field]);
    }
    for field in [
        "connections_open",
        "connections_total",
        "connections_rejected",
        "requests",
        "responses",
        "cancelled_on_disconnect",
        "inflight_budget",
    ] {
        number(&stats, &["stats", "server", field]);
    }
    for field in [
        "requests",
        "cells",
        "cache_hits",
        "cache_misses",
        "cache_len",
        "cache_evictions",
    ] {
        number(&stats, &["stats", "engine", field]);
    }
    // The engine block also names its dispatched backends — string
    // fields, pinned since the SIMD/dispatch PR.
    for field in ["kernel_backend", "dist_backend"] {
        match stats.member(&["stats", "engine", field]) {
            Some(Json::Str(name)) if !name.is_empty() => {}
            other => panic!("stats.engine.{field} must be a nonempty string, got {other:?}"),
        }
    }

    // And the counters in it must be live, not placeholders. The
    // snapshot is taken before its own response line is counted, so it
    // sees two requests (sweep + stats) but only the sweep's response.
    assert_eq!(number(&stats, &["stats", "conn", "requests"]), 2.0);
    assert_eq!(number(&stats, &["stats", "server", "responses"]), 1.0);
    assert!(number(&stats, &["stats", "engine", "cells"]) >= 8.0);

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

/// The daemon's threads: one executor team sized by `--inflight`, none
/// per connection and none per sweep. 64 connections that each completed
/// a sweep, one after another, leave main, the reactor and one executor
/// (a serial load never finds every executor busy), or a second executor
/// if the first sweep beat the first executor's thread to the queue; and
/// reaping them joins nothing.
#[test]
fn connections_own_no_threads_in_the_spawned_daemon() {
    let daemon = Daemon::spawn("threads", &["--inflight", "4", "--max-conns", "128"]);
    let tasks = format!("/proc/{}/task", daemon.child.id());
    let threads = || {
        std::fs::read_dir(&tasks)
            .expect("list daemon threads")
            .count()
    };

    let mut clients: Vec<Client> = (0..64).map(|_| daemon.connect()).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let id = format!("s{i}");
        client
            .send_raw(&testkit::sweep_line(&id, 4, &[0.5, 1.0, 2.0]))
            .expect("send sweep");
        assert!(client.wait(&id).expect("sweep answer").has_cells());
    }
    let busy = threads();
    assert!(busy <= 4, "{busy} daemon threads with 64 sessions");

    drop(clients);
    let mut inspector = daemon.connect();
    let deadline = Instant::now() + DEADLINE;
    while number(
        &inspector.stats("open").expect("stats response"),
        &["stats", "server", "connections_open"],
    ) > 1.0
    {
        assert!(Instant::now() < deadline, "connections never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), busy, "reaping the sessions changed the threads");
}

/// The real daemon under a real `SIGTERM`: spawned binary, Unix socket,
/// two clients with work in flight, lossless drain, exit status 0.
#[test]
fn sigterm_drains_the_spawned_daemon_losslessly() {
    let mut daemon = Daemon::spawn("sigterm", &["--inflight", "4"]);
    let mut client_a = daemon.connect();
    let mut client_b = daemon.connect();
    client_a
        .send_raw(&testkit::heavy_sweep_line("a1", 32, 2000))
        .expect("send a1");
    client_a
        .send_raw(&testkit::sweep_line("a2", 4, &[1.0, 2.0]))
        .expect("send a2");
    client_b
        .send_raw(&testkit::heavy_sweep_line("b1", 32, 2000))
        .expect("send b1");
    client_b
        .send_raw(&testkit::sweep_line("b2", 4, &[1.5, 2.5]))
        .expect("send b2");
    std::thread::sleep(Duration::from_millis(200));

    let status = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", daemon.child.id())])
        .status()
        .expect("deliver SIGTERM");
    assert!(status.success(), "kill -TERM failed");

    // Every request sent before the signal is answered during the drain.
    for response in client_a.wait_all(&["a1", "a2"]).expect("client a drained") {
        assert!(response.has_cells(), "{}", response.line);
    }
    for response in client_b.wait_all(&["b1", "b2"]).expect("client b drained") {
        assert!(response.has_cells(), "{}", response.line);
    }
    drop(client_a);
    drop(client_b);

    let status = daemon.child.wait().expect("daemon exits");
    assert!(
        status.success(),
        "SIGTERM drain must exit 0, got {status:?}"
    );
    let mut rest = String::new();
    daemon
        .stdout
        .read_to_string(&mut rest)
        .expect("read daemon summary");
    assert!(rest.contains("drained cleanly"), "{rest}");
    assert!(
        !daemon.socket.exists(),
        "socket file must be unlinked on drain"
    );
}

/// The message a line nested past `MAX_JSON_DEPTH` is refused with: the
/// parser stops at the first level over the cap.
fn depth_refusal() -> String {
    format!(
        "JSON nesting depth {} is over the limit of {}",
        wire::MAX_JSON_DEPTH + 1,
        wire::MAX_JSON_DEPTH
    )
}

/// A 1 MiB line of `[` (or of `{"a":`) once overflowed the reactor
/// thread's stack and aborted the daemon with every connection on it.
/// Each now gets one error line, and the daemon serves on.
#[test]
fn deeply_nested_lines_get_one_error_each_in_the_spawned_daemon() {
    let mut daemon = Daemon::spawn("nesting", &["--inflight", "4"]);
    let mut client = daemon.connect();
    for opener in ["[", "{\"a\":"] {
        client
            .send_raw(&opener.repeat((1 << 20) / opener.len()))
            .expect("send the nested line");
        let line = client
            .next_line()
            .expect("read the answer")
            .expect("an answer before EOF");
        let value = wire::parse_json(&line).expect("the answer is JSON");
        assert_eq!(value.get("id"), Some(&Json::Str(String::new())), "{line}");
        assert_eq!(
            value.get("error"),
            Some(&Json::Str(depth_refusal())),
            "{line}"
        );
    }
    client
        .send_raw(&testkit::sweep_line("ok", 4, &[1.0, 2.0]))
        .expect("send ok");
    let next = client
        .next_response(Instant::now() + DEADLINE)
        .expect("read ok")
        .expect("ok before EOF");
    assert_eq!(next.id(), "ok", "one answer per nested line: {}", next.line);
    assert!(next.has_cells(), "{}", next.line);
    let stats = daemon.connect().stats("st").expect("stats response");
    assert_eq!(number(&stats, &["stats", "conn", "requests"]), 1.0);
    assert!(daemon.alive());
}

/// A 4.1 MB sweep line whose mixture has 50,000 components once built
/// its whole JSON tree, about ten bytes of heap per byte of line, before
/// the decoder's component cap refused it. The parse now stops at
/// `MAX_REQUEST_VALUES`, so each such line gets the budget's error.
#[test]
fn request_lines_over_the_value_budget_get_one_error_each_in_the_spawned_daemon() {
    let mut daemon = Daemon::spawn("values", &["--inflight", "4"]);
    let mut client = daemon.connect();
    let refusal = format!(
        "request line JSON value count is over the limit of {}",
        wire::MAX_REQUEST_VALUES
    );
    let over = testkit::mixture_sweep_line("big", 50_000);
    for _ in 0..2 {
        client.send_raw(&over).expect("send the line");
        let line = client
            .next_line()
            .expect("read the answer")
            .expect("an answer before EOF");
        let value = wire::parse_json(&line).expect("the answer is JSON");
        assert_eq!(value.get("id"), Some(&Json::Str(String::new())), "{line}");
        assert_eq!(
            value.get("error"),
            Some(&Json::Str(refusal.clone())),
            "{line}"
        );
    }
    client
        .send_raw(&testkit::sweep_line("ok", 4, &[1.0, 2.0]))
        .expect("send ok");
    let next = client
        .next_response(Instant::now() + DEADLINE)
        .expect("read ok")
        .expect("ok before EOF");
    assert_eq!(next.id(), "ok", "one answer per line: {}", next.line);
    assert!(next.has_cells(), "{}", next.line);
    assert!(daemon.alive());
}

/// `frame` with one of its openers, chosen by `draw` as in
/// [`testkit::mutate`], repeated `depth` times in place: a `[` as `[`s
/// and a `{` as `{"a":`s, so the parser descends `depth` levels before
/// it meets the rest of the frame.
fn nest(frame: &str, depth: usize, draw: &mut impl FnMut(usize) -> usize) -> String {
    let openers: Vec<usize> = frame.match_indices(['[', '{']).map(|(at, _)| at).collect();
    let at = openers[draw(openers.len())];
    let opener = if frame[at..].starts_with('{') {
        "{\"a\":"
    } else {
        "["
    };
    format!("{}{}{}", &frame[..at], opener.repeat(depth), &frame[at..])
}

/// Seeds of the socket fuzzer: the same mutations, seed for seed, as the
/// engine's in-process `wire_fuzz.rs`.
const FUZZ_SEEDS: u64 = 200;

/// A raw socket to the daemon: bytes out, answer lines in.
struct RawConn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl RawConn {
    fn open(daemon: &Daemon) -> RawConn {
        let writer = UnixStream::connect(&daemon.socket).expect("connect raw socket");
        writer
            .set_read_timeout(Some(DEADLINE))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        RawConn { writer, reader }
    }

    /// Sends `bytes` as one line followed by a small sweep with the id
    /// `sentinel`, and returns every answer line before the sentinel's.
    /// The daemon runs one request at a time (`--inflight 1`), so every
    /// answer the line causes arrives before the sentinel's.
    fn answers(&mut self, bytes: &[u8], sentinel: &str) -> Vec<String> {
        let mut frame = bytes.to_vec();
        frame.push(b'\n');
        frame.extend_from_slice(testkit::sweep_line(sentinel, 1, &[1.0]).as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame).expect("send the fuzzed line");
        let mut answers = Vec::new();
        loop {
            let mut line = String::new();
            let read = self.reader.read_line(&mut line).expect("read an answer");
            assert!(read > 0, "EOF after {answers:?}");
            let value = wire::parse_json(line.trim_end())
                .unwrap_or_else(|e| panic!("answer {line:?} does not parse: {e}"));
            if wire::line_id(&value) == sentinel {
                assert!(value.get("cells").is_some(), "{line}");
                return answers;
            }
            answers.push(line);
        }
    }
}

/// The wire fuzzer over a live socket: every mutated frame, a frame with
/// an opener repeated past `MAX_JSON_DEPTH`, and a mixture past
/// `MAX_MIXTURE_COMPONENTS`. Each non-blank line gets exactly one answer,
/// the daemon stays up, and a fresh connection is served afterwards.
#[test]
fn mutated_frames_over_a_live_socket_get_one_answer_each() {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::{Rng, SeedableRng};

    let mut daemon = Daemon::spawn("fuzz", &["--inflight", "1"]);
    let mut conn = RawConn::open(&daemon);
    let frames = testkit::fuzz_frames();
    // A completed base, so mutated dependents are dispatched, not refused.
    let base = conn.answers(frames[0].as_bytes(), "z");
    assert!(base.len() == 1 && base[0].contains("\"cells\""), "{base:?}");
    let mut nesting = StdRng::seed_from_u64(0x2e57);
    for seed in 0..FUZZ_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for frame in &frames {
            let bytes = testkit::mutate(frame, &mut |n| rng.gen_range(0..n));
            let lines = String::from_utf8_lossy(&bytes)
                .split('\n')
                .filter(|piece| !piece.trim().is_empty())
                .count();
            let got = conn.answers(&bytes, &format!("z{seed}"));
            assert_eq!(got.len(), lines, "seed {seed}: {bytes:?} got {got:?}");
        }
        let frame = &frames[nesting.gen_range(0..frames.len())];
        let depth = nesting.gen_range(wire::MAX_JSON_DEPTH + 1..16 * 1024);
        let deep = nest(frame, depth, &mut |n| nesting.gen_range(0..n));
        let got = conn.answers(deep.as_bytes(), &format!("z{seed}"));
        assert_eq!(got.len(), 1, "seed {seed}, depth {depth}: {got:?}");
        assert!(got[0].contains(&depth_refusal()), "{}", got[0]);
    }
    let mixture = testkit::mixture_sweep_line("mix", wire::MAX_MIXTURE_COMPONENTS + 1);
    let got = conn.answers(mixture.as_bytes(), "z");
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("\"id\":\"mix\",\"error\""), "{}", got[0]);
    assert!(daemon.alive());
    let mut fresh = daemon.connect();
    fresh
        .send_raw(&testkit::sweep_line("after", 2, &[1.0]))
        .expect("send after");
    assert!(fresh.wait("after").expect("after answer").has_cells());
}

/// The daemon's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/PID/status");
    kib / 1024.0
}

/// A client that pipelines the largest sweeps the caps admit and never
/// reads pins neither the reactor nor the daemon's memory. Its answers
/// (1,048,576 cells each, ≈100 MB of text) stay typed in its output
/// queue, 16 bytes per cell, and are encoded only as its socket takes
/// them, so other connections' `stats` lines and small sweeps keep being
/// answered while they complete. Encoding each answer whole on the
/// reactor held round trips for over a second and took the daemon past
/// 700 MiB.
#[test]
fn a_client_that_never_reads_max_size_answers_stalls_no_one() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const GREEDY: u64 = 8;
    let daemon = Daemon::spawn("unread", &[]);
    let mut greedy = daemon.connect();
    let r_points = wire::MAX_GRID_CELLS / wire::MAX_GRID_N_MAX as usize;
    for i in 0..GREEDY {
        greedy
            .send_raw(&testkit::heavy_sweep_line(
                &format!("g{i}"),
                wire::MAX_GRID_N_MAX,
                r_points,
            ))
            .expect("send a max-size sweep");
    }
    // One connection sends `stats` lines back to back, another small
    // sweeps, each until `stop`; each returns its longest round trip.
    let evaluated = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let mut stats_client = daemon.connect();
    let stats = {
        let (evaluated, stop) = (Arc::clone(&evaluated), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut longest = Duration::ZERO;
            for k in 0.. {
                let begin = Instant::now();
                let answer = stats_client.stats(&format!("k{k}")).expect("stats answer");
                longest = longest.max(begin.elapsed());
                let cells = number(&answer, &["stats", "engine", "cells"]);
                if cells >= (GREEDY * wire::MAX_GRID_CELLS as u64) as f64 {
                    // ORDERING: a flag with no data behind it.
                    evaluated.store(true, Ordering::Relaxed);
                }
                // ORDERING: a flag with no data behind it.
                if stop.load(Ordering::Relaxed) {
                    return (k + 1, longest);
                }
            }
            unreachable!()
        })
    };
    let mut sweep_client = daemon.connect();
    let sweeps = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut longest = Duration::ZERO;
            for k in 0.. {
                let id = format!("s{k}");
                let begin = Instant::now();
                sweep_client
                    .send_raw(&testkit::sweep_line(&id, 4, &[1.0, 2.0]))
                    .expect("send a small sweep");
                let answer = sweep_client.wait(&id).expect("small sweep answer");
                assert!(answer.has_cells(), "{}", answer.line);
                longest = longest.max(begin.elapsed());
                // ORDERING: a flag with no data behind it.
                if stop.load(Ordering::Relaxed) {
                    return (k + 1, longest);
                }
            }
            unreachable!()
        })
    };
    let deadline = Instant::now() + DEADLINE;
    // ORDERING: a flag with no data behind it.
    while !evaluated.load(Ordering::Relaxed) {
        assert!(
            Instant::now() < deadline,
            "the max-size sweeps never completed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Long enough for whole-line encodes of every answer to show.
    std::thread::sleep(Duration::from_secs(1));
    // ORDERING: a flag with no data behind it.
    stop.store(true, Ordering::Relaxed);
    let (stats_lines, stats_longest) = stats.join().expect("stats connection");
    let (sweeps_done, sweep_longest) = sweeps.join().expect("sweep connection");
    let peak = peak_rss_mib(daemon.child.id());
    let report = format!(
        "{stats_lines} stats lines, longest round trip {:.1} ms; {sweeps_done} small sweeps, \
         longest {:.1} ms; daemon VmHWM {peak:.1} MiB",
        stats_longest.as_secs_f64() * 1e3,
        sweep_longest.as_secs_f64() * 1e3,
    );
    eprintln!("{report}");
    // Whole-line encodes gave 814–1204 ms, 1020–1418 ms and 729 MiB in
    // release; streamed answers 10–16 ms, 90–318 ms (debug is the larger)
    // and 145 MiB, in release and debug. A small sweep waits for a permit
    // the max-size sweeps hold while they compute.
    assert!(stats_longest < Duration::from_millis(250), "{report}");
    assert!(sweep_longest < Duration::from_millis(700), "{report}");
    assert!(peak < 320.0, "{report}");
    drop(greedy);
}
