//! The `zeroconf-client` binary: scripted exercisers for a running serve
//! daemon, built on the [`zeroconf_client`] library.
//!
//! Two subcommands, both driven by `ci.sh` against a freshly spawned
//! daemon:
//!
//! - `smoke` — the lossless-drain scenario: a victim connection pipelines
//!   work and disconnects mid-flight; a survivor pipelines a sweep, a
//!   rescore, a frontier and an inline calibration; the daemon is
//!   SIGTERMed while those are in flight and every survivor request must
//!   still be answered.
//! - `flood` — the reactor scale scenario: many concurrent clients
//!   pipeline sweeps at once, a fraction disconnect mid-flight, and (with
//!   `--pid`) a straggler must still be answered across a SIGTERM drain.
//!
//! Exit status 0 when every assertion holds, 1 otherwise (with a
//! diagnostic on stderr). The process never signals anything except the
//! pid it was explicitly given.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::Command;
use std::thread;
use std::time::Duration;

use zeroconf_client::{Axis, Client, Grid, Response, Scenario};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => println!("{summary}"),
        Err(error) => {
            eprintln!("zeroconf-client: {error}");
            std::process::exit(1);
        }
    }
}

/// Where the daemon listens, as given on the command line.
enum Target {
    Tcp(String),
    Unix(PathBuf),
}

impl Target {
    fn connect(&self) -> Result<Client, String> {
        match self {
            Target::Tcp(addr) => {
                Client::connect_tcp(addr).map_err(|e| format!("connect {addr}: {e}"))
            }
            Target::Unix(path) => {
                Client::connect_unix(path).map_err(|e| format!("connect {}: {e}", path.display()))
            }
        }
    }
}

struct Options {
    target: Target,
    /// Daemon pid to SIGTERM mid-flight (drain assertion), if any.
    pid: Option<u32>,
    clients: usize,
    requests: usize,
}

fn run(args: &[String]) -> Result<String, String> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(usage("missing subcommand"));
    };
    let options = parse_options(rest)?;
    match verb.as_str() {
        "smoke" => smoke(&options),
        "flood" => flood(&options),
        other => Err(usage(&format!("unknown subcommand `{other}`"))),
    }
}

fn usage(problem: &str) -> String {
    format!(
        "{problem}\n\
         usage: zeroconf-client <smoke|flood> (--tcp ADDR | --unix PATH)\n\
                [--pid PID] [--clients N] [--requests N]"
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut target = None;
    let mut pid = None;
    let mut clients = 64usize;
    let mut requests = 8usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next()
                .ok_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--tcp" => target = Some(Target::Tcp(value("--tcp")?.clone())),
            "--unix" => target = Some(Target::Unix(PathBuf::from(value("--unix")?))),
            "--pid" => {
                let raw = value("--pid")?;
                pid = Some(
                    raw.parse::<u32>()
                        .map_err(|_| usage(&format!("--pid `{raw}` is not a pid")))?,
                );
            }
            "--clients" => {
                let raw = value("--clients")?;
                clients = raw
                    .parse::<usize>()
                    .map_err(|_| usage(&format!("--clients `{raw}` is not a count")))?;
            }
            "--requests" => {
                let raw = value("--requests")?;
                requests = raw
                    .parse::<usize>()
                    .map_err(|_| usage(&format!("--requests `{raw}` is not a count")))?;
            }
            other => return Err(usage(&format!("unknown flag `{other}`"))),
        }
    }
    let target = target.ok_or_else(|| usage("one of --tcp/--unix is required"))?;
    Ok(Options {
        target,
        pid,
        clients: clients.max(1),
        requests: requests.max(1),
    })
}

/// Sends SIGTERM to `pid` via `kill(1)` (this binary forbids unsafe code,
/// so no direct syscall).
fn sigterm(pid: u32) -> Result<(), String> {
    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .map_err(|e| format!("spawning kill: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("kill -TERM {pid} exited with {status}"))
    }
}

fn require_cells(response: &Response, what: &str) -> Result<usize, String> {
    if let Some(error) = response.error() {
        return Err(format!("{what} answered with an error: {error}"));
    }
    let cells = response.cell_count();
    if cells == 0 {
        return Err(format!("{what} carried no cells: {}", response.line));
    }
    Ok(cells)
}

/// A deliberately expensive sweep: dense enough that responses are still
/// in flight when the disconnect / SIGTERM lands.
fn heavy_grid() -> Grid {
    Grid::Linspace {
        n_max: 64,
        r_min: 0.1,
        r_max: 30.0,
        r_points: 4000,
    }
}

/// The lossless-drain smoke: victim disconnects mid-flight, survivor's
/// pipelined sweep/rescore/frontier/calibration all get answered across a
/// SIGTERM drain.
fn smoke(options: &Options) -> Result<String, String> {
    let scenario = Scenario::fixture();
    fn fail(what: &'static str) -> impl Fn(zeroconf_client::ClientError) -> String {
        move |e| format!("{what}: {e}")
    }

    let mut victim = options.target.connect()?;
    let mut survivor = options.target.connect()?;

    // The victim pipelines expensive work it will never read.
    victim
        .sweep("v1", &scenario, &heavy_grid())
        .map_err(fail("victim sweep v1"))?;
    victim
        .rescore("v2", "v1", 1e9)
        .map_err(fail("victim rescore v2"))?;

    // The survivor pipelines one of everything.
    survivor
        .sweep("a1", &scenario, &heavy_grid())
        .map_err(fail("survivor sweep a1"))?;
    survivor
        .rescore("a2", "a1", 1e9)
        .map_err(fail("survivor rescore a2"))?;
    survivor
        .sweep(
            "a3",
            &scenario,
            &Grid::Linspace {
                n_max: 4,
                r_min: 0.1,
                r_max: 30.0,
                r_points: 60,
            },
        )
        .map_err(fail("survivor sweep a3"))?;
    survivor
        .frontier(
            "a4",
            "a3",
            &Axis::error_cost(&[1e3, 1e6]),
            &Axis::probe_cost(&[1.0, 2.0]),
        )
        .map_err(fail("survivor frontier a4"))?;
    survivor
        .calibrate_inline(
            "a5",
            &scenario,
            &Grid::Explicit {
                n_max: 3,
                r: vec![0.5, 1.0, 2.0],
            },
            2,
            1.0,
        )
        .map_err(fail("survivor calibrate a5"))?;

    // Let the daemon take everything in, then yank the victim mid-flight.
    thread::sleep(Duration::from_millis(150));
    drop(victim);
    thread::sleep(Duration::from_millis(100));

    // SIGTERM with the survivor's requests still in flight: the drain
    // must answer all of them before the daemon exits.
    if let Some(pid) = options.pid {
        sigterm(pid)?;
    }

    let responses = survivor
        .wait_all(&["a1", "a2", "a3", "a4", "a5"])
        .map_err(fail("survivor responses"))?;
    let mut cells = 0usize;
    for (response, what) in responses.iter().zip(["a1", "a2", "a3"]) {
        cells += require_cells(response, what)?;
    }
    let frontier = &responses[3];
    let candidates = frontier
        .number(&["frontier", "candidates"])
        .ok_or_else(|| format!("a4 is not a frontier response: {}", frontier.line))?;
    if candidates != 4.0 {
        return Err(format!(
            "a4 expected 4 frontier candidates: {}",
            frontier.line
        ));
    }
    match frontier.member(&["frontier", "points"]) {
        Some(zeroconf_client::Json::Arr(points)) if !points.is_empty() => {}
        _ => return Err(format!("a4 frontier has no points: {}", frontier.line)),
    }
    let calibrated = &responses[4];
    let error_cost = calibrated
        .number(&["calibrate", "error_cost"])
        .ok_or_else(|| format!("a5 is not a calibrate response: {}", calibrated.line))?;
    if error_cost.is_nan() || error_cost <= 0.0 {
        return Err(format!(
            "a5 calibrated a nonpositive error_cost: {}",
            calibrated.line
        ));
    }

    Ok(format!(
        "smoke ok: 5 survivor responses ({cells} cells, {candidates} frontier candidates, \
         calibrated error_cost {error_cost:.3e}) across a mid-flight disconnect{}",
        if options.pid.is_some() {
            " and a SIGTERM drain"
        } else {
            ""
        }
    ))
}

/// One flood worker: pipeline `requests` sweeps, then either read every
/// answer back or (for the deserter fraction) disconnect mid-flight.
fn flood_worker(
    target: &Target,
    index: usize,
    requests: usize,
    desert: bool,
) -> Result<usize, String> {
    let scenario = Scenario::fixture();
    let grid = Grid::Explicit {
        n_max: 8,
        r: vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
    };
    let mut client = target.connect()?;
    let ids: Vec<String> = (0..requests).map(|j| format!("c{index}-r{j}")).collect();
    for id in &ids {
        client
            .sweep(id, &scenario, &grid)
            .map_err(|e| format!("client {index} sweep {id}: {e}"))?;
    }
    if desert {
        // Queue one more expensive sweep and vanish with it in flight.
        client
            .sweep(&format!("c{index}-deserter"), &scenario, &heavy_grid())
            .map_err(|e| format!("client {index} deserter sweep: {e}"))?;
        drop(client);
        return Ok(0);
    }
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let responses = client
        .wait_all(&id_refs)
        .map_err(|e| format!("client {index} responses: {e}"))?;
    for (response, id) in responses.iter().zip(&ids) {
        require_cells(response, &format!("client {index} {id}"))?;
    }
    Ok(responses.len())
}

/// The reactor scale smoke: `--clients` concurrent pipeliners, every
/// eighth disconnecting mid-flight, with an optional straggler answered
/// across a SIGTERM drain.
fn flood(options: &Options) -> Result<String, String> {
    let mut handles = Vec::with_capacity(options.clients);
    for index in 0..options.clients {
        let target = match &options.target {
            Target::Tcp(addr) => Target::Tcp(addr.clone()),
            Target::Unix(path) => Target::Unix(path.clone()),
        };
        let requests = options.requests;
        let desert = index % 8 == 3;
        handles.push(thread::spawn(move || {
            flood_worker(&target, index, requests, desert)
        }));
    }

    let mut answered = 0usize;
    let mut deserters = 0usize;
    let mut failures = Vec::new();
    for (index, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(0)) => deserters += 1,
            Ok(Ok(n)) => answered += n,
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push(format!("client {index} panicked")),
        }
    }
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} client(s) failed; first: {first}",
            failures.len()
        ));
    }

    // The server must have seen every connection and still be healthy.
    let mut inspector = options.target.connect()?;
    let stats = inspector
        .stats("flood-stats")
        .map_err(|e| format!("stats after flood: {e}"))?;
    let total = stats
        .number(&["stats", "server", "connections_total"])
        .unwrap_or(0.0);
    if total < options.clients as f64 {
        return Err(format!(
            "server saw {total} connections, expected at least {}: {}",
            options.clients, stats.line
        ));
    }

    // Straggler across the drain: submit, SIGTERM, then demand the answer.
    let mut drained = "";
    if let Some(pid) = options.pid {
        inspector
            .sweep("straggler", &Scenario::fixture(), &heavy_grid())
            .map_err(|e| format!("straggler sweep: {e}"))?;
        thread::sleep(Duration::from_millis(100));
        sigterm(pid)?;
        let response = inspector
            .wait("straggler")
            .map_err(|e| format!("straggler response after SIGTERM: {e}"))?;
        require_cells(&response, "straggler")?;
        drained = ", straggler answered across SIGTERM drain";
    }

    Ok(format!(
        "flood ok: {} clients ({} mid-flight disconnects), {answered} pipelined \
         responses verified{drained}",
        options.clients, deserters
    ))
}
