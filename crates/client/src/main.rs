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
//!   still be answered. Each landscape is checked against the grid it was
//!   asked for and the model's invariants, and the rescore must keep the
//!   sweep's E(n, r) bit for bit while its C(n, r) moves.
//! - `flood` — the reactor scale scenario: many concurrent clients
//!   pipeline the same sweep at once, a fraction disconnect mid-flight,
//!   and every answered landscape must equal the first bit for bit; (with
//!   `--pid`) the daemon's peak thread count while the clients run is
//!   reported, and a straggler must still be answered across a SIGTERM
//!   drain.
//!
//! Exit status 0 when every assertion holds, 1 otherwise (with a
//! diagnostic on stderr). The process never signals anything except the
//! pid it was explicitly given.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use zeroconf_client::{Axis, Client, Grid, Landscape, Response, Scenario};

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

/// The landscape of a sweep or rescore answer, checked against the grid
/// it asked for and the invariants of the model (Hölzl & Nipkow): the
/// grid's `n_max` and column count, `r` ascending inside the grid's range
/// (an explicit grid's list must ascend too), and every E(n, r) inside
/// `[0, q]` and not rising with `n`.
fn require_landscape<'a>(
    response: &'a Response,
    what: &str,
    grid: &Grid,
    q: f64,
) -> Result<&'a Landscape, String> {
    if let Some(error) = response.error() {
        return Err(format!("{what} answered with an error: {error}"));
    }
    let landscape = response
        .landscape()
        .ok_or_else(|| format!("{what} carried no cells: {}", response.line))?;
    let (n_max, columns, lo, hi) = match grid {
        Grid::Linspace {
            n_max,
            r_min,
            r_max,
            r_points,
        } => (*n_max, *r_points, *r_min, *r_max),
        Grid::Explicit { n_max, r } => (
            *n_max,
            r.len(),
            r.first().copied().unwrap_or(f64::NAN),
            r.last().copied().unwrap_or(f64::NAN),
        ),
    };
    let r = landscape.r_values();
    if landscape.n_max() != n_max || r.len() != columns {
        return Err(format!(
            "{what} is {} × {} cells, its grid {n_max} × {columns}",
            landscape.n_max(),
            r.len()
        ));
    }
    if r.windows(2).any(|pair| pair[0] >= pair[1]) || r.iter().any(|r| !(lo..=hi).contains(r)) {
        return Err(format!(
            "{what}'s r values do not ascend inside [{lo}, {hi}]"
        ));
    }
    let errors = landscape
        .errors()
        .ok_or_else(|| format!("{what} carried no error_probability"))?;
    for (column, errors) in errors.chunks(n_max.max(1) as usize).enumerate() {
        if errors.iter().any(|e| !(0.0..=q).contains(e)) {
            return Err(format!(
                "{what}: an E(n, r = {}) is outside [0, {q}]",
                r[column]
            ));
        }
        if errors.windows(2).any(|pair| pair[1] > pair[0]) {
            return Err(format!("{what}: E(n, r = {}) rises with n", r[column]));
        }
    }
    Ok(landscape)
}

/// Whether two optional slabs are both absent, or hold the same bits.
fn same_bits(a: Option<&[f64]>, b: Option<&[f64]>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// Whether two landscapes hold the same grid and the same bits.
fn same_landscape(a: &Landscape, b: &Landscape) -> bool {
    a.n_max() == b.n_max()
        && same_bits(Some(a.r_values()), Some(b.r_values()))
        && same_bits(a.costs(), b.costs())
        && same_bits(a.errors(), b.errors())
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
    let small_grid = Grid::Linspace {
        n_max: 4,
        r_min: 0.1,
        r_max: 30.0,
        r_points: 60,
    };
    survivor
        .sweep("a3", &scenario, &small_grid)
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
    let q = scenario.q;
    let swept = require_landscape(&responses[0], "a1", &heavy_grid(), q)?;
    let rescored = require_landscape(&responses[1], "a2", &heavy_grid(), q)?;
    let small = require_landscape(&responses[2], "a3", &small_grid, q)?;
    // A rescore changes the collision cost only: E(n, r) keeps its bits
    // and C(n, r) moves.
    if !same_bits(rescored.errors(), swept.errors()) {
        return Err("a2's error_probability differs from its base a1's".to_owned());
    }
    if same_bits(rescored.costs(), swept.costs()) {
        return Err("a2's mean_cost equals a1's under a new error_cost".to_owned());
    }
    let cells = swept.len() + rescored.len() + small.len();
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
        "smoke ok: 5 survivor responses ({cells} cells checked against their grids, \
         {candidates} frontier candidates, calibrated error_cost {error_cost:.3e}) across a \
         mid-flight disconnect{}",
        if options.pid.is_some() {
            " and a SIGTERM drain"
        } else {
            ""
        }
    ))
}

/// One flood worker: pipeline `requests` sweeps, then either read every
/// answer back, checked against the grid, or (for the deserter fraction)
/// disconnect mid-flight with nothing read.
fn flood_worker(
    target: &Target,
    index: usize,
    requests: usize,
    desert: bool,
) -> Result<Vec<Landscape>, String> {
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
        return Ok(Vec::new());
    }
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let responses = client
        .wait_all(&id_refs)
        .map_err(|e| format!("client {index} responses: {e}"))?;
    responses
        .iter()
        .zip(&ids)
        .map(|(response, id)| {
            require_landscape(response, &format!("client {index} {id}"), &grid, scenario.q).cloned()
        })
        .collect()
}

/// Counts `/proc/<pid>/task` every millisecond until `stop` is set and
/// returns the largest count seen.
fn peak_threads(pid: u32, stop: &AtomicBool) -> Result<usize, String> {
    let tasks = format!("/proc/{pid}/task");
    let mut peak = 0;
    // ORDERING: a standalone stop flag; the sampler only needs to see it
    // eventually, and the count it returns travels through the join.
    while !stop.load(Ordering::Relaxed) {
        let threads = std::fs::read_dir(&tasks)
            .map_err(|e| format!("listing {tasks}: {e}"))?
            .count();
        peak = peak.max(threads);
        thread::sleep(Duration::from_millis(1));
    }
    Ok(peak)
}

/// The reactor scale smoke: `--clients` concurrent pipeliners, every
/// eighth disconnecting mid-flight; with `--pid`, the daemon's peak
/// thread count while they run, and a straggler answered across a
/// SIGTERM drain.
fn flood(options: &Options) -> Result<String, String> {
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = options.pid.map(|pid| {
        let stop = Arc::clone(&stop);
        thread::spawn(move || peak_threads(pid, &stop))
    });
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

    let mut landscapes = Vec::new();
    let mut deserters = 0usize;
    let mut failures = Vec::new();
    for (index, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(answered)) if answered.is_empty() => deserters += 1,
            Ok(Ok(answered)) => landscapes.extend(answered),
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push(format!("client {index} panicked")),
        }
    }
    // ORDERING: see `peak_threads`.
    stop.store(true, Ordering::Relaxed);
    let threads = match sampler {
        Some(sampler) => match sampler.join() {
            Ok(peak) => format!(", daemon threads peaked at {}", peak?),
            Err(_) => return Err("thread sampler panicked".to_owned()),
        },
        None => String::new(),
    };
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} client(s) failed; first: {first}",
            failures.len()
        ));
    }
    // One scenario, one grid: every answer must be the first, bit for bit.
    let answered = landscapes.len();
    if let Some(first) = landscapes.first() {
        if let Some(at) = landscapes.iter().position(|l| !same_landscape(l, first)) {
            return Err(format!(
                "flood answer {at} of {answered} differs from the first in some bit"
            ));
        }
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
        require_landscape(&response, "straggler", &heavy_grid(), Scenario::fixture().q)?;
        drained = ", straggler answered across SIGTERM drain";
    }

    Ok(format!(
        "flood ok: {} clients ({} mid-flight disconnects), {answered} pipelined \
         landscapes checked and bit-identical{threads}{drained}",
        options.clients, deserters
    ))
}
