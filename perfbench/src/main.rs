//! `perfbench`: a closed-loop load generator for the `zeroconf serve`
//! daemon.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The command starts the real daemon in a child process, drives it
//! through `zeroconf-client` on one of three fixed-shape workloads, checks
//! a seeded sample of answers bit for bit against the in-process engine,
//! and prints a run context followed by one JSON result line. With
//! `--trace 1` it also replays every op through the layers' public
//! functions and prints the per-layer split instead of the end-to-end
//! metrics. See `perfbench/README.md`.

mod daemon;
mod host;
mod keepwarm;
mod oracle;
mod reference;
mod stats;
mod trace;
mod workload;

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use zeroconf_client::{Client, Json, Response};
use zeroconf_engine::{Engine, EngineConfig};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{Rng, SeedableRng};

use daemon::{Daemon, DrainSummary};
use host::CpuTicks;
use oracle::Oracle;
use trace::{Replayer, Span, Tracer};
use workload::{Generator, Op, Phase, Workload};

/// Fresh daemon starts per run whose median is `setup_s`.
const SETUP_STARTS: usize = 15;

/// Reference passes per connection, spread evenly over the timed ops.
const REFERENCE_PASSES: u64 = 100;

/// Timed ops per run whose answers the oracle checks, over all
/// connections.
const ORACLE_SAMPLES: usize = 16;

/// Where sockets and span files go, relative to the checkout root (kept
/// short: a Unix socket path must fit in 108 bytes).
const RUN_DIR: &str = "perfbench/.run";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("daemon") => std::process::exit(daemon::serve_child(&args[1..])),
        Some("keep-warm") => std::process::exit(keepwarm::keep_warm_child()),
        _ => {}
    }
    let code = match Args::parse(&args).and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10;
        let mut trace = false;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload `{value}` (one of {})", names.join(", "))
                    })?);
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => trace = number()? != 0,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One op's request lines and the daemon's answers, kept for the oracle.
struct Sample {
    op: Op,
    answers: Vec<String>,
}

/// What one connection's generator thread measured.
#[derive(Default)]
struct ConnResult {
    latencies_ms: Vec<f64>,
    reference_ms: Vec<f64>,
    last_end: Option<Instant>,
    attempted: u64,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    engine_wall_ns: u64,
    request_lines: u64,
    request_bytes: u64,
    samples: Vec<Sample>,
    spans: Vec<Span>,
    problems: Vec<String>,
}

/// The connection block of a `stats` answer, summed over connections.
#[derive(Default)]
struct ConnCounters {
    bytes_in: u64,
    bytes_out: u64,
    queue_ns: u64,
    service_ns: u64,
}

/// Everything one daemon lifetime (start, warm-up, timed ops) measured.
struct Pass {
    ops: u64,
    latencies_ms: Vec<f64>,
    reference_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    daemon_cpu_s: f64,
    client_cpu_s: f64,
    steal_pct: f64,
    rss_mib: f64,
    cache_hits: u64,
    cache_misses: u64,
    engine_wall_ns: u64,
    conn: ConnCounters,
    backends: String,
    spans: Vec<Span>,
    problems: Vec<String>,
    checked_ops: usize,
    compared_values: usize,
    drain: DrainSummary,
}

impl Pass {
    fn ops_f(&self) -> f64 {
        self.ops.max(1) as f64
    }

    fn latency(&self, p: f64) -> f64 {
        stats::percentile(&stats::sorted(&self.latencies_ms), p)
    }

    fn mean_latency_ms(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len().max(1) as f64
    }

    fn cpu_ms_per_op(&self) -> f64 {
        (self.daemon_cpu_s + self.client_cpu_s) * 1e3 / self.ops_f()
    }
}

/// This run's host speed, from the reference workload's median time.
struct HostSpeed {
    reference_ms: f64,
    passes: usize,
}

impl HostSpeed {
    fn new(reference_ms: &[f64]) -> HostSpeed {
        HostSpeed {
            reference_ms: stats::median(reference_ms),
            passes: reference_ms.len(),
        }
    }

    /// `raw` (a time) expressed on the nominal host, where the reference
    /// takes [`reference::NOMINAL_MS`].
    fn scale(&self, raw: f64) -> f64 {
        raw * reference::NOMINAL_MS / self.reference_ms
    }
}

fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ORDERING: a standalone counter naming sockets; only uniqueness matters.
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("{RUN_DIR}/d{}-{n}.sock", std::process::id()))
}

/// Sends every line of `op`, then waits for every answer: one op in
/// flight on the connection.
fn exchange(client: &mut Client, op: &Op) -> Result<Vec<Response>, String> {
    for line in &op.lines {
        client.send_raw(line).map_err(|e| e.to_string())?;
    }
    let ids: Vec<&str> = op.ids.iter().map(String::as_str).collect();
    client.wait_all(&ids).map_err(|e| e.to_string())
}

/// Spawns a daemon and answers the workload's warm-up: one op per timed
/// connection, over one set-up connection. Returns the daemon, the
/// set-up seconds and the warm-up exchanges.
fn start(generator: &Generator, workload: Workload) -> Result<(Daemon, f64, Vec<Sample>), String> {
    let begin = Instant::now();
    let daemon = Daemon::spawn(&socket_path())?;
    let mut client = daemon.connect()?;
    let mut warmups = Vec::new();
    for conn in 0..workload.connections() {
        let op = generator.op(Phase::Warmup, conn, 0);
        let answers = exchange(&mut client, &op)?;
        warmups.push(Sample {
            op,
            answers: answers.into_iter().map(|r| r.line).collect(),
        });
    }
    let setup_s = begin.elapsed().as_secs_f64();
    Ok((daemon, setup_s, warmups))
}

fn warmup_lines(warmups: &[Sample]) -> u64 {
    warmups.iter().map(|s| s.op.lines.len() as u64).sum()
}

/// The seeded set of op indices whose answers the oracle checks.
fn sample_indices(seed: u64, conn: usize, ops: u64, count: usize) -> HashSet<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0AC1E ^ ((conn as u64) << 40));
    let mut picked = HashSet::new();
    let count = count.min(ops as usize);
    while picked.len() < count {
        picked.insert(rng.gen_range(0..ops));
    }
    picked
}

/// Whether an answer has the shape its line asks for: a full landscape
/// for sweeps and rescores, a non-empty frontier for frontiers.
fn answer_shape_ok(response: &Response, line: &str) -> bool {
    if response.error().is_some() {
        return false;
    }
    let frontier = line.contains(&format!("\"{}\":", zeroconf_engine::wire::VERB_FRONTIER));
    if frontier {
        matches!(response.member(&["frontier", "points"]), Some(Json::Arr(p)) if !p.is_empty())
    } else {
        response.cell_count() == (workload::SWEEP_N_MAX as usize) * workload::SWEEP_R_POINTS
    }
}

/// One connection's closed loop over its timed ops. Every connection
/// starts its `index`-th op together with the others (`lockstep`), so
/// concurrent ops always overlap the same way instead of drifting in and
/// out of phase from run to run.
fn drive(
    conn: usize,
    client: &mut Client,
    generator: Generator,
    ops: u64,
    sampled: &HashSet<u64>,
    lockstep: &Barrier,
    mut replay: Option<(Replayer, Tracer)>,
) -> ConnResult {
    let mut out = ConnResult {
        latencies_ms: Vec::with_capacity(ops as usize),
        ..ConnResult::default()
    };
    let mut broken = false;
    let reference_every = (ops / REFERENCE_PASSES).max(1);
    for index in 0..ops {
        if index % reference_every == 0 {
            let pass = (index / reference_every) as usize + conn;
            match reference::pass_cpu_ms_rotating(pass) {
                Ok(ms) => out.reference_ms.push(ms),
                Err(e) => out.problems.push(format!("reference pass: {e}")),
            }
        }
        lockstep.wait();
        out.attempted += 1;
        if broken {
            // Keep meeting the other connections at the barrier, but a
            // broken connection answers nothing: every op fails.
            out.failed += 1;
            continue;
        }
        let op = generator.op(Phase::Timed, conn, index);
        out.request_lines += op.lines.len() as u64;
        out.request_bytes += op.lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        let begin = Instant::now();
        let answers = exchange(client, &op);
        let latency = begin.elapsed();
        let answers = match answers {
            Ok(answers) => answers,
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("conn {conn} op {index}: {e}"));
                broken = true;
                continue;
            }
        };
        out.latencies_ms.push(latency.as_secs_f64() * 1e3);
        out.last_end = Some(begin + latency);
        let mut ok = true;
        for (response, line) in answers.iter().zip(&op.lines) {
            ok &= answer_shape_ok(response, line);
            let counter = |key: &str| response.number(&["stats", key]).unwrap_or(0.0) as u64;
            out.cache_hits += counter("cache_hits");
            out.cache_misses += counter("cache_misses");
            out.engine_wall_ns += counter("wall_ns");
        }
        if !ok {
            out.failed += 1;
            out.problems.push(format!(
                "conn {conn} op {index}: unexpected answer {}",
                &answers[0].line[..answers[0].line.len().min(160)]
            ));
        }
        let keep = sampled.contains(&index);
        if keep || replay.is_some() {
            let lines: Vec<String> = answers.into_iter().map(|r| r.line).collect();
            if let Some((replayer, tracer)) = replay.as_mut() {
                let op_id = ((conn as u64) << 32) | index;
                if let Err(e) = replayer.replay(tracer, op_id, &op.lines, &lines) {
                    out.problems.push(format!("replay of op {index}: {e}"));
                }
            }
            if keep {
                out.samples.push(Sample { op, answers: lines });
            }
        }
    }
    if let Some((_, tracer)) = replay {
        out.spans = tracer.into_spans();
    }
    out
}

/// Reads the connection and engine blocks of one `stats` answer.
fn read_stats(client: &mut Client, id: &str, into: &mut ConnCounters) -> Result<String, String> {
    let stats = client.stats(id).map_err(|e| e.to_string())?;
    let conn = |key: &str| stats.number(&["stats", "conn", key]).unwrap_or(0.0) as u64;
    // The stats request line is itself read (and counted) before the
    // snapshot is taken; its answer is written after.
    let stats_line_bytes = format!(
        "{{\"v\":{},\"id\":\"{id}\",\"stats\":true}}",
        zeroconf_engine::wire::WIRE_VERSION
    )
    .len() as u64
        + 1;
    into.bytes_in += conn("bytes_in").saturating_sub(stats_line_bytes);
    into.bytes_out += conn("bytes_out");
    into.queue_ns += conn("queue_ns_total");
    into.service_ns += conn("service_ns_total");
    let backend = |key: &str| match stats.member(&["stats", "engine", key]) {
        Some(Json::Str(s)) => s.clone(),
        _ => "?".to_owned(),
    };
    Ok(format!(
        "kernel_backend={} dist_backend={}",
        backend("kernel_backend"),
        backend("dist_backend")
    ))
}

/// Runs the timed ops on a started daemon, then collects its counters,
/// drains it and checks the sampled answers.
fn timed_pass(
    generator: Generator,
    workload: Workload,
    seed: u64,
    ops_per_conn: u64,
    started: (Daemon, f64, Vec<Sample>),
    traced: bool,
    oracle: &Oracle,
) -> Result<Pass, String> {
    let (daemon, _, warmups) = started;
    let conns = workload.connections();
    let replay_engine = if traced {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let mut absorber = Replayer::new(Arc::clone(&engine));
        for warm in &warmups {
            absorber.absorb(&warm.op.lines, &warm.answers)?;
        }
        Some(engine)
    } else {
        None
    };
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        clients.push(daemon.connect()?);
    }
    let barrier = Arc::new(Barrier::new(conns + 1));
    let origin = Instant::now();
    let mut handles = Vec::with_capacity(conns);
    let lockstep = Arc::new(Barrier::new(conns));
    for (conn, mut client) in clients.into_iter().enumerate() {
        let barrier = Arc::clone(&barrier);
        let lockstep = Arc::clone(&lockstep);
        let sampled = sample_indices(seed, conn, ops_per_conn, ORACLE_SAMPLES / conns);
        let replay = replay_engine
            .as_ref()
            .map(|engine| (Replayer::new(Arc::clone(engine)), Tracer::new(origin)));
        handles.push(thread::spawn(move || {
            barrier.wait();
            let result = drive(
                conn,
                &mut client,
                generator,
                ops_per_conn,
                &sampled,
                &lockstep,
                replay,
            );
            (client, result)
        }));
    }
    let me = std::process::id();
    let cpu_before = (host::process_cpu_s(daemon.pid), host::process_cpu_s(me));
    let ticks_before = CpuTicks::now();
    barrier.wait();
    let begin = Instant::now();
    let mut finished = Vec::with_capacity(conns);
    for handle in handles {
        finished.push(handle.join().map_err(|_| "a generator thread panicked")?);
    }
    // The window ends with the last answer, not with the thread joins.
    let last_end = finished
        .iter()
        .filter_map(|(_, r)| r.last_end)
        .max()
        .unwrap_or(begin);
    let wall_s = last_end.duration_since(begin).as_secs_f64();
    let ticks_after = CpuTicks::now();
    let cpu_after = (host::process_cpu_s(daemon.pid), host::process_cpu_s(me));
    let rss_mib = host::peak_rss_mib(daemon.pid).ok_or("cannot read the daemon's VmHWM")?;
    let cpu = |before: Option<f64>, after: Option<f64>| match (before, after) {
        (Some(b), Some(a)) => Ok(a - b),
        _ => Err("cannot read process CPU time from /proc".to_owned()),
    };

    let mut counters = ConnCounters::default();
    let mut backends = String::new();
    let mut results = Vec::with_capacity(conns);
    for (conn, (mut client, result)) in finished.into_iter().enumerate() {
        backends = read_stats(&mut client, &format!("stats{conn}"), &mut counters)?;
        results.push(result);
    }
    let drain = daemon.shutdown()?;

    let mut problems = Vec::new();
    let timed_lines: u64 = results.iter().map(|r| r.request_lines).sum();
    // One warm-up connection, the timed connections, one stats line each.
    let expected_lines = warmup_lines(&warmups) + timed_lines + conns as u64;
    problems.extend(drain_problem(&drain, expected_lines, 1 + conns as u64));
    let request_bytes: u64 = results.iter().map(|r| r.request_bytes).sum();
    if counters.bytes_in != request_bytes {
        problems.push(format!(
            "daemon read {} request bytes, generator wrote {request_bytes}",
            counters.bytes_in
        ));
    }
    let mut checked_ops = 0;
    let mut compared_values = 0;
    let samples = warmups
        .iter()
        .chain(results.iter().flat_map(|r| r.samples.iter()));
    for sample in samples {
        match oracle.check_op(&sample.op.lines, &sample.answers) {
            Ok(n) => {
                checked_ops += 1;
                compared_values += n;
            }
            Err(e) => problems.push(format!("oracle: {e}")),
        }
    }
    let mut pass = Pass {
        ops: 0,
        latencies_ms: Vec::new(),
        reference_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s,
        daemon_cpu_s: cpu(cpu_before.0, cpu_after.0)?,
        // The reference passes ran on the generator's threads; their CPU
        // is not the client's.
        client_cpu_s: cpu(cpu_before.1, cpu_after.1)?
            - results.iter().flat_map(|r| &r.reference_ms).sum::<f64>() / 1e3,
        steal_pct: ticks_before.steal_pct_until(ticks_after),
        rss_mib,
        cache_hits: 0,
        cache_misses: 0,
        engine_wall_ns: 0,
        conn: counters,
        backends,
        spans: Vec::new(),
        problems,
        checked_ops,
        compared_values,
        drain,
    };
    for result in results {
        pass.ops += result.latencies_ms.len() as u64;
        pass.latencies_ms.extend(result.latencies_ms);
        pass.reference_ms.extend(result.reference_ms);
        pass.attempted += result.attempted;
        pass.failed += result.failed;
        pass.cache_hits += result.cache_hits;
        pass.cache_misses += result.cache_misses;
        pass.engine_wall_ns += result.engine_wall_ns;
        pass.spans.extend(result.spans);
        pass.problems.extend(result.problems);
    }
    let expected_misses = workload.expected_misses_per_op() * pass.ops;
    if pass.cache_misses != expected_misses {
        pass.problems.push(format!(
            "cache misses: {} over {} ops, expected {} per op",
            pass.cache_misses,
            pass.ops,
            workload.expected_misses_per_op()
        ));
    }
    Ok(pass)
}

/// Checks a drain summary: every line read was answered, none was
/// withdrawn, and the counts match what the generator sent.
fn drain_problem(drain: &DrainSummary, lines: u64, connections: u64) -> Option<String> {
    let expected = DrainSummary {
        connections,
        requests: lines,
        responses: lines,
        withdrawn: 0,
    };
    (*drain != expected).then(|| format!("drain summary {drain:?}, expected {expected:?}"))
}

/// One set-up measurement on a daemon that serves nothing else: start,
/// warm up, check the warm-up answers and the drain.
fn probe_start(
    generator: &Generator,
    workload: Workload,
    oracle: &Oracle,
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let (daemon, setup_s, warmups) = start(generator, workload)?;
    let drain = daemon.shutdown()?;
    problems.extend(drain_problem(&drain, warmup_lines(&warmups), 1));
    for warm in &warmups {
        if let Err(e) = oracle.check_op(&warm.op.lines, &warm.answers) {
            problems.push(format!("oracle (warm-up): {e}"));
        }
    }
    Ok(setup_s)
}

/// The full command: set-up starts, the timed pass, and with tracing the
/// traced pass; prints the context and the result line. Returns whether
/// every check held.
fn run(args: &Args) -> Result<bool, String> {
    fs::create_dir_all(RUN_DIR).map_err(|e| format!("creating {RUN_DIR}: {e}"))?;
    let keep_warm = keepwarm::KeepWarm::start()?;
    let workload = args.workload;
    let generator = Generator::new(workload, args.seed);
    let ops_per_conn = workload.ops_per_connection_second() * args.seconds;
    let oracle = Oracle::new();
    let mut problems = Vec::new();

    // Set-up: several fresh starts spread around the timed window, so
    // their median samples the host at two moments. One of them serves
    // the timed ops; the others are drained straight away.
    let extra = if args.trace { 0 } else { SETUP_STARTS - 1 };
    let mut setups = Vec::with_capacity(extra + 1);
    for _ in 0..extra / 2 {
        setups.push(probe_start(&generator, workload, &oracle, &mut problems)?);
    }
    let started = start(&generator, workload)?;
    setups.push(started.1);
    let config = started.0.config.clone();
    let plain = timed_pass(
        generator,
        workload,
        args.seed,
        ops_per_conn,
        started,
        false,
        &oracle,
    )?;
    problems.extend(plain.problems.iter().cloned());
    let host = HostSpeed::new(&plain.reference_ms);
    for _ in extra / 2..extra {
        setups.push(probe_start(&generator, workload, &oracle, &mut problems)?);
    }

    let traced = if args.trace {
        let started = start(&generator, workload)?;
        let pass = timed_pass(
            generator,
            workload,
            args.seed,
            ops_per_conn,
            started,
            true,
            &oracle,
        )?;
        problems.extend(pass.problems.iter().cloned());
        Some(pass)
    } else {
        None
    };

    print_context(
        args,
        &config,
        &keep_warm.status,
        &host,
        &plain,
        &setups,
        traced.as_ref(),
    );
    for problem in &problems {
        println!("problem: {problem}");
    }
    let attempted = plain.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed);
    let correct = problems.is_empty() && failed == 0;
    let metrics = match &traced {
        None => vec![
            ("latency_p50_ms", host.scale(plain.latency(0.5)), "ms"),
            ("cpu_ms_per_op", host.scale(plain.cpu_ms_per_op()), "ms"),
            ("setup_s", host.scale(stats::median(setups.as_slice())), "s"),
            ("rss_peak_mb", plain.rss_mib, "MiB"),
        ],
        Some(traced) => {
            let path = format!("{RUN_DIR}/spans-{}-{}.tsv", workload.name(), args.seed);
            let mut file = fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            trace::write_spans(&mut file, &traced.spans).map_err(|e| format!("{path}: {e}"))?;
            println!("spans: {} written to {path}", traced.spans.len());
            layer_metrics(&plain, traced)
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// Per-layer metrics: CPU per process from the untraced pass, everything
/// else from the traced pass (spans, answer stats, the `stats` verb).
fn layer_metrics(plain: &Pass, traced: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let ops = traced.ops_f();
    let self_ns = trace::self_times_ns(&traced.spans);
    let per_op_ms = |name: &str| {
        let total: i128 = traced
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(span, _)| span.name == name)
            .map(|(_, own)| *own)
            .sum();
        total as f64 / 1e6 / ops
    };
    let wire_parse = per_op_ms("wire.parse");
    let wire_serialize = per_op_ms("wire.serialize");
    let client_parse = per_op_ms("client.parse");
    let queue = traced.conn.queue_ns as f64 / 1e6 / ops;
    let service = traced.conn.service_ns as f64 / 1e6 / ops;
    let lookups = (traced.cache_hits + traced.cache_misses).max(1) as f64;
    let overhead_pct = (traced.latency(0.5) / plain.latency(0.5) - 1.0) * 100.0;
    vec![
        ("wire.serialize_ms", wire_serialize, "ms"),
        ("wire.parse_ms", wire_parse, "ms"),
        ("client.parse_ms", client_parse, "ms"),
        (
            "client.cpu_ms_per_op",
            plain.client_cpu_s * 1e3 / plain.ops_f(),
            "ms",
        ),
        (
            "serve.bytes_out_per_op",
            traced.conn.bytes_out as f64 / ops,
            "B",
        ),
        (
            "serve.bytes_in_per_op",
            traced.conn.bytes_in as f64 / ops,
            "B",
        ),
        (
            "serve.residual_ms",
            traced.mean_latency_ms() - wire_parse - wire_serialize - client_parse - queue - service,
            "ms",
        ),
        (
            "serve.cpu_ms_per_op",
            plain.daemon_cpu_s * 1e3 / plain.ops_f(),
            "ms",
        ),
        ("pipeline.queue_ms", queue, "ms"),
        ("pipeline.service_ms", service, "ms"),
        (
            "engine.wall_ms",
            traced.engine_wall_ns as f64 / 1e6 / ops,
            "ms",
        ),
        ("engine.evaluate_ms", per_op_ms("engine.evaluate"), "ms"),
        (
            "cache.misses_per_op",
            traced.cache_misses as f64 / ops,
            "count",
        ),
        (
            "cache.hit_ratio",
            traced.cache_hits as f64 / lookups,
            "ratio",
        ),
        ("kernel.pi_build_ms", per_op_ms("kernel.pi_build"), "ms"),
        ("dist.survival_ms", per_op_ms("dist.survival"), "ms"),
        ("kernel.eval_ms", per_op_ms("kernel.eval"), "ms"),
        ("param.build_ms", per_op_ms("param.build"), "ms"),
        ("param.scan_ms", per_op_ms("param.scan"), "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn print_context(
    args: &Args,
    config: &str,
    keep_warm: &str,
    host_speed: &HostSpeed,
    plain: &Pass,
    setups: &[f64],
    traced: Option<&Pass>,
) {
    let workload = args.workload;
    println!(
        "perfbench {} seed={} ops={} ({} connection(s) x {}) trace={}",
        workload.name(),
        args.seed,
        plain.ops,
        workload.connections(),
        plain.ops / workload.connections() as u64,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} cpu=\"{}\" simd={} steal={:.1}% {keep_warm}",
        host::nproc(),
        host::cpu_model(),
        zeroconf_simd::Backend::detect().name(),
        plain.steal_pct
    );
    println!("daemon: {config} {}", plain.backends);
    for (label, pass) in std::iter::once(("untraced", plain)).chain(traced.map(|t| ("traced", t))) {
        let sorted = stats::sorted(&pass.latencies_ms);
        let tail = stats::tail(&sorted, 10).map_or_else(
            || "tail: too few samples".to_owned(),
            |(label, value, beyond)| {
                format!("tail {label}={value:.3} ms ({beyond} samples beyond)")
            },
        );
        println!(
            "{label}: attempted={} failed={} wall={:.2}s steal={:.1}% throughput_ops_s={:.2} 1/s latency_ms p10={:.3} p50={:.3} p90={:.3} {tail}",
            pass.attempted,
            pass.failed,
            pass.wall_s,
            pass.steal_pct,
            pass.ops_f() / pass.wall_s,
            stats::percentile(&sorted, 0.1),
            stats::percentile(&sorted, 0.5),
            stats::percentile(&sorted, 0.9),
        );
        println!(
            "{label}: cpu daemon={:.3}s generator={:.3}s rss_peak={:.1} MiB; oracle {} op(s), {} values bit-identical; drain {} requests / {} responses",
            pass.daemon_cpu_s,
            pass.client_cpu_s,
            pass.rss_mib,
            pass.checked_ops,
            pass.compared_values,
            pass.drain.requests,
            pass.drain.responses
        );
    }
    let listed: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!(
        "setup_s: median {:.4} s of {} fresh starts, ms: [{}]",
        stats::median(setups),
        setups.len(),
        listed.join(", ")
    );
    println!(
        "reference: median {:.4} ms of {} passes (nominal {} ms); raw latency_p50_ms={:.4} cpu_ms_per_op={:.4} setup_s={:.5}",
        host_speed.reference_ms,
        host_speed.passes,
        reference::NOMINAL_MS,
        plain.latency(0.5),
        plain.cpu_ms_per_op(),
        stats::median(setups),
    );
}
