//! Command-line interface to the zeroconf cost model.
//!
//! The `zeroconf` binary exposes the reproduction's main workflows to the
//! shell:
//!
//! ```text
//! zeroconf cost      --hosts 1000 --loss 1e-15 --rate 10 --delay 1 \
//!                    --probe-cost 2 --error-cost 1e35 --probes 4 --listen 2
//! zeroconf optimize  <scenario flags>
//! zeroconf frontier  <scenario flags> [--budget 1e-40]
//! zeroconf calibrate <network flags> --target-probes 4 --target-listen 2
//! zeroconf simulate  <scenario flags> --probes 4 --listen 2 --trials 100000 --seed 7
//! zeroconf engine    [--cache N] [--inflight N] [--stats]
//!                    # JSON-lines on stdin/stdout
//! zeroconf serve     (--tcp ADDR | --unix PATH)... [--inflight N] [--max-conns N]
//!                    # socket daemon: many clients, one shared engine
//! zeroconf audit     [--deny-warnings] [--json] [--root PATH]
//! ```
//!
//! All commands share the scenario flags (`--hosts` or `--occupancy`,
//! `--probe-cost`, `--error-cost`, `--loss`, `--rate`, `--delay`). The
//! library half of the crate (this module) does the parsing and rendering
//! and is fully unit-tested; `main.rs` is a two-line shim.

#![forbid(unsafe_code)]

use std::sync::Arc;

use zeroconf_cost::calibrate::{self, CalibrateConfig};
use zeroconf_cost::metrics;
use zeroconf_cost::optimize::{self, OptimizeConfig};
use zeroconf_cost::tradeoff::{self, TradeoffConfig};
use zeroconf_cost::Scenario;
use zeroconf_dist::DefectiveExponential;
use zeroconf_engine::wire::WireResponse;
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::SeedableRng;
use zeroconf_sim::protocol::{self, ProtocolConfig};

/// A fatal CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError(message.into())
}

/// Flag multiset parsed from the raw arguments.
#[derive(Debug, Clone, Default)]
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| err(format!("expected a --flag, got '{flag}'")))?;
            let value = iter
                .next()
                .ok_or_else(|| err(format!("--{name} requires a value")))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str) -> Result<Option<f64>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<f64>()
                .map(Some)
                .map_err(|_| err(format!("--{name} expects a number, got '{raw}'"))),
        }
    }

    fn require(&self, name: &str) -> Result<f64, CliError> {
        self.number(name)?
            .ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    fn unknown_flags(&self, known: &[&str]) -> Vec<String> {
        self.pairs
            .iter()
            .filter(|(n, _)| !known.contains(&n.as_str()))
            .map(|(n, _)| format!("--{n}"))
            .collect()
    }
}

const SCENARIO_FLAGS: [&str; 7] = [
    "hosts",
    "occupancy",
    "probe-cost",
    "error-cost",
    "loss",
    "rate",
    "delay",
];

fn scenario_from(flags: &Flags) -> Result<Scenario, CliError> {
    let occupancy = match (flags.number("hosts")?, flags.number("occupancy")?) {
        (Some(hosts), None) => hosts / zeroconf_cost::ADDRESS_SPACE_SIZE as f64,
        (None, Some(q)) => q,
        (Some(_), Some(_)) => return Err(err("--hosts and --occupancy are mutually exclusive")),
        (None, None) => return Err(err("one of --hosts or --occupancy is required")),
    };
    let probe_cost = flags.require("probe-cost")?;
    let error_cost = flags.require("error-cost")?;
    let loss = flags.require("loss")?;
    let rate = flags.require("rate")?;
    let delay = flags.require("delay")?;
    let dist = DefectiveExponential::from_loss(loss, rate, delay)
        .map_err(|e| err(format!("invalid reply-time parameters: {e}")))?;
    Scenario::builder()
        .occupancy(occupancy)
        .probe_cost(probe_cost)
        .error_cost(error_cost)
        .reply_time(Arc::new(dist))
        .build()
        .map_err(|e| err(format!("invalid scenario: {e}")))
}

/// Executes a full command line (without the program name) and returns the
/// rendered output.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message for unknown commands,
/// malformed flags or failing computations.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args.split_first().ok_or_else(|| err(usage()))?;
    match command.as_str() {
        "cost" => cmd_cost(&Flags::parse(rest)?),
        "optimize" => cmd_optimize(&Flags::parse(rest)?),
        "frontier" => cmd_frontier(&Flags::parse(rest)?),
        "calibrate" => cmd_calibrate(&Flags::parse(rest)?),
        "simulate" => cmd_simulate(&Flags::parse(rest)?),
        "engine" => cmd_engine(rest),
        "serve" => cmd_serve(rest),
        "audit" => cmd_audit(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(err(format!("unknown command '{other}'\n{}", usage()))),
    }
}

/// Options of the `engine` subcommand.
#[derive(Debug, Clone)]
struct EngineOptions {
    cache_tables: usize,
    inflight: usize,
    emit_stats: bool,
}

/// The `engine` subcommand's bare switches and value flags.
const ENGINE_SWITCHES: [&str; 1] = ["stats"];
const ENGINE_VALUE_FLAGS: [&str; 2] = ["cache", "inflight"];

fn engine_options(args: &[String]) -> Result<EngineOptions, CliError> {
    // Unknown names are reported first: parsed as value flags, a stray
    // `--name` would be blamed for a missing value or swallow the next
    // flag as one.
    let mut unknown = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.strip_prefix("--") {
            Some(name) if ENGINE_VALUE_FLAGS.contains(&name) => {
                iter.next();
            }
            Some(name) if !ENGINE_SWITCHES.contains(&name) => unknown.push(arg.as_str()),
            _ => {}
        }
    }
    if !unknown.is_empty() {
        return Err(err(format!("unknown flags: {}", unknown.join(", "))));
    }
    // The switch takes no value; strip it before the value-flag parser.
    let emit_stats = args.iter().any(|a| a == "--stats");
    let positional: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--stats")
        .cloned()
        .collect();
    let flags = Flags::parse(&positional)?;
    let defaults = zeroconf_engine::EngineConfig::default();
    // The count flags are parsed as `zeroconf serve` parses them: a
    // positive integer, or the flag is refused.
    let count = |name: &str, default: usize| -> Result<usize, CliError> {
        flags.get(name).map_or(Ok(default), |raw| {
            zeroconf_serve::parse_count(name, raw).map_err(|e| err(e.0))
        })
    };
    Ok(EngineOptions {
        cache_tables: count("cache", defaults.cache_tables)?,
        inflight: count("inflight", 1)?,
        emit_stats,
    })
}

/// Runs a JSON-lines engine session over `input`, one response line per
/// request line (see [`zeroconf_engine::wire`] for the schema). Factored
/// off the stdin path so tests can drive it with strings.
///
/// Before each line, the session waits while `--inflight` requests are
/// unanswered, held-back dependents included. With `--inflight 1` (the
/// default) responses therefore come back in input order, one per line.
/// With `--inflight N > 1` up to `N` requests are pipelined and responses
/// arrive in **completion order**, keyed by their `id`.
///
/// # Errors
///
/// Returns [`CliError`] only for malformed *flags*; malformed request
/// lines become `{"error": …}` response lines and never end the session.
pub fn engine_process(input: &str, args: &[String]) -> Result<String, CliError> {
    let options = engine_options(args)?;
    let engine = zeroconf_engine::Engine::new(zeroconf_engine::EngineConfig {
        cache_tables: options.cache_tables,
        ..zeroconf_engine::EngineConfig::default()
    });
    let mut out = String::new();
    let push = |lines: Vec<String>, out: &mut String| {
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
    };
    let mut session = zeroconf_engine::wire::PipelinedSession::new(
        engine,
        zeroconf_engine::PipelineConfig::with_depth(options.inflight),
    );
    for line in input.lines() {
        while session.pending() >= options.inflight {
            let ready = session.next_responses();
            if ready.is_empty() {
                break;
            }
            push(ready.iter().map(WireResponse::to_line).collect(), &mut out);
        }
        push(session.submit_line(line), &mut out);
    }
    push(session.drain(), &mut out);
    if options.emit_stats {
        out.push_str(&session.stats_line());
        out.push('\n');
    }
    Ok(out)
}

fn cmd_engine(args: &[String]) -> Result<String, CliError> {
    // Validate flags before consuming stdin so flag errors are immediate.
    engine_options(args)?;
    let mut input = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut input)
        .map_err(|e| err(format!("reading stdin: {e}")))?;
    let mut out = engine_process(&input, args)?;
    // `main` prints with a trailing newline of its own.
    if out.ends_with('\n') {
        out.pop();
    }
    Ok(out)
}

/// The `serve` subcommand: the socket daemon, run in process. Blocks
/// until SIGTERM/SIGINT drains it; the returned summary is printed on
/// exit. Startup `listening <scheme:addr>` lines go to stdout directly
/// so clients can connect while the command is still running.
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let mut stdout = std::io::stdout();
    zeroconf_serve::run_cli(args, &mut stdout).map_err(|e| err(e.to_string()))
}

/// The `audit` subcommand: the workspace static-analysis gate, run in
/// process (the same engine as the standalone `zeroconf-audit` binary).
/// Findings come back as the error so the process exits non-zero.
fn cmd_audit(args: &[String]) -> Result<String, CliError> {
    let mut deny_warnings = false;
    let mut json = false;
    let mut root: Option<std::path::PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--json" => json = true,
            "--root" => {
                root = Some(std::path::PathBuf::from(
                    iter.next().ok_or_else(|| err("--root requires a path"))?,
                ));
            }
            other => return Err(err(format!("unknown audit flag '{other}'"))),
        }
    }
    let root = match root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| err(format!("cannot determine working directory: {e}")))?;
            zeroconf_audit::find_workspace_root(&cwd).map_err(|e| err(e.to_string()))?
        }
    };
    let report = zeroconf_audit::audit_workspace(&root).map_err(|e| err(e.to_string()))?;
    let rendered = if json {
        report.to_json()
    } else {
        report.to_text()
    };
    if report.fails(deny_warnings) {
        Err(CliError(rendered))
    } else {
        Ok(rendered)
    }
}

/// The usage text.
pub fn usage() -> String {
    "usage: zeroconf <command> [flags]\n\
     commands:\n\
     \u{20}  cost       evaluate C(n, r), E(n, r) and protocol metrics\n\
     \u{20}  optimize   find the cost-optimal (n, r)\n\
     \u{20}  frontier   print the cost/reliability Pareto frontier\n\
     \u{20}  calibrate  solve for (E, c) making a target (n, r) optimal\n\
     \u{20}  simulate   Monte-Carlo protocol runs with latency percentiles\n\
     \u{20}  engine     JSON-lines verbs on stdin/stdout: sweep, rescore,\n\
     \u{20}             calibrate and frontier over one warm statistic cache\n\
     \u{20}  serve      socket daemon: many clients, one shared engine and cache\n\
     \u{20}  audit      workspace static-analysis gate (unsafe, panics, invariants)\n\
     scenario flags (all commands):\n\
     \u{20}  --hosts N | --occupancy Q, --probe-cost C, --error-cost E,\n\
     \u{20}  --loss P, --rate LAMBDA, --delay D\n\
     command flags:\n\
     \u{20}  cost/simulate: --probes N --listen R\n\
     \u{20}  simulate: --trials K [--seed S]\n\
     \u{20}  frontier: [--budget P] [--n-max N]\n\
     \u{20}  calibrate: --target-probes N --target-listen R\n\
     \u{20}  optimize: [--n-max N] [--r-max R]\n\
     \u{20}  engine: [--cache TABLES] [--inflight N] [--stats]\n\
     \u{20}  serve: (--tcp ADDR | --unix PATH)... [--cache TABLES] [--inflight N]\n\
     \u{20}         [--max-conns N]\n\
     \u{20}  audit: [--deny-warnings] [--json] [--root PATH]\n\
     example:\n\
     \u{20}  zeroconf optimize --hosts 1000 --probe-cost 2 --error-cost 1e35 \\\n\
     \u{20}           --loss 1e-15 --rate 10 --delay 1"
        .to_owned()
}

fn check_unknown(flags: &Flags, extra: &[&str]) -> Result<(), CliError> {
    let mut known: Vec<&str> = SCENARIO_FLAGS.to_vec();
    known.extend_from_slice(extra);
    let unknown = flags.unknown_flags(&known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(err(format!("unknown flags: {}", unknown.join(", "))))
    }
}

fn cmd_cost(flags: &Flags) -> Result<String, CliError> {
    check_unknown(flags, &["probes", "listen"])?;
    let scenario = scenario_from(flags)?;
    let n = flags.require("probes")? as u32;
    let r = flags.require("listen")?;
    let cost = scenario.mean_cost(n, r).map_err(|e| err(e.to_string()))?;
    let risk = scenario
        .error_probability(n, r)
        .map_err(|e| err(e.to_string()))?;
    let m = metrics::protocol_metrics(&scenario, n, r).map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "configuration: n = {n}, r = {r}\n\
         mean total cost        C(n, r) = {cost:.6}\n\
         collision probability  E(n, r) = {risk:.6e}\n\
         expected attempts              = {:.6}\n\
         expected probes sent           = {:.6}\n\
         expected listening (s)         = {:.6}",
        m.expected_attempts, m.expected_probes, m.expected_listening_seconds
    ))
}

fn cmd_optimize(flags: &Flags) -> Result<String, CliError> {
    check_unknown(flags, &["n-max", "r-max"])?;
    let scenario = scenario_from(flags)?;
    let config = OptimizeConfig {
        n_max: flags.number("n-max")?.unwrap_or(16.0) as u32,
        r_max: flags.number("r-max")?.unwrap_or(60.0),
        grid_points: 500,
        ..OptimizeConfig::default()
    };
    let optimum = optimize::joint_optimum(&scenario, &config).map_err(|e| err(e.to_string()))?;
    let mut out = format!(
        "joint optimum: n = {}, r = {:.4}\n\
         cost at optimum          = {:.6}\n\
         collision probability    = {:.6e}\n\
         total listening time (s) = {:.4}\n\
         minimal useful probes ν  = {}\n\
         per-n optima:\n",
        optimum.n,
        optimum.r,
        optimum.cost,
        optimum.error_probability,
        optimum.n as f64 * optimum.r,
        scenario
            .nu_lower_bound()
            .map_or("-".to_owned(), |nu| nu.to_string()),
    );
    for o in &optimum.per_probe_count {
        out.push_str(&format!(
            "  n = {:>2}: r_opt = {:>8.4}, cost = {:.6}\n",
            o.n, o.r, o.cost
        ));
    }
    Ok(out)
}

fn cmd_frontier(flags: &Flags) -> Result<String, CliError> {
    check_unknown(flags, &["budget", "n-max"])?;
    let scenario = scenario_from(flags)?;
    let config = TradeoffConfig {
        n_max: flags.number("n-max")?.unwrap_or(10.0) as u32,
        ..TradeoffConfig::default()
    };
    let frontier = tradeoff::pareto_frontier(&scenario, &config).map_err(|e| err(e.to_string()))?;
    let mut out = format!(
        "{} Pareto-optimal configurations (cost ascending):\n{:>12} {:>4} {:>9} {:>14}\n",
        frontier.len(),
        "cost",
        "n",
        "r",
        "P(collision)"
    );
    for p in frontier.iter().step_by((frontier.len() / 20).max(1)) {
        out.push_str(&format!(
            "{:>12.4} {:>4} {:>9.3} {:>14.4e}\n",
            p.cost, p.n, p.r, p.error_probability
        ));
    }
    if let Some(budget) = flags.number("budget")? {
        match tradeoff::cheapest_within_error_budget(&scenario, &config, budget) {
            Ok(p) => out.push_str(&format!(
                "cheapest with P(collision) <= {budget:e}: n = {}, r = {:.4}, cost = {:.4}\n",
                p.n, p.r, p.cost
            )),
            Err(_) => out.push_str(&format!(
                "no configuration on the grid meets P(collision) <= {budget:e}\n"
            )),
        }
    }
    Ok(out)
}

fn cmd_calibrate(flags: &Flags) -> Result<String, CliError> {
    check_unknown(flags, &["target-probes", "target-listen", "r-max"])?;
    // For calibration the cost flags are the unknowns; require dummies to
    // be absent and build the scenario with placeholders.
    let mut base_flags = flags.clone();
    if flags.get("probe-cost").is_none() {
        base_flags.pairs.push(("probe-cost".into(), "1".into()));
    }
    if flags.get("error-cost").is_none() {
        base_flags.pairs.push(("error-cost".into(), "1".into()));
    }
    let scenario = scenario_from(&base_flags)?;
    let n = flags.require("target-probes")? as u32;
    let r = flags.require("target-listen")?;
    let config = CalibrateConfig {
        optimize: OptimizeConfig {
            r_max: flags.number("r-max")?.unwrap_or(30.0f64.max(10.0 * r)),
            grid_points: 400,
            n_max: 16,
            ..OptimizeConfig::default()
        },
        ..CalibrateConfig::default()
    };
    let result = calibrate::calibrate(&scenario, n, r, &config).map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "costs making (n = {n}, r = {r}) the joint optimum:\n\
         collision cost E = {:.6e}\n\
         probe postage  c = {:.6}\n\
         verification: calibrated scenario's optimum is n = {}, r = {:.4} \
         (on the n <-> n+1 boundary)",
        result.error_cost, result.probe_cost, result.verified_optimum.n, result.verified_optimum.r
    ))
}

fn cmd_simulate(flags: &Flags) -> Result<String, CliError> {
    check_unknown(flags, &["probes", "listen", "trials", "seed"])?;
    let scenario = scenario_from(flags)?;
    let n = flags.require("probes")? as u32;
    let r = flags.require("listen")?;
    let trials = flags.number("trials")?.unwrap_or(100_000.0) as u64;
    let seed = flags.number("seed")?.unwrap_or(2003.0) as u64;
    let config = ProtocolConfig::builder()
        .probes(n)
        .listen_period(r)
        .probe_cost(scenario.probe_cost())
        .error_cost(scenario.error_cost())
        .occupancy(scenario.occupancy())
        .reply_time(scenario.reply_time().clone())
        .build()
        .map_err(|e| err(e.to_string()))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let summary = protocol::run_many(&config, trials, &mut rng).map_err(|e| err(e.to_string()))?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut profile = protocol::latency_profile(&config, trials.min(100_000), &mut rng)
        .map_err(|e| err(e.to_string()))?;
    let exact = scenario.mean_cost(n, r).map_err(|e| err(e.to_string()))?;
    let (lo, hi) = summary.collision_interval_95();
    Ok(format!(
        "{trials} simulated runs (seed {seed}):\n\
         mean cost       = {:.6}  (model: {:.6})\n\
         collision rate  = {:.6e}  (Wilson 95%: [{:.3e}, {:.3e}])\n\
         mean attempts   = {:.4}\n\
         mean probes     = {:.4}\n\
         latency median  = {:.4} s\n\
         latency p95     = {:.4} s\n\
         latency p99     = {:.4} s",
        summary.cost.mean(),
        exact,
        summary.collision_rate(),
        lo,
        hi,
        summary.attempts.mean(),
        summary.probes_sent.mean(),
        profile.elapsed_seconds.median().unwrap_or(f64::NAN),
        profile.elapsed_seconds.p95().unwrap_or(f64::NAN),
        profile.elapsed_seconds.p99().unwrap_or(f64::NAN),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    const SCENARIO: &str = "--hosts 1000 --probe-cost 2 --error-cost 1e35 \
                            --loss 1e-15 --rate 10 --delay 1";

    #[test]
    fn help_prints_usage() {
        let out = run(&args("help")).unwrap();
        assert!(out.contains("usage"));
        assert!(out.contains("optimize"));
        assert!(out.contains("audit"));
    }

    #[test]
    fn audit_passes_on_the_workspace_tree() {
        let out = run(&args("audit --deny-warnings")).unwrap();
        assert!(out.contains("0 finding(s)"), "{out}");
    }

    #[test]
    fn audit_rejects_unknown_flags_and_missing_root_values() {
        let e = run(&args("audit --fix")).unwrap_err();
        assert!(e.0.contains("unknown audit flag"));
        let e = run(&args("audit --root")).unwrap_err();
        assert!(e.0.contains("--root requires a path"));
    }

    #[test]
    fn audit_json_renders_an_array() {
        let out = run(&args("audit --json")).unwrap();
        assert_eq!(out, "[]", "a clean tree renders an empty JSON array");
    }

    #[test]
    fn empty_invocation_shows_usage_error() {
        let e = run(&[]).unwrap_err();
        assert!(e.0.contains("usage"));
    }

    #[test]
    fn unknown_command_is_reported() {
        let e = run(&args("explode")).unwrap_err();
        assert!(e.0.contains("unknown command 'explode'"));
    }

    #[test]
    fn cost_command_evaluates_the_paper_configuration() {
        let out = run(&args(&format!("cost {SCENARIO} --probes 4 --listen 2"))).unwrap();
        assert!(out.contains("16.06"), "{out}");
        assert!(out.contains("e-50"), "{out}");
        assert!(out.contains("expected probes"));
    }

    #[test]
    fn optimize_command_finds_n_three() {
        let out = run(&args(&format!("optimize {SCENARIO}"))).unwrap();
        assert!(out.contains("n = 3"), "{out}");
        assert!(out.contains("ν  = 3") || out.contains("= 3"), "{out}");
        assert!(out.contains("per-n optima"));
    }

    #[test]
    fn frontier_command_lists_configurations() {
        let out = run(&args(&format!("frontier {SCENARIO} --budget 1e-40"))).unwrap();
        assert!(out.contains("Pareto-optimal"), "{out}");
        assert!(out.contains("cheapest with"), "{out}");
    }

    #[test]
    fn simulate_command_reports_percentiles() {
        let out = run(&args(
            "simulate --occupancy 0.3 --probe-cost 1.5 --error-cost 50 \
             --loss 0.2 --rate 3 --delay 0.2 --probes 3 --listen 0.8 \
             --trials 20000 --seed 5",
        ))
        .unwrap();
        assert!(out.contains("latency p95"), "{out}");
        assert!(out.contains("mean cost"), "{out}");
    }

    #[test]
    fn calibrate_command_reproduces_section_4_5_magnitudes() {
        let out = run(&args(
            "calibrate --hosts 1000 --loss 1e-5 --rate 10 --delay 1 \
             --target-probes 4 --target-listen 2",
        ))
        .unwrap();
        assert!(out.contains("e20"), "{out}");
    }

    const ENGINE_SWEEP: &str = "{\"id\":\"s1\",\"scenario\":{\"hosts\":1000,\"probe_cost\":2.0,\
        \"error_cost\":1e35,\"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-15,\
        \"rate\":10.0,\"delay\":1.0}},\"grid\":{\"n_max\":4,\"r\":[1.0,2.0,3.0]}}";

    #[test]
    fn engine_session_answers_sweeps_and_rescores() {
        let input = format!(
            "{ENGINE_SWEEP}\n{{\"id\":\"s2\",\"rescore\":{{\"of\":\"s1\",\"error_cost\":1e30}}}}\n"
        );
        let out = engine_process(&input, &args("--stats")).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].contains("\"id\":\"s1\""), "{}", lines[0]);
        assert!(lines[0].contains("\"cache_misses\":3"), "{}", lines[0]);
        assert!(lines[1].contains("\"cache_misses\":0"), "{}", lines[1]);
        assert!(lines[2].contains("\"requests\":2"), "{}", lines[2]);
        assert!(lines[2].contains("cells_per_worker"), "{}", lines[2]);
    }

    #[test]
    fn engine_pipelined_session_answers_every_id() {
        // Three sweeps through the pipelined path: every id answered
        // exactly once, stats carries the pipeline latency block.
        let input = format!(
            "{}\n{}\n{}\n",
            ENGINE_SWEEP,
            ENGINE_SWEEP.replace("\"id\":\"s1\"", "\"id\":\"s2\""),
            ENGINE_SWEEP.replace("\"id\":\"s1\"", "\"id\":\"s3\""),
        );
        let out = engine_process(&input, &args("--inflight 3 --stats")).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        for id in ["s1", "s2", "s3"] {
            let matching: Vec<&&str> = lines
                .iter()
                .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
                .collect();
            assert_eq!(matching.len(), 1, "one response for {id}: {out}");
            assert!(matching[0].contains("\"cells\""), "{}", matching[0]);
        }
        let stats = lines[3];
        assert!(stats.contains("\"pipeline\":{\"depth\":3"), "{stats}");
        assert!(stats.contains("\"submitted\":3"), "{stats}");
        assert!(stats.contains("service_ns_total"), "{stats}");
    }

    #[test]
    fn engine_answers_a_chain_deeper_than_inflight_once_per_id() {
        // A sweep, three rescores and a frontier of it, then a second
        // sweep. At `--inflight 2` the dependents wait behind their base
        // and count toward the bound; every id is answered once.
        let rescore = |id: &str, error_cost: f64| {
            format!(
                "{{\"id\":\"{id}\",\"rescore\":{{\"of\":\"s1\",\"error_cost\":{error_cost:?}}}}}"
            )
        };
        let input = [
            ENGINE_SWEEP.to_owned(),
            rescore("r1", 1e30),
            rescore("r2", 1e25),
            rescore("r3", 1e20),
            "{\"id\":\"f1\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"error_cost\",\"values\":[1e20,1e35]},\
             \"y\":{\"axis\":\"probe_cost\",\"values\":[1.0,2.0]}}}"
                .to_owned(),
            ENGINE_SWEEP.replace("\"id\":\"s1\"", "\"id\":\"s2\""),
        ]
        .join("\n");
        let out = engine_process(&input, &args("--inflight 2 --stats")).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 7, "{out}");
        for id in ["s1", "r1", "r2", "r3", "f1", "s2"] {
            let answers: Vec<&&str> = lines
                .iter()
                .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
                .collect();
            assert_eq!(answers.len(), 1, "one response for {id}: {out}");
            assert!(!answers[0].contains("\"error\""), "{}", answers[0]);
        }
        assert!(lines[6].contains("\"submitted\":6"), "{}", lines[6]);
    }

    #[test]
    fn engine_pipelined_path_matches_blocking_path() {
        // The pipelined codec must not change a single byte of a
        // response body — only the measured wall time may differ.
        fn blank_wall_ns(out: &str) -> String {
            let mut out = out.to_owned();
            let mut from = 0;
            while let Some(hit) = out[from..].find("\"wall_ns\":") {
                let digits = from + hit + "\"wall_ns\":".len();
                let end = out[digits..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(out.len(), |k| digits + k);
                out.replace_range(digits..end, "_");
                from = digits;
            }
            out
        }
        let serial = engine_process(ENGINE_SWEEP, &[]).unwrap();
        let pipelined = engine_process(ENGINE_SWEEP, &args("--inflight 4")).unwrap();
        assert_eq!(blank_wall_ns(&serial), blank_wall_ns(&pipelined));
    }

    #[test]
    fn engine_bad_lines_become_error_responses() {
        let out = engine_process("garbage\n", &[]).unwrap();
        assert!(out.contains("\"error\""), "{out}");
    }

    #[test]
    fn engine_rejects_unknown_flags() {
        // `--mmap` and `--cache-dir` are not flags: π-tables live in the
        // in-memory cache only. Nor is `--kernel`: the engine runs the
        // CPU's widest tier. Nor is `--workers`: a sweep runs on the
        // thread that runs its request.
        for flag in ["--bogus", "--mmap", "--cache-dir", "--kernel", "--workers"] {
            let e = engine_process("", &args(&format!("{flag} 1"))).unwrap_err();
            assert!(e.0.contains(flag), "{}", e.0);
        }
    }

    #[test]
    fn engine_count_flags_take_positive_integers_only() {
        // Parsed, never run: no engine is built for these values.
        let options = engine_options(&args("--cache 64 --inflight 2")).unwrap();
        assert_eq!((options.cache_tables, options.inflight), (64, 2));
        for name in ["cache", "inflight"] {
            for raw in ["0", "-3", "nan", "2.5", "1e20"] {
                let e = engine_options(&args(&format!("--{name} {raw}"))).unwrap_err();
                assert_eq!(
                    e.0,
                    format!("--{name} expects a positive integer, got '{raw}'")
                );
            }
        }
    }

    #[test]
    fn engine_reports_unknown_flags_before_reading_values() {
        for line in [
            "--bogus",
            "--bogus --cache 2",
            "--cache 2 --bogus",
            "--stats --bogus",
        ] {
            let e = engine_process("", &args(line)).unwrap_err();
            assert_eq!(e.0, "unknown flags: --bogus", "{line}");
        }
        let e = engine_process("", &args("--bogus --cache 2 --junk")).unwrap_err();
        assert_eq!(e.0, "unknown flags: --bogus, --junk");
        // A known flag is still held to its value.
        let e = engine_process("", &args("--cache")).unwrap_err();
        assert!(e.0.contains("--cache requires a value"), "{}", e.0);
    }

    #[test]
    fn engine_matches_cost_command_numbers() {
        // The wire mean_cost for (n = 4, r = 2) must round to the 16.06…
        // the `cost` command prints for the same paper scenario.
        let out = engine_process(ENGINE_SWEEP, &[]).unwrap();
        let direct = run(&args(&format!("cost {SCENARIO} --probes 4 --listen 2"))).unwrap();
        assert!(direct.contains("16.06"), "{direct}");
        assert!(
            out.contains("\"n\":4,\"r\":2.0,\"mean_cost\":16.06"),
            "{out}"
        );
    }

    #[test]
    fn missing_required_flags_are_reported() {
        let e = run(&args("cost --hosts 1000")).unwrap_err();
        assert!(e.0.contains("missing required flag"), "{}", e.0);
        let e = run(&args(&format!("cost {SCENARIO}"))).unwrap_err();
        assert!(
            e.0.contains("--probes") || e.0.contains("probes"),
            "{}",
            e.0
        );
    }

    #[test]
    fn malformed_flags_are_reported() {
        let e = run(&args("cost --hosts")).unwrap_err();
        assert!(e.0.contains("requires a value"));
        let e = run(&args("cost hosts 1000")).unwrap_err();
        assert!(e.0.contains("expected a --flag"));
        let e = run(&args("cost --hosts abc")).unwrap_err();
        assert!(e.0.contains("expects a number"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let e = run(&args(&format!(
            "cost {SCENARIO} --probes 4 --listen 2 --bogus 1"
        )))
        .unwrap_err();
        assert!(e.0.contains("--bogus"), "{}", e.0);
    }

    #[test]
    fn hosts_and_occupancy_conflict() {
        let e = run(&args(
            "cost --hosts 10 --occupancy 0.5 --probe-cost 1 --error-cost 1 \
             --loss 0.1 --rate 1 --delay 0 --probes 1 --listen 1",
        ))
        .unwrap_err();
        assert!(e.0.contains("mutually exclusive"));
    }

    #[test]
    fn occupancy_flag_works_without_hosts() {
        let out = run(&args(
            "cost --occupancy 0.3 --probe-cost 1.5 --error-cost 50 \
             --loss 0.2 --rate 3 --delay 0.2 --probes 3 --listen 0.8",
        ))
        .unwrap();
        assert!(out.contains("8.53"), "{out}");
    }
}
