//! The three closed-loop workloads and their seeded request streams.
//!
//! Every op of a workload has the same shape, so per-op latency has a
//! single peak. The op at `(connection, index)` is a pure function of the
//! seed: its RNG is keyed on all three, so the stream does not depend on
//! thread timing or on how many ops ran before it. Lines are built with
//! [`WIRE_VERSION`] and [`VERB_FRONTIER`], never a literal version.

use zeroconf_engine::wire::{VERB_FRONTIER, WIRE_VERSION};
use zeroconf_rng::rngs::StdRng;
use zeroconf_rng::{Rng, SeedableRng};

/// Probe counts of a landscape sweep (`landscape-warm`, `rescore-session`).
pub const SWEEP_N_MAX: u32 = 16;
/// Listening periods of a landscape sweep.
pub const SWEEP_R_POINTS: usize = 100;
/// Probe counts of a `param-cold` frontier grid.
pub const FRONTIER_N_MAX: u32 = 64;
/// Listening periods of a `param-cold` frontier grid.
pub const FRONTIER_R_POINTS: usize = 400;
/// Values per frontier axis (16 × 16 parameter points).
pub const AXIS_POINTS: usize = 16;
/// Rescores per `rescore-session` session.
pub const RESCORES: usize = 4;

/// The reply-time distribution every `landscape-warm` sweep shares, so
/// every π-table after set-up is a cache hit.
const WARM_REPLY_TIME: (f64, f64, f64) = (1e-6, 10.0, 0.05);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense 16 × 100 sweeps on one fixed reply-time distribution: every
    /// π-table is warm, every landscape is computed and serialized afresh.
    LandscapeWarm,
    /// Inline 64 × 400 frontiers, each for a fresh reply-time
    /// distribution: 400 π-table misses per op, tiny answers.
    ParamCold,
    /// Sessions of six pipelined lines (cold sweep, four rescores, one
    /// frontier of the sweep) on two connections.
    RescoreSession,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::LandscapeWarm,
        Workload::ParamCold,
        Workload::RescoreSession,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LandscapeWarm => "landscape-warm",
            Workload::ParamCold => "param-cold",
            Workload::RescoreSession => "rescore-session",
        }
    }

    /// Client connections, one generator thread and one op in flight each.
    pub fn connections(self) -> usize {
        match self {
            Workload::LandscapeWarm | Workload::ParamCold => 1,
            Workload::RescoreSession => 2,
        }
    }

    /// Ops per connection per requested second. The op count of a run is
    /// this rate times `--seconds`: a fixed number of ops, the same on
    /// every commit, sized to take about `--seconds` on a 2-vCPU host.
    pub fn ops_per_connection_second(self) -> u64 {
        match self {
            Workload::LandscapeWarm => 160,
            Workload::ParamCold => 90,
            Workload::RescoreSession => 20,
        }
    }

    /// π-table cache misses one op implies: 0 (all warm), 400 (every
    /// table of the frontier grid) or 100 (the session's cold sweep).
    pub fn expected_misses_per_op(self) -> u64 {
        match self {
            Workload::LandscapeWarm => 0,
            Workload::ParamCold => FRONTIER_R_POINTS as u64,
            Workload::RescoreSession => SWEEP_R_POINTS as u64,
        }
    }
}

/// One op: the request lines written back-to-back, and their ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Request lines, without trailing newlines.
    pub lines: Vec<String>,
    /// The id of each line, in the same order.
    pub ids: Vec<String>,
}

/// Whether an op belongs to set-up or to the timed window; the two draw
/// from disjoint RNG streams and id spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up: one op per connection, sent before timing starts.
    Warmup,
    /// The timed window.
    Timed,
}

/// The seeded op source of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    workload: Workload,
    seed: u64,
}

impl Generator {
    /// A generator for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        Generator { workload, seed }
    }

    /// The op at `index` on connection `conn` in `phase`.
    pub fn op(&self, phase: Phase, conn: usize, index: u64) -> Op {
        let mut rng = self.rng(phase, conn, index);
        let prefix = match phase {
            Phase::Warmup => "u",
            Phase::Timed => "t",
        };
        let base_id = format!("{prefix}{conn}.{index}");
        match self.workload {
            Workload::LandscapeWarm => {
                let (loss, rate, delay) = WARM_REPLY_TIME;
                let scenario = scenario_json(&mut rng, &exponential_json(loss, rate, delay));
                single(sweep_line(&base_id, &scenario), base_id)
            }
            Workload::ParamCold => {
                let reply = fresh_reply_time(&mut rng);
                let scenario = scenario_json(&mut rng, &reply);
                let (x, y) = frontier_axes(&mut rng);
                let line = format!(
                    "{{\"v\":{WIRE_VERSION},\"id\":\"{base_id}\",\"scenario\":{scenario},\"grid\":{},\"{VERB_FRONTIER}\":{{\"x\":{x},\"y\":{y}}}}}",
                    grid_json(FRONTIER_N_MAX, 8.0, FRONTIER_R_POINTS)
                );
                single(line, base_id)
            }
            Workload::RescoreSession => {
                let reply = fresh_reply_time(&mut rng);
                let scenario = scenario_json(&mut rng, &reply);
                let mut op = single(sweep_line(&base_id, &scenario), base_id.clone());
                for j in 0..RESCORES {
                    let id = format!("{base_id}.r{j}");
                    let error_cost = log_uniform(&mut rng, 3.0, 18.0);
                    op.lines.push(format!(
                        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"rescore\":{{\"of\":\"{base_id}\",\"error_cost\":{error_cost:?}}}}}"
                    ));
                    op.ids.push(id);
                }
                let id = format!("{base_id}.f");
                let (x, y) = frontier_axes(&mut rng);
                op.lines.push(format!(
                    "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"{VERB_FRONTIER}\":{{\"of\":\"{base_id}\",\"x\":{x},\"y\":{y}}}}}"
                ));
                op.ids.push(id);
                op
            }
        }
    }

    /// The op's private RNG, keyed on seed, workload, phase, connection
    /// and index (SplitMix64 expansion decorrelates neighbouring keys).
    fn rng(&self, phase: Phase, conn: usize, index: u64) -> StdRng {
        let workload = self.workload as u64;
        let phase = phase as u64;
        let key = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (workload << 60)
            ^ (phase << 58)
            ^ ((conn as u64) << 48)
            ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        StdRng::seed_from_u64(key)
    }
}

fn single(line: String, id: String) -> Op {
    Op {
        lines: vec![line],
        ids: vec![id],
    }
}

fn sweep_line(id: &str, scenario: &str) -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"scenario\":{scenario},\"grid\":{}}}",
        grid_json(SWEEP_N_MAX, 4.0, SWEEP_R_POINTS)
    )
}

fn grid_json(n_max: u32, r_max: f64, points: usize) -> String {
    format!("{{\"n_max\":{n_max},\"r_min\":0.02,\"r_max\":{r_max:?},\"r_points\":{points}}}")
}

fn exponential_json(loss: f64, rate: f64, delay: f64) -> String {
    format!("{{\"kind\":\"exponential\",\"loss\":{loss:?},\"rate\":{rate:?},\"delay\":{delay:?}}}")
}

/// A fresh defective-exponential reply time: a new fingerprint per draw.
fn fresh_reply_time(rng: &mut StdRng) -> String {
    let loss = log_uniform(rng, -12.0, -3.0);
    let rate = rng.gen_range(2.0..20.0);
    let delay = rng.gen_range(0.0..0.5);
    exponential_json(loss, rate, delay)
}

/// Economics drawn per request: `q`, `c` and `E`, kept well inside the
/// range where every cost stays finite.
fn scenario_json(rng: &mut StdRng, reply_time: &str) -> String {
    let q = log_uniform(rng, -4.0, -1.0);
    let probe_cost = rng.gen_range(0.5..4.0);
    let error_cost = log_uniform(rng, 3.0, 18.0);
    format!(
        "{{\"q\":{q:?},\"probe_cost\":{probe_cost:?},\"error_cost\":{error_cost:?},\"reply_time\":{reply_time}}}"
    )
}

/// A 16 × 16 `(E, c)` parameter grid: log-spaced collision costs and
/// linearly spaced probe costs from seeded starting points.
fn frontier_axes(rng: &mut StdRng) -> (String, String) {
    let e0 = log_uniform(rng, 2.0, 4.0);
    let c0 = rng.gen_range(0.2..1.0);
    let errors: Vec<f64> = (0..AXIS_POINTS)
        .map(|k| e0 * 10f64.powf(0.75 * k as f64))
        .collect();
    let probes: Vec<f64> = (0..AXIS_POINTS)
        .map(|k| c0 * (1.0 + 0.5 * k as f64))
        .collect();
    (
        axis_json("error_cost", &errors),
        axis_json("probe_cost", &probes),
    )
}

fn axis_json(axis: &str, values: &[f64]) -> String {
    let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("{{\"axis\":\"{axis}\",\"values\":[{}]}}", values.join(","))
}

fn log_uniform(rng: &mut StdRng, lo_exp: f64, hi_exp: f64) -> f64 {
    10f64.powf(rng.gen_range(lo_exp..hi_exp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroconf_engine::wire::{parse_request_line, WireRequest, WorkTarget};

    fn stream(generator: &Generator, conn: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        for index in 0..50 {
            for line in generator.op(Phase::Timed, conn, index).lines {
                bytes.extend_from_slice(line.as_bytes());
                bytes.push(b'\n');
            }
        }
        bytes
    }

    #[test]
    fn one_seed_gives_byte_identical_streams() {
        for workload in Workload::ALL {
            let a = Generator::new(workload, 7);
            let b = Generator::new(workload, 7);
            for conn in 0..workload.connections() {
                assert_eq!(stream(&a, conn), stream(&b, conn), "{}", workload.name());
            }
            let other = Generator::new(workload, 8);
            assert_ne!(stream(&a, 0), stream(&other, 0), "{}", workload.name());
        }
    }

    #[test]
    fn phases_and_connections_draw_distinct_ops() {
        let g = Generator::new(Workload::RescoreSession, 1);
        assert_ne!(g.op(Phase::Timed, 0, 3), g.op(Phase::Timed, 1, 3));
        assert_ne!(g.op(Phase::Timed, 0, 3), g.op(Phase::Warmup, 0, 3));
    }

    #[test]
    fn every_line_decodes_with_the_declared_shape() {
        for workload in Workload::ALL {
            let op = Generator::new(workload, 3).op(Phase::Timed, 0, 0);
            assert_eq!(op.lines.len(), op.ids.len());
            for (line, id) in op.lines.iter().zip(&op.ids) {
                let request = parse_request_line(line).unwrap();
                match request {
                    WireRequest::Sweep { id: got, request } => {
                        assert_eq!(&got, id);
                        assert_eq!(request.grid.n_max, SWEEP_N_MAX);
                        assert_eq!(request.grid.r_values.len(), SWEEP_R_POINTS);
                    }
                    WireRequest::Rescore { of, .. } => assert_eq!(of, op.ids[0]),
                    WireRequest::Frontier { target, x, y, .. } => {
                        assert_eq!(x.values.len(), AXIS_POINTS);
                        assert_eq!(y.values.len(), AXIS_POINTS);
                        if let WorkTarget::Inline { grid, .. } = target {
                            assert_eq!(grid.n_max, FRONTIER_N_MAX);
                            assert_eq!(grid.r_values.len(), FRONTIER_R_POINTS);
                        }
                    }
                    other => panic!("unexpected request {other:?}"),
                }
            }
            let expected_lines = match workload {
                Workload::RescoreSession => 2 + RESCORES,
                _ => 1,
            };
            assert_eq!(op.lines.len(), expected_lines, "{}", workload.name());
        }
    }
}
