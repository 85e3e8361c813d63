//! The traced run: spans recorded around outside-in replays of each op
//! through the layers' public functions.
//!
//! After an op's answers arrive (outside its latency window) the
//! generator replays the op on identical input: the daemon-side request
//! parse, the engine call on an in-process engine in the same cache state,
//! the kernel, distribution and parametric passes the engine runs inside,
//! the response serialization and the client-side parse. Each call is one
//! span; spans are kept in memory and written out when the run ends.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use zeroconf_cost::kernel::{ColumnBlockKernel, Mode, PiTableBlock, ScenarioFactors};
use zeroconf_cost::param::ParamLandscape;
use zeroconf_engine::wire::{parse_request_line, WireRequest, WireResponse, WorkTarget};
use zeroconf_engine::{Engine, FrontierRequest, GridSpec, SweepRequest};
use zeroconf_simd::Backend;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`wire.parse`, `kernel.pi_build`, …).
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Spans nest by enclosure: a span opened
/// while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its children's durations.
/// Children are enclosed in their parent, so the value is never negative
/// for spans a [`Tracer`] recorded; it is returned signed so a caller can
/// verify that.
pub fn self_times_ns(spans: &[Span]) -> Vec<i128> {
    let mut out: Vec<i128> = spans.iter().map(|s| i128::from(s.duration_ns())).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            out[parent] -= i128::from(span.duration_ns());
        }
    }
    out
}

/// Writes spans as tab-separated `op name parent start_ns end_ns self_ns`.
pub fn write_spans(out: &mut dyn Write, spans: &[Span]) -> io::Result<()> {
    let self_ns = self_times_ns(spans);
    writeln!(out, "op\tname\tparent\tstart_ns\tend_ns\tself_ns")?;
    for (span, own) in spans.iter().zip(self_ns) {
        let parent = span
            .parent
            .map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}\t{own}",
            span.op, span.name, span.start_ns, span.end_ns
        )?;
    }
    Ok(())
}

/// The π-tables the replayer last built, keyed like the engine's cache.
struct Tables {
    fingerprint: u64,
    grid: GridSpec,
    block: PiTableBlock,
}

/// Replays ops of one connection through the layers' public functions.
pub struct Replayer {
    engine: Arc<Engine>,
    backend: Backend,
    /// Completed sweeps by wire id, as the daemon's session keeps them.
    sweeps: HashMap<String, SweepRequest>,
    tables: Option<Tables>,
}

impl Replayer {
    /// A replayer over a shared in-process `engine` that has seen the
    /// same requests as the daemon, in the same order.
    pub fn new(engine: Arc<Engine>) -> Replayer {
        Replayer {
            engine,
            backend: zeroconf_simd::KernelChoice::Auto.resolve(),
            sweeps: HashMap::new(),
            tables: None,
        }
    }

    /// Replays op `op` — its request `lines` and the daemon's `answers`
    /// (any order) — recording one span per public-function call under a
    /// root `replay` span.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        lines: &[String],
        answers: &[String],
    ) -> Result<(), String> {
        tracer.span("replay", op, |t| {
            for line in lines {
                self.replay_line(t, op, line, answers)?;
            }
            Ok(())
        })
    }

    fn replay_line(
        &mut self,
        t: &mut Tracer,
        op: u64,
        line: &str,
        answers: &[String],
    ) -> Result<(), String> {
        let request = t
            .span("wire.parse", op, |_| parse_request_line(line))
            .map_err(|e| e.to_string())?;
        match request {
            WireRequest::Sweep { id, request } => {
                let response = t
                    .span("engine.evaluate", op, |_| self.engine.evaluate(&request))
                    .map_err(|e| e.to_string())?;
                self.kernel_pass(t, op, &request, response.stats.cache_misses > 0, false)?;
                let wire = WireResponse::Sweep {
                    id: id.clone(),
                    response,
                };
                t.span("wire.serialize", op, |_| {
                    std::hint::black_box(wire.to_line())
                });
                self.sweeps.insert(id.clone(), request);
                client_parse(t, op, &id, answers)
            }
            WireRequest::Rescore { id, of, delta } => {
                let base = self
                    .sweeps
                    .get(&of)
                    .ok_or_else(|| format!("rescore of unknown sweep `{of}`"))?
                    .clone();
                let (rescored, response) = t
                    .span("engine.evaluate", op, |_| {
                        self.engine.rescore(&base, &delta)
                    })
                    .map_err(|e| e.to_string())?;
                self.kernel_pass(t, op, &rescored, response.stats.cache_misses > 0, false)?;
                let wire = WireResponse::Sweep {
                    id: id.clone(),
                    response,
                };
                t.span("wire.serialize", op, |_| {
                    std::hint::black_box(wire.to_line())
                });
                self.sweeps.insert(id.clone(), rescored);
                client_parse(t, op, &id, answers)
            }
            WireRequest::Frontier { id, target, x, y } => {
                let (scenario, grid) = match target {
                    WorkTarget::Inline { scenario, grid } => (scenario, grid),
                    WorkTarget::Base(of) => {
                        let base = self
                            .sweeps
                            .get(&of)
                            .ok_or_else(|| format!("frontier of unknown sweep `{of}`"))?;
                        (base.scenario.clone(), base.grid.clone())
                    }
                };
                let request = FrontierRequest {
                    scenario,
                    grid,
                    x,
                    y,
                };
                let response = t
                    .span("engine.evaluate", op, |_| self.engine.frontier(&request))
                    .map_err(|e| e.to_string())?;
                // A statistic served from the engine's single slot reports
                // no cells; a rebuilt one reports the whole grid.
                let rebuilt = response.stats.cells > 0;
                let sweep = SweepRequest {
                    scenario: request.scenario.clone(),
                    grid: request.grid.clone(),
                    metrics: Vec::new(),
                };
                self.kernel_pass(t, op, &sweep, response.stats.cache_misses > 0, true)?;
                let landscape = self.statistic(t, op, &sweep, rebuilt)?;
                let scenario = &request.scenario;
                t.span("param.scan", op, |_| -> Result<(), String> {
                    for &xv in &request.x.values {
                        let on_x = request
                            .x
                            .axis
                            .apply(scenario, xv)
                            .map_err(|e| e.to_string())?;
                        for &yv in &request.y.values {
                            let varied =
                                request.y.axis.apply(&on_x, yv).map_err(|e| e.to_string())?;
                            let factors = ScenarioFactors::new(&varied);
                            std::hint::black_box(
                                landscape.min_cost_cell_with(&factors, self.backend),
                            );
                        }
                    }
                    Ok(())
                })?;
                let wire = WireResponse::Frontier {
                    id: id.clone(),
                    response,
                };
                t.span("wire.serialize", op, |_| {
                    std::hint::black_box(wire.to_line())
                });
                client_parse(t, op, &id, answers)
            }
            other => Err(format!("unexpected request {other:?}")),
        }
    }

    /// The π-tables of `request`'s grid: rebuilt under `kernel.pi_build`
    /// (with the same survival evaluations replayed under
    /// `dist.survival`) when the engine missed, reused otherwise. Sweeps
    /// then run the cost/error pass under `kernel.eval`.
    fn kernel_pass(
        &mut self,
        t: &mut Tracer,
        op: u64,
        request: &SweepRequest,
        missed: bool,
        statistic_only: bool,
    ) -> Result<(), String> {
        let scenario = &request.scenario;
        let grid = &request.grid;
        let fingerprint = scenario.reply_time().fingerprint();
        let block = ColumnBlockKernel::with_backend(scenario, self.backend, Mode::Exact);
        let cached = self
            .tables
            .as_ref()
            .is_some_and(|c| c.fingerprint == fingerprint && c.grid == *grid);
        if missed || !cached {
            let build = |_: &mut Tracer| block.pi_table_block(grid.n_max, &grid.r_values);
            let tables = if missed {
                let tables = t.span("kernel.pi_build", op, build);
                let tables = tables.map_err(|e| e.to_string())?;
                let mut times = survival_points(&tables, grid);
                let dist = scenario.reply_time();
                t.span("dist.survival", op, |_| {
                    dist.survival_batch_with(self.backend, &mut times)
                });
                tables
            } else {
                build(t).map_err(|e| e.to_string())?
            };
            self.tables = Some(Tables {
                fingerprint,
                grid: grid.clone(),
                block: tables,
            });
        }
        if statistic_only {
            return Ok(());
        }
        let tables = self.tables.as_ref().ok_or("no π-tables")?;
        let cells = grid.cells();
        let mut costs = vec![0.0; cells];
        let mut errors = vec![0.0; cells];
        let views = tables.block.views();
        t.span("kernel.eval", op, |_| {
            block.evaluate(
                grid.n_max,
                &grid.r_values,
                &views,
                Some(&mut costs),
                Some(&mut errors),
            )
        })
        .map_err(|e| e.to_string())
    }

    /// The sufficient-statistic landscape over the current π-tables,
    /// timed under `param.build` when the engine rebuilt it.
    fn statistic(
        &self,
        t: &mut Tracer,
        op: u64,
        request: &SweepRequest,
        rebuilt: bool,
    ) -> Result<ParamLandscape, String> {
        let tables = self.tables.as_ref().ok_or("no π-tables")?;
        let grid = &request.grid;
        let block = ColumnBlockKernel::with_backend(&request.scenario, self.backend, Mode::Exact);
        let views = tables.block.views();
        let build = |_: &mut Tracer| -> Result<ParamLandscape, String> {
            let cells = grid.cells();
            let mut pi_prefix = vec![0.0; cells];
            let mut pi_n = vec![0.0; cells];
            block
                .evaluate_with_statistic(
                    grid.n_max,
                    &grid.r_values,
                    &views,
                    None,
                    None,
                    Some(&mut pi_prefix),
                    Some(&mut pi_n),
                )
                .map_err(|e| e.to_string())?;
            Ok(ParamLandscape::from_parts(
                grid.n_max,
                grid.r_values.clone(),
                pi_prefix,
                pi_n,
            ))
        };
        if rebuilt {
            t.span("param.build", op, build)
        } else {
            build(t)
        }
    }

    /// Replays an op untraced, only to bring the replayer's session and
    /// table state level with the daemon's (used for warm-up ops).
    pub fn absorb(&mut self, lines: &[String], answers: &[String]) -> Result<(), String> {
        let mut scratch = Tracer::new(Instant::now());
        self.replay(&mut scratch, u64::MAX, lines, answers)
    }
}

/// Times `zeroconf_client::parse_json` on the daemon's answer to `id`.
fn client_parse(t: &mut Tracer, op: u64, id: &str, answers: &[String]) -> Result<(), String> {
    // Answers open with `{"v":…,"id":"…"`; look only there, not through
    // a whole landscape.
    let needle = format!("\"id\":\"{id}\"");
    let answer = answers
        .iter()
        .find(|a| a[..a.len().min(64)].contains(&needle))
        .ok_or_else(|| format!("no answer for `{id}`"))?;
    t.span("client.parse", op, |_| zeroconf_client::parse_json(answer))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// The exact reply times the blocked π build evaluates: rounds are
/// consumed eight at a time, and a column stays active while its last
/// entry of the previous chunk is nonzero (the zero-tail cutoff).
pub fn survival_points(tables: &PiTableBlock, grid: &GridSpec) -> Vec<f64> {
    const ROUND_CHUNK: usize = 8;
    let n = grid.n_max as usize;
    let mut times = Vec::new();
    let mut first = 1;
    while first <= n {
        let rounds = ROUND_CHUNK.min(n - first + 1);
        for (j, &r) in grid.r_values.iter().enumerate() {
            if first == 1 || tables.column(j)[first - 1] != 0.0 {
                times.extend((0..rounds).map(|k| (first + k) as f64 * r));
            }
        }
        first += rounds;
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Generator, Phase, Workload};
    use zeroconf_engine::wire::PipelinedSession;
    use zeroconf_engine::{EngineConfig, PipelineConfig};
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::{Rng, SeedableRng};

    /// Opens a random tree of nested spans around a little real work.
    fn grow(t: &mut Tracer, rng: &mut StdRng, depth: u32) {
        let children = if depth == 0 {
            0
        } else {
            rng.gen_range(0..4u32)
        };
        for _ in 0..children {
            t.span("child", 1, |t| {
                std::hint::black_box((0..rng.gen_range(0..2000u64)).sum::<u64>());
                grow(t, rng, depth - 1);
            });
        }
    }

    #[test]
    fn span_self_times_are_never_negative() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let mut t = Tracer::new(Instant::now());
            t.span("root", 1, |t| grow(t, &mut rng, 4));
            let spans = t.into_spans();
            let own = self_times_ns(&spans);
            assert!(own.iter().all(|&s| s >= 0), "{own:?}");
            let total: i128 = own.iter().sum();
            assert_eq!(total, i128::from(spans[0].duration_ns()));
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: "a",
                op: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "b",
                op: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 60,
            },
            Span {
                name: "c",
                op: 0,
                parent: Some(1),
                start_ns: 20,
                end_ns: 50,
            },
            Span {
                name: "d",
                op: 0,
                parent: Some(0),
                start_ns: 70,
                end_ns: 90,
            },
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn survival_points_stop_at_the_zero_tail() {
        let op = Generator::new(Workload::ParamCold, 4).op(Phase::Timed, 0, 0);
        let Ok(WireRequest::Frontier {
            target: WorkTarget::Inline { scenario, grid },
            ..
        }) = parse_request_line(&op.lines[0])
        else {
            panic!("param-cold ops are inline frontiers");
        };
        let tables = ColumnBlockKernel::new(&scenario)
            .pi_table_block(grid.n_max, &grid.r_values)
            .unwrap();
        let times = survival_points(&tables, &grid);
        assert!(!times.is_empty());
        assert!(times.len() <= grid.cells());
        assert_eq!(times.len() % 8, 0);
    }

    #[test]
    fn replay_records_every_layer_of_a_session() {
        let op = Generator::new(Workload::RescoreSession, 6).op(Phase::Timed, 0, 0);
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut session = PipelinedSession::new(engine, PipelineConfig::with_depth(2));
        let mut answers = Vec::new();
        for line in &op.lines {
            answers.extend(session.submit_line(line));
        }
        answers.extend(session.drain());
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        }));
        let mut replayer = Replayer::new(engine);
        let mut t = Tracer::new(Instant::now());
        replayer.replay(&mut t, 0, &op.lines, &answers).unwrap();
        let spans = t.into_spans();
        for name in [
            "replay",
            "wire.parse",
            "engine.evaluate",
            "kernel.pi_build",
            "dist.survival",
            "kernel.eval",
            "param.build",
            "param.scan",
            "wire.serialize",
            "client.parse",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "missing {name}");
        }
        assert!(self_times_ns(&spans).iter().all(|&s| s >= 0));
    }
}
