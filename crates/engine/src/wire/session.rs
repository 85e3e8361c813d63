use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::BuildHasher;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use super::decode::{decode_line, WireRequest, WorkTarget};
use super::encode::{error_line, invalid, WireResponse};
use super::json::parse_request_json;
use super::MAX_RETAINED_BASE_BYTES;
use crate::pipeline::{
    Completion, CompletionNotifier, ExecutorTeam, PipelineConfig, PipelineStats, RequestId, Ticket,
};
use crate::request::{WorkRequest, RETAINED_BASE_OVERHEAD};
use crate::{
    AxisSpec, CalibrateRequest, CancelToken, Engine, EngineError, FrontierRequest, RescoreDelta,
    SweepRequest,
};

// ---------------------------------------------------------------------------
// Sessions: JSON-lines codecs over the executor team
// ---------------------------------------------------------------------------

/// Work held back because its base sweep is still in flight: everything
/// needed to build the real [`WorkRequest`] once the base's scenario and
/// grid become available.
enum PendingWork {
    /// A rescore's economic delta.
    Rescore(RescoreDelta),
    /// A calibration's target configuration.
    Calibrate {
        /// Target probe count.
        n: u32,
        /// Target listening period.
        r: f64,
    },
    /// A frontier's parameter axes.
    Frontier {
        /// The first varied parameter.
        x: AxisSpec,
        /// The second varied parameter.
        y: AxisSpec,
    },
}

impl PendingWork {
    /// Builds the concrete request against the completed base sweep.
    fn into_request(self, base: &SweepRequest) -> Result<WorkRequest, EngineError> {
        match self {
            PendingWork::Rescore(delta) => {
                let scenario = delta.apply(&base.scenario)?;
                Ok(WorkRequest::Sweep(SweepRequest {
                    scenario,
                    grid: base.grid.clone(),
                    metrics: base.metrics.clone(),
                }))
            }
            PendingWork::Calibrate { n, r } => Ok(WorkRequest::Calibrate(CalibrateRequest {
                scenario: base.scenario.clone(),
                grid: base.grid.clone(),
                target_n: n,
                target_r: r,
            })),
            PendingWork::Frontier { x, y } => Ok(WorkRequest::Frontier(FrontierRequest {
                scenario: base.scenario.clone(),
                grid: base.grid.clone(),
                x,
                y,
            })),
        }
    }
}

/// Evicted ids a session remembers, as 8-byte hashes, so that a line
/// naming one is told its base was evicted rather than never sent.
const EVICTED_IDS_KEPT: usize = 4096;

/// The completed sweeps a session keeps as bases, within
/// [`MAX_RETAINED_BASE_BYTES`]: past the budget the least recently
/// referenced base is evicted.
#[derive(Default)]
struct Bases {
    by_id: HashMap<String, Base>,
    /// The last reference tick handed out.
    ticks: u64,
    /// Bytes charged for the bases in `by_id`.
    bytes: usize,
    evictions: u64,
    /// Hashes of the last [`EVICTED_IDS_KEPT`] evicted ids, oldest first.
    evicted: VecDeque<u64>,
    hasher: RandomState,
}

/// One retained base, its last-reference tick and its charge.
struct Base {
    sweep: SweepRequest,
    tick: u64,
    bytes: usize,
}

impl Bases {
    /// Retains `sweep` under `id` (replacing any base with that id), then
    /// evicts least recently referenced bases until the budget holds. A
    /// base over the budget on its own is evicted on arrival, and no other
    /// base makes room for it.
    fn insert(&mut self, id: String, sweep: SweepRequest) {
        if let Some(old) = self.by_id.remove(&id) {
            self.bytes -= old.bytes;
        }
        let bytes = RETAINED_BASE_OVERHEAD
            + id.len()
            + 8 * sweep.grid.r_values.len()
            + sweep.scenario.reply_time().retained_bytes();
        if bytes > MAX_RETAINED_BASE_BYTES {
            self.evict(&id);
            return;
        }
        self.ticks += 1;
        self.by_id.insert(
            id,
            Base {
                sweep,
                tick: self.ticks,
                bytes,
            },
        );
        self.bytes += bytes;
        while self.bytes > MAX_RETAINED_BASE_BYTES {
            // A linear scan: the per-base overhead keeps the map to about
            // a thousand bases.
            let Some(oldest) = self
                .by_id
                .iter()
                .min_by_key(|(_, base)| base.tick)
                .map(|(id, _)| id.clone())
            else {
                break;
            };
            self.evict(&oldest);
        }
    }

    /// Drops the base retained under `id`, if any, and remembers `id` as
    /// evicted.
    fn evict(&mut self, id: &str) {
        if let Some(base) = self.by_id.remove(id) {
            self.bytes -= base.bytes;
        }
        self.evictions += 1;
        if self.evicted.len() == EVICTED_IDS_KEPT {
            self.evicted.pop_front();
        }
        self.evicted.push_back(self.hasher.hash_one(id));
    }

    /// The base retained under `id`, marked as just referenced.
    fn get(&mut self, id: &str) -> Option<&SweepRequest> {
        let base = self.by_id.get_mut(id)?;
        self.ticks += 1;
        base.tick = self.ticks;
        Some(&base.sweep)
    }

    /// Whether `id` names one of the last [`EVICTED_IDS_KEPT`] evictions.
    fn was_evicted(&self, id: &str) -> bool {
        self.evicted.contains(&self.hasher.hash_one(id))
    }
}

/// One request on the team: the wire id that names it in its answer and
/// in `cancel` lines, and its cancel token.
struct InFlight {
    wire_id: String,
    token: CancelToken,
}

/// A pipelined JSON-lines session: it submits requests to an
/// [`ExecutorTeam`] itself and answers them as they complete.
///
/// [`PipelinedSession::submit_line`] decodes one input line and enqueues
/// it, and [`PipelinedSession::submit_request`] enqueues a request that
/// is already decoded. A request is validated before anything is queued:
/// an invalid one is answered at once and never counted as submitted.
/// Submitting never waits, so the front end bounds its own admission
/// with [`PipelinedSession::pending`].
/// [`PipelinedSession::poll_responses`] answers whatever has completed
/// so far, and [`PipelinedSession::drain`] blocks on the completion
/// channel until every in-flight request is answered. Responses
/// therefore come back in **completion order**, keyed by the caller's
/// `id` field, not in input order.
///
/// A completion is *handed out* when `poll_responses` or `drain` takes it
/// from the channel, and [`PipelinedSession::pipeline_stats`] counts it
/// then, as what it answers. A `cancel` line, or
/// [`PipelinedSession::cancel_all`], flags a request whose completion has
/// not been handed out: a queued ticket is dropped before evaluation, a
/// running one aborts at its next check (see [`CancelToken`]), and one
/// that finished first is answered as cancelled when it is handed out.
/// So a cancel that reaches the session before the hand-out always wins,
/// whatever the thread timing, and no id is ever lost.
///
/// Rescore, calibrate and frontier lines whose base sweep is still in
/// flight are *held back* and submitted automatically the moment the base
/// completes, so a pipelined client may stream `sweep s1` / `rescore s2
/// of s1` / `calibrate k1 of s1` back-to-back without waiting. Every
/// non-empty input line produces exactly one output line, pipelined or
/// not.
pub struct PipelinedSession {
    team: Arc<ExecutorTeam>,
    /// The id of the next request submitted to the team.
    next_id: u64,
    /// Requests on the team whose completion has not been handed out,
    /// by request id. A `cancel` line finds its targets here by wire id:
    /// the front end's admission bound bounds the scan. The requests
    /// themselves come back with their completions.
    in_flight: HashMap<RequestId, InFlight>,
    /// Cloned into every ticket; holding it keeps `completions` open.
    done: Sender<Completion>,
    completions: Receiver<Completion>,
    /// Cloned into every ticket.
    notifier: Option<CompletionNotifier>,
    stats: PipelineStats,
    /// Completed sweeps by wire id, referencable by later rescores,
    /// calibrations and frontiers.
    bases: Bases,
    /// Dependent work waiting for its base to complete: base wire id →
    /// list of (dependent wire id, pending work).
    waiting: HashMap<String, Vec<(String, PendingWork)>>,
    /// Wire ids submitted or waiting whose response has not been emitted,
    /// which routes a dependent: held back while its base's id is here. A
    /// set of ids, not a count — [`PipelinedSession::pending`] counts
    /// requests, and a client may reuse an id.
    pending_ids: HashSet<String>,
}

impl PipelinedSession {
    /// Starts a pipelined session around an engine owned by this session
    /// alone, with a private team of up to `config.depth` executor
    /// threads.
    /// Multi-session fronts (one session per client connection of
    /// `zeroconf serve`) share one team via
    /// [`PipelinedSession::with_team`] instead.
    #[must_use]
    pub fn new(engine: Engine, config: PipelineConfig) -> PipelinedSession {
        let team = ExecutorTeam::new(Arc::new(engine), config.depth);
        PipelinedSession::with_team(Arc::new(team))
    }

    /// Starts a pipelined session on a *shared* executor team. It spawns
    /// nothing: the session keeps only its bookkeeping (ids, cancel
    /// tokens, counters, bases, held-back dependents); the team's threads
    /// and its engine — π-table cache, lifetime counters — are common to
    /// every session on the team, so a sweep completed through one
    /// session warms the cache for all.
    #[must_use]
    pub fn with_team(team: Arc<ExecutorTeam>) -> PipelinedSession {
        let (done, completions) = channel();
        PipelinedSession {
            team,
            next_id: 0,
            in_flight: HashMap::new(),
            done,
            completions,
            notifier: None,
            stats: PipelineStats::default(),
            bases: Bases::default(),
            waiting: HashMap::new(),
            pending_ids: HashSet::new(),
        }
    }

    /// Registers a [`CompletionNotifier`], replacing any previous one: an
    /// executor thread invokes it each time a completion of a request
    /// submitted from now on becomes pollable, so a readiness-driven
    /// front-end (the `zeroconf serve` reactor) can sleep in `epoll_wait`
    /// and be woken instead of polling
    /// [`PipelinedSession::poll_responses`] on a timer.
    pub fn set_completion_notifier(&mut self, notifier: CompletionNotifier) {
        self.notifier = Some(notifier);
    }

    /// Unanswered requests: submitted or held back, response not yet
    /// emitted. Each request counts once, also when it reuses the id of
    /// another one still unanswered. Front ends use this to bound their
    /// admission and to decide when a drain is complete.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.in_flight.len() + self.waiting.values().map(Vec::len).sum::<usize>()
    }

    /// Withdraws every unanswered request in the session: requests on
    /// the team are flagged for cancellation (their
    /// [`EngineError::Cancelled`] responses arrive through
    /// [`PipelinedSession::poll_responses`] / [`PipelinedSession::drain`]
    /// as usual), and held-back rescores — which never reached the
    /// team — are answered right here with the returned error lines.
    /// This is the connection-drop path of `zeroconf serve`: a client
    /// that vanishes takes only its own requests down.
    pub fn cancel_all(&mut self) -> Vec<String> {
        for request in self.in_flight.values() {
            request.token.cancel();
        }
        let waiting = std::mem::take(&mut self.waiting);
        let mut out = Vec::new();
        for (_, dependents) in waiting {
            for (rescore_id, _) in dependents {
                self.pending_ids.remove(&rescore_id);
                out.push(error_line(&rescore_id, &EngineError::Cancelled));
            }
        }
        out
    }

    /// Decodes and enqueues one input line: [`parse_request_json`], then
    /// [`decode_line`], then [`PipelinedSession::submit_request`]. A line
    /// that fails to decode is answered with its error line. Blank lines
    /// produce nothing.
    pub fn submit_line(&mut self, line: &str) -> Vec<String> {
        let line = line.trim();
        if line.is_empty() {
            return Vec::new();
        }
        match decode_line(parse_request_json(line)) {
            Ok(request) => lines(self.submit_request(request)),
            Err(answer) => vec![answer],
        }
    }

    /// Enqueues one decoded request. Returns the responses that are ready
    /// *immediately* — dispatch errors and cancel acknowledgements;
    /// sweep, rescore, calibrate and frontier answers arrive later via
    /// [`PipelinedSession::poll_responses`] / [`PipelinedSession::drain`].
    pub fn submit_request(&mut self, request: WireRequest) -> Vec<WireResponse> {
        match request {
            WireRequest::Sweep { id, request } => {
                self.submit_work(id, Ok(WorkRequest::Sweep(request)))
            }
            WireRequest::Rescore { id, of, delta } => {
                self.submit_dependent(id, &of, PendingWork::Rescore(delta))
            }
            WireRequest::Calibrate { id, target, n, r } => match target {
                WorkTarget::Base(of) => {
                    self.submit_dependent(id, &of, PendingWork::Calibrate { n, r })
                }
                WorkTarget::Inline { scenario, grid } => self.submit_work(
                    id,
                    Ok(WorkRequest::Calibrate(CalibrateRequest {
                        scenario,
                        grid,
                        target_n: n,
                        target_r: r,
                    })),
                ),
            },
            WireRequest::Frontier { id, target, x, y } => match target {
                WorkTarget::Base(of) => {
                    self.submit_dependent(id, &of, PendingWork::Frontier { x, y })
                }
                WorkTarget::Inline { scenario, grid } => self.submit_work(
                    id,
                    Ok(WorkRequest::Frontier(FrontierRequest {
                        scenario,
                        grid,
                        x,
                        y,
                    })),
                ),
            },
            WireRequest::Cancel { id, of } => self.submit_cancel(&id, &of),
        }
    }

    /// Answers every completion that is ready right now, without
    /// blocking, as typed responses: a front end that writes them in
    /// slices ([`WireResponse::write_slice`]) keeps a sweep's landscape
    /// until its text is due. May also dispatch rescores that were waiting
    /// on a newly completed base.
    pub fn poll_responses(&mut self) -> Vec<WireResponse> {
        // Every completion ready now is taken before any is answered, so
        // work an answer releases is answered by a later poll.
        let ready: Vec<Completion> = self.completions.try_iter().collect();
        let mut out = Vec::new();
        for completion in ready {
            out.extend(self.finish(completion));
        }
        out
    }

    /// Blocks until every in-flight and held-back request is answered,
    /// returning the response lines in completion order.
    pub fn drain(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        while !self.in_flight.is_empty() {
            // The session holds a sender, so the channel never closes.
            let Ok(completion) = self.completions.recv() else {
                break;
            };
            out.extend(self.finish(completion));
        }
        debug_assert!(self.waiting.is_empty(), "no rescore left behind");
        debug_assert!(self.pending_ids.is_empty(), "every id answered");
        lines(out)
    }

    /// Bases evicted from this session to keep it within
    /// [`MAX_RETAINED_BASE_BYTES`].
    #[must_use]
    pub fn base_evictions(&self) -> u64 {
        self.bases.evictions
    }

    /// The engine's cumulative counters (for `--stats` reporting).
    #[must_use]
    pub fn stats(&self) -> crate::EngineStats {
        self.team.engine().stats()
    }

    /// The session's cumulative counters, including per-request latency
    /// aggregates.
    #[must_use]
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.stats
    }

    /// Renders the engine and session stats as one JSON line; its
    /// `depth` is the team's size.
    #[must_use]
    pub fn stats_line(&self) -> String {
        WireResponse::Stats {
            engine: self.stats(),
            pipeline: self.stats,
            depth: self.team.size(),
        }
        .to_line()
    }

    /// Validates one request of any verb and submits it to the team. A
    /// request that failed to build or fails to validate is answered at
    /// once, before anything is queued, and so is everything chained on
    /// it, or held-back dependents would be stranded forever.
    fn submit_work(
        &mut self,
        wire_id: String,
        built: Result<WorkRequest, EngineError>,
    ) -> Vec<WireResponse> {
        let request = match built.and_then(|request| request.validate().map(|()| request)) {
            Ok(request) => request,
            Err(e) => {
                let mut out = vec![WireResponse::error(&wire_id, &e)];
                out.extend(self.fail_dependents(&wire_id));
                return out;
            }
        };
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let token = CancelToken::new();
        self.stats.submitted += 1;
        self.team.submit(Ticket {
            id,
            request,
            token: token.clone(),
            submitted: Instant::now(),
            done: self.done.clone(),
            notify: self.notifier.clone(),
        });
        self.pending_ids.insert(wire_id.clone());
        self.in_flight.insert(id, InFlight { wire_id, token });
        Vec::new()
    }

    /// Routes one base-referencing request (rescore, calibrate or
    /// frontier): straight to the team when the base sweep has
    /// completed, held back when the base is pending, an error otherwise.
    fn submit_dependent(
        &mut self,
        wire_id: String,
        of: &str,
        work: PendingWork,
    ) -> Vec<WireResponse> {
        if let Some(base) = self.bases.get(of) {
            let built = work.into_request(base);
            return self.submit_work(wire_id, built);
        }
        if self.pending_ids.contains(of) {
            self.pending_ids.insert(wire_id.clone());
            self.waiting
                .entry(of.to_owned())
                .or_default()
                .push((wire_id, work));
            return Vec::new();
        }
        let missing = if self.bases.was_evicted(of) {
            format!(
                "base sweep `{of}` was evicted: a session keeps at most \
                 {MAX_RETAINED_BASE_BYTES} bytes of bases"
            )
        } else {
            format!("no sweep with id `{of}`")
        };
        vec![WireResponse::error(&wire_id, &invalid(missing))]
    }

    /// Handles one cancel line: flags every request on the team under
    /// that id, or else withdraws every held-back one outright.
    fn submit_cancel(&mut self, wire_id: &str, of: &str) -> Vec<WireResponse> {
        let mut on_team = false;
        for request in self
            .in_flight
            .values()
            .filter(|request| request.wire_id == of)
        {
            // The cancelled completion arrives (and is encoded) through
            // the normal completion path.
            request.token.cancel();
            on_team = true;
        }
        if on_team {
            return vec![WireResponse::Cancelled {
                id: wire_id.to_owned(),
                of: of.to_owned(),
            }];
        }
        // Held-back work never reached the team; answer for it here and
        // fail anything chained on it.
        let mut withdrawn = 0;
        for deps in self.waiting.values_mut() {
            let held = deps.len();
            deps.retain(|(id, _)| id != of);
            withdrawn += held - deps.len();
        }
        if withdrawn > 0 {
            self.waiting.retain(|_, deps| !deps.is_empty());
            self.pending_ids.remove(of);
            let mut out = vec![WireResponse::Cancelled {
                id: wire_id.to_owned(),
                of: of.to_owned(),
            }];
            out.extend((0..withdrawn).map(|_| WireResponse::error(of, &EngineError::Cancelled)));
            out.extend(self.fail_dependents(of));
            return out;
        }
        vec![WireResponse::error(
            wire_id,
            &invalid(format!("no in-flight request with id `{of}`")),
        )]
    }

    /// Hands out one completion and answers it: its request leaves the
    /// session, a request cancelled before now answers
    /// [`EngineError::Cancelled`] whatever its evaluation gave, the
    /// counters count what it answers, and dependent work waiting on it
    /// is dispatched.
    fn finish(&mut self, mut completion: Completion) -> Vec<WireResponse> {
        let Some(InFlight { wire_id, token }) = self.in_flight.remove(&completion.id) else {
            debug_assert!(false, "completion for unknown request id");
            return Vec::new();
        };
        if token.is_cancelled() {
            completion.result = Err(EngineError::Cancelled);
        }
        self.stats.record(&completion);
        let request = completion.request;
        self.pending_ids.remove(&wire_id);
        let succeeded = completion.result.is_ok();
        let mut out = vec![WireResponse::from_result(&wire_id, completion.result)];
        if !succeeded {
            out.extend(self.fail_dependents(&wire_id));
            return out;
        }
        for (dependent_id, work) in self.waiting.remove(&wire_id).unwrap_or_default() {
            self.pending_ids.remove(&dependent_id);
            out.extend(match &request {
                // Held-back work is built on the sweep in hand, so it is
                // answered even when that sweep is too large to retain.
                WorkRequest::Sweep(base) => self.submit_work(dependent_id, work.into_request(base)),
                _ => self.submit_dependent(dependent_id, &wire_id, work),
            });
        }
        // Only a sweep establishes a base that dependents (rescore,
        // calibrate, frontier) can reference.
        if let WorkRequest::Sweep(sweep) = request {
            self.bases.insert(wire_id, sweep);
        }
        out
    }

    /// Answers (with an error) every dependent waiting on `base`, and
    /// transitively everything waiting on those.
    fn fail_dependents(&mut self, base: &str) -> Vec<WireResponse> {
        let mut out = Vec::new();
        let mut stack = vec![base.to_owned()];
        while let Some(failed) = stack.pop() {
            for (dependent_id, _) in self.waiting.remove(&failed).unwrap_or_default() {
                self.pending_ids.remove(&dependent_id);
                out.push(WireResponse::error(
                    &dependent_id,
                    &invalid(format!("base sweep `{failed}` did not complete")),
                ));
                stack.push(dependent_id);
            }
        }
        out
    }
}

/// Each response as its line.
fn lines(responses: Vec<WireResponse>) -> Vec<String> {
    responses.iter().map(WireResponse::to_line).collect()
}

#[cfg(test)]
mod tests {
    use crate::EngineConfig;

    use super::*;
    use crate::wire::decode::tests::sweep_line;
    use crate::wire::encode::tests::{assert_same_landscape, head_of};
    use crate::wire::{parse_json, parse_request_line, parse_response_line, Json};
    use crate::wire::{MAX_GRID_R_POINTS, MAX_MIXTURE_COMPONENTS};

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            cache_tables: 64,
            ..EngineConfig::default()
        })
    }

    /// Blocking one-line-in/one-line-out over a pipelined session: with
    /// depth 1, each line is answered before the next is read.
    fn handle(session: &mut PipelinedSession, line: &str) -> Option<String> {
        let mut lines = session.submit_line(line);
        lines.extend(session.drain());
        lines.into_iter().next()
    }

    #[test]
    fn session_answers_sweep_then_miss_free_rescore() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        let first = handle(&mut session, &sweep_line("s1")).unwrap();
        assert!(first.contains("\"id\":\"s1\""), "{first}");
        assert!(first.contains("\"cache_misses\":3"), "{first}");
        let rescore =
            "{\"id\":\"s2\",\"rescore\":{\"of\":\"s1\",\"error_cost\":1e9,\"probe_cost\":3.0}}";
        let second = handle(&mut session, rescore).unwrap();
        assert!(second.contains("\"id\":\"s2\""), "{second}");
        assert!(second.contains("\"cache_misses\":0"), "{second}");
        assert!(second.contains("\"cache_hits\":3"), "{second}");
        // Chained rescore off the rescored request.
        let third = handle(
            &mut session,
            "{\"id\":\"s3\",\"rescore\":{\"of\":\"s2\",\"q\":0.25}}",
        )
        .unwrap();
        assert!(third.contains("\"cache_misses\":0"), "{third}");
        let stats = session.stats_line();
        assert!(stats.contains("\"requests\":3"), "{stats}");
        // The stats block names the kernel tier it ran and the weakest
        // distribution-batch tier observed — both drawn from the single
        // `Backend::name` vocabulary.
        let engine_stats = session.stats();
        assert!(
            stats.contains(&format!(
                "\"kernel_backend\":\"{}\"",
                engine_stats.kernel_backend
            )),
            "{stats}"
        );
        assert!(
            stats.contains(&format!(
                "\"dist_backend\":\"{}\"",
                engine_stats.dist_backend
            )),
            "{stats}"
        );
    }

    #[test]
    fn session_reports_errors_without_dying() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        assert!(handle(&mut session, "   ").is_none());
        let bad = handle(&mut session, "not json").unwrap();
        assert!(bad.contains("\"error\""), "{bad}");
        let unknown = handle(
            &mut session,
            "{\"id\":\"r\",\"rescore\":{\"of\":\"ghost\"}}",
        )
        .unwrap();
        assert!(unknown.contains("no sweep with id"), "{unknown}");
        // The session still works afterwards.
        assert!(handle(&mut session, &sweep_line("ok"))
            .unwrap()
            .contains("\"cells\""));
    }

    #[test]
    fn response_line_parses_back_with_exact_floats() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        let line = handle(&mut session, &sweep_line("s1")).unwrap();
        let parsed = parse_json(&line).unwrap();
        let Some(Json::Arr(cells)) = parsed.get("cells") else {
            panic!("no cells in {line}");
        };
        assert_eq!(cells.len(), 9);
        // Spot-check cell 0 against a direct evaluation.
        let WireRequest::Sweep { request, .. } = parse_request_line(&sweep_line("s1")).unwrap()
        else {
            panic!("expected sweep");
        };
        let direct = zeroconf_cost::cost::mean_cost(&request.scenario, 1, 0.5).unwrap();
        let wire = cells[0].get("mean_cost").and_then(Json::num).unwrap();
        assert_eq!(direct.to_bits(), wire.to_bits());
        // The typed decoder reads the same line into the engine's own
        // landscape, bit for bit.
        let (head, landscape) = parse_response_line(&line).unwrap();
        assert_eq!(head, head_of(&line));
        let evaluated = engine().evaluate(&request).unwrap();
        assert_same_landscape(&landscape.unwrap(), &evaluated.landscape);
    }

    #[test]
    fn non_finite_cells_round_trip_as_null() {
        // A probe cost near f64::MAX overflows the mean cost of n >= 2
        // probes; the answer must still parse, with `null` for those
        // cells and the finite cells bit for bit.
        let line = "{\"id\":\"big\",\"scenario\":{\"q\":0.5,\"probe_cost\":1.7e308,\
                    \"error_cost\":1e6,\"reply_time\":{\"kind\":\"exponential\",\
                    \"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
                    \"grid\":{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}";
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        let answer = handle(&mut session, line).unwrap();
        let parsed = parse_json(&answer).unwrap_or_else(|e| panic!("{e}: {answer}"));
        let Some(Json::Arr(cells)) = parsed.get("cells") else {
            panic!("no cells in {answer}");
        };
        let WireRequest::Sweep { request, .. } = parse_request_line(line).unwrap() else {
            panic!("expected sweep");
        };
        let direct = engine().evaluate(&request).unwrap();
        assert_eq!(cells.len(), direct.landscape.len());
        let (mut finite, mut null) = (0, 0);
        for (cell, expected) in cells.iter().zip(direct.landscape.iter()) {
            for (key, value) in [
                ("mean_cost", expected.mean_cost),
                ("error_probability", expected.error_probability),
            ] {
                let value = value.unwrap();
                match cell.get(key) {
                    Some(Json::Num(got)) if value.is_finite() => {
                        assert_eq!(got.to_bits(), value.to_bits(), "{key} in {answer}");
                        finite += 1;
                    }
                    Some(Json::Null) if !value.is_finite() => null += 1,
                    other => panic!("{key} = {value} encoded as {other:?}: {answer}"),
                }
            }
        }
        assert!(
            finite > 0 && null > 0,
            "{finite} finite, {null} null: {answer}"
        );
        // The typed decoder reads the `null` cells back as NaN and the
        // finite ones bit for bit.
        let (_, landscape) = parse_response_line(&answer).unwrap();
        assert_same_landscape(&landscape.unwrap(), &direct.landscape);
    }

    #[test]
    fn pipelined_calibrate_of_pending_base_is_held_back_and_warm() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(4));
        // Sweep and dependent calibrate/frontier streamed back-to-back,
        // before the base completes.
        let mut out = session.submit_line(&sweep_line("s1"));
        out.extend(
            session.submit_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}"),
        );
        out.extend(session.submit_line(
            "{\"id\":\"f1\",\"frontier\":{\"of\":\"s1\",\
             \"x\":{\"axis\":\"error_cost\",\"values\":[1e3,1e9]},\
             \"y\":{\"axis\":\"probe_cost\",\"values\":[0.5,2.0]}}}",
        ));
        assert!(out.is_empty(), "nothing answers before the base: {out:?}");
        assert_eq!(session.pending(), 3);
        let lines = session.drain();
        assert_eq!(lines.len(), 3, "{lines:?}");
        let calibrate = lines.iter().find(|l| l.contains("\"id\":\"k1\"")).unwrap();
        assert!(
            calibrate.contains("\"calibrate\":{\"error_cost\":"),
            "{calibrate}"
        );
        // The base sweep warmed the π cache: each statistic build misses
        // zero tables.
        assert!(calibrate.contains("\"cache_misses\":0"), "{calibrate}");
        let frontier = lines.iter().find(|l| l.contains("\"id\":\"f1\"")).unwrap();
        assert!(
            frontier.contains("\"frontier\":{\"candidates\":4,\"points\":["),
            "{frontier}"
        );
        assert!(frontier.contains("\"cache_misses\":0"), "{frontier}");
    }

    #[test]
    fn inline_calibrate_answers_without_a_base() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        let line = handle(
            &mut session,
            "{\"id\":\"k1\",\"calibrate\":{\"n\":2,\"r\":1.0},\
             \"scenario\":{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
             \"reply_time\":{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}},\
             \"grid\":{\"n_max\":3,\"r\":[0.5,1.0,2.0]}}",
        )
        .unwrap();
        assert!(line.contains("\"id\":\"k1\""), "{line}");
        assert!(line.contains("\"calibrate\":{\"error_cost\":"), "{line}");
        let parsed = parse_json(&line).unwrap();
        let e_star = parsed
            .get("calibrate")
            .and_then(|c| c.get("error_cost"))
            .and_then(Json::num)
            .unwrap();
        assert!(e_star.is_finite() && e_star > 0.0, "{line}");
    }

    #[test]
    fn dependents_of_a_non_sweep_base_are_refused() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(4));
        session.submit_line(&sweep_line("s1"));
        session.submit_line("{\"id\":\"k1\",\"calibrate\":{\"of\":\"s1\",\"n\":2,\"r\":1.0}}");
        // Chained on the *calibration*, which never becomes a sweep base.
        session.submit_line("{\"id\":\"r1\",\"rescore\":{\"of\":\"k1\",\"error_cost\":1e9}}");
        let lines = session.drain();
        let refused = lines.iter().find(|l| l.contains("\"id\":\"r1\"")).unwrap();
        assert!(refused.contains("no sweep with id `k1`"), "{refused}");
    }

    #[test]
    fn bases_past_the_budget_are_evicted_least_recently_referenced_first() {
        // Each base carries a quarter of the longest `r` list, so the
        // budget holds a handful and 21 bases overflow it several times.
        let r = vec!["1.0"; MAX_GRID_R_POINTS / 4].join(",");
        let sweep = |id: &str| {
            format!(
                "{{\"id\":\"{id}\",\"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
                 \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
                 \"grid\":{{\"n_max\":1,\"r\":[{r}]}},\"metrics\":[\"error_probability\"]}}"
            )
        };
        let rescore = |id: &str, of: &str| {
            format!("{{\"id\":\"{id}\",\"rescore\":{{\"of\":\"{of}\",\"error_cost\":1e9}}}}")
        };
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        let sent = 21;
        for i in 0..sent {
            let answer = handle(&mut session, &sweep(&format!("b{i:02}"))).unwrap();
            assert!(answer.contains("\"cells\""), "b{i:02} answered");
            assert!(session.bases.bytes <= MAX_RETAINED_BASE_BYTES);
        }
        let kept = session.bases.by_id.len();
        assert!(
            (2..=sent / 3).contains(&kept),
            "{kept} of {sent} bases kept"
        );
        assert_eq!(session.base_evictions(), (sent - kept) as u64);

        // The oldest base is gone, and the one error line says so.
        let mut lines = session.submit_line(&rescore("x0", "b00"));
        lines.extend(session.drain());
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("base sweep `b00` was evicted"),
            "{}",
            lines[0]
        );
        let unknown = handle(&mut session, &rescore("x1", "ghost")).unwrap();
        assert!(unknown.contains("no sweep with id `ghost`"), "{unknown}");
        let newest = handle(&mut session, &rescore("x2", "b20")).unwrap();
        assert!(newest.contains("\"cells\""), "the newest base is answered");

        // The answered rescore became a base and evicted the oldest one
        // left; referencing the next oldest now makes it the most recent,
        // so the following eviction passes it over.
        let oldest = format!("b{:02}", sent - kept + 1);
        let passed_over = handle(&mut session, &rescore("x3", &oldest)).unwrap();
        assert!(passed_over.contains("\"cells\""), "{oldest} answered");
        let evicted = format!("b{:02}", sent - kept + 2);
        let gone = handle(&mut session, &rescore("x4", &evicted)).unwrap();
        assert!(
            gone.contains(&format!("base sweep `{evicted}` was evicted")),
            "{gone}"
        );
        let kept_on = handle(&mut session, &rescore("x5", &oldest)).unwrap();
        assert!(kept_on.contains("\"cells\""), "{oldest} still retained");
        assert!(session.bases.bytes <= MAX_RETAINED_BASE_BYTES);
    }

    #[test]
    fn bases_are_charged_for_their_mixture_components() {
        let sweep = |id: &str| crate::testkit::mixture_sweep_line(id, MAX_MIXTURE_COMPONENTS);
        let rescore = |id: &str, of: &str| {
            format!("{{\"id\":\"{id}\",\"rescore\":{{\"of\":\"{of}\",\"error_cost\":1e9}}}}")
        };
        // A frontier references its base without becoming one (a rescore
        // is a sweep, so it would be retained too).
        let frontier = |id: &str, of: &str| {
            format!(
                "{{\"id\":\"{id}\",\"frontier\":{{\"of\":\"{of}\",\
                 \"x\":{{\"axis\":\"error_cost\",\"values\":[1e9]}},\
                 \"y\":{{\"axis\":\"probe_cost\",\"values\":[2.0]}}}}}}"
            )
        };
        let answers = |session: &mut PipelinedSession, line: &str, member: &str| {
            let answer = handle(session, line).unwrap();
            assert!(
                answer.contains(member),
                "{}",
                &answer[..answer.len().min(200)]
            );
        };
        // One `r` value each: a mixture at the component cap is nearly all
        // of a base's charge, so a handful of bases fill the budget. Charged
        // for their `r` list and id alone, about a thousand would fit.
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        answers(&mut session, &sweep("m00"), "\"cells\"");
        let charge = session.bases.bytes;
        let fit = MAX_RETAINED_BASE_BYTES / charge;
        assert!((2..64).contains(&fit), "{fit} bases of {charge} bytes fit");
        for i in 1..fit {
            answers(&mut session, &sweep(&format!("m{i:02}")), "\"cells\"");
        }
        assert_eq!(session.base_evictions(), 0);

        // Referencing `m00` leaves `m01` the least recently referenced, and
        // one more base evicts it alone.
        answers(&mut session, &frontier("f0", "m00"), "\"frontier\"");
        answers(&mut session, &sweep(&format!("m{fit:02}")), "\"cells\"");
        assert_eq!(session.base_evictions(), 1);
        assert_eq!(session.bases.by_id.len(), fit);
        assert!(session.bases.bytes <= MAX_RETAINED_BASE_BYTES);
        answers(
            &mut session,
            &rescore("x1", "m01"),
            "base sweep `m01` was evicted",
        );
        answers(&mut session, &frontier("f1", "m00"), "\"frontier\"");

        // A base over the budget on its own, here through its id, still
        // serves the work held back behind it, is not kept, and evicts no
        // other base.
        let huge = "h".repeat(MAX_RETAINED_BASE_BYTES);
        let mut lines = session.submit_line(&sweep(&huge));
        lines.extend(session.submit_line(&frontier("held", &huge)));
        assert!(lines.is_empty(), "{lines:?}");
        assert_eq!(session.pending(), 2);
        let lines = session.drain();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.contains("\"cells\"")));
        assert!(lines.iter().any(|l| l.contains("\"frontier\"")));
        assert_eq!(session.bases.by_id.len(), fit, "the other bases stay");
        assert_eq!(session.base_evictions(), 2);
        assert!(session.bases.bytes <= MAX_RETAINED_BASE_BYTES);
        answers(&mut session, &rescore("late", &huge), "was evicted");
        answers(
            &mut session,
            &frontier("f2", &format!("m{fit:02}")),
            "\"frontier\"",
        );
    }

    #[test]
    fn a_reused_id_is_counted_and_cancelled_once_per_request() {
        // One executor, busy with a cold sweep, so the requests behind it
        // are still queued when they are cancelled. The sweeps build
        // 20,000 and 30,000 fresh π-tables, which outlast the submits and
        // the cancel even in a release build with every other unit test
        // running beside this one.
        let team = Arc::new(ExecutorTeam::new(Arc::new(engine()), 1));
        let mut session = PipelinedSession::with_team(team);
        let heavy = |id: &str, r_points| crate::testkit::heavy_sweep_line(id, 32, r_points);
        let rescore = |error_cost: f64| {
            format!("{{\"id\":\"r\",\"rescore\":{{\"of\":\"dup\",\"error_cost\":{error_cost:?}}}}}")
        };
        for line in [
            heavy("b1", 20_000),
            heavy("dup", 400),
            heavy("dup", 400),
            rescore(1e9),
            rescore(1e8),
        ] {
            assert!(session.submit_line(&line).is_empty());
        }
        assert_eq!(session.pending(), 5, "three on the team, two held back");

        // Both held rescores under `r` are withdrawn, one answer each.
        let cancelled = session.submit_line("{\"id\":\"c\",\"cancel\":\"r\"}");
        assert_eq!(cancelled.len(), 3, "{cancelled:?}");
        assert_eq!(session.pending(), 3);

        // A cancel line flags both requests on the team under `dup`,
        // and hanging up flags both under `hup`.
        let ack = session.submit_line("{\"id\":\"c\",\"cancel\":\"dup\"}");
        assert_eq!(ack.len(), 1, "{ack:?}");
        let mut lines = session.drain();
        for line in [heavy("b2", 30_000), heavy("hup", 400), heavy("hup", 400)] {
            assert!(session.submit_line(&line).is_empty());
        }
        assert_eq!(session.pending(), 3);
        assert!(session.cancel_all().is_empty());
        lines.extend(session.drain());
        assert_eq!(lines.len(), 6, "{lines:?}");
        assert_eq!(session.pending(), 0);
        for id in ["dup", "hup"] {
            let answers: Vec<&String> = lines
                .iter()
                .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
                .collect();
            assert_eq!(answers.len(), 2, "{answers:?}");
            assert!(
                answers.iter().all(|l| l.contains("cancelled")),
                "{answers:?}"
            );
        }
    }

    /// A typed sweep of `line`'s request under `id`.
    fn sweep_request(id: &str) -> WireRequest {
        let WireRequest::Sweep { request, .. } = parse_request_line(&sweep_line(id)).unwrap()
        else {
            panic!("expected sweep");
        };
        WireRequest::Sweep {
            id: id.to_owned(),
            request,
        }
    }

    #[test]
    fn invalid_requests_are_rejected_before_queueing() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        let WireRequest::Sweep { id, mut request } = sweep_request("bad") else {
            unreachable!()
        };
        request.grid.r_values.clear();
        let answers = session.submit_request(WireRequest::Sweep { id, request });
        assert_eq!(answers.len(), 1);
        assert!(answers[0].to_line().contains("\"error\""), "{answers:?}");
        assert_eq!(session.pending(), 0);
        assert_eq!(session.pipeline_stats().submitted, 0);
    }

    #[test]
    fn drain_on_an_idle_session_returns_at_once() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(2));
        assert!(session.drain().is_empty());
        assert!(session.submit_request(sweep_request("s1")).is_empty());
        assert_eq!(session.drain().len(), 1);
        assert!(session.drain().is_empty());
    }

    #[test]
    fn completion_notifier_fires_once_per_completion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(2));
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        session.set_completion_notifier(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(session.submit_request(sweep_request("s1")).is_empty());
        assert!(session.submit_request(sweep_request("s2")).is_empty());
        assert_eq!(session.drain().len(), 2);
        // The notifier runs after each completion is sent, so drain can
        // observe the second completion a moment before its notify lands
        // — wait for it rather than racing the executor thread.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while fired.load(Ordering::SeqCst) < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "notifier fired {} of 2 times",
                fired.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_cancel_before_hand_out_wins_over_a_finished_evaluation() {
        let mut session = PipelinedSession::new(engine(), PipelineConfig::with_depth(1));
        let (notify, notified) = std::sync::mpsc::channel();
        session.set_completion_notifier(Arc::new(move || {
            let _ = notify.send(());
        }));
        let cancel = |session: &mut PipelinedSession, of: &str| {
            let ack = session.submit_line(&format!("{{\"id\":\"c\",\"cancel\":\"{of}\"}}"));
            assert_eq!(ack.len(), 1, "{ack:?}");
            ack[0].contains(&format!("\"cancelled\":\"{of}\""))
        };
        // A's evaluation has finished and its completion waits in the
        // channel when the cancel arrives.
        assert!(session.submit_request(sweep_request("a")).is_empty());
        notified.recv().unwrap();
        assert!(cancel(&mut session, "a"));
        // B and C finish behind A on the one executor; B is cancelled
        // while its completion waits in the channel, C is not.
        assert!(session.submit_request(sweep_request("b")).is_empty());
        assert!(session.submit_request(sweep_request("c")).is_empty());
        notified.recv().unwrap();
        notified.recv().unwrap();
        assert_eq!(session.pending(), 3, "nothing is handed out yet");
        assert!(cancel(&mut session, "b"));
        let lines = session.drain();
        let ids: Vec<String> = lines
            .iter()
            .map(|line| {
                parse_json(line)
                    .unwrap()
                    .get("id")
                    .and_then(Json::str)
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(ids, ["a", "b", "c"]);
        assert!(lines[0].contains("request cancelled"), "{}", lines[0]);
        assert!(lines[1].contains("request cancelled"), "{}", lines[1]);
        assert!(lines[2].contains("\"cells\""), "{}", lines[2]);
        let stats = session.pipeline_stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!((stats.completed, stats.cancelled, stats.failed), (1, 2, 0));
        assert!(stats.service_nanos_total >= stats.service_nanos_max);
        assert!(
            !cancel(&mut session, "a"),
            "a handed-out completion is forgotten"
        );
    }
}
