//! Pipelined evaluation: one [`ExecutorTeam`] of threads draining a
//! shared ticket queue over one [`Engine`], and thread-free [`Pipeline`]
//! sessions whose requests complete **out of order**, keyed by request id.
//!
//! The blocking [`Engine::evaluate`] call answers one sweep at a time;
//! serving many concurrent clients (the paper's multi-host regime, and
//! the repeated re-evaluation workload of the incremental-verification
//! literature) wants several sweeps in flight at once. This module
//! provides exactly that without an async runtime:
//!
//! - An [`ExecutorTeam`] is a bounded set of threads taking tickets off
//!   one queue and evaluating them on the shared engine — so the
//!   engine's π-table cache is common to every in-flight request, each
//!   request runs on the executor that took it, and a short sweep submitted after a long one
//!   finishes *first*. `zeroconf serve` builds one team per daemon, sized
//!   by `--inflight`, and every connection's pipeline submits to it;
//!   [`Pipeline::new`] builds a private team sized by
//!   [`PipelineConfig::depth`]. The team
//!   starts one executor, and another whenever a ticket finds all of them
//!   busy, up to its size; the executor that went idle last takes the
//!   next ticket, so a light load keeps running on one thread. An
//!   executor sending a completion is not busy: a request submitted in
//!   reply waits for it rather than starting another.
//! - A [`Pipeline`] owns no thread. Each ticket it submits carries its
//!   completion sender and notifier; its ids, cancel tokens and counters
//!   are plain fields of the one consumer thread.
//! - [`Pipeline::submit`] enqueues a validated [`SweepRequest`] and
//!   returns a [`RequestId`] immediately ([`Pipeline::submit_work`] does
//!   the same for any [`WorkRequest`] verb — sweep, calibrate or
//!   frontier). Submitting never waits: a pipeline bounds nothing, and
//!   each front end bounds its own admission (`zeroconf serve` through
//!   its permit budget, `zeroconf engine` through the session's pending
//!   count).
//! - [`Pipeline::poll_completions`] / [`Pipeline::next_completion`] hand
//!   back [`Completion`]s in **finish order**, each tagged with its
//!   [`RequestId`] and per-request latency counters (queue wait and
//!   service time). A request's token is dropped, and the counters
//!   updated, when its completion is handed out.
//! - [`Pipeline::cancel`] flags one request whose completion has not been
//!   handed out; a queued ticket is dropped before evaluation, a running
//!   one aborts at the next `r` boundary (see [`CancelToken`]), and one
//!   that finished first is answered as cancelled when it is handed out.
//!   Either way the request completes with [`EngineError::Cancelled`] —
//!   no id is ever lost, and whether a cancel wins depends only on the
//!   order of the consumer's own calls, not on thread timing.
//! - [`Pipeline::drain`] blocks until every in-flight request has
//!   completed. Dropping the last handle on a team closes its queue and
//!   joins its threads after they finish it (graceful shutdown — queued
//!   work is never abandoned mid-evaluation).
//!
//! Everything is `std`: one mutex around the team's queue, one count of
//! finishing executors, a channel to each idle executor, and one
//! completion channel per pipeline. The
//! wire-protocol front-end in [`crate::wire`] is a thin codec over this
//! type.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::{CancelToken, Engine, EngineError, SweepRequest, WorkRequest, WorkResponse};

/// The size of a pipeline's private executor team ([`Pipeline::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Executor threads of the private team: how many of the pipeline's
    /// requests evaluate at once. Submitting more queues them.
    pub depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { depth: 4 }
    }
}

impl PipelineConfig {
    /// A config with `depth` executors — the usual shape (`--inflight N`
    /// on the CLI).
    #[must_use]
    pub fn with_depth(depth: usize) -> PipelineConfig {
        PipelineConfig {
            depth: depth.max(1),
        }
    }
}

/// A callback executor threads invoke right after a [`Completion`] lands
/// in the channel. Readiness-driven consumers (the `zeroconf serve`
/// reactor) register one to get woken — the reactor's writes to its
/// eventfd — instead of polling the pipeline on a timer.
/// The callback runs on an executor thread, so it must be cheap and
/// must never block on the consumer side.
pub type CompletionNotifier = Arc<dyn Fn() + Send + Sync>;

/// Identifier of one submitted request, unique within its [`Pipeline`].
/// Completions are keyed by it; submission order is `id` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One finished request: its id, the request itself, its outcome and its
/// latency split.
#[derive(Debug)]
pub struct Completion {
    /// The id `submit` returned.
    pub id: RequestId,
    /// The request as it was submitted, handed back so the submitter
    /// need not keep a copy while it is in flight.
    pub request: WorkRequest,
    /// The evaluated response — same [`WorkResponse`] variant as the
    /// submitted [`WorkRequest`] — or why there is none
    /// ([`EngineError::Cancelled`] for cancelled requests).
    pub result: Result<WorkResponse, EngineError>,
    /// Nanoseconds spent queued before an executor picked the request up.
    pub queue_nanos: u64,
    /// Nanoseconds spent evaluating (zero when cancelled while queued).
    pub service_nanos: u64,
}

/// Pipeline-lifetime counters, including the per-request latency
/// aggregates reported by the CLI's `--stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that completed as cancelled.
    pub cancelled: u64,
    /// Requests that completed with a non-cancellation error.
    pub failed: u64,
    /// Total nanoseconds requests spent waiting in the queue.
    pub queue_nanos_total: u64,
    /// Worst single queue wait in nanoseconds.
    pub queue_nanos_max: u64,
    /// Total nanoseconds requests spent evaluating.
    pub service_nanos_total: u64,
    /// Worst single service time in nanoseconds.
    pub service_nanos_max: u64,
}

impl PipelineStats {
    /// Counts one completion as it is handed out.
    fn record(&mut self, completion: &Completion) {
        match completion.result {
            Ok(_) => self.completed += 1,
            Err(EngineError::Cancelled) => self.cancelled += 1,
            Err(_) => self.failed += 1,
        }
        self.queue_nanos_total = self
            .queue_nanos_total
            .saturating_add(completion.queue_nanos);
        self.queue_nanos_max = self.queue_nanos_max.max(completion.queue_nanos);
        self.service_nanos_total = self
            .service_nanos_total
            .saturating_add(completion.service_nanos);
        self.service_nanos_max = self.service_nanos_max.max(completion.service_nanos);
    }
}

/// One queued request, with the way back to the pipeline that sent it.
struct Ticket {
    id: RequestId,
    request: WorkRequest,
    token: CancelToken,
    submitted: Instant,
    done: Sender<Completion>,
    notify: Option<CompletionNotifier>,
}

/// The team's queue: tickets no executor has taken yet, a channel to
/// each executor waiting for one, and the executors started so far.
#[derive(Default)]
struct Queue {
    tickets: VecDeque<Ticket>,
    /// Idle executors, the one that went idle last on top.
    idle: Vec<Sender<Ticket>>,
    /// Every executor started, at most the team's size.
    threads: Vec<JoinHandle<()>>,
    /// Set when the team drops: executors exit once `tickets` is empty.
    closed: bool,
}

fn lock(queue: &Mutex<Queue>) -> MutexGuard<'_, Queue> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded team of executor threads draining one ticket queue over one
/// shared [`Engine`]. Every [`Pipeline`] built on the team submits to
/// that queue, so the threads serve whichever pipeline has work and a
/// pipeline owns none of them. Dropping the team closes the queue and
/// joins the threads after they finish everything already queued.
pub struct ExecutorTeam {
    engine: Arc<Engine>,
    queue: Arc<Mutex<Queue>>,
    /// Executors that have sent a completion and not yet come back to the
    /// queue. Each takes a queued ticket or goes idle next, so a ticket
    /// submitted in reply to a completion waits for the executor that
    /// sent it instead of starting another. Kept outside the lock, so
    /// sending a completion never waits on it.
    finishing: Arc<AtomicUsize>,
    /// The most executors the team starts.
    size: usize,
}

impl ExecutorTeam {
    /// A team of at most `threads` executor threads (at least one) over
    /// `engine`. One executor starts now, and another each time a ticket
    /// finds every executor busy, so a light load starts few threads.
    #[must_use]
    pub fn new(engine: Arc<Engine>, threads: usize) -> ExecutorTeam {
        let team = ExecutorTeam {
            engine,
            queue: Arc::default(),
            finishing: Arc::default(),
            size: threads.max(1),
        };
        team.start(&mut lock(&team.queue))
            .expect("spawning a pipeline executor thread");
        team
    }

    /// Starts one more executor.
    fn start(&self, queue: &mut Queue) -> std::io::Result<()> {
        let (shared, engine) = (Arc::clone(&self.queue), Arc::clone(&self.engine));
        let finishing = Arc::clone(&self.finishing);
        let thread = std::thread::Builder::new()
            .name(format!("zeroconf-executor-{}", queue.threads.len()))
            .spawn(move || executor_loop(&shared, &finishing, &engine))?;
        queue.threads.push(thread);
        Ok(())
    }

    /// The engine every ticket is evaluated on.
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Hands `ticket` to the executor that went idle last, or else queues
    /// it, and starts another executor only if the queue then holds more
    /// tickets than the finishing executors will take. Reusing the warmest
    /// thread keeps a light load on one stack and one malloc arena
    /// instead of rotating through all of them.
    fn submit(&self, ticket: Ticket) {
        let mut queue = lock(&self.queue);
        match queue.idle.pop() {
            Some(executor) => executor
                .send(ticket)
                .expect("pipeline executors outlive the pipeline"),
            None => {
                queue.tickets.push_back(ticket);
                // ORDERING: a consumer submits in reply to a completion it
                // received, and the completion channel's send and receive
                // order the sender's increment before this load; the
                // matching decrement happens under this lock.
                let finishing = self.finishing.load(Ordering::Relaxed);
                // A start that fails leaves the ticket to the running
                // executors.
                if queue.tickets.len() > finishing && queue.threads.len() < self.size {
                    let _ = self.start(&mut queue);
                }
            }
        }
    }
}

impl Drop for ExecutorTeam {
    fn drop(&mut self) {
        // Closing the queue ends the executor loops *after* they finish
        // everything already enqueued: graceful drain on shutdown. Idle
        // executors see their channel close; busy ones find the queue
        // closed when they come back for more.
        let mut queue = lock(&self.queue);
        queue.closed = true;
        queue.idle.clear();
        let threads = std::mem::take(&mut queue.threads);
        drop(queue);
        for handle in threads {
            let _ = handle.join();
        }
    }
}

/// An executor's next ticket: the oldest queued one, or else the one
/// handed to it after it waits idle. `None` once the team has dropped
/// and nothing is left. An executor that `finished` a ticket stops
/// counting as finishing here. The lock covers only taking a ticket or
/// going idle, so executors overlap on the engine.
fn next_ticket(queue: &Mutex<Queue>, finishing: &AtomicUsize, finished: bool) -> Option<Ticket> {
    let mut guard = lock(queue);
    if finished {
        // ORDERING: under the queue lock, which orders it with `submit`'s
        // load; the count publishes no other data.
        finishing.fetch_sub(1, Ordering::Relaxed);
    }
    if let Some(ticket) = guard.tickets.pop_front() {
        return Some(ticket);
    }
    if guard.closed {
        return None;
    }
    let (wake, woken) = channel();
    guard.idle.push(wake);
    drop(guard);
    woken.recv().ok()
}

fn executor_loop(queue: &Mutex<Queue>, finishing: &AtomicUsize, engine: &Engine) {
    let mut finished = false;
    while let Some(ticket) = next_ticket(queue, finishing, finished) {
        let queue_nanos = u64::try_from(ticket.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Cancelled while queued: never touches the engine, and reports
        // zero service time.
        let (result, service_nanos) = if ticket.token.is_cancelled() {
            (Err(EngineError::Cancelled), 0)
        } else {
            let started = Instant::now();
            let result = match &ticket.request {
                WorkRequest::Sweep(request) => engine
                    .evaluate_cancellable(request, &ticket.token)
                    .map(WorkResponse::Sweep),
                WorkRequest::Calibrate(request) => engine
                    .calibrate_cancellable(request, &ticket.token)
                    .map(WorkResponse::Calibrate),
                WorkRequest::Frontier(request) => engine
                    .frontier_cancellable(request, &ticket.token)
                    .map(WorkResponse::Frontier),
            };
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            (result, nanos)
        };
        let Ticket {
            id,
            request,
            done,
            notify,
            ..
        } = ticket;
        // Counted as finishing before the completion leaves, so a request
        // submitted in reply finds this executor rather than none.
        // ORDERING: the completion's send below publishes the increment
        // to whoever receives it (see `submit`).
        finishing.fetch_add(1, Ordering::Relaxed);
        finished = true;
        // A pipeline dropped with work queued no longer listens; its
        // completions are discarded.
        let _ = done.send(Completion {
            id,
            request,
            result,
            queue_nanos,
            service_nanos,
        });
        // Wake a readiness-driven consumer strictly after the send, so a
        // woken poller always finds the completion already in the channel.
        if let Some(notify) = notify {
            notify();
        }
    }
}

/// The pipelined front-end over one shared [`ExecutorTeam`]. See the
/// module docs for the lifecycle; the one-line version:
///
/// ```
/// use zeroconf_engine::{Engine, EngineConfig, GridSpec, Pipeline, PipelineConfig, SweepRequest};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scenario = zeroconf_cost::paper::figure2_scenario()?;
/// let engine = std::sync::Arc::new(Engine::new(EngineConfig::default()));
/// let mut pipeline = Pipeline::new(engine, PipelineConfig::with_depth(4));
/// let a = pipeline.submit(SweepRequest::new(scenario.clone(), GridSpec::linspace(4, 0.5, 2.0, 8)))?;
/// let b = pipeline.submit(SweepRequest::new(scenario, GridSpec::linspace(2, 0.5, 2.0, 4)))?;
/// let done = pipeline.drain(); // completions in *finish* order
/// assert_eq!(done.len(), 2);
/// assert!(done.iter().any(|c| c.id == a) && done.iter().any(|c| c.id == b));
/// # Ok(())
/// # }
/// ```
pub struct Pipeline {
    team: Arc<ExecutorTeam>,
    next_id: u64,
    /// Cancel tokens of submitted requests whose completion has not been
    /// handed out yet.
    tokens: HashMap<RequestId, CancelToken>,
    stats: PipelineStats,
    /// Cloned into every ticket; holding it keeps `completions` open.
    done: Sender<Completion>,
    completions: Receiver<Completion>,
    /// Cloned into every ticket.
    notifier: Option<CompletionNotifier>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("depth", &self.depth())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl Pipeline {
    /// Builds a pipeline over `engine` with a private team of up to
    /// `config.depth` executor threads.
    #[must_use]
    pub fn new(engine: Arc<Engine>, config: PipelineConfig) -> Pipeline {
        let team = ExecutorTeam::new(engine, config.depth);
        Pipeline::with_team(Arc::new(team))
    }

    /// Builds a pipeline that submits to a shared `team`. It spawns
    /// nothing: the team's threads evaluate its requests alongside every
    /// other pipeline's.
    #[must_use]
    pub fn with_team(team: Arc<ExecutorTeam>) -> Pipeline {
        let (done, completions) = channel();
        Pipeline {
            team,
            next_id: 0,
            tokens: HashMap::new(),
            stats: PipelineStats::default(),
            done,
            completions,
            notifier: None,
        }
    }

    /// Registers `notifier`, to be invoked by an executor thread each time
    /// a completion of a request submitted from now on becomes pollable
    /// (replacing any previous notifier). See [`CompletionNotifier`] for
    /// the contract.
    pub fn set_completion_notifier(&mut self, notifier: CompletionNotifier) {
        self.notifier = Some(notifier);
    }

    /// The engine shared by every request of this pipeline.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.team.engine()
    }

    /// The most requests the pipeline's team evaluates at once: its
    /// size. A pipeline has no depth of its own.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.team.size
    }

    /// Requests currently in flight: submitted, completion not yet
    /// retrieved by [`Pipeline::poll_completions`] /
    /// [`Pipeline::next_completion`].
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.tokens.len()
    }

    /// Validates and enqueues one sweep, returning its id immediately.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for malformed requests — rejected
    /// eagerly, before anything is queued.
    pub fn submit(&mut self, request: SweepRequest) -> Result<RequestId, EngineError> {
        self.submit_work(WorkRequest::Sweep(request))
    }

    /// Validates and enqueues any engine verb — sweep, calibrate or
    /// frontier — returning its id immediately, without waiting for
    /// anything. The completion carries the matching [`WorkResponse`]
    /// variant.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for malformed requests — rejected
    /// eagerly, before anything is queued.
    pub fn submit_work(&mut self, request: WorkRequest) -> Result<RequestId, EngineError> {
        request.validate()?;
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let token = CancelToken::new();
        self.tokens.insert(id, token.clone());
        self.stats.submitted += 1;
        self.team.submit(Ticket {
            id,
            request,
            token,
            submitted: Instant::now(),
            done: self.done.clone(),
            notify: self.notifier.clone(),
        });
        Ok(id)
    }

    /// Flags one in-flight request for cancellation. Returns `false` when
    /// the id is unknown or its completion was already handed out. The
    /// request still produces a [`Completion`], with
    /// [`EngineError::Cancelled`] also when its evaluation finished before
    /// the cancel arrived, so consumers never lose an id and a cancel that
    /// returns `true` always wins.
    pub fn cancel(&self, id: RequestId) -> bool {
        match self.tokens.get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Completions that are ready right now, in finish order, without
    /// blocking.
    pub fn poll_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Ok(completion) = self.completions.try_recv() {
            out.push(self.hand_out(completion));
        }
        out
    }

    /// Blocks for the next completion; `None` when nothing is in flight.
    pub fn next_completion(&mut self) -> Option<Completion> {
        if self.tokens.is_empty() {
            return None;
        }
        // This pipeline holds a sender, so the channel never closes.
        let completion = self.completions.recv().ok()?;
        Some(self.hand_out(completion))
    }

    /// Blocks until every in-flight request has completed and returns the
    /// completions in finish order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(completion) = self.next_completion() {
            out.push(completion);
        }
        out
    }

    /// A snapshot of the pipeline-lifetime counters.
    #[must_use]
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Books one completion as it is handed out: its token goes, a request
    /// cancelled before now answers [`EngineError::Cancelled`] whatever
    /// its evaluation gave, and the counters count what it answers.
    fn hand_out(&mut self, mut completion: Completion) -> Completion {
        if self
            .tokens
            .remove(&completion.id)
            .is_some_and(|token| token.is_cancelled())
        {
            completion.result = Err(EngineError::Cancelled);
        }
        self.stats.record(&completion);
        completion
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_cost::Scenario;
    use zeroconf_dist::DefectiveExponential;

    use crate::{Engine, EngineConfig, GridSpec, SweepRequest};

    use super::*;

    fn scenario() -> Scenario {
        Scenario::builder()
            .occupancy(0.5)
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(1e-6, 10.0, 1.0).unwrap(),
            ))
            .build()
            .unwrap()
    }

    fn pipeline(depth: usize) -> Pipeline {
        let engine = Arc::new(Engine::new(EngineConfig {
            cache_tables: 64,
            ..EngineConfig::default()
        }));
        Pipeline::new(engine, PipelineConfig::with_depth(depth))
    }

    fn request(n_max: u32, points: usize) -> SweepRequest {
        SweepRequest::new(scenario(), GridSpec::linspace(n_max, 0.5, 2.0, points))
    }

    #[test]
    fn submit_and_drain_round_trip() {
        let mut p = pipeline(2);
        let a = p.submit(request(3, 4)).unwrap();
        let b = p.submit(request(2, 3)).unwrap();
        assert_ne!(a, b);
        let done = p.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(p.in_flight(), 0);
        for completion in &done {
            let Ok(WorkResponse::Sweep(sweep)) = &completion.result else {
                panic!("sweep submissions complete as sweeps");
            };
            assert!(!sweep.landscape.is_empty());
        }
        let stats = p.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cancelled + stats.failed, 0);
        assert!(stats.service_nanos_total >= stats.service_nanos_max);
    }

    #[test]
    fn invalid_requests_are_rejected_before_queueing() {
        let mut p = pipeline(1);
        let mut bad = request(3, 4);
        bad.grid.r_values.clear();
        assert!(matches!(
            p.submit(bad),
            Err(EngineError::InvalidRequest { .. })
        ));
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.stats().submitted, 0);
    }

    #[test]
    fn cancel_of_unknown_id_is_false() {
        let mut p = pipeline(1);
        assert!(!p.cancel(RequestId(42)));
        let id = p.submit(request(2, 2)).unwrap();
        p.drain();
        // Completed ids are forgotten.
        assert!(!p.cancel(id));
    }

    #[test]
    fn next_completion_is_none_when_idle() {
        let mut p = pipeline(2);
        assert!(p.next_completion().is_none());
        p.submit(request(2, 2)).unwrap();
        assert!(p.next_completion().is_some());
        assert!(p.next_completion().is_none());
    }

    #[test]
    fn completion_notifier_fires_once_per_completion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut p = pipeline(2);
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        p.set_completion_notifier(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        p.submit(request(3, 4)).unwrap();
        p.submit(request(2, 3)).unwrap();
        let done = p.drain();
        assert_eq!(done.len(), 2);
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
        let mut p = pipeline(1);
        let (notify, notified) = channel();
        p.set_completion_notifier(Arc::new(move || {
            let _ = notify.send(());
        }));
        // A's evaluation has finished and its completion waits in the
        // channel when the cancel arrives.
        let a = p.submit(request(2, 3)).unwrap();
        notified.recv().unwrap();
        assert!(p.cancel(a));
        // B and C finish behind A on the one executor; B is cancelled
        // while its completion waits in the channel, C is not.
        let b = p.submit(request(2, 3)).unwrap();
        let c = p.submit(request(2, 3)).unwrap();
        notified.recv().unwrap();
        notified.recv().unwrap();
        assert_eq!(p.in_flight(), 3, "nothing is handed out yet");
        assert!(p.cancel(b));
        let done = p.drain();
        let ids: Vec<RequestId> = done.iter().map(|completion| completion.id).collect();
        assert_eq!(ids, [a, b, c]);
        assert!(matches!(done[0].result, Err(EngineError::Cancelled)));
        assert!(matches!(done[1].result, Err(EngineError::Cancelled)));
        assert!(done[2].result.is_ok());
        let stats = p.stats();
        assert_eq!((stats.completed, stats.cancelled, stats.failed), (1, 2, 0));
        assert!(!p.cancel(a), "a handed-out completion is forgotten");
    }

    /// A client that sends one request at a time runs on one executor:
    /// an executor counts as finishing before its completion leaves, so
    /// the next request waits for it instead of starting another. The
    /// notifier holds the executor that answered until the next request
    /// is in, as a woken reactor's next request can overtake it. The
    /// first executor is idle before the first request, which is how a
    /// daemon meets its first client; a request that beats the first
    /// executor's thread still starts a second.
    #[test]
    fn serial_requests_start_one_executor() {
        let mut p = pipeline(8);
        while lock(&p.team.queue).idle.is_empty() {
            std::thread::yield_now();
        }
        let (next_sent, wait) = channel::<()>();
        let wait = Mutex::new(wait);
        p.set_completion_notifier(Arc::new(move || {
            let _ = wait.lock().unwrap().recv();
        }));
        for round in 0..2_000 {
            p.submit(request(2, 2)).unwrap();
            if round > 0 {
                next_sent.send(()).unwrap();
            }
            assert!(p.next_completion().unwrap().result.is_ok());
        }
        drop(next_sent);
        assert_eq!(lock(&p.team.queue).threads.len(), 1);
    }

    /// Submitting never waits for a completion, however many requests
    /// the team already holds: here both executors of a depth-2 pipeline
    /// are held in the notifier while eight requests are submitted. A
    /// submit that waited would wait for ever, so a watchdog fails the
    /// test instead, and the executors are released either way.
    #[test]
    fn submitting_past_the_depth_never_waits() {
        let mut p = pipeline(2);
        let (release, held) = channel::<()>();
        let held = Mutex::new(held);
        p.set_completion_notifier(Arc::new(move || {
            let _ = held.lock().unwrap().recv();
        }));
        let (submitted, watchdog) = channel();
        let submitter = std::thread::spawn(move || {
            let ids: Vec<RequestId> = (0..8).map(|_| p.submit(request(2, 3)).unwrap()).collect();
            submitted.send(()).unwrap();
            (p, ids)
        });
        let returned = watchdog.recv_timeout(std::time::Duration::from_secs(10));
        drop(release);
        let (mut p, ids) = submitter.join().unwrap();
        assert!(
            returned.is_ok(),
            "a submit waited on executors held in the notifier"
        );
        let mut done: Vec<RequestId> = p.drain().iter().map(|c| c.id).collect();
        done.sort();
        assert_eq!(done, ids);
    }

    #[test]
    fn dropping_a_full_pipeline_finishes_queued_work() {
        // Queue more than the executor count, then drop without draining:
        // Drop must join cleanly (graceful drain), not hang or abandon.
        let mut p = pipeline(4);
        for _ in 0..4 {
            p.submit(request(2, 3)).unwrap();
        }
        drop(p);
    }
}
