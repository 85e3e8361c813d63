//! Pipelined evaluation: one [`ExecutorTeam`] of threads draining a
//! shared ticket queue over one [`Engine`], so that requests complete
//! **out of order**.
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
//!   by `--inflight`, and every connection's session submits to it;
//!   [`PipelinedSession::new`] builds a private team sized by
//!   [`PipelineConfig::depth`]. The team
//!   starts one executor, and another whenever a ticket finds all of them
//!   busy, up to its size; the executor that went idle last takes the
//!   next ticket, so a light load keeps running on one thread. An
//!   executor sending a completion is not busy: a request submitted in
//!   reply waits for it rather than starting another.
//! - The team's one consumer is [`PipelinedSession`], which owns no
//!   thread. Each ticket it submits carries its completion sender and
//!   notifier: the executor that evaluates the ticket sends the
//!   completion, with its queue wait and service time, and then runs the
//!   notifier. The session's ids, cancel tokens and counters are plain
//!   fields of its one consumer thread; its docs give the rules for
//!   submitting, cancelling and handing out.
//! - Dropping the last handle on a team closes its queue and joins its
//!   threads after they finish it (graceful shutdown — queued work is
//!   never abandoned mid-evaluation).
//!
//! Everything is `std`: one mutex around the team's queue, one count of
//! finishing executors, a channel to each idle executor, and one
//! completion channel per session.
//!
//! [`PipelinedSession`]: crate::wire::PipelinedSession
//! [`PipelinedSession::new`]: crate::wire::PipelinedSession::new

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::request::{WorkRequest, WorkResponse};
use crate::{CancelToken, Engine, EngineError};

/// The size of a session's private executor team
/// ([`PipelinedSession::new`](crate::wire::PipelinedSession::new)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Executor threads of the private team: how many of the session's
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

/// A callback executor threads invoke right after a completion lands in
/// its session's channel. Readiness-driven consumers (the `zeroconf serve`
/// reactor) register one to get woken — the reactor's writes to its
/// eventfd — instead of polling the session on a timer.
/// The callback runs on an executor thread, so it must be cheap and
/// must never block on the consumer side.
pub type CompletionNotifier = Arc<dyn Fn() + Send + Sync>;

/// Identifier of one submitted request, unique within its session.
/// Completions are keyed by it; submission order is `id` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RequestId(pub(crate) u64);

/// One finished request: its id, the request itself, its outcome and its
/// latency split.
#[derive(Debug)]
pub(crate) struct Completion {
    /// The id the session gave the request.
    pub(crate) id: RequestId,
    /// The request as it was submitted, handed back so the submitter
    /// need not keep a copy while it is in flight.
    pub(crate) request: WorkRequest,
    /// The evaluated response — same [`WorkResponse`] variant as the
    /// submitted [`WorkRequest`] — or why there is none
    /// ([`EngineError::Cancelled`] for cancelled requests).
    pub(crate) result: Result<WorkResponse, EngineError>,
    /// Nanoseconds spent queued before an executor picked the request up.
    pub(crate) queue_nanos: u64,
    /// Nanoseconds spent evaluating (zero when cancelled while queued).
    pub(crate) service_nanos: u64,
}

/// A session's lifetime counters, including the per-request latency
/// aggregates reported by the CLI's `--stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Requests submitted to the team.
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
    pub(crate) fn record(&mut self, completion: &Completion) {
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

/// One queued request, with the way back to the session that sent it.
pub(crate) struct Ticket {
    pub(crate) id: RequestId,
    pub(crate) request: WorkRequest,
    pub(crate) token: CancelToken,
    pub(crate) submitted: Instant,
    pub(crate) done: Sender<Completion>,
    pub(crate) notify: Option<CompletionNotifier>,
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
/// shared [`Engine`]. Every session built on the team submits to that
/// queue, so the threads serve whichever session has work and a session
/// owns none of them. Dropping the team closes the queue and
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

    /// The most executors the team starts: how many requests it
    /// evaluates at once.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Hands `ticket` to the executor that went idle last, or else queues
    /// it, and starts another executor only if the queue then holds more
    /// tickets than the finishing executors will take. Reusing the warmest
    /// thread keeps a light load on one stack and one malloc arena
    /// instead of rotating through all of them.
    pub(crate) fn submit(&self, ticket: Ticket) {
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
        // A session dropped with work queued no longer listens; its
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_cost::Scenario;
    use zeroconf_dist::DefectiveExponential;

    use crate::wire::{PipelinedSession, WireRequest};
    use crate::{EngineConfig, GridSpec, SweepRequest};

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

    fn team(size: usize) -> Arc<ExecutorTeam> {
        let engine = Arc::new(Engine::new(EngineConfig {
            cache_tables: 64,
            ..EngineConfig::default()
        }));
        Arc::new(ExecutorTeam::new(engine, size))
    }

    fn sweep(id: &str, points: usize) -> WireRequest {
        WireRequest::Sweep {
            id: id.to_owned(),
            request: SweepRequest::new(scenario(), GridSpec::linspace(2, 0.5, 2.0, points)),
        }
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
        let team = team(8);
        let mut session = PipelinedSession::with_team(Arc::clone(&team));
        while lock(&team.queue).idle.is_empty() {
            std::thread::yield_now();
        }
        let (next_sent, wait) = channel::<()>();
        let wait = Mutex::new(wait);
        session.set_completion_notifier(Arc::new(move || {
            let _ = wait.lock().unwrap().recv();
        }));
        for round in 0..2_000 {
            assert!(session.submit_request(sweep("s", 2)).is_empty());
            if round > 0 {
                next_sent.send(()).unwrap();
            }
            let answers = session.drain();
            assert!(answers[0].contains("\"cells\""), "{answers:?}");
        }
        drop(next_sent);
        assert_eq!(lock(&team.queue).threads.len(), 1);
    }

    /// Submitting never waits for a completion, however many requests
    /// the team already holds: here both executors of a depth-2 session
    /// are held in the notifier while eight requests are submitted. A
    /// submit that waited would wait for ever, so a watchdog fails the
    /// test instead, and the executors are released either way.
    #[test]
    fn submitting_past_the_depth_never_waits() {
        let mut session = PipelinedSession::with_team(team(2));
        let (release, held) = channel::<()>();
        let held = Mutex::new(held);
        session.set_completion_notifier(Arc::new(move || {
            let _ = held.lock().unwrap().recv();
        }));
        let (submitted, watchdog) = channel();
        let submitter = std::thread::spawn(move || {
            let immediate: usize = (0..8)
                .map(|k| session.submit_request(sweep(&format!("s{k}"), 3)).len())
                .sum();
            submitted.send(()).unwrap();
            (session, immediate)
        });
        let returned = watchdog.recv_timeout(std::time::Duration::from_secs(10));
        drop(release);
        let (mut session, immediate) = submitter.join().unwrap();
        assert!(
            returned.is_ok(),
            "a submit waited on executors held in the notifier"
        );
        assert_eq!(immediate, 0);
        let answers = session.drain();
        assert_eq!(answers.len(), 8);
        for k in 0..8 {
            let id = format!("\"id\":\"s{k}\",");
            assert_eq!(answers.iter().filter(|a| a.contains(&id)).count(), 1);
        }
    }

    #[test]
    fn dropping_a_full_pipeline_finishes_queued_work() {
        // Queue more than the executor count, then drop without draining:
        // Drop must join cleanly (graceful drain), not hang or abandon.
        let mut session = PipelinedSession::with_team(team(4));
        for k in 0..4 {
            assert!(session
                .submit_request(sweep(&format!("s{k}"), 3))
                .is_empty());
        }
        drop(session);
    }
}
