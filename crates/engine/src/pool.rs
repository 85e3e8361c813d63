//! The persistent worker pool and the per-sweep job it executes.
//!
//! One sweep becomes one [`Job`]: the `r` grid is the work list, and the
//! unit of work is a *chunk* of consecutive `r` indices. Workers claim
//! chunks from a shared atomic cursor — self-scheduling ("work-stealing
//! from a common pile"), so a worker that lands on cheap cells simply
//! comes back for more instead of idling behind a static partition. The
//! calling thread participates as worker 0, so an engine that plans a
//! sweep single-threaded runs entirely in the caller with no cross-thread
//! traffic. Chunk size and participant count come from the engine's
//! adaptive scheduler ([`crate::Engine`]) — the job just executes the
//! plan.
//!
//! Each claimed chunk is evaluated *as a block*: one
//! [`SharedCache::get_or_compute_block`] round-trip fetches (or batch
//! computes, via [`ColumnBlockKernel::pi_tables`]) every π-table of the
//! chunk, then one [`ColumnBlockKernel::evaluate_with_statistic`] pass
//! writes the chunk's contiguous `r`-major span of flat result slabs.
//!
//! Every slab has one owner. The calling thread allocates the job's
//! [`Slabs`] (one `f64` buffer per output, `r`-major) and writes each chunk
//! it claims straight into its span `[start·n_max, end·n_max)`. A pool
//! thread writes each chunk it claims into slabs of its own and hands them
//! over under the job's one mutex, which also holds the latch count and
//! the first failure; the caller copies those chunks in once the latch
//! releases. A job that stays on the calling thread copies nothing. The
//! latch is decremented once per claimed chunk, not once per `r` index.
//! Cancellation is checked at chunk boundaries and between the π and
//! kernel phases of a chunk.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use zeroconf_cost::kernel::{ColumnBlockKernel, Mode};
use zeroconf_dist::ReplyTimeDistribution;
use zeroconf_simd::Backend;

use crate::cache::SharedCache;
use crate::request::{Metric, SweepRequest};
use crate::{CancelToken, EngineError};

/// The flat `r`-major buffers one job fills: element
/// `r_index · n_max + (n − 1)` of each slab is cell `(n, r)`.
pub(crate) trait Slabs: Send + Sized + 'static {
    /// Zeroed slabs of `cells` values for what `request` asks.
    fn zeroed(request: &SweepRequest, cells: usize) -> Self;

    /// The spans `[from, from + len)` of the kernel's four outputs, in
    /// [`ColumnBlockKernel::evaluate_with_statistic`] order (mean cost,
    /// error probability, π-prefix, π_n); `None` for an output these
    /// slabs do not hold.
    fn spans(&mut self, from: usize, len: usize) -> [Option<&mut [f64]>; 4];

    /// Copies `chunk`, slabs of `span.len()` values, into `span` of `self`.
    fn copy_in(&mut self, span: Range<usize>, chunk: &mut Self) {
        let (from, len) = (span.start, span.len());
        for (to, chunk) in self.spans(from, len).into_iter().zip(chunk.spans(0, len)) {
            if let (Some(to), Some(chunk)) = (to, chunk) {
                to.copy_from_slice(chunk);
            }
        }
    }
}

/// A sweep's metric slabs; a slab is `None` when its metric was not
/// requested.
pub(crate) struct MetricSlabs {
    pub(crate) costs: Option<Vec<f64>>,
    pub(crate) errors: Option<Vec<f64>>,
}

impl Slabs for MetricSlabs {
    fn zeroed(request: &SweepRequest, cells: usize) -> MetricSlabs {
        MetricSlabs {
            costs: request.wants(Metric::MeanCost).then(|| vec![0.0; cells]),
            errors: request
                .wants(Metric::ErrorProbability)
                .then(|| vec![0.0; cells]),
        }
    }

    fn spans(&mut self, from: usize, len: usize) -> [Option<&mut [f64]>; 4] {
        [
            self.costs.as_deref_mut().map(|c| &mut c[from..from + len]),
            self.errors.as_deref_mut().map(|e| &mut e[from..from + len]),
            None,
            None,
        ]
    }
}

/// A statistic build's slabs, `Σ_{i<n} π_i` and `π_n`: the storage
/// behind [`zeroconf_cost::param::ParamLandscape`]. The build ignores the
/// request's metric selection.
pub(crate) struct StatisticSlabs {
    pub(crate) pi_prefix: Vec<f64>,
    pub(crate) pi_n: Vec<f64>,
}

impl Slabs for StatisticSlabs {
    fn zeroed(_request: &SweepRequest, cells: usize) -> StatisticSlabs {
        StatisticSlabs {
            pi_prefix: vec![0.0; cells],
            pi_n: vec![0.0; cells],
        }
    }

    fn spans(&mut self, from: usize, len: usize) -> [Option<&mut [f64]>; 4] {
        [
            None,
            None,
            Some(&mut self.pi_prefix[from..from + len]),
            Some(&mut self.pi_n[from..from + len]),
        ]
    }
}

/// What the job's one mutex guards.
struct Latch<S> {
    /// `r` indices not yet finished; the caller waits for zero.
    pending: usize,
    /// First evaluation error, if any; the job still drains so the latch
    /// always releases.
    failure: Option<EngineError>,
    /// Chunks pool threads finished, each with the span of the caller's
    /// slabs it fills.
    handed: Vec<(Range<usize>, S)>,
}

/// One sweep's shared state: inputs, the claim cursor, the latch and the
/// chunks handed over by pool threads.
pub(crate) struct Job<S> {
    block: ColumnBlockKernel,
    fingerprint: u64,
    request: SweepRequest,
    chunk: usize,
    cursor: AtomicUsize,
    cache: Arc<SharedCache>,
    latch: Mutex<Latch<S>>,
    done: Condvar,
    /// Cooperative cancellation, checked at every chunk boundary and
    /// between a chunk's π and kernel phases. A cancelled job still
    /// drains its work list (each claimed chunk is marked done without
    /// evaluating) so the latch always releases.
    cancel: CancelToken,
    /// Cells evaluated per participant (0 = caller, `1..` = pool workers).
    cells_by_worker: Vec<AtomicU64>,
    /// Cache hits/misses charged to this job alone.
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<S: Slabs> Job<S> {
    /// Builds one sweep job filling slabs of type `S` (same π pipeline,
    /// same chunking, same cache for every kind of slab).
    pub(crate) fn new(
        request: &SweepRequest,
        cache: Arc<SharedCache>,
        backend: Backend,
        participants: usize,
        chunk: usize,
        cancel: CancelToken,
    ) -> Job<S> {
        let r_count = request.grid.r_values.len();
        Job {
            // Always `Mode::Exact`: engine results (and the π-tables they
            // share through the cache) must be backend-invariant.
            block: ColumnBlockKernel::with_backend(&request.scenario, backend, Mode::Exact),
            fingerprint: request.scenario.reply_time().fingerprint(),
            request: request.clone(),
            chunk: chunk.clamp(1, r_count.max(1)),
            cursor: AtomicUsize::new(0),
            cache,
            latch: Mutex::new(Latch {
                pending: r_count,
                failure: None,
                handed: Vec::new(),
            }),
            done: Condvar::new(),
            cancel,
            cells_by_worker: (0..participants).map(|_| AtomicU64::new(0)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Runs the job on the calling thread as worker 0, into `out`, the
    /// caller's slabs for the whole grid: claims chunks into them until
    /// the work list is drained, waits for the pool threads' chunks, and
    /// copies those in. Returns the first failure, if any.
    pub(crate) fn run_here(&self, out: &mut S) -> Result<(), EngineError> {
        self.claim(0, Some(out));
        let mut latch = lock(&self.latch);
        while latch.pending > 0 {
            latch = self.done.wait(latch).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(e) = latch.failure.take() {
            return Err(e);
        }
        for (span, mut chunk) in latch.handed.drain(..) {
            out.copy_in(span, &mut chunk);
        }
        Ok(())
    }

    /// Claims and evaluates chunks until the work list is drained: into
    /// `out`, the job's slabs, on the calling thread ([`Job::run_here`]),
    /// and on a pool thread (`out` is `None`) into one new set of slabs
    /// per chunk that is handed over through the latch.
    fn claim(&self, worker: usize, mut out: Option<&mut S>) {
        let r_count = self.request.grid.r_values.len();
        let n_max = self.request.grid.n_max as usize;
        loop {
            // ORDERING: the cursor only partitions indices; each chunk's
            // results reach the caller through its own slabs or the latch
            // mutex, and completion is published by the latch, not the
            // cursor.
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= r_count {
                return;
            }
            let end = (start + self.chunk).min(r_count);
            let span = start * n_max..end * n_max;
            let evaluated = if self.cancel.is_cancelled() {
                Err(EngineError::Cancelled)
            } else if let Some(out) = out.as_deref_mut() {
                self.evaluate_chunk(start, end, worker, out, span.start)
                    .map(|()| None)
            } else {
                let mut own = S::zeroed(&self.request, span.len());
                self.evaluate_chunk(start, end, worker, &mut own, 0)
                    .map(|()| Some((span, own)))
            };
            // One latch update per claimed chunk, not per r index.
            let mut latch = lock(&self.latch);
            match evaluated {
                Ok(handed) => latch.handed.extend(handed),
                Err(e) => {
                    latch.failure.get_or_insert(e);
                }
            }
            latch.pending -= end - start;
            if latch.pending == 0 {
                self.done.notify_all();
            }
        }
    }

    /// All cells of one claimed chunk `[start, end)` of `r` indices: one
    /// block cache round-trip (misses are batch-computed by
    /// [`ColumnBlockKernel::pi_tables`]), then a single
    /// [`ColumnBlockKernel::evaluate_with_statistic`] pass writing the
    /// chunk into `out` from `offset` on — bit-identical to the per-`n`
    /// `*_from_pis` arithmetic.
    fn evaluate_chunk(
        &self,
        start: usize,
        end: usize,
        worker: usize,
        out: &mut S,
        offset: usize,
    ) -> Result<(), EngineError> {
        let n_max = self.request.grid.n_max;
        let rs = &self.request.grid.r_values[start..end];
        let (tables, hits, misses) =
            self.cache
                .get_or_compute_block(self.fingerprint, rs, n_max, |missing| {
                    self.block
                        .pi_tables(n_max, missing)
                        .map_err(EngineError::Cost)
                })?;
        // ORDERING: per-job statistics tallies, read only after the job
        // is joined.
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        if self.cancel.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        let cells = (end - start) * n_max as usize;
        let [costs, errors, pi_prefix, pi_n] = out.spans(offset, cells);
        self.block
            .evaluate_with_statistic(n_max, rs, &tables, costs, errors, pi_prefix, pi_n)?;
        // ORDERING: per-worker statistics tally, read after join.
        self.cells_by_worker[worker].fetch_add(cells as u64, Ordering::Relaxed);
        Ok(())
    }

    pub(crate) fn cells_per_worker(&self) -> Vec<u64> {
        self.cells_by_worker
            .iter()
            // ORDERING: statistics read; callers consult this after the
            // completion latch, so the tallies are already final.
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The weakest SIMD tier any distribution batch of this job ran at —
    /// see [`ColumnBlockKernel::dist_backend_used`].
    pub(crate) fn dist_backend_used(&self) -> Backend {
        self.block.dist_backend_used()
    }
}

/// A job's chunk loop as a pool thread runs it, given its worker id.
type Task = Arc<dyn Fn(usize) + Send + Sync>;

/// The persistent background threads. Jobs are broadcast to every
/// worker; idle workers find the cursor exhausted and go back to
/// waiting, so broadcasting to more workers than the job needs is free.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `background` worker threads (may be zero).
    pub(crate) fn new(background: usize) -> WorkerPool {
        let mut senders = Vec::with_capacity(background);
        let mut handles = Vec::with_capacity(background);
        for worker in 0..background {
            let (tx, rx) = channel::<Task>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("zeroconf-engine-{worker}"))
                    .spawn(move || {
                        // Worker ids start at 1; 0 is the calling thread.
                        while let Ok(task) = rx.recv() {
                            task(worker + 1);
                        }
                    })
                    .expect("spawning an engine worker thread"),
            );
        }
        WorkerPool { senders, handles }
    }

    /// Hands `job` to every background worker.
    pub(crate) fn broadcast<S: Slabs>(&self, job: &Arc<Job<S>>) {
        let job = Arc::clone(job);
        let task: Task = Arc::new(move |worker| job.claim(worker, None));
        for sender in &self.senders {
            // A worker can only be gone if its thread panicked; the job
            // still completes via the remaining participants.
            let _ = sender.send(Arc::clone(&task));
        }
    }

    pub(crate) fn background_workers(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_cost::Scenario;
    use zeroconf_dist::DefectiveExponential;

    use super::*;
    use crate::GridSpec;

    fn request() -> SweepRequest {
        let scenario = Scenario::builder()
            .occupancy(0.5)
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(1e-6, 10.0, 1.0).unwrap(),
            ))
            .build()
            .unwrap();
        SweepRequest::new(scenario, GridSpec::linspace(8, 0.1, 5.0, 40))
    }

    /// A two-participant job with chunks of 7 columns, so the last chunk
    /// is short.
    fn job<S: Slabs>(request: &SweepRequest) -> Job<S> {
        let cache = Arc::new(SharedCache::new(64));
        Job::new(request, cache, Backend::detect(), 2, 7, CancelToken::new())
    }

    /// `job`'s slabs, filled on this thread.
    fn run<S: Slabs>(job: &Job<S>, request: &SweepRequest) -> Result<S, EngineError> {
        let mut out = S::zeroed(request, request.grid.cells());
        job.run_here(&mut out).map(|()| out)
    }

    fn bits(slab: &[f64]) -> Vec<u64> {
        slab.iter().map(|x| x.to_bits()).collect()
    }

    /// Chunks a pool thread evaluates into slabs of its own land in the
    /// caller's slabs exactly where the caller would have written them.
    /// `claim` on this thread, as worker 1, takes every chunk before
    /// `run_here` starts, so every chunk is handed over and copied in.
    #[test]
    fn handed_over_chunks_match_the_callers_own() {
        let request = request();
        let cells = request.grid.cells() as u64;

        let own = run(&job::<MetricSlabs>(&request), &request).unwrap();
        let helped = job::<MetricSlabs>(&request);
        helped.claim(1, None);
        assert_eq!(helped.cells_per_worker(), vec![0, cells]);
        let handed = run(&helped, &request).unwrap();
        for (own, handed) in [(&own.costs, &handed.costs), (&own.errors, &handed.errors)] {
            assert_eq!(bits(own.as_ref().unwrap()), bits(handed.as_ref().unwrap()));
        }

        let own = run(&job::<StatisticSlabs>(&request), &request).unwrap();
        let helped = job::<StatisticSlabs>(&request);
        helped.claim(1, None);
        let handed = run(&helped, &request).unwrap();
        assert_eq!(bits(&own.pi_prefix), bits(&handed.pi_prefix));
        assert_eq!(bits(&own.pi_n), bits(&handed.pi_n));
    }

    /// A chunk that fails hands nothing over, and the job reports the
    /// failure once every chunk is done.
    #[test]
    fn a_cancelled_job_hands_back_its_failure() {
        let request = request();
        let cancelled = job::<MetricSlabs>(&request);
        cancelled.cancel.cancel();
        cancelled.claim(1, None);
        assert!(lock(&cancelled.latch).handed.is_empty());
        assert_eq!(
            run(&cancelled, &request).err(),
            Some(EngineError::Cancelled)
        );
    }
}
