//! One sweep's chunk loop, run on the thread that runs its request.
//!
//! The `r` grid is walked in chunks of [`SWEEP_CHUNK`] consecutive
//! columns, and each chunk is evaluated *as a block*: one
//! [`SharedCache::get_or_compute_block`] round-trip fetches every π-table
//! of the chunk, building the missing ones in place in the tables the
//! cache will keep ([`ColumnBlockKernel::pi_tables_into`]), then one
//! block pass writes the chunk's columns into the flat
//! result slabs: a contiguous `r`-major span of a sweep's metrics
//! ([`ColumnBlockKernel::evaluate`]), or the chunk's stretch of every
//! n-major statistic row ([`ColumnBlockKernel::statistic_rows`]).
//! Cancellation is checked before each chunk and between a chunk's π and
//! kernel phases.
//!
//! A statistic build ([`statistic`], for `calibrate` and `frontier`)
//! first asks the cache whether it may gain ([`SharedCache::admits`]).
//! When it may not, each chunk's rows come straight from the π build's
//! running products ([`ColumnBlockKernel::fused_statistic_rows`]) with
//! no table, and the chunk's [`cold_misses`] are booked as it is built.

use zeroconf_cost::kernel::{ColumnBlockKernel, Mode};
use zeroconf_cost::CostError;
use zeroconf_simd::Backend;

use crate::cache::{cold_misses, PiTable, SharedCache};
use crate::request::{Metric, SweepRequest};
use crate::{CancelToken, EngineError};

/// Columns per chunk. The cancel check and the cache round-trip come once
/// per chunk; a chunk's π build batches its missing columns' survival
/// evaluations into one kernel call per eight probe rounds. It also
/// bounds the cache's spare tables, one chunk's worth. When a chunk's
/// tables were still built in fresh `Vec`s, chunks of 32 to 400 columns
/// timed within noise of each other on a cold 64 × 400 frontier
/// (`param-cold`'s request) and a warm 16 × 100 sweep; 64 is the
/// smallest size at the fast end of both, so a sweep stays cancellable
/// every 64 columns.
pub(crate) const SWEEP_CHUNK: usize = 64;

/// The flat buffers one sweep fills.
pub(crate) trait Slabs: Sized {
    /// Zeroed slabs of `cells` values for what `request` asks.
    fn zeroed(request: &SweepRequest, cells: usize) -> Self;

    /// Evaluates one chunk, grid columns `first .. first + rs.len()`
    /// with π-tables `tables`, into the slabs.
    fn fill(
        &mut self,
        block: &ColumnBlockKernel,
        n_max: u32,
        first: usize,
        rs: &[f64],
        tables: &[PiTable],
    ) -> Result<(), CostError>;
}

/// A sweep's `r`-major metric slabs (element `r_index · n_max + (n − 1)`
/// is cell `(n, r)`); a slab is `None` when its metric was not requested.
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

    fn fill(
        &mut self,
        block: &ColumnBlockKernel,
        n_max: u32,
        first: usize,
        rs: &[f64],
        tables: &[PiTable],
    ) -> Result<(), CostError> {
        let span = first * n_max as usize..(first + rs.len()) * n_max as usize;
        block.evaluate(
            n_max,
            rs,
            tables,
            self.costs.as_deref_mut().map(|c| &mut c[span.clone()]),
            self.errors.as_deref_mut().map(|e| &mut e[span]),
        )
    }
}

/// A statistic build's n-major slabs, `Σ_{i<n} π_i` and `π_n` (element
/// `(n − 1) · columns + r_index` is cell `(n, r)`): the storage behind
/// [`zeroconf_cost::param::ParamLandscape`]. The build ignores the
/// request's metric selection.
pub(crate) struct StatisticSlabs {
    pub(crate) pi_prefix: Vec<f64>,
    pub(crate) pi_n: Vec<f64>,
    /// The grid's column count, the stride between rows.
    columns: usize,
}

impl Slabs for StatisticSlabs {
    fn zeroed(request: &SweepRequest, cells: usize) -> StatisticSlabs {
        StatisticSlabs {
            pi_prefix: vec![0.0; cells],
            pi_n: vec![0.0; cells],
            columns: request.grid.r_values.len(),
        }
    }

    fn fill(
        &mut self,
        block: &ColumnBlockKernel,
        n_max: u32,
        first: usize,
        rs: &[f64],
        tables: &[PiTable],
    ) -> Result<(), CostError> {
        block.statistic_rows(
            n_max,
            rs,
            tables,
            self.columns,
            &mut self.pi_prefix[first..],
            &mut self.pi_n[first..],
        )
    }
}

/// A finished sweep: its slabs, the cache hits and misses it was charged,
/// and the weakest SIMD tier its distribution batches ran at.
pub(crate) struct Swept<S> {
    pub(crate) slabs: S,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) dist_backend: Backend,
}

/// Evaluates `request`'s whole grid into slabs of type `S`, chunk by
/// chunk, on this thread, with every chunk's tables from the cache.
/// Every chunk runs the same block program whatever the chunk size, so
/// the slabs hold the bits the per-`n` closed forms give.
pub(crate) fn run<S: Slabs>(
    request: &SweepRequest,
    cache: &SharedCache,
    backend: Backend,
    cancel: &CancelToken,
) -> Result<Swept<S>, EngineError> {
    // The slabs are allocated before anything else of the sweep, so the
    // sweep's own small allocations sit above them: freeing a large
    // answer's slabs then leaves no free block at the top of the heap for
    // the allocator to trim and the next sweep to fault back in, which
    // costs a warm 200 × 200 sweep 124 page faults and 3× its time.
    let mut slabs = S::zeroed(request, request.grid.cells());
    // Always `Mode::Exact`: engine results (and the π-tables they share
    // through the cache) must be backend-invariant.
    let block = ColumnBlockKernel::with_backend(&request.scenario, backend, Mode::Exact);
    let fingerprint = request.scenario.reply_time().fingerprint();
    let (hits, misses) = through_cache(request, cache, &block, fingerprint, cancel, &mut slabs)?;
    Ok(Swept {
        slabs,
        hits,
        misses,
        dist_backend: block.dist_backend_used(),
    })
}

/// Builds `request`'s statistic (for a `calibrate` or `frontier`) on
/// this thread: through the cache, as [`run`] builds it, when the cache
/// admits the reply time ([`SharedCache::admits`]), or else straight from
/// the π build's running products
/// ([`ColumnBlockKernel::fused_statistic_rows`]), chunk by chunk, with no
/// table built, looked up or inserted. Both give the same bits, and a
/// fused build is charged what the cache path charges a reply time with
/// nothing resident, booked chunk by chunk as each is built.
pub(crate) fn statistic(
    request: &SweepRequest,
    cache: &SharedCache,
    backend: Backend,
    cancel: &CancelToken,
) -> Result<Swept<StatisticSlabs>, EngineError> {
    let mut slabs = StatisticSlabs::zeroed(request, request.grid.cells());
    let block = ColumnBlockKernel::with_backend(&request.scenario, backend, Mode::Exact);
    let rs = &request.grid.r_values;
    let fingerprint = request.scenario.reply_time().fingerprint();
    let (hits, misses) = if cache.admits(fingerprint, rs.len()) {
        through_cache(request, cache, &block, fingerprint, cancel, &mut slabs)?
    } else {
        let (mut hits, mut misses) = (0, 0);
        let n_max = request.grid.n_max;
        for ((k, chunk), chunk_misses) in rs.chunks(SWEEP_CHUNK).enumerate().zip(cold_misses(rs)) {
            if cancel.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
            let first = k * SWEEP_CHUNK;
            block.fused_statistic_rows(
                n_max,
                chunk,
                slabs.columns,
                &mut slabs.pi_prefix[first..],
                &mut slabs.pi_n[first..],
            )?;
            let chunk_hits = chunk.len() as u64 - chunk_misses;
            cache.book(chunk_hits, chunk_misses);
            hits += chunk_hits;
            misses += chunk_misses;
        }
        (hits, misses)
    };
    Ok(Swept {
        slabs,
        hits,
        misses,
        dist_backend: block.dist_backend_used(),
    })
}

/// The chunk loop through the cache: each chunk's tables in one block
/// fetch under the reply time's `fingerprint`, its misses built in
/// place, then one block pass into `slabs`. Returns the hits and misses
/// charged.
fn through_cache<S: Slabs>(
    request: &SweepRequest,
    cache: &SharedCache,
    block: &ColumnBlockKernel,
    fingerprint: u64,
    cancel: &CancelToken,
    slabs: &mut S,
) -> Result<(u64, u64), EngineError> {
    let n_max = request.grid.n_max;
    let (mut hits, mut misses) = (0, 0);
    for (k, rs) in request.grid.r_values.chunks(SWEEP_CHUNK).enumerate() {
        if cancel.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        let (tables, chunk_hits, chunk_misses) =
            cache.get_or_compute_block(fingerprint, rs, n_max, |missing, buffers| {
                block
                    .pi_tables_into(n_max, missing, buffers)
                    .map_err(EngineError::Cost)
            })?;
        hits += chunk_hits;
        misses += chunk_misses;
        if cancel.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        slabs.fill(block, n_max, k * SWEEP_CHUNK, rs, &tables)?;
    }
    Ok((hits, misses))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_cost::param::ParamLandscape;
    use zeroconf_cost::Scenario;
    use zeroconf_dist::DefectiveExponential;

    use super::*;
    use crate::GridSpec;

    fn request(r_points: usize) -> SweepRequest {
        let scenario = Scenario::builder()
            .occupancy(0.5)
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(1e-6, 10.0, 1.0).unwrap(),
            ))
            .build()
            .unwrap();
        SweepRequest::new(scenario, GridSpec::linspace(8, 0.1, 5.0, r_points))
    }

    /// A grid of two full chunks and a short last one fills its slabs
    /// with the bits of one block pass over the whole grid: the metric
    /// slabs of a cold sweep, and the statistic rows of a warm build,
    /// each chunk's stretch of every row at its own columns.
    #[test]
    fn chunked_slabs_match_one_block_pass() {
        let request = request(2 * SWEEP_CHUNK + 7);
        let cache = SharedCache::new(1024);
        let swept =
            run::<MetricSlabs>(&request, &cache, Backend::detect(), &CancelToken::new()).unwrap();
        let r_count = request.grid.r_values.len() as u64;
        assert_eq!((swept.hits, swept.misses), (0, r_count));

        let block =
            ColumnBlockKernel::with_backend(&request.scenario, Backend::detect(), Mode::Exact);
        let rs = &request.grid.r_values;
        let tables = block.pi_tables(request.grid.n_max, rs).unwrap();
        let cells = request.grid.cells();
        let (mut costs, mut errors) = (vec![0.0; cells], vec![0.0; cells]);
        block
            .evaluate(
                request.grid.n_max,
                rs,
                &tables,
                Some(&mut costs),
                Some(&mut errors),
            )
            .unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(swept.slabs.costs.as_ref().unwrap()), bits(&costs));
        assert_eq!(bits(swept.slabs.errors.as_ref().unwrap()), bits(&errors));

        let warm = run::<StatisticSlabs>(&request, &cache, Backend::detect(), &CancelToken::new())
            .unwrap();
        assert_eq!((warm.hits, warm.misses), (r_count, 0));
        let n_max = request.grid.n_max;
        let chunked =
            ParamLandscape::from_parts(n_max, rs.clone(), warm.slabs.pi_prefix, warm.slabs.pi_n);
        let whole = ParamLandscape::build(&request.scenario, n_max, rs).unwrap();
        for j in 0..rs.len() {
            for n in 1..=n_max {
                let (got, want) = (chunked.statistic(j, n), whole.statistic(j, n));
                assert_eq!(
                    (got.pi_prefix.to_bits(), got.pi_n.to_bits()),
                    (want.pi_prefix.to_bits(), want.pi_n.to_bits()),
                    "statistic of cell (r_index = {j}, n = {n})"
                );
            }
        }
    }

    /// A statistic build the cache turns away (no room, nothing of its
    /// reply time resident) fills every cell with the bits of the cache
    /// path, on a grid of two full chunks and a short last one with
    /// repeats across chunks and `±0`, and is charged the same hits and
    /// misses, per answer and in the lifetime counters. It inserts and
    /// evicts nothing.
    #[test]
    fn fused_statistic_matches_the_cache_path() {
        let mut request = request(2 * SWEEP_CHUNK + 7);
        let rs = &mut request.grid.r_values;
        rs[3] = 0.0;
        rs[SWEEP_CHUNK + 1] = -0.0;
        rs[SWEEP_CHUNK + 2] = rs[5];
        rs[2 * SWEEP_CHUNK + 4] = rs[SWEEP_CHUNK + 9];
        rs[2 * SWEEP_CHUNK + 5] = rs[2 * SWEEP_CHUNK + 6];
        let columns = rs.len() as u64;
        let cancel = CancelToken::new();
        let roomy = SharedCache::new(1024);
        let cached = statistic(&request, &roomy, Backend::detect(), &cancel).unwrap();
        // A full cache of another reply time's tables.
        let full = SharedCache::new(8);
        let filler: Vec<f64> = (1..=8).map(f64::from).collect();
        full.get_or_compute_block(1, &filler, 2, |_, buffers| {
            buffers.iter_mut().for_each(|b| b.fill(1.0));
            Ok::<_, ()>(())
        })
        .unwrap();
        let fused = statistic(&request, &full, Backend::detect(), &cancel).unwrap();

        assert_eq!((cached.hits, cached.misses), (4, columns - 4));
        assert_eq!((fused.hits, fused.misses), (cached.hits, cached.misses));
        assert_eq!(
            (full.hits(), full.misses()),
            (roomy.hits(), roomy.misses() + 8)
        );
        assert_eq!(roomy.occupancy(), (columns as usize - 4, 0));
        assert_eq!(full.occupancy(), (8, 0), "the fused build inserted nothing");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let n_max = request.grid.n_max as usize;
        for (j, n) in (0..columns as usize).flat_map(|j| (0..n_max).map(move |n| (j, n))) {
            let at = n * columns as usize + j;
            assert_eq!(
                bits(&[fused.slabs.pi_prefix[at], fused.slabs.pi_n[at]]),
                bits(&[cached.slabs.pi_prefix[at], cached.slabs.pi_n[at]]),
                "statistic of cell (r_index = {j}, n = {})",
                n + 1
            );
        }
    }

    /// A cancelled sweep builds nothing and charges the cache nothing,
    /// and neither does a cancelled statistic build on either path.
    #[test]
    fn a_cancelled_sweep_stops_before_its_first_chunk() {
        let request = request(3 * SWEEP_CHUNK);
        let cancel = CancelToken::new();
        cancel.cancel();
        let untouched = |cache: &SharedCache| {
            assert_eq!(
                (cache.hits(), cache.misses(), cache.occupancy().0),
                (0, 0, 0)
            );
        };
        let cache = SharedCache::new(1024);
        let outcome = run::<MetricSlabs>(&request, &cache, Backend::detect(), &cancel);
        assert_eq!(outcome.err(), Some(EngineError::Cancelled));
        untouched(&cache);
        // Room for the grid, then none: the cache path, then the fused one.
        for capacity in [1024, 1] {
            let cache = SharedCache::new(capacity);
            let outcome = statistic(&request, &cache, Backend::detect(), &cancel);
            assert_eq!(outcome.err(), Some(EngineError::Cancelled));
            untouched(&cache);
        }
    }
}
