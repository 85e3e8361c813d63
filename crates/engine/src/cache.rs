//! The bounded π-table cache.
//!
//! Eq. (1)'s running products `π_0(r) … π_{n_max}(r)` depend only on the
//! reply-time distribution and `r` — not on the economic parameters `q`,
//! `E`, `c` and not on `n`. One cached table therefore serves every probe
//! count of a sweep at that `r`, *and* every re-evaluation of the same
//! grid under changed economics. The cache keys tables on
//! `(distribution fingerprint, r bit pattern)` and keeps at most
//! `capacity` tables, evicting the least recently used in amortized
//! `O(1)`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: value-identity of the distribution plus the exact `r`.
///
/// `r` is keyed by bit pattern (with `-0.0` canonicalized to `0.0`) so
/// lookups are exact — a table is only ever reused for the float that
/// produced it.
pub(crate) fn r_key(r: f64) -> u64 {
    if r == 0.0 { 0.0f64 } else { r }.to_bits()
}

/// A shared, immutable π-table. Cloning is an `Arc` bump — never a slab
/// copy.
pub(crate) type PiTable = Arc<[f64]>;

struct Entry {
    table: PiTable,
    stamp: u64,
}

/// A bounded, least-recently-used map from `(fingerprint, r)` to π-tables.
///
/// Every lookup hit and insert gives its entry a fresh stamp from a
/// monotone clock and appends `(key, stamp)` to `order`, so `order` is
/// sorted by stamp. A pair is live while its entry still carries that
/// stamp; a later touch of the same key leaves the older pair stale.
/// The least recently used entry is therefore the first live pair:
/// eviction pops stale pairs off the front until it reaches one. Each
/// pair is pushed once and popped or compacted away once, so eviction is
/// amortized `O(1)` — a cold sweep that evicts one table per miss does
/// not pay a scan of the whole cache for each.
pub(crate) struct PiCache {
    entries: HashMap<(u64, u64), Entry>,
    /// `(key, stamp)` pairs in stamp order, live and stale. Compacted
    /// to the live pairs once it holds more than twice `capacity`, which
    /// bounds it under a long run of hits with no evictions.
    order: VecDeque<((u64, u64), u64)>,
    capacity: usize,
    clock: u64,
    /// Tables evicted over the cache's lifetime.
    evictions: u64,
}

impl PiCache {
    pub(crate) fn new(capacity: usize) -> PiCache {
        PiCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            clock: 0,
            evictions: 0,
        }
    }

    /// A cached table covering at least `n_max + 1` entries, bumping its
    /// recency. A resident but too-short table counts as a miss (the
    /// caller recomputes at the larger `n_max` and re-inserts).
    fn lookup(&mut self, key: (u64, u64), n_max: u32) -> Option<PiTable> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(&key)?;
        if entry.table.len() <= n_max as usize {
            return None;
        }
        entry.stamp = clock;
        let table = entry.table.clone();
        self.record(key, clock);
        Some(table)
    }

    /// Appends `key`'s new stamp to the recency order, compacting the
    /// order to its live pairs when stale ones have piled up.
    fn record(&mut self, key: (u64, u64), stamp: u64) {
        self.order.push_back((key, stamp));
        if self.order.len() > 2 * self.capacity {
            let entries = &self.entries;
            self.order
                .retain(|(key, stamp)| entries.get(key).is_some_and(|e| e.stamp == *stamp));
        }
    }

    /// Like `lookup`, but without bumping recency or cloning — used by
    /// the scheduler to estimate how much of a sweep is already warm.
    fn peek(&self, key: (u64, u64), n_max: u32) -> bool {
        self.entries
            .get(&key)
            .is_some_and(|entry| entry.table.len() > n_max as usize)
    }

    fn insert(&mut self, key: (u64, u64), table: PiTable) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(existing) = self.entries.get_mut(&key) {
            // Longest wins: computes race outside the lock, and a raced
            // recompute for a smaller n_max must not clobber a longer
            // resident table (π is prefix-stable, so the longer table
            // serves every need the shorter one does).
            if table.len() > existing.table.len() {
                existing.table = table;
            }
            existing.stamp = stamp;
        } else {
            self.entries.insert(key, Entry { table, stamp });
        }
        self.record(key, stamp);
        while self.entries.len() > self.capacity {
            // Every resident entry has its live pair in `order`, so the
            // queue cannot run dry while the map is over capacity.
            let Some((oldest, stamp)) = self.order.pop_front() else {
                break;
            };
            if self.entries.get(&oldest).is_some_and(|e| e.stamp == stamp) {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// The cache plus its lifetime hit/miss counters, shared between the
/// engine front-end and the worker threads.
pub(crate) struct SharedCache {
    inner: Mutex<PiCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedCache {
    pub(crate) fn new(capacity: usize) -> SharedCache {
        SharedCache {
            inner: Mutex::new(PiCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PiCache> {
        // A panic while holding the lock cannot corrupt the map (all
        // mutations are single calls), so a poisoned cache stays usable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block fetch: the tables for a whole slice of listening periods,
    /// with one lock round-trip for the lookups and one `compute` call
    /// for *all* misses together — this is what lets the engine
    /// build missing π-tables with the blocked batch kernel.
    ///
    /// `compute` receives the missing `r`s (in `rs` order) and must
    /// return one table per entry. Returns the tables in `rs` order plus
    /// the block's (hits, misses).
    ///
    /// The compute runs *outside* the lock so a slow block never
    /// serializes other workers; if two threads race on the same key the
    /// table is computed twice and inserted twice — wasteful but correct
    /// (insert keeps the longer table), and impossible within one sweep
    /// (each `r` belongs to one work chunk).
    pub(crate) fn get_or_compute_block<E>(
        &self,
        fingerprint: u64,
        rs: &[f64],
        n_max: u32,
        compute: impl FnOnce(&[f64]) -> Result<Vec<Vec<f64>>, E>,
    ) -> Result<(Vec<PiTable>, u64, u64), E> {
        let mut tables: Vec<Option<PiTable>> = vec![None; rs.len()];
        let mut missing: Vec<usize> = Vec::new();
        {
            let mut cache = self.lock();
            for (j, &r) in rs.iter().enumerate() {
                match cache.lookup((fingerprint, r_key(r)), n_max) {
                    Some(table) => tables[j] = Some(table),
                    None => missing.push(j),
                }
            }
        }
        let hits = (rs.len() - missing.len()) as u64;
        let misses = missing.len() as u64;
        if !missing.is_empty() {
            let missing_rs: Vec<f64> = missing.iter().map(|&j| rs[j]).collect();
            let computed = compute(&missing_rs)?;
            assert_eq!(
                computed.len(),
                missing.len(),
                "block compute must return one table per missing r"
            );
            for (&j, table) in missing.iter().zip(computed) {
                let table = PiTable::from(table);
                self.lock()
                    .insert((fingerprint, r_key(rs[j])), table.clone());
                tables[j] = Some(table);
            }
        }
        // ORDERING: hit/miss tallies are monotonic statistics; readers
        // only report them, so no ordering with the table data is needed.
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        let tables = tables
            .into_iter()
            .map(|t| t.expect("every r resolved to a table"))
            .collect();
        Ok((tables, hits, misses))
    }

    /// How many of `rs` are already resident in memory (covering
    /// `n_max`), without touching recency or the hit counters. The
    /// scheduler uses this to cost a sweep before deciding whether to
    /// fan it out.
    pub(crate) fn count_resident(&self, fingerprint: u64, rs: &[f64], n_max: u32) -> usize {
        let cache = self.lock();
        rs.iter()
            .filter(|&&r| cache.peek((fingerprint, r_key(r)), n_max))
            .count()
    }

    pub(crate) fn hits(&self) -> u64 {
        // ORDERING: statistics read; a slightly stale count is fine.
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        // ORDERING: statistics read; a slightly stale count is fine.
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.lock().evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> Result<Vec<f64>, ()> {
        Ok((0..=n).map(|i| 1.0 / (i + 1) as f64).collect())
    }

    impl SharedCache {
        /// Fetches the table for `(fingerprint, r)` covering `n_max`, or
        /// computes and caches it, through the one-`r` block. Returns the
        /// table and whether it was a hit.
        fn get_or_compute<E>(
            &self,
            fingerprint: u64,
            r: f64,
            n_max: u32,
            compute: impl FnOnce() -> Result<Vec<f64>, E>,
        ) -> Result<(PiTable, bool), E> {
            let (mut tables, _, misses) =
                self.get_or_compute_block(fingerprint, std::slice::from_ref(&r), n_max, |_| {
                    Ok(vec![compute()?])
                })?;
            Ok((tables.pop().expect("one table per r"), misses == 0))
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = SharedCache::new(8);
        let (t1, hit1) = cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        let (t2, hit2) = cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&t1, &t2), "warm hit must not copy the slab");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn different_r_or_fingerprint_misses() {
        let cache = SharedCache::new(8);
        cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        let (_, hit) = cache.get_or_compute(7, 3.0, 4, || table(4)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_compute(8, 2.0, 4, || table(4)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn short_table_is_a_miss_and_longer_replaces_it() {
        let cache = SharedCache::new(8);
        cache.get_or_compute(1, 1.0, 4, || table(4)).unwrap();
        // Needs n = 9, resident table only covers 4: recompute.
        let (t, hit) = cache.get_or_compute(1, 1.0, 9, || table(9)).unwrap();
        assert!(!hit);
        assert_eq!(t.len(), 10);
        // A shorter need now hits the longer table.
        let (t, hit) = cache.get_or_compute(1, 1.0, 3, || table(3)).unwrap();
        assert!(hit);
        assert_eq!(t.len(), 10);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn raced_shorter_insert_keeps_the_longer_table() {
        // Regression: two threads racing the same key used to let the
        // shorter compute clobber the longer one, silently degrading
        // later lookups to misses. Replay the race's insert order.
        let mut cache = PiCache::new(8);
        let key = (1, r_key(1.0));
        cache.insert(key, PiTable::from(table(9).unwrap()));
        cache.insert(key, PiTable::from(table(4).unwrap()));
        let resident = cache.lookup(key, 9).expect("longer table survived");
        assert_eq!(resident.len(), 10);
        // The raced insert still refreshed recency, and a genuinely
        // longer insert still replaces.
        cache.insert(key, PiTable::from(table(12).unwrap()));
        assert_eq!(cache.lookup(key, 12).unwrap().len(), 13);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_drops_least_recently_used() {
        let cache = SharedCache::new(2);
        cache.get_or_compute(1, 1.0, 2, || table(2)).unwrap();
        cache.get_or_compute(2, 1.0, 2, || table(2)).unwrap();
        // Touch key 1 so key 2 is the LRU.
        cache.get_or_compute(1, 1.0, 2, || table(2)).unwrap();
        cache.get_or_compute(3, 1.0, 2, || table(2)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let (_, hit1) = cache.get_or_compute(1, 1.0, 2, || table(2)).unwrap();
        assert!(hit1, "recently used entry survived");
        let (_, hit2) = cache.get_or_compute(2, 1.0, 2, || table(2)).unwrap();
        assert!(!hit2, "LRU entry was evicted");
        // Re-inserting key 2 evicted key 3; the hit on key 1 evicted nothing.
        assert_eq!(cache.evictions(), 2);
    }

    /// The eviction the cache used before its recency queue: a scan for
    /// the minimal stamp on every eviction, over `(table length, stamp)`
    /// entries. Kept as the model the queue must match victim for victim.
    struct ScanCache {
        entries: HashMap<(u64, u64), (usize, u64)>,
        capacity: usize,
        clock: u64,
        evictions: u64,
    }

    impl ScanCache {
        fn new(capacity: usize) -> ScanCache {
            ScanCache {
                entries: HashMap::new(),
                capacity: capacity.max(1),
                clock: 0,
                evictions: 0,
            }
        }

        fn lookup(&mut self, key: (u64, u64), n_max: u32) -> Option<usize> {
            self.clock += 1;
            let clock = self.clock;
            let entry = self.entries.get_mut(&key)?;
            if entry.0 <= n_max as usize {
                return None;
            }
            entry.1 = clock;
            Some(entry.0)
        }

        fn peek(&self, key: (u64, u64), n_max: u32) -> bool {
            self.entries
                .get(&key)
                .is_some_and(|entry| entry.0 > n_max as usize)
        }

        fn insert(&mut self, key: (u64, u64), len: usize) {
            self.clock += 1;
            let stamp = self.clock;
            if let Some(existing) = self.entries.get_mut(&key) {
                if len > existing.0 {
                    existing.0 = len;
                }
                existing.1 = stamp;
            } else {
                self.entries.insert(key, (len, stamp));
            }
            while self.entries.len() > self.capacity {
                let oldest = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| *k)
                    .unwrap();
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }

        fn resident(&self) -> Vec<((u64, u64), usize)> {
            let mut resident: Vec<_> = self.entries.iter().map(|(k, e)| (*k, e.0)).collect();
            resident.sort_unstable();
            resident
        }
    }

    fn resident(cache: &PiCache) -> Vec<((u64, u64), usize)> {
        let mut resident: Vec<_> = cache
            .entries
            .iter()
            .map(|(k, e)| (*k, e.table.len()))
            .collect();
        resident.sort_unstable();
        resident
    }

    #[test]
    fn queue_eviction_matches_the_min_stamp_scan() {
        use zeroconf_rng::rngs::StdRng;
        use zeroconf_rng::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x00C0_FFEE);
        for capacity in 1..=64usize {
            let mut cache = PiCache::new(capacity);
            let mut model = ScanCache::new(capacity);
            // About twice as many keys as slots, over two fingerprints,
            // so evictions and re-inserts of evicted keys both happen.
            let keys = 2 * capacity as u64 + 2;
            for step in 0..1_600 {
                let k = rng.gen_range(0..keys);
                let key = (k % 2, r_key(k as f64 * 0.25));
                // Table lengths vary, so longest-wins fires and a
                // resident but too-short table misses.
                let n_max = rng.gen_range(1..8u32);
                let what = format!("capacity {capacity}, step {step}, key {k}, n_max {n_max}");
                match rng.gen_range(0..3u32) {
                    0 => assert_eq!(
                        cache.lookup(key, n_max).map(|t| t.len()),
                        model.lookup(key, n_max),
                        "lookup at {what}"
                    ),
                    1 => {
                        let len = n_max as usize + 1;
                        cache.insert(key, PiTable::from(vec![0.0; len]));
                        model.insert(key, len);
                    }
                    _ => assert_eq!(
                        cache.peek(key, n_max),
                        model.peek(key, n_max),
                        "peek at {what}"
                    ),
                }
                assert_eq!(resident(&cache), model.resident(), "residents at {what}");
                assert_eq!(cache.evictions(), model.evictions, "evictions at {what}");
                assert!(cache.order.len() <= 2 * capacity, "order at {what}");
            }
        }
    }

    #[test]
    fn recency_order_stays_bounded_under_hits_alone() {
        // A fully warm workload: the cache fills once, then only hits.
        let capacity = 16;
        let mut cache = PiCache::new(capacity);
        for k in 0..capacity as u64 {
            cache.insert((1, k), PiTable::from(vec![0.0; 3]));
        }
        for round in 0..10_000u64 {
            let key = (1, round % capacity as u64);
            assert!(cache.lookup(key, 2).is_some());
            assert!(
                cache.order.len() <= 2 * capacity,
                "{} queued pairs after {round} hits",
                cache.order.len()
            );
        }
        assert_eq!((cache.len(), cache.evictions()), (capacity, 0));
    }

    #[test]
    fn negative_zero_r_shares_the_zero_key() {
        assert_eq!(r_key(0.0), r_key(-0.0));
        assert_ne!(r_key(0.0), r_key(1.0));
    }

    #[test]
    fn compute_errors_propagate_and_cache_nothing() {
        let cache = SharedCache::new(4);
        let r: Result<(PiTable, bool), &str> = cache.get_or_compute(5, 1.0, 2, || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn block_fetch_computes_only_the_missing_columns() {
        let cache = SharedCache::new(16);
        cache.get_or_compute(9, 2.0, 4, || table(4)).unwrap();
        let rs = [1.0, 2.0, 3.0];
        let (tables, hits, misses) = cache
            .get_or_compute_block(9, &rs, 4, |missing| {
                assert_eq!(missing, &[1.0, 3.0], "2.0 is already resident");
                Ok::<_, ()>(missing.iter().map(|_| table(4).unwrap()).collect())
            })
            .unwrap();
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.len(), 5);
        }
        // Everything is resident now: a second block is all hits.
        let (_, hits, misses) = cache
            .get_or_compute_block(9, &rs, 4, |_| -> Result<_, ()> {
                panic!("warm block must not compute")
            })
            .unwrap();
        assert_eq!((hits, misses), (3, 0));
    }

    #[test]
    fn count_resident_does_not_disturb_recency_or_counters() {
        let cache = SharedCache::new(8);
        cache.get_or_compute(3, 1.0, 4, || table(4)).unwrap();
        let (hits, misses) = (cache.hits(), cache.misses());
        assert_eq!(cache.count_resident(3, &[1.0, 2.0], 4), 1);
        assert_eq!(cache.count_resident(3, &[1.0], 9), 0, "table too short");
        assert_eq!((cache.hits(), cache.misses()), (hits, misses));
    }
}
