//! The bounded π-table cache.
//!
//! Eq. (1)'s running products `π_0(r) … π_{n_max}(r)` depend only on the
//! reply-time distribution and `r` — not on the economic parameters `q`,
//! `E`, `c` and not on `n`. One cached table therefore serves every probe
//! count of a sweep at that `r`, *and* every re-evaluation of the same
//! grid under changed economics. The cache keys tables on
//! `(distribution fingerprint, r bit pattern)` and keeps at most
//! `capacity` tables, evicting the least recently used in amortized
//! `O(1)`. Missing tables are built in place, in the `Arc<[f64]>` the
//! cache will keep, and preferably in a table it evicted earlier.
//!
//! A full cache admits a statistic build's tables only when they may be
//! read again ([`SharedCache::admits`]): a `calibrate` or `frontier` on
//! a reply time with no table resident, on a cache without room for its
//! grid, builds its statistic without tables the first time its
//! fingerprint is seen, and goes through the cache if it comes back
//! soon. This is admission on reuse, the idea of 2Q (Johnson & Shasha,
//! VLDB 1994) and TinyLFU (Einziger, Friedman & Manes, ACM TOS 2017).

use std::collections::hash_map::{Entry as Slot, RandomState};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::iter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::sweep::SWEEP_CHUNK;

/// Fingerprints a full cache turned away last, the list
/// [`SharedCache::admits`] keeps. A statistic build whose fingerprint is
/// on it goes through the cache: its reply time came back within the
/// last this many builds the cache turned away. 512 bytes.
const TURNED_AWAY: usize = 64;

/// Cache key: value-identity of the distribution plus the exact `r`.
///
/// `r` is keyed by bit pattern (with `-0.0` canonicalized to `0.0`) so
/// lookups are exact — a table is only ever reused for the float that
/// produced it.
pub(crate) fn r_key(r: f64) -> u64 {
    if r == 0.0 { 0.0f64 } else { r }.to_bits()
}

/// A `(fingerprint, r_key)` cache key that carries its own hash: the
/// pair's SipHash under the cache's [`RandomState`], computed once,
/// outside the lock. The map hashes it through [`PassThrough`], so its
/// lookup, insert, eviction and the recency order's compaction all reuse
/// that one hash, and a client that chooses its keys still cannot choose
/// their buckets.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    hash: u64,
    fingerprint: u64,
    r: u64,
}

impl Key {
    fn new(state: &impl BuildHasher, fingerprint: u64, r: u64) -> Key {
        Key {
            hash: state.hash_one((fingerprint, r)),
            fingerprint,
            r,
        }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The map's hasher: hands a [`Key`]'s own hash through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a cache key hashes as its one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
    entries: HashMap<Key, Entry, BuildHasherDefault<PassThrough>>,
    /// `(key, stamp)` pairs in stamp order, live and stale. Compacted
    /// to the live pairs once it holds more than twice `capacity`, which
    /// bounds it under a long run of hits with no evictions.
    order: VecDeque<(Key, u64)>,
    capacity: usize,
    clock: u64,
    /// Tables evicted over the cache's lifetime.
    evictions: u64,
    /// Evicted tables that nothing else held, oldest first, kept for a
    /// later miss to be built in; at most `min(SWEEP_CHUNK, capacity)`.
    spares: VecDeque<PiTable>,
    /// Resident tables per fingerprint, kept on insert and eviction; a
    /// fingerprint with none has no entry. Fingerprints are keyed per
    /// process, so the map hashes them through [`PassThrough`].
    resident: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    /// Fingerprints whose statistic builds were turned away, oldest
    /// first; at most [`TURNED_AWAY`].
    turned_away: VecDeque<u64>,
}

impl PiCache {
    pub(crate) fn new(capacity: usize) -> PiCache {
        PiCache {
            entries: HashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            clock: 0,
            evictions: 0,
            spares: VecDeque::new(),
            resident: HashMap::default(),
            turned_away: VecDeque::new(),
        }
    }

    /// A cached table covering at least `n_max + 1` entries, bumping its
    /// recency. A resident but too-short table counts as a miss (the
    /// caller recomputes at the larger `n_max` and re-inserts).
    fn get(&mut self, key: Key, n_max: u32) -> Option<PiTable> {
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
    fn record(&mut self, key: Key, stamp: u64) {
        self.order.push_back((key, stamp));
        if self.order.len() > 2 * self.capacity {
            let entries = &self.entries;
            self.order
                .retain(|(key, stamp)| entries.get(key).is_some_and(|e| e.stamp == *stamp));
        }
    }

    fn put(&mut self, key: Key, table: PiTable) {
        self.clock += 1;
        let stamp = self.clock;
        match self.entries.entry(key) {
            Slot::Occupied(mut slot) => {
                // Longest wins: computes race outside the lock, and a
                // raced recompute for a smaller n_max must not clobber a
                // longer resident table (π is prefix-stable, so the
                // longer table serves every need the shorter one does).
                let existing = slot.get_mut();
                if table.len() > existing.table.len() {
                    existing.table = table;
                }
                existing.stamp = stamp;
            }
            Slot::Vacant(slot) => {
                slot.insert(Entry { table, stamp });
                *self.resident.entry(key.fingerprint).or_default() += 1;
            }
        }
        self.record(key, stamp);
        while self.entries.len() > self.capacity {
            // Every resident entry has its live pair in `order`, so the
            // queue cannot run dry while the map is over capacity.
            let Some((oldest, stamp)) = self.order.pop_front() else {
                break;
            };
            if let Slot::Occupied(slot) = self.entries.entry(oldest) {
                if slot.get().stamp == stamp {
                    let evicted = slot.remove().table;
                    self.evictions += 1;
                    if let Slot::Occupied(mut count) = self.resident.entry(oldest.fingerprint) {
                        *count.get_mut() -= 1;
                        if *count.get() == 0 {
                            count.remove();
                        }
                    }
                    self.keep_spare(evicted);
                }
            }
        }
    }

    /// Keeps an evicted table for a later miss to be built in, unless a
    /// request still holds it: a shared table is never written, so it is
    /// dropped. The oldest spare goes once the list is over its bound.
    fn keep_spare(&mut self, mut table: PiTable) {
        if Arc::get_mut(&mut table).is_some() {
            self.spares.push_back(table);
            if self.spares.len() > SWEEP_CHUNK.min(self.capacity) {
                self.spares.pop_front();
            }
        }
    }

    /// Up to `count` spare tables of exactly `len` entries, the most
    /// recently evicted first; each is held by nothing else.
    fn take_spares(&mut self, len: usize, count: usize) -> Vec<PiTable> {
        let mut taken = Vec::with_capacity(count);
        let mut at = self.spares.len();
        while at > 0 && taken.len() < count {
            at -= 1;
            if self.spares[at].len() == len {
                taken.extend(self.spares.remove(at));
            }
        }
        taken
    }

    /// The admission rule of [`SharedCache::admits`], which records a
    /// fingerprint it turns away.
    fn admits(&mut self, fingerprint: u64, columns: usize) -> bool {
        if self.resident.contains_key(&fingerprint)
            || self.capacity.saturating_sub(self.entries.len()) >= columns
        {
            return true;
        }
        if let Some(at) = self.turned_away.iter().position(|&f| f == fingerprint) {
            self.turned_away.remove(at);
            return true;
        }
        self.turned_away.push_back(fingerprint);
        if self.turned_away.len() > TURNED_AWAY {
            self.turned_away.pop_front();
        }
        false
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// The cache plus its lifetime hit/miss counters, shared by every thread
/// that runs a request on the engine.
pub(crate) struct SharedCache {
    inner: Mutex<PiCache>,
    /// Keys every [`Key`]'s hash.
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedCache {
    pub(crate) fn new(capacity: usize) -> SharedCache {
        SharedCache {
            inner: Mutex::new(PiCache::new(capacity)),
            hasher: RandomState::new(),
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
    /// with one lock round-trip for the lookups, one `compute` call for
    /// *all* misses together — this is what lets the engine build missing
    /// π-tables with the blocked batch kernel — and one lock round-trip
    /// to insert what it computed.
    ///
    /// Each distinct key of the block is hashed, looked up, and if
    /// missing computed, once: `compute` receives the missing keys'
    /// canonical `r`s (`-0.0` as `0.0`) in first-seen order and one
    /// buffer of `n_max + 1` entries per `r`, and must fill every entry
    /// of each. The buffers are the tables the cache then keeps: spare
    /// tables it evicted earlier (taken in the lookups' lock round-trip),
    /// else fresh allocations, so their old contents are arbitrary. Every
    /// later `r` of the block with the same key is served from that key's
    /// table and counted as a hit. Returns the tables in `rs` order plus
    /// the block's (hits, misses).
    ///
    /// The compute runs *outside* the lock so a slow block never
    /// serializes other requests; if two threads race on the same key the
    /// table is computed twice and inserted twice — wasteful but correct
    /// (insert keeps the longer table).
    pub(crate) fn get_or_compute_block<E>(
        &self,
        fingerprint: u64,
        rs: &[f64],
        n_max: u32,
        compute: impl FnOnce(&[f64], &mut [&mut [f64]]) -> Result<(), E>,
    ) -> Result<(Vec<PiTable>, u64, u64), E> {
        let (keys, slots) = self.distinct_keys(fingerprint, rs);
        let len = n_max as usize + 1;
        let (mut tables, missing, mut built) = {
            let mut cache = self.lock();
            let tables: Vec<Option<PiTable>> =
                keys.iter().map(|&key| cache.get(key, n_max)).collect();
            let missing: Vec<usize> = (0..keys.len()).filter(|&k| tables[k].is_none()).collect();
            let spares = cache.take_spares(len, missing.len());
            (tables, missing, spares)
        };
        let misses = missing.len() as u64;
        let hits = rs.len() as u64 - misses;
        if !missing.is_empty() {
            let missing_rs: Vec<f64> = missing.iter().map(|&k| f64::from_bits(keys[k].r)).collect();
            built.resize_with(missing.len(), || iter::repeat_n(0.0, len).collect());
            // Spares are unique and fresh tables new, so no table is
            // copied here.
            let mut buffers: Vec<&mut [f64]> = built.iter_mut().map(Arc::make_mut).collect();
            compute(&missing_rs, &mut buffers)?;
            let mut cache = self.lock();
            for (&k, table) in missing.iter().zip(built) {
                cache.put(keys[k], table.clone());
                tables[k] = Some(table);
            }
        }
        // ORDERING: hit/miss tallies are monotonic statistics; readers
        // only report them, so no ordering with the table data is needed.
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        let tables = slots
            .into_iter()
            .map(|k| tables[k].clone().expect("every r resolved to a table"))
            .collect();
        Ok((tables, hits, misses))
    }

    /// Whether a statistic build (`calibrate` or `frontier`) of
    /// `fingerprint` over a grid of `columns` columns goes through the
    /// cache, in one lock round trip. It does when the cache can gain:
    /// the fingerprint has a table resident, the cache has room for
    /// every column without an eviction, or the fingerprint was turned
    /// away within the last [`TURNED_AWAY`] refusals (it came back, so
    /// its tables may be read again; it leaves the list). Otherwise the
    /// fingerprint joins that list and the build makes its statistic
    /// without tables: it inserts nothing and evicts nothing, and books
    /// its [`cold_misses`] with [`SharedCache::book`]. Sweeps never ask:
    /// their rescores and `of` verbs read their tables.
    pub(crate) fn admits(&self, fingerprint: u64, columns: usize) -> bool {
        self.lock().admits(fingerprint, columns)
    }

    /// Adds a build's hits and misses to the lifetime counters: those of
    /// a statistic build the cache turned away, chunk by chunk.
    pub(crate) fn book(&self, hits: u64, misses: u64) {
        // ORDERING: as in `get_or_compute_block`, monotonic statistics.
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// A block's distinct keys in first-seen order, each hashed once, and
    /// each `r`'s index among them. Sorting the positions by key puts
    /// twins next to each other, each run in position order, so the
    /// first of a run is its key's first sighting: one path for sorted,
    /// shuffled and repeated grids.
    fn distinct_keys(&self, fingerprint: u64, rs: &[f64]) -> (Vec<Key>, Vec<usize>) {
        let mut by_key: Vec<(u64, usize)> = rs.iter().map(|&r| r_key(r)).zip(0..).collect();
        by_key.sort_unstable();
        // First each position's first sighting of its key, then, in
        // position order, its key's index: a first sighting adds a key,
        // and a twin copies the index its earlier first sighting got.
        let mut slots = vec![0; rs.len()];
        for run in by_key.chunk_by(|a, b| a.0 == b.0) {
            for &(_, at) in run {
                slots[at] = run[0].1;
            }
        }
        let mut keys = Vec::with_capacity(rs.len());
        for at in 0..slots.len() {
            let first = slots[at];
            slots[at] = if first == at {
                keys.push(Key::new(&self.hasher, fingerprint, r_key(rs[at])));
                keys.len() - 1
            } else {
                slots[first]
            };
        }
        (keys, slots)
    }

    pub(crate) fn hits(&self) -> u64 {
        // ORDERING: statistics read; a slightly stale count is fine.
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        // ORDERING: statistics read; a slightly stale count is fine.
        self.misses.load(Ordering::Relaxed)
    }

    /// Tables resident and tables evicted so far, read under one lock.
    pub(crate) fn occupancy(&self) -> (usize, u64) {
        let cache = self.lock();
        (cache.len(), cache.evictions())
    }
}

/// The misses the cache path charges each [`SWEEP_CHUNK`]-column chunk
/// of `rs` when nothing of the reply time is resident: one per key the
/// chunk sees first in the grid (`-0.0` as `0.0`). Every other column of
/// the chunk is a hit, a repeat of a key built earlier in the grid.
pub(crate) fn cold_misses(rs: &[f64]) -> Vec<u64> {
    let mut by_key: Vec<(u64, usize)> = rs.iter().map(|&r| r_key(r)).zip(0..).collect();
    by_key.sort_unstable();
    let mut misses = vec![0; rs.len().div_ceil(SWEEP_CHUNK)];
    for run in by_key.chunk_by(|a, b| a.0 == b.0) {
        misses[run[0].1 / SWEEP_CHUNK] += 1;
    }
    misses
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
            let (mut tables, _, misses) = self.get_or_compute_block(
                fingerprint,
                std::slice::from_ref(&r),
                n_max,
                |_, buffers| {
                    buffers[0].copy_from_slice(&compute()?);
                    Ok(())
                },
            )?;
            Ok((tables.pop().expect("one table per r"), misses == 0))
        }
    }

    impl PiCache {
        /// [`PiCache::get`] for a `(fingerprint, r_key)` pair.
        fn lookup(&mut self, (fingerprint, r): (u64, u64), n_max: u32) -> Option<PiTable> {
            self.get(key(fingerprint, r), n_max)
        }

        /// [`PiCache::put`] for a `(fingerprint, r_key)` pair.
        fn insert(&mut self, (fingerprint, r): (u64, u64), table: PiTable) {
            self.put(key(fingerprint, r), table);
        }
    }

    /// The pair's key under SipHash with fixed keys, so a bare `PiCache`
    /// can be driven without a `SharedCache`'s hasher.
    fn key(fingerprint: u64, r: u64) -> Key {
        use std::collections::hash_map::DefaultHasher;
        Key::new(
            &BuildHasherDefault::<DefaultHasher>::default(),
            fingerprint,
            r,
        )
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
        assert_eq!(cache.occupancy().0, 1);
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
        assert_eq!(cache.occupancy(), (2, 1));
        let (_, hit1) = cache.get_or_compute(1, 1.0, 2, || table(2)).unwrap();
        assert!(hit1, "recently used entry survived");
        let (_, hit2) = cache.get_or_compute(2, 1.0, 2, || table(2)).unwrap();
        assert!(!hit2, "LRU entry was evicted");
        // Re-inserting key 2 evicted key 3; the hit on key 1 evicted nothing.
        assert_eq!(cache.occupancy().1, 2);
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
            .map(|(k, e)| ((k.fingerprint, k.r), e.table.len()))
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
                if rng.gen_bool(0.5) {
                    assert_eq!(
                        cache.lookup(key, n_max).map(|t| t.len()),
                        model.lookup(key, n_max),
                        "lookup at {what}"
                    );
                } else {
                    let len = n_max as usize + 1;
                    cache.insert(key, PiTable::from(vec![0.0; len]));
                    model.insert(key, len);
                }
                assert_eq!(resident(&cache), model.resident(), "residents at {what}");
                assert_eq!(cache.evictions(), model.evictions, "evictions at {what}");
                let mut per_fingerprint: Vec<(u64, usize)> =
                    cache.resident.iter().map(|(&f, &n)| (f, n)).collect();
                per_fingerprint.sort_unstable();
                let counted: Vec<(u64, usize)> = model
                    .resident()
                    .chunk_by(|a, b| a.0 .0 == b.0 .0)
                    .map(|run| (run[0].0 .0, run.len()))
                    .collect();
                assert_eq!(
                    per_fingerprint, counted,
                    "resident tables per fingerprint at {what}"
                );
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
        assert_eq!(cache.occupancy().0, 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn block_fetch_computes_only_the_missing_columns() {
        let cache = SharedCache::new(16);
        cache.get_or_compute(9, 2.0, 4, || table(4)).unwrap();
        let rs = [1.0, 2.0, 3.0];
        let (tables, hits, misses) = cache
            .get_or_compute_block(9, &rs, 4, |missing, buffers| {
                assert_eq!(missing, &[1.0, 3.0], "2.0 is already resident");
                for buffer in buffers.iter_mut() {
                    buffer.copy_from_slice(&table(4).unwrap());
                }
                Ok::<_, ()>(())
            })
            .unwrap();
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.len(), 5);
        }
        // Everything is resident now: a second block is all hits.
        let (_, hits, misses) = cache
            .get_or_compute_block(9, &rs, 4, |_, _| -> Result<_, ()> {
                panic!("warm block must not compute")
            })
            .unwrap();
        assert_eq!((hits, misses), (3, 0));
    }

    /// Twins within a block are looked up and built once and served from
    /// that one table as hits; `-0.0` shares `0.0`'s key, and `compute`
    /// sees the canonical `0.0`. The counters are the same on every run.
    #[test]
    fn block_fetch_builds_each_distinct_r_once() {
        let rs = [1.0, 2.0, 1.0, -0.0, 0.0];
        for _ in 0..20 {
            let cache = SharedCache::new(16);
            let (tables, hits, misses) = cache
                .get_or_compute_block(9, &rs, 4, |missing, buffers| {
                    let bits: Vec<u64> = missing.iter().map(|r| r.to_bits()).collect();
                    let want: Vec<u64> = [1.0f64, 2.0, 0.0].iter().map(|r| r.to_bits()).collect();
                    assert_eq!(bits, want, "each distinct key once, canonical");
                    for (buffer, &r) in buffers.iter_mut().zip(missing) {
                        buffer.fill(r);
                    }
                    Ok::<_, ()>(())
                })
                .unwrap();
            assert_eq!((hits, misses), (2, 3));
            assert_eq!(
                (cache.hits(), cache.misses(), cache.occupancy().0),
                (2, 3, 3)
            );
            assert!(Arc::ptr_eq(&tables[0], &tables[2]), "twins share a table");
            assert!(Arc::ptr_eq(&tables[3], &tables[4]), "±0 share a table");
            let firsts: Vec<f64> = tables.iter().map(|t| t[0]).collect();
            assert_eq!(firsts, [1.0, 2.0, 1.0, 0.0, 0.0]);
        }
    }

    /// Fills each buffer with its `r`: a table whose bits name the `r` it
    /// was built for.
    fn fill_with_r(missing: &[f64], buffers: &mut [&mut [f64]]) -> Result<(), ()> {
        for (buffer, &r) in buffers.iter_mut().zip(missing) {
            buffer.fill(r);
        }
        Ok(())
    }

    fn addresses<'a>(tables: impl IntoIterator<Item = &'a PiTable>) -> Vec<*const f64> {
        tables
            .into_iter()
            .map(|t| Arc::as_ptr(t).cast::<f64>())
            .collect()
    }

    /// A block's misses are built in the tables earlier inserts evicted,
    /// as long as nothing else holds them and their length fits: a table
    /// a caller still holds keeps its bits, and a spare of another
    /// length waits for a block that needs its length.
    #[test]
    fn misses_are_built_in_evicted_tables_nothing_else_holds() {
        let cache = SharedCache::new(4);
        let (first, _, _) = cache
            .get_or_compute_block(1, &[1.0, 2.0, 3.0, 4.0], 3, fill_with_r)
            .unwrap();
        let first_addresses = addresses(&first);
        let held = first[0].clone();
        drop(first);
        // Its lookups find no spare; its inserts evict the first block,
        // of which the held table is shared and so dropped, not kept.
        let (second, _, _) = cache
            .get_or_compute_block(1, &[5.0, 6.0, 7.0, 8.0], 3, fill_with_r)
            .unwrap();
        assert!(addresses(&second)
            .iter()
            .all(|a| !first_addresses.contains(a)));
        assert_eq!(cache.lock().spares.len(), 3);
        drop(second);
        let (third, hits, misses) = cache
            .get_or_compute_block(1, &[9.0, 10.0, 11.0, 12.0], 3, fill_with_r)
            .unwrap();
        assert_eq!((hits, misses), (0, 4));
        let reused: Vec<bool> = addresses(&third)
            .iter()
            .map(|a| first_addresses[1..].contains(a))
            .collect();
        assert_eq!(
            reused,
            [true, true, true, false],
            "the three spares, then one fresh table"
        );
        assert!(!addresses(&third).contains(&first_addresses[0]));
        assert_eq!(
            held.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [1f64.to_bits(); 4]
        );
        for (table, r) in third.iter().zip([9.0, 10.0, 11.0, 12.0]) {
            assert_eq!(&table[..], &[r; 4], "every entry rebuilt");
        }
        drop(third);
        // The second block's tables are spares now, of length 4; a block
        // at n_max 5 needs tables of 6 and leaves them be.
        let spares = addresses(&cache.lock().spares);
        assert_eq!(spares.len(), 4);
        let (longer, _, misses) = cache
            .get_or_compute_block(1, &[13.0, 14.0], 5, fill_with_r)
            .unwrap();
        assert_eq!(misses, 2);
        assert!(addresses(&longer).iter().all(|a| !spares.contains(a)));
        // Its inserts evicted two short tables, which pushed the two
        // oldest spares out of the bound of four.
        let left = cache
            .lock()
            .spares
            .iter()
            .map(|t| t.len())
            .collect::<Vec<_>>();
        assert_eq!(left, [4; 4]);
        assert_eq!(cache.occupancy(), (4, 10));
    }

    /// The spare list keeps at most one block's worth of tables, and no
    /// more than the cache itself holds, on any traffic.
    #[test]
    fn spares_never_exceed_their_bound() {
        for capacity in [1, 8, 64, 200] {
            let cache = SharedCache::new(capacity);
            let bound = SWEEP_CHUNK.min(capacity);
            let mut next = 0.0;
            let mut reused = 0;
            for step in 0..40 {
                let width = [1, 7, 64, 130][step % 4];
                let n_max = [3, 3, 3, 5][step / 10 % 4];
                let rs: Vec<f64> = (0..width).map(|k| next + k as f64).collect();
                next += width as f64;
                let spares = addresses(&cache.lock().spares);
                let (tables, _, _) = cache
                    .get_or_compute_block(2, &rs, n_max, fill_with_r)
                    .unwrap();
                reused += addresses(&tables)
                    .iter()
                    .filter(|a| spares.contains(a))
                    .count();
                drop(tables);
                let held = cache.lock().spares.len();
                assert!(
                    held <= bound,
                    "{held} spares at capacity {capacity}, step {step}"
                );
            }
            assert!(reused > 0, "capacity {capacity} never reused a table");
        }
    }

    /// A full cache turns a statistic build away only when it has no
    /// table of the fingerprint and no room for the grid, and admits the
    /// fingerprint when it comes back within [`TURNED_AWAY`] refusals.
    #[test]
    fn a_full_cache_admits_a_statistic_build_on_reuse() {
        let cache = SharedCache::new(4);
        assert!(cache.admits(7, 4), "room for the whole grid");
        cache
            .get_or_compute_block(1, &[1.0, 2.0, 3.0], 2, fill_with_r)
            .unwrap();
        assert!(cache.admits(7, 1), "room for one column");
        assert!(!cache.admits(7, 2), "no room, nothing resident");
        assert!(cache.admits(1, 64), "resident");
        assert!(cache.admits(7, 2), "turned away once, so back on reuse");
        assert!(!cache.admits(7, 2), "and off the list again");
        // The fourth table fills the cache; the turned-away list forgets
        // its oldest fingerprint past its bound.
        cache
            .get_or_compute_block(1, &[4.0], 2, fill_with_r)
            .unwrap();
        for fingerprint in 100..100 + TURNED_AWAY as u64 {
            assert!(!cache.admits(fingerprint, 1));
        }
        assert_eq!(cache.lock().turned_away.len(), TURNED_AWAY);
        assert!(!cache.admits(7, 1), "7 fell off the list");
        assert!(cache.admits(100 + TURNED_AWAY as u64 - 1, 1));
        // Evicting a fingerprint's last table ends its residency.
        cache
            .get_or_compute_block(2, &[1.0, 2.0, 3.0, 4.0], 2, fill_with_r)
            .unwrap();
        assert_eq!(cache.lock().resident.get(&1), None);
        assert!(!cache.admits(1, 1));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 8),
            "admission books nothing"
        );
    }

    /// Each key's first column in the grid is its one miss, counted in
    /// its chunk; `-0.0` is `0.0`, and repeats in later chunks are hits.
    #[test]
    fn cold_misses_count_each_key_in_the_chunk_that_first_sees_it() {
        assert_eq!(cold_misses(&[]), Vec::<u64>::new());
        assert_eq!(cold_misses(&[1.0, 2.0, 1.0, -0.0, 0.0]), [3]);
        let mut rs: Vec<f64> = (0..2 * SWEEP_CHUNK + 7).map(|k| k as f64).collect();
        rs[1] = -0.0;
        rs[SWEEP_CHUNK] = 5.0;
        rs[SWEEP_CHUNK + 1] = 0.0;
        rs[2 * SWEEP_CHUNK] = 2.0 * SWEEP_CHUNK as f64 + 1.0;
        assert_eq!(
            cold_misses(&rs),
            [SWEEP_CHUNK as u64 - 1, SWEEP_CHUNK as u64 - 2, 7 - 1]
        );
    }

    /// The block fetch as it deduplicated a block before the sort, with a
    /// map from each key to its index in first-seen order. Kept as the
    /// model the sort must match.
    fn block_by_map(
        cache: &SharedCache,
        fingerprint: u64,
        rs: &[f64],
        n_max: u32,
        compute: impl FnOnce(&[f64]) -> Result<Vec<Vec<f64>>, ()>,
    ) -> (Vec<PiTable>, u64, u64) {
        let mut keys: Vec<u64> = Vec::with_capacity(rs.len());
        let mut index_of: HashMap<u64, usize> = HashMap::with_capacity(rs.len());
        let slots: Vec<usize> = rs
            .iter()
            .map(|&r| match index_of.entry(r_key(r)) {
                Slot::Occupied(slot) => *slot.get(),
                Slot::Vacant(slot) => {
                    keys.push(*slot.key());
                    *slot.insert(keys.len() - 1)
                }
            })
            .collect();
        let mut tables: Vec<Option<PiTable>> = {
            let mut cache = cache.lock();
            keys.iter()
                .map(|&key| cache.lookup((fingerprint, key), n_max))
                .collect()
        };
        let missing: Vec<usize> = (0..keys.len()).filter(|&k| tables[k].is_none()).collect();
        let misses = missing.len() as u64;
        let hits = rs.len() as u64 - misses;
        if !missing.is_empty() {
            let missing_rs: Vec<f64> = missing.iter().map(|&k| f64::from_bits(keys[k])).collect();
            let computed = compute(&missing_rs).unwrap();
            let mut cache = cache.lock();
            for (&k, table) in missing.iter().zip(computed) {
                let table = PiTable::from(table);
                cache.insert((fingerprint, keys[k]), table.clone());
                tables[k] = Some(table);
            }
        }
        cache.hits.fetch_add(hits, Ordering::Relaxed);
        cache.misses.fetch_add(misses, Ordering::Relaxed);
        let tables = slots
            .into_iter()
            .map(|k| tables[k].clone().unwrap())
            .collect();
        (tables, hits, misses)
    }

    /// Seeded blocks of 1–130 `r`s (sorted, shuffled, or drawn with
    /// repeats, with `±0.0` among them) over a few fingerprints and
    /// `n_max`s, on a cache small enough to evict, so each block finds
    /// part of its keys resident. The sort and the map model must give
    /// `compute` the same list, count the same hits and misses, share
    /// tables between the same positions and return the same tables.
    #[test]
    fn block_fetch_matches_the_map_dedupe_model() {
        use zeroconf_rng::rngs::StdRng;
        use zeroconf_rng::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5EED_B10C);
        let pool: Vec<f64> = [-0.0, 0.0]
            .into_iter()
            .chain((1..200).map(|k| k as f64 / 16.0))
            .collect();
        let (cache, model) = (SharedCache::new(96), SharedCache::new(96));
        for step in 0..600 {
            let len = rng.gen_range(1..131usize);
            let mut rs: Vec<f64> = match rng.gen_range(0..3u32) {
                // With repeats, from a narrow stretch of the pool.
                0 => {
                    let from = rng.gen_range(0..pool.len() - 8);
                    (0..len)
                        .map(|_| pool[from + rng.gen_range(0..8usize)])
                        .collect()
                }
                // Distinct, in pool order, then shuffled or left sorted.
                _ => {
                    let from = rng.gen_range(0..pool.len() - len.min(pool.len() - 1));
                    pool[from..].iter().copied().take(len).collect()
                }
            };
            if rng.gen_bool(0.5) {
                for i in (1..rs.len()).rev() {
                    rs.swap(i, rng.gen_range(0..i + 1));
                }
            } else {
                rs.sort_by(f64::total_cmp);
            }
            let fingerprint = rng.gen_range(0..3u64);
            let n_max = rng.gen_range(1..6u32);
            let what = format!("step {step}: fingerprint {fingerprint}, n_max {n_max}, rs {rs:?}");

            let build = |seen: &mut Vec<u64>, missing: &[f64]| -> Result<Vec<Vec<f64>>, ()> {
                seen.extend(missing.iter().map(|r| r.to_bits()));
                Ok(missing
                    .iter()
                    .map(|&r| vec![r + fingerprint as f64; n_max as usize + 1])
                    .collect())
            };
            let (mut got_seen, mut want_seen) = (Vec::new(), Vec::new());
            let (got, got_hits, got_misses) = cache
                .get_or_compute_block(fingerprint, &rs, n_max, |m, buffers| {
                    for (buffer, table) in buffers.iter_mut().zip(build(&mut got_seen, m)?) {
                        buffer.copy_from_slice(&table);
                    }
                    Ok::<_, ()>(())
                })
                .unwrap();
            let (want, want_hits, want_misses) =
                block_by_map(&model, fingerprint, &rs, n_max, |m| {
                    build(&mut want_seen, m)
                });

            assert_eq!(got_seen, want_seen, "compute's list at {what}");
            assert_eq!((got_hits, got_misses), (want_hits, want_misses), "{what}");
            let bits = |tables: &[PiTable]| -> Vec<Vec<u64>> {
                tables
                    .iter()
                    .map(|t| t.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want), "tables at {what}");
            // Each position's first position holding the very same table.
            let sharing = |tables: &[PiTable]| -> Vec<usize> {
                (0..tables.len())
                    .map(|i| {
                        (0..=i)
                            .find(|&j| Arc::ptr_eq(&tables[j], &tables[i]))
                            .unwrap()
                    })
                    .collect()
            };
            assert_eq!(sharing(&got), sharing(&want), "shared tables at {what}");
            assert_eq!(
                (cache.hits(), cache.misses(), cache.occupancy()),
                (model.hits(), model.misses(), model.occupancy()),
                "counters after {what}"
            );
        }
        assert!(cache.occupancy().1 > 0, "the draws never evicted");
    }
}
