//! The bounded π-table cache, with optional cross-process persistence.
//!
//! Eq. (1)'s running products `π_0(r) … π_{n_max}(r)` depend only on the
//! reply-time distribution and `r` — not on the economic parameters `q`,
//! `E`, `c` and not on `n`. One cached table therefore serves every probe
//! count of a sweep at that `r`, *and* every re-evaluation of the same
//! grid under changed economics. The cache keys tables on
//! `(distribution fingerprint, r bit pattern)` and keeps at most
//! `capacity` tables, evicting the least recently used in amortized
//! `O(1)`.
//!
//! With a spill directory configured, computed tables are additionally
//! persisted as `(fingerprint, r_bits)`-named files so a later *process*
//! re-walking the same grid skips the π recomputation too. A spill hit is
//! read into owned memory, so once loaded a table no longer depends on
//! its file: another process may rewrite, truncate or delete it freely.
//! Disk traffic is strictly best effort: unreadable, truncated or corrupt
//! files are ordinary misses and failed writes lose nothing but the spill.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
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

/// On-disk spill format, version 2 — fixed-width and alignment-safe:
///
/// ```text
/// offset  size  field
///      0     8  magic "ZCPITAB2" (format version in the final byte)
///      8     8  distribution fingerprint, u64 LE
///     16     8  r bit pattern (−0.0 canonicalized), u64 LE
///     24     8  entry count N = stored n_max + 1, u64 LE
///     32   8·N  π entries, f64 LE
/// ```
///
/// The 32-byte header is a multiple of 8, so the slab starts on an
/// 8-byte boundary of the file and is decoded one fixed-width f64 at a
/// time. The fingerprint and r bits are repeated inside the file so a
/// renamed or misplaced spill can never masquerade as another table.
/// Tables are bit-exact across processes because the bytes *are* the f64
/// bit patterns.
/// Version-1 files (`ZCPITAB1`) fail the magic check: a miss, upgraded
/// in place by the next recompute.
pub(crate) mod disk {
    use std::fs;
    use std::io::Read;
    use std::path::{Path, PathBuf};

    /// The spill-format magic: file format v2. The single source of
    /// truth for these bytes — everything else (including the audit's
    /// const-drift rule and the `spill_format` integration test) must
    /// reference this constant.
    pub const SPILL_MAGIC: &[u8; 8] = b"ZCPITAB2";
    /// Spill header width in bytes: magic, fingerprint, r bits, count —
    /// four 8-byte fields, so the slab starts 8-aligned in the file.
    pub const SPILL_HEADER_LEN: usize = 32;

    pub(super) fn table_path(dir: &Path, fingerprint: u64, r_bits: u64) -> PathBuf {
        dir.join(format!("pi-{fingerprint:016x}-{r_bits:016x}.tbl"))
    }

    /// Reads the little-endian u64 field at byte offset `at`. Callers
    /// have already checked `bytes` is at least `at + 8` long.
    fn le_u64(bytes: &[u8], at: usize) -> u64 {
        let mut field = [0u8; 8];
        field.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(field)
    }

    /// Encodes a v2 spill header for a table of `count` entries with the
    /// given identity. [`parse_header`] is its exact inverse.
    pub fn encode_header(fingerprint: u64, r_bits: u64, count: u64) -> [u8; SPILL_HEADER_LEN] {
        let mut header = [0u8; SPILL_HEADER_LEN];
        header[..8].copy_from_slice(SPILL_MAGIC);
        header[8..16].copy_from_slice(&fingerprint.to_le_bytes());
        header[16..24].copy_from_slice(&r_bits.to_le_bytes());
        header[24..32].copy_from_slice(&count.to_le_bytes());
        header
    }

    /// Validates a v2 header against the expected identity and returns
    /// the entry count. `None` for anything malformed or mismatched.
    pub fn parse_header(bytes: &[u8], fingerprint: u64, r_bits: u64) -> Option<usize> {
        if bytes.len() < SPILL_HEADER_LEN || &bytes[..8] != SPILL_MAGIC {
            return None;
        }
        if le_u64(bytes, 8) != fingerprint || le_u64(bytes, 16) != r_bits {
            return None;
        }
        usize::try_from(le_u64(bytes, 24)).ok()
    }

    /// Loads a spilled table covering at least `n_max + 1` entries into
    /// an owned buffer. Absent, truncated, corrupt, mismatched and
    /// too-short files are all `None` — a miss, never an error.
    pub(super) fn load(path: &Path, fingerprint: u64, r_bits: u64, n_max: u32) -> Option<Vec<f64>> {
        let bytes = fs::read(path).ok()?;
        let count = parse_header(&bytes, fingerprint, r_bits)?;
        if count <= n_max as usize
            || bytes.len() != SPILL_HEADER_LEN.checked_add(count.checked_mul(8)?)?
        {
            return None;
        }
        Some(
            bytes[SPILL_HEADER_LEN..]
                .chunks_exact(8)
                .map(|chunk| f64::from_le_bytes(le_f64_bytes(chunk)))
                .collect(),
        )
    }

    /// Copies one 8-byte chunk (from `chunks_exact(8)`) into an array.
    fn le_f64_bytes(chunk: &[u8]) -> [u8; 8] {
        let mut le = [0u8; 8];
        le.copy_from_slice(chunk);
        le
    }

    /// Spills `table`, best effort. Longest wins here too: a valid
    /// resident file covering at least as many entries is left alone, and
    /// the write goes through a same-directory temp file plus rename so a
    /// concurrent reader never sees a partial table.
    pub(super) fn store(path: &Path, fingerprint: u64, r_bits: u64, table: &[f64]) {
        if stored_len(path, fingerprint, r_bits).is_some_and(|existing| existing >= table.len()) {
            return;
        }
        let mut bytes = Vec::with_capacity(SPILL_HEADER_LEN + table.len() * 8);
        bytes.extend_from_slice(&encode_header(fingerprint, r_bits, table.len() as u64));
        for value in table {
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        if fs::write(&tmp, &bytes).is_ok() && fs::rename(&tmp, path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Entry count of a *valid* resident file; `None` for anything
    /// malformed so a broken file never suppresses a spill.
    fn stored_len(path: &Path, fingerprint: u64, r_bits: u64) -> Option<usize> {
        let mut file = fs::File::open(path).ok()?;
        let mut header = [0u8; SPILL_HEADER_LEN];
        file.read_exact(&mut header).ok()?;
        let count = parse_header(&header, fingerprint, r_bits)?;
        let expected = (SPILL_HEADER_LEN).checked_add(count.checked_mul(8)?)? as u64;
        (file.metadata().ok()?.len() == expected).then_some(count)
    }
}

/// The cache plus its lifetime hit/miss counters, shared between the
/// engine front-end and the worker threads.
pub(crate) struct SharedCache {
    inner: Mutex<PiCache>,
    /// Spill directory for cross-process persistence; `None` disables it.
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedCache {
    pub(crate) fn new(capacity: usize, dir: Option<PathBuf>) -> SharedCache {
        if let Some(dir) = &dir {
            // Best effort, like all spill IO: an uncreatable directory
            // just means every disk probe misses.
            let _ = std::fs::create_dir_all(dir);
        }
        SharedCache {
            inner: Mutex::new(PiCache::new(capacity)),
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PiCache> {
        // A panic while holding the lock cannot corrupt the map (all
        // mutations are single calls), so a poisoned cache stays usable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The spill tier's answer for one key, read into owned memory.
    fn load_spill(&self, key: (u64, u64), n_max: u32) -> Option<PiTable> {
        let dir = self.dir.as_ref()?;
        disk::load(&disk::table_path(dir, key.0, key.1), key.0, key.1, n_max).map(PiTable::from)
    }

    /// Block fetch: the tables for a whole slice of listening periods,
    /// with one lock round-trip for the memory tier and one `compute`
    /// call for *all* misses together — this is what lets the engine
    /// build missing π-tables with the blocked batch kernel.
    ///
    /// `compute` receives the missing `r`s (in `rs` order) and must
    /// return one table per entry. Returns the tables in `rs` order plus
    /// the block's (hits, misses). Disk-served tables count as hits.
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
        let mut hits = (rs.len() - missing.len()) as u64;
        missing.retain(|&j| {
            let key = (fingerprint, r_key(rs[j]));
            match self.load_spill(key, n_max) {
                Some(table) => {
                    self.lock().insert(key, table.clone());
                    tables[j] = Some(table);
                    hits += 1;
                    false
                }
                None => true,
            }
        });
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
                let key = (fingerprint, r_key(rs[j]));
                if let Some(dir) = &self.dir {
                    disk::store(&disk::table_path(dir, key.0, key.1), key.0, key.1, &table);
                }
                let table = PiTable::from(table);
                self.lock().insert(key, table.clone());
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
    use std::sync::atomic::AtomicU64;

    use super::*;

    fn table(n: usize) -> Result<Vec<f64>, ()> {
        Ok((0..=n).map(|i| 1.0 / (i + 1) as f64).collect())
    }

    /// A fresh scratch directory per test, under the platform temp dir.
    fn scratch(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "zeroconf-cache-test-{}-{label}-{unique}",
            std::process::id()
        ))
    }

    impl SharedCache {
        /// Fetches the table for `(fingerprint, r)` covering `n_max`, or
        /// computes and caches it, through the one-`r` block. Returns the
        /// table and whether it was a hit; a table served from the spill
        /// directory counts as a hit.
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
        let cache = SharedCache::new(8, None);
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
        let cache = SharedCache::new(8, None);
        cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        let (_, hit) = cache.get_or_compute(7, 3.0, 4, || table(4)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_compute(8, 2.0, 4, || table(4)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn short_table_is_a_miss_and_longer_replaces_it() {
        let cache = SharedCache::new(8, None);
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
        let cache = SharedCache::new(2, None);
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
        let cache = SharedCache::new(4, None);
        let r: Result<(PiTable, bool), &str> = cache.get_or_compute(5, 1.0, 2, || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn block_fetch_computes_only_the_missing_columns() {
        let cache = SharedCache::new(16, None);
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
        let cache = SharedCache::new(8, None);
        cache.get_or_compute(3, 1.0, 4, || table(4)).unwrap();
        let (hits, misses) = (cache.hits(), cache.misses());
        assert_eq!(cache.count_resident(3, &[1.0, 2.0], 4), 1);
        assert_eq!(cache.count_resident(3, &[1.0], 9), 0, "table too short");
        assert_eq!((cache.hits(), cache.misses()), (hits, misses));
    }

    #[test]
    fn spilled_table_survives_a_cache_rebuild() {
        let dir = scratch("spill");
        let reference = table(4).unwrap();
        {
            let cache = SharedCache::new(8, Some(dir.clone()));
            let (_, hit) = cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
            assert!(!hit);
        }
        // A fresh cache (new process, in spirit) loads from disk: a hit,
        // with bit-identical floats and no compute.
        let cache = SharedCache::new(8, Some(dir.clone()));
        let (t, hit) = cache
            .get_or_compute(7, 2.0, 4, || -> Result<Vec<f64>, ()> {
                panic!("disk hit must not recompute")
            })
            .unwrap();
        assert!(hit);
        assert_eq!(t.len(), reference.len());
        for (a, b) in t.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_version_mismatched_spills_are_misses() {
        let dir = scratch("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let key_r = r_key(2.0);
        let path = dir.join(format!("pi-{:016x}-{key_r:016x}.tbl", 7u64));
        // A well-formed v2 header for fingerprint 7 / r = 2.0 claiming 5
        // entries, used to build the truncated and mismatched variants.
        let mut valid_header = Vec::new();
        valid_header.extend_from_slice(b"ZCPITAB2");
        valid_header.extend_from_slice(&7u64.to_le_bytes());
        valid_header.extend_from_slice(&key_r.to_le_bytes());
        valid_header.extend_from_slice(&5u64.to_le_bytes());
        let mut truncated = valid_header.clone();
        truncated.extend_from_slice(&1.0f64.to_le_bytes()); // 1 of 5 entries
        let mut wrong_fingerprint = valid_header.clone();
        wrong_fingerprint[8] ^= 0xff;
        wrong_fingerprint.extend_from_slice(&[0u8; 40]);
        let mut v1_format = b"ZCPITAB1".to_vec(); // previous layout
        v1_format.extend_from_slice(&5u64.to_le_bytes());
        v1_format.extend_from_slice(&[0u8; 40]);
        for (what, bytes) in [
            ("bad magic", b"garbage!".to_vec()),
            ("truncated body", truncated),
            ("empty file", Vec::new()),
            ("foreign fingerprint", wrong_fingerprint),
            ("version mismatch", v1_format),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            let cache = SharedCache::new(8, Some(dir.clone()));
            let (t, hit) = cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
            assert!(!hit, "{what} must be a miss");
            assert_eq!(t.len(), 5);
        }
        // The recompute path replaces a corrupt file with a valid one.
        std::fs::write(&path, b"garbage!").unwrap();
        {
            let cache = SharedCache::new(8, Some(dir.clone()));
            cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        }
        let cache = SharedCache::new(8, Some(dir.clone()));
        let (_, hit) = cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        assert!(hit, "recompute upgraded the corrupt spill");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fuzz-ish round trip: flipping any single byte of a valid spill
    /// must never panic a loader — the mutation either still parses
    /// (slab bytes are arbitrary f64 bit patterns) or is a clean miss.
    #[test]
    fn mutated_spill_bytes_never_panic_the_loaders() {
        let dir = scratch("fuzz");
        let key_r = r_key(3.5);
        {
            let cache = SharedCache::new(8, Some(dir.clone()));
            cache.get_or_compute(11, 3.5, 7, || table(7)).unwrap();
        }
        let path = dir.join(format!("pi-{:016x}-{key_r:016x}.tbl", 11u64));
        let pristine = std::fs::read(&path).unwrap();
        // Deterministic xorshift so the byte/bit choices are reproducible.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let mut mutated = pristine.clone();
            let at = (next() as usize) % mutated.len();
            let bit = 1u8 << (next() % 8);
            mutated[at] ^= bit;
            std::fs::write(&path, &mutated).unwrap();
            let cache = SharedCache::new(8, Some(dir.clone()));
            // Must not panic; hit or miss are both acceptable.
            let (t, _) = cache.get_or_compute(11, 3.5, 7, || table(7)).unwrap();
            assert!(t.len() >= 8);
            // Truncations of the mutant must not panic either.
            let cut = (next() as usize) % mutated.len();
            std::fs::write(&path, &mutated[..cut]).unwrap();
            let cache = SharedCache::new(8, Some(dir.clone()));
            let (t, _) = cache.get_or_compute(11, 3.5, 7, || table(7)).unwrap();
            assert!(t.len() >= 8);
            // Restore the valid spill for the next round (the recompute
            // above may already have upgraded it; overwrite regardless).
            std::fs::write(&path, &pristine).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn too_short_spill_is_recomputed_and_upgraded() {
        let dir = scratch("upgrade");
        {
            let cache = SharedCache::new(8, Some(dir.clone()));
            cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        }
        // A bigger sweep can't use the 5-entry spill: recompute, and the
        // longer table replaces the file.
        {
            let cache = SharedCache::new(8, Some(dir.clone()));
            let (t, hit) = cache.get_or_compute(7, 2.0, 9, || table(9)).unwrap();
            assert!(!hit);
            assert_eq!(t.len(), 10);
        }
        // A later *small* sweep must still find the long table — the
        // shorter spill never clobbers it (longest wins on disk too).
        {
            let cache = SharedCache::new(8, Some(dir.clone()));
            let (t, hit) = cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
            assert!(hit);
            assert_eq!(t.len(), 10, "disk kept the longer table");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_spill_directory_degrades_to_memory_only() {
        // A path that cannot be a directory (it's a file) must not error.
        let dir = scratch("notadir");
        std::fs::write(&dir, b"occupied").unwrap();
        let cache = SharedCache::new(8, Some(dir.clone()));
        let (_, hit) = cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_compute(7, 2.0, 4, || table(4)).unwrap();
        assert!(hit, "memory cache still works");
        let _ = std::fs::remove_file(&dir);
    }
}
