//! Content-hashed memoization of point evaluations.
//!
//! The cache keys on [`DesignPoint::content_hash`] (a stable FNV-1a of
//! the point's canonical byte encoding) and verifies the full point on
//! lookup, so a 64-bit collision can never return the wrong result.
//! Overlapping or repeated sweeps against the same [`crate::Explorer`]
//! are therefore incremental: only never-seen points are evaluated.
//!
//! The table is **lock-striped**: entries are spread over
//! [`SHARD_COUNT`] independently locked shards selected by the top bits
//! of the content hash, so concurrent clients of a long-lived explorer
//! (the `chain-nn serve` daemon) do not serialize on one global mutex.
//! Hit/miss counters stay lock-free atomics.
//!
//! A cold point is **hashed once and stored once**.
//! [`PointCache::get_or_insert_with`], the miss path of
//! [`crate::executor::evaluate_cached_tracked`], computes the key once
//! for both the lookup and the insert, and runs the evaluation outside
//! the shard lock. A shard maps each key to one entry (point, outcome
//! and a dirty flag) plus a collision list that stays unallocated unless
//! two points share a 64-bit key. The FIFO order and the dirty journal
//! hold only keys. The maps hash their keys with a one-multiply mixer,
//! not SipHash, because a key already is a hash.
//!
//! Inserts (not loads) set the entry's dirty flag and journal its key,
//! so a persistence layer ([`crate::persist`]) can flush exactly the
//! entries added since the last flush: [`PointCache::take_dirty`] clones
//! them out and clears the flags. [`PointCache::insert_loaded`]
//! populates the table without journaling, for entries that already
//! live on disk, and a cache with no file behind it journals nothing at
//! all ([`PointCache::without_journal`]).
//!
//! The cache is grow-only by default — correct for sweeps and fine for
//! grids up to ~10⁷ points, but a month-long daemon lifetime wants a
//! ceiling. [`PointCache::bounded`] adds an **optional capacity bound**
//! with shard-local FIFO eviction: when a shard exceeds its share of
//! the bound, its oldest *clean* entry (dirty flag unset: already
//! flushed to disk, loaded from it, or never journaled) is dropped. Dirty entries are never evicted — an unflushed evaluation
//! must reach the snapshot file first — so with persistence attached an
//! evicted point is only ever re-*loaded* or re-evaluated, never lost.
//!
//! The shard locks are poison-tolerant. No evaluation runs under a
//! lock, nothing that does can panic (an allocation failure aborts),
//! and each update writes the map before the order and the journal
//! that refer to it, so a shard recovered from a poisoned lock is
//! consistent.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::eval::PointOutcome;
use crate::spec::DesignPoint;

/// Number of lock stripes. 16 is plenty for the worker counts this
/// crate spawns (the executor caps at the host parallelism) while
/// keeping the per-cache footprint trivial.
pub const SHARD_COUNT: usize = 16;

/// Hit/miss counters of one cache (monotonic over the cache lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that required a fresh evaluation.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from memory, in `[0, 1]`; `0.0`
    /// when no lookup has happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Hasher for keys that already are hashes: one folded 64 × 64 → 128
/// multiply. The top 4 key bits pick the shard, so they are constant
/// within one map; the fold spreads the other 60 over both the table's
/// tag bits (the top ones) and its bucket bits (the low ones).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One stored point.
#[derive(Debug)]
struct Entry {
    point: DesignPoint,
    outcome: PointOutcome,
    /// Inserted (or restored) and not yet taken by
    /// [`PointCache::take_dirty`]; the key is in the shard's journal.
    dirty: bool,
}

/// The entries under one key: almost always just `first`. `rest` holds
/// other points whose 64-bit key collides with it, oldest first.
#[derive(Debug)]
struct Slot {
    first: Entry,
    rest: Vec<Entry>,
}

impl Slot {
    fn iter(&self) -> impl Iterator<Item = &Entry> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Entry> {
        std::iter::once(&mut self.first).chain(&mut self.rest)
    }
}

/// One lock stripe.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Slot, BuildHasherDefault<KeyHasher>>,
    /// Insertion order (FIFO) for the capacity bound: one key per stored
    /// entry, so its length is the shard's point count. The n-th
    /// occurrence of a key stands for the n-th entry of its slot.
    order: VecDeque<u64>,
    /// Keys of the dirty entries, in the order they became dirty.
    journal: Vec<u64>,
}

impl Shard {
    fn find(&self, key: u64, point: &DesignPoint) -> Option<&Entry> {
        self.map.get(&key)?.iter().find(|e| e.point == *point)
    }

    /// Evicts clean entries FIFO until the shard holds at most
    /// `per_shard_cap` points (or only dirty entries remain). Returns
    /// how many entries were dropped.
    fn evict_to(&mut self, per_shard_cap: usize) -> u64 {
        let mut evicted = 0u64;
        while self.order.len() > per_shard_cap {
            let Some((pos, key, nth)) = self.oldest_clean() else {
                break; // everything left is unflushed; never drop it
            };
            self.order.remove(pos);
            if let Some(slot) = self.map.get_mut(&key) {
                if slot.rest.is_empty() {
                    self.map.remove(&key);
                } else if nth == 0 {
                    slot.first = slot.rest.remove(0);
                } else {
                    slot.rest.remove(nth - 1);
                }
            }
            evicted += 1;
        }
        evicted
    }

    /// The FIFO position of the oldest clean entry, with its key and
    /// its index in the slot. Only a collision slot needs the count of
    /// the key's earlier occurrences.
    fn oldest_clean(&self) -> Option<(usize, u64, usize)> {
        self.order.iter().enumerate().find_map(|(pos, &key)| {
            let slot = self.map.get(&key)?;
            let nth = if slot.rest.is_empty() {
                0
            } else {
                self.order.range(..pos).filter(|&&k| k == key).count()
            };
            let clean = !slot.iter().nth(nth)?.dirty;
            clean.then_some((pos, key, nth))
        })
    }
}

/// Thread-safe memo table from design points to evaluation outcomes.
///
/// # Example
///
/// ```
/// use chain_nn_dse::{DesignPoint, PointCache, PointOutcome};
///
/// let cache = PointCache::new();
/// let point = DesignPoint::paper_alexnet();
/// let demo = || Ok::<_, ()>(PointOutcome::Infeasible("demo".into()));
/// // A counted miss: `demo` runs and its outcome is stored.
/// assert_eq!(cache.get_or_insert_with(&point, demo).unwrap().1, false);
/// // A counted hit, answered from memory.
/// assert_eq!(cache.get_or_insert_with(&point, demo).unwrap().1, true);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// // Everything inserted since the last flush is journaled:
/// assert_eq!(cache.take_dirty().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct PointCache {
    shards: [Mutex<Shard>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Per-shard point bound derived from the global capacity; `None`
    /// means grow-only (the default).
    per_shard_cap: Option<usize>,
    /// Set by [`PointCache::without_journal`].
    unjournaled: bool,
}

/// Locks a shard, recovering it from a poisoned lock: shard updates
/// never leave it half-done.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PointCache {
    /// An empty, unbounded (grow-only) cache.
    pub fn new() -> Self {
        PointCache::default()
    }

    /// An empty cache bounded to roughly `capacity` points. The bound
    /// is enforced per shard (`capacity / 16`, rounded up), so the
    /// global count can overshoot by at most one point per shard when
    /// the hash spread is uneven. A zero capacity is treated as 1 per
    /// shard — an unbounded cache is spelled [`PointCache::new`].
    pub fn bounded(capacity: usize) -> Self {
        PointCache {
            per_shard_cap: Some(capacity.div_ceil(SHARD_COUNT).max(1)),
            ..PointCache::default()
        }
    }

    /// This cache, journaling no insert: for a cache with no file behind
    /// it, where a journal would only hold every evaluation a second
    /// time and keep a bounded cache from evicting. Its
    /// [`PointCache::take_dirty`] stays empty.
    #[must_use]
    pub fn without_journal(self) -> Self {
        PointCache {
            unjournaled: true,
            ..self
        }
    }

    /// Entries dropped by the capacity bound so far (0 when unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The locked shard holding `key`. The FNV low bits absorb the
    /// trailing input bytes; the top bits are better mixed, so stripe
    /// on those.
    fn shard(&self, key: u64) -> MutexGuard<'_, Shard> {
        lock(&self.shards[(key >> 60) as usize % SHARD_COUNT])
    }

    /// The outcome stored for `point` under `key`, counting nothing.
    fn lookup(&self, key: u64, point: &DesignPoint) -> Option<PointOutcome> {
        self.shard(key)
            .find(key, point)
            .map(|entry| entry.outcome.clone())
    }

    /// Looks up `point`, counting a hit when present but *nothing* when
    /// absent. This is the serving fast path's probe: on a miss the
    /// point goes on to a scheduled evaluation whose own
    /// [`PointCache::get_or_insert_with`] records the authoritative
    /// miss, and counting it here too would double it.
    pub fn probe(&self, point: &DesignPoint) -> Option<PointOutcome> {
        let found = self.lookup(point.content_hash(), point);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Answers `point` from memory (a counted hit, `true`), or counts a
    /// miss, runs `evaluate` and stores its outcome like
    /// [`PointCache::insert`] (`false`).
    /// The point is hashed once for both steps, and `evaluate` runs
    /// outside the shard lock: an error or a panic in it stores nothing.
    /// A racing duplicate insert keeps the first entry.
    ///
    /// # Errors
    ///
    /// Whatever `evaluate` returns.
    pub fn get_or_insert_with<E>(
        &self,
        point: &DesignPoint,
        evaluate: impl FnOnce() -> Result<PointOutcome, E>,
    ) -> Result<(PointOutcome, bool), E> {
        let key = point.content_hash();
        if let Some(hit) = self.lookup(key, point) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((hit, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = evaluate()?;
        self.insert_at(key, point, fresh.clone(), true);
        Ok((fresh, false))
    }

    /// Stores `entry` under `key` in the locked `shard` unless its point
    /// is already there (the map first, then the order and the journal
    /// that refer to it), applies the bound, and returns whether the
    /// point was new. One map probe serves the check and the insert.
    fn store(&self, shard: &mut Shard, key: u64, entry: Entry) -> bool {
        let dirty = entry.dirty;
        match shard.map.entry(key) {
            MapEntry::Occupied(mut slot) => {
                let slot = slot.get_mut();
                if slot.iter().any(|e| e.point == entry.point) {
                    return false;
                }
                slot.rest.push(entry);
            }
            MapEntry::Vacant(slot) => {
                slot.insert(Slot {
                    first: entry,
                    rest: Vec::new(),
                });
            }
        }
        shard.order.push_back(key);
        if dirty {
            shard.journal.push(key);
        }
        if let Some(cap) = self.per_shard_cap {
            let evicted = shard.evict_to(cap);
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        true
    }

    /// Stores `point` under `key` unless it is already there; returns
    /// whether it was new.
    fn insert_at(&self, key: u64, point: &DesignPoint, outcome: PointOutcome, dirty: bool) -> bool {
        let entry = Entry {
            point: point.clone(),
            outcome,
            dirty: dirty && !self.unjournaled,
        };
        self.store(&mut self.shard(key), key, entry)
    }

    /// Stores an outcome (idempotent; a racing duplicate insert keeps
    /// the first entry). The entry is journaled for the next
    /// [`PointCache::take_dirty`], unless the cache keeps no journal.
    pub fn insert(&self, point: &DesignPoint, outcome: PointOutcome) {
        self.insert_at(point.content_hash(), point, outcome, true);
    }

    /// Stores an outcome that already exists on disk: same semantics as
    /// [`PointCache::insert`] but exempt from the dirty journal, so a
    /// persistence layer does not rewrite what it just loaded. Returns
    /// whether the point was new — `false` flags an on-disk duplicate,
    /// which the loader counts toward the compaction threshold.
    pub fn insert_loaded(&self, point: &DesignPoint, outcome: PointOutcome) -> bool {
        self.insert_at(point.content_hash(), point, outcome, false)
    }

    /// Drains the journal of entries inserted since the previous call
    /// (or cache creation): exactly the state a persistence layer has
    /// not yet flushed. Order follows shard order, deterministic for a
    /// serial caller but not meaningful across racing inserters.
    pub fn take_dirty(&self) -> Vec<(DesignPoint, PointOutcome)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let Shard { map, journal, .. } = &mut *lock(shard);
            // A journaled key whose entries are all clean again (a
            // collision slot, handled at its first key) is skipped.
            for key in journal.drain(..) {
                let entries = map.get_mut(&key).into_iter().flat_map(Slot::iter_mut);
                for entry in entries.filter(|e| e.dirty) {
                    entry.dirty = false;
                    out.push((entry.point.clone(), entry.outcome.clone()));
                }
            }
        }
        out
    }

    /// Marks `point`'s entry under `key` dirty again, storing it anew if
    /// the bound evicted it since it was taken.
    fn restore_keyed(&self, key: u64, point: DesignPoint, outcome: PointOutcome) {
        let shard = &mut *self.shard(key);
        let slot = shard.map.get_mut(&key);
        match slot.and_then(|slot| slot.iter_mut().find(|e| e.point == point)) {
            Some(entry) if entry.dirty => {}
            Some(entry) => {
                entry.dirty = true;
                shard.journal.push(key);
            }
            None => {
                let entry = Entry {
                    point,
                    outcome,
                    dirty: true,
                };
                self.store(shard, key, entry);
            }
        }
    }

    /// Puts previously-drained journal entries back, so a persistence
    /// layer whose flush failed can retry later without losing them.
    /// An entry the bound evicted in the meantime is stored again.
    pub fn restore_dirty(&self, entries: Vec<(DesignPoint, PointOutcome)>) {
        for (point, outcome) in entries {
            self.restore_keyed(point.content_hash(), point, outcome);
        }
    }

    /// Every cached `(point, outcome)` pair, sorted by the point's
    /// canonical byte encoding so the listing is deterministic
    /// regardless of insertion order or shard layout. This is what the
    /// daemon's `frontier` request ranges over.
    pub fn entries(&self) -> Vec<(DesignPoint, PointOutcome)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for slot in shard.map.values() {
                out.extend(slot.iter().map(|e| (e.point.clone(), e.outcome.clone())));
            }
        }
        out.sort_by_cached_key(|(point, _)| point.canonical_bytes());
        out
    }

    /// Number of distinct points cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).order.len()).sum()
    }

    /// Whether the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn outcome(tag: &str) -> PointOutcome {
        PointOutcome::Infeasible(tag.to_owned())
    }

    #[test]
    fn miss_then_hit() {
        let cache = PointCache::new();
        let p = DesignPoint::paper_alexnet();
        let a = || Ok::<_, ()>(outcome("a"));
        assert_eq!(cache.get_or_insert_with(&p, a), Ok((outcome("a"), false)));
        assert_eq!(cache.get_or_insert_with(&p, a), Ok((outcome("a"), true)));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_points_do_not_alias() {
        let cache = PointCache::new();
        let a = DesignPoint::paper_alexnet();
        let b = DesignPoint {
            pes: 288,
            ..a.clone()
        };
        cache.insert(&a, outcome("a"));
        cache.insert(&b, outcome("b"));
        assert_eq!(cache.probe(&a), Some(outcome("a")));
        assert_eq!(cache.probe(&b), Some(outcome("b")));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let cache = PointCache::new();
        let p = DesignPoint::paper_alexnet();
        cache.insert(&p, outcome("first"));
        cache.insert(&p, outcome("second"));
        assert_eq!(cache.probe(&p), Some(outcome("first")));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn entries_span_shards_and_sort_canonically() {
        let cache = PointCache::new();
        let base = DesignPoint::paper_alexnet();
        // Enough distinct points that multiple stripes are populated.
        for pes in (64..=1024).step_by(64) {
            let p = DesignPoint {
                pes,
                ..base.clone()
            };
            cache.insert(&p, outcome(&format!("{pes}")));
        }
        let entries = cache.entries();
        assert_eq!(entries.len(), cache.len());
        assert_eq!(entries.len(), 16);
        let keys: Vec<Vec<u8>> = entries.iter().map(|(p, _)| p.canonical_bytes()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "entries() must be canonically ordered");
        // Distinct stripes really are in use (not everything on one lock).
        let stripes: std::collections::HashSet<usize> = entries
            .iter()
            .map(|(p, _)| (p.content_hash() >> 60) as usize % SHARD_COUNT)
            .collect();
        assert!(stripes.len() > 1, "all points landed on one shard");
    }

    #[test]
    fn dirty_log_tracks_only_new_unflushed_inserts() {
        let cache = PointCache::new();
        let a = DesignPoint::paper_alexnet();
        let b = DesignPoint {
            pes: 288,
            ..a.clone()
        };
        let c = DesignPoint {
            pes: 144,
            ..a.clone()
        };
        cache.insert_loaded(&a, outcome("loaded"));
        cache.insert(&b, outcome("fresh"));
        cache.insert(&b, outcome("dup")); // duplicate: not re-journaled
        let dirty = cache.take_dirty();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, b);
        // Drained: the journal starts empty again.
        assert!(cache.take_dirty().is_empty());
        cache.insert(&c, outcome("later"));
        assert_eq!(cache.take_dirty().len(), 1);
        // Loaded + inserted entries are all retrievable regardless.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.probe(&a), Some(outcome("loaded")));
    }

    #[test]
    fn a_cache_without_journal_journals_nothing_and_evicts_freely() {
        let cache = PointCache::bounded(SHARD_COUNT).without_journal();
        for pes in 100..164 {
            cache.insert(&with_pes(pes), outcome("x"));
        }
        let fresh = cache.get_or_insert_with(&with_pes(999), || Ok::<_, ()>(outcome("y")));
        assert_eq!(fresh, Ok((outcome("y"), false)));
        assert!(cache.take_dirty().is_empty());
        assert!(cache.len() <= SHARD_COUNT, "len {}", cache.len());
        assert_eq!(cache.evictions(), 65 - cache.len() as u64);
    }

    #[test]
    fn bounded_cache_evicts_clean_entries_fifo() {
        // Capacity 16 = 1 per shard: any shard receiving a second clean
        // entry must drop its oldest one.
        let cache = PointCache::bounded(SHARD_COUNT);
        let base = DesignPoint::paper_alexnet();
        let points: Vec<DesignPoint> = (0..64)
            .map(|i| DesignPoint {
                pes: 121 + i,
                ..base.clone()
            })
            .collect();
        for p in &points {
            cache.insert_loaded(p, outcome("clean"));
        }
        assert!(cache.len() <= SHARD_COUNT, "len {}", cache.len());
        assert_eq!(cache.evictions(), 64 - cache.len() as u64);
        // Within each shard the survivor is the newest entry (FIFO):
        // every cached point must have no same-shard successor.
        for (i, p) in points.iter().enumerate() {
            if cache.probe(p).is_some() {
                let shard = (p.content_hash() >> 60) as usize % SHARD_COUNT;
                let newer_in_shard = points[i + 1..]
                    .iter()
                    .any(|q| (q.content_hash() >> 60) as usize % SHARD_COUNT == shard);
                assert!(!newer_in_shard, "evicted out of FIFO order at {i}");
            }
        }
    }

    #[test]
    fn bounded_cache_never_evicts_dirty_entries() {
        let cache = PointCache::bounded(SHARD_COUNT);
        let base = DesignPoint::paper_alexnet();
        let points: Vec<DesignPoint> = (0..48)
            .map(|i| DesignPoint {
                pes: 121 + i,
                ..base.clone()
            })
            .collect();
        // All journaled (unflushed): nothing may be dropped despite the
        // bound being exceeded threefold.
        for p in &points {
            cache.insert(p, outcome("dirty"));
        }
        assert_eq!(cache.len(), points.len());
        assert_eq!(cache.evictions(), 0);
        // Flushing makes them clean; subsequent inserts shrink the
        // cache back toward the bound, shard by shard.
        let flushed = cache.take_dirty();
        assert_eq!(flushed.len(), points.len());
        for i in 0..16 {
            let extra = DesignPoint {
                pes: 2048 + i,
                ..base.clone()
            };
            cache.insert_loaded(&extra, outcome("extra"));
        }
        assert!(cache.evictions() > 0);
        assert!(cache.len() < points.len() + 16);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = PointCache::new();
        let base = DesignPoint::paper_alexnet();
        for i in 0..256 {
            let p = DesignPoint {
                pes: 121 + i,
                ..base.clone()
            };
            cache.insert_loaded(&p, outcome("x"));
        }
        assert_eq!(cache.len(), 256);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        let stats = CacheStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }
    /// A key whose two points below are forced to share it: a 64-bit
    /// collision no real pair of points is known to produce.
    const KEY: u64 = 0x5000_0000_0000_0001;
    /// Another key in the same shard as [`KEY`].
    const OTHER: u64 = 0x5000_0000_0000_0002;

    fn with_pes(pes: usize) -> DesignPoint {
        DesignPoint {
            pes,
            ..DesignPoint::paper_alexnet()
        }
    }

    /// The keyed entry point: stores `point` under `key` instead of its
    /// content hash, so two distinct points can be made to collide.
    fn insert_under(
        cache: &PointCache,
        key: u64,
        point: &DesignPoint,
        tag: &str,
        dirty: bool,
    ) -> bool {
        cache.insert_at(key, point, outcome(tag), dirty)
    }

    #[test]
    fn colliding_points_share_a_key_without_aliasing() {
        let cache = PointCache::new();
        let (a, b) = (with_pes(576), with_pes(288));
        assert!(insert_under(&cache, KEY, &a, "a", true));
        assert!(insert_under(&cache, KEY, &b, "b", true));
        assert!(
            !insert_under(&cache, KEY, &b, "dup", true),
            "first entry kept"
        );
        assert_eq!(cache.lookup(KEY, &a), Some(outcome("a")));
        assert_eq!(cache.lookup(KEY, &b), Some(outcome("b")));
        assert_eq!(cache.lookup(KEY, &with_pes(144)), None);
        assert_eq!(cache.len(), 2);
        let both = vec![(b.clone(), outcome("b")), (a.clone(), outcome("a"))];
        assert_eq!(cache.entries(), both, "canonical order: 288 sorts first");

        let taken = cache.take_dirty();
        assert_eq!(
            taken,
            vec![(a.clone(), outcome("a")), (b.clone(), outcome("b"))]
        );
        assert!(cache.take_dirty().is_empty(), "each entry taken once");
        for (point, outcome) in taken.iter().chain(&taken).cloned() {
            cache.restore_keyed(KEY, point, outcome);
        }
        assert_eq!(cache.take_dirty(), taken, "restored once each");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_drops_the_oldest_clean_entry_across_a_collision() {
        // Two points per shard; every key below lands in one shard.
        let cache = PointCache::bounded(2 * SHARD_COUNT);
        let (a, b, c, d, e) = (
            with_pes(576),
            with_pes(288),
            with_pes(144),
            with_pes(72),
            with_pes(36),
        );
        insert_under(&cache, KEY, &a, "a", true);
        insert_under(&cache, OTHER, &c, "c", false);
        insert_under(&cache, KEY, &b, "b", false);
        // Order a (dirty), c, b: c is the oldest clean entry.
        assert_eq!(cache.lookup(OTHER, &c), None);
        assert_eq!(cache.evictions(), 1);
        insert_under(&cache, OTHER, &e, "e", false);
        // Order a (dirty), b, e: b, the second entry of the slot, goes.
        assert_eq!(cache.lookup(KEY, &b), None);
        assert_eq!(cache.lookup(KEY, &a), Some(outcome("a")));
        assert_eq!(cache.take_dirty().len(), 1);
        insert_under(&cache, OTHER, &d, "d", false);
        // Order a (now clean), e, d: a goes.
        assert_eq!(cache.lookup(KEY, &a), None);
        assert_eq!(cache.lookup(OTHER, &e), Some(outcome("e")));
        assert_eq!(cache.lookup(OTHER, &d), Some(outcome("d")));
        assert_eq!((cache.len(), cache.evictions()), (2, 3));
        // A restored entry the bound evicted meanwhile is stored again.
        cache.restore_keyed(KEY, a.clone(), outcome("a"));
        assert_eq!(cache.lookup(KEY, &a), Some(outcome("a")));
        assert_eq!(cache.take_dirty(), vec![(a, outcome("a"))]);
    }

    #[test]
    fn get_or_insert_hashes_once_and_stores_nothing_on_error() {
        let cache = PointCache::new();
        let p = DesignPoint::paper_alexnet();
        assert_eq!(cache.get_or_insert_with(&p, || Err("spec")), Err("spec"));
        assert!(cache.is_empty());
        let fresh = cache.get_or_insert_with(&p, || Ok::<_, ()>(outcome("a")));
        assert_eq!(fresh, Ok((outcome("a"), false)));
        let hit = cache.get_or_insert_with(&p, || Ok::<_, ()>(outcome("b")));
        assert_eq!(hit, Ok((outcome("a"), true)));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(cache.take_dirty(), vec![(p, outcome("a"))]);
    }

    #[test]
    fn a_panicking_evaluation_leaves_the_cache_usable() {
        let cache = PointCache::bounded(SHARD_COUNT);
        let p = DesignPoint::paper_alexnet();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_insert_with(&p, || -> Result<PointOutcome, ()> { panic!("model bug") })
        }));
        assert!(panicked.is_err());
        assert!(cache.is_empty());
        assert!(cache.take_dirty().is_empty());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        let fresh = cache.get_or_insert_with(&p, || Ok::<_, ()>(outcome("ok")));
        assert_eq!(fresh, Ok((outcome("ok"), false)));
        assert_eq!(cache.probe(&p), Some(outcome("ok")));
    }

    #[test]
    fn a_poisoned_shard_lock_is_recovered() {
        let cache = PointCache::new();
        let p = DesignPoint::paper_alexnet();
        cache.insert(&p, outcome("a"));
        let shard = &cache.shards[(p.content_hash() >> 60) as usize % SHARD_COUNT];
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = shard.lock();
            panic!("lock holder panics");
        }));
        assert!(shard.is_poisoned());
        assert_eq!(cache.probe(&p), Some(outcome("a")));
        cache.insert(&with_pes(288), outcome("b"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.entries().len(), 2);
        assert_eq!(cache.take_dirty().len(), 2);
    }

    #[test]
    fn key_hasher_mixes_the_bits_below_the_shard_bits() {
        let build = BuildHasherDefault::<KeyHasher>::default();
        for shift in [0, 20, 40] {
            let (mut tags, mut buckets) = (HashSet::new(), HashSet::new());
            for i in 0..1024u64 {
                // Constant shard bits; only 10 bits at `shift` vary.
                let h = build.hash_one(0xa000_0000_0000_0000 | (i << shift));
                tags.insert(h >> 57);
                buckets.insert(h & 1023);
            }
            assert!(tags.len() >= 120, "shift {shift}: {} tags", tags.len());
            assert!(
                buckets.len() >= 600,
                "shift {shift}: {} buckets",
                buckets.len()
            );
        }
    }

    /// The plain reference the cache must agree with: per shard, a list
    /// of `(point, outcome, dirty)` in insertion order.
    struct Model {
        shards: Vec<Vec<(DesignPoint, PointOutcome, bool)>>,
        per_shard_cap: Option<usize>,
        evictions: u64,
    }

    impl Model {
        fn new(capacity: Option<usize>) -> Model {
            Model {
                shards: vec![Vec::new(); SHARD_COUNT],
                per_shard_cap: capacity.map(|c| c.div_ceil(SHARD_COUNT).max(1)),
                evictions: 0,
            }
        }

        fn shard(&mut self, key: u64) -> &mut Vec<(DesignPoint, PointOutcome, bool)> {
            &mut self.shards[(key >> 60) as usize % SHARD_COUNT]
        }

        fn get(&mut self, key: u64, point: &DesignPoint) -> Option<PointOutcome> {
            let shard = self.shard(key);
            shard.iter().find(|e| e.0 == *point).map(|e| e.1.clone())
        }

        fn push(&mut self, key: u64, entry: (DesignPoint, PointOutcome, bool)) {
            let cap = self.per_shard_cap.unwrap_or(usize::MAX);
            let shard = &mut self.shards[(key >> 60) as usize % SHARD_COUNT];
            shard.push(entry);
            while shard.len() > cap {
                let Some(oldest_clean) = shard.iter().position(|e| !e.2) else {
                    break;
                };
                shard.remove(oldest_clean);
                self.evictions += 1;
            }
        }

        fn insert(
            &mut self,
            key: u64,
            point: &DesignPoint,
            outcome: PointOutcome,
            dirty: bool,
        ) -> bool {
            if self.get(key, point).is_some() {
                return false;
            }
            self.push(key, (point.clone(), outcome, dirty));
            true
        }

        fn take_dirty(&mut self) -> Vec<(DesignPoint, PointOutcome)> {
            let mut out = Vec::new();
            for entry in self.shards.iter_mut().flatten().filter(|e| e.2) {
                entry.2 = false;
                out.push((entry.0.clone(), entry.1.clone()));
            }
            out
        }

        fn restore(&mut self, key: u64, point: DesignPoint, outcome: PointOutcome) {
            match self.shard(key).iter_mut().find(|e| e.0 == point) {
                Some(entry) => entry.2 = true,
                None => self.push(key, (point, outcome, true)),
            }
        }

        fn entries(&self) -> Vec<(DesignPoint, PointOutcome)> {
            let mut out: Vec<_> = self
                .shards
                .iter()
                .flatten()
                .map(|e| (e.0.clone(), e.1.clone()))
                .collect();
            out.sort_by_cached_key(|(point, _)| point.canonical_bytes());
            out
        }
    }

    fn sorted(mut entries: Vec<(DesignPoint, PointOutcome)>) -> Vec<(DesignPoint, PointOutcome)> {
        entries.sort_by_cached_key(|(point, _)| point.canonical_bytes());
        entries
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random get / insert / `insert_loaded` / `take_dirty` /
        /// `restore_dirty` sequences on bounded and unbounded caches
        /// agree with the reference model step by step. With `collide`
        /// set, 24 points share 8 keys over 4 shards, so most slots hold
        /// a collision list.
        #[test]
        fn cache_agrees_with_a_reference_model(
            capacity in vec![None, Some(16), Some(32), Some(64)],
            collide in vec![false, true],
            seed in 0u64..u64::MAX,
        ) {
            let key = |p: &DesignPoint| {
                let h = p.content_hash();
                if collide { h & 0x3000_0000_0000_0001 } else { h }
            };
            let pool: Vec<DesignPoint> = (0..24).map(|i| with_pes(100 + i)).collect();
            let cache = capacity.map_or_else(PointCache::new, PointCache::bounded);
            let mut model = Model::new(capacity);
            let mut taken = Vec::new();
            let mut rng = TestRng::deterministic(&seed.to_string());
            for step in 0..96 {
                let p = &pool[rng.next_u64() as usize % pool.len()];
                let k = key(p);
                match rng.next_u64() % 8 {
                    0 | 1 => prop_assert_eq!(cache.lookup(k, p), model.get(k, p)),
                    2 | 3 => {
                        let o = outcome(&format!("fresh{step}"));
                        prop_assert_eq!(
                            cache.insert_at(k, p, o.clone(), true),
                            model.insert(k, p, o, true)
                        );
                    }
                    4 | 5 => {
                        let o = outcome(&format!("loaded{step}"));
                        prop_assert_eq!(
                            cache.insert_at(k, p, o.clone(), false),
                            model.insert(k, p, o, false)
                        );
                    }
                    6 => {
                        taken = sorted(cache.take_dirty());
                        prop_assert_eq!(&taken, &sorted(model.take_dirty()));
                    }
                    _ => {
                        for (point, outcome) in taken.drain(..) {
                            model.restore(key(&point), point.clone(), outcome.clone());
                            cache.restore_keyed(key(&point), point, outcome);
                        }
                    }
                }
                prop_assert_eq!(cache.len(), model.entries().len());
                prop_assert_eq!(cache.evictions(), model.evictions);
            }
            prop_assert_eq!(cache.entries(), model.entries());
            prop_assert_eq!(sorted(cache.take_dirty()), sorted(model.take_dirty()));
        }
    }
}
