//! The variant cache: one writer map, one published snapshot, and a
//! per-thread hold on that snapshot for the read path.
//!
//! Every mutation (publish, evict, demote, invalidate, clear) goes
//! through one writer `Mutex<HashMap<CacheKey, Arc<CacheEntry>>>` and
//! ends by republishing: the writer copies the map into an immutable
//! [`Snap`] stamped with the cache's id and its next generation, swaps the
//! `Arc` into `snap` and then stores the generation in `gen` (`Release`).
//! The `snap` mutex is held for that swap or a reader's `Arc` clone and
//! nothing else, never across a map copy.
//!
//! A read ([`VariantCache::lookup`] and friends) loads `gen` (`Acquire`)
//! and probes the snapshot its thread already holds in a small
//! thread-local table, one slot per cache id modulo [`SLOTS`]. When that
//! snapshot is this cache's and of that generation, the hit takes no lock
//! (C5 in EXPERIMENTS.md); only the first read on a thread after each
//! publish locks `snap` once to clone the new `Arc`. Two caches whose ids
//! share a slot only refill it in turn: a snapshot serves the cache whose
//! id it carries and no other. Recency and hits are per-entry atomics
//! shared by the writer map and every snapshot, so a hit bumps the
//! *entry*.
//!
//! A thread keeps the snapshot it last read until its next read of a cache
//! on the same slot finds a newer generation, or until the thread exits;
//! `Arc`'s drop frees a retired snapshot when its last holder lets go. The
//! variant code lives in the JIT bump allocator (never reused) and the
//! [`Variant`] metadata is `Arc`-shared, so an evicted variant a
//! concurrent dispatch still holds stays alive and callable.
//!
//! Lock order: the tiering state, then `write`, then `snap`. `tick` holds
//! the tiering state across `lookup` (which may refill from `snap`) and
//! `remove_key`; nothing is locked under `snap`, and no callback runs
//! under either cache lock but `insert`'s `current` (an atomic load) and
//! `remove_matching`'s predicate over a variant.
//!
//! Resident bytes, entry count and the logical clock are atomics readable
//! without the writer lock; the first two move only in `account`, which
//! keeps the residency gauges with them.

use super::{unpoison, CacheKey, Variant};
use crate::request::SpecRequest;
use crate::telemetry::flight::FlightKind;
use crate::telemetry::metrics::Gge;
use crate::telemetry::{self, FlightRecorder, MetricsRegistry};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Snapshot slots per thread; caches whose ids agree modulo this share one.
const SLOTS: usize = 8;

thread_local! {
    /// The snapshot this thread last read, per slot.
    static HELD: [Cell<Option<Arc<Snap>>>; SLOTS] = const { [const { Cell::new(None) }; SLOTS] };
}

/// Source of cache ids, unique per process.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// One cached variant plus its lock-free accounting, shared (`Arc`) by the
/// writer map and every snapshot: a hit through a snapshot is visible to
/// eviction scoring without copying or locking.
pub(super) struct CacheEntry {
    pub variant: Arc<Variant>,
    pub key: CacheKey,
    /// The request that produced the variant, kept to rebuild it.
    pub req: SpecRequest,
    /// Logical-clock time of the last hit, for eviction scoring.
    pub last_used: AtomicU64,
    /// Lifetime hits (atomic, same contract as `last_used`).
    pub hits: AtomicU64,
}

impl CacheEntry {
    /// Eviction score at `now`: bigger means more evictable. Stale, large,
    /// rarely-hit variants score high; the just-used entry scores 0.
    pub fn score(&self, now: u64) -> u128 {
        let staleness = now.saturating_sub(self.last_used.load(Ordering::Relaxed)) as u128;
        staleness * self.variant.code_len as u128 / (self.hits.load(Ordering::Relaxed) as u128 + 1)
    }
}

type Map = HashMap<CacheKey, Arc<CacheEntry>>;

/// An immutable published copy of the writer map, never mutated after
/// the swap that publishes it.
struct Snap {
    /// The id of the cache that published it.
    owner: u64,
    /// That cache's publish count at the time.
    gen: u64,
    entries: Map,
}

pub(super) struct VariantCache {
    /// Process-unique; selects this cache's thread-local slot.
    id: u64,
    /// The authoritative map every mutation goes through.
    write: Mutex<Map>,
    /// The published snapshot.
    snap: Mutex<Arc<Snap>>,
    /// The published snapshot's generation, stored after the swap.
    gen: AtomicU64,
    /// Code bytes resident.
    resident: AtomicUsize,
    /// Entries resident.
    count: AtomicUsize,
    /// Logical clock; every lookup/insert advances it.
    tick: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    /// Flight journal for snapshot publishes.
    flight: Arc<FlightRecorder>,
}

impl VariantCache {
    pub fn new(metrics: Arc<MetricsRegistry>, flight: Arc<FlightRecorder>) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        VariantCache {
            id,
            write: Mutex::default(),
            snap: Mutex::new(Arc::new(Snap {
                owner: id,
                gen: 0,
                entries: Map::new(),
            })),
            gen: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            metrics,
            flight,
        }
    }

    fn slot(&self) -> usize {
        self.id as usize % SLOTS
    }

    fn now(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Acquire)
    }

    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// The one place resident bytes and entries move, and the residency
    /// gauges with them.
    fn account(&self, bytes: isize, entries: isize) {
        // Two's complement: adding a negative delta wraps to a subtraction.
        let (b, e) = (bytes as usize, entries as usize);
        let b = self.resident.fetch_add(b, Ordering::AcqRel).wrapping_add(b);
        let e = self.count.fetch_add(e, Ordering::AcqRel).wrapping_add(e);
        self.metrics.gauge_set(Gge::ResidentBytes, b as i64);
        self.metrics.gauge_set(Gge::ResidentVariants, e as i64);
    }

    /// Run `f` over the published snapshot. This is the entire read path:
    /// one `Acquire` load and the snapshot the thread already holds, or
    /// one lock to clone the newer one. The `Arc` is out of its slot while
    /// `f` runs, so a read from inside `f` refills rather than borrowing
    /// twice; during thread teardown the read goes to `snap` directly.
    fn read<R>(&self, f: impl FnOnce(&Snap) -> R) -> R {
        let gen = self.gen.load(Ordering::Acquire);
        let held = HELD.try_with(|h| h[self.slot()].take()).ok().flatten();
        let snap = match held {
            Some(s) if s.gen == gen && s.owner == self.id => s,
            _ => Arc::clone(&*unpoison(self.snap.lock())),
        };
        let out = f(&snap);
        let _ = HELD.try_with(|h| h[self.slot()].set(Some(snap)));
        out
    }

    /// Copy the writer map `map` (locked by the caller) into a new
    /// snapshot and publish it. The retired snapshot is freed when its
    /// last holder drops it.
    fn publish(&self, map: &Map) {
        // Only a publish stores `gen`, and only under the writer lock.
        let gen = self.gen.load(Ordering::Relaxed) + 1;
        let new = Arc::new(Snap {
            owner: self.id,
            gen,
            entries: map.clone(),
        });
        // The retired snapshot is dropped past the lock, not under it.
        let old = std::mem::replace(&mut *unpoison(self.snap.lock()), new);
        self.gen.store(gen, Ordering::Release);
        let args = [gen, map.len() as u64, 0, 0];
        telemetry::note(&self.metrics, &self.flight, FlightKind::SnapPublish, args);
        drop(old);
    }

    /// Remove `keys` from the writer map `map` (locked by the caller),
    /// account for and publish what went, and return it.
    fn unpublish(
        &self,
        map: &mut Map,
        keys: impl IntoIterator<Item = CacheKey>,
    ) -> Vec<(CacheKey, SpecRequest, Arc<Variant>)> {
        let gone: Vec<_> = keys.into_iter().filter_map(|k| map.remove(&k)).collect();
        if gone.is_empty() {
            return Vec::new();
        }
        self.publish(map);
        let bytes: usize = gone.iter().map(|e| e.variant.code_len).sum();
        self.account(-(bytes as isize), -(gone.len() as isize));
        gone.into_iter()
            .map(|e| (e.key, e.req.clone(), Arc::clone(&e.variant)))
            .collect()
    }

    /// Fetch a variant, counting `hits` hits on it (recency and hit count)
    /// — with `hits == 1` the serving hit path: the snapshot probe and two
    /// relaxed atomic bumps on the entry. The tiering tick credits
    /// dispatch-stub traffic the same way (`hits` = the counter delta), so
    /// LRU eviction sees it too.
    pub fn lookup(&self, key: &CacheKey, hits: u64) -> Option<Arc<Variant>> {
        let now = self.now();
        self.read(|snap| {
            let e = snap.entries.get(key)?;
            e.last_used.store(now, Ordering::Relaxed);
            e.hits.fetch_add(hits, Ordering::Relaxed);
            Some(Arc::clone(&e.variant))
        })
    }

    /// Fetch a variant *without* touching recency or hits, for observers
    /// that must not distort the signal they read.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<Variant>> {
        self.read(|snap| snap.entries.get(key).map(|e| Arc::clone(&e.variant)))
    }

    /// Remove one entry by key, returning its producing request and
    /// variant (a dispatch still holding the `Arc` keeps calling the code:
    /// the JIT segment's bytes are never reused).
    pub fn remove_key(&self, key: &CacheKey) -> Option<(SpecRequest, Arc<Variant>)> {
        let mut map = unpoison(self.write.lock());
        let (_, req, v) = self.unpublish(&mut map, [*key]).pop()?;
        Some((req, v))
    }

    /// Visit every entry of the published snapshot, unordered: per-entry
    /// exact, cross-entry skewed by in-flight lookups.
    pub fn each(&self, mut f: impl FnMut(&CacheEntry)) {
        self.read(|snap| snap.entries.values().for_each(|e| f(e)));
    }

    /// Insert (or replace) a variant if `current()` holds under the
    /// writer lock, and say whether it did. An invalidation takes the same
    /// lock after moving the generation `current` reads, so either its
    /// sweep finds the entry or the insert refuses it. Readers see the
    /// entry once the new snapshot is published.
    pub fn insert(
        &self,
        key: CacheKey,
        variant: Arc<Variant>,
        req: SpecRequest,
        current: impl FnOnce() -> bool,
    ) -> bool {
        let now = self.now();
        let code_len = variant.code_len as isize;
        let entry = Arc::new(CacheEntry {
            variant,
            key,
            req,
            last_used: AtomicU64::new(now),
            hits: AtomicU64::new(0),
        });
        let mut map = unpoison(self.write.lock());
        if !current() {
            return false;
        }
        let prev = map.insert(key, entry);
        self.publish(&map);
        drop(map);
        match prev {
            Some(p) => self.account(code_len - p.variant.code_len as isize, 0),
            None => self.account(code_len, 1),
        }
        true
    }

    /// Remove and return the highest-score entry other than `keep` (ties:
    /// the lowest fingerprint) with its producing request, scored and
    /// removed under the writer lock; `None` means nothing but `keep` is
    /// left.
    pub fn evict_victim(&self, keep: CacheKey) -> Option<(CacheKey, SpecRequest, Arc<Variant>)> {
        let now = self.tick.load(Ordering::Relaxed);
        let mut map = unpoison(self.write.lock());
        let victim = map
            .values()
            .filter(|e| e.key != keep)
            .max_by_key(|e| (e.score(now), Reverse(e.key.fingerprint)))?
            .key;
        self.unpublish(&mut map, [victim]).pop()
    }

    /// Remove every entry whose variant satisfies `pred`, returning the
    /// `(key, producing request, variant)` triples: one publish for the
    /// whole sweep, none when nothing matched.
    pub fn remove_matching(
        &self,
        pred: impl Fn(&Variant) -> bool,
    ) -> Vec<(CacheKey, SpecRequest, Arc<Variant>)> {
        let mut map = unpoison(self.write.lock());
        let doomed: Vec<CacheKey> = map
            .values()
            .filter(|e| pred(&e.variant))
            .map(|e| e.key)
            .collect();
        self.unpublish(&mut map, doomed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::RewriteStats;
    use crate::telemetry::metrics::Ctr;
    use std::sync::mpsc;

    fn cache() -> VariantCache {
        VariantCache::new(
            Arc::new(MetricsRegistry::new()),
            Arc::new(FlightRecorder::new(64)),
        )
    }

    fn dummy(func: u64, entry: u64, code_len: usize) -> (CacheKey, Arc<Variant>, SpecRequest) {
        (
            CacheKey {
                func,
                fingerprint: entry,
            },
            Arc::new(Variant {
                func,
                entry,
                code_len,
                stats: RewriteStats::default(),
                guards: None,
                snapshot: crate::snapshot::KnownSnapshot::default(),
            }),
            SpecRequest::new(),
        )
    }

    fn hits(c: &VariantCache) -> Vec<(CacheKey, u64)> {
        let mut out = Vec::new();
        c.each(|e| out.push((e.key, e.hits.load(Ordering::Relaxed))));
        out
    }

    fn dummy_entry(func: u64, entry: u64, code_len: usize) -> CacheEntry {
        let (key, variant, req) = dummy(func, entry, code_len);
        CacheEntry {
            variant,
            key,
            req,
            last_used: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    #[test]
    fn score_prefers_stale_large_cold() {
        let hot = dummy_entry(1, 10, 100);
        hot.last_used.store(9, Ordering::Relaxed);
        hot.hits.store(9, Ordering::Relaxed);
        let cold = dummy_entry(1, 20, 100);
        cold.last_used.store(1, Ordering::Relaxed);
        assert!(cold.score(10) > hot.score(10));

        let small = dummy_entry(1, 30, 10);
        let big = dummy_entry(1, 40, 10_000);
        assert!(big.score(5) > small.score(5));
    }

    #[test]
    fn accounting_tracks_insert_evict_clear() {
        let c = cache();
        for e in [10u64, 20, 30] {
            let (key, v, req) = dummy(1, e, 100);
            c.insert(key, v, req, || true);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.resident_bytes(), 300);

        let keep = CacheKey {
            func: 1,
            fingerprint: 30,
        };
        let (vk, _, v) = c.evict_victim(keep).unwrap();
        assert_ne!(v.entry, 30, "`keep` is never the victim");
        assert_eq!(vk.fingerprint, v.entry);
        assert_eq!(c.resident_bytes(), 200);

        c.remove_matching(|_| true);
        assert_eq!(c.len(), 0);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_same_key_replaces_bytes() {
        let c = cache();
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req, || true);
        let (_, v2, req2) = dummy(1, 10, 40);
        c.insert(key, v2, req2, || true);
        assert_eq!(c.len(), 1);
        assert_eq!(c.resident_bytes(), 40);
    }

    #[test]
    fn peek_does_not_bump_credit_does() {
        let c = cache();
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req, || true);
        c.peek(&key).unwrap();
        assert_eq!(hits(&c), vec![(key, 0)], "peek left hits alone");
        assert!(c.lookup(&key, 5).is_some());
        assert_eq!(hits(&c), vec![(key, 5)]);
        assert!(c
            .lookup(
                &CacheKey {
                    func: 1,
                    fingerprint: 99
                },
                1
            )
            .is_none());
    }

    #[test]
    fn remove_key_returns_request_and_accounts() {
        let c = cache();
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req, || true);
        let (_, v) = c.remove_key(&key).unwrap();
        assert_eq!(v.entry, 10);
        assert_eq!(c.len(), 0);
        assert_eq!(c.resident_bytes(), 0);
        assert!(c.remove_key(&key).is_none());
    }

    #[test]
    fn remove_matching_filters_and_accounts() {
        let c = cache();
        for (func, entry) in [(1u64, 10u64), (1, 20), (2, 30)] {
            let (key, v, req) = dummy(func, entry, 100);
            c.insert(key, v, req, || true);
        }
        let removed = c.remove_matching(|v| v.func == 1);
        assert_eq!(removed.len(), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.resident_bytes(), 100);
        assert!(c.remove_matching(|v| v.func == 1).is_empty());
    }

    #[test]
    fn hits_survive_republication() {
        // A hit recorded through one snapshot must be visible after the
        // writer rebuilds and swaps — the accounting lives in the shared
        // entry, not the snapshot.
        let c = cache();
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req, || true);
        c.lookup(&key, 1).unwrap();
        c.lookup(&key, 1).unwrap();
        let (k2, v2, r2) = dummy(1, 20, 100);
        c.insert(k2, v2, r2, || true); // republishes the snapshot
        assert!(hits(&c).contains(&(key, 2)));
    }

    #[test]
    fn every_publish_is_counted_and_journaled_with_its_generation() {
        let m = Arc::new(MetricsRegistry::new());
        let f = Arc::new(FlightRecorder::new(64));
        let c = VariantCache::new(Arc::clone(&m), Arc::clone(&f));
        for e in 0..3u64 {
            let (key, v, req) = dummy(1, e, 8);
            c.insert(key, v, req, || true);
        }
        c.remove_matching(|v| v.entry == 0);
        c.remove_matching(|_| false); // nothing matched: no publish
        assert_eq!(m.counter(Ctr::SnapPublished).get(), 4);
        let words: Vec<[u64; 2]> = f
            .dump()
            .entries
            .iter()
            .map(|r| [r.args[0], r.args[1]])
            .collect();
        assert_eq!(words, [[1, 1], [2, 2], [3, 3], [4, 2]]);
    }

    #[test]
    fn a_read_after_a_publish_on_the_same_thread_sees_it() {
        let c = cache();
        let (key, v, req) = dummy(1, 10, 100);
        assert!(
            c.lookup(&key, 1).is_none(),
            "the slot now holds the empty snapshot"
        );
        c.insert(key, v, req, || true);
        assert_eq!(c.lookup(&key, 1).map(|v| v.code_len), Some(100));
        let (_, v, req) = dummy(1, 10, 40);
        c.insert(key, v, req, || true);
        assert_eq!(c.peek(&key).map(|v| v.code_len), Some(40));
        c.remove_key(&key);
        assert!(c.lookup(&key, 1).is_none());
        assert!(c.peek(&key).is_none());
    }

    #[test]
    fn caches_sharing_a_thread_slot_never_serve_each_others_entries() {
        let a = cache();
        let b = std::iter::repeat_with(cache)
            .find(|b| b.slot() == a.slot())
            .unwrap();
        // The same key at the same generation in both: only the owner
        // tells the two snapshots apart.
        let (key, v, req) = dummy(1, 10, 100);
        a.insert(key, v, req, || true);
        let (_, v, req) = dummy(1, 10, 200);
        b.insert(key, v, req, || true);
        assert_eq!(a.gen.load(Ordering::Relaxed), b.gen.load(Ordering::Relaxed));
        for _ in 0..3 {
            assert_eq!(a.lookup(&key, 1).map(|v| v.code_len), Some(100));
            assert_eq!(b.lookup(&key, 1).map(|v| v.code_len), Some(200));
            let mut seen = Vec::new();
            a.each(|e| {
                // A read of the other cache from inside `each`.
                seen.push((e.variant.code_len, b.peek(&key).map(|v| v.code_len)));
            });
            assert_eq!(seen, [(100, Some(200))]);
        }
    }

    #[test]
    fn a_retired_snapshot_is_freed_once_no_thread_holds_it() {
        let c = cache();
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req, || true);
        let published = || Arc::downgrade(&*unpoison(c.snap.lock()));
        let first = published();
        let (held_tx, held_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let c = &c;
            let reader = s.spawn(move || {
                c.lookup(&key, 1).unwrap();
                held_tx.send(()).unwrap();
                go_rx.recv().unwrap();
            });
            held_rx.recv().unwrap();
            let (k2, v2, r2) = dummy(1, 20, 100);
            c.insert(k2, v2, r2, || true); // retires `first`
            assert!(
                first.upgrade().is_some(),
                "the reader's slot still holds it"
            );
            go_tx.send(()).unwrap();
            // A joined thread has run its thread-local destructors.
            reader.join().unwrap();
        });
        assert!(first.upgrade().is_none(), "freed with the reader's slot");
        // Held by no thread, the current snapshot goes with the next publish.
        let second = published();
        c.remove_key(&key);
        assert!(second.upgrade().is_none(), "freed by the republish");
    }

    #[test]
    fn concurrent_readers_and_writers_smoke() {
        // 4 reader threads spin on lookup while a writer churns the same
        // keys through insert/remove; every successful lookup must return
        // a coherent entry. Run under the release stress job for the real
        // torture (crates/core/tests/serving.rs); this is the in-crate
        // canary.
        let c = Arc::new(cache());
        let stop = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut n = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let key = CacheKey {
                            func: 1,
                            fingerprint: n % 8,
                        };
                        if let Some(v) = c.lookup(&key, 1) {
                            assert_eq!(v.entry, key.fingerprint, "torn read on thread {t}");
                        }
                        n += 1;
                    }
                });
            }
            for round in 0..2_000u64 {
                let e = round % 8;
                let (key, v, req) = dummy(1, e, 16);
                c.insert(key, v, req, || true);
                if round % 3 == 0 {
                    c.remove_key(&key);
                }
            }
            stop.store(1, Ordering::Relaxed);
        });
    }
}
