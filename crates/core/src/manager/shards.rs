//! Fingerprint-sharded variant cache with a wait-free read path and
//! global byte accounting.
//!
//! The cache is split into `N` shards (a power of two); a key lives in the
//! shard selected by the low bits of its request fingerprint (FNV-1a
//! output, so the bits are well mixed). Each shard maintains **two**
//! representations of its entries:
//!
//! - the *writer map* — the authoritative `HashMap`, guarded by the shard
//!   mutex; every mutation (publish, demote, evict, invalidate, clear)
//!   goes through it;
//! - the *published snapshot* — an immutable copy of that map behind an
//!   `AtomicPtr`, rebuilt and swapped by the writer after every mutation.
//!
//! Readers ([`ShardedCache::lookup`] and friends) never take the mutex:
//! they pin the shard's reclamation epoch, load the snapshot pointer,
//! probe the immutable map and unpin — one load plus a hash probe, zero
//! locks, which is what makes the serving hit path wait-free (C5 in
//! EXPERIMENTS.md). Recency/hit accounting moved into per-entry atomics
//! ([`CacheEntry::last_used`]/[`CacheEntry::hits`]) shared between the
//! writer map and every snapshot, so a hit bumps the *entry*, not a
//! lock-guarded map.
//!
//! # Epoch-deferred reclamation
//!
//! Swapping the snapshot pointer orphans the previous snapshot while a
//! racing reader may still be probing it, so retired snapshots are freed
//! via a two-epoch parity scheme instead of immediately:
//!
//! ```text
//!   reader                            writer (under shard mutex)
//!   e = epoch            (SeqCst)     build new snapshot from map
//!   active[e&1] += 1     (SeqCst)     old = snap.swap(new)     (SeqCst)
//!   p = snap.load        (SeqCst)     limbo[epoch&1].push(old)
//!   ... probe *p ...                  if active[(epoch+1)&1] == 0:
//!   active[e&1] -= 1     (SeqCst)         epoch += 1
//!                                         free limbo[epoch&1]
//! ```
//!
//! Safety argument (all operations on `epoch`, `active` and `snap` are
//! SeqCst, so they form one total order): a reader that dereferences a
//! snapshot `S` loaded `snap` *before* the swap that retired `S` —
//! otherwise it would have loaded the replacement — and incremented its
//! pinned parity counter before that load. Hence
//! `pin-increment ≺ snap-load(S) ≺ retire(S)` in the total order, and any
//! gate check (`active[..] == 0`) performed after the retire observes the
//! reader's pin. `S`, retired at epoch `z`, is freed only by an advance
//! whose gate reads `active[z&1]`; if the reader pinned parity `z&1`,
//! that very gate blocks, and if it pinned the other parity, the earlier
//! advance `z → z+1` (required before any freeing advance can run) is
//! gated on the reader's parity and blocks instead. Either way a pinned
//! reader keeps every snapshot it can possibly hold alive; at most two
//! generations of retired snapshots linger when no publish follows.
//!
//! Only the snapshot *index* needs this care: the variant code itself
//! lives in the JIT bump allocator (never reused) and the [`Variant`]
//! metadata is `Arc`-shared, so an evicted variant a concurrent dispatch
//! still holds stays alive and callable.
//!
//! Resident bytes, entry count and the logical clock remain global
//! atomics so the byte budget stays a single whole-cache bound rather
//! than `N` independent ones.

use super::{CacheKey, Variant};
use crate::request::SpecRequest;
use crate::telemetry::flight::FlightKind;
use crate::telemetry::metrics::Gge;
use crate::telemetry::{self, FlightRecorder, MetricsRegistry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Recover the guard from a poisoned lock. Every shard mutex protects a
/// plain map whose invariants hold between statements, so a panic on
/// another thread (contained at the manager boundary anyway) must not
/// wedge the cache for everyone else.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Default shard count; enough that 8-16 threads rarely collide.
pub(super) const DEFAULT_SHARDS: usize = 8;

/// One cached variant plus its lock-free accounting. Shared (`Arc`)
/// between the writer map and every published snapshot, so a hit recorded
/// through a snapshot is visible to the writer-side eviction scoring
/// without any copying or locking.
pub(super) struct CacheEntry {
    pub variant: Arc<Variant>,
    pub key: CacheKey,
    /// The request that produced the variant — kept so invalidation can
    /// rebuild the variant without the original caller's help.
    pub req: SpecRequest,
    /// Logical-clock timestamp of the last hit/credit (atomic: bumped by
    /// lock-free readers, read by writer-side eviction scoring).
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

/// An immutable published snapshot of one shard's entries. Never mutated
/// after the pointer swap that publishes it; freed via the epoch scheme.
#[derive(Default)]
struct Snap {
    entries: HashMap<CacheKey, Arc<CacheEntry>>,
}

/// A retired snapshot awaiting reclamation. Raw pointers are `!Send`, but
/// limbo bins only move between writer critical sections of the same
/// shard mutex, which serializes all access to them.
struct Retired(*mut Snap);
// SAFETY: a `Retired` pointer is owned exclusively by the limbo bin it
// sits in; the shard mutex serializes every push/drain, and readers only
// ever see the pointer through `snap` *before* it is retired.
unsafe impl Send for Retired {}

/// Writer-side shard state, guarded by the shard mutex.
struct WriterState {
    /// The authoritative map every mutation goes through.
    map: HashMap<CacheKey, Arc<CacheEntry>>,
    /// Retired snapshots by retire-epoch parity, freed by epoch advances.
    limbo: [Vec<Retired>; 2],
}

struct Shard {
    /// Shard index, stamped into flight-recorder epoch events.
    id: usize,
    write: Mutex<WriterState>,
    /// The published immutable snapshot readers probe.
    snap: AtomicPtr<Snap>,
    /// Reclamation epoch; advanced by writers when the gate parity is
    /// unpinned.
    epoch: AtomicU64,
    /// Reader pin counts by epoch parity.
    active: [AtomicUsize; 2],
}

impl Shard {
    fn new(id: usize) -> Self {
        Shard {
            id,
            write: Mutex::new(WriterState {
                map: HashMap::new(),
                limbo: [Vec::new(), Vec::new()],
            }),
            snap: AtomicPtr::new(Box::into_raw(Box::default())),
            epoch: AtomicU64::new(0),
            active: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }
}

pub(super) struct ShardedCache {
    shards: Vec<Shard>,
    /// Power-of-two mask selecting a shard from a fingerprint.
    mask: usize,
    /// Code bytes resident across all shards.
    resident: AtomicUsize,
    /// Entries across all shards.
    count: AtomicUsize,
    /// Logical clock; every lookup/insert advances it.
    tick: AtomicU64,
    /// Epoch/publication telemetry (`brew_read_epoch_*`).
    metrics: Arc<MetricsRegistry>,
    /// Flight journal for epoch publish/reclaim events.
    flight: Arc<FlightRecorder>,
}

impl ShardedCache {
    pub fn new(shards: usize, metrics: Arc<MetricsRegistry>, flight: Arc<FlightRecorder>) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedCache {
            shards: (0..n).map(Shard::new).collect(),
            mask: n - 1,
            resident: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            metrics,
            flight,
        }
    }

    /// Epoch decisions go to the registry and the journal together.
    fn note(&self, kind: FlightKind, args: [u64; 4]) {
        telemetry::note(&self.metrics, &self.flight, kind, args);
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        &self.shards[key.fingerprint as usize & self.mask]
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

    /// Run `f` over the shard's published snapshot under an epoch pin.
    /// This is the entire read path: no mutex, one pointer load, one
    /// probe — see the module docs for why the dereference is safe.
    fn read<R>(&self, shard: &Shard, f: impl FnOnce(&Snap) -> R) -> R {
        let e = shard.epoch.load(Ordering::SeqCst);
        let pin = &shard.active[(e & 1) as usize];
        pin.fetch_add(1, Ordering::SeqCst);
        let p = shard.snap.load(Ordering::SeqCst);
        // SAFETY: `p` was published by a writer and cannot have been freed:
        // freeing requires an epoch-advance gate check that follows this
        // pin in the SeqCst total order (module docs, "Epoch-deferred
        // reclamation"), so it observes the pin and blocks until unpin.
        let out = f(unsafe { &*p });
        pin.fetch_sub(1, Ordering::SeqCst);
        out
    }

    /// Rebuild the shard's published snapshot from the writer map and
    /// swap it in, retiring the old snapshot into the current epoch's
    /// limbo bin; then try to advance the epoch and free the bin the
    /// advance proves unreachable. Must be called with `w` locked from
    /// `shard.write` (the mutex serializes retire/advance per shard).
    fn publish(&self, shard: &Shard, w: &mut WriterState) {
        let new = Box::into_raw(Box::new(Snap {
            entries: w.map.clone(),
        }));
        let old = shard.snap.swap(new, Ordering::SeqCst);
        let e = shard.epoch.load(Ordering::SeqCst);
        w.limbo[(e & 1) as usize].push(Retired(old));
        self.note(FlightKind::EpochPublish, [shard.id as u64, e, 0, 0]);
        self.metrics.gauge_add(Gge::EpochLimbo, 1);
        // Advance gate: parity (e+1)&1 holds only snapshots retired at
        // epochs <= e-1; with no reader pinned there, nothing can still
        // hold them (module docs) and the bin is freed.
        let gate = ((e + 1) & 1) as usize;
        if shard.active[gate].load(Ordering::SeqCst) == 0 {
            shard.epoch.store(e + 1, Ordering::SeqCst);
            self.metrics.gauge_add(Gge::ReadEpoch, 1);
            let freed = w.limbo[gate].len();
            for r in w.limbo[gate].drain(..) {
                // SAFETY: `r.0` came out of `snap.swap` exactly once (sole
                // ownership) and the gate check proved no reader can still
                // hold it.
                drop(unsafe { Box::from_raw(r.0) });
            }
            if freed > 0 {
                self.note(
                    FlightKind::EpochReclaim,
                    [shard.id as u64, freed as u64, 0, 0],
                );
                self.metrics.gauge_add(Gge::EpochLimbo, -(freed as i64));
            }
        }
    }

    /// Fetch a variant, bumping its recency and hit count — the wait-free
    /// serving hit path: epoch pin, snapshot probe, two relaxed atomic
    /// bumps, unpin. No mutex is ever acquired on a hit.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<Variant>> {
        let now = self.now();
        self.read(self.shard(key), |snap| {
            let e = snap.entries.get(key)?;
            e.last_used.store(now, Ordering::Relaxed);
            e.hits.fetch_add(1, Ordering::Relaxed);
            Some(Arc::clone(&e.variant))
        })
    }

    /// Fetch a variant *without* touching recency or hit accounting —
    /// for observers (the tiering layer) that must not distort the very
    /// signal they read.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<Variant>> {
        self.read(self.shard(key), |snap| {
            snap.entries.get(key).map(|e| Arc::clone(&e.variant))
        })
    }

    /// Remove one entry by key, returning its producing request and
    /// variant — the demotion primitive. Byte accounting is adjusted
    /// globally; a concurrent dispatch holding the `Arc` keeps the code
    /// itself alive and callable (the JIT segment is a bump allocator, so
    /// the bytes are never reused).
    pub fn remove_key(&self, key: &CacheKey) -> Option<(SpecRequest, Arc<Variant>)> {
        let shard = self.shard(key);
        let mut w = unpoison(shard.write.lock());
        let e = w.map.remove(key)?;
        self.publish(shard, &mut w);
        drop(w);
        self.resident
            .fetch_sub(e.variant.code_len, Ordering::AcqRel);
        self.count.fetch_sub(1, Ordering::AcqRel);
        Some((e.req.clone(), Arc::clone(&e.variant)))
    }

    /// Snapshot every entry's `(key, hits)` pair, unordered — the tiering
    /// layer diffs consecutive snapshots into per-tick hit deltas. Reads
    /// the published snapshots (no locks), so the view is per-entry exact
    /// but only cross-entry consistent up to in-flight lookups (which
    /// land in the next delta).
    pub fn snapshot_hits(&self) -> Vec<(CacheKey, u64)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            self.read(shard, |snap| {
                out.extend(
                    snap.entries
                        .values()
                        .map(|e| (e.key, e.hits.load(Ordering::Relaxed))),
                );
            });
        }
        out
    }

    /// Credit `n` external hits (dispatch-stub counter deltas) to an
    /// entry: bumps recency and hit count as if `n` lookups had occurred,
    /// so LRU eviction sees stub traffic too. Returns whether the key was
    /// resident. Lock-free like `lookup` — the tiering tick no longer
    /// contends with the serving path.
    pub fn credit(&self, key: &CacheKey, n: u64) -> bool {
        let now = self.now();
        self.read(self.shard(key), |snap| {
            let Some(e) = snap.entries.get(key) else {
                return false;
            };
            e.last_used.store(now, Ordering::Relaxed);
            e.hits.fetch_add(n, Ordering::Relaxed);
            true
        })
    }

    /// Insert (or replace) a variant; byte accounting is adjusted
    /// globally. The entry becomes visible to readers when the rebuilt
    /// snapshot is swapped in — publication is the pointer swap.
    pub fn insert(&self, key: CacheKey, variant: Arc<Variant>, req: SpecRequest) {
        let now = self.now();
        let code_len = variant.code_len;
        let entry = Arc::new(CacheEntry {
            variant,
            key,
            req,
            last_used: AtomicU64::new(now),
            hits: AtomicU64::new(0),
        });
        let shard = self.shard(&key);
        let mut w = unpoison(shard.write.lock());
        let prev = w.map.insert(key, entry);
        self.publish(shard, &mut w);
        drop(w);
        self.resident.fetch_add(code_len, Ordering::AcqRel);
        match prev {
            Some(p) => {
                self.resident
                    .fetch_sub(p.variant.code_len, Ordering::AcqRel);
            }
            None => {
                self.count.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Remove and return the globally highest-score entry other than
    /// `keep` as a `(key, producing request, variant)` triple, so the
    /// caller can hand the request to the tiering layer for possible
    /// re-promotion. Shards are scanned and locked one at a time (never
    /// nested), so a concurrent eviction may remove a candidate between
    /// scoring and removal — the scan then retries with a fresh victim
    /// (terminates: each lost race means the entry set shrank), so `None`
    /// reliably means "nothing but `keep` is left".
    pub fn evict_victim(&self, keep: CacheKey) -> Option<(CacheKey, SpecRequest, Arc<Variant>)> {
        loop {
            let now = self.tick.load(Ordering::Relaxed);
            let mut best: Option<(u128, std::cmp::Reverse<u64>, CacheKey)> = None;
            for shard in &self.shards {
                let w = unpoison(shard.write.lock());
                for e in w.map.values() {
                    if e.key == keep {
                        continue;
                    }
                    let cand = (e.score(now), std::cmp::Reverse(e.key.fingerprint), e.key);
                    if best.as_ref().is_none_or(|b| (cand.0, cand.1) > (b.0, b.1)) {
                        best = Some(cand);
                    }
                }
            }
            let (_, _, victim) = best?;
            if let Some((req, v)) = self.remove_key(&victim) {
                return Some((victim, req, v));
            }
        }
    }

    /// Remove every entry whose variant satisfies `pred`; returns the
    /// removed `(key, producing request, variant)` triples so the caller
    /// can journal them and optionally rebuild the variants. Shards are
    /// locked one at a time (never nested) and republished at most once
    /// each, so an invalidation sweep costs one snapshot swap per
    /// affected shard.
    pub fn remove_matching(
        &self,
        pred: impl Fn(&Variant) -> bool,
    ) -> Vec<(CacheKey, SpecRequest, Arc<Variant>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut w = unpoison(shard.write.lock());
            let doomed: Vec<CacheKey> = w
                .map
                .values()
                .filter(|e| pred(&e.variant))
                .map(|e| e.key)
                .collect();
            if doomed.is_empty() {
                continue;
            }
            for key in &doomed {
                if let Some(e) = w.map.remove(key) {
                    self.resident
                        .fetch_sub(e.variant.code_len, Ordering::AcqRel);
                    self.count.fetch_sub(1, Ordering::AcqRel);
                    out.push((*key, e.req.clone(), Arc::clone(&e.variant)));
                }
            }
            self.publish(shard, &mut w);
        }
        out
    }

    /// Drop every entry and reset byte accounting. Returns the drained
    /// variants so the caller can retire their symbol-table records.
    pub fn clear(&self) -> Vec<Arc<Variant>> {
        let mut dropped = Vec::new();
        for shard in &self.shards {
            let mut w = unpoison(shard.write.lock());
            if w.map.is_empty() {
                continue;
            }
            for (_, e) in w.map.drain() {
                self.resident
                    .fetch_sub(e.variant.code_len, Ordering::AcqRel);
                self.count.fetch_sub(1, Ordering::AcqRel);
                dropped.push(Arc::clone(&e.variant));
            }
            self.publish(shard, &mut w);
        }
        dropped
    }

    /// Snapshot `(hits, last_used, fingerprint, variant)` of every cached
    /// variant of `func`, unordered — the manager sorts. Lock-free.
    pub fn snapshot_func(&self, func: u64) -> Vec<(u64, u64, u64, Arc<Variant>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            self.read(shard, |snap| {
                for e in snap.entries.values() {
                    if e.variant.func == func {
                        out.push((
                            e.hits.load(Ordering::Relaxed),
                            e.last_used.load(Ordering::Relaxed),
                            e.key.fingerprint,
                            Arc::clone(&e.variant),
                        ));
                    }
                }
            });
        }
        out
    }

    /// Snapshot every entry as a `(key, producing request, variant)`
    /// triple, unordered — the persistence layer serializes from this.
    /// Lock-free.
    pub fn snapshot_all(&self) -> Vec<(CacheKey, SpecRequest, Arc<Variant>)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            self.read(shard, |snap| {
                for e in snap.entries.values() {
                    out.push((e.key, e.req.clone(), Arc::clone(&e.variant)));
                }
            });
        }
        out
    }
}

impl Drop for ShardedCache {
    fn drop(&mut self) {
        for shard in &self.shards {
            // SAFETY: `&mut self` proves no reader or writer is live; the
            // published pointer and every limbo pointer are uniquely owned
            // here and freed exactly once.
            unsafe {
                drop(Box::from_raw(shard.snap.load(Ordering::SeqCst)));
                let mut w = unpoison(shard.write.lock());
                for r in w.limbo.iter_mut().flat_map(|bin| bin.drain(..)) {
                    drop(Box::from_raw(r.0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::RewriteStats;
    use crate::telemetry::metrics::Ctr;

    fn cache(shards: usize) -> ShardedCache {
        ShardedCache::new(
            shards,
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
        let c = cache(4);
        for e in [10u64, 20, 30] {
            let (key, v, req) = dummy(1, e, 100);
            c.insert(key, v, req);
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

        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_same_key_replaces_bytes() {
        let c = cache(4);
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req);
        let (_, v2, req2) = dummy(1, 10, 40);
        c.insert(key, v2, req2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.resident_bytes(), 40);
    }

    #[test]
    fn peek_does_not_bump_credit_does() {
        let c = cache(4);
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req);
        c.peek(&key).unwrap();
        assert_eq!(c.snapshot_hits(), vec![(key, 0)], "peek left hits alone");
        assert!(c.credit(&key, 5));
        assert_eq!(c.snapshot_hits(), vec![(key, 5)]);
        assert!(!c.credit(
            &CacheKey {
                func: 1,
                fingerprint: 99
            },
            1
        ));
    }

    #[test]
    fn remove_key_returns_request_and_accounts() {
        let c = cache(4);
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req);
        let (_, v) = c.remove_key(&key).unwrap();
        assert_eq!(v.entry, 10);
        assert_eq!(c.len(), 0);
        assert_eq!(c.resident_bytes(), 0);
        assert!(c.remove_key(&key).is_none());
    }

    #[test]
    fn remove_matching_filters_and_accounts() {
        let c = cache(4);
        for (func, entry) in [(1u64, 10u64), (1, 20), (2, 30)] {
            let (key, v, req) = dummy(func, entry, 100);
            c.insert(key, v, req);
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
        let c = cache(1);
        let (key, v, req) = dummy(1, 10, 100);
        c.insert(key, v, req);
        c.lookup(&key).unwrap();
        c.lookup(&key).unwrap();
        let (k2, v2, r2) = dummy(1, 20, 100);
        c.insert(k2, v2, r2); // republishes the shard
        assert!(c.snapshot_hits().contains(&(key, 2)));
    }

    #[test]
    fn epoch_reclamation_frees_limbo_under_quiescence() {
        // With no reader pinned, every publish advances the epoch, so the
        // limbo population stays bounded (<= 1 generation per shard here).
        let m = Arc::new(MetricsRegistry::new());
        let c = ShardedCache::new(1, Arc::clone(&m), Arc::new(FlightRecorder::new(64)));
        for e in 0..64u64 {
            let (key, v, req) = dummy(1, e, 8);
            c.insert(key, v, req);
        }
        let published = m.counter(Ctr::EpochPublished).get();
        let reclaimed = m.counter(Ctr::EpochReclaimed).get();
        assert_eq!(published, 64);
        // Every advance frees the *previous* generation; the newest
        // retired snapshot is still in limbo.
        assert_eq!(reclaimed, published - 1);
        assert_eq!(m.gauge(Gge::EpochLimbo).get(), 1);
    }

    #[test]
    fn concurrent_readers_and_writers_smoke() {
        // 4 reader threads spin on lookup while a writer churns the same
        // keys through insert/remove; every successful lookup must return
        // a coherent entry. Run under the release stress job for the real
        // torture (crates/core/tests/serving.rs); this is the in-crate
        // canary.
        let c = Arc::new(cache(2));
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
                        if let Some(v) = c.lookup(&key) {
                            assert_eq!(v.entry, key.fingerprint, "torn read on thread {t}");
                        }
                        n += 1;
                    }
                });
            }
            for round in 0..2_000u64 {
                let e = round % 8;
                let (key, v, req) = dummy(1, e, 16);
                c.insert(key, v, req);
                if round % 3 == 0 {
                    c.remove_key(&key);
                }
            }
            stop.store(1, Ordering::Relaxed);
        });
    }
}
