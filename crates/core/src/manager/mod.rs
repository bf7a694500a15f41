//! `SpecializationManager` — a shared, thread-safe specialization service:
//! memoized, budgeted, single-flight, observable.
//!
//! The paper's cost argument (§V, A6) is that a rewrite is *paid once and
//! amortized*; its dispatch sketch (§III.D) is that many specialized
//! variants coexist and are selected at call time. The bare
//! [`crate::Rewriter`] supports neither: every call re-traces from
//! scratch, and a guard stub dispatches between exactly two targets. The
//! manager adds the missing layer:
//!
//! - **Sharded variant cache** — rewrites are memoized under
//!   `(function, request fingerprint)` (see [`SpecRequest::fingerprint`]);
//!   the cache is split into fingerprint-selected shards, each with its
//!   own lock, so warm hits from many threads proceed without contending
//!   (see the sharded store). A repeated request returns the cached [`Variant`]
//!   without tracing a single guest instruction.
//! - **Single-flight rewriting** — concurrent misses on the same key
//!   coalesce onto one in-progress trace instead of duplicating it: the
//!   first requester leads, the rest block on the flight and share its
//!   result (see the in-flight table). Each distinct fingerprint is traced
//!   exactly once no matter how many threads race for it.
//! - **Deferred mode** — inside [`run_deferred`](SpecializationManager::run_deferred),
//!   [`request`](SpecializationManager::request) answers a miss with the
//!   *original* entry immediately and queues the rewrite for a bounded
//!   scoped worker pool; the variant is published for subsequent calls —
//!   the paper's "delayed step" (§V.C) made literal (see the worker module).
//! - **Cost-aware LRU eviction** — the cache is bounded by a JIT-segment
//!   byte budget with *global* accounting across shards. When over
//!   budget, the entry with the highest `staleness x code bytes /
//!   (hits + 1)` score is dropped first: old, big, cold code goes; hot or
//!   cheap variants stay. (The JIT segment is a bump allocator, so
//!   evicted bytes are not reused — eviction bounds the *cache's resident
//!   set*, and re-specialization allocates fresh space, exactly like
//!   discarding a JIT code cache generation.)
//! - **Dispatch stubs** — [`build_dispatcher`](SpecializationManager::build_dispatcher)
//!   chains every cached, guardable variant of a function into one
//!   [`crate::guard::make_guard_chain`] stub falling through to the
//!   original. The stub is emitted fresh at a new address from a snapshot
//!   of the cache, so rebuilding while other threads publish variants is
//!   safe — callers swap the returned pointer in whole.
//! - **Observability** — hits/misses/evictions plus the concurrency
//!   counters (coalesced, deferred, published) and per-phase rewrite
//!   timings are streamed to a pluggable [`EventSink`], which must be
//!   `Send + Sync` because events now come from many threads.
//!   Independently of any sink, every decision is written once, through
//!   the decision table in [`crate::telemetry::table`], into a lock-free
//!   [`crate::telemetry::MetricsRegistry`] (shared via
//!   [`metrics`](SpecializationManager::metrics)) and the flight journal,
//!   so counters, gauges and rewrite-phase histograms are *always*
//!   populated — an absent sink no longer means silent event loss.
//!   [`CacheStats`] is a view over that registry.
//! - **Negative caching** — a failed rewrite is memoized per key (see
//!   [`negative`]): repeats of the same doomed request are *denied* at
//!   shard-lookup cost instead of re-tracing to rediscover the failure,
//!   with a decaying backoff that periodically lets one retry through
//!   (failures can be data-dependent) and a hard attempt cap after which
//!   the key is written off. [`request`](SpecializationManager::request)
//!   answers a denial with the original entry; the synchronous path
//!   returns the memoized error. Deferred jobs respect the same backoff
//!   because they run through the ordinary `obtain` path.
//! - **Staleness tracking & invalidation** — every rewrite records which
//!   known-memory bytes it folded into constants
//!   ([`crate::snapshot::KnownSnapshot`], carried by the [`Variant`]).
//!   One entry point,
//!   [`apply_invalidation`](SpecializationManager::apply_invalidation),
//!   takes an [`Invalidation`]: [`Invalidation::Func`] drops all variants
//!   of a function, [`Invalidation::Data`] drops variants whose folded
//!   ranges overlap a mutated range, and [`Invalidation::Revalidate`]
//!   re-hashes every snapshot against the image and drops (and, inside a
//!   deferred scope, re-enqueues) exactly the variants whose folded bytes
//!   changed. With tiering enabled the re-enqueue is *heat-gated*: only
//!   stale variants whose decayed heat clears the policy's bar are
//!   re-specialized; cold stale variants just die.
//! - **Adaptive tiering** — a manager built with
//!   [`ManagerBuilder::tiering`] closes the counter → specialization
//!   loop: [`tick`](SpecializationManager::tick) reads dispatch-stub
//!   [`CounterPage`]s and cache hit counts into decayed per-key heat
//!   scores and lets a [`TieringPolicy`] promote hot fingerprints
//!   (enqueue their rewrite), demote cold resident variants (reclaim
//!   budget ahead of LRU pressure) and gate re-specialization after
//!   invalidation. See the [`tiering`] module docs for the state machine.
//! - **Panic containment** — the trace/encode pipeline runs under
//!   `catch_unwind` on both the synchronous and worker paths; a panic
//!   becomes [`RewriteError::Internal`], is negatively cached like any
//!   other failure, and fails one request instead of killing the worker
//!   pool or poisoning the shared state. All manager locks recover from
//!   poisoning for the same reason.
//!
//! Construction goes through [`ManagerBuilder`] (one fluent chain, typed
//! config structs).

mod builder;
mod inflight;
pub mod negative;
mod shards;
pub mod tiering;
mod worker;

use crate::capture::RewriteStats;
use crate::error::RewriteError;
use crate::guard::{self, CounterPage, GuardCase};
use crate::persist::{self, PersistError, PersistedVariant};
use crate::request::SpecRequest;
use crate::snapshot::KnownSnapshot;
use crate::telemetry::flight::{milli, FlightKind};
use crate::telemetry::{
    self, metrics::Ctr, metrics::Gge, metrics::Hst, FlightRecorder, MetricsRegistry, SymbolTable,
};
use crate::{OptLevel, Rewriter};
use brew_image::{Image, SegKind};
pub use builder::{DeferredConfig, ManagerBuilder};
use inflight::{InflightTable, Join};
pub use negative::NegativePolicy;
use negative::{NegativeCache, Verdict};
use shards::ShardedCache;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use tiering::Tiering;
pub use tiering::{DecayedThreshold, TickSummary, TierAction, TieringConfig, TieringPolicy};
use worker::{Enqueue, Job, JobQueue};

/// Recover the guard from a poisoned lock. Panics are contained at the
/// rewrite boundary, but a sink or hook can still panic while a manager
/// lock is held; all manager-internal state is consistent between
/// statements, so serving the next caller beats wedging everyone.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort text of a contained panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Key of the variant cache: which function, specialized how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Entry address of the original function.
    pub func: u64,
    /// [`SpecRequest::fingerprint`] of the request.
    pub fingerprint: u64,
}

/// A cached specialization: the rewrite result plus what the dispatcher
/// needs to guard it.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Entry address of the original function.
    pub func: u64,
    /// Entry address of the specialized code (drop-in replacement).
    pub entry: u64,
    /// Emitted code size in bytes.
    pub code_len: usize,
    /// Statistics of the producing rewrite.
    pub stats: RewriteStats,
    /// Dispatch conditions `(integer parameter index, expected value)`, or
    /// `None` when the variant can't be guarded by register compares.
    pub guards: Option<Vec<(usize, i64)>>,
    /// The known-memory bytes the rewrite folded into constants — what
    /// [`Invalidation::Revalidate`] re-checks and [`Invalidation::Data`]
    /// intersects against.
    pub snapshot: KnownSnapshot,
}

/// Aggregated manager counters; cheap to copy, comparable in tests.
///
/// A *view*: every cumulative field reads the counter (or histogram sum) of
/// the manager's [`MetricsRegistry`] that the same decision feeds, so the
/// two can never disagree; `resident_bytes` and `negative_entries` read the
/// caches' own accounting. One consequence: while the registry is switched
/// off ([`MetricsRegistry::set_enabled`]`(false)`) decisions are not
/// counted anywhere, and the cumulative fields freeze until it is back on.
/// The counters are `Relaxed` statistics: a value read here publishes
/// nothing else, so join (or otherwise synchronize with) the threads whose
/// requests a total must include before comparing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to rewrite (single-flight leaders only).
    pub misses: u64,
    /// Requests that subscribed to another thread's in-progress rewrite
    /// instead of duplicating it.
    pub coalesced: u64,
    /// Misses answered with the original entry while the rewrite was
    /// queued for a background worker.
    pub deferred: u64,
    /// Variants published by background workers — `Published` events less
    /// the warm-start loads, which announce themselves the same way (a load
    /// in progress is subtracted when it finishes).
    pub published: u64,
    /// Variants evicted under byte-budget pressure.
    pub evictions: u64,
    /// Code bytes currently resident in the cache.
    pub resident_bytes: usize,
    /// Cumulative guest instructions traced by actual rewrites. Stays
    /// flat across cache hits and coalesced requests — the "no duplicate
    /// trace" proof.
    pub traced_total: u64,
    /// Cumulative wall-clock nanoseconds spent inside actual rewrites.
    pub rewrite_ns_total: u64,
    /// Dispatch stubs built.
    pub dispatchers_built: u64,
    /// Requests denied from the negative cache — each one a full trace
    /// *not* repeated for a key already known to fail.
    pub denied: u64,
    /// Variants dropped by invalidation (explicit or via revalidate).
    pub invalidated: u64,
    /// Variants found stale by [`Invalidation::Revalidate`]
    /// (their folded known-memory bytes had changed).
    pub stale: u64,
    /// Rewrite-pipeline panics converted into
    /// [`RewriteError::Internal`] instead of unwinding into the caller
    /// or worker pool.
    pub panics_contained: u64,
    /// Live entries in the negative cache.
    pub negative_entries: usize,
}

/// One manager event, streamed to the [`EventSink`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A request was answered from the cache.
    Hit {
        /// Original function.
        func: u64,
        /// Cached specialized entry.
        entry: u64,
    },
    /// A request missed; this thread leads the rewrite (or fails).
    Miss {
        /// Original function.
        func: u64,
    },
    /// A request found the same rewrite already in flight on another
    /// thread and subscribed to its result.
    Coalesced {
        /// Original function.
        func: u64,
    },
    /// A miss in deferred mode: the rewrite was queued and the caller was
    /// answered with the original entry.
    Deferred {
        /// Original function.
        func: u64,
    },
    /// A rewrite completed and its variant was inserted.
    Rewritten {
        /// Original function.
        func: u64,
        /// New specialized entry.
        entry: u64,
        /// Emitted code size in bytes.
        code_len: usize,
        /// Per-phase timings and counters of the rewrite.
        stats: RewriteStats,
    },
    /// A background worker completed a deferred rewrite; the variant is
    /// now visible to every subsequent request.
    Published {
        /// Original function.
        func: u64,
        /// New specialized entry.
        entry: u64,
    },
    /// A variant was evicted under byte-budget pressure.
    Evicted {
        /// Original function.
        func: u64,
        /// Evicted specialized entry.
        entry: u64,
        /// Its code size in bytes.
        code_len: usize,
    },
    /// A dispatch stub over cached variants was emitted.
    DispatcherBuilt {
        /// Original function (the fall-through target).
        func: u64,
        /// Stub entry address.
        entry: u64,
        /// Number of variants chained.
        variants: usize,
    },
    /// A request was denied from the negative cache: the same key already
    /// failed and is inside its backoff window (or past the attempt cap).
    Denied {
        /// Original function.
        func: u64,
        /// Failed attempts memoized for the key so far.
        attempts: u32,
    },
    /// [`Invalidation::Revalidate`] found a variant whose folded
    /// known-memory bytes no longer match its snapshot. Always followed
    /// by an `Invalidated` event for the same variant.
    Stale {
        /// Original function.
        func: u64,
        /// The stale specialized entry.
        entry: u64,
    },
    /// A variant was dropped by invalidation; subsequent requests miss
    /// and re-specialize against current data.
    Invalidated {
        /// Original function.
        func: u64,
        /// The dropped specialized entry.
        entry: u64,
    },
    /// The tiering layer promoted a hot non-resident fingerprint: its
    /// rewrite was enqueued (or, outside a deferred scope, run inline).
    Promoted {
        /// Original function.
        func: u64,
        /// Request fingerprint being specialized.
        fingerprint: u64,
        /// The heat score that crossed the promote threshold.
        heat: f64,
    },
    /// The tiering layer demoted a cold resident variant: it was removed
    /// from the cache, reclaiming its byte-budget share.
    Demoted {
        /// Original function.
        func: u64,
        /// Request fingerprint of the demoted variant.
        fingerprint: u64,
        /// The heat score that fell below the demote threshold.
        heat: f64,
        /// Code bytes reclaimed from the resident set.
        code_len: usize,
    },
    /// Invalidation found a stale variant hot enough to re-specialize:
    /// its rewrite was re-enqueued without the original caller's help.
    Respecialized {
        /// Original function.
        func: u64,
        /// Request fingerprint being re-specialized.
        fingerprint: u64,
        /// The heat score that cleared the re-specialization bar.
        heat: f64,
    },
}

/// Receiver for manager [`Event`]s — plug in a logger, a metrics counter,
/// or the `tables` amortization report. Events may arrive concurrently
/// from many threads; per-thread the stream is ordered, globally it is
/// only as ordered as the underlying races.
pub trait EventSink: Send + Sync {
    /// Called once per event.
    fn event(&self, ev: &Event);
}

/// Buffering sink collecting every event; handy in tests and reports.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// Copy of everything received so far.
    pub fn snapshot(&self) -> Vec<Event> {
        unpoison(self.events.lock()).clone()
    }

    /// Drain and return everything received so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *unpoison(self.events.lock()))
    }
}

impl EventSink for RecordingSink {
    fn event(&self, ev: &Event) {
        unpoison(self.events.lock()).push(ev.clone());
    }
}

/// Why a publish gate refused a variant.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishRejection {
    /// Number of error-severity findings.
    pub findings: usize,
    /// The first finding, rendered for operators.
    pub summary: String,
    /// True when the rejection came from the translation-validation tier
    /// (an equivalence-class finding). For a request whose passes carry
    /// a proof obligation (above `OptLevel::Regalloc`) the manager
    /// treats this as "the optimization was wrong, not the variant": it
    /// re-runs the passes conservatively over the captured CFG and
    /// re-gates the result instead of caching a failure.
    pub equivalence: bool,
}

/// Internal result of [`SpecializationManager::gate_check`]: the public
/// error plus the classification the equivalence-fallback path needs.
struct GateFailure {
    err: RewriteError,
    equivalence: bool,
    findings: usize,
}

/// Pre-publish inspection of a finished rewrite (the `verify_on_publish`
/// policy). The gate sees the finished-but-unpublished variant on both the
/// synchronous and deferred paths; returning `Err` means the variant is
/// *never* published — the manager converts the rejection into
/// [`RewriteError::VerifyRejected`], caches it negatively, and dispatch
/// falls back to the original function, exactly like any failed rewrite.
///
/// `brew-verify` provides the static translation validator implementing
/// this trait; closures with the matching signature implement it too, for
/// tests and custom policies.
pub trait PublishGate: Send + Sync {
    /// Inspect `res` (the rewrite of `func` under `req`, already emitted
    /// into `img`'s JIT segment but not yet published).
    fn inspect(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
        res: &crate::RewriteResult,
    ) -> Result<(), PublishRejection>;
}

impl<F> PublishGate for F
where
    F: Fn(&Image, u64, &SpecRequest, &crate::RewriteResult) -> Result<(), PublishRejection>
        + Send
        + Sync,
{
    fn inspect(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
        res: &crate::RewriteResult,
    ) -> Result<(), PublishRejection> {
        self(img, func, req, res)
    }
}

/// What to invalidate — the selector consumed by
/// [`SpecializationManager::apply_invalidation`]. One entry point, three
/// precisions:
///
/// - [`Func`](Invalidation::Func) — "this function changed": drop every
///   variant of it and every negative entry for it (its failures may have
///   been data-dependent too).
/// - [`Data`](Invalidation::Data) — "I just mutated these bytes": drop
///   exactly the variants whose folded known-memory ranges overlap the
///   mutated range; no image access, one pass over the cache.
/// - [`Revalidate`](Invalidation::Revalidate) — "something may have
///   changed, I don't know what": re-hash every variant's snapshot
///   against the image and drop exactly the stale ones, re-enqueueing
///   rewrites for those still worth having.
#[derive(Debug, Clone)]
pub enum Invalidation<'a> {
    /// Drop all variants of this function (entry address).
    Func(u64),
    /// Drop variants whose folded ranges overlap this address range.
    Data(Range<u64>),
    /// Re-hash every snapshot against this image; drop what changed.
    Revalidate(&'a Image),
}

/// What [`SpecializationManager::request`] answered with.
#[derive(Debug, Clone)]
pub enum Dispatch {
    /// A specialized variant is ready — call [`Variant::entry`].
    Specialized(Arc<Variant>),
    /// Call the original function. When `deferred`, the rewrite was queued
    /// for a background worker and a later request will be specialized.
    Original {
        /// Entry address to call now.
        func: u64,
        /// Whether a background rewrite is pending for this key.
        deferred: bool,
    },
}

impl Dispatch {
    /// The entry address the caller should invoke.
    pub fn entry(&self) -> u64 {
        match self {
            Dispatch::Specialized(v) => v.entry,
            Dispatch::Original { func, .. } => *func,
        }
    }

    /// Whether a specialized variant answered the request.
    pub fn is_specialized(&self) -> bool {
        matches!(self, Dispatch::Specialized(_))
    }
}

/// What [`SpecializationManager::save_variants`] wrote — and, just as
/// important, what it could *not* write. Per-entry problems never abort
/// the save (persistence is best-effort on save, strict on load), but
/// they are never silent either: every non-written entry is accounted
/// here, failures are counted in `brew_persist_save_failed_total` (each
/// with a `SAVE_FAIL` flight event) and unportable variants in
/// `brew_persist_save_unportable_total` (and the `SAVE` event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// Variants serialized into the checkpoint.
    pub written: usize,
    /// Variants skipped because their entry address is not in this
    /// image's JIT segment (a foreign image — legitimately not ours).
    pub skipped: usize,
    /// Variants whose code read-back failed even though their entry is
    /// in this image's JIT segment — a genuine per-entry I/O error.
    pub failed: usize,
    /// Variants the format cannot carry: their code reads constants from a
    /// literal pool in the image's data segment (`stats.pool_bytes > 0`),
    /// and a checkpoint holds code bytes only. Warm-started, such a variant
    /// would pass every load check and compute with zeros, so it is not
    /// written; its key cold-starts in the next process.
    pub unportable: usize,
    /// Total checkpoint size in bytes.
    pub bytes: usize,
}

/// What [`SpecializationManager::load_variants`] did with each persisted
/// entry: re-verified-and-published, or rejected with a typed reason.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Entries that survived every load check (including the publish
    /// gate) and are now resident.
    pub published: usize,
    /// Rejected entries as `(func, fingerprint, why)`; entries whose
    /// checksum failed decode as `(0, 0, why)` because nothing inside
    /// them can be trusted, not even the key.
    pub rejected: Vec<(u64, u64, PersistError)>,
}

/// How a request was ultimately satisfied (internal).
enum Outcome {
    Hit,
    Coalesced,
    Rewrote,
}

/// The memoizing, thread-safe specialization layer over [`Rewriter`]. All
/// methods take `&self`; share it across threads by reference (e.g. from
/// `std::thread::scope`) or in an `Arc`. See the module docs for the
/// design.
pub struct SpecializationManager {
    cache: ShardedCache,
    negative: NegativeCache,
    inflight: InflightTable,
    queue: JobQueue,
    budget_bytes: usize,
    deferred_cfg: DeferredConfig,
    tiering: Option<Tiering>,
    metrics: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    symbols: Arc<SymbolTable>,
    /// Rendered flight dump captured by the most recent contained panic.
    last_panic: Mutex<Option<String>>,
    sink: RwLock<Option<Box<dyn EventSink>>>,
    gate: RwLock<Option<Box<dyn PublishGate>>>,
    persist_path: Option<std::path::PathBuf>,
}

impl Default for SpecializationManager {
    fn default() -> Self {
        Self::new()
    }
}

/// Heat entries below this score with no resident variant are pruned at
/// the end of a tick — after a few quiet ticks a dead key costs nothing.
const MIN_TRACKED_HEAT: f64 = 1e-3;

impl SpecializationManager {
    /// Manager with every knob at its default — shorthand for
    /// [`builder()`](Self::builder)`.build()`.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// The one construction surface: a [`ManagerBuilder`] with typed
    /// config structs for budget, shards, negative caching, deferred mode
    /// and adaptive tiering.
    pub fn builder() -> ManagerBuilder {
        ManagerBuilder::new()
    }

    /// The always-on metrics registry every manager event is folded into.
    /// Clone the `Arc` to export from another thread (e.g. a Prometheus
    /// scrape endpoint) while the manager keeps recording.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// The flight recorder journaling every manager decision. Clone the
    /// `Arc` to dump from another thread (e.g. a crash handler or the
    /// worker pool) while the manager keeps recording.
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// The live JIT symbol table (perf-map / jitdump source), kept
    /// consistent with the variant cache across publish, unpublish and
    /// warm start.
    pub fn symbols(&self) -> Arc<SymbolTable> {
        Arc::clone(&self.symbols)
    }

    /// The flight-recorder dump captured when the most recent rewrite
    /// panic was contained — the events leading up to the blast, frozen
    /// at containment time. `None` until a panic has been contained.
    pub fn last_panic_dump(&self) -> Option<String> {
        unpoison(self.last_panic.lock()).clone()
    }

    /// Detach and return the current sink.
    pub fn take_sink(&self) -> Option<Box<dyn EventSink>> {
        unpoison(self.sink.write()).take()
    }

    /// Detach and return the current publish gate.
    pub fn take_publish_gate(&self) -> Option<Box<dyn PublishGate>> {
        unpoison(self.gate.write()).take()
    }

    /// Aggregated counters, read off the metrics registry and the caches
    /// (a consistent-enough snapshot: each field is individually exact,
    /// cross-field skew is bounded by in-flight requests). See
    /// [`CacheStats`] for what switching the registry off means here.
    pub fn stats(&self) -> CacheStats {
        let c = |c: Ctr| self.metrics.counter(c).get();
        CacheStats {
            hits: c(Ctr::CacheHits),
            misses: c(Ctr::CacheMisses),
            coalesced: c(Ctr::CacheCoalesced),
            deferred: c(Ctr::CacheDeferred),
            published: c(Ctr::CachePublished).saturating_sub(c(Ctr::PersistLoaded)),
            evictions: c(Ctr::CacheEvictions),
            resident_bytes: self.cache.resident_bytes(),
            traced_total: c(Ctr::TracedInsts),
            rewrite_ns_total: self.metrics.histogram(Hst::TotalNs).sum(),
            dispatchers_built: c(Ctr::DispatchersBuilt),
            denied: c(Ctr::NegativeHits),
            invalidated: c(Ctr::CacheInvalidated),
            stale: c(Ctr::CacheStale),
            panics_contained: c(Ctr::PanicsContained),
            negative_entries: self.negative.len(),
        }
    }

    /// The configured cache byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Number of cached variants.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.len() == 0
    }

    /// Drop every cached variant (counters are kept). Their JIT symbols
    /// are retired with them; dispatch-stub symbols survive (the stub
    /// placements do too).
    pub fn clear(&self) {
        for entry in self.cache.clear() {
            self.retire_symbol(entry);
        }
        self.sync_resident_gauges();
    }

    /// Record one decision: the counters its [`FlightKind`] row lists
    /// and the flight journal, together — the only place the manager
    /// writes either.
    fn note(&self, kind: FlightKind, args: [u64; 4]) {
        telemetry::note(&self.metrics, &self.flight, kind, args);
    }

    /// Announce a decision that has a public [`Event`]: registry and
    /// journal first and unconditionally (metrics must not depend on a
    /// sink being attached), then the sink.
    fn emit(&self, ev: Event) {
        let (kind, mut args) = ev.encode();
        // Tiering verdicts carry the threshold that justified them
        // alongside the heat score, so a dump answers "why" without the
        // config at hand.
        if let Some(t) = &self.tiering {
            match kind {
                FlightKind::Promoted => args[3] = milli(t.cfg.promote_heat),
                FlightKind::Demoted => args[3] = milli(t.cfg.demote_heat),
                _ => {}
            }
        }
        self.note(kind, args);
        if let Some(sink) = unpoison(self.sink.read()).as_ref() {
            sink.event(&ev);
        }
    }

    /// Register a freshly published variant's JIT placement in the
    /// symbol table (perf map / jitdump) and journal it.
    fn publish_symbol(&self, key: &CacheKey, v: &Variant) {
        let sym =
            self.symbols
                .publish_variant(key.func, key.fingerprint, v.entry, v.code_len as u64);
        self.note_symbol(&sym);
    }

    /// Journal a live JIT placement (variant or dispatch stub).
    fn note_symbol(&self, sym: &telemetry::JitSymbol) {
        self.note(
            FlightKind::SymbolPublish,
            [sym.entry, sym.len, sym.generation, 0],
        );
    }

    /// Retire the symbol of an unpublished variant (eviction, demotion,
    /// invalidation, clear) and journal it.
    fn retire_symbol(&self, v: Arc<Variant>) {
        if self.symbols.retire(v.entry).is_some() {
            self.note(FlightKind::SymbolRetire, [v.entry, 0, 0, 0]);
        }
    }

    /// Refresh the cache-residency gauges from the authoritative cache
    /// accounting (called after inserts and evictions).
    fn sync_resident_gauges(&self) {
        self.metrics
            .gauge_set(Gge::ResidentBytes, self.cache.resident_bytes() as i64);
        self.metrics
            .gauge_set(Gge::ResidentVariants, self.cache.len() as i64);
    }

    /// Refresh the negative-cache gauge from the authoritative count.
    fn sync_negative_gauge(&self) {
        self.metrics
            .gauge_set(Gge::NegativeEntries, self.negative.len() as i64);
    }

    fn note_hit(&self, func: u64, v: &Arc<Variant>) {
        self.emit(Event::Hit {
            func,
            entry: v.entry,
        });
    }

    fn note_panic_contained(&self) {
        // Freeze the flight recorder's view of the events leading up to
        // the blast: journal the containment, then capture the dump for
        // post-mortem retrieval via `last_panic_dump()`.
        self.note(FlightKind::PanicContained, [0; 4]);
        let dump = self.flight.dump().render_text();
        *unpoison(self.last_panic.lock()) = Some(dump);
    }

    /// The synchronous memoized entry point: return the cached variant
    /// for `(func, req)` or rewrite, insert and return it. A cache hit
    /// costs one shard-lock hash lookup — no decoding, tracing, passes or
    /// encoding. Concurrent misses on the same key coalesce onto a single
    /// rewrite.
    pub fn get_or_rewrite(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
    ) -> Result<Arc<Variant>, RewriteError> {
        self.obtain(img, func, req).map(|(v, _)| v)
    }

    /// [`get_or_rewrite`](Self::get_or_rewrite) addressing the function by
    /// its image symbol.
    pub fn get_or_rewrite_named(
        &self,
        img: &Image,
        name: &str,
        req: &SpecRequest,
    ) -> Result<Arc<Variant>, RewriteError> {
        let func = img
            .lookup(name)
            .ok_or_else(|| RewriteError::BadConfig(format!("unknown symbol `{name}`")))?;
        self.get_or_rewrite(img, func, req)
    }

    /// The non-blocking entry point: a hit answers with the specialized
    /// variant; a miss inside [`run_deferred`](Self::run_deferred) queues
    /// the rewrite and answers with the *original* entry immediately;
    /// a miss outside any deferred scope falls back to the synchronous
    /// [`get_or_rewrite`](Self::get_or_rewrite) path.
    pub fn request(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
    ) -> Result<Dispatch, RewriteError> {
        let key = CacheKey {
            func,
            fingerprint: req.fingerprint(),
        };
        if let Some(v) = self.cache.lookup(&key) {
            self.note_hit(func, &v);
            return Ok(Dispatch::Specialized(v));
        }
        // With tiering enabled a miss is an *observation*, not an order:
        // the request is recorded as heat input and the caller runs the
        // original. Specialization happens when the policy promotes the
        // key in a later tick — the whole point is that the profile, not
        // the first unlucky caller, decides what is worth rewriting.
        if let Some(t) = &self.tiering {
            t.observe_miss(key, req);
        }
        // A key already known to fail is answered with the original entry
        // at shard-lookup cost: no queueing, no tracing, no error — the
        // caller asked "what should I call" and the answer is "the
        // original, same as when the rewrite first failed".
        let denied = match self.negative.consult(&key) {
            Verdict::Deny { attempts, .. } => {
                self.emit(Event::Denied { func, attempts });
                true
            }
            _ => false,
        };
        if denied || self.tiering.is_some() {
            return Ok(Dispatch::Original {
                func,
                deferred: false,
            });
        }
        match self.queue.push(Job {
            key,
            func,
            req: req.clone(),
        }) {
            Enqueue::Queued => {
                self.emit(Event::Deferred { func });
                Ok(Dispatch::Original {
                    func,
                    deferred: true,
                })
            }
            Enqueue::AlreadyQueued => Ok(Dispatch::Original {
                func,
                deferred: true,
            }),
            Enqueue::Closed => self
                .obtain(img, func, req)
                .map(|(v, _)| Dispatch::Specialized(v)),
        }
    }

    /// [`run_deferred`](Self::run_deferred) with the worker count taken
    /// from the builder's [`DeferredConfig`] — the configured way to open
    /// a deferred scope.
    pub fn deferred_scope<R>(&self, img: &Image, f: impl FnOnce() -> R) -> Result<R, RewriteError> {
        self.run_deferred(img, self.deferred_cfg.workers, f)
    }

    /// Deferred rewrite jobs currently queued and not yet picked up by a
    /// worker.
    pub fn queue_depth(&self) -> usize {
        self.queue.pending()
    }

    /// Run `f` with `workers` background rewrite threads attached (scoped,
    /// bounded; no detached threads survive this call). While active,
    /// [`request`](Self::request) defers misses to the pool. On a normal
    /// exit the queue closes and the workers drain it, so every rewrite
    /// queued inside `f` is published before `run_deferred` returns.
    ///
    /// Errors are the queue's history, reported *before* `f` runs: opening
    /// a scope inside a still-open scope returns
    /// [`RewriteError::DeferredScopeActive`], and the first call after a
    /// scope that was closed by an unwind (a panic escaped `f`) returns
    /// [`RewriteError::DeferredScopeUnwound`] with the number of queued
    /// jobs the unwind discarded — once acknowledged, the next call starts
    /// clean. Without this, a panicking scope would silently drop its
    /// queued jobs and the next scope would run as if nothing was lost.
    pub fn run_deferred<R>(
        &self,
        img: &Image,
        workers: usize,
        f: impl FnOnce() -> R,
    ) -> Result<R, RewriteError> {
        let workers = workers.max(1);
        self.queue.begin_scope()?;
        Ok(std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| self.drain_jobs(img));
            }
            // Close on unwind too: workers block in `pop` until the close,
            // so a panicking closure would otherwise deadlock the scope's
            // join and turn the caller's panic into a hang. An unwinding
            // close cannot wait for a drain (the scope is dying), so it
            // discards queued jobs and records the count for the next
            // `begin_scope` to report.
            struct CloseOnDrop<'a>(&'a JobQueue);
            impl Drop for CloseOnDrop<'_> {
                fn drop(&mut self) {
                    if std::thread::panicking() {
                        self.0.close_unwound();
                    } else {
                        self.0.close();
                    }
                }
            }
            let _close = CloseOnDrop(&self.queue);
            f()
        }))
    }

    /// Serialize every resident variant to the on-disk format (see
    /// [`crate::persist`]): emitted code bytes read back from `img`, the
    /// producing request, the folded-memory snapshot and the rewrite
    /// stats. Entries are written sorted by ascending JIT entry address
    /// so a fresh process can re-reserve their regions in one monotone
    /// sweep of the bump allocator.
    pub fn save_variant_bytes(&self, img: &Image) -> Vec<u8> {
        self.save_variant_bytes_report(img).0
    }

    /// [`save_variant_bytes`](Self::save_variant_bytes) plus the save
    /// accounting: per-entry problems do not abort the save, but each
    /// one lands in the [`SaveReport`] as `skipped` (entry not in this
    /// image — a foreign image), `failed` (read-back error, counted in
    /// `brew_persist_save_failed_total` with a `SAVE_FAIL` flight event)
    /// or `unportable` (reads a literal pool the format does not carry,
    /// counted in `brew_persist_save_unportable_total`) instead of
    /// disappearing.
    pub fn save_variant_bytes_report(&self, img: &Image) -> (Vec<u8>, SaveReport) {
        let mut entries = self.cache.snapshot_all();
        entries.sort_by_key(|(_, _, v)| v.entry);
        let mut vars = Vec::with_capacity(entries.len());
        let (mut skipped, mut failed, mut unportable) = (0usize, 0usize, 0usize);
        for (key, req, v) in entries {
            if !matches!(img.segment_of(v.entry), Some(SegKind::Jit)) {
                // Not this image's code (a foreign image): legitimately
                // not ours to save.
                skipped += 1;
                continue;
            }
            if v.stats.pool_bytes > 0 {
                // The literal pool lives in the data segment and would not
                // come along: refuse rather than reload a variant that
                // computes with zeros.
                unportable += 1;
                continue;
            }
            let mut code = vec![0u8; v.code_len];
            if img.read_bytes(v.entry, &mut code).is_err() {
                // In our JIT segment but unreadable: a genuine per-entry
                // I/O failure. The save goes on, but loudly.
                failed += 1;
                self.note(FlightKind::PersistSaveFailed, [key.func, v.entry, 0, 0]);
                continue;
            }
            vars.push(PersistedVariant {
                func: key.func,
                fingerprint: key.fingerprint,
                entry: v.entry,
                code,
                snapshot: v.snapshot.clone(),
                stats: v.stats,
                req,
            });
        }
        let bytes = persist::encode_variants(&vars);
        self.note(
            FlightKind::PersistSave,
            [vars.len() as u64, bytes.len() as u64, unportable as u64, 0],
        );
        let report = SaveReport {
            written: vars.len(),
            skipped,
            failed,
            unportable,
            bytes: bytes.len(),
        };
        (bytes, report)
    }

    /// Test-support seam: insert a synthetic cache entry without going
    /// through publish. Lets the persistence tests exercise the
    /// save-path accounting (`skipped`/`failed`) for entries whose code
    /// cannot be read back — states a real publish can never produce
    /// against its own image, but a save against the wrong image can.
    #[doc(hidden)]
    pub fn insert_synthetic_variant_for_tests(
        &self,
        func: u64,
        fingerprint: u64,
        entry: u64,
        code_len: usize,
    ) {
        let key = CacheKey { func, fingerprint };
        let v = Arc::new(Variant {
            func,
            entry,
            code_len,
            stats: RewriteStats::default(),
            guards: None,
            snapshot: KnownSnapshot::default(),
        });
        self.cache.insert(key, v, SpecRequest::new());
    }

    /// [`save_variant_bytes`](Self::save_variant_bytes) written to
    /// `path`, with the full per-entry accounting in the returned
    /// [`SaveReport`].
    pub fn save_variants(
        &self,
        img: &Image,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SaveReport, PersistError> {
        let (bytes, report) = self.save_variant_bytes_report(img);
        std::fs::write(path, &bytes).map_err(|e| PersistError::Io(e.to_string()))?;
        Ok(report)
    }

    /// Re-materialize persisted variants into `img` and this manager's
    /// cache. **Nothing in `bytes` is trusted**: beyond the codec's
    /// framing and checksum validation, every entry must (1) hash its
    /// decoded request back to the stored fingerprint, (2) re-reserve its
    /// exact JIT region from the image's bump allocator, (3) still match
    /// its [`KnownSnapshot`] against the live image, and (4) pass the
    /// configured publish gate over the re-written code — the same gate a
    /// fresh rewrite would face. A failed entry is rejected (counted in
    /// `brew_persist_rejected_total`), negatively cached so the key
    /// cold-starts through the ordinary backoff, and never published.
    ///
    /// File-level corruption (magic, version, framing) fails the whole
    /// call; per-entry failures are collected in the report. Note: with
    /// no publish gate configured only the structural checks (1)–(3) run;
    /// install one (e.g. `brew_verify::publish_gate()`) to get the full
    /// translation-validation story on load.
    pub fn load_variant_bytes(
        &self,
        img: &Image,
        bytes: &[u8],
    ) -> Result<LoadReport, PersistError> {
        let decoded = persist::decode_variants(bytes).inspect_err(|_| {
            // File-level corruption (magic, version, framing) rejects the
            // whole checkpoint — a load with one rejection and nothing
            // published, counted like any other.
            self.note(FlightKind::PersistLoad, [0, 1, 0, 0]);
        })?;
        let mut report = LoadReport {
            published: 0,
            rejected: Vec::new(),
        };
        let mut entries = Vec::with_capacity(decoded.len());
        for item in decoded {
            match item {
                Ok(pv) => entries.push(pv),
                Err(e) => report.rejected.push((0, 0, e)),
            }
        }
        // Ascending entry order makes placement a single monotone sweep.
        entries.sort_by_key(|pv| pv.entry);
        for pv in entries {
            let key = CacheKey {
                func: pv.func,
                fingerprint: pv.fingerprint,
            };
            match self.load_one(img, &pv) {
                Ok(variant) => {
                    self.negative.forget(&key);
                    self.emit(Event::Published {
                        func: pv.func,
                        entry: variant.entry,
                    });
                    // Warm-started variants get the same profiler-facing
                    // symbol a fresh publish would.
                    self.publish_symbol(&key, &variant);
                    self.cache.insert(key, variant, pv.req.clone());
                    self.evict_to_budget(key);
                    report.published += 1;
                }
                Err(e) => {
                    self.negative.record_failure(&key, &e.as_rewrite_error());
                    report.rejected.push((pv.func, pv.fingerprint, e));
                }
            }
        }
        self.sync_resident_gauges();
        self.sync_negative_gauge();
        // The load's counters come off this one record: published and
        // rejected entries, file-level and per-entry alike.
        self.note(
            FlightKind::PersistLoad,
            [report.published as u64, report.rejected.len() as u64, 0, 0],
        );
        Ok(report)
    }

    /// [`load_variant_bytes`](Self::load_variant_bytes) read from `path`.
    pub fn load_variants(
        &self,
        img: &Image,
        path: impl AsRef<std::path::Path>,
    ) -> Result<LoadReport, PersistError> {
        let bytes = std::fs::read(path).map_err(|e| PersistError::Io(e.to_string()))?;
        self.load_variant_bytes(img, &bytes)
    }

    /// Validate one decoded entry against the live process and publish
    /// gate; on success the code is resident in `img` at its recorded
    /// entry and the returned [`Variant`] is ready to insert.
    fn load_one(&self, img: &Image, pv: &PersistedVariant) -> Result<Arc<Variant>, PersistError> {
        let computed = pv.req.fingerprint();
        if computed != pv.fingerprint {
            return Err(PersistError::Fingerprint {
                stored: pv.fingerprint,
                computed,
            });
        }
        if !pv.snapshot.matches(img) {
            return Err(PersistError::StaleSnapshot);
        }
        // Re-reserve the exact region `entry..entry+code_len` from the
        // JIT bump allocator: the next allocation starts at the 16-aligned
        // cursor, so claiming `end - align16(cursor)` bytes lands exactly
        // on `end`. Entries arrive sorted ascending, so a cursor already
        // past `entry` means a genuine conflict (earlier allocations or
        // overlapping entries), not ordering.
        use brew_image::layout;
        let end = pv.entry + pv.code.len() as u64;
        let cursor = layout::JIT_BASE + layout::JIT_SIZE - img.jit_remaining();
        let aligned = (cursor + 15) & !15;
        if aligned > pv.entry || end < aligned {
            return Err(PersistError::Placement { entry: pv.entry });
        }
        match img.try_alloc_jit(end - aligned) {
            Some(start) if start == aligned => {}
            _ => return Err(PersistError::Placement { entry: pv.entry }),
        }
        if img.write_bytes(pv.entry, &pv.code).is_err() {
            return Err(PersistError::Placement { entry: pv.entry });
        }
        // The gate sees exactly what a fresh rewrite would hand it.
        let res = crate::RewriteResult {
            entry: pv.entry,
            code_len: pv.code.len(),
            stats: pv.stats,
            // The captured CFG is not serialized: reloaded variants skip
            // the equivalence tier and rest on the byte-level tiers.
            equiv: None,
            snapshot: pv.snapshot.clone(),
        };
        self.gate_check(img, pv.func, &pv.req, &res)
            .map_err(|f| match f.err {
                RewriteError::VerifyRejected { first, .. } => PersistError::Gate { summary: first },
                other => PersistError::Gate {
                    summary: other.to_string(),
                },
            })?;
        Ok(Arc::new(Variant {
            func: pv.func,
            entry: pv.entry,
            code_len: pv.code.len(),
            stats: pv.stats,
            guards: pv.req.guard_conditions(),
            snapshot: pv.snapshot.clone(),
        }))
    }

    /// Warm-start from the builder-configured
    /// [`persist_path`](ManagerBuilder::persist_path): load the file if it
    /// exists, do nothing (`Ok(None)`) when no path is configured or no
    /// file is there yet — first boot is not an error.
    pub fn warm_start(&self, img: &Image) -> Result<Option<LoadReport>, PersistError> {
        let Some(path) = &self.persist_path else {
            return Ok(None);
        };
        if !path.exists() {
            return Ok(None);
        }
        self.load_variants(img, path).map(Some)
    }

    /// Checkpoint the resident variants to the builder-configured
    /// [`persist_path`](ManagerBuilder::persist_path); `Ok(None)` when no
    /// path is configured.
    pub fn checkpoint(&self, img: &Image) -> Result<Option<SaveReport>, PersistError> {
        let Some(path) = &self.persist_path else {
            return Ok(None);
        };
        self.save_variants(img, path).map(Some)
    }

    /// Worker loop: pop jobs until the queue is closed and drained. Jobs
    /// go through the ordinary single-flight path, so a synchronous
    /// caller racing a worker coalesces rather than double-tracing.
    /// Each job runs under `catch_unwind`: `obtain` already contains
    /// rewrite-pipeline panics, but a panicking *sink* (or any other
    /// manager hook) would otherwise unwind through `std::thread::scope`
    /// and abort the whole batch — here it fails one job and is counted.
    fn drain_jobs(&self, img: &Image) {
        while let Some(job) = self.queue.pop() {
            // A failed deferred rewrite is dropped silently here — the
            // Miss event already fired, the failure is negatively cached,
            // and later synchronous requests for the key surface the
            // error to a caller.
            let contained = catch_unwind(AssertUnwindSafe(|| {
                if let Ok((v, Outcome::Rewrote)) = self.obtain(img, job.func, &job.req) {
                    self.emit(Event::Published {
                        func: job.func,
                        entry: v.entry,
                    });
                }
            }));
            if contained.is_err() {
                self.note_panic_contained();
            }
        }
    }

    /// Cache lookup, then single-flight rewrite: leader traces, followers
    /// subscribe.
    fn obtain(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
    ) -> Result<(Arc<Variant>, Outcome), RewriteError> {
        let key = CacheKey {
            func,
            fingerprint: req.fingerprint(),
        };
        if let Some(v) = self.cache.lookup(&key) {
            self.note_hit(func, &v);
            return Ok((v, Outcome::Hit));
        }
        // Denial path: a key already known to fail answers with the
        // memoized error at shard-lookup cost. `Retry` means the backoff
        // window elapsed; the request falls through to the single-flight
        // path, so concurrent retriers still trace at most once.
        if let Verdict::Deny { err, attempts } = self.negative.consult(&key) {
            self.emit(Event::Denied { func, attempts });
            return Err(err);
        }
        match self.inflight.join(key) {
            Join::Follower(flight) => {
                self.emit(Event::Coalesced { func });
                flight.wait().map(|v| (v, Outcome::Coalesced))
            }
            Join::Leader(lease) => {
                // Double-check under the lease: a previous leader may have
                // published between our miss and winning the flight.
                if let Some(v) = self.cache.lookup(&key) {
                    self.note_hit(func, &v);
                    lease.resolve(Ok(Arc::clone(&v)));
                    return Ok((v, Outcome::Hit));
                }
                self.emit(Event::Miss { func });
                self.metrics.gauge_add(Gge::InflightRewrites, 1);
                // Contain pipeline panics at this boundary: one
                // pathological function fails its own request (as
                // `Internal`, negatively cached like any other failure)
                // instead of unwinding into the caller or worker pool —
                // the lease would resolve via `Drop`, but every follower
                // and retrier would then re-trace the same panic.
                let rewritten =
                    catch_unwind(AssertUnwindSafe(|| Rewriter::new(img).rewrite(func, req)))
                        .unwrap_or_else(|p| {
                            self.note_panic_contained();
                            Err(RewriteError::Internal(panic_message(p.as_ref())))
                        });
                self.metrics.gauge_add(Gge::InflightRewrites, -1);
                // The publish gate inspects the finished-but-unpublished
                // variant; a rejection becomes a rewrite failure like any
                // other (negatively cached, followers see the error,
                // dispatch falls back to the original) — with one
                // exception: an *equivalence* rejection of an emission
                // made with proof-carrying passes (constant propagation,
                // aggressive register allocation) means the optimization
                // (not the trace) was wrong, so the manager re-runs the passes
                // conservatively over the captured CFG and re-gates that,
                // never caching a failure for a provable function.
                let rewritten =
                    rewritten.and_then(|res| match self.gate_check(img, func, req, &res) {
                        Ok(()) => Ok(res),
                        Err(failure)
                            if failure.equivalence
                                && req.pass_config() > OptLevel::Regalloc
                                && res.equiv.is_some() =>
                        {
                            self.regalloc_fallback(img, func, req, &res, &failure)
                        }
                        Err(failure) => Err(failure.err),
                    });
                // A variant whose code alone exceeds the global budget can
                // never be made resident by eviction — refuse it here so
                // `resident_bytes <= budget` is an invariant, not a
                // steady-state hope. The error flows into the failure arm
                // below: negatively cached, followers see it, dispatch
                // falls back to the original code.
                let rewritten = rewritten.and_then(|res| {
                    if res.code_len > self.budget_bytes {
                        self.note(
                            FlightKind::OverBudget,
                            [func, res.code_len as u64, self.budget_bytes as u64, 0],
                        );
                        Err(RewriteError::OverBudget {
                            code_len: res.code_len,
                            budget: self.budget_bytes,
                        })
                    } else {
                        Ok(res)
                    }
                });
                match rewritten {
                    Ok(res) => {
                        self.negative.forget(&key);
                        self.sync_negative_gauge();
                        self.metrics.observe_rewrite(Ok(&res.stats));
                        self.emit(Event::Rewritten {
                            func,
                            entry: res.entry,
                            code_len: res.code_len,
                            stats: res.stats,
                        });
                        let variant = Arc::new(Variant {
                            func,
                            entry: res.entry,
                            code_len: res.code_len,
                            stats: res.stats,
                            guards: req.guard_conditions(),
                            snapshot: res.snapshot,
                        });
                        // Publish to the cache *before* resolving the
                        // flight: anyone past the flight sees the cache.
                        self.publish_symbol(&key, &variant);
                        self.cache.insert(key, Arc::clone(&variant), req.clone());
                        self.evict_to_budget(key);
                        self.sync_resident_gauges();
                        lease.resolve(Ok(Arc::clone(&variant)));
                        Ok((variant, Outcome::Rewrote))
                    }
                    Err(e) => {
                        self.metrics.observe_rewrite(Err(&e));
                        self.negative.record_failure(&key, &e);
                        self.sync_negative_gauge();
                        lease.resolve(Err(e.clone()));
                        Err(e)
                    }
                }
            }
        }
    }

    /// Run the configured publish gate (if any) over a finished rewrite.
    /// Gate panics are contained here like rewrite panics: the variant
    /// fails its own request instead of unwinding into the caller.
    fn gate_check(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
        res: &crate::RewriteResult,
    ) -> Result<(), GateFailure> {
        let gate = unpoison(self.gate.read());
        let Some(gate) = gate.as_ref() else {
            return Ok(());
        };
        let t0 = std::time::Instant::now();
        let verdict = catch_unwind(AssertUnwindSafe(|| gate.inspect(img, func, req, res)));
        // One clock read per gate run: the histogram and the journal must
        // agree about it.
        let ns = t0.elapsed().as_nanos() as u64;
        self.metrics.observe(Hst::VerifyNs, ns);
        match verdict {
            Ok(Ok(())) => {
                self.note(FlightKind::VerifyPass, [func, ns, 0, 0]);
                Ok(())
            }
            Ok(Err(r)) => {
                self.note(FlightKind::VerifyReject, [func, r.findings as u64, 0, 0]);
                Err(GateFailure {
                    err: RewriteError::VerifyRejected {
                        findings: r.findings,
                        first: r.summary,
                    },
                    equivalence: r.equivalence,
                    findings: r.findings,
                })
            }
            Err(p) => {
                self.note_panic_contained();
                Err(GateFailure {
                    err: RewriteError::Internal(format!(
                        "publish gate panicked: {}",
                        panic_message(p.as_ref())
                    )),
                    equivalence: false,
                    findings: 0,
                })
            }
        }
    }

    /// The equivalence-rejection fallback: re-run the passes over the
    /// captured pre-pass CFG with the proof-carrying ones off (no second
    /// trace — the returned result keeps the original trace statistics,
    /// so `traced_total` counts the function once) and re-gate the
    /// conservative emission. The rejected attempt's JIT bytes stay
    /// allocated but unreachable — wasted bump-allocator space, accepted:
    /// equivalence rejections are rare and the alternative is a free-list
    /// the allocator does not have.
    fn regalloc_fallback(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
        res: &crate::RewriteResult,
        failure: &GateFailure,
    ) -> Result<crate::RewriteResult, RewriteError> {
        self.note(
            FlightKind::RegallocFallback,
            [func, failure.findings as u64, 0, 0],
        );
        let reemitted = catch_unwind(AssertUnwindSafe(|| {
            Rewriter::new(img).reemit_conservative(req, res)
        }))
        .unwrap_or_else(|p| {
            self.note_panic_contained();
            Err(RewriteError::Internal(panic_message(p.as_ref())))
        })?;
        self.gate_check(img, func, req, &reemitted)
            .map(|()| reemitted)
            .map_err(|f| f.err)
    }

    /// Evict highest-score entries until the budget holds. `keep` (the
    /// entry just inserted) is never evicted — it always fits on its own,
    /// because publish refuses any variant whose code alone exceeds the
    /// budget ([`RewriteError::OverBudget`]), so `resident_bytes <=
    /// budget` holds unconditionally after every insert.
    fn evict_to_budget(&self, keep: CacheKey) {
        while self.cache.resident_bytes() > self.budget_bytes && self.cache.len() > 1 {
            let Some((key, req, v)) = self.cache.evict_victim(keep) else {
                break;
            };
            // Keep the producing request around: if the key heats back up
            // the tiering layer can re-promote it without a caller ever
            // reconstructing the original SpecRequest.
            if let Some(t) = &self.tiering {
                t.retain_request(key, req);
            }
            self.emit(Event::Evicted {
                func: v.func,
                entry: v.entry,
                code_len: v.code_len,
            });
            self.retire_symbol(v);
        }
    }

    /// One turn of the tiering loop: sample every registered counter page
    /// and the cache hit counters, fold the deltas (plus miss observations
    /// recorded since the last tick) into decayed per-key heat, and apply
    /// the [`TieringPolicy`] — demote cold resident variants, enqueue
    /// rewrites for hot absent fingerprints (inline when no deferred
    /// scope is open). Returns what happened; with tiering disabled this
    /// is a no-op returning the default (zero) summary.
    ///
    /// Call it from wherever the host already has a periodic hook — a
    /// scheduler tick, an iteration boundary, a maintenance thread. The
    /// critical section is one pass over small maps; sampling tolerates
    /// the stubs' relaxed counters by construction (see
    /// [`CounterPage`]'s read-back contract).
    pub fn tick(&self, img: &Image) -> TickSummary {
        let Some(t) = &self.tiering else {
            return TickSummary::default();
        };
        self.note(
            FlightKind::TickBegin,
            [unpoison(t.state.lock()).tick + 1, 0, 0, 0],
        );
        // Sample resident hit counts *before* crediting page deltas into
        // the cache: the credit lands after this snapshot, so it is never
        // observed again as a hit delta (the `credited` bookkeeping below
        // subtracts it from the next tick's baseline instead).
        let resident: HashMap<CacheKey, u64> = self.cache.snapshot_hits().into_iter().collect();

        let mut st = unpoison(t.state.lock());
        // Every resident key gets a heat entry even if it never missed or
        // dispatched — otherwise a variant inserted synchronously could
        // not decay toward demotion.
        for key in resident.keys() {
            st.heat.entry(*key).or_default();
        }
        // Fold counter-page deltas into pending heat and back into the
        // cache's LRU accounting (stub traffic never touches `lookup`, so
        // without the credit byte-pressure eviction would see hot stub
        // targets as idle). The fall-through slot has no fingerprint to
        // attribute, so it is not folded here — fall-through callers reach
        // `request`, which records the miss with the request attached.
        let mut sources = std::mem::take(&mut st.sources);
        // Fall-through (original-body) cycle deltas have no fingerprint
        // to heat up, but they *are* drained from the bank — counted into
        // the summary so attribution totals reconcile with the banks.
        let mut unattributed_cycles = 0u64;
        for src in sources.values_mut() {
            let Ok((snap, deltas)) = src.page.delta_since(img, &src.last) else {
                continue;
            };
            // The cycle bank rides the same sampling pass: attributed
            // time per case (written host-side by a `DispatchProfiler`)
            // becomes pending cycle heat, weighed by `cycle_weight` in
            // the fold below. Sampled even at weight 0 so the baseline
            // stays fresh if the weight is raised later.
            let cycle_deltas = src
                .page
                .cycle_delta_since(img, &src.last_cycles)
                .map(|(snap, deltas)| {
                    src.last_cycles = snap;
                    deltas
                })
                .unwrap_or_default();
            unattributed_cycles += cycle_deltas.iter().skip(src.keys.len()).sum::<u64>();
            for (i, key) in src.keys.iter().enumerate() {
                let d = deltas[i];
                let cd = cycle_deltas.get(i).copied().unwrap_or(0);
                if d == 0 && cd == 0 {
                    continue;
                }
                let e = st.heat.entry(*key).or_default();
                e.pending_cycles += cd;
                if d == 0 {
                    continue;
                }
                let credited = self.cache.credit(key, d);
                e.pending += d;
                if credited {
                    e.credited += d;
                }
            }
            src.last = snap;
        }
        st.sources = sources;

        st.tick += 1;
        let tick = st.tick;
        let decay = t.cfg.decay;
        let cycle_weight = t.cfg.cycle_weight;
        let mut sampled = 0u64;
        let mut cycles_sampled = unattributed_cycles;
        let mut promote: Vec<(CacheKey, SpecRequest, f64)> = Vec::new();
        let mut demote: Vec<(CacheKey, f64, Arc<Variant>)> = Vec::new();
        for (key, e) in st.heat.iter_mut() {
            let is_resident = resident.contains_key(key);
            let hit_delta = match resident.get(key) {
                Some(&h) => {
                    let d = h.saturating_sub(e.last_hits);
                    // The baseline absorbs this tick's page credit so it
                    // is not re-counted as a hit next tick.
                    e.last_hits = h + e.credited;
                    e.credited = 0;
                    d
                }
                None => {
                    e.last_hits = 0;
                    e.credited = 0;
                    0
                }
            };
            let input = e.pending + hit_delta;
            e.pending = 0;
            let cyc = e.pending_cycles;
            e.pending_cycles = 0;
            sampled += input;
            cycles_sampled += cyc;
            // Calls and (weighted) attributed time both feed heat: at
            // the default `cycle_weight` of 0 this reduces exactly to
            // the PR 6 call-weighted fold.
            e.heat = e.heat * decay + input as f64 + cyc as f64 * cycle_weight;
            let since = tick.saturating_sub(e.last_action_tick);
            match t.policy.decide(e.heat, is_resident, since) {
                TierAction::Promote if !is_resident => {
                    // No request retained means the key was only ever seen
                    // through a counter page — nothing to replay yet.
                    let Some(req) = e.req.clone() else {
                        continue;
                    };
                    // A key inside its negative backoff window is not
                    // promoted: the probe does not spend the window, so
                    // real requests still govern the retry schedule.
                    if self.negative.would_deny(key) {
                        continue;
                    }
                    e.last_action_tick = tick;
                    promote.push((*key, req, e.heat));
                }
                TierAction::Demote if is_resident => {
                    if let Some((req, v)) = self.cache.remove_key(key) {
                        e.req = Some(req);
                        e.last_hits = 0;
                        e.credited = 0;
                        e.last_action_tick = tick;
                        demote.push((*key, e.heat, v));
                    }
                }
                _ => {}
            }
        }
        // Dead keys cost nothing after a few quiet ticks.
        st.heat
            .retain(|key, e| resident.contains_key(key) || e.heat >= MIN_TRACKED_HEAT);
        let tracked = st.heat.len();
        let (mut heat_max, mut heat_sum) = (0.0f64, 0.0f64);
        for e in st.heat.values() {
            heat_max = heat_max.max(e.heat);
            heat_sum += e.heat;
        }
        drop(st);

        self.metrics.gauge_set(Gge::HeatTracked, tracked as i64);
        self.metrics
            .gauge_set(Gge::HeatMax, (heat_max * 1000.0) as i64);
        let heat_mean = if tracked == 0 {
            0
        } else {
            (heat_sum / tracked as f64 * 1000.0) as i64
        };
        self.metrics.gauge_set(Gge::HeatMean, heat_mean);

        // Effects run outside the tiering lock: event sinks are arbitrary
        // user code, and an inline promotion re-enters `obtain`.
        if !demote.is_empty() {
            self.sync_resident_gauges();
        }
        for (key, heat, v) in &demote {
            self.emit(Event::Demoted {
                func: key.func,
                fingerprint: key.fingerprint,
                heat: *heat,
                code_len: v.code_len,
            });
            self.retire_symbol(Arc::clone(v));
        }
        let promoted = promote.len();
        for (key, req, heat) in promote {
            self.emit(Event::Promoted {
                func: key.func,
                fingerprint: key.fingerprint,
                heat,
            });
            if let Enqueue::Closed = self.queue.push(Job {
                key,
                func: key.func,
                req: req.clone(),
            }) {
                // No deferred scope open: pay the rewrite on the tick
                // thread — the dispatch path stays non-blocking either
                // way, and a failure is negatively cached as usual.
                let _ = self.obtain(img, key.func, &req);
            }
        }
        let summary = TickSummary {
            tick,
            sampled,
            cycles_sampled,
            tracked,
            promoted,
            demoted: demote.len(),
        };
        self.note(
            FlightKind::TickEnd,
            [
                tick,
                sampled,
                summary.promoted as u64,
                summary.demoted as u64,
            ],
        );
        summary
    }

    /// Whether a variant for `(func, fingerprint)` is resident, without
    /// touching its LRU/hit accounting — observing the resident set (as
    /// the C4 convergence experiment does every round) must not perturb
    /// the heat the tiering loop samples.
    pub fn is_resident(&self, func: u64, fingerprint: u64) -> bool {
        self.cache.peek(&CacheKey { func, fingerprint }).is_some()
    }

    /// Current decayed heat of `(func, fingerprint)`; `None` when tiering
    /// is disabled.
    pub fn heat_of(&self, func: u64, fingerprint: u64) -> Option<f64> {
        self.tiering
            .as_ref()
            .map(|t| t.heat_of(&CacheKey { func, fingerprint }))
    }

    /// The one invalidation entry point: drop exactly the cached variants
    /// `inv` names and return how many were dropped. See [`Invalidation`]
    /// for the three selectors.
    pub fn apply_invalidation(&self, inv: Invalidation<'_>) -> usize {
        match inv {
            Invalidation::Func(func) => {
                let dropped = self.cache.remove_matching(|v| v.func == func);
                self.negative.forget_func(func);
                self.tier_retain(&dropped);
                self.note_invalidated(&dropped);
                dropped.len()
            }
            Invalidation::Data(range) => {
                let dropped = self.cache.remove_matching(|v| v.snapshot.overlaps(&range));
                self.tier_retain(&dropped);
                self.note_invalidated(&dropped);
                dropped.len()
            }
            Invalidation::Revalidate(img) => self.revalidate_sweep(img),
        }
    }

    /// Keep dropped variants' producing requests in the tiering layer so
    /// a key that stays hot after invalidation can be re-promoted without
    /// any caller reconstructing its request.
    fn tier_retain(&self, dropped: &[(CacheKey, SpecRequest, Arc<Variant>)]) {
        if let Some(t) = &self.tiering {
            for (key, req, _) in dropped {
                t.retain_request(*key, req.clone());
            }
        }
    }

    /// The [`Invalidation::Revalidate`] sweep: re-hash every variant's
    /// snapshot against the current image and drop exactly the variants
    /// whose folded bytes changed. Each stale variant fires
    /// [`Event::Stale`] then [`Event::Invalidated`]; its rewrite is
    /// re-enqueued (from the retained producing request) so the fresh
    /// variant is published without the original caller's help — with
    /// tiering enabled the re-enqueue is heat-gated by
    /// [`TieringPolicy::respecialize`], so cold stale variants just die.
    fn revalidate_sweep(&self, img: &Image) -> usize {
        let dropped = self.cache.remove_matching(|v| !v.snapshot.matches(img));
        for (_, _, v) in &dropped {
            self.emit(Event::Stale {
                func: v.func,
                entry: v.entry,
            });
        }
        self.note_invalidated(&dropped);
        for (key, req, v) in &dropped {
            if let Some(t) = &self.tiering {
                // The request is retained either way — a cold key may heat
                // back up and earn a promotion later — but only a variant
                // still hot *now* gets its rewrite paid immediately.
                t.retain_request(*key, req.clone());
                let heat = t.heat_of(key);
                if !t.policy.respecialize(heat) {
                    continue;
                }
                self.emit(Event::Respecialized {
                    func: v.func,
                    fingerprint: key.fingerprint,
                    heat,
                });
            }
            // `Closed` outside a deferred scope — then the next request
            // for the key simply re-specializes synchronously.
            self.queue.push(Job {
                key: *key,
                func: v.func,
                req: req.clone(),
            });
        }
        dropped.len()
    }

    /// Shared invalidation bookkeeping: count, emit, retire symbols,
    /// resync gauges.
    fn note_invalidated(&self, dropped: &[(CacheKey, SpecRequest, Arc<Variant>)]) {
        for (_, _, v) in dropped {
            self.emit(Event::Invalidated {
                func: v.func,
                entry: v.entry,
            });
            self.retire_symbol(Arc::clone(v));
        }
        if !dropped.is_empty() {
            self.sync_resident_gauges();
        }
        self.sync_negative_gauge();
    }

    /// The memoized failure for `(func, req)`, if the negative cache
    /// holds one.
    pub fn failure_of(&self, func: u64, req: &SpecRequest) -> Option<RewriteError> {
        self.negative.failure_of(&CacheKey {
            func,
            fingerprint: req.fingerprint(),
        })
    }

    /// Live entries in the negative cache.
    pub fn negative_len(&self) -> usize {
        self.negative.len()
    }

    /// Cached variants of `func`, hottest (most hits, then most recent)
    /// first — the order the dispatcher tests them in.
    pub fn variants_of(&self, func: u64) -> Vec<Arc<Variant>> {
        let mut entries = self.cache.snapshot_func(func);
        entries.sort_by(|(ah, al, af, _), (bh, bl, bf, _)| (bh, bl, af).cmp(&(ah, al, bf)));
        entries.into_iter().map(|(_, _, _, v)| v).collect()
    }

    /// Emit a guarded dispatch stub over every cached *guardable* variant
    /// of `func` (§III.D, generalized to N variants and multi-parameter
    /// conjunctions). The stub tail-jumps to the first variant whose
    /// guarded parameters all match and falls through to `original`
    /// otherwise — callers use it as a drop-in replacement. Variants whose
    /// known parameters can't be register-compared (known doubles) are
    /// skipped; with no eligible variant the stub degenerates to a
    /// trampoline onto the original.
    ///
    /// The chain is built from a snapshot of the cache and emitted at a
    /// fresh JIT address, so concurrent publication of new variants never
    /// corrupts an existing stub — rebuild and swap the pointer to pick
    /// them up.
    pub fn build_dispatcher(
        &self,
        img: &Image,
        func: u64,
        original: u64,
    ) -> Result<u64, RewriteError> {
        let cases = self.dispatch_cases(func);
        let before = img.jit_remaining();
        let entry = guard::make_guard_chain(img, &cases, original)?;
        let len = before.saturating_sub(img.jit_remaining());
        self.note_dispatcher(func, entry, cases.len(), len);
        Ok(entry)
    }

    /// [`build_dispatcher`](Self::build_dispatcher) emitting a
    /// *self-counting* stub: each case — and the fall-through to the
    /// original — increments its slot of the returned [`CounterPage`] on
    /// every call. Dispatch behavior is bit-identical to the plain stub.
    /// With tiering enabled the page is also registered as a heat source:
    /// subsequent [`tick`](Self::tick)s sample its slots, so traffic that
    /// only ever flows through the stub still drives promote/demote
    /// decisions.
    pub fn build_dispatcher_counting(
        &self,
        img: &Image,
        func: u64,
        original: u64,
    ) -> Result<(u64, CounterPage), RewriteError> {
        let (cases, keys) = self.dispatch_cases_keyed(func);
        let before = img.jit_remaining();
        let (entry, page) = guard::make_guard_chain_counting(img, &cases, original)?;
        let len = before.saturating_sub(img.jit_remaining());
        if let Some(t) = &self.tiering {
            t.register_source(img, func, page, keys);
        }
        self.note_dispatcher(func, entry, cases.len(), len);
        Ok((entry, page))
    }

    /// A [`DispatchProfiler`](crate::telemetry::DispatchProfiler) over
    /// `func`'s counting dispatcher `page`, wired to this manager's
    /// metrics registry: every observed call feeds the page's cycle bank
    /// *and* the per-(func, fingerprint) self-time histograms. The case
    /// order is the stub's (hottest first), captured at call time — build
    /// the profiler right after the dispatcher from the same snapshot.
    pub fn profile_dispatcher(
        &self,
        func: u64,
        page: CounterPage,
    ) -> crate::telemetry::DispatchProfiler {
        let (_, keys) = self.dispatch_cases_keyed(func);
        crate::telemetry::DispatchProfiler::new(
            func,
            page,
            keys.into_iter().map(|k| k.fingerprint).collect(),
            Some(Arc::clone(&self.metrics)),
        )
    }

    /// Guardable cached variants of `func` as dispatch cases, hottest
    /// first.
    fn dispatch_cases(&self, func: u64) -> Vec<GuardCase> {
        self.dispatch_cases_keyed(func).0
    }

    /// Like [`dispatch_cases`](Self::dispatch_cases), also returning each
    /// case's [`CacheKey`] in slot order — what the tiering layer needs to
    /// attribute a [`CounterPage`] slot back to a fingerprint.
    fn dispatch_cases_keyed(&self, func: u64) -> (Vec<GuardCase>, Vec<CacheKey>) {
        let mut entries = self.cache.snapshot_func(func);
        entries.sort_by(|(ah, al, af, _), (bh, bl, bf, _)| (bh, bl, af).cmp(&(ah, al, bf)));
        let mut cases = Vec::new();
        let mut keys = Vec::new();
        for (_, _, fingerprint, v) in entries {
            let Some(g) = v.guards.as_ref() else {
                continue;
            };
            cases.push(GuardCase {
                conds: g.clone(),
                target: v.entry,
            });
            keys.push(CacheKey { func, fingerprint });
        }
        (cases, keys)
    }

    fn note_dispatcher(&self, func: u64, entry: u64, variants: usize, len: u64) {
        self.emit(Event::DispatcherBuilt {
            func,
            entry,
            variants,
        });
        // Stubs are live JIT placements too — symbolize them so profiler
        // samples inside the dispatch chain don't read as bare hex.
        self.note_symbol(&self.symbols.publish_stub(func, entry, len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert_dummy(m: &SpecializationManager, func: u64, entry: u64, hits: u64) {
        let key = CacheKey {
            func,
            fingerprint: entry,
        };
        m.cache.insert(
            key,
            Arc::new(Variant {
                func,
                entry,
                code_len: 16,
                stats: RewriteStats::default(),
                guards: None,
                snapshot: KnownSnapshot::default(),
            }),
            SpecRequest::new(),
        );
        for _ in 0..hits {
            m.cache.lookup(&key);
        }
    }

    #[test]
    fn variants_of_orders_hot_first() {
        let m = SpecializationManager::new();
        for (entry, hits) in [(100u64, 1u64), (200, 5), (300, 3)] {
            insert_dummy(&m, 7, entry, hits);
        }
        let order: Vec<u64> = m.variants_of(7).iter().map(|v| v.entry).collect();
        assert_eq!(order, vec![200, 300, 100]);
        assert!(m.variants_of(8).is_empty());
    }

    #[test]
    fn manager_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<SpecializationManager>();
    }

    #[test]
    fn eviction_never_picks_the_kept_key() {
        let m = SpecializationManager::builder().budget(16).build();
        insert_dummy(&m, 1, 100, 0);
        insert_dummy(&m, 1, 200, 0);
        let keep = CacheKey {
            func: 1,
            fingerprint: 200,
        };
        m.evict_to_budget(keep);
        let left: Vec<u64> = m.variants_of(1).iter().map(|v| v.entry).collect();
        assert_eq!(left, vec![200]);
        assert_eq!(m.stats().evictions, 1);
    }

    /// Every `Event` variant through `emit`, as the flight dump prints it
    /// (timestamp and thread id cut off). The lines were generated at the
    /// commit before the encoding moved into the decision table.
    #[test]
    fn every_event_variant_journals_its_pinned_line() {
        let m = SpecializationManager::builder()
            .tiering(TieringConfig::default())
            .build();
        let (func, entry, fingerprint) = (0x40_1000, 0x90_0040, 0xfeed_beef);
        let stats = RewriteStats {
            traced: 77,
            trace_ns: 1_000,
            pass_ns: 200,
            emit_ns: 30,
            ..RewriteStats::default()
        };
        let events = [
            Event::Hit { func, entry },
            Event::Miss { func },
            Event::Coalesced { func },
            Event::Deferred { func },
            Event::Rewritten {
                func,
                entry,
                code_len: 96,
                stats,
            },
            Event::Published { func, entry },
            Event::Evicted {
                func,
                entry,
                code_len: 96,
            },
            Event::DispatcherBuilt {
                func,
                entry,
                variants: 3,
            },
            Event::Denied { func, attempts: 2 },
            Event::Stale { func, entry },
            Event::Invalidated { func, entry },
            Event::Promoted {
                func,
                fingerprint,
                heat: 9.5,
            },
            Event::Demoted {
                func,
                fingerprint,
                heat: 0.25,
                code_len: 96,
            },
            Event::Respecialized {
                func,
                fingerprint,
                heat: 4.0,
            },
        ];
        for ev in events {
            m.emit(ev);
        }
        let lines: Vec<String> = m
            .flight
            .dump()
            .entries
            .iter()
            .map(|e| e.render_line().split_once(" kind=").unwrap().1.to_string())
            .collect();
        let pinned = [
            "HIT func=0x401000 entry=0x900040",
            "MISS func=0x401000",
            "COALESCED func=0x401000",
            "DEFERRED func=0x401000",
            "REWRITTEN func=0x401000 entry=0x900040 len=96 ns=1230",
            "PUBLISHED func=0x401000 entry=0x900040",
            "EVICTED func=0x401000 entry=0x900040 len=96",
            "DISPATCHER func=0x401000 entry=0x900040 variants=3",
            "DENIED func=0x401000 attempts=2",
            "STALE func=0x401000 entry=0x900040",
            "INVALIDATED func=0x401000 entry=0x900040",
            "PROMOTED func=0x401000 fp=0xfeedbeef heat=9.500 bar=8.000",
            "DEMOTED func=0x401000 fp=0xfeedbeef heat=0.250 bar=1.000",
            "RESPEC func=0x401000 fp=0xfeedbeef heat=4.000",
        ];
        assert_eq!(lines, pinned);
        // Each event bumped exactly the counters its table row lists.
        let reg = &m.metrics;
        for c in [Ctr::Rewrites, Ctr::CacheEvictions, Ctr::TierDemoted] {
            assert_eq!(reg.counter(c).get(), 1, "{}", c.name());
        }
        assert_eq!(reg.counter(Ctr::JitCodeBytes).get(), 96);
        assert_eq!(reg.counter(Ctr::CacheEvictedBytes).get(), 96);
    }
}
