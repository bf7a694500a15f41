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
//!   exactly once no matter how many threads race for it. Every decision
//!   is taken on the calling thread: the manager spawns none, and like the
//!   paper's `brew_rewrite` a miss returns the new variant to its caller.
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
//! - **Observability** — every decision (hit, miss, coalesced, rewritten,
//!   evicted, denied, promoted, …) is written once, by one
//!   `note(kind, words)` call, through the decision table in
//!   [`crate::telemetry::table`]: into the lock-free
//!   [`crate::telemetry::MetricsRegistry`] (shared via
//!   [`metrics`](SpecializationManager::metrics)) and into the flight
//!   journal ([`flight`](SpecializationManager::flight)). Those two are
//!   the only outputs; a hit costs one registry fold and one journal
//!   record, and takes no lock. [`CacheStats`] is a view over the
//!   registry.
//! - **Negative caching** — a failed rewrite is memoized per key (see
//!   [`negative`]): repeats of the same doomed request are *denied* at
//!   shard-lookup cost instead of re-tracing to rediscover the failure,
//!   with a decaying backoff that periodically lets one retry through
//!   (failures can be data-dependent) and a hard attempt cap after which
//!   the key is written off. [`request`](SpecializationManager::request)
//!   answers a denial with the original entry;
//!   [`get_or_rewrite`](SpecializationManager::get_or_rewrite) returns the
//!   memoized error. Tiering promotions respect the same backoff.
//! - **Staleness tracking & invalidation** — every rewrite records which
//!   known-memory bytes it folded into constants
//!   ([`crate::snapshot::KnownSnapshot`], carried by the [`Variant`]).
//!   One entry point,
//!   [`apply_invalidation`](SpecializationManager::apply_invalidation),
//!   takes an [`Invalidation`]: [`Invalidation::Func`] drops all variants
//!   of a function, [`Invalidation::Data`] drops variants whose folded
//!   ranges overlap a mutated range, and [`Invalidation::Revalidate`]
//!   re-hashes every snapshot against the image and drops exactly the
//!   variants whose folded bytes changed. With tiering enabled the sweep
//!   rebuilds, inline, the stale variants whose decayed heat clears the
//!   policy's bar; cold stale variants just die. Without tiering the next
//!   request for a dropped key re-specializes it.
//! - **Adaptive tiering** — a manager built with
//!   [`ManagerBuilder::tiering`] closes the counter → specialization
//!   loop: [`tick`](SpecializationManager::tick) reads dispatch-stub
//!   [`CounterPage`]s and cache hit counts into decayed per-key heat
//!   scores and lets `TieringConfig::decide` promote hot fingerprints
//!   (rewrite them on the tick's thread), demote cold resident variants
//!   (reclaim budget ahead of LRU pressure) and gate re-specialization
//!   after invalidation. See the [`tiering`] module docs for the state machine.
//! - **Panic containment** — the trace/encode pipeline and the publish
//!   gate run under `catch_unwind`; a panic becomes
//!   [`RewriteError::Internal`], is negatively cached like any other
//!   failure, and fails one request instead of unwinding into the caller
//!   or poisoning the shared state. The payload is dropped under a second
//!   `catch_unwind`, so a payload that panics again when dropped is
//!   contained too. All manager locks recover from poisoning for the same
//!   reason.
//!
//! Construction goes through [`ManagerBuilder`]: budget, negative policy,
//! tiering, publish gate.

mod builder;
mod checkpoint;
mod inflight;
pub mod negative;
mod shards;
pub mod tiering;

use crate::capture::RewriteStats;
use crate::error::RewriteError;
use crate::guard::{self, CounterPage, GuardCase};
use crate::request::SpecRequest;
use crate::snapshot::KnownSnapshot;
use crate::telemetry::flight::{milli, FlightKind};
use crate::telemetry::{
    self, metrics::Ctr, metrics::Gge, metrics::Hst, FlightRecorder, MetricsRegistry, SymbolTable,
};
use crate::{OptLevel, Rewriter};
use brew_image::Image;
pub use builder::ManagerBuilder;
pub use checkpoint::{LoadReport, SaveReport};
use inflight::{InflightTable, Join};
pub use negative::NegativePolicy;
use negative::{NegativeCache, Verdict};
use shards::ShardedCache;
use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
pub use tiering::{TickSummary, TieringConfig};
use tiering::{TierAction, Tiering};

/// Recover the guard from a poisoned lock. Panics are contained at the
/// rewrite boundary, but one can still escape while a manager lock is
/// held; all manager-internal state is consistent between
/// statements, so serving the next caller beats wedging everyone.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
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
    /// [`RewriteError::Internal`] instead of unwinding into the caller.
    pub panics_contained: u64,
    /// Live entries in the negative cache.
    pub negative_entries: usize,
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
/// policy). The gate sees every finished-but-unpublished variant, whether a
/// request or a tiering tick asked for it; returning `Err` means the variant is
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
///   against the image and drop exactly the stale ones; with tiering,
///   rebuild those still hot enough to be worth having.
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
    /// Call the original function: the key is negatively cached, or
    /// tiering has not promoted it yet.
    Original {
        /// Entry address to call now.
        func: u64,
    },
}

impl Dispatch {
    /// The entry address the caller should invoke.
    pub fn entry(&self) -> u64 {
        match self {
            Dispatch::Specialized(v) => v.entry,
            Dispatch::Original { func } => *func,
        }
    }

    /// Whether a specialized variant answered the request.
    pub fn is_specialized(&self) -> bool {
        matches!(self, Dispatch::Specialized(_))
    }
}

/// The memoizing, thread-safe specialization layer over [`Rewriter`]. All
/// methods take `&self`; share it across threads by reference (e.g. from
/// scoped threads) or in an `Arc`. See the module docs for the design.
pub struct SpecializationManager {
    cache: ShardedCache,
    negative: NegativeCache,
    inflight: InflightTable,
    budget_bytes: usize,
    tiering: Option<Tiering>,
    metrics: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    symbols: Arc<SymbolTable>,
    /// Rendered flight dump captured by the most recent contained panic.
    last_panic: Mutex<Option<String>>,
    /// Per counting stub (by its counter page's base address): the
    /// fingerprint behind each case, in the stub's case order — what
    /// [`profile_dispatcher`](Self::profile_dispatcher) attributes by.
    stubs: Mutex<HashMap<u64, Vec<u64>>>,
    gate: Option<Box<dyn PublishGate>>,
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

    /// The one construction surface: a [`ManagerBuilder`] for budget,
    /// negative caching, adaptive tiering and the publish gate.
    pub fn builder() -> ManagerBuilder {
        ManagerBuilder::new()
    }

    /// The always-on metrics registry every manager decision is folded into.
    /// Clone the `Arc` to export from another thread (e.g. a Prometheus
    /// scrape endpoint) while the manager keeps recording.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// The flight recorder journaling every manager decision. Clone the
    /// `Arc` to dump from another thread (e.g. a crash handler) while the
    /// manager keeps recording.
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
    /// writes either, and the only channel a decision has.
    fn note(&self, kind: FlightKind, args: [u64; 4]) {
        telemetry::note(&self.metrics, &self.flight, kind, args);
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

    /// Contain a caught panic and return its best-effort message. The
    /// payload is dropped under `catch_unwind`: one whose drop panics
    /// again must not unwind out of the request either, and the second
    /// payload is forgotten rather than risk a third.
    fn contain_panic(&self, payload: Box<dyn Any + Send>) -> String {
        // Freeze the flight recorder's view of the events leading up to
        // the blast: journal the containment, then capture the dump for
        // post-mortem retrieval via `last_panic_dump()`.
        self.note(FlightKind::PanicContained, [0; 4]);
        let dump = self.flight.dump().render_text();
        *unpoison(self.last_panic.lock()) = Some(dump);
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        if let Err(again) = catch_unwind(AssertUnwindSafe(|| drop(payload))) {
            std::mem::forget(again);
        }
        msg
    }

    /// The dispatch entry point: what should the caller invoke? A hit
    /// answers with the specialized variant. A negatively cached key
    /// answers with the *original* entry, and so does any miss under
    /// tiering, where a miss is heat for a later
    /// [`tick`](Self::tick) to promote. Any other miss rewrites now,
    /// exactly like [`get_or_rewrite`](Self::get_or_rewrite).
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
            self.note(FlightKind::Hit, [func, v.entry, 0, 0]);
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
        // at shard-lookup cost: no tracing, no error — the caller asked
        // "what should I call" and the answer is "the original, same as
        // when the rewrite first failed".
        if let Verdict::Deny { attempts, .. } = self.negative.consult(&key) {
            self.note(FlightKind::Denied, [func, attempts as u64, 0, 0]);
            return Ok(Dispatch::Original { func });
        }
        if self.tiering.is_some() {
            return Ok(Dispatch::Original { func });
        }
        self.get_or_rewrite(img, func, req)
            .map(Dispatch::Specialized)
    }

    /// The synchronous memoized entry point: return the cached variant
    /// for `(func, req)` or rewrite, insert and return it. A cache hit
    /// costs one shard-lock hash lookup — no decoding, tracing, passes or
    /// encoding. Concurrent misses on the same key coalesce onto a single
    /// rewrite: the leader traces, followers subscribe.
    pub fn get_or_rewrite(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
    ) -> Result<Arc<Variant>, RewriteError> {
        let key = CacheKey {
            func,
            fingerprint: req.fingerprint(),
        };
        if let Some(v) = self.cache.lookup(&key) {
            self.note(FlightKind::Hit, [func, v.entry, 0, 0]);
            return Ok(v);
        }
        // Denial path: a key already known to fail answers with the
        // memoized error at shard-lookup cost. `Retry` means the backoff
        // window elapsed; the request falls through to the single-flight
        // path, so concurrent retriers still trace at most once.
        if let Verdict::Deny { err, attempts } = self.negative.consult(&key) {
            self.note(FlightKind::Denied, [func, attempts as u64, 0, 0]);
            return Err(err);
        }
        match self.inflight.join(key) {
            Join::Follower(flight) => {
                self.note(FlightKind::Coalesced, [func, 0, 0, 0]);
                flight.wait()
            }
            Join::Leader(lease) => {
                // Double-check under the lease: a previous leader may have
                // published between our miss and winning the flight.
                if let Some(v) = self.cache.lookup(&key) {
                    self.note(FlightKind::Hit, [func, v.entry, 0, 0]);
                    lease.resolve(Ok(Arc::clone(&v)));
                    return Ok(v);
                }
                self.note(FlightKind::Miss, [func, 0, 0, 0]);
                self.metrics.gauge_add(Gge::InflightRewrites, 1);
                // Contain pipeline panics at this boundary: one
                // pathological function fails its own request (as
                // `Internal`, negatively cached like any other failure)
                // instead of unwinding into the caller — the lease would
                // resolve via `Drop`, but every follower and retrier would
                // then re-trace the same panic.
                let rewritten =
                    catch_unwind(AssertUnwindSafe(|| Rewriter::new(img).rewrite(func, req)))
                        .unwrap_or_else(|p| Err(RewriteError::Internal(self.contain_panic(p))));
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
                        self.note(
                            FlightKind::Rewritten,
                            [func, res.entry, res.code_len as u64, res.stats.total_ns()],
                        );
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
                        Ok(variant)
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
        let Some(gate) = &self.gate else {
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
                let msg = self.contain_panic(p);
                Err(GateFailure {
                    err: RewriteError::Internal(format!("publish gate panicked: {msg}")),
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
        .unwrap_or_else(|p| Err(RewriteError::Internal(self.contain_panic(p))))?;
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
            self.note(FlightKind::Evicted, [v.func, v.entry, v.code_len as u64, 0]);
            self.retire_symbol(v);
        }
    }

    /// One turn of the tiering loop: sample every registered counter page
    /// and the cache hit counters, fold the deltas (plus miss observations
    /// recorded since the last tick) into decayed per-key heat, and apply
    /// `TieringConfig::decide` — demote cold resident variants, rewrite
    /// hot absent fingerprints. Returns what happened; with tiering
    /// disabled this is a no-op returning the default (zero) summary.
    ///
    /// Call it from wherever the host already has a periodic hook — a
    /// scheduler tick, an iteration boundary, a maintenance thread: the
    /// promotions' rewrites run on that thread, so the dispatch path never
    /// waits for one. The critical section is one pass over small maps;
    /// sampling tolerates the stubs' relaxed counters by construction (see
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
            match t.cfg.decide(e.heat, is_resident, since) {
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

        // Effects run outside the tiering lock: an inline promotion
        // re-enters `get_or_rewrite`. Each verdict journals the threshold that
        // justified it beside the heat score, so a dump answers "why"
        // without the config at hand.
        if !demote.is_empty() {
            self.sync_resident_gauges();
        }
        for (key, heat, v) in &demote {
            self.note(
                FlightKind::Demoted,
                [
                    key.func,
                    key.fingerprint,
                    milli(*heat),
                    milli(t.cfg.demote_heat),
                ],
            );
            self.retire_symbol(Arc::clone(v));
        }
        let promoted = promote.len();
        for (key, req, heat) in promote {
            self.note(
                FlightKind::Promoted,
                [
                    key.func,
                    key.fingerprint,
                    milli(heat),
                    milli(t.cfg.promote_heat),
                ],
            );
            // The rewrite is paid on the tick thread — the dispatch path
            // never waits for it — and a failure is negatively cached as
            // usual.
            let _ = self.get_or_rewrite(img, key.func, &req);
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
    /// whose folded bytes changed. It journals a `STALE` record for every
    /// dropped variant, then an `INVALIDATED` record for every one. With
    /// tiering enabled, each variant whose heat clears
    /// [`TieringConfig::respecialize`] is journaled `RESPEC` and rebuilt
    /// right here from its retained producing request, so the fresh
    /// variant is published without the original caller's help; cold stale
    /// variants just die. Without tiering nothing is rebuilt: the next
    /// request for a dropped key re-specializes it.
    fn revalidate_sweep(&self, img: &Image) -> usize {
        let dropped = self.cache.remove_matching(|v| !v.snapshot.matches(img));
        for (_, _, v) in &dropped {
            self.note(FlightKind::Stale, [v.func, v.entry, 0, 0]);
        }
        self.note_invalidated(&dropped);
        // The requests are retained either way — a cold key may heat back
        // up and earn a promotion later — but only a variant still hot
        // *now* gets its rewrite paid immediately.
        self.tier_retain(&dropped);
        if let Some(t) = &self.tiering {
            for (key, req, _) in &dropped {
                let heat = t.heat_of(key);
                if t.cfg.respecialize(heat) {
                    self.note(
                        FlightKind::Respecialized,
                        [key.func, key.fingerprint, milli(heat), 0],
                    );
                    // A failure is negatively cached as usual.
                    let _ = self.get_or_rewrite(img, key.func, req);
                }
            }
        }
        dropped.len()
    }

    /// Shared invalidation bookkeeping: count and journal, retire
    /// symbols, resync gauges.
    fn note_invalidated(&self, dropped: &[(CacheKey, SpecRequest, Arc<Variant>)]) {
        for (_, _, v) in dropped {
            self.note(FlightKind::Invalidated, [v.func, v.entry, 0, 0]);
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
        self.hottest_first(func).map(|(_, v)| v).collect()
    }

    /// `(fingerprint, variant)` of every cached variant of `func`, hottest
    /// first.
    fn hottest_first(&self, func: u64) -> impl Iterator<Item = (u64, Arc<Variant>)> {
        let mut entries = self.cache.snapshot_func(func);
        entries.sort_by(|(ah, al, af, _), (bh, bl, bf, _)| (bh, bl, af).cmp(&(ah, al, bf)));
        entries
            .into_iter()
            .map(|(_, _, fingerprint, v)| (fingerprint, v))
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
        let (cases, _) = self.dispatch_cases_keyed(func);
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
        unpoison(self.stubs.lock()).insert(page.base, keys.iter().map(|k| k.fingerprint).collect());
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
    /// order is the one [`build_dispatcher_counting`](Self::build_dispatcher_counting)
    /// emitted for that page, however the cache's hit order or contents
    /// moved since; a page this manager did not build has no cases to
    /// attribute to, so every call is booked as the original.
    pub fn profile_dispatcher(
        &self,
        func: u64,
        page: CounterPage,
    ) -> crate::telemetry::DispatchProfiler {
        let keys = unpoison(self.stubs.lock())
            .get(&page.base)
            .cloned()
            .unwrap_or_default();
        crate::telemetry::DispatchProfiler::new(func, page, keys, Some(Arc::clone(&self.metrics)))
    }

    /// Guardable cached variants of `func` as dispatch cases, hottest
    /// first, with each case's [`CacheKey`] in slot order — what the
    /// tiering layer and the profiler need to attribute a [`CounterPage`]
    /// slot back to a fingerprint.
    fn dispatch_cases_keyed(&self, func: u64) -> (Vec<GuardCase>, Vec<CacheKey>) {
        let mut cases = Vec::new();
        let mut keys = Vec::new();
        for (fingerprint, v) in self.hottest_first(func) {
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
        self.note(
            FlightKind::DispatcherBuilt,
            [func, entry, variants as u64, 0],
        );
        // Stubs are live JIT placements too — symbolize them so profiler
        // samples inside the dispatch chain don't read as bare hex.
        self.note_symbol(&self.symbols.publish_stub(func, entry, len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brew_image::layout::{JIT_BASE, JIT_SIZE};

    /// A cache entry that no publish produced: keyed by `entry` as its
    /// fingerprint, `code_len` bytes long, looked up `hits` times.
    fn insert_dummy(m: &SpecializationManager, func: u64, entry: u64, code_len: usize, hits: u64) {
        let key = CacheKey {
            func,
            fingerprint: entry,
        };
        m.cache.insert(
            key,
            Arc::new(Variant {
                func,
                entry,
                code_len,
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

    const POLY: &str =
        "int poly(int x, int n) { int r = 1; for (int i = 0; i < n; i++) r *= x; return r; }";

    /// An image holding `poly` and a manager holding one real variant of it.
    fn poly_manager(n: i64) -> (Image, SpecializationManager) {
        let img = Image::new();
        let poly = brew_minic::compile_into(POLY, &img)
            .unwrap()
            .func("poly")
            .unwrap();
        let m = SpecializationManager::new();
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(n)
            .ret(crate::RetKind::Int);
        m.get_or_rewrite(&img, poly, &req).unwrap();
        (img, m)
    }

    #[test]
    fn variants_of_orders_hot_first() {
        let m = SpecializationManager::new();
        for (entry, hits) in [(100u64, 1u64), (200, 5), (300, 3)] {
            insert_dummy(&m, 7, entry, 16, hits);
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
        insert_dummy(&m, 1, 100, 16, 0);
        insert_dummy(&m, 1, 200, 16, 0);
        let keep = CacheKey {
            func: 1,
            fingerprint: 200,
        };
        m.evict_to_budget(keep);
        let left: Vec<u64> = m.variants_of(1).iter().map(|v| v.entry).collect();
        assert_eq!(left, vec![200]);
        assert_eq!(m.stats().evictions, 1);
    }

    /// Per-entry read-back failures must not abort the save — and must not
    /// be silent: the report counts them, `brew_persist_save_failed_total`
    /// counts them, a `SAVE_FAIL` record names the entry, and the
    /// surviving bytes still load cleanly.
    #[test]
    fn unreadable_entry_is_counted_failed_not_dropped_silently() {
        let (img, m) = poly_manager(3);
        // In the JIT segment, but the code range crosses the segment end:
        // `segment_of` says ours, `read_bytes` faults. A publish never
        // produces this against its own image; a save against the wrong
        // image can.
        let bad_entry = JIT_BASE + JIT_SIZE - 8;
        insert_dummy(&m, 0x1234, bad_entry, 64, 0);

        let (bytes, report) = m.save_variant_bytes_report(&img);
        let counts = (report.written, report.skipped, report.failed);
        assert_eq!(counts, (1, 0, 1), "the readable variant still saves");
        assert_eq!(m.metrics.counter(Ctr::PersistSaveFailed).get(), 1);
        let dump = m.flight.dump();
        let fail = dump
            .entries
            .iter()
            .find(|e| e.kind == FlightKind::PersistSaveFailed);
        assert_eq!(
            fail.expect("a SAVE_FAIL record").args[..2],
            [0x1234, bad_entry]
        );
        assert!(dump.render_text().contains("kind=SAVE_FAIL"));

        // What did get written is a valid checkpoint of the survivor.
        let fresh_img = Image::new();
        brew_minic::compile_into(POLY, &fresh_img).unwrap();
        let fresh = SpecializationManager::new();
        let loaded = fresh.load_variant_bytes(&fresh_img, &bytes).unwrap();
        assert_eq!((loaded.published, loaded.rejected.len()), (1, 0));
    }

    /// An entry whose address is in none of this image's segments is
    /// `skipped` (legitimately not ours), distinct from `failed`.
    #[test]
    fn foreign_entry_is_counted_skipped() {
        let (img, m) = poly_manager(4);
        insert_dummy(&m, 0x5678, 0x10, 16, 0);
        let (_, report) = m.save_variant_bytes_report(&img);
        assert_eq!((report.written, report.skipped, report.failed), (1, 1, 0));
        assert_eq!(m.metrics.counter(Ctr::PersistSaveFailed).get(), 0);
    }

    /// One journal line per decision kind that had a public event before
    /// `Event` was deleted, as the flight dump prints it (timestamp and
    /// thread id cut off); the lines were generated at the commit before
    /// the encoding moved into the decision table, less `DEFERRED`, which
    /// went with the deferred mode. `PROMOTED` and `DEMOTED` come from real
    /// ticks, so a call site that forgets its `bar` word fails here.
    #[test]
    fn every_event_variant_journals_its_pinned_line() {
        let m = SpecializationManager::builder()
            .tiering(TieringConfig {
                cooldown_ticks: 0,
                ..TieringConfig::default()
            })
            .build();
        let (func, entry, fingerprint) = (0x40_1000, 0x90_0040, 0xfeed_beef);
        let key = CacheKey { func, fingerprint };
        let line = |e: &telemetry::FlightEntry| {
            e.render_line().split_once(" kind=").unwrap().1.to_string()
        };
        let t = m.tiering.as_ref().unwrap();
        let img = Image::new();
        // Absent and hot: 19 decays to 9.5, over the promote bar (8). The
        // replayed request names options for a non-code address, so its
        // inline rewrite fails before tracing anything.
        let req = SpecRequest::new().func(0x10, |o| o.inline = false);
        let hot = tiering::HeatEntry {
            heat: 19.0,
            req: Some(req),
            ..Default::default()
        };
        unpoison(t.state.lock()).heat.insert(key, hot);
        assert_eq!(m.tick(&img).promoted, 1);
        // Resident and cold: 0.5 decays to 0.25, under the demote bar (1).
        insert_dummy(&m, func, fingerprint, 96, 0);
        unpoison(t.state.lock()).heat.get_mut(&key).unwrap().heat = 0.5;
        assert_eq!(m.tick(&img).demoted, 1);
        let dump = m.flight.dump().entries;
        let tier = dump
            .iter()
            .filter(|e| matches!(e.kind, FlightKind::Promoted | FlightKind::Demoted));
        let tier: Vec<String> = tier.map(line).collect();

        let mark = m.flight.recorded() as usize;
        for (kind, words) in [
            (FlightKind::Hit, [func, entry, 0, 0]),
            (FlightKind::Miss, [func, 0, 0, 0]),
            (FlightKind::Coalesced, [func, 0, 0, 0]),
            (FlightKind::Rewritten, [func, entry, 96, 1_230]),
            (FlightKind::Published, [func, entry, 0, 0]),
            (FlightKind::Evicted, [func, entry, 96, 0]),
            (FlightKind::DispatcherBuilt, [func, entry, 3, 0]),
            (FlightKind::Denied, [func, 2, 0, 0]),
            (FlightKind::Stale, [func, entry, 0, 0]),
            (FlightKind::Invalidated, [func, entry, 0, 0]),
            (
                FlightKind::Respecialized,
                [func, fingerprint, milli(4.0), 0],
            ),
        ] {
            m.note(kind, words);
        }
        let noted: Vec<String> = m.flight.dump().entries[mark..].iter().map(line).collect();
        let lines = [&noted[..10], &tier[..], &noted[10..]].concat();
        let pinned = [
            "HIT func=0x401000 entry=0x900040",
            "MISS func=0x401000",
            "COALESCED func=0x401000",
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
        // Each decision bumped exactly the counters its table row lists.
        let get = |c: Ctr| m.metrics.counter(c).get();
        for c in [Ctr::Rewrites, Ctr::CacheEvictions, Ctr::TierDemoted] {
            assert_eq!(get(c), 1, "{}", c.name());
        }
        assert_eq!(get(Ctr::TierPromoted), 1);
        assert_eq!(
            (get(Ctr::JitCodeBytes), get(Ctr::CacheEvictedBytes)),
            (96, 96)
        );
    }
}
