//! `SpecializationManager` — a shared, thread-safe specialization service:
//! memoized, budgeted, single-flight, observable.
//!
//! The paper's cost argument (§V, A6) is that a rewrite is *paid once and
//! amortized*, its dispatch sketch (§III.D) that many variants coexist and
//! are selected at call time, and its contract that every call gets a
//! specialized variant or keeps the original. The manager adds that layer
//! over [`crate::Rewriter`] in two halves:
//!
//! - **The decision core** (`decide`): one pure function from the plain
//!   facts of a call to a `Decision` — hit, deny, answer with the original,
//!   coalesce, rewrite, retreat to the conservative level, refuse over
//!   budget, publish, evict, promote, demote, re-specialize — and the one
//!   mapping from a decision to its journal record.
//! - **The shell** (this module): read a fact, ask `decide`, execute,
//!   journal. [`request`](SpecializationManager::request),
//!   [`get_or_rewrite`](SpecializationManager::get_or_rewrite), a
//!   [`tick`](SpecializationManager::tick)'s promotions and a
//!   revalidation's rebuilds share one front end and differ only in their
//!   origin; the checkpoint load and eviction ask the same table.
//!
//! What the shell executes against: a **variant cache** under
//! `(function, request fingerprint)` ([`SpecRequest::fingerprint`]) whose
//! hit is one lock-free probe of a published snapshot, bounded by a byte
//! budget (the highest `staleness × code bytes / (hits + 1)` is evicted
//! first);
//! **single flight**, so each fingerprint is traced once however many
//! threads race for it, on the calling thread (the manager spawns none);
//! the **negative cache** ([`negative`]), which memoizes failures with a
//! decaying backoff; **invalidation**
//! ([`apply_invalidation`](SpecializationManager::apply_invalidation)),
//! which moves a generation before it sweeps, so a rewrite in flight
//! across it is refused at publish; opt-in **tiering** ([`tiering`]);
//! **dispatch stubs** over the resident variants of a function; and
//! **panic containment** — the pipeline, the gate and the conservative
//! re-emission run under `catch_unwind`, a panic fails its own request as
//! [`RewriteError::Internal`], and every lock recovers from poisoning.
//!
//! Every decision is one `note(kind, words)` through
//! [`crate::telemetry::table`] into the [`MetricsRegistry`] and the flight
//! journal, the only two outputs; [`CacheStats`] is a view over them.
//! Construction goes through [`ManagerBuilder`]: budget, negative policy,
//! tiering, publish gate.

mod builder;
mod cache;
mod checkpoint;
mod decide;
mod dispatch;
mod inflight;
pub mod negative;
pub mod tiering;

use crate::capture::RewriteStats;
use crate::error::RewriteError;
use crate::request::SpecRequest;
use crate::snapshot::KnownSnapshot;
use crate::telemetry::flight::FlightKind;
use crate::telemetry::{
    self, metrics::Ctr, metrics::Gge, metrics::Hst, FlightRecorder, MetricsRegistry, SymbolTable,
};
use crate::{OptLevel, Rewriter};
use brew_image::Image;
pub use builder::ManagerBuilder;
use cache::VariantCache;
pub use checkpoint::{LoadReport, SaveReport};
use decide::{decide, Decision, Gate, Heat, Origin, Stage, View};
use inflight::{InflightTable, Join};
use negative::NegativeCache;
pub use negative::NegativePolicy;
use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use tiering::Tiering;
pub use tiering::{TickSummary, TieringConfig};

/// Recover the guard from a poisoned lock. Panics are contained at the
/// rewrite boundary, but one can still escape while a manager lock is
/// held; every manager lock guards state that is consistent between
/// statements, so serving the next caller beats wedging everyone (a wedged
/// flight table would hang every follower forever).
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
/// A *view*: every cumulative field reads the [`MetricsRegistry`] counter
/// (or histogram sum) its decision feeds, so the two never disagree, and
/// freezes while the registry is switched off; `resident_bytes` and
/// `negative_entries` read the caches' own accounting. The counters are
/// `Relaxed`: synchronize with the threads a total must include before
/// comparing it.
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
    /// True when the translation-validation tier rejected it. For passes
    /// that carry a proof obligation (above `OptLevel::Regalloc`) the
    /// optimization, not the variant, was wrong: the manager re-runs the
    /// passes conservatively over the captured CFG and gates that instead.
    pub equivalence: bool,
}

/// Pre-publish inspection of every finished rewrite, whoever asked for it.
/// `Err` means the variant is *never* published: the rejection becomes
/// [`RewriteError::VerifyRejected`], is cached negatively, and dispatch
/// keeps the original, like any failed rewrite. `brew-verify` provides the
/// static translation validator; closures with the matching signature
/// implement the trait too.
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

/// What to invalidate — the selector of
/// [`SpecializationManager::apply_invalidation`], in three precisions:
/// "this function changed" (its negative entries go too: a failure may have
/// been data-dependent), "I just mutated these bytes" (no image access),
/// and "something may have changed" (re-hash every snapshot).
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
    cache: VariantCache,
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
    /// Moved by every invalidation before it sweeps. A leader reads it
    /// when it takes the lease; its publish (or its failure's memo) is
    /// refused if it moved since, so nothing traced before an
    /// invalidation outlives it.
    generation: AtomicU64,
}

impl Default for SpecializationManager {
    fn default() -> Self {
        Self::new()
    }
}

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
        for (_, _, v) in self.cache.remove_matching(|_| true) {
            self.retire_symbol(v);
        }
    }

    /// Record one decision: the counters its [`FlightKind`] row lists
    /// and the flight journal, together — the only place the manager
    /// writes either, and the only channel a decision has.
    fn note(&self, kind: FlightKind, args: [u64; 4]) {
        telemetry::note(&self.metrics, &self.flight, kind, args);
    }

    /// Journal a decision about `key` (`v`: the variant it serves,
    /// installs or drops) through its one record mapping.
    fn journal(&self, d: Decision, key: CacheKey, v: Option<&Variant>) {
        if let Some((kind, words)) = d.record(key, v) {
            self.note(kind, words);
        }
    }

    /// `decide` and journal: the shell's step after each fact it reads.
    fn decide(&self, view: &View, key: CacheKey, v: Option<&Variant>) -> Decision {
        let d = decide(view);
        self.journal(d, key, v);
        d
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

    /// Contain a caught panic and return its best-effort message. The
    /// payload is dropped under `catch_unwind`: one whose drop panics
    /// again must not unwind out of the request either, and the second
    /// payload is forgotten rather than risk a third.
    fn contain_panic(&self, payload: Box<dyn Any + Send>) -> String {
        // Freeze the journal's view of the blast for `last_panic_dump()`.
        self.note(FlightKind::PanicContained, [0; 4]);
        let dump = self.flight.dump().render_text();
        *unpoison(self.last_panic.lock()) = Some(dump);
        let msg = match (
            payload.downcast_ref::<&str>(),
            payload.downcast_ref::<String>(),
        ) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "non-string panic payload".to_string(),
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
        self.serve(img, func, req, Origin::Request)
    }

    /// The synchronous memoized entry point: the cached variant for
    /// `(func, req)`, or rewrite, insert and return it; a negatively cached
    /// key returns its memoized error. A hit is one lock-free probe;
    /// concurrent misses on one key coalesce onto a single rewrite.
    pub fn get_or_rewrite(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
    ) -> Result<Arc<Variant>, RewriteError> {
        match self.serve(img, func, req, Origin::Direct)? {
            Dispatch::Specialized(v) => Ok(v),
            // `decide` answers only `request` with the original; a direct
            // call is denied with the memoized error.
            Dispatch::Original { .. } => Err(RewriteError::Internal(
                "a direct call was answered with the original".into(),
            )),
        }
    }

    /// The one front end of every call: read a fact, `decide`, act. A hit
    /// is one fingerprint, one lock-free probe, one `decide` and one record,
    /// inlined into each entry point.
    #[inline(always)]
    fn serve(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
        origin: Origin,
    ) -> Result<Dispatch, RewriteError> {
        let key = CacheKey {
            func,
            fingerprint: req.fingerprint(),
        };
        let hit = self.cache.lookup(&key, 1);
        let mut view = View::new(origin, self.tiering.is_some(), self.budget_bytes);
        if let Some(v) = hit {
            view.resident = true;
            if self.decide(&view, key, Some(&v)) == Decision::Hit {
                return Ok(Dispatch::Specialized(v));
            }
        }
        self.miss(img, key, req, view)
    }

    /// The front end past a miss: one negative-cache lookup, then single
    /// flight. Kept out of line, so a hit's frame stays small.
    #[inline(never)]
    fn miss(
        &self,
        img: &Image,
        key: CacheKey,
        req: &SpecRequest,
        mut view: View,
    ) -> Result<Dispatch, RewriteError> {
        // Under tiering a request miss is heat, not an order: the profile
        // decides what is worth rewriting.
        if let (Origin::Request, Some(t)) = (view.origin, &self.tiering) {
            t.observe_miss(key, req);
        }
        let denial;
        (view.negative, denial) = self.negative.consult(&key, view.origin);
        match (self.decide(&view, key, None), denial) {
            (Decision::Join, _) => {}
            (Decision::Deny { .. }, Some(err)) => return Err(err),
            // A denied request, a miss under tiering, or a policy call that
            // holds still.
            _ => return Ok(Dispatch::Original { func: key.func }),
        }
        match self.inflight.join(key) {
            Join::Follower(flight) => {
                view.stage = Stage::Following;
                self.decide(&view, key, None); // a follower's one row: coalesce
                flight.wait()
            }
            Join::Leader(lease) => {
                let out = self.lead(img, key, req, view);
                lease.resolve(out.clone());
                out
            }
        }
        .map(Dispatch::Specialized)
    }

    /// The leader's half of a miss — double-check, trace, gate, publish —
    /// returning what its followers get too, after the cache has it.
    fn lead(
        &self,
        img: &Image,
        key: CacheKey,
        req: &SpecRequest,
        mut view: View,
    ) -> Result<Arc<Variant>, RewriteError> {
        let generation = self.generation.load(Ordering::SeqCst);
        let current = || self.generation.load(Ordering::SeqCst) == generation;
        view.stage = Stage::Leading;
        // Double-check under the lease: a previous leader may have
        // published between our miss and winning the flight.
        let hit = self.cache.lookup(&key, 1);
        view.resident = hit.is_some();
        if let (Decision::Hit, Some(v)) = (self.decide(&view, key, hit.as_deref()), hit) {
            return Ok(v);
        }
        self.metrics.gauge_add(Gge::InflightRewrites, 1);
        let mut run = self.contain(|| Rewriter::new(img).rewrite(key.func, req));
        self.metrics.gauge_add(Gge::InflightRewrites, -1);
        let mut provable = req.pass_config() > OptLevel::Regalloc;
        let err = loop {
            // The gate sees every finished-but-unpublished variant.
            let gated = run.map(|res| {
                let gate = self.gate_check(img, key.func, req, &res);
                (res, gate)
            });
            view.stage = match &gated {
                Err(_) => Stage::Failed,
                Ok((res, gate)) => Stage::Gated {
                    gate: gate.as_ref().map_or_else(|(g, _)| *g, |()| Gate::Pass),
                    code_len: res.code_len,
                    provable: provable && res.equiv.is_some(),
                },
            };
            let d = decide(&view);
            match (d, gated) {
                (_, Err(e)) => break e,
                // The optimization, not the trace, was wrong: re-run the
                // passes conservatively over the captured CFG (no second
                // trace) and gate that. The rejected attempt's JIT bytes
                // stay allocated but unreachable — the bump allocator has
                // no free list, and such rejections are rare.
                (Decision::Retreat { .. }, Ok((res, _))) => {
                    self.journal(d, key, None);
                    provable = false;
                    run = self.contain(|| Rewriter::new(img).reemit_conservative(req, &res));
                }
                // No eviction can make room for it: refusing it here keeps
                // `resident_bytes <= budget` an invariant.
                (Decision::OverBudget { code_len, budget }, _) => {
                    self.journal(d, key, None);
                    break RewriteError::OverBudget { code_len, budget };
                }
                (_, Ok((_, Err((_, err))))) => break err,
                (_, Ok((res, Ok(())))) => {
                    self.metrics.observe_rewrite(Ok(&res.stats));
                    let v = Arc::new(Variant {
                        func: key.func,
                        entry: res.entry,
                        code_len: res.code_len,
                        stats: res.stats,
                        guards: req.guard_conditions(),
                        snapshot: res.snapshot,
                    });
                    self.install(d, view, key, &v, req.clone(), current);
                    return Ok(v);
                }
            }
        };
        // Memoized (unless an invalidation moved the generation since the
        // lease), so followers and repeats are denied without re-tracing.
        self.metrics.observe_rewrite(Err(&err));
        self.negative.record_failure(&key, &err, current);
        Err(err)
    }

    /// Execute `d`, a publish or a restore of `v`: journal, memo cleared,
    /// JIT symbol, cache entry, evict to budget. An insert `current()`
    /// refuses (an invalidation ran since `v` was traced) is journaled
    /// `INVALIDATED` and its symbol retired; `v` still goes to its callers.
    fn install(
        &self,
        d: Decision,
        view: View,
        key: CacheKey,
        v: &Arc<Variant>,
        req: SpecRequest,
        current: impl FnOnce() -> bool,
    ) {
        self.journal(d, key, Some(v));
        self.negative.forget(&key);
        let (func, fp, len) = (key.func, key.fingerprint, v.code_len as u64);
        self.note_symbol(&self.symbols.publish_variant(func, fp, v.entry, len));
        if self.cache.insert(key, Arc::clone(v), req, current) {
            self.evict_to_budget(view, key);
        } else {
            self.note(FlightKind::Invalidated, [v.func, v.entry, 0, 0]);
            self.retire_symbol(Arc::clone(v));
        }
    }

    /// Run a pipeline step under `catch_unwind`: one pathological function
    /// fails its own request (as `Internal`, negatively cached like any
    /// other failure) instead of unwinding into the caller.
    fn contain(
        &self,
        step: impl FnOnce() -> Result<crate::RewriteResult, RewriteError>,
    ) -> Result<crate::RewriteResult, RewriteError> {
        catch_unwind(AssertUnwindSafe(step))
            .unwrap_or_else(|p| Err(RewriteError::Internal(self.contain_panic(p))))
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
    ) -> Result<(), (Gate, RewriteError)> {
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
                let findings = r.findings as u64;
                self.note(FlightKind::VerifyReject, [func, findings, 0, 0]);
                let gate = match r.equivalence {
                    true => Gate::Equivalence { findings },
                    false => Gate::Reject,
                };
                let first = r.summary;
                Err((
                    gate,
                    RewriteError::VerifyRejected {
                        findings: r.findings,
                        first,
                    },
                ))
            }
            Err(p) => {
                let msg = self.contain_panic(p);
                let err = RewriteError::Internal(format!("publish gate panicked: {msg}"));
                Err((Gate::Reject, err))
            }
        }
    }

    /// Evict highest-score entries while `decide` says the budget does not
    /// hold. `keep` (the entry just inserted) is never evicted — it always
    /// fits on its own, because publish refuses any variant whose code
    /// alone exceeds the budget, so `resident_bytes <= budget` holds
    /// unconditionally after every insert.
    fn evict_to_budget(&self, mut view: View, keep: CacheKey) {
        loop {
            view.stage = Stage::Published {
                bytes: self.cache.resident_bytes(),
                variants: self.cache.len(),
            };
            let d = decide(&view);
            if d != Decision::Evict {
                return;
            }
            let Some((key, req, v)) = self.cache.evict_victim(keep) else {
                return;
            };
            // Keep the producing request: if the key heats back up the
            // tiering layer can re-promote it without any caller's help.
            if let Some(t) = &self.tiering {
                t.retain_request(key, req);
            }
            self.journal(d, key, Some(&v));
            self.retire_symbol(v);
        }
    }

    /// One turn of the tiering loop: sample → `decide` → effects.
    /// Sampling drains the counter pages and reads the cache hit counts;
    /// the pure fold turns them, with the misses observed since the last
    /// tick, into decayed heat and promote/demote verdicts; the effects
    /// demote cold resident variants and rewrite hot absent fingerprints.
    /// With tiering disabled this is a no-op returning a zero summary.
    ///
    /// Call it from whatever periodic hook the host has: the promotions'
    /// rewrites run on that thread, never on the dispatch path. Sampling
    /// tolerates the stubs' relaxed counters by construction (see
    /// [`CounterPage`](crate::guard::CounterPage)'s read-back contract).
    pub fn tick(&self, img: &Image) -> TickSummary {
        let Some(t) = &self.tiering else {
            return TickSummary::default();
        };
        self.note(
            FlightKind::TickBegin,
            [unpoison(t.state.lock()).tick + 1, 0, 0, 0],
        );
        // Resident hit counts are read *before* page deltas are credited
        // into the cache, so a credit is never observed again as a hit
        // delta (the fold moves it into the next baseline instead).
        let mut resident = HashMap::new();
        self.cache.each(|e| {
            resident.insert(e.key, e.hits.load(Ordering::Relaxed));
        });
        let mut st = unpoison(t.state.lock());
        // Every resident key gets a heat entry even if it never missed or
        // dispatched — otherwise it could not decay toward demotion.
        for key in resident.keys() {
            st.heat.entry(*key).or_default();
        }
        let unattributed = st.sample(img, |key, d| self.cache.lookup(key, d).is_some());
        st.tick += 1;
        let tick = st.tick;
        // The negative cache's word on every absent key a promotion could
        // replay, probed without spending the window real requests decay on.
        let negative = st
            .heat
            .iter()
            .filter(|(key, e)| e.req.is_some() && !resident.contains_key(key))
            .map(|(key, _)| (*key, self.negative.consult(key, Origin::Promote).0))
            .collect();
        let fold = decide::fold(&mut st.heat, &resident, &negative, tick, &t.cfg);
        let mut promote = Vec::new();
        let mut demote = Vec::new();
        for (key, d, req) in fold.verdicts {
            if let Some(req) = req {
                promote.push((key, d, req));
            } else if let Some((req, v)) = self.cache.remove_key(&key) {
                // Demotion only unpublishes; the request stays to replay.
                if let Some(e) = st.heat.get_mut(&key) {
                    e.retain(req);
                    e.last_action_tick = tick;
                }
                demote.push((key, d, v));
            }
        }
        drop(st);

        let (tracked, milli) = (fold.tracked as i64, |h: f64| (h * 1000.0) as i64);
        self.metrics.gauge_set(Gge::HeatTracked, tracked);
        self.metrics.gauge_set(Gge::HeatMax, milli(fold.heat_max));
        let mean = fold.heat_sum / tracked.max(1) as f64;
        self.metrics.gauge_set(Gge::HeatMean, milli(mean));

        // Effects run outside the tiering lock (a promotion re-enters the
        // front end); each record carries the heat and the bar it crossed.
        for (key, d, v) in &demote {
            self.journal(*d, *key, None);
            self.retire_symbol(Arc::clone(v));
        }
        let summary = TickSummary {
            tick,
            sampled: fold.sampled,
            cycles_sampled: unattributed + fold.cycles,
            tracked: fold.tracked,
            promoted: promote.len(),
            demoted: demote.len(),
        };
        for (key, d, req) in promote {
            self.journal(d, key, None);
            // A failure is negatively cached as usual.
            let _ = self.serve(img, key.func, &req, Origin::Promote);
        }
        self.note(
            FlightKind::TickEnd,
            [
                tick,
                summary.sampled,
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
    /// `inv` names (a revalidation journals all `STALE`, then all
    /// `INVALIDATED`) and return how many. The generation moves first, so
    /// a rewrite in flight meanwhile is refused at publish. With tiering
    /// the dropped requests are kept for later promotion, and a
    /// revalidation rebuilds here each key whose heat `decide` finds worth
    /// it (`RESPEC`); otherwise the next request re-specializes a key.
    pub fn apply_invalidation(&self, inv: Invalidation<'_>) -> usize {
        self.generation.fetch_add(1, Ordering::SeqCst);
        let dropped = match &inv {
            Invalidation::Func(func) => {
                let dropped = self.cache.remove_matching(|v| v.func == *func);
                self.negative.forget_func(*func);
                dropped
            }
            Invalidation::Data(range) => self.cache.remove_matching(|v| v.snapshot.overlaps(range)),
            Invalidation::Revalidate(img) => {
                let dropped = self.cache.remove_matching(|v| !v.snapshot.matches(img));
                for (_, _, v) in &dropped {
                    self.note(FlightKind::Stale, [v.func, v.entry, 0, 0]);
                }
                dropped
            }
        };
        for (key, req, v) in &dropped {
            self.note(FlightKind::Invalidated, [v.func, v.entry, 0, 0]);
            self.retire_symbol(Arc::clone(v));
            if let Some(t) = &self.tiering {
                t.retain_request(*key, req.clone());
            }
        }
        if let (Invalidation::Revalidate(img), Some(t)) = (&inv, &self.tiering) {
            for (key, req, _) in &dropped {
                let view = View {
                    negative: self.negative.consult(key, Origin::Rebuild).0,
                    heat: Some(Heat {
                        score: t.heat_of(key),
                        since: 0,
                        replayable: true,
                        cfg: t.cfg,
                    }),
                    ..View::new(Origin::Rebuild, true, self.budget_bytes)
                };
                if let Decision::Respecialize { .. } = self.decide(&view, *key, None) {
                    // A failure is negatively cached as usual.
                    let _ = self.serve(img, key.func, req, Origin::Rebuild);
                }
            }
        }
        dropped.len()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::flight::milli;
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
            || true,
        );
        for _ in 0..hits {
            m.cache.lookup(&key, 1);
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
        m.evict_to_budget(View::new(Origin::Direct, false, 16), keep);
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
