//! The lock-free metrics registry.
//!
//! Every metric is a plain atomic — no locks anywhere on the update path,
//! so the registry is safe to hammer from the manager's sharded hit path
//! and the deferred worker pool alike. A disabled registry (see
//! [`MetricsRegistry::set_enabled`]) reduces every update to one relaxed
//! load-and-branch.

use crate::manager::Event;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (or be set outright).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, in nanoseconds) of the fixed histogram
/// buckets: powers of four from 1µs to ~4s, the range a rewrite phase can
/// plausibly land in. One shared layout keeps exposition simple and the
/// observation path branch-free beyond the bucket scan.
pub const NS_BUCKET_BOUNDS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
];

/// A fixed-bucket histogram over [`NS_BUCKET_BOUNDS`] plus an overflow
/// bucket, with sum and count — the Prometheus histogram shape.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NS_BUCKET_BOUNDS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = NS_BUCKET_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(NS_BUCKET_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Upper bounds (inclusive, in model cycles) of the per-variant
/// self-time histogram buckets: powers of four from 4 to ~16M cycles.
pub const CYCLE_BUCKET_BOUNDS: [u64; 12] = [
    4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];

/// Sentinel fingerprint labelling time spent in the *original* function
/// (dispatch fall-through) rather than any specialized variant.
pub const ORIGINAL_FP: u64 = u64::MAX;

/// Lock-free per-(func, fingerprint) self-time cell: a cycle histogram
/// over [`CYCLE_BUCKET_BOUNDS`] plus an exemplar (the costliest single
/// call seen, with its timestamp).
#[derive(Debug)]
struct SelfTimeCell {
    buckets: [AtomicU64; CYCLE_BUCKET_BOUNDS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
    exemplar_cycles: AtomicU64,
    exemplar_ts_ns: AtomicU64,
}

impl Default for SelfTimeCell {
    fn default() -> Self {
        SelfTimeCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            exemplar_cycles: AtomicU64::new(0),
            exemplar_ts_ns: AtomicU64::new(0),
        }
    }
}

impl SelfTimeCell {
    fn observe(&self, cycles: u64) {
        let idx = CYCLE_BUCKET_BOUNDS
            .iter()
            .position(|&b| cycles <= b)
            .unwrap_or(CYCLE_BUCKET_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(cycles, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if cycles > self.exemplar_cycles.fetch_max(cycles, Ordering::Relaxed) {
            self.exemplar_ts_ns
                .store(super::flight::now_ns(), Ordering::Relaxed);
        }
    }
}

/// A read-out of one variant's self-time cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTimeSnapshot {
    /// Original function address.
    pub func: u64,
    /// Argument fingerprint ([`ORIGINAL_FP`] = the original body).
    pub fingerprint: u64,
    /// Calls attributed.
    pub count: u64,
    /// Total attributed model cycles.
    pub sum_cycles: u64,
    /// Per-bucket counts over [`CYCLE_BUCKET_BOUNDS`], overflow last.
    pub buckets: Vec<u64>,
    /// Costliest single attributed call.
    pub exemplar_cycles: u64,
    /// Flight-epoch timestamp of the exemplar.
    pub exemplar_ts_ns: u64,
}

/// Counter identifiers. The order defines the exposition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Ctr {
    CacheHits,
    CacheMisses,
    CacheCoalesced,
    CacheDeferred,
    CachePublished,
    CacheEvictions,
    CacheEvictedBytes,
    Rewrites,
    RewriteFailures,
    TracedInsts,
    JitCodeBytes,
    DispatchersBuilt,
    GuardHits,
    GuardFallthrough,
    NegativeHits,
    CacheStale,
    CacheInvalidated,
    PanicsContained,
    VerifyPassed,
    VerifyRejected,
    TierPromoted,
    TierDemoted,
    TierRespecialized,
    EpochPublished,
    EpochReclaimed,
    PersistSaved,
    PersistLoaded,
    PersistRejected,
    PersistSaveFailed,
    PersistSaveUnportable,
    OverBudget,
    RegallocFallback,
}

impl Ctr {
    /// Every counter, in exposition order.
    pub const ALL: [Ctr; 32] = [
        Ctr::CacheHits,
        Ctr::CacheMisses,
        Ctr::CacheCoalesced,
        Ctr::CacheDeferred,
        Ctr::CachePublished,
        Ctr::CacheEvictions,
        Ctr::CacheEvictedBytes,
        Ctr::Rewrites,
        Ctr::RewriteFailures,
        Ctr::TracedInsts,
        Ctr::JitCodeBytes,
        Ctr::DispatchersBuilt,
        Ctr::GuardHits,
        Ctr::GuardFallthrough,
        Ctr::NegativeHits,
        Ctr::CacheStale,
        Ctr::CacheInvalidated,
        Ctr::PanicsContained,
        Ctr::VerifyPassed,
        Ctr::VerifyRejected,
        Ctr::TierPromoted,
        Ctr::TierDemoted,
        Ctr::TierRespecialized,
        Ctr::EpochPublished,
        Ctr::EpochReclaimed,
        Ctr::PersistSaved,
        Ctr::PersistLoaded,
        Ctr::PersistRejected,
        Ctr::PersistSaveFailed,
        Ctr::PersistSaveUnportable,
        Ctr::OverBudget,
        Ctr::RegallocFallback,
    ];

    /// Prometheus metric name.
    pub fn name(self) -> &'static str {
        match self {
            Ctr::CacheHits => "brew_cache_hits_total",
            Ctr::CacheMisses => "brew_cache_misses_total",
            Ctr::CacheCoalesced => "brew_cache_coalesced_total",
            Ctr::CacheDeferred => "brew_cache_deferred_total",
            Ctr::CachePublished => "brew_cache_published_total",
            Ctr::CacheEvictions => "brew_cache_evictions_total",
            Ctr::CacheEvictedBytes => "brew_cache_evicted_bytes_total",
            Ctr::Rewrites => "brew_rewrites_total",
            Ctr::RewriteFailures => "brew_rewrite_failures_total",
            Ctr::TracedInsts => "brew_traced_insts_total",
            Ctr::JitCodeBytes => "brew_jit_code_bytes_total",
            Ctr::DispatchersBuilt => "brew_dispatchers_built_total",
            Ctr::GuardHits => "brew_guard_hits_total",
            Ctr::GuardFallthrough => "brew_guard_fallthrough_total",
            Ctr::NegativeHits => "brew_negative_hits_total",
            Ctr::CacheStale => "brew_cache_stale_total",
            Ctr::CacheInvalidated => "brew_cache_invalidated_total",
            Ctr::PanicsContained => "brew_rewrite_panics_total",
            Ctr::VerifyPassed => "brew_verify_passed_total",
            Ctr::VerifyRejected => "brew_verify_rejected_total",
            Ctr::TierPromoted => "brew_tier_promoted_total",
            Ctr::TierDemoted => "brew_tier_demoted_total",
            Ctr::TierRespecialized => "brew_tier_respecialized_total",
            Ctr::EpochPublished => "brew_read_epoch_published_total",
            Ctr::EpochReclaimed => "brew_read_epoch_reclaimed_total",
            Ctr::PersistSaved => "brew_persist_saved_total",
            Ctr::PersistLoaded => "brew_persist_loaded_total",
            Ctr::PersistRejected => "brew_persist_rejected_total",
            Ctr::PersistSaveFailed => "brew_persist_save_failed_total",
            Ctr::PersistSaveUnportable => "brew_persist_save_unportable_total",
            Ctr::OverBudget => "brew_over_budget_total",
            Ctr::RegallocFallback => "brew_regalloc_fallback_total",
        }
    }

    /// One-line help string for the exposition.
    pub fn help(self) -> &'static str {
        match self {
            Ctr::CacheHits => "Specialization requests answered from the variant cache",
            Ctr::CacheMisses => "Requests that led a rewrite (single-flight leaders)",
            Ctr::CacheCoalesced => "Requests that subscribed to an in-flight rewrite",
            Ctr::CacheDeferred => "Misses answered with the original while a worker rewrites",
            Ctr::CachePublished => "Variants published by deferred workers",
            Ctr::CacheEvictions => "Variants evicted under byte-budget pressure",
            Ctr::CacheEvictedBytes => "Code bytes dropped by evictions",
            Ctr::Rewrites => "Completed rewrites",
            Ctr::RewriteFailures => "Rewrites that returned an error",
            Ctr::TracedInsts => "Guest instructions visited while tracing",
            Ctr::JitCodeBytes => "Code bytes emitted into the JIT segment by rewrites",
            Ctr::DispatchersBuilt => "Guarded dispatch stubs emitted",
            Ctr::GuardHits => "Dispatch-stub cases taken (from counting stubs)",
            Ctr::GuardFallthrough => "Dispatch-stub fall-throughs to the original",
            Ctr::NegativeHits => "Requests denied from the negative cache without re-tracing",
            Ctr::CacheStale => "Variants found stale by revalidate (folded bytes changed)",
            Ctr::CacheInvalidated => "Variants dropped by invalidation",
            Ctr::PanicsContained => "Rewrite-pipeline panics converted into errors",
            Ctr::VerifyPassed => "Variants that passed the publish gate's static verification",
            Ctr::VerifyRejected => "Variants rejected (and never published) by the publish gate",
            Ctr::TierPromoted => {
                "Hot fingerprints promoted (rewrite enqueued) by the tiering layer"
            }
            Ctr::TierDemoted => "Cold resident variants demoted (evicted) by the tiering layer",
            Ctr::TierRespecialized => {
                "Stale variants re-enqueued because their heat cleared the bar"
            }
            Ctr::EpochPublished => "Shard snapshots published (rebuild + pointer swap)",
            Ctr::EpochReclaimed => "Retired shard snapshots freed by epoch advances",
            Ctr::PersistSaved => "Variants serialized to the persistence file",
            Ctr::PersistLoaded => "Persisted variants re-verified and published on load",
            Ctr::PersistRejected => {
                "Persisted variants rejected on load (corrupt, stale, or gate-failed)"
            }
            Ctr::PersistSaveFailed => {
                "Variants that failed to serialize during a save (I/O or read error)"
            }
            Ctr::PersistSaveUnportable => {
                "Variants left out of a save: they read a literal pool the format cannot carry"
            }
            Ctr::OverBudget => {
                "Finished variants refused at publish: code alone exceeds the global budget"
            }
            Ctr::RegallocFallback => {
                "Aggressive register allocations that failed their equivalence proof and \
                 were re-emitted with the conservative allocator"
            }
        }
    }
}

/// Gauge identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Gge {
    InflightRewrites,
    ResidentBytes,
    ResidentVariants,
    NegativeEntries,
    HeatTracked,
    HeatMax,
    HeatMean,
    ReadEpoch,
    EpochLimbo,
}

impl Gge {
    /// Every gauge, in exposition order.
    pub const ALL: [Gge; 9] = [
        Gge::InflightRewrites,
        Gge::ResidentBytes,
        Gge::ResidentVariants,
        Gge::NegativeEntries,
        Gge::HeatTracked,
        Gge::HeatMax,
        Gge::HeatMean,
        Gge::ReadEpoch,
        Gge::EpochLimbo,
    ];

    /// Prometheus metric name.
    pub fn name(self) -> &'static str {
        match self {
            Gge::InflightRewrites => "brew_inflight_rewrites",
            Gge::ResidentBytes => "brew_cache_resident_bytes",
            Gge::ResidentVariants => "brew_cache_resident_variants",
            Gge::NegativeEntries => "brew_negative_entries",
            Gge::HeatTracked => "brew_tier_heat_tracked",
            Gge::HeatMax => "brew_tier_heat_max_milli",
            Gge::HeatMean => "brew_tier_heat_mean_milli",
            Gge::ReadEpoch => "brew_read_epoch",
            Gge::EpochLimbo => "brew_read_epoch_limbo",
        }
    }

    /// One-line help string for the exposition.
    pub fn help(self) -> &'static str {
        match self {
            Gge::InflightRewrites => "Rewrites currently being traced",
            Gge::ResidentBytes => "Code bytes currently resident in the variant cache",
            Gge::ResidentVariants => "Variants currently resident in the cache",
            Gge::NegativeEntries => "Keys currently memoized as failing in the negative cache",
            Gge::HeatTracked => "Keys with live tiering heat scores as of the last tick",
            Gge::HeatMax => "Hottest tiering heat score (x1000) as of the last tick",
            Gge::HeatMean => "Mean tiering heat score (x1000) as of the last tick",
            Gge::ReadEpoch => "Sum of per-shard reclamation epochs of the variant cache",
            Gge::EpochLimbo => "Retired shard snapshots awaiting epoch reclamation",
        }
    }
}

/// Histogram identifiers — the per-phase rewrite-time distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Hst {
    TraceNs,
    PassNs,
    EmitNs,
    TotalNs,
    VerifyNs,
}

impl Hst {
    /// Every histogram, in exposition order.
    pub const ALL: [Hst; 5] = [
        Hst::TraceNs,
        Hst::PassNs,
        Hst::EmitNs,
        Hst::TotalNs,
        Hst::VerifyNs,
    ];

    /// Prometheus metric name.
    pub fn name(self) -> &'static str {
        match self {
            Hst::TraceNs => "brew_rewrite_trace_ns",
            Hst::PassNs => "brew_rewrite_pass_ns",
            Hst::EmitNs => "brew_rewrite_emit_ns",
            Hst::TotalNs => "brew_rewrite_total_ns",
            Hst::VerifyNs => "brew_verify_ns",
        }
    }

    /// One-line help string for the exposition.
    pub fn help(self) -> &'static str {
        match self {
            Hst::TraceNs => "Nanoseconds per rewrite spent decoding and tracing",
            Hst::PassNs => "Nanoseconds per rewrite spent in optimization passes",
            Hst::EmitNs => "Nanoseconds per rewrite spent on layout, encoding, relocation",
            Hst::TotalNs => "Nanoseconds per rewrite across all instrumented phases",
            Hst::VerifyNs => "Nanoseconds per variant spent in publish-gate verification",
        }
    }
}

/// The registry: every metric the pipeline produces, behind atomics.
/// `Send + Sync` by construction; share it in an `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    counters: [Counter; Ctr::ALL.len()],
    gauges: [Gauge; Gge::ALL.len()],
    hists: [Histogram; Hst::ALL.len()],
    /// Per-(func, fingerprint) self-time cells. The write lock is taken
    /// only when a *new* variant first reports time; steady-state
    /// observation is a read-lock + atomics.
    self_times: RwLock<HashMap<(u64, u64), Arc<SelfTimeCell>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(true),
            counters: std::array::from_fn(|_| Counter::default()),
            gauges: std::array::from_fn(|_| Gauge::default()),
            hists: std::array::from_fn(|_| Histogram::default()),
            self_times: RwLock::new(HashMap::new()),
        }
    }

    /// Turn recording on or off. Off, every update path reduces to one
    /// relaxed load; existing values are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the registry records updates.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter for `c`.
    pub fn counter(&self, c: Ctr) -> &Counter {
        &self.counters[c as usize]
    }

    /// The gauge for `g`.
    pub fn gauge(&self, g: Gge) -> &Gauge {
        &self.gauges[g as usize]
    }

    /// The histogram for `h`.
    pub fn histogram(&self, h: Hst) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Increment counter `c` by `n`, if enabled.
    pub fn count(&self, c: Ctr, n: u64) {
        if self.enabled() {
            self.counter(c).add(n);
        }
    }

    /// Set gauge `g` to `v`, if enabled.
    pub fn gauge_set(&self, g: Gge, v: i64) {
        if self.enabled() {
            self.gauge(g).set(v);
        }
    }

    /// Add `d` to gauge `g`, if enabled.
    pub fn gauge_add(&self, g: Gge, d: i64) {
        if self.enabled() {
            self.gauge(g).add(d);
        }
    }

    /// Record `v` in histogram `h`, if enabled.
    pub fn observe(&self, h: Hst, v: u64) {
        if self.enabled() {
            self.histogram(h).observe(v);
        }
    }

    /// Attribute `cycles` of self-time to the variant `(func,
    /// fingerprint)` (use [`ORIGINAL_FP`] for the original body). Fed by
    /// [`DispatchProfiler`](super::DispatchProfiler); steady state is a
    /// read-lock plus relaxed atomics.
    pub fn observe_self_time(&self, func: u64, fingerprint: u64, cycles: u64) {
        if !self.enabled() {
            return;
        }
        let key = (func, fingerprint);
        let cell = {
            let map = self.self_times.read().unwrap_or_else(|e| e.into_inner());
            map.get(&key).cloned()
        };
        let cell = cell.unwrap_or_else(|| {
            let mut map = self.self_times.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key).or_default())
        });
        cell.observe(cycles);
    }

    /// Snapshot every self-time cell, sorted by (func, fingerprint) for
    /// deterministic output.
    pub fn self_times(&self) -> Vec<SelfTimeSnapshot> {
        let map = self.self_times.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<SelfTimeSnapshot> = map
            .iter()
            .map(|(&(func, fingerprint), cell)| SelfTimeSnapshot {
                func,
                fingerprint,
                count: cell.count.load(Ordering::Relaxed),
                sum_cycles: cell.sum.load(Ordering::Relaxed),
                buckets: cell
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                exemplar_cycles: cell.exemplar_cycles.load(Ordering::Relaxed),
                exemplar_ts_ns: cell.exemplar_ts_ns.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|s| (s.func, s.fingerprint));
        out
    }

    /// Fold one manager [`Event`] into the registry. Called by the
    /// manager on *every* event, sink or no sink — the counters here can
    /// never silently lose an event the way an absent sink drops it.
    pub fn record_event(&self, ev: &Event) {
        if !self.enabled() {
            return;
        }
        match ev {
            Event::Hit { .. } => self.counter(Ctr::CacheHits).inc(),
            Event::Miss { .. } => self.counter(Ctr::CacheMisses).inc(),
            Event::Coalesced { .. } => self.counter(Ctr::CacheCoalesced).inc(),
            Event::Deferred { .. } => self.counter(Ctr::CacheDeferred).inc(),
            Event::Published { .. } => self.counter(Ctr::CachePublished).inc(),
            Event::Evicted { code_len, .. } => {
                self.counter(Ctr::CacheEvictions).inc();
                self.counter(Ctr::CacheEvictedBytes).add(*code_len as u64);
            }
            Event::Rewritten {
                code_len, stats, ..
            } => {
                self.counter(Ctr::Rewrites).inc();
                self.counter(Ctr::TracedInsts).add(stats.traced);
                self.counter(Ctr::JitCodeBytes).add(*code_len as u64);
                self.histogram(Hst::TraceNs).observe(stats.trace_ns);
                self.histogram(Hst::PassNs).observe(stats.pass_ns);
                self.histogram(Hst::EmitNs).observe(stats.emit_ns);
                self.histogram(Hst::TotalNs).observe(stats.total_ns());
            }
            Event::DispatcherBuilt { .. } => self.counter(Ctr::DispatchersBuilt).inc(),
            Event::Denied { .. } => self.counter(Ctr::NegativeHits).inc(),
            Event::Stale { .. } => self.counter(Ctr::CacheStale).inc(),
            Event::Invalidated { .. } => self.counter(Ctr::CacheInvalidated).inc(),
            Event::Promoted { .. } => self.counter(Ctr::TierPromoted).inc(),
            Event::Demoted { .. } => self.counter(Ctr::TierDemoted).inc(),
            Event::Respecialized { .. } => self.counter(Ctr::TierRespecialized).inc(),
        }
    }

    /// Render the registry in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le=...}` series
    /// plus `_sum` / `_count` for histograms).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in Ctr::ALL {
            out.push_str(&format!("# HELP {} {}\n", c.name(), c.help()));
            out.push_str(&format!("# TYPE {} counter\n", c.name()));
            out.push_str(&format!("{} {}\n", c.name(), self.counter(c).get()));
        }
        for g in Gge::ALL {
            out.push_str(&format!("# HELP {} {}\n", g.name(), g.help()));
            out.push_str(&format!("# TYPE {} gauge\n", g.name()));
            out.push_str(&format!("{} {}\n", g.name(), self.gauge(g).get()));
        }
        for h in Hst::ALL {
            let hist = self.histogram(h);
            out.push_str(&format!("# HELP {} {}\n", h.name(), h.help()));
            out.push_str(&format!("# TYPE {} histogram\n", h.name()));
            let mut cum = 0u64;
            for (i, n) in hist.bucket_counts().iter().enumerate() {
                cum += n;
                let le = NS_BUCKET_BOUNDS
                    .get(i)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "+Inf".into());
                out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cum}\n", h.name()));
            }
            out.push_str(&format!("{}_sum {}\n", h.name(), hist.sum()));
            out.push_str(&format!("{}_count {}\n", h.name(), hist.count()));
        }
        let st = self.self_times();
        if !st.is_empty() {
            let name = "brew_variant_self_cycles";
            out.push_str(&format!(
                "# HELP {name} Model cycles attributed per (func, fingerprint) variant\n"
            ));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for s in &st {
                let fp = if s.fingerprint == ORIGINAL_FP {
                    "original".to_string()
                } else {
                    format!("{:#x}", s.fingerprint)
                };
                let labels = format!("func=\"{:#x}\",fp=\"{fp}\"", s.func);
                let mut cum = 0u64;
                for (i, n) in s.buckets.iter().enumerate() {
                    cum += n;
                    let le = CYCLE_BUCKET_BOUNDS
                        .get(i)
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "+Inf".into());
                    out.push_str(&format!("{name}_bucket{{{labels},le=\"{le}\"}} {cum}\n"));
                }
                out.push_str(&format!("{name}_sum{{{labels}}} {}\n", s.sum_cycles));
                out.push_str(&format!("{name}_count{{{labels}}} {}\n", s.count));
                out.push_str(&format!("{name}_max{{{labels}}} {}\n", s.exemplar_cycles));
            }
        }
        out
    }

    /// Render the registry as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{"bounds":[...],
    /// "buckets":[...],"sum":n,"count":n}},"self_time":[...]}` — the
    /// `self_time` array carries one entry per (func, fingerprint)
    /// variant with attributed cycles, sorted for determinism.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, c) in Ctr::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.counter(*c).get()));
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in Gge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", g.name(), self.gauge(*g).get()));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in Hst::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let hist = self.histogram(*h);
            let bounds: Vec<String> = NS_BUCKET_BOUNDS.iter().map(|b| b.to_string()).collect();
            let buckets: Vec<String> = hist.bucket_counts().iter().map(|n| n.to_string()).collect();
            out.push_str(&format!(
                "\"{}\":{{\"bounds\":[{}],\"buckets\":[{}],\"sum\":{},\"count\":{}}}",
                h.name(),
                bounds.join(","),
                buckets.join(","),
                hist.sum(),
                hist.count()
            ));
        }
        out.push_str("},\"self_time\":[");
        for (i, s) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = s.buckets.iter().map(|n| n.to_string()).collect();
            out.push_str(&format!(
                "{{\"func\":{},\"fingerprint\":{},\"original\":{},\"count\":{},\"sum_cycles\":{},\"buckets\":[{}],\"exemplar_cycles\":{},\"exemplar_ts_ns\":{}}}",
                s.func,
                s.fingerprint,
                s.fingerprint == ORIGINAL_FP,
                s.count,
                s.sum_cycles,
                buckets.join(","),
                s.exemplar_cycles,
                s.exemplar_ts_ns
            ));
        }
        out.push_str("]}");
        super::json::checked_export("metrics JSON snapshot", out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = MetricsRegistry::new();
        m.count(Ctr::CacheHits, 3);
        m.counter(Ctr::CacheHits).inc();
        assert_eq!(m.counter(Ctr::CacheHits).get(), 4);
        m.gauge_set(Gge::ResidentBytes, 128);
        m.gauge_add(Gge::ResidentBytes, -28);
        assert_eq!(m.gauge(Gge::ResidentBytes).get(), 100);
    }

    #[test]
    fn disabled_registry_drops_updates() {
        let m = MetricsRegistry::new();
        m.set_enabled(false);
        m.count(Ctr::CacheHits, 5);
        m.observe(Hst::TraceNs, 1_000);
        m.record_event(&Event::Miss { func: 1 });
        assert_eq!(m.counter(Ctr::CacheHits).get(), 0);
        assert_eq!(m.counter(Ctr::CacheMisses).get(), 0);
        assert_eq!(m.histogram(Hst::TraceNs).count(), 0);
        m.set_enabled(true);
        m.record_event(&Event::Miss { func: 1 });
        assert_eq!(m.counter(Ctr::CacheMisses).get(), 1);
    }

    #[test]
    fn histogram_buckets_cover_range() {
        let h = Histogram::default();
        h.observe(0); // below the first bound
        h.observe(1_000); // exactly on a bound → that bucket
        h.observe(5_000_000_000); // beyond the last bound → overflow
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(*counts.last().unwrap(), 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5_000_001_000);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = MetricsRegistry::new();
        m.count(Ctr::Rewrites, 1);
        m.observe(Hst::TotalNs, 2_000);
        let text = m.render_prometheus();
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP ")
                    || line.starts_with("# TYPE ")
                    || line.split_once(' ').is_some_and(|(name, val)| {
                        name.starts_with("brew_") && val.parse::<i64>().is_ok()
                    }),
                "malformed exposition line: {line}"
            );
        }
        assert!(text.contains("brew_rewrites_total 1"));
        // Histogram buckets are cumulative and end with +Inf == count.
        assert!(text.contains("brew_rewrite_total_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("brew_rewrite_total_ns_count 1"));
    }

    #[test]
    fn json_snapshot_is_valid() {
        let m = MetricsRegistry::new();
        m.record_event(&Event::Hit { func: 1, entry: 2 });
        let s = m.snapshot_json();
        crate::telemetry::validate_json(&s).unwrap();
        assert!(s.contains("\"brew_cache_hits_total\":1"));
    }

    #[test]
    fn bucket_boundaries_exact_powers_and_neighbours() {
        // Every exact bound must land in its own bucket (inclusive upper
        // bound), and bound + 1 must land in the next one — scanned for
        // the whole power-of-4 ladder so any off-by-one in the selection
        // shows up at the exact boundary, not mid-range.
        for (i, &bound) in NS_BUCKET_BOUNDS.iter().enumerate() {
            let h = Histogram::default();
            h.observe(bound);
            let counts = h.bucket_counts();
            assert_eq!(counts[i], 1, "bound {bound} must fill bucket {i}");
            assert_eq!(counts.iter().sum::<u64>(), 1);

            let h2 = Histogram::default();
            h2.observe(bound + 1);
            let counts2 = h2.bucket_counts();
            assert_eq!(
                counts2[i + 1],
                1,
                "bound {bound} + 1 must spill into bucket {}",
                i + 1
            );
        }
    }

    #[test]
    fn bucket_extremes_zero_and_u64_max() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(u64::MAX);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "0 belongs in the first bucket");
        assert_eq!(
            *counts.last().unwrap(),
            1,
            "u64::MAX belongs in the overflow bucket"
        );
        assert_eq!(h.count(), 2);
        // Sum wraps per u64 arithmetic; count stays exact.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn cycle_bucket_boundaries_exact_powers() {
        // The self-time ladder gets the same boundary scan as the ns
        // ladder.
        for (i, &bound) in CYCLE_BUCKET_BOUNDS.iter().enumerate() {
            let m = MetricsRegistry::new();
            m.observe_self_time(0x40, 0x1, bound);
            m.observe_self_time(0x40, 0x1, bound + 1);
            let st = m.self_times();
            assert_eq!(st[0].buckets[i], 1, "bound {bound} in bucket {i}");
            assert_eq!(
                st[0].buckets[i + 1],
                1,
                "bound {bound}+1 in bucket {}",
                i + 1
            );
        }
        let m = MetricsRegistry::new();
        m.observe_self_time(0x40, 0x1, u64::MAX);
        let st = m.self_times();
        assert_eq!(*st[0].buckets.last().unwrap(), 1);
    }

    #[test]
    fn self_time_cells_track_exemplars_and_export() {
        let m = MetricsRegistry::new();
        m.observe_self_time(0x40_0000, 0x7, 100);
        m.observe_self_time(0x40_0000, 0x7, 900);
        m.observe_self_time(0x40_0000, 0x7, 50);
        m.observe_self_time(0x40_0000, ORIGINAL_FP, 5_000);
        let st = m.self_times();
        assert_eq!(st.len(), 2);
        let spec = &st[0];
        assert_eq!((spec.func, spec.fingerprint), (0x40_0000, 0x7));
        assert_eq!(spec.count, 3);
        assert_eq!(spec.sum_cycles, 1_050);
        assert_eq!(spec.exemplar_cycles, 900);
        let text = m.render_prometheus();
        assert!(text.contains("brew_variant_self_cycles_sum{func=\"0x400000\",fp=\"0x7\"} 1050"));
        assert!(text.contains("fp=\"original\""));
        assert!(text.contains("brew_variant_self_cycles_max{func=\"0x400000\",fp=\"0x7\"} 900"));
        let json = m.snapshot_json();
        crate::telemetry::validate_json(&json).unwrap();
        assert!(json.contains("\"sum_cycles\":1050"));
        assert!(json.contains("\"original\":true"));
    }

    #[test]
    fn disabled_registry_drops_self_time() {
        let m = MetricsRegistry::new();
        m.set_enabled(false);
        m.observe_self_time(1, 2, 300);
        assert!(m.self_times().is_empty());
    }
}
