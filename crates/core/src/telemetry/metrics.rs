//! The lock-free metrics registry.
//!
//! Every metric is a plain atomic — no locks anywhere on the update path,
//! so the registry is safe to hammer from the manager's hit path
//! on every caller thread at once. A disabled registry (see
//! [`MetricsRegistry::set_enabled`]) reduces every update to one relaxed
//! load-and-branch.

pub use super::table::{Ctr, Gge, Hst};
use super::FlightKind;
use crate::capture::RewriteStats;
use crate::error::RewriteError;
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

    /// Fold one manager decision into the counters: every counter the
    /// [`FlightKind`] table lists for `kind`, by one or by the payload
    /// word its row names. The manager calls this on *every* decision,
    /// beside the journal record of the same decision, so the counters
    /// and the journal cannot disagree about what happened.
    pub fn fold(&self, kind: FlightKind, args: &[u64; 4]) {
        if self.enabled() {
            for &(c, word) in kind.bumps() {
                self.counter(c).add(word.map_or(1, |i| args[i]));
            }
        }
    }

    /// The part of a finished rewrite no flight record carries: the
    /// traced-instruction total and the per-phase histograms of a success,
    /// the failure count otherwise.
    pub fn observe_rewrite(&self, outcome: Result<&RewriteStats, &RewriteError>) {
        if !self.enabled() {
            return;
        }
        match outcome {
            Ok(stats) => {
                self.counter(Ctr::TracedInsts).add(stats.traced);
                self.histogram(Hst::TraceNs).observe(stats.trace_ns);
                self.histogram(Hst::PassNs).observe(stats.pass_ns);
                self.histogram(Hst::EmitNs).observe(stats.emit_ns);
                self.histogram(Hst::TotalNs).observe(stats.total_ns());
            }
            Err(_) => self.counter(Ctr::RewriteFailures).inc(),
        }
    }

    /// Render the registry in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le=...}` series
    /// plus `_sum` / `_count` for histograms).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let header = |out: &mut String, name: &str, help: &str, ty: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {ty}\n"));
        };
        for &c in Ctr::ALL {
            header(&mut out, c.name(), c.help(), "counter");
            out.push_str(&format!("{} {}\n", c.name(), self.counter(c).get()));
        }
        for &g in Gge::ALL {
            header(&mut out, g.name(), g.help(), "gauge");
            out.push_str(&format!("{} {}\n", g.name(), self.gauge(g).get()));
        }
        for &h in Hst::ALL {
            let hist = self.histogram(h);
            header(&mut out, h.name(), h.help(), "histogram");
            push_buckets(
                &mut out,
                h.name(),
                "",
                &NS_BUCKET_BOUNDS,
                &hist.bucket_counts(),
            );
            out.push_str(&format!("{}_sum {}\n", h.name(), hist.sum()));
            out.push_str(&format!("{}_count {}\n", h.name(), hist.count()));
        }
        let st = self.self_times();
        if !st.is_empty() {
            let name = "brew_variant_self_cycles";
            let help = "Model cycles attributed per (func, fingerprint) variant";
            header(&mut out, name, help, "histogram");
            for s in &st {
                let fp = if s.fingerprint == ORIGINAL_FP {
                    "original".to_string()
                } else {
                    format!("{:#x}", s.fingerprint)
                };
                let labels = format!("func=\"{:#x}\",fp=\"{fp}\"", s.func);
                push_buckets(
                    &mut out,
                    name,
                    &format!("{labels},"),
                    &CYCLE_BUCKET_BOUNDS,
                    &s.buckets,
                );
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
        let nums = |v: &[u64]| join(v, |n| n.to_string());
        let counters = join(Ctr::ALL, |&c| {
            format!("\"{}\":{}", c.name(), self.counter(c).get())
        });
        let gauges = join(Gge::ALL, |&g| {
            format!("\"{}\":{}", g.name(), self.gauge(g).get())
        });
        let hists = join(Hst::ALL, |&h| {
            let hist = self.histogram(h);
            format!(
                "\"{}\":{{\"bounds\":[{}],\"buckets\":[{}],\"sum\":{},\"count\":{}}}",
                h.name(),
                nums(&NS_BUCKET_BOUNDS),
                nums(&hist.bucket_counts()),
                hist.sum(),
                hist.count()
            )
        });
        let self_time = join(&self.self_times(), |s| {
            format!(
                "{{\"func\":{},\"fingerprint\":{},\"original\":{},\"count\":{},\"sum_cycles\":{},\"buckets\":[{}],\"exemplar_cycles\":{},\"exemplar_ts_ns\":{}}}",
                s.func,
                s.fingerprint,
                s.fingerprint == ORIGINAL_FP,
                s.count,
                s.sum_cycles,
                nums(&s.buckets),
                s.exemplar_cycles,
                s.exemplar_ts_ns
            )
        });
        let out = format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\
             \"histograms\":{{{hists}}},\"self_time\":[{self_time}]}}"
        );
        super::json::checked_export("metrics JSON snapshot", out)
    }
}

/// `f` over `items`, comma-separated — the body of a JSON array or object.
fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(",")
}

/// The cumulative `_bucket{le=...}` series of one histogram, `+Inf` last;
/// `labels` (empty, or ending in a comma) precede `le`.
fn push_buckets(out: &mut String, name: &str, labels: &str, bounds: &[u64], counts: &[u64]) {
    let mut cum = 0u64;
    for (i, n) in counts.iter().enumerate() {
        cum += n;
        let le = bounds.get(i).map_or("+Inf".into(), |b| b.to_string());
        out.push_str(&format!("{name}_bucket{{{labels}le=\"{le}\"}} {cum}\n"));
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
        m.fold(FlightKind::Miss, &[1, 0, 0, 0]);
        m.observe_rewrite(Err(&RewriteError::TraceBudget));
        assert_eq!(m.counter(Ctr::CacheHits).get(), 0);
        assert_eq!(m.counter(Ctr::CacheMisses).get(), 0);
        assert_eq!(m.counter(Ctr::RewriteFailures).get(), 0);
        assert_eq!(m.histogram(Hst::TraceNs).count(), 0);
        m.set_enabled(true);
        m.fold(FlightKind::Miss, &[1, 0, 0, 0]);
        assert_eq!(m.counter(Ctr::CacheMisses).get(), 1);
    }

    #[test]
    fn fold_bumps_by_one_or_by_the_named_word() {
        let m = MetricsRegistry::new();
        m.fold(FlightKind::Evicted, &[0x40, 0x90, 96, 0]);
        m.fold(FlightKind::PersistLoad, &[3, 2, 0, 0]);
        m.fold(FlightKind::TickBegin, &[7, 0, 0, 0]); // journaled, never counted
        let got: Vec<(Ctr, u64)> = Ctr::ALL
            .iter()
            .map(|&c| (c, m.counter(c).get()))
            .filter(|&(_, n)| n > 0)
            .collect();
        let want = [
            (Ctr::CacheEvictions, 1),
            (Ctr::CacheEvictedBytes, 96),
            (Ctr::PersistLoaded, 3),
            (Ctr::PersistRejected, 2),
        ];
        assert_eq!(got, want);
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
        m.fold(FlightKind::Hit, &[1, 2, 0, 0]);
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
