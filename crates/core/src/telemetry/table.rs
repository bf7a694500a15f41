//! The telemetry tables: every metric the registry exports and every
//! decision the manager journals, each listed exactly once.
//!
//! Adding a metric is one row in [`Ctr`], [`Gge`] or [`Hst`]: identifier,
//! Prometheus name, help. Row order is exposition order. Adding a manager
//! decision is one row in the [`FlightKind`] table: wire discriminant, dump
//! label, names and formats of the payload words, and the counters the
//! decision bumps. The manager writes a decision with one
//! `note(kind, words)` call at the site that takes it; the rest is derived
//! from the rows: the enums with their `ALL`/`name`/`help`, the dump line
//! of a record and [`FlightKind::bumps`] (what
//! [`MetricsRegistry::fold`](super::MetricsRegistry::fold) applies) — so a
//! counter can no more disagree with the journal than a dump label with
//! its kind.

/// One row per metric: identifier, Prometheus name, help string.
macro_rules! metric_ids {
    ($(#[$doc:meta])* $ty:ident { $( $id:ident $name:literal $help:literal; )* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum $ty { $( $id, )* }

        impl $ty {
            /// Every identifier, in exposition order.
            pub const ALL: &'static [$ty] = &[ $( $ty::$id, )* ];

            /// Prometheus metric name.
            pub fn name(self) -> &'static str {
                match self { $( $ty::$id => $name, )* }
            }

            /// One-line help string for the exposition.
            pub fn help(self) -> &'static str {
                match self { $( $ty::$id => $help, )* }
            }
        }
    };
}

metric_ids! {
    /// Counter identifiers.
    Ctr {
        CacheHits "brew_cache_hits_total" "Specialization requests answered from the variant cache";
        CacheMisses "brew_cache_misses_total" "Requests that led a rewrite (single-flight leaders)";
        CacheCoalesced "brew_cache_coalesced_total"
            "Requests that subscribed to an in-flight rewrite";
        CacheEvictions "brew_cache_evictions_total" "Variants evicted under byte-budget pressure";
        CacheEvictedBytes "brew_cache_evicted_bytes_total" "Code bytes dropped by evictions";
        Rewrites "brew_rewrites_total" "Completed rewrites";
        RewriteFailures "brew_rewrite_failures_total" "Rewrites that returned an error";
        TracedInsts "brew_traced_insts_total" "Guest instructions visited while tracing";
        JitCodeBytes "brew_jit_code_bytes_total"
            "Code bytes emitted into the JIT segment by rewrites";
        DispatchersBuilt "brew_dispatchers_built_total" "Guarded dispatch stubs emitted";
        GuardHits "brew_guard_hits_total" "Dispatch-stub cases taken (from counting stubs)";
        GuardFallthrough "brew_guard_fallthrough_total"
            "Dispatch-stub fall-throughs to the original";
        NegativeHits "brew_negative_hits_total"
            "Requests denied from the negative cache without re-tracing";
        CacheStale "brew_cache_stale_total"
            "Variants found stale by revalidate (folded bytes changed)";
        CacheInvalidated "brew_cache_invalidated_total" "Variants dropped by invalidation";
        PanicsContained "brew_rewrite_panics_total" "Rewrite-pipeline panics converted into errors";
        VerifyPassed "brew_verify_passed_total"
            "Variants that passed the publish gate's static verification";
        VerifyRejected "brew_verify_rejected_total"
            "Variants rejected (and never published) by the publish gate";
        TierPromoted "brew_tier_promoted_total"
            "Hot fingerprints promoted (rewritten inline) by the tiering layer";
        TierDemoted "brew_tier_demoted_total"
            "Cold resident variants demoted (evicted) by the tiering layer";
        TierRespecialized "brew_tier_respecialized_total"
            "Stale variants rebuilt because their heat cleared the bar";
        EpochPublished "brew_read_epoch_published_total"
            "Shard snapshots published (rebuild + pointer swap)";
        EpochReclaimed "brew_read_epoch_reclaimed_total"
            "Retired shard snapshots freed by epoch advances";
        PersistSaved "brew_persist_saved_total" "Variants serialized to the persistence file";
        PersistLoaded "brew_persist_loaded_total"
            "Persisted variants re-verified and published on load";
        PersistRejected "brew_persist_rejected_total"
            "Persisted variants rejected on load (corrupt, stale, or gate-failed)";
        PersistSaveFailed "brew_persist_save_failed_total"
            "Variants that failed to serialize during a save (I/O or read error)";
        PersistSaveUnportable "brew_persist_save_unportable_total"
            "Variants left out of a save: they read a literal pool the format cannot carry";
        OverBudget "brew_over_budget_total"
            "Finished variants refused at publish: code alone exceeds the global budget";
        RegallocFallback "brew_regalloc_fallback_total"
            "Aggressive register allocations that failed their equivalence proof and \
             were re-emitted with the conservative allocator";
    }
}

metric_ids! {
    /// Gauge identifiers.
    Gge {
        InflightRewrites "brew_inflight_rewrites" "Rewrites currently being traced";
        ResidentBytes "brew_cache_resident_bytes"
            "Code bytes currently resident in the variant cache";
        ResidentVariants "brew_cache_resident_variants" "Variants currently resident in the cache";
        NegativeEntries "brew_negative_entries"
            "Keys currently memoized as failing in the negative cache";
        HeatTracked "brew_tier_heat_tracked"
            "Keys with live tiering heat scores as of the last tick";
        HeatMax "brew_tier_heat_max_milli" "Hottest tiering heat score (x1000) as of the last tick";
        HeatMean "brew_tier_heat_mean_milli" "Mean tiering heat score (x1000) as of the last tick";
        ReadEpoch "brew_read_epoch" "Sum of per-shard reclamation epochs of the variant cache";
        EpochLimbo "brew_read_epoch_limbo" "Retired shard snapshots awaiting epoch reclamation";
    }
}

metric_ids! {
    /// Histogram identifiers — the per-phase rewrite-time distributions.
    Hst {
        TraceNs "brew_rewrite_trace_ns" "Nanoseconds per rewrite spent decoding and tracing";
        PassNs "brew_rewrite_pass_ns" "Nanoseconds per rewrite spent in optimization passes";
        EmitNs "brew_rewrite_emit_ns"
            "Nanoseconds per rewrite spent on layout, encoding, relocation";
        TotalNs "brew_rewrite_total_ns" "Nanoseconds per rewrite across all instrumented phases";
        VerifyNs "brew_verify_ns" "Nanoseconds per variant spent in publish-gate verification";
    }
}

/// How one argument of a [`FlightKind`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgFmt {
    /// Hexadecimal (addresses, fingerprints).
    Hex,
    /// Plain decimal.
    Dec,
    /// A fixed-point milli value (`1234` renders `1.234`) — heat scores
    /// and thresholds survive the integer payload this way.
    Milli,
}

/// A counter bump amount: one, or the payload word a row names.
macro_rules! bump_by {
    () => {
        None
    };
    ($word:literal) => {
        Some($word)
    };
}

/// One row per manager decision: `Kind = discriminant, "LABEL", [payload
/// words], [counters bumped (`+= arg i`: by payload word `i`, else by
/// one)]`.
macro_rules! decisions {
    ($( $name:ident = $disc:literal, $label:literal,
        [ $( ($arg:literal, $fmt:ident) ),* ],
        [ $( $ctr:ident $(+= arg $word:literal)? ),* ] ;)*) => {
        /// Every decision the manager journals. Discriminants are stable
        /// (they appear in dumps and the wire word).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum FlightKind {
            $(
                #[allow(missing_docs)]
                $name = $disc,
            )*
        }

        impl FlightKind {
            /// Every kind, for iteration and decode.
            pub const ALL: &'static [FlightKind] = &[ $( FlightKind::$name, )* ];

            /// The dump-format label (`kind=<label>`).
            pub fn label(self) -> &'static str {
                match self { $( FlightKind::$name => $label, )* }
            }

            /// Names and formats of the meaningful payload words (up to 4).
            pub fn args(self) -> &'static [(&'static str, ArgFmt)] {
                match self { $( FlightKind::$name => &[ $( ($arg, ArgFmt::$fmt) ),* ], )* }
            }

            /// The counters this decision bumps: `(counter, None)` by one,
            /// `(counter, Some(i))` by payload word `i`.
            pub fn bumps(self) -> &'static [(Ctr, Option<usize>)] {
                match self {
                    $( FlightKind::$name => &[ $( (Ctr::$ctr, bump_by!($($word)?)) ),* ], )*
                }
            }

            /// Decode a stored discriminant.
            pub fn from_u8(v: u8) -> Option<FlightKind> {
                match v {
                    $( $disc => Some(FlightKind::$name), )*
                    _ => None,
                }
            }
        }
    };
}

// `Rewritten` also feeds `brew_traced_insts_total` and the phase histograms
// from its `RewriteStats`, which no payload word carries: see
// `MetricsRegistry::observe_rewrite`, as for `brew_rewrite_failures_total`
// (a failed rewrite is journaled by its cause, not by a record of its own).
// The `bar` word of `Promoted`/`Demoted` is the threshold the verdict was
// taken against, written by `SpecializationManager::tick`. `Published` is
// the journal line of one warm-loaded entry; the load's counters come off
// its `PersistLoad` record. Discriminant 4 (`DEFERRED`, the retired deferred
// mode) is never reused: old dumps still carry it.
decisions! {
    Hit = 1, "HIT", [("func", Hex), ("entry", Hex)], [CacheHits];
    Miss = 2, "MISS", [("func", Hex)], [CacheMisses];
    Coalesced = 3, "COALESCED", [("func", Hex)], [CacheCoalesced];
    Rewritten = 5, "REWRITTEN", [("func", Hex), ("entry", Hex), ("len", Dec), ("ns", Dec)],
        [Rewrites, JitCodeBytes += arg 2];
    Published = 6, "PUBLISHED", [("func", Hex), ("entry", Hex)], [];
    Evicted = 7, "EVICTED", [("func", Hex), ("entry", Hex), ("len", Dec)],
        [CacheEvictions, CacheEvictedBytes += arg 2];
    DispatcherBuilt = 8, "DISPATCHER", [("func", Hex), ("entry", Hex), ("variants", Dec)],
        [DispatchersBuilt];
    Denied = 9, "DENIED", [("func", Hex), ("attempts", Dec)], [NegativeHits];
    Stale = 10, "STALE", [("func", Hex), ("entry", Hex)], [CacheStale];
    Invalidated = 11, "INVALIDATED", [("func", Hex), ("entry", Hex)], [CacheInvalidated];
    Promoted = 12, "PROMOTED", [("func", Hex), ("fp", Hex), ("heat", Milli), ("bar", Milli)],
        [TierPromoted];
    Demoted = 13, "DEMOTED", [("func", Hex), ("fp", Hex), ("heat", Milli), ("bar", Milli)],
        [TierDemoted];
    Respecialized = 14, "RESPEC", [("func", Hex), ("fp", Hex), ("heat", Milli)],
        [TierRespecialized];
    TickBegin = 15, "TICK_BEGIN", [("tick", Dec)], [];
    TickEnd = 16, "TICK_END",
        [("tick", Dec), ("sampled", Dec), ("promoted", Dec), ("demoted", Dec)], [];
    EpochPublish = 17, "EPOCH_PUB", [("shard", Dec), ("epoch", Dec)], [EpochPublished];
    EpochReclaim = 18, "EPOCH_FREE", [("shard", Dec), ("freed", Dec)],
        [EpochReclaimed += arg 1];
    PersistSave = 19, "SAVE", [("variants", Dec), ("bytes", Dec), ("unportable", Dec)],
        [PersistSaved += arg 0, PersistSaveUnportable += arg 2];
    PersistLoad = 20, "LOAD", [("published", Dec), ("rejected", Dec)],
        [PersistLoaded += arg 0, PersistRejected += arg 1];
    PanicContained = 21, "PANIC", [], [PanicsContained];
    VerifyPass = 22, "VERIFY_OK", [("func", Hex), ("ns", Dec)], [VerifyPassed];
    VerifyReject = 23, "VERIFY_REJ", [("func", Hex), ("findings", Dec)], [VerifyRejected];
    SymbolPublish = 24, "SYM_PUB", [("entry", Hex), ("len", Dec), ("gen", Dec)], [];
    SymbolRetire = 25, "SYM_RET", [("entry", Hex)], [];
    PersistSaveFailed = 26, "SAVE_FAIL", [("func", Hex), ("entry", Hex)], [PersistSaveFailed];
    OverBudget = 27, "OVER_BUDGET", [("func", Hex), ("len", Dec), ("budget", Dec)], [OverBudget];
    RegallocFallback = 28, "REGALLOC_FB", [("func", Hex), ("findings", Dec)],
        [RegallocFallback];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bump_names_a_declared_decimal_word() {
        for &kind in FlightKind::ALL {
            for &(ctr, word) in kind.bumps() {
                if let Some(i) = word {
                    assert_eq!(kind.args()[i].1, ArgFmt::Dec, "{kind:?} bumps {ctr:?}");
                }
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = Ctr::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gge::ALL.iter().map(|g| g.name()));
        names.extend(Hst::ALL.iter().map(|h| h.name()));
        assert_eq!(names.len(), 44);
        assert!(names.iter().all(|n| n.starts_with("brew_")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 44);
    }
}
