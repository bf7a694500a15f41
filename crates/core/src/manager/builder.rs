//! `ManagerBuilder` — the one construction surface for
//! [`SpecializationManager`].
//!
//! Five PRs accreted five independent knobs onto the manager: a byte
//! budget, a shard count, a negative-cache policy, an event sink and a
//! publish gate — each with its own constructor variant or post-hoc
//! setter, in three different styles (`with_*` consuming, `set_*` interior
//! mutability). The builder replaces all of them with one fluent chain and
//! typed config structs, and is the only way to enable the adaptive
//! tiering layer:
//!
//! ```
//! use brew_core::manager::{DeferredConfig, SpecializationManager, TieringConfig};
//!
//! let mgr = SpecializationManager::builder()
//!     .budget(64 * 1024)
//!     .shards(8)
//!     .tiering(TieringConfig::default())
//!     .deferred(DeferredConfig { workers: 2 })
//!     .build();
//! assert_eq!(mgr.budget_bytes(), 64 * 1024);
//! ```

use super::negative::{NegativeCache, NegativePolicy};
use super::shards::{ShardedCache, DEFAULT_SHARDS};
use super::tiering::{DecayedThreshold, Tiering, TieringConfig, TieringPolicy};
use super::worker::JobQueue;
use super::{EventSink, InflightTable, PublishGate, SpecializationManager};
use crate::telemetry::flight::DEFAULT_FLIGHT_CAPACITY;
use crate::telemetry::{FlightRecorder, MetricsRegistry, SymbolTable};
use brew_image::layout;
use std::sync::{Arc, Mutex, RwLock};

/// Deferred-mode configuration: how many scoped worker threads a
/// [`SpecializationManager::deferred_scope`] attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeferredConfig {
    /// Background rewrite workers per deferred scope (minimum 1).
    pub workers: usize,
}

impl Default for DeferredConfig {
    fn default() -> Self {
        DeferredConfig { workers: 2 }
    }
}

/// Builder for [`SpecializationManager`]; see the module docs. Obtain one
/// via [`SpecializationManager::builder`], finish with
/// [`build`](ManagerBuilder::build).
pub struct ManagerBuilder {
    budget_bytes: usize,
    shards: usize,
    negative: NegativePolicy,
    deferred: DeferredConfig,
    tiering: Option<(TieringConfig, Option<Box<dyn TieringPolicy>>)>,
    sink: Option<Box<dyn EventSink>>,
    gate: Option<Box<dyn PublishGate>>,
    persist_path: Option<std::path::PathBuf>,
    flight_capacity: usize,
}

impl Default for ManagerBuilder {
    fn default() -> Self {
        ManagerBuilder {
            budget_bytes: (layout::JIT_SIZE / 4) as usize,
            shards: DEFAULT_SHARDS,
            negative: NegativePolicy::default(),
            deferred: DeferredConfig::default(),
            tiering: None,
            sink: None,
            gate: None,
            persist_path: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

impl ManagerBuilder {
    /// A builder with every knob at its default (budget = a quarter of
    /// the JIT segment, default shards, no sink, no gate, no tiering).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the variant cache to `bytes` of resident code.
    pub fn budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = bytes;
        self
    }

    /// Number of cache shards (rounded up to a power of two). The
    /// negative cache uses the same count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Tune the negative cache (backoff base, attempt cap).
    pub fn negative_policy(mut self, policy: NegativePolicy) -> Self {
        self.negative = policy;
        self
    }

    /// Configure deferred mode (worker count for
    /// [`SpecializationManager::deferred_scope`]).
    pub fn deferred(mut self, cfg: DeferredConfig) -> Self {
        self.deferred = cfg;
        self
    }

    /// Enable adaptive tiering with the default [`DecayedThreshold`]
    /// policy reading its thresholds from `cfg`.
    pub fn tiering(mut self, cfg: TieringConfig) -> Self {
        self.tiering = Some((cfg, None));
        self
    }

    /// Enable adaptive tiering with a custom policy. `cfg` still supplies
    /// the decay factor applied at every tick.
    pub fn tiering_policy(mut self, cfg: TieringConfig, policy: Box<dyn TieringPolicy>) -> Self {
        self.tiering = Some((cfg, Some(policy)));
        self
    }

    /// Attach an event sink from the start — no events can be missed
    /// between construction and a post-hoc setter call.
    pub fn event_sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Enable `verify_on_publish`: every finished rewrite must pass
    /// `gate` before it becomes visible.
    pub fn publish_gate(mut self, gate: Box<dyn PublishGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Default variant-persistence file for
    /// [`SpecializationManager::warm_start`] /
    /// [`SpecializationManager::checkpoint`]. Setting a path does not by
    /// itself read or write anything — persistence stays explicit.
    pub fn persist_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.persist_path = Some(path.into());
        self
    }

    /// Capacity (in events, rounded up to a power of two) of the flight
    /// recorder's ring journal. The default keeps the last
    /// [`DEFAULT_FLIGHT_CAPACITY`] manager events.
    pub fn flight_capacity(mut self, events: usize) -> Self {
        self.flight_capacity = events;
        self
    }

    /// Construct the manager.
    ///
    /// # Panics
    ///
    /// When a tiering config is invalid: `demote_heat >= promote_heat`
    /// (no hysteresis band) or `decay` outside `(0, 1)` — both would make
    /// the layer flap or never forget, so they are construction errors,
    /// not runtime surprises.
    pub fn build(self) -> SpecializationManager {
        let tiering = self.tiering.map(|(cfg, policy)| {
            assert!(
                cfg.demote_heat < cfg.promote_heat,
                "tiering config: demote_heat ({}) must be below promote_heat ({})",
                cfg.demote_heat,
                cfg.promote_heat
            );
            assert!(
                cfg.decay > 0.0 && cfg.decay < 1.0,
                "tiering config: decay ({}) must be in (0, 1)",
                cfg.decay
            );
            let policy = policy.unwrap_or_else(|| Box::new(DecayedThreshold::new(cfg)));
            Tiering::new(cfg, policy)
        });
        // The cache holds a clone of the registry so the epoch machinery
        // can count snapshot publications/reclamations without a back
        // reference to the manager.
        let metrics = Arc::new(MetricsRegistry::new());
        // The cache also holds a clone of the flight recorder so the
        // epoch machinery can journal snapshot publish/reclaim from
        // inside the shard writers.
        let flight = Arc::new(FlightRecorder::new(self.flight_capacity));
        SpecializationManager {
            cache: ShardedCache::new(self.shards, Arc::clone(&metrics), Arc::clone(&flight)),
            negative: NegativeCache::new(self.shards, self.negative),
            inflight: InflightTable::default(),
            queue: JobQueue::new(),
            budget_bytes: self.budget_bytes,
            deferred_cfg: self.deferred,
            tiering,
            metrics,
            flight,
            symbols: Arc::new(SymbolTable::new()),
            last_panic: Mutex::new(None),
            sink: RwLock::new(self.sink),
            gate: RwLock::new(self.gate),
            persist_path: self.persist_path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_plain_new() {
        let a = SpecializationManager::new();
        let b = ManagerBuilder::new().build();
        assert_eq!(a.budget_bytes(), b.budget_bytes());
        assert_eq!(a.len(), 0);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn knobs_apply() {
        let m = SpecializationManager::builder()
            .budget(4096)
            .shards(2)
            .negative_policy(NegativePolicy {
                base_backoff: 1,
                attempt_cap: 3,
            })
            .deferred(DeferredConfig { workers: 4 })
            .tiering(TieringConfig::default())
            .build();
        assert_eq!(m.budget_bytes(), 4096);
        assert!(m.tiering.is_some());
        assert_eq!(m.deferred_cfg.workers, 4);
    }

    #[test]
    #[should_panic(expected = "demote_heat")]
    fn inverted_band_is_rejected() {
        let _ = SpecializationManager::builder()
            .tiering(TieringConfig {
                promote_heat: 1.0,
                demote_heat: 2.0,
                decay: 0.5,
                cooldown_ticks: 0,
                cycle_weight: 0.0,
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn decay_outside_unit_interval_is_rejected() {
        let _ = SpecializationManager::builder()
            .tiering(TieringConfig {
                promote_heat: 8.0,
                demote_heat: 1.0,
                decay: 1.5,
                cooldown_ticks: 0,
                cycle_weight: 0.0,
            })
            .build();
    }
}
