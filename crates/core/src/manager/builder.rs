//! `ManagerBuilder` — the one construction surface for
//! [`SpecializationManager`].
//!
//! Four knobs, each one a value some caller sets: the byte budget, the
//! negative-cache policy, adaptive tiering and the publish gate. The
//! per-thread snapshot slots and flight-journal capacity are constants,
//! there is no worker count because the manager spawns no threads, and
//! persistence is bytes in, bytes out — a caller that wants a file owns
//! the file.
//!
//! ```
//! use brew_core::manager::{NegativePolicy, PublishRejection, SpecializationManager, TieringConfig};
//! use brew_core::{RewriteResult, SpecRequest};
//! use brew_image::Image;
//!
//! let mgr = SpecializationManager::builder()
//!     .budget(64 * 1024)
//!     .negative_policy(NegativePolicy { base_backoff: 4, attempt_cap: 8 })
//!     .tiering(TieringConfig::default())
//!     .publish_gate(Box::new(
//!         |_: &Image, _: u64, _: &SpecRequest, _: &RewriteResult| -> Result<(), PublishRejection> {
//!             Ok(())
//!         },
//!     ))
//!     .build();
//! assert_eq!(mgr.budget_bytes(), 64 * 1024);
//! ```

use super::cache::VariantCache;
use super::negative::{NegativeCache, NegativePolicy};
use super::tiering::{Tiering, TieringConfig};
use super::{InflightTable, PublishGate, SpecializationManager};
use crate::telemetry::flight::DEFAULT_FLIGHT_CAPACITY;
use crate::telemetry::{FlightRecorder, MetricsRegistry, SymbolTable};
use brew_image::layout;
use std::sync::{Arc, Mutex};

/// Builder for [`SpecializationManager`]; see the module docs. Obtain one
/// via [`SpecializationManager::builder`], finish with
/// [`build`](ManagerBuilder::build).
pub struct ManagerBuilder {
    budget_bytes: usize,
    negative: NegativePolicy,
    tiering: Option<TieringConfig>,
    gate: Option<Box<dyn PublishGate>>,
}

impl Default for ManagerBuilder {
    fn default() -> Self {
        ManagerBuilder {
            budget_bytes: (layout::JIT_SIZE / 4) as usize,
            negative: NegativePolicy::default(),
            tiering: None,
            gate: None,
        }
    }
}

impl ManagerBuilder {
    /// A builder with every knob at its default (budget = a quarter of
    /// the JIT segment, no gate, no tiering).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the variant cache to `bytes` of resident code.
    pub fn budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = bytes;
        self
    }

    /// Tune the negative cache (backoff base, attempt cap).
    pub fn negative_policy(mut self, policy: NegativePolicy) -> Self {
        self.negative = policy;
        self
    }

    /// Enable adaptive tiering; `cfg` is both the heat mechanics and the
    /// policy (`TieringConfig::decide`: thresholds, hysteresis, cooldown).
    pub fn tiering(mut self, cfg: TieringConfig) -> Self {
        self.tiering = Some(cfg);
        self
    }

    /// Enable `verify_on_publish`: every finished rewrite must pass
    /// `gate` before it becomes visible.
    pub fn publish_gate(mut self, gate: Box<dyn PublishGate>) -> Self {
        self.gate = Some(gate);
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
        let tiering = self.tiering.map(|cfg| {
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
            Tiering {
                cfg,
                state: Default::default(),
            }
        });
        // Both caches keep their own gauges, and the variant cache journals
        // its publishes from inside its writer: each holds clones of what
        // it writes to instead of a reference to the manager.
        let metrics = Arc::new(MetricsRegistry::new());
        let flight = Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY));
        SpecializationManager {
            cache: VariantCache::new(Arc::clone(&metrics), Arc::clone(&flight)),
            negative: NegativeCache::new(self.negative, Arc::clone(&metrics)),
            inflight: InflightTable::default(),
            budget_bytes: self.budget_bytes,
            tiering,
            metrics,
            flight,
            symbols: Arc::new(SymbolTable::new()),
            last_panic: Mutex::new(None),
            stubs: Mutex::new(Default::default()),
            gate: self.gate,
            generation: Default::default(),
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
            .negative_policy(NegativePolicy {
                base_backoff: 1,
                attempt_cap: 3,
            })
            .tiering(TieringConfig::default())
            .publish_gate(Box::new(
                |_: &brew_image::Image,
                 _: u64,
                 _: &crate::SpecRequest,
                 _: &crate::RewriteResult| Ok(()),
            ))
            .build();
        assert_eq!(m.budget_bytes(), 4096);
        assert!(m.tiering.is_some());
        assert!(m.gate.is_some());
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
