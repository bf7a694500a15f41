//! Adaptive tiering: the policy layer that closes the counter →
//! specialization loop.
//!
//! PR 3 gave dispatch stubs self-counting slots
//! ([`crate::guard::CounterPage`]); until now nothing read them back — the
//! profile-to-decision loop of "Profile-Guided, Multi-Version Binary
//! Rewriting" stayed open. This module maintains a *decayed heat score*
//! per `(function, request fingerprint)` and turns it into three actions,
//! all driven through machinery earlier PRs built:
//!
//! - **Promote** — a fingerprint seen hot at dispatch but not resident is
//!   rewritten on the tick's thread, so a later call dispatches into a
//!   specialized variant without any operator input.
//! - **Demote** — a resident variant whose heat decays below the demote
//!   threshold is removed from the cache ahead of LRU byte pressure,
//!   reclaiming its budget share for fingerprints that still earn it.
//! - **Re-specialize** — after invalidation, only variants whose heat
//!   clears the policy's bar are rebuilt, inside the invalidation call;
//!   cold stale variants just die instead of paying a rewrite nobody will
//!   call.
//!
//! ## Heat bookkeeping
//!
//! Heat for key `k` evolves per [`SpecializationManager::tick`]:
//!
//! ```text
//! heat(k) ← heat(k) * decay + input(k)
//! ```
//!
//! where `input(k)` sums, since the previous tick:
//!
//! 1. the key's dispatch-stub counter delta (its [`CounterPage`] slot),
//! 2. its variant-cache hit delta (requests answered from the cache), and
//! 3. miss observations recorded by
//!    [`SpecializationManager::request`] for non-resident keys.
//!
//! With a constant per-tick rate `r` the score converges to
//! `r / (1 - decay)` — twice the rate at the default `decay = 0.5` — so
//! thresholds read naturally as "sustained calls per tick". Between
//! samples heat only decays (the proptest in `tests/tiering.rs` pins
//! this), so one burst cannot hold a variant resident forever.
//!
//! Counter-page deltas are additionally *credited back* into the cache's
//! LRU accounting ([`SpecializationManager`]'s sharded store): traffic
//! that only ever flows through a stub still counts as recency/hits, so
//! byte-pressure eviction and tiering agree about what is hot.
//!
//! The decision itself is one function of the config,
//! `TieringConfig::decide`: two thresholds forming a hysteresis band
//! (`demote_heat < promote_heat`, so a key oscillating inside the band
//! does nothing) plus a per-key cooldown of
//! [`TieringConfig::cooldown_ticks`] between actions, which prevents
//! promote/demote flapping even under an adversarial call stream.
//!
//! ## Interaction with the serving read path
//!
//! Every tiering action is an *index writer* in the epoch/RCU scheme of
//! the sharded store (DESIGN.md §11): promotion publishes, demotion
//! unpublishes, and both serialize on the shard's writer mutex, rebuild
//! the immutable index snapshot and swap it in. Dispatch-site readers
//! never see any of it as a wait — a lookup pins the current epoch,
//! probes the snapshot it loaded, and unpins; a demotion concurrent with
//! a reader retires the old snapshot to the epoch limbo list, where the
//! two-epoch grace period keeps it (and the bump-allocated code it
//! points at) alive until every pinned reader is gone. Tick-time heat
//! sampling therefore costs resident callers nothing but their ordinary
//! lock-free hit, no matter how aggressively the policy churns the
//! resident set — the C5 serving rows (EXPERIMENTS.md) measure exactly
//! this: flat p99 dispatch latency under concurrent writer churn.
//!
//! [`SpecializationManager`]: super::SpecializationManager
//! [`SpecializationManager::tick`]: super::SpecializationManager::tick
//! [`SpecializationManager::request`]: super::SpecializationManager::request
//! [`CounterPage`]: crate::guard::CounterPage

use super::{unpoison, CacheKey};
use crate::guard::CounterPage;
use crate::request::SpecRequest;
use brew_image::Image;
use std::collections::HashMap;
use std::sync::Mutex;

/// Tuning knobs for the tiering layer and, through `decide`, its policy:
/// decayed thresholds with a hysteresis band and a cooldown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieringConfig {
    /// Heat at or above which a non-resident fingerprint is promoted
    /// (rewritten by the tick).
    pub promote_heat: f64,
    /// Heat at or below which a resident variant is demoted (evicted).
    /// Must sit below `promote_heat`; the gap is the hysteresis band.
    pub demote_heat: f64,
    /// Multiplier applied to every heat score at each tick, in `(0, 1)`.
    pub decay: f64,
    /// Ticks a key must wait after a promote/demote before the policy may
    /// act on it again — the anti-flap guard.
    pub cooldown_ticks: u64,
    /// Heat contributed per measured model cycle attributed to a key by
    /// the counter page's cycle bank (see
    /// [`DispatchProfiler`](crate::telemetry::DispatchProfiler)). At the
    /// default `0.0` time attribution is journaled and exported but does
    /// not steer tiering; a small positive weight (e.g. `1e-4`) makes
    /// *expensive* callers promote faster than merely *frequent* ones.
    pub cycle_weight: f64,
}

impl Default for TieringConfig {
    fn default() -> Self {
        TieringConfig {
            promote_heat: 8.0,
            demote_heat: 1.0,
            decay: 0.5,
            cooldown_ticks: 2,
            cycle_weight: 0.0,
        }
    }
}

/// What the policy wants done with one key at one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TierAction {
    /// Leave the key as it is.
    Stay,
    /// Rewrite the (non-resident) key.
    Promote,
    /// Remove the (resident) key's variant from the cache.
    Demote,
}

impl TieringConfig {
    /// The policy for one key at one tick, given its current (already
    /// decayed and fed) heat, whether a variant is resident, and how many
    /// ticks have passed since the layer last acted on it:
    ///
    /// - below `demote_heat` and resident → demote
    /// - at or above `promote_heat` and not resident → promote
    /// - inside the band, or within `cooldown_ticks` of the last action →
    ///   stay
    pub(super) fn decide(&self, heat: f64, resident: bool, ticks_since_action: u64) -> TierAction {
        if ticks_since_action < self.cooldown_ticks {
            return TierAction::Stay;
        }
        if !resident && heat >= self.promote_heat {
            TierAction::Promote
        } else if resident && heat <= self.demote_heat {
            TierAction::Demote
        } else {
            TierAction::Stay
        }
    }

    /// After invalidation found a variant stale: is its heat worth a
    /// re-specialization? Strictly above the demote threshold — the same
    /// bar residency has to clear — or the variant dies cold.
    pub(super) fn respecialize(&self, heat: f64) -> bool {
        heat > self.demote_heat
    }
}

/// What one [`SpecializationManager::tick`] did — returned to the caller
/// so drivers (and the C4 experiment) can watch convergence.
///
/// [`SpecializationManager::tick`]: super::SpecializationManager::tick
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickSummary {
    /// The tick's sequence number (1-based; 0 means tiering is disabled).
    pub tick: u64,
    /// Heat inputs consumed this tick: counter-page deltas + cache-hit
    /// deltas + miss observations.
    pub sampled: u64,
    /// Keys with live heat entries after the tick.
    pub tracked: usize,
    /// Promotions issued (and rewrites run) this tick.
    pub promoted: usize,
    /// Resident variants demoted (removed from the cache) this tick.
    pub demoted: usize,
    /// Model cycles drained from counter-page cycle banks this tick
    /// (summed across every registered source, before `cycle_weight`).
    pub cycles_sampled: u64,
}

/// Per-key tiering state.
#[derive(Default)]
pub(super) struct HeatEntry {
    /// The decayed score.
    pub heat: f64,
    /// Inputs accumulated since the last tick (miss observations and
    /// counter-page deltas folded in between ticks).
    pub pending: u64,
    /// The cache entry's hit counter as of the last tick — deltas against
    /// it feed heat without re-counting history.
    pub last_hits: u64,
    /// Hits credited into the cache from counter pages this tick; folded
    /// into `last_hits` so the credit is not re-observed as a hit delta.
    pub credited: u64,
    /// Model cycles attributed since the last tick (cycle-bank deltas);
    /// folded into heat scaled by [`TieringConfig::cycle_weight`].
    pub pending_cycles: u64,
    /// Tick of the last promote/demote for cooldown accounting.
    pub last_action_tick: u64,
    /// The request to replay on promotion. Captured from miss
    /// observations, demotions and evictions; `None` means the key was
    /// only ever seen through a counter page and cannot be promoted yet.
    pub req: Option<SpecRequest>,
}

/// One registered self-counting dispatch stub: the page, the cache key
/// behind each case slot, and the last-sampled slot values.
pub(super) struct CounterSource {
    pub page: CounterPage,
    pub keys: Vec<CacheKey>,
    pub last: Vec<u64>,
    /// Last-sampled cycle-bank values (same layout as `last`).
    pub last_cycles: Vec<u64>,
}

/// Mutable tiering state, all under one mutex — critical sections are a
/// single pass over small maps and never block on I/O or rewriting.
#[derive(Default)]
pub(super) struct TierState {
    pub tick: u64,
    pub heat: HashMap<CacheKey, HeatEntry>,
    pub sources: HashMap<u64, CounterSource>,
}

/// The tiering layer owned by a [`SpecializationManager`] built with
/// [`ManagerBuilder::tiering`].
///
/// [`SpecializationManager`]: super::SpecializationManager
/// [`ManagerBuilder::tiering`]: super::ManagerBuilder::tiering
pub(super) struct Tiering {
    pub cfg: TieringConfig,
    pub state: Mutex<TierState>,
}

impl Tiering {
    pub fn new(cfg: TieringConfig) -> Self {
        Tiering {
            cfg,
            state: Mutex::new(TierState::default()),
        }
    }

    /// Record a request miss for `key`: one unit of pending heat plus the
    /// request itself, so a later promotion can replay it.
    pub fn observe_miss(&self, key: CacheKey, req: &SpecRequest) {
        let mut st = unpoison(self.state.lock());
        let e = st.heat.entry(key).or_default();
        e.pending += 1;
        if e.req.is_none() {
            e.req = Some(req.clone());
        }
    }

    /// Remember `req` for `key` (demotion/eviction path) so the key stays
    /// promotable, and reset its hit baseline — the cache entry is gone.
    pub fn retain_request(&self, key: CacheKey, req: SpecRequest) {
        let mut st = unpoison(self.state.lock());
        let e = st.heat.entry(key).or_default();
        e.req = Some(req);
        e.last_hits = 0;
        e.credited = 0;
    }

    /// Register (or replace) the counter page behind `func`'s dispatch
    /// stub. Residual deltas of a replaced page are folded into pending
    /// heat first, so calls between the last tick and a dispatcher rebuild
    /// are not lost.
    pub fn register_source(&self, img: &Image, func: u64, page: CounterPage, keys: Vec<CacheKey>) {
        let mut st = unpoison(self.state.lock());
        if let Some(old) = st.sources.remove(&func) {
            if let Ok((_, deltas)) = old.page.delta_since(img, &old.last) {
                for (i, key) in old.keys.iter().enumerate() {
                    if deltas[i] > 0 {
                        st.heat.entry(*key).or_default().pending += deltas[i];
                    }
                }
            }
            // Residual cycle deltas of the replaced page fold in too, so
            // time attributed between the last tick and a dispatcher
            // rebuild is not lost.
            if let Ok((_, cyc)) = old.page.cycle_delta_since(img, &old.last_cycles) {
                for (i, key) in old.keys.iter().enumerate() {
                    if cyc[i] > 0 {
                        st.heat.entry(*key).or_default().pending_cycles += cyc[i];
                    }
                }
            }
        }
        let last = vec![0; keys.len() + 1];
        let last_cycles = last.clone();
        st.sources.insert(
            func,
            CounterSource {
                page,
                keys,
                last,
                last_cycles,
            },
        );
    }

    /// Current heat of `key` (0.0 when untracked).
    pub fn heat_of(&self, key: &CacheKey) -> f64 {
        unpoison(self.state.lock())
            .heat
            .get(key)
            .map(|e| e.heat)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decayed_threshold_hysteresis_band() {
        let p = TieringConfig {
            promote_heat: 8.0,
            demote_heat: 2.0,
            decay: 0.5,
            cooldown_ticks: 0,
            cycle_weight: 0.0,
        };
        // Below the band, resident → demote; non-resident → stay.
        assert_eq!(p.decide(1.0, true, 10), TierAction::Demote);
        assert_eq!(p.decide(1.0, false, 10), TierAction::Stay);
        // Inside the band nothing moves in either direction.
        assert_eq!(p.decide(5.0, true, 10), TierAction::Stay);
        assert_eq!(p.decide(5.0, false, 10), TierAction::Stay);
        // Above the band, non-resident → promote; resident → stay.
        assert_eq!(p.decide(9.0, false, 10), TierAction::Promote);
        assert_eq!(p.decide(9.0, true, 10), TierAction::Stay);
    }

    #[test]
    fn cooldown_blocks_actions() {
        let p = TieringConfig {
            promote_heat: 8.0,
            demote_heat: 2.0,
            decay: 0.5,
            cooldown_ticks: 3,
            cycle_weight: 0.0,
        };
        assert_eq!(p.decide(9.0, false, 2), TierAction::Stay);
        assert_eq!(p.decide(9.0, false, 3), TierAction::Promote);
        assert_eq!(p.decide(0.0, true, 2), TierAction::Stay);
        assert_eq!(p.decide(0.0, true, 3), TierAction::Demote);
    }

    #[test]
    fn respecialize_uses_demote_bar() {
        let p = TieringConfig::default();
        assert!(!p.respecialize(0.0));
        assert!(!p.respecialize(1.0)); // exactly at demote_heat: dies
        assert!(p.respecialize(1.5));
    }

    #[test]
    fn observe_miss_accumulates_and_keeps_first_request() {
        let t = Tiering::new(TieringConfig::default());
        let key = CacheKey {
            func: 0x40_0000,
            fingerprint: 7,
        };
        t.observe_miss(key, &SpecRequest::new());
        t.observe_miss(key, &SpecRequest::new());
        let st = unpoison(t.state.lock());
        let e = &st.heat[&key];
        assert_eq!(e.pending, 2);
        assert!(e.req.is_some());
        assert_eq!(e.heat, 0.0, "heat only moves at ticks");
    }
}
