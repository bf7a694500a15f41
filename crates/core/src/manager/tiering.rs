//! Adaptive tiering: the counter → specialization loop of
//! "Profile-Guided, Multi-Version Binary Rewriting".
//!
//! This module keeps the tiering *state*: a decayed heat score per
//! `(function, request fingerprint)`, the request to replay for each key,
//! and the registered dispatch-stub [`CounterPage`]s. The *policy* is the
//! decision core's (`decide`): a tick is sample → decide → effects.
//!
//! - **Sample** (`TierState::sample`) drains every counter page since the
//!   last tick into pending heat and credits it back into the cache's LRU
//!   accounting, so stub-only traffic counts as recency for eviction too.
//! - **Decide** (`decide::fold`) folds, per key,
//!   `heat ← heat · decay + input`, where the input is the stub delta, the
//!   cache hit delta and the misses [`SpecializationManager::request`]
//!   observed; with a constant per-tick rate `r` the score converges to
//!   `r / (1 - decay)`, so thresholds read as "sustained calls per tick",
//!   and between samples heat only decays. Two thresholds form a
//!   hysteresis band (`demote_heat < promote_heat`) and a per-key
//!   cooldown of [`TieringConfig::cooldown_ticks`] separates actions, so
//!   nothing flaps.
//! - **Effects** ([`SpecializationManager::tick`]): a hot absent key is
//!   *promoted* — rewritten on the tick's thread, unless the negative
//!   cache denies it (probed without spending the window); a cold resident
//!   variant is *demoted* — unpublished ahead of LRU pressure, its request
//!   kept for a later promotion. After a revalidation, only stale variants
//!   whose heat clears the demote bar are *re-specialized*.
//!
//! Every promotion and demotion is a writer of the variant cache's
//! published snapshot (DESIGN.md §11): dispatch-site readers never wait on
//! it, and a demoted variant's code stays callable for a reader that still
//! holds it — the C5 rows measure flat p99 latency under writer churn.
//!
//! [`SpecializationManager::tick`]: super::SpecializationManager::tick
//! [`SpecializationManager::request`]: super::SpecializationManager::request
//! [`CounterPage`]: crate::guard::CounterPage

use super::{unpoison, CacheKey};
use crate::guard::CounterPage;
use crate::request::SpecRequest;
use brew_image::Image;
use std::collections::HashMap;
use std::sync::Mutex;

/// Tuning knobs for the tiering layer and its policy: decayed thresholds
/// with a hysteresis band and a cooldown.
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
    /// Heat per model cycle a [`DispatchProfiler`](crate::telemetry::DispatchProfiler)
    /// attributes to a key. At the default `0.0` time is exported but does
    /// not steer tiering; a small weight (e.g. `1e-4`) promotes *expensive*
    /// callers faster than merely *frequent* ones.
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

/// What one [`SpecializationManager::tick`] did — returned to the caller
/// so drivers (and the C4 experiment) can watch convergence.
///
/// [`SpecializationManager::tick`]: super::SpecializationManager::tick
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickSummary {
    /// The tick's sequence number (1-based; 0 means tiering is disabled).
    pub tick: u64,
    /// Heat inputs consumed: counter-page, cache-hit and miss deltas.
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
    /// Miss observations and counter-page deltas since the last tick.
    pub pending: u64,
    /// The cache entry's hit counter as of the last tick.
    pub last_hits: u64,
    /// Hits credited into the cache from counter pages this tick, so the
    /// credit is not observed again as a hit delta.
    pub credited: u64,
    /// Cycle-bank deltas since the last tick (times `cycle_weight`).
    pub pending_cycles: u64,
    /// Tick of the last promote/demote, for the cooldown.
    pub last_action_tick: u64,
    /// The request to replay on promotion; `None` for a key seen only
    /// through a counter page, which cannot be promoted yet.
    pub req: Option<SpecRequest>,
}

impl HeatEntry {
    /// Keep `req` to replay (the key's variant was demoted, evicted or
    /// invalidated) and reset the hit baseline: the cache entry is gone.
    pub fn retain(&mut self, req: SpecRequest) {
        self.req = Some(req);
        self.last_hits = 0;
        self.credited = 0;
    }
}

/// One registered self-counting dispatch stub: the page, the cache key
/// behind each case slot, and the last-sampled slot and cycle-bank values.
pub(super) struct CounterSource {
    page: CounterPage,
    keys: Vec<CacheKey>,
    last: Vec<u64>,
    last_cycles: Vec<u64>,
}

/// Mutable tiering state under one mutex, never held across a rewrite.
#[derive(Default)]
pub(super) struct TierState {
    pub tick: u64,
    pub heat: HashMap<CacheKey, HeatEntry>,
    pub sources: HashMap<u64, CounterSource>,
}

impl CounterSource {
    /// Drain the page's call and cycle deltas since the last sample into
    /// `heat`'s pending inputs, crediting each call delta back into the
    /// cache's LRU accounting through `credit` (stub traffic never touches
    /// `lookup`, so without it byte-pressure eviction would see hot stub
    /// targets as idle; `credit` says whether the key was resident). The
    /// cycle bank is drained even at `cycle_weight` 0, so its baseline
    /// stays fresh. Returns the fall-through cycles: they have no
    /// fingerprint to heat — fall-through callers reach `request`, which
    /// records the miss with the request attached.
    fn drain(
        &mut self,
        img: &Image,
        heat: &mut HashMap<CacheKey, HeatEntry>,
        credit: impl Fn(&CacheKey, u64) -> bool,
    ) -> u64 {
        let Ok((snap, deltas)) = self.page.delta_since(img, &self.last) else {
            return 0;
        };
        self.last = snap;
        let cycle_deltas = match self.page.cycle_delta_since(img, &self.last_cycles) {
            Ok((snap, deltas)) => {
                self.last_cycles = snap;
                deltas
            }
            Err(_) => Vec::new(),
        };
        for (i, key) in self.keys.iter().enumerate() {
            let (d, cd) = (deltas[i], cycle_deltas.get(i).copied().unwrap_or(0));
            if d == 0 && cd == 0 {
                continue;
            }
            let e = heat.entry(*key).or_default();
            e.pending_cycles += cd;
            e.pending += d;
            if d > 0 && credit(key, d) {
                e.credited += d;
            }
        }
        cycle_deltas.iter().skip(self.keys.len()).sum()
    }
}

impl TierState {
    /// Drain every registered counter page (see [`CounterSource::drain`]);
    /// returns the fall-through cycles drained with them.
    pub fn sample(&mut self, img: &Image, credit: impl Fn(&CacheKey, u64) -> bool) -> u64 {
        let heat = &mut self.heat;
        self.sources
            .values_mut()
            .map(|src| src.drain(img, heat, &credit))
            .sum()
    }
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
        unpoison(self.state.lock())
            .heat
            .entry(key)
            .or_default()
            .retain(req);
    }

    /// Register (or replace) the counter page behind `func`'s dispatch
    /// stub. Residual deltas of a replaced page are folded into pending
    /// heat first, so calls between the last tick and a dispatcher rebuild
    /// are not lost.
    pub fn register_source(&self, img: &Image, func: u64, page: CounterPage, keys: Vec<CacheKey>) {
        let mut st = unpoison(self.state.lock());
        if let Some(mut old) = st.sources.remove(&func) {
            let st = &mut *st;
            old.drain(img, &mut st.heat, |_, _| false);
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
    fn observe_miss_accumulates_and_keeps_first_request() {
        let t = Tiering {
            cfg: TieringConfig::default(),
            state: Default::default(),
        };
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
