//! Dispatch stubs over the variant cache (§III.D, generalized to N
//! variants and multi-parameter conjunctions): a plain or self-counting
//! guard chain over a function's resident variants, hottest first, and the
//! profiler that attributes a counting stub's calls by the case order it
//! was built with.

use super::{unpoison, CacheKey, SpecializationManager, Variant};
use crate::error::RewriteError;
use crate::guard::{self, CounterPage, GuardCase};
use crate::telemetry::flight::FlightKind;
use brew_image::Image;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl SpecializationManager {
    /// Cached variants of `func`, hottest (most hits, then most recent)
    /// first — the order the dispatcher tests them in.
    pub fn variants_of(&self, func: u64) -> Vec<Arc<Variant>> {
        self.hottest_first(func).map(|(_, v)| v).collect()
    }

    /// `(fingerprint, variant)` of every cached variant of `func`, hottest
    /// first.
    fn hottest_first(&self, func: u64) -> impl Iterator<Item = (u64, Arc<Variant>)> {
        let mut entries = Vec::new();
        self.cache.each(|e| {
            if e.variant.func == func {
                let (h, u) = (
                    e.hits.load(Ordering::Relaxed),
                    e.last_used.load(Ordering::Relaxed),
                );
                entries.push((h, u, e.key.fingerprint, Arc::clone(&e.variant)));
            }
        });
        entries.sort_by(|(ah, al, af, _), (bh, bl, bf, _)| (bh, bl, af).cmp(&(ah, al, bf)));
        entries
            .into_iter()
            .map(|(_, _, fingerprint, v)| (fingerprint, v))
    }

    /// Emit a guarded dispatch stub over every cached *guardable* variant
    /// of `func`. The stub tail-jumps to the first variant whose
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
