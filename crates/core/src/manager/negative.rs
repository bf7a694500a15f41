//! Negative caching of failed specialization attempts.
//!
//! A rewrite is deterministic in the request and the image, so a request
//! that failed (undecodable instruction, trace budget blown, division
//! fault on known operands) fails again; without memoization every repeat
//! pays the full trace to rediscover it. The cache remembers the failure
//! per [`CacheKey`] and answers repeats at the cost of one map lookup.
//! Failures need not be permanent (the data a trace faulted on may be
//! fixed), so an entry denies `base_backoff << (attempts - 1)` requests,
//! then lets one retry through (single flight coalesces concurrent
//! retriers); at `attempt_cap` failures it denies for good.
//!
//! The arithmetic is `decide::Negative::of`, applied here under the
//! cache's lock so a verdict and its spend are one step. Only callers
//! spend the window (`request`, `get_or_rewrite`); the policy's promotions
//! and rebuilds take the same verdict without spending it. The cache keeps
//! its own count, and the `brew_negative_entries` gauge with it.

use super::decide::{Negative, Origin};
use super::{unpoison, CacheKey};
use crate::error::RewriteError;
use crate::telemetry::metrics::Gge;
use crate::telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tuning knobs for the negative cache.
#[derive(Debug, Clone, Copy)]
pub struct NegativePolicy {
    /// Denials before the first retry; doubles per failed attempt.
    pub base_backoff: u64,
    /// Failed attempts after which the entry denies permanently.
    pub attempt_cap: u32,
}

impl Default for NegativePolicy {
    fn default() -> Self {
        NegativePolicy {
            base_backoff: 8,
            attempt_cap: 10,
        }
    }
}

/// One memoized failure.
#[derive(Debug)]
struct NegEntry {
    err: RewriteError,
    /// Failed rewrite attempts so far (>= 1 once an entry exists).
    attempts: u32,
    /// Denials since the last failed attempt.
    denials: u64,
}

/// The `(func, fingerprint) -> NegEntry` map, under one lock.
pub(super) struct NegativeCache {
    map: Mutex<HashMap<CacheKey, NegEntry>>,
    policy: NegativePolicy,
    /// Entries in `map`, readable without the lock.
    count: AtomicUsize,
    metrics: Arc<MetricsRegistry>,
}

impl NegativeCache {
    /// An empty negative cache under `policy`.
    pub fn new(policy: NegativePolicy, metrics: Arc<MetricsRegistry>) -> Self {
        NegativeCache {
            map: Mutex::default(),
            policy,
            count: AtomicUsize::new(0),
            metrics,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<CacheKey, NegEntry>> {
        unpoison(self.map.lock())
    }

    /// Move the entry count by `d` and the gauge with it.
    fn account(&self, d: isize) {
        let d = d as usize; // two's complement: adding wraps to a subtraction
        let n = self.count.fetch_add(d, Ordering::Relaxed).wrapping_add(d);
        self.metrics.gauge_set(Gge::NegativeEntries, n as i64);
    }

    /// The verdict on `key` for a call from `origin` and, when it denies
    /// a direct call, the memoized error that call returns. A denial of a
    /// caller (`origin.spends()`) counts against the backoff window;
    /// nothing else mutates the entry.
    pub fn consult(&self, key: &CacheKey, origin: Origin) -> (Negative, Option<RewriteError>) {
        let mut map = self.lock();
        let Some(e) = map.get_mut(key) else {
            return (Negative::None, None);
        };
        let verdict = Negative::of(e.attempts, e.denials, &self.policy);
        match verdict {
            Negative::None | Negative::Retry => return (verdict, None),
            Negative::Deny { .. } if origin.spends() => e.denials += 1,
            _ => {}
        }
        (verdict, (origin == Origin::Direct).then(|| e.err.clone()))
    }

    /// Memoize a failed attempt for `key` — bump the attempt count, reset
    /// the denial window, remember the newest error — if `current()`
    /// still holds under the lock (no invalidation since the attempt
    /// began).
    pub fn record_failure(
        &self,
        key: &CacheKey,
        err: &RewriteError,
        current: impl FnOnce() -> bool,
    ) {
        let mut map = self.lock();
        if !current() {
            return;
        }
        let fresh = !map.contains_key(key);
        let e = map.entry(*key).or_insert(NegEntry {
            err: err.clone(),
            attempts: 0,
            denials: 0,
        });
        e.err = err.clone();
        e.attempts = e.attempts.saturating_add(1);
        e.denials = 0;
        self.account(fresh as isize);
    }

    /// The memoized error for `key`, if any.
    pub fn failure_of(&self, key: &CacheKey) -> Option<RewriteError> {
        self.lock().get(key).map(|e| e.err.clone())
    }

    /// Drop the entry for `key` (a retry succeeded).
    pub fn forget(&self, key: &CacheKey) {
        let gone = self.lock().remove(key).is_some();
        self.account(-(gone as isize));
    }

    /// Drop every entry for `func` (the function was invalidated — its
    /// failure may have been data-dependent).
    pub fn forget_func(&self, func: u64) -> usize {
        let mut map = self.lock();
        let before = map.len();
        map.retain(|k, _| k.func != func);
        let gone = before - map.len();
        self.account(-(gone as isize));
        gone
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(func: u64, fp: u64) -> CacheKey {
        CacheKey {
            func,
            fingerprint: fp,
        }
    }

    fn cache(base_backoff: u64, attempt_cap: u32) -> NegativeCache {
        let policy = NegativePolicy {
            base_backoff,
            attempt_cap,
        };
        NegativeCache::new(policy, Arc::new(MetricsRegistry::new()))
    }

    fn fail(neg: &NegativeCache, k: &CacheKey, err: RewriteError) {
        neg.record_failure(k, &err, || true);
    }

    fn verdict(neg: &NegativeCache, k: &CacheKey) -> Negative {
        neg.consult(k, Origin::Request).0
    }

    #[test]
    fn miss_then_deny_then_retry() {
        let neg = cache(2, 10);
        let k = key(0x1000, 42);
        assert_eq!(verdict(&neg, &k), Negative::None);
        fail(&neg, &k, RewriteError::TraceBudget);
        // Two denials, then a retry slot opens.
        assert_eq!(verdict(&neg, &k), Negative::Deny { attempts: 1 });
        assert_eq!(verdict(&neg, &k), Negative::Deny { attempts: 1 });
        assert_eq!(verdict(&neg, &k), Negative::Retry);
        // Retry is not consumed until the attempt fails again.
        assert_eq!(verdict(&neg, &k), Negative::Retry);
        // Second failure doubles the window.
        fail(&neg, &k, RewriteError::TraceBudget);
        for _ in 0..4 {
            assert_eq!(verdict(&neg, &k), Negative::Deny { attempts: 2 });
        }
        assert_eq!(verdict(&neg, &k), Negative::Retry);
    }

    #[test]
    fn capped_attempts_deny_forever() {
        let neg = cache(1, 2);
        let k = key(0x2000, 7);
        fail(&neg, &k, RewriteError::TraceBudget);
        fail(&neg, &k, RewriteError::TraceBudget);
        for _ in 0..100 {
            assert_eq!(verdict(&neg, &k), Negative::Capped { attempts: 2 });
        }
    }

    /// The attempt count and the error travel with the denial, read under
    /// the lock that decided it — a second lookup could lose a race with
    /// `forget` and report `attempts = 0` for a denial that happened.
    #[test]
    fn a_denial_carries_the_attempts_it_was_decided_on() {
        let neg = cache(1, 10);
        let k = key(0x1000, 42);
        for n in 1..=3u32 {
            fail(&neg, &k, RewriteError::TraceBudget);
            let (v, err) = neg.consult(&k, Origin::Direct);
            assert_eq!(v, Negative::Deny { attempts: n });
            assert!(matches!(err, Some(RewriteError::TraceBudget)));
        }
        neg.forget(&k);
        assert_eq!(verdict(&neg, &k), Negative::None);
    }

    #[test]
    fn policy_origins_probe_without_spending_the_window() {
        let neg = cache(2, 10);
        let k = key(0x1000, 42);
        let probe = |o| neg.consult(&k, o).0;
        assert_eq!(probe(Origin::Promote), Negative::None);
        fail(&neg, &k, RewriteError::TraceBudget);
        // Probing any number of times never advances the denial count...
        for o in [Origin::Promote, Origin::Rebuild].repeat(25) {
            assert_eq!(probe(o), Negative::Deny { attempts: 1 });
        }
        // ...so real requests still get the full window: two denials,
        // then the retry slot opens and the probe agrees.
        assert_eq!(verdict(&neg, &k), Negative::Deny { attempts: 1 });
        assert_eq!(verdict(&neg, &k), Negative::Deny { attempts: 1 });
        assert_eq!(probe(Origin::Promote), Negative::Retry);
        assert_eq!(verdict(&neg, &k), Negative::Retry);
    }

    #[test]
    fn forget_and_forget_func() {
        let neg = cache(8, 10);
        let ka = key(0x1000, 1);
        let kb = key(0x1000, 2);
        let kc = key(0x3000, 3);
        for k in [&ka, &kb, &kc] {
            fail(&neg, k, RewriteError::TraceBudget);
        }
        assert_eq!(neg.len(), 3);
        assert_eq!(neg.metrics.gauge(Gge::NegativeEntries).get(), 3);
        neg.forget(&kc);
        assert_eq!(verdict(&neg, &kc), Negative::None);
        assert_eq!(neg.forget_func(0x1000), 2);
        assert_eq!(neg.len(), 0);
        assert_eq!(neg.metrics.gauge(Gge::NegativeEntries).get(), 0);
    }

    #[test]
    fn newest_error_wins() {
        let neg = cache(8, 10);
        let k = key(0x1000, 1);
        fail(&neg, &k, RewriteError::TraceBudget);
        fail(&neg, &k, RewriteError::BlockBudget);
        assert!(matches!(
            neg.failure_of(&k),
            Some(RewriteError::BlockBudget)
        ));
    }

    /// A failure whose attempt began before an invalidation is not
    /// memoized: the check runs under the lock `forget_func` sweeps.
    #[test]
    fn a_failure_from_before_an_invalidation_is_not_memoized() {
        let neg = cache(8, 10);
        let k = key(0x1000, 1);
        neg.record_failure(&k, &RewriteError::TraceBudget, || false);
        assert_eq!((verdict(&neg, &k), neg.len()), (Negative::None, 0));
    }
}
