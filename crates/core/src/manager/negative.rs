//! Negative caching of failed specialization attempts.
//!
//! A request that fails to specialize — undecodable instruction, trace
//! budget blown, division fault on known operands — fails again the next
//! time the *same* request arrives, because the rewrite is deterministic
//! in the request and the image. Without memoization every such request
//! pays the full trace cost just to rediscover the failure, which turns a
//! single pathological hot function into a standing tax on the whole
//! manager. The negative cache remembers the failure per
//! [`CacheKey`] and answers repeats with the memoized error at
//! shard-lookup cost.
//!
//! Failures are not always permanent (the user may fix the data the trace
//! faulted on, or raise a budget via a new config — though that changes
//! the fingerprint), so entries *decay*: after a failure the cache denies
//! the next `backoff(attempts)` requests, then lets exactly one through to
//! retry (single-flight coalesces concurrent retriers). Each repeated
//! failure doubles the backoff window until `attempt_cap`, after which the
//! entry denies forever — the failure is treated as structural.

use super::CacheKey;
use crate::error::RewriteError;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

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

/// What the cache says about an incoming request.
#[derive(Debug)]
pub enum Verdict {
    /// No memoized failure; proceed normally.
    Miss,
    /// Known-bad and inside the backoff window (or permanently capped):
    /// answer with the memoized error without tracing anything.
    Deny {
        /// The memoized failure.
        err: RewriteError,
        /// Failed attempts memoized for the key, read under the same lock
        /// as the verdict — what the `DENIED` record reports.
        attempts: u32,
    },
    /// Known-bad but the backoff window has elapsed: let this request
    /// re-attempt the rewrite.
    Retry,
}

/// Sharded `(func, fingerprint) -> NegEntry` map. Sharding mirrors the
/// positive cache so a hot failure path contends no worse than a hot hit
/// path.
pub struct NegativeCache {
    shards: Vec<Mutex<HashMap<CacheKey, NegEntry>>>,
    policy: NegativePolicy,
}

fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl NegativeCache {
    /// A negative cache with `shards` shards under `policy`.
    pub fn new(shards: usize, policy: NegativePolicy) -> Self {
        let shards = shards.max(1);
        NegativeCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            policy,
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, NegEntry>> {
        let mix = key.fingerprint ^ key.func.rotate_left(17);
        &self.shards[(mix as usize) % self.shards.len()]
    }

    /// Denials the entry serves before its next retry: `base << (attempts-1)`,
    /// saturating. Attempts at or beyond the cap never retry.
    fn backoff(&self, attempts: u32) -> u64 {
        self.policy
            .base_backoff
            .saturating_mul(1u64 << (attempts - 1).min(62))
    }

    /// Look up `key`. `Deny` counts itself against the backoff window;
    /// `Miss` and `Retry` do not mutate the entry, so consulting twice on
    /// one request path (e.g. `request` falling through to
    /// `get_or_rewrite`) is harmless.
    pub fn consult(&self, key: &CacheKey) -> Verdict {
        let mut map = unpoison(self.shard(key).lock());
        let Some(e) = map.get_mut(key) else {
            return Verdict::Miss;
        };
        if e.attempts < self.policy.attempt_cap {
            if e.denials >= self.backoff(e.attempts) {
                return Verdict::Retry;
            }
            e.denials += 1;
        }
        Verdict::Deny {
            err: e.err.clone(),
            attempts: e.attempts,
        }
    }

    /// Non-mutating probe: would [`consult`](Self::consult) deny `key`
    /// right now? Unlike `consult`, a `true` answer does *not* count
    /// against the backoff window — for policy layers (tiering promotion)
    /// that need to know whether a rewrite is futile without spending
    /// the denial budget real requests decay on.
    pub fn would_deny(&self, key: &CacheKey) -> bool {
        let map = unpoison(self.shard(key).lock());
        map.get(key).is_some_and(|e| {
            e.attempts >= self.policy.attempt_cap || e.denials < self.backoff(e.attempts)
        })
    }

    /// Memoize a failed attempt for `key`: bump the attempt count, reset
    /// the denial window, remember the newest error.
    pub fn record_failure(&self, key: &CacheKey, err: &RewriteError) {
        let mut map = unpoison(self.shard(key).lock());
        let e = map.entry(*key).or_insert(NegEntry {
            err: err.clone(),
            attempts: 0,
            denials: 0,
        });
        e.err = err.clone();
        e.attempts = e.attempts.saturating_add(1);
        e.denials = 0;
    }

    /// The memoized error for `key`, if any.
    pub fn failure_of(&self, key: &CacheKey) -> Option<RewriteError> {
        unpoison(self.shard(key).lock())
            .get(key)
            .map(|e| e.err.clone())
    }

    /// Drop the entry for `key` (a retry succeeded).
    pub fn forget(&self, key: &CacheKey) {
        unpoison(self.shard(key).lock()).remove(key);
    }

    /// Drop every entry for `func` (the function was invalidated — its
    /// failure may have been data-dependent).
    pub fn forget_func(&self, func: u64) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let mut map = unpoison(s.lock());
                let before = map.len();
                map.retain(|k, _| k.func != func);
                before - map.len()
            })
            .sum()
    }

    /// Drop everything.
    pub fn clear(&self) {
        for s in &self.shards {
            unpoison(s.lock()).clear();
        }
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| unpoison(s.lock()).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    #[test]
    fn miss_then_deny_then_retry() {
        let neg = NegativeCache::new(
            4,
            NegativePolicy {
                base_backoff: 2,
                attempt_cap: 10,
            },
        );
        let k = key(0x1000, 42);
        assert!(matches!(neg.consult(&k), Verdict::Miss));
        neg.record_failure(&k, &RewriteError::TraceBudget);
        // Two denials, then a retry slot opens.
        assert!(matches!(neg.consult(&k), Verdict::Deny { .. }));
        assert!(matches!(neg.consult(&k), Verdict::Deny { .. }));
        assert!(matches!(neg.consult(&k), Verdict::Retry));
        // Retry is not consumed until the attempt fails again.
        assert!(matches!(neg.consult(&k), Verdict::Retry));
        // Second failure doubles the window.
        neg.record_failure(&k, &RewriteError::TraceBudget);
        for _ in 0..4 {
            assert!(matches!(neg.consult(&k), Verdict::Deny { .. }));
        }
        assert!(matches!(neg.consult(&k), Verdict::Retry));
    }

    #[test]
    fn capped_attempts_deny_forever() {
        let neg = NegativeCache::new(
            1,
            NegativePolicy {
                base_backoff: 1,
                attempt_cap: 2,
            },
        );
        let k = key(0x2000, 7);
        neg.record_failure(&k, &RewriteError::TraceBudget);
        neg.record_failure(&k, &RewriteError::TraceBudget);
        for _ in 0..100 {
            assert!(matches!(neg.consult(&k), Verdict::Deny { attempts: 2, .. }));
        }
    }

    /// The attempt count travels with the denial, read under the lock that
    /// decided it — a second lookup could lose a race with `forget` and
    /// report `attempts = 0` for a denial that happened.
    #[test]
    fn a_denial_carries_the_attempts_it_was_decided_on() {
        let neg = NegativeCache::new(
            1,
            NegativePolicy {
                base_backoff: 1,
                attempt_cap: 10,
            },
        );
        let k = key(0x1000, 42);
        for n in 1..=3u32 {
            neg.record_failure(&k, &RewriteError::TraceBudget);
            match neg.consult(&k) {
                Verdict::Deny { err, attempts } => {
                    assert!(matches!(err, RewriteError::TraceBudget));
                    assert_eq!(attempts, n);
                }
                v => panic!("expected a denial after failure {n}, got {v:?}"),
            }
        }
        neg.forget(&k);
        assert!(matches!(neg.consult(&k), Verdict::Miss));
    }

    #[test]
    fn would_deny_probes_without_spending_the_window() {
        let neg = NegativeCache::new(
            1,
            NegativePolicy {
                base_backoff: 2,
                attempt_cap: 10,
            },
        );
        let k = key(0x1000, 42);
        assert!(!neg.would_deny(&k));
        neg.record_failure(&k, &RewriteError::TraceBudget);
        // Probing any number of times never advances the denial count...
        for _ in 0..50 {
            assert!(neg.would_deny(&k));
        }
        // ...so real requests still get the full window: two denials,
        // then the retry slot opens and the probe agrees.
        assert!(matches!(neg.consult(&k), Verdict::Deny { .. }));
        assert!(matches!(neg.consult(&k), Verdict::Deny { .. }));
        assert!(!neg.would_deny(&k));
        assert!(matches!(neg.consult(&k), Verdict::Retry));
    }

    #[test]
    fn forget_and_forget_func() {
        let neg = NegativeCache::new(4, NegativePolicy::default());
        let ka = key(0x1000, 1);
        let kb = key(0x1000, 2);
        let kc = key(0x3000, 3);
        for k in [&ka, &kb, &kc] {
            neg.record_failure(k, &RewriteError::TraceBudget);
        }
        assert_eq!(neg.len(), 3);
        neg.forget(&kc);
        assert!(matches!(neg.consult(&kc), Verdict::Miss));
        assert_eq!(neg.forget_func(0x1000), 2);
        assert!(neg.is_empty());
    }

    #[test]
    fn newest_error_wins() {
        let neg = NegativeCache::new(1, NegativePolicy::default());
        let k = key(0x1000, 1);
        neg.record_failure(&k, &RewriteError::TraceBudget);
        neg.record_failure(&k, &RewriteError::BlockBudget);
        assert!(matches!(
            neg.failure_of(&k),
            Some(RewriteError::BlockBudget)
        ));
    }
}
