//! Single-flight table: at most one rewrite per `(func, fingerprint)`.
//!
//! The first requester of a missing key becomes the *leader* and holds a
//! [`FlightLease`]; everyone else arriving while the flight is open
//! becomes a *follower* and blocks on the flight's cell until the leader
//! publishes a result. This is what makes "each distinct fingerprint is
//! traced exactly once" hold under concurrency: the trace happens inside
//! the lease, and the lease is handed out once.
//!
//! Ordering: the leader inserts the variant into the cache *before*
//! resolving the lease, so by the time a follower (or any later
//! requester) observes completion, the cache lookup succeeds and the
//! emitted code bytes are visible (the cell's set/wait pair provides the
//! happens-before edge).

use super::{CacheKey, Variant};
use crate::error::RewriteError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Recover the guard from a poisoned lock: flight state transitions are
/// single-statement, so another thread's panic cannot leave them torn —
/// and a wedged flight table would hang every follower forever.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

pub(super) type FlightResult = Result<Arc<Variant>, RewriteError>;

/// One in-progress rewrite: a cell the leader sets once and followers
/// block on.
#[derive(Default)]
pub(super) struct Flight(OnceLock<FlightResult>);

impl Flight {
    /// Block until the leader resolves, then clone its result.
    pub fn wait(&self) -> FlightResult {
        self.0.wait().clone()
    }
}

/// What `join` handed out: the exclusive right to rewrite, or a ticket to
/// wait for whoever holds it.
pub(super) enum Join<'a> {
    Leader(FlightLease<'a>),
    Follower(Arc<Flight>),
}

/// Leader-side handle. Dropping it unresolved (e.g. a panicking rewrite
/// pass) resolves with an error so followers never hang.
pub(super) struct FlightLease<'a> {
    table: &'a InflightTable,
    key: CacheKey,
    flight: Arc<Flight>,
    resolved: bool,
}

impl FlightLease<'_> {
    /// Publish the outcome: unregister the flight, then wake followers.
    /// Callers must have inserted a successful variant into the cache
    /// *before* this, so post-removal requesters hit the cache.
    pub fn resolve(mut self, res: FlightResult) {
        self.finish(res);
    }

    fn finish(&mut self, res: FlightResult) {
        unpoison(self.table.flights.lock()).remove(&self.key);
        // The lease is the only writer and finishes once.
        let _ = self.flight.0.set(res);
        self.resolved = true;
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if !self.resolved {
            self.finish(Err(RewriteError::Internal(
                "specialization leader abandoned its flight".into(),
            )));
        }
    }
}

#[derive(Default)]
pub(super) struct InflightTable {
    flights: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

impl InflightTable {
    /// Join the flight for `key`, creating it (and becoming leader) if
    /// none is open.
    pub fn join(&self, key: CacheKey) -> Join<'_> {
        let mut m = unpoison(self.flights.lock());
        if let Some(f) = m.get(&key) {
            Join::Follower(Arc::clone(f))
        } else {
            let f = Arc::new(Flight::default());
            m.insert(key, Arc::clone(&f));
            Join::Leader(FlightLease {
                table: self,
                key,
                flight: f,
                resolved: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            func: 1,
            fingerprint: fp,
        }
    }

    #[test]
    fn second_joiner_is_follower_until_resolution() {
        let t = InflightTable::default();
        let Join::Leader(lease) = t.join(key(7)) else {
            panic!("first joiner must lead");
        };
        assert!(matches!(t.join(key(7)), Join::Follower(_)));
        // A different key gets its own flight.
        assert!(matches!(t.join(key(8)), Join::Leader(_)));

        lease.resolve(Err(RewriteError::OutOfCodeSpace));
        // Flight is gone: the next joiner leads again.
        assert!(matches!(t.join(key(7)), Join::Leader(_)));
    }

    #[test]
    fn abandoned_lease_resolves_with_error() {
        let t = InflightTable::default();
        let Join::Leader(lease) = t.join(key(9)) else {
            panic!()
        };
        let Join::Follower(f) = t.join(key(9)) else {
            panic!()
        };
        drop(lease); // simulated leader panic
        assert!(matches!(f.wait(), Err(RewriteError::Internal(_))));
        assert!(matches!(t.join(key(9)), Join::Leader(_)));
    }

    #[test]
    fn followers_across_threads_get_the_leaders_result() {
        let t = InflightTable::default();
        let Join::Leader(lease) = t.join(key(3)) else {
            panic!()
        };
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for _ in 0..4 {
                let Join::Follower(f) = t.join(key(3)) else {
                    panic!("leader already seated")
                };
                joins.push(s.spawn(move || f.wait()));
            }
            lease.resolve(Err(RewriteError::OutOfCodeSpace));
            for j in joins {
                assert!(matches!(
                    j.join().unwrap(),
                    Err(RewriteError::OutOfCodeSpace)
                ));
            }
        });
    }
}
