//! Lease-based job ownership with attempt-number fencing.
//!
//! A lease is an in-memory, time-bounded claim: worker `w` owns job `j`
//! for attempt `a` until `expires_ms`. Workers renew by heartbeating; the
//! supervisor reclaims any lease whose deadline passed and re-dispatches
//! the job. The attempt number is the **fencing token** — a worker that
//! lost its lease (stalled heartbeat, reclaimed job) carries a stale
//! attempt, so its renewals and results are rejected even if it wakes up
//! later and races the replacement worker. That race is the whole reason
//! leases are not enough on their own.
//!
//! The table is pure state (no clock, no I/O): callers pass `now_ms` in,
//! which keeps every transition unit-testable and leaves time to the
//! supervisor's clock — monotonic in production, manual in the drills. Its
//! sweep sleeps until [`LeaseTable::next_deadline`], not on a tick.

use std::collections::BTreeMap;

/// One live lease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Owning worker.
    pub worker: String,
    /// Fencing token — the job's attempt number this lease was granted for.
    pub attempt: u64,
    /// Deadline in the caller's clock; past this the lease is reclaimable.
    pub expires_ms: u64,
}

/// All live leases, keyed by job id.
#[derive(Debug, Default)]
pub struct LeaseTable {
    leases: BTreeMap<String, Lease>,
    ttl_ms: u64,
}

impl LeaseTable {
    /// A table whose grants and renewals last `ttl_ms`.
    #[must_use]
    pub fn new(ttl_ms: u64) -> Self {
        Self {
            leases: BTreeMap::new(),
            ttl_ms: ttl_ms.max(1),
        }
    }

    /// Grants `job` to `worker` for `attempt`, replacing any prior lease
    /// (the caller decides when that is legal — normally only after a
    /// reclaim has reverted the job to pending).
    pub fn grant(&mut self, job: &str, worker: &str, attempt: u64, now_ms: u64) {
        self.leases.insert(
            job.to_string(),
            Lease {
                worker: worker.to_string(),
                attempt,
                expires_ms: now_ms + self.ttl_ms,
            },
        );
        dance_telemetry::counter!("fleet.lease.granted");
    }

    /// Renews `job`'s lease if — and only if — `worker` still holds it for
    /// the same `attempt`. Returns whether the renewal took; a `false`
    /// tells the worker it has been fenced off and must abandon the job.
    pub fn renew(&mut self, job: &str, worker: &str, attempt: u64, now_ms: u64) -> bool {
        match self.leases.get_mut(job) {
            Some(l) if l.worker == worker && l.attempt == attempt => {
                l.expires_ms = now_ms + self.ttl_ms;
                dance_telemetry::counter!("fleet.lease.renewed");
                true
            }
            _ => false,
        }
    }

    /// Releases `job`'s lease if `worker` holds it for `attempt`. Returns
    /// whether the release took — a `false` means the result that prompted
    /// it is stale and must be discarded.
    pub fn release(&mut self, job: &str, worker: &str, attempt: u64) -> bool {
        self.holds(job, worker, attempt) && self.leases.remove(job).is_some()
    }

    /// Whether `worker` still holds `job`'s lease for `attempt`.
    #[must_use]
    pub fn holds(&self, job: &str, worker: &str, attempt: u64) -> bool {
        self.leases
            .get(job)
            .is_some_and(|l| l.worker == worker && l.attempt == attempt)
    }

    /// The earliest deadline among live leases: when the next reclaim can
    /// happen, if no renewal pushes it out first.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        self.leases.values().map(|l| l.expires_ms).min()
    }

    /// Removes and returns every lease whose deadline passed.
    pub fn expire(&mut self, now_ms: u64) -> Vec<(String, Lease)> {
        let expired: Vec<String> = self
            .leases
            .iter()
            .filter(|(_, l)| l.expires_ms <= now_ms)
            .map(|(job, _)| job.clone())
            .collect();
        let mut out = Vec::with_capacity(expired.len());
        for job in expired {
            if let Some(l) = self.leases.remove(&job) {
                dance_telemetry::counter!("fleet.lease.expired");
                out.push((job, l));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_renew_release_lifecycle() {
        let mut t = LeaseTable::new(100);
        t.grant("j", "w0", 1, 0);
        assert!(t.renew("j", "w0", 1, 50));
        assert_eq!(t.next_deadline(), Some(150));
        assert!(t.release("j", "w0", 1));
        assert_eq!(t.next_deadline(), None);
    }

    #[test]
    fn stale_attempt_is_fenced() {
        let mut t = LeaseTable::new(100);
        t.grant("j", "w0", 1, 0);
        // The job is reclaimed and re-granted to w1 under attempt 2.
        t.grant("j", "w1", 2, 200);
        assert!(!t.renew("j", "w0", 1, 210), "old holder cannot renew");
        assert!(!t.release("j", "w0", 1), "old holder's result is stale");
        assert!(t.renew("j", "w1", 2, 210), "new holder renews fine");
    }

    #[test]
    fn wrong_worker_same_attempt_is_fenced() {
        let mut t = LeaseTable::new(100);
        t.grant("j", "w0", 1, 0);
        assert!(!t.renew("j", "w1", 1, 10));
        assert!(!t.release("j", "w1", 1));
    }

    #[test]
    fn expiry_removes_only_overdue_leases() {
        let mut t = LeaseTable::new(100);
        t.grant("a", "w0", 1, 0); // expires at 100
        t.grant("b", "w1", 1, 50); // expires at 150
        let expired = t.expire(120);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, "a");
        assert_eq!(expired[0].1.worker, "w0");
        assert!(!t.holds("a", "w0", 1));
        assert!(t.holds("b", "w1", 1));
        // A renewal pushes the deadline out.
        assert_eq!(t.next_deadline(), Some(150));
        assert!(t.renew("b", "w1", 1, 140));
        assert_eq!(t.next_deadline(), Some(240));
        assert!(t.expire(150).is_empty());
        assert_eq!(t.expire(241).len(), 1);
        assert_eq!(t.next_deadline(), None);
    }

    #[test]
    fn expired_lease_cannot_be_renewed() {
        let mut t = LeaseTable::new(100);
        t.grant("j", "w0", 1, 0);
        let _expired = t.expire(101);
        assert!(!t.renew("j", "w0", 1, 102));
    }
}
