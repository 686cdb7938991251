//! Bounded queues and admission control — the backpressure layer.
//!
//! Cost queries enter the server through one of two gates (search jobs
//! are bounded by the fleet's pending limit instead):
//!
//! * [`Bounded`] — a closable MPMC queue with a hard capacity. Producers
//!   never block: a full queue is an immediate `Err`, which the dispatch
//!   layer turns into `503 Overloaded`. Consumers block until an item
//!   arrives or the queue is closed, so a drain wakes them at once.
//! * [`Admission`] — a concurrency limiter for work executed inline on
//!   connection threads (analytic cost queries). Up to `max_active`
//!   requests run at once; up to `max_waiting` more may wait, each bounded
//!   by its own deadline; everything beyond that is shed immediately.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::proto::ProtoError;

struct BoundedInner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded, closable multi-producer multi-consumer queue.
pub struct Bounded<T> {
    inner: Mutex<BoundedInner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for Bounded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bounded")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Bounded<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(BoundedInner {
                queue: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    // Queue state stays structurally valid at every await-free point, so a
    // poisoned mutex (panicking consumer) is safe to see through.
    fn lock(&self) -> std::sync::MutexGuard<'_, BoundedInner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues without blocking. A full or closed queue returns the item
    /// back so the caller can shed it.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed || inner.queue.len() >= self.capacity {
            return Err(item);
        }
        inner.queue.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks while the queue is empty, then takes everything already
    /// waiting, up to `max` items (at least one), in FIFO order under one
    /// lock. Returns `None` once the queue is closed *and* empty (items
    /// enqueued before the close are still drained).
    pub fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut inner = self.lock();
        while inner.queue.is_empty() {
            if inner.closed {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let n = inner.queue.len().min(max.max(1));
        Some(inner.queue.drain(..n).collect())
    }

    /// Closes the queue: future pushes fail, consumers drain what is left
    /// and then see `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug)]
struct AdmissionState {
    active: usize,
    waiting: usize,
}

/// Concurrency limiter with a bounded waiting room.
#[derive(Debug)]
pub struct Admission {
    state: Mutex<AdmissionState>,
    freed: Condvar,
    max_active: usize,
    max_waiting: usize,
}

/// An acquired admission slot; releases on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    admission: &'a Admission,
}

impl Admission {
    /// At most `max_active` concurrent permits, with at most `max_waiting`
    /// callers queued behind them.
    pub fn new(max_active: usize, max_waiting: usize) -> Self {
        Self {
            state: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
        }
    }

    // The two counters are restored on every exit path below, so a poisoned
    // lock (panicking handler thread) leaves consistent state.
    fn lock(&self) -> std::sync::MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires a slot, waiting at most `deadline`.
    ///
    /// # Errors
    ///
    /// `503 Overloaded` when the waiting room is full or the deadline
    /// passes first.
    pub fn acquire(&self, deadline: Duration) -> Result<Permit<'_>, ProtoError> {
        let until = Instant::now() + deadline;
        let mut state = self.lock();
        if state.active < self.max_active {
            state.active += 1;
            return Ok(Permit { admission: self });
        }
        if state.waiting >= self.max_waiting {
            dance_telemetry::counter!("serve.shed.admission_full");
            return Err(ProtoError::overloaded("admission queue full"));
        }
        state.waiting += 1;
        loop {
            let now = Instant::now();
            if now >= until {
                state.waiting -= 1;
                dance_telemetry::counter!("serve.shed.deadline");
                return Err(ProtoError::overloaded("deadline exceeded while queued"));
            }
            let (guard, _timed_out) = self
                .freed
                .wait_timeout(state, until - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if state.active < self.max_active {
                state.waiting -= 1;
                state.active += 1;
                return Ok(Permit { admission: self });
            }
        }
    }

    /// Permits currently held.
    pub fn active(&self) -> usize {
        self.lock().active
    }

    /// Callers currently queued for a permit.
    pub fn waiting(&self) -> usize {
        self.lock().waiting
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.admission.lock();
        state.active -= 1;
        drop(state);
        self.admission.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(4);
        q.try_push(7).map_err(|_| ()).unwrap_or(());
        q.close();
        assert_eq!(q.try_push(8), Err(8));
        assert_eq!(q.pop_batch(8), Some(vec![7]));
        assert_eq!(q.pop_batch(8), None);
    }

    #[test]
    fn pop_batch_takes_what_is_queued_up_to_max() {
        let q = Bounded::new(16);
        for i in 0..10 {
            assert!(q.try_push(i).is_ok());
        }
        assert_eq!(q.pop_batch(8), Some((0..8).collect::<Vec<_>>()));
        assert_eq!(q.pop_batch(8), Some(vec![8, 9]));
        q.close();
        assert_eq!(q.pop_batch(8), None, "closed and drained");
    }

    #[test]
    fn close_wakes_blocked_batch_consumer() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let q2 = q.clone();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            ready_tx.send(()).expect("test thread is listening");
            q2.pop_batch(8)
        });
        ready_rx.recv().expect("consumer started");
        q.close();
        assert_eq!(h.join().expect("consumer thread must not panic"), None);
    }

    #[test]
    fn admission_limits_and_sheds() {
        let a = Admission::new(1, 0);
        let p = a.acquire(Duration::from_millis(5)).expect("first acquire");
        // No waiting room: second caller is shed immediately.
        let err = a
            .acquire(Duration::from_millis(5))
            .expect_err("must be shed");
        assert_eq!(err.code, 503);
        drop(p);
        let _p2 = a.acquire(Duration::from_millis(5)).expect("after release");
    }

    #[test]
    fn admission_waiter_times_out_with_503() {
        let a = Admission::new(1, 4);
        let _p = a.acquire(Duration::from_millis(5)).expect("first acquire");
        let t0 = Instant::now();
        let err = a
            .acquire(Duration::from_millis(30))
            .expect_err("deadline must fire");
        assert_eq!(err.code, 503);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(a.waiting(), 0, "waiter count must be restored");
    }

    #[test]
    fn admission_hands_over_to_waiter() {
        let a = Arc::new(Admission::new(1, 4));
        let p = a.acquire(Duration::from_millis(5)).expect("holder");
        let a2 = a.clone();
        let h = std::thread::spawn(move || a2.acquire(Duration::from_secs(5)).map(|_| ()));
        std::thread::sleep(Duration::from_millis(20));
        drop(p);
        h.join()
            .expect("waiter thread must not panic")
            .expect("waiter must get the freed slot");
        assert_eq!(a.active(), 0);
    }
}
