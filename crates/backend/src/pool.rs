//! The persistent chunked worker pool.
//!
//! One process-wide pool of `threads() - 1` workers plus the calling thread
//! executes *chunked jobs*: a job is a closure over a chunk index in
//! `0..n_chunks`, and chunks are claimed from a single atomic counter — no
//! per-worker deques, no work stealing. The chunk *decomposition* of every
//! kernel depends only on the problem size (never on the thread count), and
//! each chunk writes a disjoint output region, so results are bit-identical
//! whether a job runs on one thread or sixteen.
//!
//! The thread count comes from the `DANCE_THREADS` environment variable
//! (default: all available cores); `1` short-circuits every dispatch into
//! plain inline execution — exactly the pre-backend behaviour.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Runtime override of the thread count (0 = use `DANCE_THREADS` / cores).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Thread count resolved from the environment, computed once.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The effective backend thread count.
///
/// Resolution order: [`set_threads`] override, then the `DANCE_THREADS`
/// environment variable, then the number of available cores. Always ≥ 1.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    *ENV_THREADS.get_or_init(|| {
        let n = match std::env::var("DANCE_THREADS") {
            Ok(s) => s.trim().parse::<usize>().ok().filter(|&n| n >= 1),
            Err(_) => None,
        }
        .unwrap_or_else(hardware_threads);
        dance_telemetry::gauge!("backend.threads", n as f64);
        n
    })
}

/// Overrides the thread count at runtime (values are clamped to ≥ 1).
///
/// Primarily for tests that compare thread counts within one process; the
/// deterministic chunk order guarantees results do not change either way.
pub fn set_threads(n: usize) {
    let n = n.max(1);
    OVERRIDE.store(n, Ordering::Relaxed);
    dance_telemetry::gauge!("backend.threads", n as f64);
}

/// One published chunked job.
struct Job {
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    n_chunks: usize,
    /// Chunks not yet completed.
    remaining: AtomicUsize,
    /// Computes one chunk and stores its result.
    work: Box<dyn Fn(usize) + Send + Sync>,
    /// Message of the first chunk that panicked, if any.
    panicked: Mutex<Option<String>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claims and executes chunks until the counter is exhausted.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                return;
            }
            // A panicking kernel chunk must not wedge the pool: record the
            // message, count the chunk as finished, and let the *caller*
            // re-raise it once the job completes.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.work)(i)));
            if let Err(payload) = outcome {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "kernel chunk panicked".to_string());
                lock(&self.panicked).get_or_insert(msg);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *lock(&self.done) = true;
                self.done_cv.notify_all();
            }
        }
    }
}

struct Pool {
    /// The currently published job, if any.
    slot: Mutex<Option<Arc<Job>>>,
    /// Signals workers that a new job was published.
    cv: Condvar,
    /// Workers spawned so far (they are never torn down).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        slot: Mutex::new(None),
        cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Lazily grows the worker set to `target` threads.
fn ensure_workers(target: usize) {
    let p = pool();
    let mut spawned = lock(&p.spawned);
    while *spawned < target {
        let name = format!("dance-backend-{}", *spawned);
        // Worker threads are detached by design: the pool lives for the
        // whole process and idle workers park on the condvar.
        let spawn = std::thread::Builder::new()
            .name(name)
            .spawn(|| worker_loop(pool()));
        if spawn.is_err() {
            // Out of threads: the claiming protocol still completes every
            // job with however many workers exist (worst case: caller only).
            break;
        }
        *spawned += 1;
    }
}

fn worker_loop(p: &'static Pool) {
    loop {
        let job = {
            let mut slot = lock(&p.slot);
            loop {
                if let Some(j) = slot.as_ref() {
                    if j.next.load(Ordering::Relaxed) < j.n_chunks {
                        break j.clone();
                    }
                }
                slot = p.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.drain();
    }
}

/// Runs `work` over `n_chunks` chunk indices, returning the results in
/// chunk order.
///
/// The calling thread participates; up to `threads() - 1` pool workers help.
/// With `threads() == 1` (or a single chunk) the whole job runs inline on
/// the caller, byte-for-byte the sequential path. Chunk `i`'s result always
/// lands in slot `i`, so output assembly is deterministic regardless of
/// which thread computed what.
///
/// # Panics
///
/// Re-raises (on the calling thread) the panic of any chunk that panicked.
pub fn run<T, F>(n_chunks: usize, work: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let nt = threads();
    if nt <= 1 || n_chunks <= 1 {
        return (0..n_chunks).map(work).collect();
    }
    ensure_workers(nt - 1);

    let slots: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new((0..n_chunks).map(|_| None).collect()));
    let out_slots = slots.clone();
    let job = Arc::new(Job {
        next: AtomicUsize::new(0),
        n_chunks,
        remaining: AtomicUsize::new(n_chunks),
        work: Box::new(move |i| {
            let v = work(i);
            lock(&out_slots)[i] = Some(v);
        }),
        panicked: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });

    let p = pool();
    {
        let mut slot = lock(&p.slot);
        *slot = Some(job.clone());
        p.cv.notify_all();
    }
    job.drain();
    {
        let mut slot = lock(&p.slot);
        if slot.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
            *slot = None;
        }
    }
    let mut done = lock(&job.done);
    while !*done {
        done = job
            .done_cv
            .wait(done)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(done);
    if let Some(msg) = lock(&job.panicked).take() {
        panic!("backend kernel chunk panicked: {msg}");
    }
    let collected = std::mem::take(&mut *lock(&slots));
    collected
        .into_iter()
        .map(|s| s.expect("every completed chunk stores its result slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_threads` is process-global; tests that flip it must not overlap.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn run_returns_results_in_chunk_order() {
        let _guard = lock(&TEST_LOCK);
        set_threads(4);
        let out = run(17, |i| i * 3);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
        set_threads(1);
        let out = run(17, |i| i * 3);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _guard = lock(&TEST_LOCK);
        let job = |i: usize| (0..100).map(|j| ((i * 100 + j) as f32).sin()).sum::<f32>();
        set_threads(1);
        let seq: Vec<f32> = run(64, job);
        for nt in [2, 3, 8] {
            set_threads(nt);
            let par: Vec<f32> = run(64, job);
            assert_eq!(seq, par, "thread count {nt} changed results");
        }
        set_threads(1);
    }

    #[test]
    fn chunk_panic_propagates_to_caller_without_wedging() {
        let _guard = lock(&TEST_LOCK);
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            run(8, |i| {
                assert!(i != 5, "chunk 5 goes bang");
                i
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
        // The pool must still work afterwards.
        let out = run(4, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
        set_threads(1);
    }

    #[test]
    fn set_threads_clamps_to_one() {
        let _guard = lock(&TEST_LOCK);
        set_threads(0);
        assert_eq!(threads(), 1);
    }
}
