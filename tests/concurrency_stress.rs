//! Seeded stress test for the parallel stack: eight worker threads hammer
//! the sharded response cache, the bounded serve queue, and the backend
//! worker pool at once, under a watchdog that converts any deadlock into a
//! test failure instead of a hung CI job.
//!
//! Every schedule is drawn from per-thread `StdRng`s with fixed seeds, so a
//! failure replays exactly. Cache values are pure functions of their key,
//! which lets every observed hit be checked for byte-identity — a torn or
//! cross-wired entry under contention would show up as a mismatch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use dance_serve::cache::ResponseCache;
use dance_serve::queue::Bounded;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 400;
const KEY_SPACE: u64 = 96;
const WATCHDOG: Duration = Duration::from_secs(120);

/// The canonical value for a key — any cache hit must return exactly this.
fn value_for(key: u64) -> String {
    format!(
        "resp:{key}:{:016x}",
        key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    )
}

fn key_name(key: u64) -> String {
    format!("req-{key}")
}

/// One worker's deterministic schedule: interleaved cache traffic, queue
/// pushes, and pool dispatches, all drawn from its seeded generator.
fn worker(
    tid: usize,
    cache: &ResponseCache,
    queue: &Bounded<u64>,
    pushed: &AtomicU64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(0xDA2C_E000 + tid as u64);
    for op in 0..OPS_PER_THREAD {
        let key = rng.gen_range(0..KEY_SPACE);
        match rng.gen_range(0..10u32) {
            // Mostly cache traffic: read, verify byte-identity, backfill.
            0..=5 => {
                if let Some(hit) = cache.get(&key_name(key)) {
                    if hit != value_for(key) {
                        return Err(format!(
                            "thread {tid} op {op}: cache hit for key {key} \
                             was not byte-identical: got {hit:?}"
                        ));
                    }
                } else {
                    cache.insert(key_name(key), value_for(key));
                }
            }
            // Queue pressure: pushes may shed when full — that is the
            // queue's contract — but accepted items must all drain.
            6..=8 => {
                if queue.try_push(key).is_ok() {
                    pushed.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Pool dispatch: results must match the serial computation.
            _ => {
                let n = rng.gen_range(1..32usize);
                let got = dance_backend::run(n, move |i| (i as u64).wrapping_mul(key));
                let want: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(key)).collect();
                if got != want {
                    return Err(format!(
                        "thread {tid} op {op}: pool dispatch diverged from \
                         serial result for n={n} key={key}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn eight_threads_hammer_cache_queue_and_pool_without_deadlock() {
    dance_backend::set_threads(4);
    let cache = Arc::new(ResponseCache::new(64, 8));
    let queue = Arc::new(Bounded::<u64>::new(32));
    let pushed = Arc::new(AtomicU64::new(0));

    // Drain the queue concurrently so pushes keep finding room, taking what
    // is queued in batches as the predict collector does. `pop_batch` blocks
    // while the queue is open and empty, and ends once it is closed and
    // drained.
    let popped = {
        let queue = Arc::clone(&queue);
        thread::spawn(move || {
            let mut n = 0u64;
            while let Some(batch) = queue.pop_batch(8) {
                n += batch.len() as u64;
            }
            n
        })
    };

    let (done_tx, done_rx) = mpsc::channel::<(usize, Result<(), String>)>();
    for tid in 0..THREADS {
        let cache = Arc::clone(&cache);
        let queue = Arc::clone(&queue);
        let pushed = Arc::clone(&pushed);
        let done_tx = done_tx.clone();
        thread::spawn(move || {
            let outcome = worker(tid, &cache, &queue, &pushed);
            let _send_result = done_tx.send((tid, outcome));
        });
    }
    drop(done_tx);

    // Watchdog: every worker must report within the deadline; a deadlock in
    // the cache shards, the queue, or the pool shows up here as a timeout.
    let mut reported = 0;
    while reported < THREADS {
        match done_rx.recv_timeout(WATCHDOG) {
            Ok((tid, Ok(()))) => {
                reported += 1;
                let _ = tid;
            }
            Ok((tid, Err(msg))) => panic!("worker {tid} failed: {msg}"),
            Err(_timeout) => panic!(
                "deadlock watchdog fired: only {reported}/{THREADS} workers \
                 finished within {WATCHDOG:?}"
            ),
        }
    }

    // Shut the queue down and check conservation: everything accepted by
    // try_push was drained exactly once (close() wakes the consumer).
    queue.close();
    let drained = popped.join().expect("queue consumer thread joins");
    let accepted = pushed.load(Ordering::Relaxed);
    assert_eq!(
        drained, accepted,
        "queue lost or duplicated items under contention"
    );
    assert!(
        queue.is_empty(),
        "queue should be fully drained after close"
    );

    // Byte-identical replay: every key still resident returns exactly the
    // canonical bytes, and a fresh round-trip reproduces them too.
    let mut resident = 0;
    for key in 0..KEY_SPACE {
        if let Some(hit) = cache.get(&key_name(key)) {
            assert_eq!(hit, value_for(key), "stale entry for key {key}");
            resident += 1;
        }
    }
    assert!(
        resident > 0,
        "cache ended the run empty — traffic never landed"
    );
    cache.insert(key_name(KEY_SPACE), value_for(KEY_SPACE));
    assert_eq!(
        cache.get(&key_name(KEY_SPACE)).as_deref(),
        Some(value_for(KEY_SPACE).as_str()),
        "replayed insert did not round-trip byte-identically"
    );

    let stats = cache.stats();
    assert!(
        stats.hits + stats.misses > 0,
        "cache statistics recorded no traffic"
    );
}
