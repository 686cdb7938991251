//! Per-thread aggregation shards for spans, counters and histograms.
//!
//! Every thread that records owns one [`Shard`]. A record locks only its
//! own thread's shard, a mutex that no other thread touches except when
//! `span_report()`, `metrics::snapshot()` or a `reset()` walks every shard,
//! so recording threads never contend with each other.
//!
//! When a thread exits its shard is recycled, not merged: it goes on a free
//! list with its records intact, and the next thread to record adopts it
//! before a new one is created. A record therefore stays in the shard it
//! was written to until a reset clears it, reports read live and free
//! shards alike, and the shard count is bounded by the peak number of
//! threads that were recording at once. No lock is taken while another is
//! held: the pool lock and a shard lock are always released before the
//! next one is taken.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::metrics::Histogram;
use crate::span::SpanStats;

/// Identity of a span name without reading its bytes: the address and
/// length of a `&'static str`, or of both halves of a prefixed name.
type NameKey = (usize, usize, usize, usize);

fn plain_key(name: &'static str) -> NameKey {
    (name.as_ptr() as usize, name.len(), 0, 0)
}

fn prefixed_key(prefix: &'static str, key: &'static str) -> NameKey {
    (
        prefix.as_ptr() as usize,
        prefix.len(),
        key.as_ptr() as usize,
        key.len(),
    )
}

/// Multiply-rotate hasher for [`NameKey`]s, whose words are already unique
/// per name, so one multiply per word spreads them well enough.
#[derive(Default)]
struct AddrHasher(u64);

const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// One thread's aggregates.
#[derive(Default)]
pub(crate) struct Shard {
    /// Span aggregates in first-record order, under their full names.
    pub(crate) spans: Vec<(&'static str, SpanStats)>,
    /// Name identity → index into `spans`.
    span_slots: HashMap<NameKey, usize, BuildHasherDefault<AddrHasher>>,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
}

impl Shard {
    fn slot(&mut self, key: NameKey, name: &'static str) -> &mut SpanStats {
        let next = self.spans.len();
        let idx = *self.span_slots.entry(key).or_insert(next);
        if idx == next {
            self.spans.push((name, SpanStats::default()));
        }
        &mut self.spans[idx].1
    }

    /// The aggregate for `name`, created on its first record here.
    pub(crate) fn span(&mut self, name: &'static str) -> &mut SpanStats {
        self.slot(plain_key(name), name)
    }

    /// The aggregate for `prefix + key`, if this shard has recorded it
    /// since its last reset.
    pub(crate) fn prefixed_span(
        &mut self,
        prefix: &'static str,
        key: &'static str,
    ) -> Option<&mut SpanStats> {
        let idx = *self.span_slots.get(&prefixed_key(prefix, key))?;
        Some(&mut self.spans[idx].1)
    }

    /// The aggregate for `prefix + key`, stored under its interned `name`.
    pub(crate) fn insert_prefixed_span(
        &mut self,
        prefix: &'static str,
        key: &'static str,
        name: &'static str,
    ) -> &mut SpanStats {
        self.slot(prefixed_key(prefix, key), name)
    }

    /// Drops every span aggregate.
    pub(crate) fn clear_spans(&mut self) {
        self.spans.clear();
        self.span_slots.clear();
    }
}

type ShardCell = Arc<Mutex<Shard>>;

/// Every shard ever created, in creation order, and the ones no live
/// thread owns.
struct Pool {
    all: Vec<ShardCell>,
    free: Vec<ShardCell>,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    all: Vec::new(),
    free: Vec::new(),
});

// A poisoned telemetry mutex must never take down the workload; every
// update leaves the aggregates consistent, so the data stays usable.
fn lock_pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_shard(cell: &ShardCell) -> MutexGuard<'_, Shard> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A free shard, or a new one when none is free.
fn adopt() -> ShardCell {
    let mut pool = lock_pool();
    if let Some(cell) = pool.free.pop() {
        return cell;
    }
    let cell = ShardCell::default();
    pool.all.push(Arc::clone(&cell));
    cell
}

fn release(cell: ShardCell) {
    lock_pool().free.push(cell);
}

/// A thread's claim on its shard; returns the shard to the pool on exit.
struct Owned(ShardCell);

impl Drop for Owned {
    fn drop(&mut self) {
        release(Arc::clone(&self.0));
    }
}

thread_local! {
    static OWNED: Owned = Owned(adopt());
}

/// Runs `f` on the calling thread's shard.
pub(crate) fn with_local<R>(f: impl FnOnce(&mut Shard) -> R) -> R {
    let mut f = Some(f);
    if let Ok(Some(out)) = OWNED.try_with(|owned| f.take().map(|f| f(&mut lock_shard(&owned.0)))) {
        return out;
    }
    // Another thread-local destructor is recording after this thread's
    // shard went back to the pool: borrow a shard for this one record.
    let f = f.expect("OWNED.try_with only consumes the closure when it runs");
    let cell = adopt();
    let out = f(&mut lock_shard(&cell));
    release(cell);
    out
}

/// Runs `f` on every shard, live or free, one at a time in creation order.
pub(crate) fn for_each(mut f: impl FnMut(&mut Shard)) {
    let all = lock_pool().all.clone();
    for cell in &all {
        f(&mut lock_shard(cell));
    }
}

/// Number of shards created so far, live or free. It grows only when more
/// threads record at once than ever before, since exiting threads hand
/// their shards to the next ones.
pub fn count() -> usize {
    lock_pool().all.len()
}
