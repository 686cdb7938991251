//! Aligned, arena-recycled tensor storage.
//!
//! [`Storage`] is the opaque buffer behind every tensor in the workspace.
//! It replaces the old `Arc<Vec<f32>>` representation with two properties
//! the hot training loop needs:
//!
//! * **Alignment.** Logical data starts on a 32-byte boundary (one AVX2
//!   vector, two NEON vectors) whenever the buffer was allocated by this
//!   module. The workspace forbids `unsafe`, so alignment is achieved by
//!   over-allocating `PAD` extra elements and offsetting the logical
//!   window to the first aligned element — no custom allocator required.
//! * **Recycling.** Dropping a `Storage` returns its buffer to a
//!   thread-local free list keyed by logical length. The next
//!   [`Storage::uninit`] / [`Storage::zeroed`] of the same length pops the
//!   buffer back out instead of asking the allocator. A training step
//!   allocates thousands of activation and gradient buffers; after the
//!   first step the arena serves essentially all of them, eliminating the
//!   per-step page-fault and zeroing churn that dominated
//!   `autograd.backward`.
//!
//! **Uninitialized-alloc policy.** Safe Rust cannot hand out genuinely
//! uninitialized memory, so [`Storage::uninit`] means *"may contain stale
//! values from a previous tensor — the caller will overwrite every
//! element"*. Recycled buffers are returned as-is (no re-zeroing);
//! only a cold fresh allocation pays the zero-fill. [`Storage::zeroed`] is
//! the variant for buffers that are accumulated into rather than fully
//! overwritten.
//!
//! The arena is an escape-hatch away: `DANCE_ARENA=off` (or
//! [`set_arena_enabled`]`(false)`) disables recycling entirely, making
//! every allocation fresh — useful for bisecting and for the
//! arena-vs-fresh equivalence proptests.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Alignment target in bytes (one AVX2 lane; a multiple of NEON's 16).
pub const ALIGN_BYTES: usize = 32;

/// Extra `f32` elements over-allocated so an aligned window always fits.
const PAD: usize = ALIGN_BYTES / std::mem::size_of::<f32>();

/// Upper bound on bytes the per-thread arena retains; beyond it, dropped
/// buffers are released to the allocator instead of recycled.
const ARENA_MAX_BYTES: usize = 256 * 1024 * 1024;

/// How many allocation events accumulate locally before the arena flushes
/// its `arena.reuse` / `arena.fresh` counters to `dance-telemetry`: a
/// counter record locks the thread's shard and looks its name up in a
/// string-keyed map, many times the cost of the `Cell` add it batches.
const FLUSH_EVERY: usize = 4096;

/// Element offset of the first 32-byte-aligned `f32` at or after `addr`.
fn aligned_offset(addr: usize) -> usize {
    debug_assert_eq!(addr % std::mem::size_of::<f32>(), 0);
    (ALIGN_BYTES - addr % ALIGN_BYTES) % ALIGN_BYTES / std::mem::size_of::<f32>()
}

struct Arena {
    /// Free buffers keyed by *logical* length (buffer length is
    /// `len + PAD`). A `BTreeMap` keeps iteration order deterministic.
    buckets: BTreeMap<usize, Vec<Vec<f32>>>,
    retained_bytes: usize,
    enabled: bool,
}

impl Arena {
    fn new() -> Self {
        let enabled = !matches!(
            std::env::var("DANCE_ARENA").as_deref(),
            Ok("off" | "0" | "false")
        );
        Arena {
            buckets: BTreeMap::new(),
            retained_bytes: 0,
            enabled,
        }
    }

    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        if !self.enabled {
            return None;
        }
        let bucket = self.buckets.get_mut(&len)?;
        let buf = bucket.pop()?;
        self.retained_bytes -= buf.capacity() * std::mem::size_of::<f32>();
        Some(buf)
    }

    fn give(&mut self, len: usize, buf: Vec<f32>) {
        let bytes = buf.capacity() * std::mem::size_of::<f32>();
        if !self.enabled || self.retained_bytes + bytes > ARENA_MAX_BYTES {
            return; // dropped normally
        }
        self.retained_bytes += bytes;
        self.buckets.entry(len).or_default().push(buf);
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::new());
    static REUSE: Cell<u64> = const { Cell::new(0) };
    static FRESH: Cell<u64> = const { Cell::new(0) };
    static PENDING: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(reused: bool) {
    if reused {
        REUSE.with(|c| c.set(c.get() + 1));
    } else {
        FRESH.with(|c| c.set(c.get() + 1));
    }
    let pending = PENDING.with(|c| {
        c.set(c.get() + 1);
        c.get()
    });
    if pending >= FLUSH_EVERY {
        flush_metrics();
    }
}

/// Pushes this thread's accumulated `arena.reuse` / `arena.fresh` counts
/// into the telemetry counter registry and resets the local tallies'
/// pending flush window. Cheap to call once per step or before a metrics
/// dump; the hot path batches `FLUSH_EVERY` events between flushes.
pub fn flush_metrics() {
    let reuse = REUSE.with(Cell::take);
    let fresh = FRESH.with(Cell::take);
    PENDING.with(|c| c.set(0));
    if reuse > 0 {
        dance_telemetry::counter!("arena.reuse", reuse);
    }
    if fresh > 0 {
        dance_telemetry::counter!("arena.fresh", fresh);
    }
}

/// Allocation statistics for the current thread since the last
/// [`reset_stats`]: `(reused, fresh)` buffer counts.
///
/// Note [`flush_metrics`] *moves* pending tallies into telemetry, so tests
/// inspecting these should not interleave with a flush.
#[must_use]
pub fn stats() -> (u64, u64) {
    (REUSE.with(Cell::get), FRESH.with(Cell::get))
}

/// Zeroes the current thread's local allocation tallies.
pub fn reset_stats() {
    REUSE.with(|c| c.set(0));
    FRESH.with(|c| c.set(0));
    PENDING.with(|c| c.set(0));
}

/// Enables or disables buffer recycling on the current thread (overriding
/// the `DANCE_ARENA` environment default). Disabling drains the free lists.
pub fn set_arena_enabled(enabled: bool) {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.enabled = enabled;
        if !enabled {
            a.buckets.clear();
            a.retained_bytes = 0;
        }
    });
}

/// Whether recycling is enabled on the current thread.
#[must_use]
pub fn arena_enabled() -> bool {
    ARENA.with(|a| a.borrow().enabled)
}

/// Drops every buffer the current thread's arena retains.
pub fn clear_arena() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.buckets.clear();
        a.retained_bytes = 0;
    });
}

/// Bytes currently retained by the current thread's arena.
#[must_use]
pub fn retained_bytes() -> usize {
    ARENA.with(|a| a.borrow().retained_bytes)
}

/// An aligned, arena-recycled buffer of `f32` values.
///
/// Dereferences to `[f32]` over its logical window. Buffers allocated via
/// [`Storage::uninit`] / [`Storage::zeroed`] / [`Storage::full`] start on a
/// 32-byte boundary and return to the thread-local arena when dropped;
/// buffers adopted from a caller's `Vec` via [`Storage::from_vec`] keep
/// whatever alignment the allocator gave them and are freed normally.
pub struct Storage {
    buf: Vec<f32>,
    off: usize,
    len: usize,
}

impl Storage {
    /// An arena buffer whose contents are unspecified (stale values from a
    /// recycled tensor, or zeros on a cold fresh allocation). The caller
    /// must overwrite every element before reading.
    #[must_use]
    pub fn uninit(len: usize) -> Self {
        let (buf, reused) = match ARENA.with(|a| a.borrow_mut().take(len)) {
            Some(buf) => (buf, true),
            None => (vec![0.0f32; len + PAD], false),
        };
        note_alloc(reused);
        let off = aligned_offset(buf.as_ptr() as usize);
        debug_assert!(off + len <= buf.len());
        Storage { buf, off, len }
    }

    /// An arena buffer guaranteed to read as all zeros.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        match ARENA.with(|a| a.borrow_mut().take(len)) {
            Some(buf) => {
                note_alloc(true);
                let off = aligned_offset(buf.as_ptr() as usize);
                let mut s = Storage { buf, off, len };
                s.fill(0.0);
                s
            }
            None => {
                note_alloc(false);
                let buf = vec![0.0f32; len + PAD];
                let off = aligned_offset(buf.as_ptr() as usize);
                Storage { buf, off, len }
            }
        }
    }

    /// An arena buffer filled with `value`.
    #[must_use]
    pub fn full(len: usize, value: f32) -> Self {
        let mut s = Storage::uninit(len);
        s.fill(value);
        s
    }

    /// Adopts a caller-owned `Vec` without copying. The buffer keeps its
    /// original (possibly unaligned) placement and is *not* recycled on
    /// drop — this is the cold-path constructor for data loaded from disk
    /// or built element-by-element.
    #[must_use]
    pub fn from_vec(data: Vec<f32>) -> Self {
        let len = data.len();
        Storage {
            buf: data,
            off: 0,
            len,
        }
    }

    /// Copies a slice into a fresh aligned arena buffer.
    #[must_use]
    pub fn from_slice(data: &[f32]) -> Self {
        let mut s = Storage::uninit(data.len());
        s.copy_from_slice(data);
        s
    }

    /// Logical element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the logical window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the logical window.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.buf[self.off..self.off + self.len]
    }

    /// Mutable view of the logical window.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.off..self.off + self.len]
    }

    /// Whether the logical window starts on a 32-byte boundary. Always true
    /// for arena-allocated buffers; incidental for adopted ones.
    #[must_use]
    pub fn is_aligned(&self) -> bool {
        let addr = self.as_slice().as_ptr() as usize;
        self.len == 0 || addr % ALIGN_BYTES == 0
    }

    /// Copies the logical window into a plain `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<f32> {
        self.as_slice().to_vec()
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        // Only arena-shaped buffers (over-allocated by exactly PAD) are
        // recycled; adopted `from_vec` buffers free normally.
        if self.buf.len() == self.len + PAD {
            let buf = std::mem::take(&mut self.buf);
            ARENA.with(|a| a.borrow_mut().give(self.len, buf));
        }
    }
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        Storage::from_slice(self.as_slice())
    }
}

impl Deref for Storage {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl DerefMut for Storage {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Storage")
            .field("len", &self.len)
            .field("aligned", &self.is_aligned())
            .finish()
    }
}

impl From<Vec<f32>> for Storage {
    fn from(data: Vec<f32>) -> Self {
        Storage::from_vec(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_allocations_are_aligned() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 1000] {
            let s = Storage::uninit(len);
            assert!(s.is_aligned(), "len {len} not aligned");
            assert_eq!(s.len(), len);
        }
    }

    #[test]
    fn zeroed_reads_as_zeros_even_after_recycling() {
        set_arena_enabled(true);
        {
            let mut s = Storage::uninit(64);
            s.fill(7.0);
        } // recycled with stale contents
        let z = Storage::zeroed(64);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn drop_then_alloc_reuses_buffer() {
        set_arena_enabled(true);
        clear_arena();
        reset_stats();
        drop(Storage::uninit(1234));
        let (_, fresh_before) = stats();
        let _s = Storage::uninit(1234);
        let (reuse, fresh) = stats();
        assert_eq!(fresh, fresh_before, "second alloc must not be fresh");
        assert!(reuse >= 1);
    }

    #[test]
    fn adopted_vec_is_not_recycled_and_roundtrips() {
        set_arena_enabled(true);
        clear_arena();
        let s = Storage::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0]);
        let before = retained_bytes();
        drop(s);
        assert_eq!(retained_bytes(), before, "adopted buffers free normally");
    }

    #[test]
    fn disabled_arena_always_allocates_fresh() {
        set_arena_enabled(false);
        reset_stats();
        drop(Storage::uninit(99));
        let _s = Storage::uninit(99);
        let (reuse, fresh) = stats();
        assert_eq!(reuse, 0);
        assert_eq!(fresh, 2);
        set_arena_enabled(true);
    }

    #[test]
    fn clone_copies_into_aligned_buffer() {
        let a = Storage::from_vec(vec![1.5, -2.5, 3.25]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(b.is_aligned());
    }
}
