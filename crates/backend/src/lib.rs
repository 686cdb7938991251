//! # dance-backend
//!
//! The parallel compute backend for the DANCE search hot path.
//!
//! Three pieces:
//!
//! * [`pool`] — a persistent, work-stealing-free chunked worker pool sized by
//!   the `DANCE_THREADS` environment variable (default: all available cores;
//!   `1` reproduces the original single-thread behaviour exactly).
//! * [`kernels`] — the compute kernels the autograd `Tensor` ops dispatch
//!   through: one loop nest per op, run inline for small problems and
//!   chunked on the pool for large ones, **bit-identical** at any thread
//!   count.
//! * [`storage`] — the aligned, arena-recycled [`Storage`] buffer every
//!   kernel output lives in (32-byte alignment, recycle-on-drop arena,
//!   `DANCE_ARENA=off` escape hatch).
//!
//! The determinism contract (see [`kernels`] module docs) is what lets the
//! rest of the stack adopt parallelism without disturbing checkpoint resume
//! digests, serve cache byte-replay, or seed-tuned test expectations.
//!
//! Service threads elsewhere in the workspace (serve's predict collector and
//! the fleet's search workers) are spawned through [`spawn_service`] so thread
//! creation stays auditable in one place (the `raw-spawn` source-lint rule
//! enforces this).

pub mod kernels;
pub mod pool;
pub mod storage;

pub use kernels::{BinaryOp, Data, UnaryOp};
pub use pool::{run, set_threads, threads};
pub use storage::{arena_enabled, set_arena_enabled, Storage};

/// Spawns a named long-lived service thread.
///
/// This is the sanctioned escape hatch for threads that are *not* kernel
/// chunks — connection handlers, collectors, job workers. Keeping every
/// spawn site behind this function (enforced by the `raw-spawn` lint) means
/// the thread inventory of the whole system is greppable from one symbol.
pub fn spawn_service<F>(name: &str, f: F) -> std::io::Result<std::thread::JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new().name(name.to_string()).spawn(f)
}
