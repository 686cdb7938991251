#![warn(missing_docs)]

//! # dance-serve
//!
//! A concurrent cost-query & search-job service over the DANCE stack —
//! the serving tier the ROADMAP's "heavy traffic" north star asks for.
//! Zero external dependencies: a thread-per-connection TCP server speaking
//! newline-delimited JSON (protocol schema v1, see [`proto`]).
//!
//! Endpoint families:
//!
//! * **`cost/analytic`** — exact per-layer dataflow cost of a discrete
//!   (architecture, accelerator-config) pair through `dance-cost`,
//!   executed inline under [`queue::Admission`] control;
//! * **`cost/predict`** — learned-evaluator metrics + hardware-generation
//!   read-out, with concurrent requests coalesced into micro-batches by
//!   [`batch::PredictBatcher`] to amortize forward passes;
//! * **`fleet/submit|status|drain`** — guarded search jobs, each a
//!   `dance-fleet` `JobSpec` submitted unchanged to one lease-supervised
//!   supervisor ([`fleet::FleetTable`]) over a durable job ledger with
//!   per-epoch checkpoints; `fleet/status` reports a finished job's
//!   result. Submission is idempotent (the job id is the spec digest), so
//!   client retries after transport failures cannot duplicate work;
//!   per-worker health and lease-recovery counters surface under `health`;
//! * **`campaign/submit|status|stream|cancel`** — co-search campaigns
//!   ([`campaign::CampaignTable`]) orchestrated by `dance-campaign`, with
//!   `campaign/stream` holding the connection open and writing NDJSON
//!   `frontier_update` events (replayable from any offset via `from`).
//!
//! Cross-cutting: a sharded LRU response cache ([`cache::ResponseCache`])
//! keyed on quantized payloads whose hits replay **bit-identical** bytes,
//! bounded queues everywhere with `503 Overloaded` shedding instead of
//! unbounded growth, per-request queue-wait deadlines, graceful drain via
//! `admin/shutdown`, a `health` endpoint surfacing guard/queue/cache/fleet
//! state, and full `dance-telemetry` instrumentation (per-endpoint spans,
//! queue-depth gauges, cache hit/miss counters). Every mutex follows the
//! workspace single-lock rule that `dance-analyze --concurrency` checks:
//! at most one guard is live at a time, never across a queue wait, pool
//! dispatch or I/O.
//!
//! ## Quick start
//!
//! ```no_run
//! use dance_serve::{Server, ServeConfig};
//! let server = Server::bind(&ServeConfig::default()).expect("bind");
//! println!("listening on {}", server.local_addr());
//! server.run().expect("serve"); // returns after a graceful drain
//! ```
//!
//! The `dance_serve` binary wraps exactly this; `serve_load` is the
//! closed-loop load generator that feeds `BENCH_serve.json`.

pub mod batch;
pub mod cache;
pub mod campaign;
pub mod client;
pub mod fleet;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::Client;
pub use server::{ServeConfig, Server};
