//! # dance-campaign
//!
//! Co-search **campaign** orchestration: many seeded guarded DANCE
//! searches over a λ₂ × dataset × hardware-envelope grid, folded into one
//! incremental Pareto frontier and streamed as NDJSON `frontier_update`
//! events.
//!
//! A single `dance_search_guarded` run answers "what architecture does this
//! λ₂ find?". A campaign answers the paper's real question — "what does the
//! accuracy/cost *frontier* look like?" — by sweeping the trade-off knob,
//! the data distribution, and the deployment envelope in one resumable,
//! observable unit:
//!
//! - [`grid`]: the cross product of axes; per-cell seeds are pure functions
//!   of coordinates so every re-run is bit-identical, and each cell is one
//!   `dance-fleet` job.
//! - [`runner`]: the orchestrator. A `dance-fleet` fleet under the
//!   campaign root runs the cells; each finished cell's per-epoch design
//!   points are priced and folded on the caller's thread (see
//!   [`dance::pareto::Frontier`]). The fleet's ledger is the campaign's
//!   only durable record, which makes `--resume` reproduce an
//!   uninterrupted run's frontier digest bit for bit.
//! - [`events`]: the append-only replayable event log behind the
//!   `campaign/stream` endpoint in `dance-serve` and the CLI `--stream`
//!   printer.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dance_campaign::prelude::*;
//!
//! let spec = CampaignSpec::smoke("results/campaigns/demo".into(), 4);
//! let log = Arc::new(EventLog::new());
//! let cancel = Arc::new(CancelToken::new());
//! let out = run_campaign(&spec, false, &log, &cancel).expect("campaign runs");
//! println!("frontier-digest: {:016x}", out.digest());
//! ```

pub mod events;
pub mod grid;
pub mod runner;

/// The campaign API surface.
pub mod prelude {
    pub use crate::events::{render_campaign_end, render_frontier_update, EventLog, Waited};
    pub use crate::grid::{cell_seed, dedup_key, CampaignSpec, Cell, Envelope};
    pub use crate::runner::{run_campaign, CampaignOutcome, CancelToken};
}

pub use prelude::*;
