//! The search executor behind `fleet/*`: one [`dance_fleet`] in-process
//! supervisor.
//!
//! Submission is idempotent by construction — the job id is the digest of
//! the spec, so a client retrying a submit after a transport failure lands
//! on the same job instead of spawning a duplicate search. That is what
//! makes `fleet/submit` safe under the client's retry policy while
//! `campaign/submit` is not. New specs shed with `503` while
//! `ServeConfig::job_queue` jobs wait for a worker; a known spec always
//! gets its id back.

use std::io;

use dance_fleet::prelude::{Fleet, FleetCounts, FleetOpts, JobSpec, SubmitError};
use dance_telemetry::json::{push_escaped, push_num};

use crate::proto::ProtoError;
use crate::server::ServeConfig;

/// Fleet lease TTL. Heartbeats fire per epoch, so this must exceed one
/// epoch's wall time or healthy workers get reclaimed.
const LEASE_TTL_MS: u64 = 4_000;

/// The server's handle on its fleet supervisor.
pub struct FleetTable {
    fleet: Fleet,
}

impl std::fmt::Debug for FleetTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTable").finish_non_exhaustive()
    }
}

impl FleetTable {
    /// Starts the fleet under `cfg.fleet_root` (ledger + checkpoints) with
    /// `cfg.fleet_workers` workers, bounded at `cfg.job_queue` pending jobs.
    ///
    /// # Errors
    ///
    /// Fails, naming the fleet root, when the ledger or checkpoint
    /// directory cannot be created or opened.
    pub fn start(cfg: &ServeConfig) -> io::Result<Self> {
        let opts = FleetOpts::new(cfg.fleet_root.clone())
            .with_workers(cfg.fleet_workers)
            .with_lease_ttl_ms(LEASE_TTL_MS)
            .with_max_pending(cfg.job_queue);
        let fleet = Fleet::start(opts).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("fleet root {}: {e}", cfg.fleet_root.display()),
            )
        })?;
        Ok(Self { fleet })
    }

    /// Submits a job spec; the payload is its `job` id and whether the
    /// spec was already known (`deduped`).
    ///
    /// # Errors
    ///
    /// `400` for a spec that fails validation, `503` when the fleet is
    /// draining or full.
    pub fn submit(&self, spec: JobSpec) -> Result<String, ProtoError> {
        let (job, deduped) = self.fleet.submit(spec).map_err(|e| match e {
            SubmitError::Invalid(_) => ProtoError::bad_request(e.to_string()),
            SubmitError::Draining | SubmitError::Full => ProtoError::overloaded(e.to_string()),
        })?;
        let mut out = String::new();
        out.push_str("\"job\":");
        push_escaped(&mut out, &job);
        out.push_str(",\"deduped\":");
        out.push_str(if deduped { "true" } else { "false" });
        Ok(out)
    }

    /// The `fleet/status` payload: state, attempt, worker and error, and
    /// for a finished job its digest, epochs run, choices, final entropy
    /// and the guard counters of the attempt that finished it.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn status(&self, job: &str) -> Result<String, ProtoError> {
        let view = self
            .fleet
            .status(job)
            .ok_or_else(|| ProtoError::not_found(format!("unknown job {job:?}")))?;
        let mut out = String::with_capacity(256);
        out.push_str("\"job\":");
        push_escaped(&mut out, &view.id);
        out.push_str(",\"state\":");
        push_escaped(&mut out, &view.state);
        out.push_str(&format!(",\"attempt\":{}", view.attempt));
        if let Some(worker) = &view.worker {
            out.push_str(",\"worker\":");
            push_escaped(&mut out, worker);
        }
        if let Some(r) = &view.result {
            out.push_str(",\"digest\":");
            push_escaped(&mut out, &format!("{:016x}", r.digest));
            out.push_str(&format!(",\"ran\":{}", r.epochs));
            out.push_str(",\"choices\":[");
            for (i, c) in r.choices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_num(&mut out, f64::from(*c));
            }
            out.push(']');
            if let Some(bits) = r.final_entropy_bits {
                out.push_str(",\"final_entropy\":");
                push_num(&mut out, f64::from(f32::from_bits(bits)));
            }
            out.push_str(&format!(
                ",\"guard\":{{\"watchdog_trips\":{},\"rollbacks\":{},\"checkpoints_written\":{}}}",
                r.guard.watchdog_trips, r.guard.rollbacks, r.guard.checkpoints_written
            ));
        }
        if let Some(error) = &view.error {
            out.push_str(",\"error\":");
            push_escaped(&mut out, error);
        }
        Ok(out)
    }

    /// Stops accepting new jobs; in-flight jobs run to completion.
    pub fn drain(&self) -> String {
        self.fleet.drain();
        let mut out = String::from("\"draining\":true,");
        push_health(&mut out, &self.fleet.counts());
        out
    }

    /// One snapshot of the fleet for `health`.
    #[must_use]
    pub fn counts(&self) -> FleetCounts {
        self.fleet.counts()
    }

    /// Shuts the supervisor down: running attempts finish, pending jobs
    /// stay in the ledger, and the worker threads are joined.
    pub fn shutdown(&self) {
        self.fleet.shutdown();
    }
}

/// Appends the fleet's health fields: job counts, lease-recovery counters
/// and per-worker state.
pub(crate) fn push_health(out: &mut String, c: &FleetCounts) {
    out.push_str(&format!(
        "\"jobs\":{{\"pending\":{},\"leased\":{},\"done\":{},\"failed\":{}}}",
        c.pending, c.leased, c.done, c.failed
    ));
    out.push_str(&format!(
        ",\"reclaims\":{},\"fenced\":{},\"recoveries\":{}",
        c.reclaims,
        c.fenced,
        c.recoveries_ms.len()
    ));
    out.push_str(",\"workers\":[");
    for (i, (name, health)) in c.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_escaped(out, name);
        out.push_str(",\"state\":");
        push_escaped(out, &health.state);
        if let Some(job) = &health.job {
            out.push_str(",\"job\":");
            push_escaped(out, job);
        }
        out.push_str(&format!(",\"done\":{}", health.done));
        out.push('}');
    }
    out.push(']');
}
