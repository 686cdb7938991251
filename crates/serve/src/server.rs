//! The TCP server: accept loop, per-connection threads, dispatch, drain.
//!
//! Thread-per-connection with 100 ms read polls so every connection loop
//! observes the drain flag promptly. Dispatch routes each parsed request
//! through the response cache, then to its endpoint family: analytic cost
//! queries run inline under [`Admission`] control, predictions go through
//! the micro-batch collector, and `fleet/*` jobs go to the one fleet
//! supervisor ([`FleetTable`]). A graceful drain (the
//! `admin/shutdown` op) stops the accept loop, sheds new work with `503`,
//! lets in-flight work finish, and only then joins the batcher and the
//! fleet's workers — so a kill mid-drain can at worst lose a response,
//! never tear a checkpoint, ledger or run log (those writes are atomic
//! temp+rename on the `dance-guard` side). Jobs still pending at the drain
//! stay in the fleet ledger and run when a server restarts over the same
//! `fleet_root`.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dance_accel::space::HardwareSpace;
use dance_accel::workload::{NetworkTemplate, SlotChoice};
use dance_cost::model::{CostModel, Detail};
use dance_evaluator::cost_net::CostNet;
use dance_evaluator::evaluator::Evaluator;
use dance_evaluator::hwgen_net::{HeadSampling, HwGenNet};
use dance_telemetry::json::{self, push_num, Json};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dance_campaign::prelude::{CampaignSpec, Envelope, EventLog, Waited};

use crate::batch::{BatchConfig, PredictBatcher};
use crate::cache::ResponseCache;
use crate::campaign::CampaignTable;
use crate::client::LineReader;
use crate::fleet::{push_health, FleetTable};
use crate::proto::{
    self, cache_key, parse_request, render_err, render_ok, ProtoError, ReqBody, Request,
};
use crate::queue::Admission;

/// Max analytic queries queued behind the in-flight ones.
const MAX_WAITING: usize = 64;
/// Response-cache shard count.
const CACHE_SHARDS: usize = 8;
/// Seed for the served evaluator's (untrained) weights — fixed so the same
/// build serves identical predictions across restarts.
const EVAL_SEED: u64 = 0;
/// Hidden width of the served evaluator networks.
const EVAL_WIDTH: usize = 16;

/// Server tuning knobs; [`Default`] is sized for the dev machine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Max concurrently executing analytic queries.
    pub max_inflight: usize,
    /// Queue-wait budget applied when a request carries no `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Fleet jobs that may wait for a worker; a new spec beyond that sheds
    /// with `503`.
    pub job_queue: usize,
    /// Response-cache entries (across all shards).
    pub cache_capacity: usize,
    /// Unused: search jobs run on the fleet and checkpoint under
    /// `fleet_root`. Kept because `perfbench` sets it.
    pub ckpt_root: std::path::PathBuf,
    /// Root directory for campaigns: each runs its cells on its own fleet
    /// under `<campaign_root>/<campaign-id>/` (a `ledger/` and per-job
    /// checkpoints in `ckpt/<job-id>/`).
    pub campaign_root: std::path::PathBuf,
    /// Fleet worker threads, each running one `fleet/*` job at a time.
    pub fleet_workers: usize,
    /// Root directory for the fleet's job ledger and checkpoints.
    pub fleet_root: std::path::PathBuf,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_inflight: 8,
            default_deadline_ms: 100,
            job_queue: 16,
            cache_capacity: 4096,
            ckpt_root: std::env::temp_dir().join("dance_serve_jobs"),
            campaign_root: std::env::temp_dir().join("dance_serve_campaigns"),
            fleet_workers: 1,
            fleet_root: std::env::temp_dir().join("dance_serve_fleet"),
        }
    }
}

/// State shared by the accept loop and every connection thread.
#[derive(Debug)]
struct Shared {
    cache: ResponseCache,
    admission: Admission,
    batcher: PredictBatcher,
    campaigns: CampaignTable,
    fleet: FleetTable,
    model: CostModel,
    template: NetworkTemplate,
    space: HardwareSpace,
    drain: AtomicBool,
    active_conns: AtomicUsize,
    requests_served: AtomicU64,
    default_deadline: Duration,
}

/// A running (bound but not yet serving) protocol-v1 server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and spins up the batcher and the fleet.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, fails when the served evaluator cannot be
    /// frozen into the predict plan, and fails, naming the fleet root, when
    /// the fleet cannot start.
    pub fn bind(cfg: &ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let arch_width = proto::NUM_SLOTS * proto::NUM_CHOICES;
        let mut rng = StdRng::seed_from_u64(EVAL_SEED);
        let hwgen = HwGenNet::new(arch_width, EVAL_WIDTH, &mut rng);
        let cost_net = CostNet::new(
            arch_width + dance_accel::space::ENCODED_WIDTH,
            EVAL_WIDTH,
            &mut rng,
        );
        let evaluator = Evaluator::with_feature_forwarding(
            hwgen,
            cost_net,
            arch_width,
            HeadSampling::Softmax { tau: 1.0 },
        );
        // Started first, so a freeze error returns before any other worker
        // thread exists; a fleet that cannot start stops it again.
        let batcher =
            PredictBatcher::start(&evaluator, BatchConfig::default()).map_err(io::Error::other)?;
        let fleet = FleetTable::start(cfg).inspect_err(|_| batcher.shutdown())?;
        let shared = Arc::new(Shared {
            cache: ResponseCache::new(cfg.cache_capacity, CACHE_SHARDS),
            admission: Admission::new(cfg.max_inflight, MAX_WAITING),
            batcher,
            campaigns: CampaignTable::new(cfg.campaign_root.clone()),
            fleet,
            model: CostModel::new(),
            template: NetworkTemplate::cifar10(),
            space: HardwareSpace::new(),
            drain: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            requests_served: AtomicU64::new(0),
            default_deadline: Duration::from_millis(cfg.default_deadline_ms),
        });
        Ok(Self {
            listener,
            local_addr,
            shared,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Flips the drain flag, as the `admin/shutdown` op does.
    pub fn request_drain(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
    }

    /// Serves until drained: accepts connections, spawns one thread each,
    /// and — once `admin/shutdown` arrives — stops accepting, waits for
    /// every connection to finish, then drains and joins the batcher and
    /// the fleet's workers.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        dance_telemetry::counter!("serve.started");
        while !self.shared.drain.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = self.shared.clone();
                    shared.active_conns.fetch_add(1, Ordering::SeqCst);
                    dance_telemetry::counter!("serve.connections");
                    if std::thread::Builder::new()
                        .name("serve-conn".into())
                        // lint: allow(raw-spawn) accept loop: conn threads block on socket I/O, must not occupy pool workers
                        .spawn(move || handle_conn(&shared, stream))
                        .is_err()
                    {
                        self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    eprintln!("warning: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
            dance_telemetry::gauge!(
                "serve.active_connections",
                self.shared.active_conns.load(Ordering::SeqCst) as f64
            );
        }
        // Drain: connection loops observe the flag within one read poll.
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shared.batcher.shutdown();
        self.shared.campaigns.shutdown();
        self.shared.fleet.shutdown();
        dance_telemetry::counter!("serve.drained");
        dance_telemetry::gauge!(
            "serve.requests_total",
            self.shared.requests_served.load(Ordering::SeqCst) as f64
        );
        Ok(())
    }
}

/// Decrements the connection gauge even if the handler panics.
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    let _guard = ConnGuard(shared);
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(read_half);
    let mut writer = stream;
    loop {
        match reader.read_line() {
            Ok(Some(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                match handle_line(shared, &line) {
                    Reply::Line(mut resp) => {
                        resp.push('\n');
                        if writer.write_all(resp.as_bytes()).is_err() || writer.flush().is_err() {
                            return;
                        }
                    }
                    Reply::Stream { header, log, from } => {
                        if !stream_events(shared, &mut writer, &header, &log, from) {
                            return;
                        }
                    }
                }
            }
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Read poll tick: exit once draining, otherwise keep waiting.
                if shared.drain.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Writes the streaming OK header, replays the log from `from`, then
/// follows it live until it finishes or the server drains. The stream is
/// framed by the `campaign_end` event (the log's final line); afterwards
/// the connection returns to ordinary request/response framing.
///
/// Returns `false` when the connection is no longer usable.
fn stream_events(
    shared: &Shared,
    writer: &mut TcpStream,
    header: &str,
    log: &EventLog,
    from: usize,
) -> bool {
    let mut line = String::with_capacity(header.len() + 1);
    line.push_str(header);
    line.push('\n');
    if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
        return false;
    }
    let mut seq = from;
    loop {
        // 100 ms follow poll — the same cadence as the read loop, so drain
        // is observed promptly even when the campaign is quiet.
        match log.wait_next(seq, Duration::from_millis(100)) {
            Waited::Line(event) => {
                dance_telemetry::counter!("serve.campaign.events_streamed");
                let mut out = event;
                out.push('\n');
                if writer.write_all(out.as_bytes()).is_err() || writer.flush().is_err() {
                    return false;
                }
                seq += 1;
            }
            Waited::Done => return true,
            Waited::TimedOut => {
                if shared.drain.load(Ordering::SeqCst) {
                    // Cut the stream; the client sees EOF-before-end and
                    // can re-attach with `from: seq` after the restart.
                    return false;
                }
            }
        }
    }
}

/// What one request line produces: a single response line, or a response
/// header followed by an event stream the connection loop writes out.
enum Reply {
    /// Ordinary one-line response.
    Line(String),
    /// Streaming response: the OK header line, then the campaign's event
    /// lines from sequence number `from` until the log finishes.
    Stream {
        header: String,
        log: Arc<EventLog>,
        from: usize,
    },
}

/// Parses, caches, dispatches and renders one request line.
fn handle_line(shared: &Shared, line: &str) -> Reply {
    let t0 = Instant::now();
    shared.requests_served.fetch_add(1, Ordering::Relaxed);
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            dance_telemetry::counter!("serve.req.bad");
            // Echo the id whenever the refused line carried a string one.
            let id = json::parse(line)
                .ok()
                .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            return Reply::Line(render_err(&id, &e));
        }
    };
    // Streaming ops bypass the cache entirely: a stream is a live
    // subscription, never a replayable payload.
    if let ReqBody::CampaignStream { campaign, from } = &req.body {
        return match shared.campaigns.log(campaign) {
            Ok(log) => Reply::Stream {
                header: render_ok(&req.id, "\"streaming\":true"),
                log,
                from: *from,
            },
            Err(e) => Reply::Line(render_err(&req.id, &e)),
        };
    }
    let key = cache_key(&req.body);
    if let Some(k) = &key {
        if let Some(hit) = shared.cache.get(k) {
            return Reply::Line(render_ok(&req.id, &hit));
        }
    }
    let out = dispatch(shared, &req);
    dance_telemetry::histogram!("serve.request_us", t0.elapsed().as_secs_f64() * 1e6);
    Reply::Line(match out {
        Ok(payload) => {
            if let Some(k) = key {
                shared.cache.insert(k, payload.clone());
            }
            render_ok(&req.id, &payload)
        }
        Err(e) => render_err(&req.id, &e),
    })
}

fn dispatch(shared: &Shared, req: &Request) -> Result<String, ProtoError> {
    let draining = shared.drain.load(Ordering::SeqCst);
    let deadline = req
        .deadline_ms
        .map_or(shared.default_deadline, Duration::from_millis);
    match &req.body {
        ReqBody::CostAnalytic {
            choices,
            cfg,
            detail,
        } => {
            if draining {
                return Err(ProtoError::overloaded("server is draining"));
            }
            let _span = dance_telemetry::hot_span!("serve.analytic");
            let _permit = shared.admission.acquire(deadline)?;
            analytic_payload(shared, choices, *cfg, *detail)
        }
        ReqBody::CostPredict { arch } => {
            if draining {
                return Err(ProtoError::overloaded("server is draining"));
            }
            let _span = dance_telemetry::hot_span!("serve.predict");
            let rx = shared.batcher.submit(arch.clone())?;
            rx.recv_timeout(deadline.max(Duration::from_secs(5)))
                .map_err(|_| ProtoError::internal("predict collector did not answer"))?
        }
        ReqBody::CampaignSubmit {
            lambda2,
            dataset_seeds,
            envelopes,
            epochs,
            batch,
            seed,
            max_concurrency,
        } => {
            if draining {
                return Err(ProtoError::overloaded("server is draining"));
            }
            let envelopes = envelopes
                .iter()
                .map(|name| {
                    Envelope::by_name(name).ok_or_else(|| {
                        ProtoError::bad_request(format!(
                            "unknown envelope {name:?} (expected `full` or `edge`)"
                        ))
                    })
                })
                .collect::<Result<Vec<Envelope>, ProtoError>>()?;
            let spec = CampaignSpec {
                name: String::new(), // assigned by the table
                lambda2: lambda2.clone(),
                dataset_seeds: dataset_seeds.clone(),
                envelopes,
                epochs: *epochs,
                batch_size: *batch,
                seed: *seed,
                root: std::path::PathBuf::new(), // assigned by the table
                max_concurrency: *max_concurrency,
            };
            let id = shared.campaigns.submit(spec)?;
            let mut payload = String::with_capacity(32);
            payload.push_str("\"campaign\":");
            dance_telemetry::json::push_escaped(&mut payload, &id);
            Ok(payload)
        }
        ReqBody::CampaignStatus { campaign } => shared.campaigns.status(campaign),
        ReqBody::CampaignStream { .. } => {
            // Routed to a streaming reply in `handle_line`; reaching this
            // arm means a bug in the routing above.
            Err(ProtoError::internal("stream op dispatched as a line op"))
        }
        ReqBody::CampaignCancel { campaign } => {
            shared.campaigns.cancel(campaign)?;
            Ok("\"cancelling\":true".into())
        }
        ReqBody::FleetSubmit { spec } => {
            if draining {
                return Err(ProtoError::overloaded("server is draining"));
            }
            shared.fleet.submit(*spec)
        }
        ReqBody::FleetStatus { job } => shared.fleet.status(job),
        ReqBody::FleetDrain => Ok(shared.fleet.drain()),
        ReqBody::Health => Ok(health_payload(shared)),
        ReqBody::Shutdown => {
            shared.drain.store(true, Ordering::SeqCst);
            dance_telemetry::counter!("serve.shutdown_requested");
            Ok("\"draining\":true".into())
        }
    }
}

fn analytic_payload(
    shared: &Shared,
    choices: &[u8],
    cfg_idx: usize,
    detail: bool,
) -> Result<String, ProtoError> {
    if cfg_idx >= shared.space.len() {
        return Err(ProtoError::bad_request(format!(
            "`cfg` must be < {}",
            shared.space.len()
        )));
    }
    let choices: Vec<SlotChoice> = choices
        .iter()
        .map(|c| SlotChoice::from_index(usize::from(*c)))
        .collect();
    let mut payload = String::with_capacity(if detail { 512 } else { 96 });
    let total = if detail {
        let net = shared.template.instantiate(&choices);
        let eval = shared
            .model
            .evaluate(&net, &shared.space.config_at(cfg_idx), Detail::PerLayer);
        let layers = eval.layers.unwrap_or_default();
        payload.push_str("\"layers\":[");
        for (i, lc) in layers.iter().enumerate() {
            if i > 0 {
                payload.push(',');
            }
            payload.push_str("{\"cycles\":");
            push_num(&mut payload, lc.cycles as f64);
            payload.push_str(",\"energy_pj\":");
            push_num(&mut payload, lc.energy_pj);
            payload.push('}');
        }
        payload.push_str("],");
        eval.total
    } else {
        dance_hwgen::table::cost_direct(
            &shared.template,
            &shared.model,
            &shared.space,
            &choices,
            cfg_idx,
        )
    };
    payload.push_str("\"latency_ms\":");
    push_num(&mut payload, total.latency_ms);
    payload.push_str(",\"energy_mj\":");
    push_num(&mut payload, total.energy_mj);
    payload.push_str(",\"area_mm2\":");
    push_num(&mut payload, total.area_mm2);
    payload.push_str(",\"edap\":");
    push_num(&mut payload, total.edap());
    Ok(payload)
}

fn health_payload(shared: &Shared) -> String {
    let cache = shared.cache.stats();
    let fleet = shared.fleet.counts();
    let guard = &fleet.guard;
    let mut p = String::with_capacity(256);
    p.push_str("\"draining\":");
    p.push_str(if shared.drain.load(Ordering::SeqCst) {
        "true"
    } else {
        "false"
    });
    p.push_str(",\"connections\":");
    push_num(&mut p, shared.active_conns.load(Ordering::SeqCst) as f64);
    p.push_str(",\"cache\":{\"entries\":");
    push_num(&mut p, cache.entries as f64);
    p.push_str(",\"hits\":");
    push_num(&mut p, cache.hits as f64);
    p.push_str(",\"misses\":");
    push_num(&mut p, cache.misses as f64);
    p.push_str(",\"hit_rate\":");
    push_num(&mut p, cache.hit_rate());
    p.push_str("},\"queues\":{\"predict\":");
    push_num(&mut p, shared.batcher.depth() as f64);
    p.push_str(",\"jobs\":");
    push_num(&mut p, fleet.pending as f64);
    p.push_str(",\"admission_active\":");
    push_num(&mut p, shared.admission.active() as f64);
    p.push_str(",\"admission_waiting\":");
    push_num(&mut p, shared.admission.waiting() as f64);
    let camps = shared.campaigns.counts();
    p.push_str("},\"campaigns\":{\"running\":");
    push_num(&mut p, camps.running as f64);
    p.push_str(",\"done\":");
    push_num(&mut p, camps.done as f64);
    p.push_str(",\"failed\":");
    push_num(&mut p, camps.failed as f64);
    p.push_str("},\"fleet\":{");
    push_health(&mut p, &fleet);
    p.push_str("},\"guard\":{\"enabled\":");
    p.push_str(if dance_guard::enabled() {
        "true"
    } else {
        "false"
    });
    p.push_str(",\"watchdog_trips\":");
    push_num(&mut p, f64::from(guard.watchdog_trips));
    p.push_str(",\"rollbacks\":");
    push_num(&mut p, f64::from(guard.rollbacks));
    p.push_str(",\"cost_model_degraded\":");
    p.push_str(if guard.cost_model_degraded {
        "true"
    } else {
        "false"
    });
    p.push_str(",\"checkpoints_written\":");
    push_num(&mut p, f64::from(guard.checkpoints_written));
    p.push_str("},\"backend\":{\"threads\":");
    push_num(&mut p, dance_backend::threads() as f64);
    p.push('}');
    p
}
