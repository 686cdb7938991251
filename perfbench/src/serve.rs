//! `serve_mixed`: closed-loop mixed traffic against `dance-serve`.
//!
//! The server runs in this process with `ServeConfig::default()` on an
//! ephemeral loopback port; only its job, campaign and fleet directories
//! are redirected into the benchmark's scratch directory. One client
//! connection per core, each on its own thread, sends its next request as
//! soon as the previous answer arrives (a closed loop). The timed unit is
//! one answered request; throughput is sampled per [`WINDOW_S`] window.
//!
//! The request mix is `serve_load --mix mixed`'s: of its 320-payload pool,
//! 256 are `cost/analytic`, 48 `cost/predict` and 16 `health`. Here 5% of
//! requests are `health` and the rest are drawn uniformly from a seeded
//! pool of 2 × the cache capacity distinct cacheable payloads, 256/304
//! analytic and 48/304 predict, so hits and misses both carry weight.
//! With one connection per core a predict miss rarely finds a partner to
//! batch with, so it waits out the collector's 1 ms window: that timer,
//! not the plan, takes most of the load's time. This is a property of the
//! mix at this concurrency and is reported as measured.
//! Set-up sends every payload once, so timing starts from the cache's
//! steady state. Every response must be `ok`, and every answer to a
//! repeated payload must be byte-identical to the first answer this
//! connection got for it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dance_serve::client::ClientConfig;
use dance_serve::proto::{ReqBody, Request, NUM_CHOICES, NUM_SLOTS};
use dance_serve::{Client, ServeConfig, Server};
use dance_telemetry::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::{ensure, median, quantile, scratch_dir, Checks, Metrics};
use crate::E2e;

/// Percent of requests that are `health` probes (16 of `serve_load`'s 320).
const HEALTH_PCT: u32 = 5;
/// `cost/analytic` and `cost/predict` payloads in `serve_load`'s mixed pool.
const ANALYTIC_SHARE: usize = 256;
const PREDICT_SHARE: usize = 48;
/// Throughput is sampled per window of this many seconds.
const WINDOW_S: f64 = 0.5;

/// A server running on a background thread.
struct Harness {
    addr: SocketAddr,
    root: PathBuf,
    server: JoinHandle<std::io::Result<()>>,
}

impl Harness {
    fn start(tag: usize) -> Result<Self, String> {
        let root = scratch_dir().join(format!("serve-{tag}"));
        let _stale = std::fs::remove_dir_all(&root);
        let cfg = ServeConfig {
            ckpt_root: root.join("jobs"),
            campaign_root: root.join("campaigns"),
            fleet_root: root.join("fleet"),
            ..ServeConfig::default()
        };
        let server = Server::bind(&cfg).map_err(|e| format!("serve bind failed: {e}"))?;
        let addr = server.local_addr();
        let server = std::thread::Builder::new()
            .name("perfbench-serve".into())
            // lint: allow(raw-spawn) the accept loop blocks on its socket until drained
            .spawn(move || server.run())
            .map_err(|e| format!("cannot spawn the server thread: {e}"))?;
        Ok(Self { addr, root, server })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_with(self.addr, ClientConfig::default())
            .map_err(|e| format!("connect failed: {e}"))
    }

    /// `(hits, misses)` of the response cache, from the `health` endpoint.
    fn cache_counts(&self) -> Result<(f64, f64), String> {
        let resp = self
            .connect()?
            .call(&Request {
                id: "stats".into(),
                deadline_ms: None,
                body: ReqBody::Health,
            })
            .map_err(|e| format!("health probe failed: {e}"))?;
        let field = |name: &str| {
            resp.get("cache")
                .and_then(|c| c.get(name))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("health response lacks cache.{name}"))
        };
        Ok((field("hits")?, field("misses")?))
    }

    /// Requests a graceful drain and waits for the server to finish. Every
    /// client must be dropped first: the drain waits for open connections.
    fn stop(self) -> Result<(), String> {
        let sent = self.connect().and_then(|mut c| {
            c.call_raw(&Request {
                id: "drain".into(),
                deadline_ms: None,
                body: ReqBody::Shutdown,
            })
            .map_err(|e| format!("shutdown request failed: {e}"))
        });
        // Without a drain request the server never returns; joining it
        // would hang the run, so only a drained server is joined.
        let stopped = sent.and_then(|_| {
            self.server
                .join()
                .map_err(|_| "server thread panicked".to_string())
                .and_then(|r| r.map_err(|e| format!("server error: {e}")))
        });
        let _cleaned = std::fs::remove_dir_all(&self.root);
        stopped
    }
}

/// The seeded payload pool: `2 × cache_capacity` distinct cacheable bodies,
/// analytic first, then predict, in `serve_load`'s proportion.
fn payload_pool(seed: u64) -> Vec<ReqBody> {
    let n = 2 * ServeConfig::default().cache_capacity;
    let n_analytic = n * ANALYTIC_SHARE / (ANALYTIC_SHARE + PREDICT_SHARE);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_7E);
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let body = if pool.len() >= n_analytic {
            ReqBody::CostPredict {
                arch: (0..NUM_SLOTS * NUM_CHOICES)
                    .map(|_| rng.gen_range(0..1000u32) as f32 / 1000.0)
                    .collect(),
            }
        } else {
            ReqBody::CostAnalytic {
                choices: (0..NUM_SLOTS)
                    .map(|_| rng.gen_range(0..NUM_CHOICES as u32) as u8)
                    .collect(),
                cfg: rng.gen_range(0..4335usize),
                detail: false,
            }
        };
        if seen.insert(dance_serve::proto::cache_key(&body)) {
            pool.push(body);
        }
    }
    pool
}

/// Which endpoint a request hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Analytic,
    Predict,
    Health,
}

/// What one client connection observed.
#[derive(Debug, Default)]
struct ClientLog {
    /// Answered requests per [`WINDOW_S`] window of the timed load.
    windows: Vec<u64>,
    /// Latency in microseconds per op (`Op as usize` indexed), kept by
    /// traced runs only.
    latency_us: [Vec<f64>; 3],
    shed: u64,
    checks: Checks,
}

/// One client connection and everything it checks its answers against.
struct Session {
    client: Client,
    /// The first answer this connection got for each payload index.
    first: HashMap<usize, String>,
    log: ClientLog,
    keep_latency: bool,
}

impl Session {
    /// Sends one request and checks the answer. Returns whether it was
    /// answered `ok`.
    fn request(&mut self, op: Op, key: Option<usize>, body: ReqBody) -> bool {
        let req = Request {
            id: key.map_or_else(|| "h".to_string(), |k| format!("k{k}")),
            deadline_ms: None,
            body,
        };
        let t0 = Instant::now();
        let resp = self.client.call_raw(&req);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let outcome = match resp {
            Err(e) => Err(format!("{op:?} request failed: {e}")),
            Ok(line) if !line.contains("\"ok\":true") => {
                if line.contains("\"code\":503") {
                    self.log.shed += 1;
                }
                Err(format!("{op:?} request answered {line}"))
            }
            Ok(line) => {
                if self.keep_latency {
                    self.log.latency_us[op as usize].push(us);
                }
                match key {
                    None => Ok(()),
                    Some(k) => {
                        let want = self.first.entry(k).or_insert_with(|| line.clone());
                        ensure(*want == line, || {
                            format!("replayed answer for payload {k} differs: {line} vs {want}")
                        })
                    }
                }
            }
        };
        let answered = outcome.is_ok();
        self.log.checks.record(outcome);
        answered
    }

    /// The closed loop: seeded draws from `pool` until `deadline`.
    fn run(&mut self, pool: &[ReqBody], seed: u64, start: Instant, deadline: Instant) {
        let mut rng = StdRng::seed_from_u64(seed);
        while Instant::now() < deadline {
            let answered = if rng.gen_range(0..100u32) < HEALTH_PCT {
                self.request(Op::Health, None, ReqBody::Health)
            } else {
                let k = rng.gen_range(0..pool.len());
                self.request(op_of(&pool[k]), Some(k), pool[k].clone())
            };
            if answered {
                let w = (start.elapsed().as_secs_f64() / WINDOW_S) as usize;
                if self.log.windows.len() <= w {
                    self.log.windows.resize(w + 1, 0);
                }
                self.log.windows[w] += 1;
            }
        }
    }
}

fn op_of(body: &ReqBody) -> Op {
    match body {
        ReqBody::CostPredict { .. } => Op::Predict,
        ReqBody::Health => Op::Health,
        _ => Op::Analytic,
    }
}

/// Runs `f` on every session, one thread per connection.
fn on_each(sessions: &mut [Session], f: impl Fn(usize, &mut Session) + Sync) {
    std::thread::scope(|scope| {
        for (t, session) in sessions.iter_mut().enumerate() {
            let f = &f;
            // lint: allow(raw-spawn) closed-loop clients block on their sockets, one per connection
            scope.spawn(move || f(t, session));
        }
    });
}

/// Result of one timed load phase.
#[derive(Debug, Default)]
struct Load {
    logs: Vec<ClientLog>,
    wall_s: f64,
    hit_ratio: f64,
}

impl Load {
    fn all_latency_us(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.latency_us.iter().flatten().copied())
            .collect()
    }

    fn answered(&self) -> u64 {
        self.logs.iter().flat_map(|l| l.windows.iter()).sum()
    }

    /// Answered requests per second in each whole [`WINDOW_S`] window.
    fn window_rates(&self) -> Vec<f64> {
        (0..(self.wall_s / WINDOW_S) as usize)
            .map(|w| {
                let n: u64 = self.logs.iter().filter_map(|l| l.windows.get(w)).sum();
                n as f64 / WINDOW_S
            })
            .collect()
    }

    fn op_latency_us(&self, op: Op) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.latency_us[op as usize].iter().copied())
            .collect()
    }
}

/// Drives the sessions against `h` for `seconds`.
fn run_load(
    h: &Harness,
    mut sessions: Vec<Session>,
    pool: &[ReqBody],
    seed: u64,
    seconds: f64,
) -> Result<Load, String> {
    let (hits0, misses0) = h.cache_counts()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    on_each(&mut sessions, |t, session| {
        let client_seed = seed.wrapping_mul(31).wrapping_add(t as u64);
        session.run(pool, client_seed, start, deadline);
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (hits1, misses1) = h.cache_counts()?;
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    Ok(Load {
        logs: sessions.into_iter().map(|s| s.log).collect(),
        wall_s,
        hit_ratio: hits / (hits + misses).max(1.0),
    })
}

/// The set-up a closed-loop run needs before timing: start a server,
/// connect one client per core, and send every payload of the pool once
/// (split across the connections) so the cache holds its steady state and
/// every connection has a first answer to compare replays against.
fn start_and_warm(
    tag: usize,
    pool: &[ReqBody],
    keep_latency: bool,
) -> Result<(Harness, Vec<Session>), String> {
    let h = Harness::start(tag)?;
    let mut sessions = Vec::new();
    for _ in 0..crate::nproc() {
        sessions.push(Session {
            client: h.connect()?,
            first: HashMap::new(),
            log: ClientLog::default(),
            keep_latency,
        });
    }
    let n = sessions.len();
    on_each(&mut sessions, |t, session| {
        for k in (t..pool.len()).step_by(n) {
            session.request(op_of(&pool[k]), Some(k), pool[k].clone());
        }
        session.keep_latency = keep_latency;
    });
    Ok((h, sessions))
}

fn load_checks(load: &mut Load, checks: &mut Checks) {
    for log in &mut load.logs {
        checks.absorb(std::mem::take(&mut log.checks));
    }
}

/// End-to-end: set up `setup_reps` times, then one timed load phase.
pub fn e2e(seed: u64, seconds: f64, setup_reps: usize) -> E2e {
    let mut e = E2e::default();
    let pool = payload_pool(seed);
    let mut started = None;
    for rep in 0..setup_reps.max(1) {
        if let Some((h, sessions)) = started.take() {
            drop(sessions);
            e.checks.record(Harness::stop(h));
        }
        let t0 = Instant::now();
        match start_and_warm(rep, &pool, false) {
            Ok(pair) => started = Some(pair),
            Err(msg) => {
                e.checks.record(Err(msg));
                return e;
            }
        }
        e.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (h, sessions) = started.expect("at least one set-up");
    let load = run_load(&h, sessions, &pool, seed, seconds);
    e.checks.record(Harness::stop(h));
    let mut load = match load {
        Ok(l) => l,
        Err(msg) => {
            e.checks.record(Err(msg));
            return e;
        }
    };
    load_checks(&mut load, &mut e.checks);
    println!(
        "serve_mixed: {} ok requests over {:.2}s from {} connections, cache hit share {:.3}",
        load.answered(),
        load.wall_s,
        load.logs.len(),
        load.hit_ratio
    );
    e.rates = load.window_rates();
    e
}

/// Traced run: one load phase with per-endpoint latencies, the measured
/// cache hit share and shed count.
pub fn traced(seed: u64, seconds: f64) -> (Metrics, Checks) {
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let pool = payload_pool(seed);
    let load = start_and_warm(100, &pool, true).and_then(|(h, sessions)| {
        let load = run_load(&h, sessions, &pool, seed, seconds);
        let stopped = Harness::stop(h);
        load.and_then(|l| stopped.map(|()| l))
    });
    let mut load = match load {
        Ok(l) => l,
        Err(msg) => {
            checks.record(Err(msg));
            Load::default()
        }
    };
    load_checks(&mut load, &mut checks);
    let p50 = |v: Vec<f64>| if v.is_empty() { f64::NAN } else { median(&v) };
    m.push(
        "serve.analytic_p50_us",
        p50(load.op_latency_us(Op::Analytic)),
        "us",
    );
    m.push(
        "serve.predict_p50_us",
        p50(load.op_latency_us(Op::Predict)),
        "us",
    );
    m.push(
        "serve.health_p50_us",
        p50(load.op_latency_us(Op::Health)),
        "us",
    );
    let all = load.all_latency_us();
    m.push("serve.p50_us", p50(all.clone()), "us");
    m.push(
        "serve.p99_us",
        if all.is_empty() {
            f64::NAN
        } else {
            quantile(&all, 0.99)
        },
        "us",
    );
    m.push("serve.requests", all.len() as f64, "count");
    m.push("serve.cache_hit_ratio", load.hit_ratio, "ratio");
    m.push(
        "serve.shed",
        load.logs.iter().map(|l| l.shed).sum::<u64>() as f64,
        "count",
    );
    (m, checks)
}
