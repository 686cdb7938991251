//! End-to-end service tests for `dance-serve`: cache hits must be
//! byte-identical to cold responses, eight concurrent clients must each get
//! exactly their own responses back, and overload must shed with `503`
//! while queues stay bounded.

use std::time::{Duration, Instant};

use dance_serve::proto::{ReqBody, Request, NUM_CHOICES, NUM_SLOTS};
use dance_serve::{Client, ServeConfig, Server};
use dance_telemetry::json::Json;

/// Binds a server on an ephemeral port, runs it on a background thread and
/// returns its address plus the join handle (joined after `admin/shutdown`).
fn start_server(mut cfg: ServeConfig) -> (String, std::thread::JoinHandle<()>) {
    // Parallel tests must not share the default fleet root: two supervisors
    // over one directory race on the ledger's generation files.
    static FLEET_DIRS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    if cfg.fleet_root == ServeConfig::default().fleet_root {
        let n = FLEET_DIRS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        cfg.fleet_root =
            std::env::temp_dir().join(format!("dance_serve_fleet_t{n}_{}", std::process::id()));
    }
    let server = Server::bind(&cfg).expect("ephemeral bind succeeds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || {
        server.run().expect("server run loop exits cleanly");
    });
    (addr, handle)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Some(Duration::from_secs(10))).expect("client connects")
}

fn shutdown(addr: &str) {
    let mut c = connect(addr);
    let resp = c
        .call(&Request {
            id: "drain".into(),
            deadline_ms: None,
            body: ReqBody::Shutdown,
        })
        .expect("shutdown request succeeds");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
}

fn analytic(id: &str, choices: Vec<u8>, cfg: usize) -> Request {
    Request {
        id: id.into(),
        deadline_ms: Some(2_000),
        body: ReqBody::CostAnalytic {
            choices,
            cfg,
            detail: false,
        },
    }
}

#[test]
fn cache_hits_are_byte_identical_to_cold_responses() {
    let (addr, handle) = start_server(ServeConfig::default());
    let mut client = connect(&addr);

    // Analytic: same request (same id) twice — the second answer comes from
    // the response cache and must match the cold one byte for byte.
    let req = analytic("cold-vs-warm", vec![0, 3, 6, 1, 2, 4, 5, 0, 3], 1234);
    let cold = client.call_raw(&req).expect("cold analytic succeeds");
    let warm = client.call_raw(&req).expect("warm analytic succeeds");
    assert_eq!(cold, warm, "cache replay changed the response bytes");
    assert!(cold.contains("\"ok\":true"), "unexpected response: {cold}");

    // Predict: batched inference must also replay byte-identically.
    let arch: Vec<f32> = (0..NUM_SLOTS * NUM_CHOICES)
        .map(|i| (i % 10) as f32 / 10.0)
        .collect();
    let preq = Request {
        id: "predict-replay".into(),
        deadline_ms: Some(5_000),
        body: ReqBody::CostPredict { arch },
    };
    let pcold = client.call_raw(&preq).expect("cold predict succeeds");
    let pwarm = client.call_raw(&preq).expect("warm predict succeeds");
    assert_eq!(pcold, pwarm, "predict cache replay changed the bytes");
    assert!(pcold.contains("\"metrics\":"), "unexpected: {pcold}");

    // The health endpoint must report the hits the two replays produced.
    let health = client
        .call(&Request {
            id: "h".into(),
            deadline_ms: None,
            body: ReqBody::Health,
        })
        .expect("health succeeds");
    let hits = health
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_f64)
        .expect("health reports cache hits");
    assert!(hits >= 2.0, "expected >= 2 cache hits, saw {hits}");

    shutdown(&addr);
    handle.join().expect("server thread joins after drain");
}

#[test]
fn eight_concurrent_clients_each_get_their_own_responses() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 40;
    let (addr, handle) = start_server(ServeConfig::default());

    let addr_ref = &addr;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = connect(addr_ref);
                    for i in 0..PER_CLIENT {
                        let id = format!("client{t}-req{i}");
                        // Distinct payload per (client, request) so a crossed
                        // wire would also produce a visibly wrong body.
                        let choices: Vec<u8> = (0..NUM_SLOTS)
                            .map(|s| ((t + i + s) % NUM_CHOICES) as u8)
                            .collect();
                        let cfg = (t * PER_CLIENT + i) % 4335;
                        let resp = client
                            .call(&analytic(&id, choices, cfg))
                            .expect("analytic request succeeds");
                        assert_eq!(
                            resp.get("id").and_then(Json::as_str),
                            Some(id.as_str()),
                            "response id does not match request id"
                        );
                        assert_eq!(
                            resp.get("ok"),
                            Some(&Json::Bool(true)),
                            "request {id} failed: {resp:?}"
                        );
                        assert!(
                            resp.get("latency_ms").and_then(Json::as_f64).is_some(),
                            "request {id} got no payload"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread must not panic");
        }
    });

    shutdown(&addr);
    handle.join().expect("server thread joins after drain");
}

#[test]
fn overload_sheds_with_503_and_queues_stay_bounded() {
    // One search worker and a one-deep job queue: a burst of submissions
    // must accept at most worker+queue jobs and shed the rest with 503.
    let cfg = ServeConfig {
        fleet_workers: 1,
        job_queue: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start_server(cfg);
    let mut client = connect(&addr);

    const BURST: usize = 6;
    let (mut accepted, mut shed) = (Vec::new(), 0usize);
    for i in 0..BURST {
        let resp = client
            .call(&Request {
                id: format!("submit-{i}"),
                deadline_ms: Some(2_000),
                body: ReqBody::SearchSubmit {
                    epochs: 1,
                    seed: 7 + i as u64,
                    lambda2: 0.1,
                    flops_penalty: false,
                },
            })
            .expect("submit request round-trips");
        match resp.get("ok") {
            Some(Json::Bool(true)) => {
                let job = resp
                    .get("job")
                    .and_then(Json::as_str)
                    .expect("accepted submit returns a job id")
                    .to_string();
                accepted.push(job);
            }
            _ => {
                assert_eq!(
                    resp.get("code").and_then(Json::as_f64),
                    Some(503.0),
                    "rejection must be a 503 shed, got {resp:?}"
                );
                shed += 1;
            }
        }
    }
    assert_eq!(accepted.len() + shed, BURST);
    assert!(
        !accepted.is_empty(),
        "the first submission must be accepted"
    );
    assert!(
        shed >= 1,
        "a {BURST}-deep burst into a 1-worker/1-slot server must shed"
    );

    // Bounded: the health endpoint must never report more queued jobs than
    // the configured queue depth.
    let health = client
        .call(&Request {
            id: "h".into(),
            deadline_ms: None,
            body: ReqBody::Health,
        })
        .expect("health succeeds");
    let job_depth = health
        .get("queues")
        .and_then(|q| q.get("jobs"))
        .and_then(Json::as_f64)
        .expect("health reports job queue depth");
    assert!(
        job_depth <= 1.0,
        "job queue exceeded its bound: {job_depth}"
    );

    // The accepted jobs must all finish (tiny 1-epoch searches).
    let deadline = Instant::now() + Duration::from_secs(120);
    for job in &accepted {
        loop {
            let resp = client
                .call(&Request {
                    id: "status".into(),
                    deadline_ms: None,
                    body: ReqBody::SearchStatus { job: job.clone() },
                })
                .expect("status request succeeds");
            let state = resp.get("state").and_then(Json::as_str).unwrap_or("?");
            if state == "done" {
                break;
            }
            assert_ne!(state, "failed", "job {job} failed");
            assert!(Instant::now() < deadline, "job {job} stuck in {state}");
            std::thread::sleep(Duration::from_millis(100));
        }
        let result = client
            .call(&Request {
                id: "result".into(),
                deadline_ms: None,
                body: ReqBody::SearchResult { job: job.clone() },
            })
            .expect("result request succeeds");
        assert_eq!(result.get("ok"), Some(&Json::Bool(true)));
        assert!(
            result.get("choices").and_then(Json::as_arr).is_some(),
            "finished job must report its chosen architecture: {result:?}"
        );
    }

    shutdown(&addr);
    handle.join().expect("server thread joins after drain");
}

#[test]
fn campaign_endpoints_stream_and_replay_frontier_updates() {
    let campaign_root =
        std::env::temp_dir().join(format!("dance_serve_camp_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&campaign_root);
    let (addr, handle) = start_server(ServeConfig {
        campaign_root: campaign_root.clone(),
        ..ServeConfig::default()
    });
    let mut client = connect(&addr);

    // Submit a 2×1×1 campaign with a duplicated λ₂: the two cells share
    // coordinates, so the second folds as pure dedup hits.
    let resp = client
        .call(&Request {
            id: "c-sub".into(),
            deadline_ms: None,
            body: ReqBody::CampaignSubmit {
                lambda2: vec![0.1, 0.1],
                dataset_seeds: vec![0],
                envelopes: vec!["edge".into()],
                epochs: 2,
                batch: 16,
                seed: 0,
                max_concurrency: 2,
            },
        })
        .expect("submit succeeds");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    let id = resp
        .get("campaign")
        .and_then(Json::as_str)
        .expect("submit returns a campaign id")
        .to_string();

    // Unknown ids are 404s.
    let missing = client
        .call(&Request {
            id: "c-404".into(),
            deadline_ms: None,
            body: ReqBody::CampaignStatus {
                campaign: "camp-999".into(),
            },
        })
        .expect("status call returns");
    assert_eq!(missing.get("code").and_then(Json::as_f64), Some(404.0));

    // Stream on a dedicated connection: OK header, then one NDJSON event
    // per line until `campaign_end`.
    let mut streamer = Client::connect(&addr, Some(Duration::from_secs(180))).expect("connect");
    let header = streamer
        .call(&Request {
            id: "c-stream".into(),
            deadline_ms: None,
            body: ReqBody::CampaignStream {
                campaign: id.clone(),
                from: 0,
            },
        })
        .expect("stream header arrives");
    assert_eq!(header.get("streaming"), Some(&Json::Bool(true)));
    let mut updates = 0usize;
    let mut events = 0usize;
    let mut end_digest = None;
    loop {
        let line = match streamer.read_stream_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => panic!("stream read failed: {e}"),
        };
        let v = dance_telemetry::json::parse(&line).expect("event line is valid JSON");
        assert_eq!(
            v.get("seq").and_then(Json::as_f64),
            Some(events as f64),
            "events arrive in sequence order: {line}"
        );
        events += 1;
        match v.get("event").and_then(Json::as_str) {
            Some("frontier_update") => updates += 1,
            Some("campaign_end") => {
                end_digest = v.get("digest").and_then(Json::as_str).map(str::to_string);
                break;
            }
            _ => {}
        }
    }
    assert!(updates >= 1, "no frontier_update events streamed");
    let end_digest = end_digest.expect("stream ends with campaign_end");

    // Status agrees with the stream's terminal digest and reports dedup.
    // The log finishes just before the orchestrator thread records its
    // summary, so poll briefly for the `done` state.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        let status = client
            .call(&Request {
                id: "c-status".into(),
                deadline_ms: None,
                body: ReqBody::CampaignStatus {
                    campaign: id.clone(),
                },
            })
            .expect("status succeeds");
        if status.get("state").and_then(Json::as_str) == Some("done") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "campaign never reached done: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        status.get("digest").and_then(Json::as_str),
        Some(end_digest.as_str())
    );
    let dedup = status
        .get("dedup_hit_rate")
        .and_then(Json::as_f64)
        .expect("summary reports dedup hit-rate");
    assert!(dedup > 0.0, "duplicate cells must produce dedup hits");

    // Replay: a fresh stream from offset 0 returns the identical sequence
    // immediately (the log is append-only and finished).
    let mut replayer = connect(&addr);
    let header = replayer
        .call(&Request {
            id: "c-replay".into(),
            deadline_ms: None,
            body: ReqBody::CampaignStream {
                campaign: id.clone(),
                from: 0,
            },
        })
        .expect("replay header arrives");
    assert_eq!(header.get("streaming"), Some(&Json::Bool(true)));
    let mut replayed = 0usize;
    while let Ok(Some(line)) = replayer.read_stream_line() {
        replayed += 1;
        if line.contains("campaign_end") {
            break;
        }
    }
    assert_eq!(replayed, events, "replay must deliver the full sequence");

    // Cancelling a finished campaign is an accepted no-op.
    let cancel = client
        .call(&Request {
            id: "c-cancel".into(),
            deadline_ms: None,
            body: ReqBody::CampaignCancel {
                campaign: id.clone(),
            },
        })
        .expect("cancel succeeds");
    assert_eq!(cancel.get("ok"), Some(&Json::Bool(true)));

    // Health surfaces campaign counts.
    let health = client
        .call(&Request {
            id: "c-health".into(),
            deadline_ms: None,
            body: ReqBody::Health,
        })
        .expect("health succeeds");
    let camps = health.get("campaigns").expect("health has campaigns");
    assert_eq!(
        camps.get("done").and_then(Json::as_f64),
        Some(1.0),
        "health: {health:?}"
    );

    shutdown(&addr);
    handle.join().expect("server thread joins after drain");
    let _cleanup = std::fs::remove_dir_all(&campaign_root);
}

#[test]
fn fleet_endpoints_dedupe_submissions_and_drain_cleanly() {
    let fleet_root =
        std::env::temp_dir().join(format!("dance_serve_fleet_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fleet_root);
    let (addr, handle) = start_server(ServeConfig {
        fleet_root: fleet_root.clone(),
        fleet_workers: 2,
        ..ServeConfig::default()
    });
    let mut client = connect(&addr);

    let submit = |client: &mut Client, id: &str, seed: u64| {
        client
            .call(&Request {
                id: id.into(),
                deadline_ms: None,
                body: ReqBody::FleetSubmit {
                    epochs: 2,
                    batch: 16,
                    seed,
                    lambda2: 0.1,
                },
            })
            .expect("submit call returns")
    };

    let first = submit(&mut client, "f-sub", 5);
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first:?}");
    assert_eq!(first.get("deduped"), Some(&Json::Bool(false)));
    let job = first
        .get("job")
        .and_then(Json::as_str)
        .expect("submit returns a job id")
        .to_string();
    assert!(job.starts_with("fjob-"), "job id {job:?}");

    // The same spec is the same job: a retried submit cannot fork work.
    let again = submit(&mut client, "f-resub", 5);
    assert_eq!(again.get("deduped"), Some(&Json::Bool(true)));
    assert_eq!(again.get("job").and_then(Json::as_str), Some(job.as_str()));

    // Unknown jobs are 404s.
    let missing = client
        .call(&Request {
            id: "f-404".into(),
            deadline_ms: None,
            body: ReqBody::FleetStatus {
                job: "fjob-ffffffffffffffff".into(),
            },
        })
        .expect("status call returns");
    assert_eq!(missing.get("code").and_then(Json::as_f64), Some(404.0));

    // Poll status until the search lands with its digest.
    let deadline = Instant::now() + Duration::from_secs(120);
    let done = loop {
        let status = client
            .call(&Request {
                id: "f-status".into(),
                deadline_ms: None,
                body: ReqBody::FleetStatus { job: job.clone() },
            })
            .expect("status succeeds");
        if status.get("state").and_then(Json::as_str) == Some("done") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "fleet job never finished: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let digest = done
        .get("digest")
        .and_then(Json::as_str)
        .expect("done job reports its digest");
    assert_eq!(digest.len(), 16, "digest is 16 hex digits: {digest:?}");

    // Health surfaces the fleet: job counts and per-worker state.
    let health = client
        .call(&Request {
            id: "f-health".into(),
            deadline_ms: None,
            body: ReqBody::Health,
        })
        .expect("health succeeds");
    let fleet = health.get("fleet").expect("health has a fleet section");
    assert_eq!(
        fleet
            .get("jobs")
            .and_then(|j| j.get("done"))
            .and_then(Json::as_f64),
        Some(1.0),
        "health: {health:?}"
    );

    // Drain: no new work, existing answers still served.
    let drained = client
        .call(&Request {
            id: "f-drain".into(),
            deadline_ms: None,
            body: ReqBody::FleetDrain,
        })
        .expect("drain succeeds");
    assert_eq!(drained.get("draining"), Some(&Json::Bool(true)));
    let refused = submit(&mut client, "f-late", 6);
    assert_eq!(
        refused.get("code").and_then(Json::as_f64),
        Some(503.0),
        "draining fleet must shed new submissions: {refused:?}"
    );
    let still = client
        .call(&Request {
            id: "f-still".into(),
            deadline_ms: None,
            body: ReqBody::FleetStatus { job: job.clone() },
        })
        .expect("status after drain succeeds");
    assert_eq!(still.get("state").and_then(Json::as_str), Some("done"));

    shutdown(&addr);
    handle.join().expect("server thread joins after drain");
    let _cleanup = std::fs::remove_dir_all(&fleet_root);
}

#[test]
fn search_jobs_run_on_the_fleet_with_the_parent_answers() {
    let (addr, handle) = start_server(ServeConfig::default());
    let mut client = connect(&addr);
    let call = |client: &mut Client, body: ReqBody| {
        client
            .call(&Request {
                id: "s".into(),
                deadline_ms: None,
                body,
            })
            .expect("search call returns")
    };
    let submit = |flops_penalty| ReqBody::SearchSubmit {
        epochs: 2,
        seed: 7,
        lambda2: 0.1,
        flops_penalty,
    };
    let wait_result = |client: &mut Client, job: &str| {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let status = call(client, ReqBody::SearchStatus { job: job.into() });
            let state = status.get("state").and_then(Json::as_str).unwrap_or("?");
            if state == "done" {
                return call(client, ReqBody::SearchResult { job: job.into() });
            }
            assert_ne!(state, "failed", "job {job} failed");
            assert!(Instant::now() < deadline, "job {job} stuck in {state}");
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    // The id is the one `fleet/submit` gives the same spec at batch 32.
    let first = call(&mut client, submit(true));
    assert_eq!(
        first.get("job").and_then(Json::as_str),
        Some("fjob-5df6a14915339fff"),
        "{first:?}"
    );
    assert_eq!(first.get("deduped"), Some(&Json::Bool(false)));
    let again = call(&mut client, submit(true));
    assert_eq!(
        again.get("job").and_then(Json::as_str),
        Some("fjob-5df6a14915339fff")
    );
    assert_eq!(again.get("deduped"), Some(&Json::Bool(true)));

    // Pinned: what `search/*` answered for this spec before it ran on the
    // fleet.
    let result = wait_result(&mut client, "fjob-5df6a14915339fff");
    assert_eq!(
        result.get("digest").and_then(Json::as_str),
        Some("68ad21587d07401d"),
        "{result:?}"
    );
    let choices: Vec<f64> = result
        .get("choices")
        .and_then(Json::as_arr)
        .expect("result has choices")
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    assert_eq!(choices, [5.0, 6.0, 4.0, 2.0, 6.0, 6.0, 2.0, 1.0, 2.0]);
    assert_eq!(result.get("epochs").and_then(Json::as_f64), Some(2.0));
    let entropy = result
        .get("final_entropy")
        .and_then(Json::as_f64)
        .expect("result has a final entropy");
    assert_eq!(entropy.to_bits(), 1.944_864_034_652_71_f64.to_bits());
    let status = call(
        &mut client,
        ReqBody::FleetStatus {
            job: "fjob-5df6a14915339fff".into(),
        },
    );
    assert_eq!(
        status.get("digest").and_then(Json::as_str),
        Some("68ad21587d07401d")
    );

    // Without the penalty it is another job with another answer.
    let plain = call(&mut client, submit(false));
    let plain_id = plain
        .get("job")
        .and_then(Json::as_str)
        .expect("submit returns a job id")
        .to_string();
    assert_ne!(plain_id, "fjob-5df6a14915339fff");
    let plain_result = wait_result(&mut client, &plain_id);
    assert_eq!(
        plain_result.get("digest").and_then(Json::as_str),
        Some("ba5a53b3294e819f"),
        "{plain_result:?}"
    );

    shutdown(&addr);
    handle.join().expect("server thread joins after drain");
}

#[test]
fn a_fleet_root_that_is_a_file_fails_bind() {
    let file = std::env::temp_dir().join(format!("dance_serve_fleet_file_{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("write the blocking file");
    let err = Server::bind(&ServeConfig {
        fleet_root: file.clone(),
        ..ServeConfig::default()
    })
    .expect_err("a fleet that cannot start must fail bind");
    assert!(
        err.to_string().contains(&file.display().to_string()),
        "the error names the fleet root: {err}"
    );
    let _cleanup = std::fs::remove_file(&file);
}
