//! In-process integration tests for the serving stack: real TCP, real
//! router/supervisor/admission, thread-mode shards (process-mode shards
//! are covered end-to-end in `crates/cli/tests/serve_e2e.rs`).

use std::sync::Arc;

use kaleidoscope::PolicyConfig;
use kaleidoscope_exec::{render_analyze, DiskCache, Executor};
use kaleidoscope_pta::SolveBudget;
use kaleidoscope_serve::{
    request_over_tcp, request_over_tcp_with, BreakerConfig, CacheDisposition, ClientOptions,
    Request, RequestError, Response, Router, ServeConfig, Server, ShardMode, TenantQuota,
    WorkerOptions, SHED_BUDGET,
};

fn module_text() -> String {
    kaleidoscope_apps::model("TinyDTLS")
        .expect("bundled model")
        .module
        .to_text()
}

fn offline_report(budget: Option<usize>) -> String {
    let module = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
    let mut ex = Executor::with_jobs(1);
    if let Some(n) = budget {
        ex = ex.with_budget(SolveBudget::iterations(n));
    }
    render_analyze(&module, &PolicyConfig::table3_order(), &ex, false).text
}

fn test_cache(tag: &str) -> Arc<DiskCache> {
    let dir = std::env::temp_dir().join(format!("kd-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(DiskCache::open(dir).expect("temp cache"))
}

fn start(tag: &str, shards: usize, quota: TenantQuota) -> (Server, Arc<DiskCache>) {
    let cache = test_cache(tag);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache: Some(cache.clone()),
        mode: ShardMode::Thread(WorkerOptions {
            jobs: 1,
            solver_threads: 0,
            cache: Some(cache.clone()),
            unsafe_faults: false,
        }),
        shards_per_tenant: shards,
        quota,
        shed_jobs: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    (server, cache)
}

#[test]
fn concurrent_clients_get_bytes_identical_to_offline_analyze_at_any_shard_count() {
    let expected = offline_report(None);
    for shards in [1, 2, 4] {
        let (server, _cache) = start(
            &format!("conc{shards}"),
            shards,
            TenantQuota {
                max_concurrent: 64, // never shed in this test
                ..TenantQuota::default()
            },
        );
        let addr = server.addr().to_string();
        let module = module_text();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let addr = addr.clone();
                let module = module.clone();
                std::thread::spawn(move || {
                    let mut req = Request::inline(&format!("client-{i}"), &module);
                    // Odd clients are a different tenant: distinct shard
                    // pools, same bytes.
                    if i % 2 == 1 {
                        req.tenant = "other".into();
                    }
                    request_over_tcp(&addr, &req).expect("request")
                })
            })
            .collect();
        for h in handles {
            let resp = h.join().expect("client thread");
            let Response::Ok { report, id, .. } = resp else {
                panic!("expected ok: {resp:?}");
            };
            assert_eq!(report, expected, "shards={shards} client={id}");
        }
        server.stop();
    }
}

#[test]
fn warm_repeat_is_a_cache_hit_with_identical_bytes() {
    let (server, cache) = start("warm", 2, TenantQuota::default());
    let addr = server.addr().to_string();
    let cold = request_over_tcp(&addr, &Request::inline("cold", &module_text())).expect("cold");
    let Response::Ok {
        report,
        cache: disp,
        fingerprint,
        ..
    } = &cold
    else {
        panic!("cold: {cold:?}");
    };
    assert_eq!(*disp, CacheDisposition::Stored);
    let lookups_before = cache.stats().report_lookups;
    // Repeat by fingerprint only — the canonical warm query.
    let warm_req = Request::by_fingerprint("warm", *fingerprint);
    let warm = request_over_tcp(&addr, &warm_req).expect("warm");
    let Response::Ok {
        report: warm_report,
        cache: warm_disp,
        ..
    } = &warm
    else {
        panic!("warm: {warm:?}");
    };
    assert_eq!(*warm_disp, CacheDisposition::Hit, "no solve on repeat");
    assert_eq!(warm_report, report);
    assert!(cache.stats().report_lookups > lookups_before);
    assert!(cache.stats().report_hits >= 1);
    server.stop();
}

#[test]
fn fingerprint_whose_stored_text_is_another_program_fails_closed() {
    let (server, cache) = start("fpswap", 1, TenantQuota::default());
    let asked = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
    let other = kaleidoscope_apps::model("Curl").expect("model").module;
    // An overwritten `modules/` entry: named TinyDTLS, holding Curl.
    cache
        .put_module(asked.fingerprint(), &other.to_text())
        .expect("overwrite");
    let mut req = Request::by_fingerprint("swapped", asked.fingerprint());
    req.tenant = "swap".into();
    let resp = request_over_tcp(&server.addr().to_string(), &req).expect("resp");
    let Response::Error { error, .. } = &resp else {
        panic!("expected error, got {resp:?}");
    };
    assert!(error.contains("unknown fingerprint"), "{error}");
    // Nothing was looked up or published under either program.
    assert_eq!(cache.get_tenant_head("swap"), None);
    assert_eq!(cache.stats().report_lookups, 0);
    server.stop();
}

#[test]
fn over_quota_requests_shed_to_a_tagged_cheaper_tier_never_dropped() {
    // max_concurrent = 0: every request sheds, deterministically.
    let (server, _cache) = start(
        "shed",
        1,
        TenantQuota {
            max_concurrent: 0,
            ..TenantQuota::default()
        },
    );
    let addr = server.addr().to_string();
    let resp = request_over_tcp(&addr, &Request::inline("shed-1", &module_text())).expect("shed");
    let Response::Ok {
        report,
        tier,
        degraded,
        ..
    } = &resp
    else {
        panic!("shed: {resp:?}");
    };
    assert_eq!(tier, "steensgaard", "shed tier is tagged");
    assert_eq!(*degraded, 8);
    // The shed answer is still a reproducible artifact: byte-identical
    // to an offline run under the shed budget.
    assert_eq!(*report, offline_report(Some(SHED_BUDGET)));
    let stats = server.router().stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.admitted, 0);
    server.stop();
}

#[test]
fn shed_requests_prefer_a_cached_full_report() {
    let cache = test_cache("shedhit");
    // Pre-warm the store out of band (as a `kd analyze --cache-dir` run
    // or an earlier daemon would).
    let module = kaleidoscope_apps::model("TinyDTLS").expect("model").module;
    let offline = offline_report(None);
    cache
        .put_report(
            module.fingerprint(),
            kaleidoscope_exec::ReportScope {
                config: None,
                stats: false,
                wave: false,
            },
            &offline,
        )
        .expect("pre-warm");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache: Some(cache.clone()),
        mode: ShardMode::Thread(WorkerOptions {
            jobs: 1,
            solver_threads: 0,
            cache: Some(cache),
            unsafe_faults: false,
        }),
        shards_per_tenant: 1,
        quota: TenantQuota {
            max_concurrent: 0, // force the shed path
            ..TenantQuota::default()
        },
        shed_jobs: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let resp = request_over_tcp(&addr, &Request::inline("hit", &module_text())).expect("resp");
    let Response::Ok {
        report,
        tier,
        cache: disp,
        ..
    } = &resp
    else {
        panic!("{resp:?}");
    };
    assert_eq!(*disp, CacheDisposition::Hit);
    assert_eq!(tier, "full", "a cached hit outranks the shed solve");
    assert_eq!(*report, offline);
    server.stop();
}

#[test]
fn malformed_and_oversized_requests_get_error_responses_and_serving_continues() {
    let (server, _cache) = start(
        "errors",
        1,
        TenantQuota {
            max_module_bytes: 64,
            ..TenantQuota::default()
        },
    );
    let addr = server.addr().to_string();
    // Malformed: raw garbage through a raw socket.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        writeln!(stream, "this is not json").expect("send");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("recv");
        let resp = kaleidoscope_serve::decode_response(line.trim_end()).expect("decodes");
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    }
    // Oversized module: rejected by quota, not dropped.
    let resp = request_over_tcp(&addr, &Request::inline("big", &module_text())).expect("answered");
    let Response::Error { error, .. } = &resp else {
        panic!("expected quota rejection: {resp:?}");
    };
    assert!(error.contains("quota admits at most 64"), "{error}");
    // The daemon still serves well-formed traffic afterwards.
    let tiny = "module \"t\"\n";
    let ok = request_over_tcp(&addr, &Request::inline("after", tiny)).expect("served");
    assert!(matches!(ok, Response::Ok { .. }), "{ok:?}");
    assert_eq!(server.router().stats().errors, 2);
    server.stop();
}

#[test]
fn per_request_budget_degrades_and_matches_offline_bytes() {
    let (server, _cache) = start("budget", 1, TenantQuota::default());
    let addr = server.addr().to_string();
    let mut req = Request::inline("tight", &module_text());
    req.budget = Some(1);
    let resp = request_over_tcp(&addr, &req).expect("resp");
    let Response::Ok { report, tier, .. } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(tier, "steensgaard");
    assert_eq!(*report, offline_report(Some(1)));
    server.stop();
}

#[test]
fn graceful_drain_answers_every_in_flight_request_before_stopping() {
    let expected = offline_report(None);
    let (server, _cache) = start(
        "drain",
        4,
        TenantQuota {
            max_concurrent: 64, // never shed: all four must be admitted
            ..TenantQuota::default()
        },
    );
    let addr = server.addr().to_string();
    let module = module_text();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let module = module.clone();
            std::thread::spawn(move || {
                request_over_tcp(&addr, &Request::inline(&format!("drain-{i}"), &module))
            })
        })
        .collect();
    // Admission counts monotonically, and a request is counted *after*
    // it passed the draining check — so admitted >= 4 proves all four
    // clients are past the point where a drain could reject them.
    let gate = std::time::Instant::now();
    while server.router().stats().admitted < 4 {
        assert!(
            gate.elapsed() < std::time::Duration::from_secs(30),
            "clients never got admitted"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let report = server.stop_graceful(std::time::Duration::from_secs(60));
    assert!(
        report.drained,
        "in-flight work must finish inside the drain"
    );
    // Every client holds a complete, byte-identical answer: drained
    // means *written*, not merely routed.
    for c in clients {
        let resp = c.join().expect("client thread").expect("answered");
        let Response::Ok { report, .. } = resp else {
            panic!("expected ok during drain: {resp:?}");
        };
        assert_eq!(report, expected);
    }
    // The daemon is gone: new connections are refused, not silently hung.
    assert!(
        request_over_tcp(&addr, &Request::inline("late", &module)).is_err(),
        "stopped daemon must not accept"
    );
}

#[test]
fn draining_router_rejects_analysis_but_answers_health() {
    let router = Router::new(&ServeConfig::default());
    let resp = router.route(&Request::inline("pre", "module \"t\"\n"));
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    router.begin_drain();
    let resp = router.route(&Request::inline("mid", "module \"t\"\n"));
    assert!(
        matches!(resp, Response::Draining { ref id } if id == "mid"),
        "{resp:?}"
    );
    let health = router.route(&Request::health("h"));
    let Response::Health { report, .. } = health else {
        panic!("health must be answered while draining: {health:?}");
    };
    assert_eq!(report.state, "draining");
    assert_eq!(report.draining_rejected, 1);
    assert_eq!(router.stats().draining_rejected, 1);
}

#[test]
fn open_breaker_short_circuits_to_a_tagged_ladder_answer() {
    let cache = test_cache("breaker");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache: Some(cache.clone()),
        mode: ShardMode::Thread(WorkerOptions {
            jobs: 1,
            solver_threads: 0,
            cache: Some(cache),
            unsafe_faults: true,
        }),
        shards_per_tenant: 1,
        quota: TenantQuota::default(),
        shed_jobs: 1,
        breaker: BreakerConfig {
            strike_threshold: 2,
            cooldown: std::time::Duration::from_secs(120),
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let module = module_text();
    // One crashing request = two failed attempts = breaker opens; the
    // client still gets a ladder answer, never an error.
    let mut crash = Request::inline("crash", &module);
    crash.fault = Some("crash".into());
    let resp = request_over_tcp(&addr, &crash).expect("degraded, not dropped");
    let Response::Ok { tier, .. } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(tier, "steensgaard", "crash degrades to the shed tier");
    // Healthy traffic now short-circuits: tagged tier, same artifact
    // bytes as an offline budget-1 run, and no worker involved.
    let resp = request_over_tcp(&addr, &Request::inline("sc", &module)).expect("answered");
    let Response::Ok { tier, report, .. } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(tier, "breaker-open");
    assert_eq!(*report, offline_report(Some(SHED_BUDGET)));
    let stats = server.router().stats();
    assert_eq!(stats.breaker_short_circuits, 1);
    assert_eq!(stats.degraded_after_failure, 1);
    // The health op exposes the open breaker.
    let health = request_over_tcp(&addr, &Request::health("h")).expect("health");
    let Response::Health { report, .. } = health else {
        panic!("{health:?}");
    };
    assert_eq!(report.breakers_open, 1);
    assert_eq!(report.breaker_short_circuits, 1);
    assert!(report.tenants.contains("open=1"), "{}", report.tenants);
    server.stop();
}

#[test]
fn health_op_reports_accepting_state_over_tcp() {
    let (server, _cache) = start("health", 1, TenantQuota::default());
    let addr = server.addr().to_string();
    request_over_tcp(&addr, &Request::inline("warmup", &module_text())).expect("served");
    let resp = request_over_tcp(&addr, &Request::health("h1")).expect("health");
    let Response::Health { id, report } = resp else {
        panic!("{resp:?}");
    };
    assert_eq!(id, "h1");
    assert_eq!(report.state, "accepting");
    assert_eq!(report.admitted, 1);
    assert_eq!(report.breakers_open, 0);
    assert!(
        report.tenants.contains("default slots=1"),
        "{}",
        report.tenants
    );
    server.stop();
}

#[test]
fn client_times_out_against_a_stalled_server_instead_of_hanging() {
    // A listener that accepts and then never answers: the old client
    // would block in read_line forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = std::thread::spawn(move || {
        let conns: Vec<_> = listener.incoming().take(1).collect();
        std::thread::sleep(std::time::Duration::from_secs(2));
        drop(conns);
    });
    let opts = ClientOptions {
        io_timeout: std::time::Duration::from_millis(100),
        ..ClientOptions::default()
    };
    let started = std::time::Instant::now();
    let err = request_over_tcp_with(&addr, &Request::inline("stall", "module \"t\"\n"), &opts)
        .expect_err("must time out");
    assert!(matches!(err, RequestError::Timeout(_)), "{err:?}");
    assert!(err.is_retryable());
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "timed out, not server-released"
    );
    let _ = hold.join();
}

#[test]
fn client_retries_connect_failures_with_bounded_backoff() {
    // Nothing listens here: every attempt is a retryable connect error.
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        probe.local_addr().expect("addr").to_string()
        // listener drops: the port is free again
    };
    let opts = ClientOptions {
        connect_timeout: std::time::Duration::from_millis(200),
        retries: 2,
        backoff_base: std::time::Duration::from_millis(10),
        ..ClientOptions::default()
    };
    let started = std::time::Instant::now();
    let err = request_over_tcp_with(&dead, &Request::inline("r", "module \"t\"\n"), &opts)
        .expect_err("no server");
    assert!(matches!(err, RequestError::Connect(_)), "{err:?}");
    // Two retries slept at least base + 2*base of backoff (jitter adds).
    assert!(
        started.elapsed() >= std::time::Duration::from_millis(30),
        "backoff must actually wait"
    );
}

#[test]
fn tenant_quota_clamps_the_requested_budget() {
    let (server, _cache) = start(
        "clamp",
        1,
        TenantQuota {
            budget: Some(1),
            ..TenantQuota::default()
        },
    );
    let addr = server.addr().to_string();
    // Client asks for a generous budget; quota clamps it to 1, so the
    // answer is the budget-1 artifact.
    let mut req = Request::inline("greedy", &module_text());
    req.budget = Some(100_000_000);
    let resp = request_over_tcp(&addr, &req).expect("resp");
    let Response::Ok { report, tier, .. } = &resp else {
        panic!("{resp:?}");
    };
    assert_eq!(tier, "steensgaard");
    assert_eq!(*report, offline_report(Some(1)));
    server.stop();
}
