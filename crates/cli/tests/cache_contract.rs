//! One cache contract across every analyze surface: `kd analyze`
//! (`cmd_analyze_full`), a serve worker (`handle_request`) and the
//! daemon's shed path (`Router` with a zero quota) read and write the same
//! `modules/` and `reports/` entries, whichever of them writes first.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use kaleidoscope_cli::{cmd_analyze_full, Source};
use kaleidoscope_exec::DiskCache;
use kaleidoscope_serve::{
    handle_request, CacheDisposition, Request, Response, Router, ServeConfig, ShardMode,
    TenantQuota, WorkerOptions,
};

const MODEL: &str = "TinyDTLS";
const CONFIG: &str = "kd-ctx-pa";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kd-contract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The model under [`CONFIG`], inline or by fingerprint only.
fn request(id: &str, inline: bool) -> Request {
    let module = kaleidoscope_apps::model(MODEL).expect("model").module;
    let mut req = if inline {
        Request::inline(id, &module.to_text())
    } else {
        Request::by_fingerprint(id, module.fingerprint())
    };
    req.config = Some(CONFIG.into());
    req
}

fn worker(dir: &Path) -> WorkerOptions {
    WorkerOptions {
        jobs: 1,
        solver_threads: 0,
        cache: Some(Arc::new(DiskCache::open(dir).expect("cache"))),
        unsafe_faults: false,
    }
}

/// `kd analyze --model TinyDTLS --config kd-ctx-pa --cache-dir <dir>`.
fn analyze(dir: &Path) -> String {
    let dir = dir.to_string_lossy();
    let source = Source::Model(MODEL.into());
    cmd_analyze_full(
        &source,
        Some(CONFIG),
        1,
        false,
        None,
        Some(&dir),
        0,
        None,
        None,
    )
    .expect("analyze")
    .report
}

/// File names under `modules/` and `reports/`.
fn published(dir: &Path) -> BTreeSet<String> {
    ["modules", "reports"]
        .iter()
        .flat_map(|ns| std::fs::read_dir(dir.join(ns)).expect("namespace"))
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect()
}

fn expect_full(resp: &Response, want: CacheDisposition, report: &str) {
    let Response::Ok {
        report: got,
        cache,
        tier,
        ..
    } = resp
    else {
        panic!("expected ok, got {resp:?}");
    };
    assert_eq!((*cache, tier.as_str()), (want, "full"));
    assert_eq!(got, report);
}

#[test]
fn analyze_worker_and_shed_path_share_one_cache_contract() {
    // `kd analyze` stores first; a worker and the shed path hit it.
    let cli_first = temp_dir("cli-first");
    let offline = analyze(&cli_first);
    let opts = worker(&cli_first);
    let hit = handle_request(&request("worker", false), &opts);
    expect_full(&hit, CacheDisposition::Hit, &offline);
    let router = Router::new(&ServeConfig {
        cache: opts.cache.clone(),
        mode: ShardMode::Thread(opts.clone()),
        quota: TenantQuota {
            max_concurrent: 0, // every request takes the shed path
            ..TenantQuota::default()
        },
        ..ServeConfig::default()
    });
    let shed = router.route(&request("shed", false));
    expect_full(&shed, CacheDisposition::Hit, &offline);
    assert_eq!(router.stats().shed, 1);
    router.shutdown_workers();

    // A worker stores first; `kd analyze` answers the same bytes, and
    // both stores hold the same modules and reports.
    let worker_first = temp_dir("worker-first");
    let stored = handle_request(&request("inline", true), &worker(&worker_first));
    expect_full(&stored, CacheDisposition::Stored, &offline);
    assert_eq!(analyze(&worker_first), offline);
    assert_eq!(published(&cli_first), published(&worker_first));
    for dir in [cli_first, worker_first] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
