//! Content-addressed **on-disk** artifact store shared by the CLI and the
//! serve daemon.
//!
//! The in-memory [`ArtifactCache`](crate::ArtifactCache) memoizes solve
//! artifacts within one process; this store persists the two artifacts
//! worth sharing *across* processes:
//!
//! * **Modules** — canonical textual IR keyed by its content
//!   [`fingerprint`](kaleidoscope_ir::Module::fingerprint), so a client can
//!   submit a module once and query by fingerprint afterwards. There is no
//!   integrity sidecar: readers re-fingerprint the parsed text, so a torn
//!   or overwritten entry reads as unknown, never as another program.
//! * **Reports** — rendered `analyze` reports keyed by
//!   `(fingerprint, config scope, stats flag, PTS_REPR_VERSION)`. Only
//!   *healthy* reports are stored: a degraded report depends on the budget
//!   that tripped it, and budgets are excluded from cache keys by the same
//!   argument as the in-memory cache (the fixpoint is unique, so any solve
//!   that completes produces the same bytes).
//!
//! # Layout
//!
//! ```text
//! <cache-dir>/
//!   modules/<fp:016x>.kir                canonical module text (no sidecar)
//!   reports/<fp:016x>-<scope>-v<N>.txt   healthy analyze report
//!   reports/<fp:016x>-<scope>-v<N>.sum   "<fnv64:016x> <len>" integrity sidecar
//!   state/<fp:016x>-k<key>[c]-v<N>i<M>.bin  solved-state snapshot (incremental)
//!   state/<fp:016x>-k<key>[c]-v<N>i<M>.sum  integrity sidecar
//!   fe/<key:016x>-v<F>.bin               per-function frontend cache entry
//!   fe/<key:016x>-v<F>.sum               integrity sidecar
//!   heads/t<fnv64(tenant):016x>.fp       tenant's last-served fingerprint
//!   quarantine/                          corrupt artifacts parked by recovery
//! ```
//!
//! **Frontend entries** (`fe/`) hold one function's lowered IR plus its
//! recorded constraint block, keyed by a content hash of the function's
//! signature and raw body text mixed with [`FE_CACHE_VERSION`] (`v<F>` in
//! the filename keeps incompatible encodings from ever being fetched).
//! Entries carry an import list validated by the frontend loader against
//! the current revision's header, so a stale id mapping reads as a miss,
//! never a wrong splice.
//!
//! **State snapshots** are the serialized
//! [`SolvedState`](kaleidoscope_pta::SolvedState) of a converged solve,
//! fetched by the fingerprint of the *previous* revision to warm-start an
//! incremental re-solve. They are keyed by the solve's
//! [`SolveOptions::cache_key`](kaleidoscope_pta::SolveOptions::cache_key)
//! (`k<key>`), whether a context plan fed generation (`c`),
//! `PTS_REPR_VERSION` (`v<N>`) and
//! [`INCR_STATE_VERSION`](kaleidoscope_pta::INCR_STATE_VERSION) (`i<M>`) —
//! a snapshot must never warm a solve under a different policy set or
//! representation.
//!
//! **Tenant heads** record the last module fingerprint served for each
//! tenant, so the daemon can auto-select a warm-start snapshot for
//! watch-mode traffic that doesn't carry an explicit `prev_fingerprint`.
//! Heads are advisory: a stale, missing, or evicted head only costs a
//! cold solve, never a wrong answer, so they carry no integrity sidecar
//! and are excluded from the eviction cap.
//!
//! `<scope>` is `all` (the full Table-3 matrix) or `c<k>` for a single
//! configuration (`k` = [`PolicyConfig::key`]), with an `s<R>` suffix when
//! solver stats rows are included (`R` versions the row layout). `<N>` is
//! [`PTS_REPR_VERSION`](kaleidoscope_pta::PTS_REPR_VERSION), so a
//! representation change can never serve a stale report.
//!
//! Every fetch is verified against the sidecar checksum; a mismatch (torn
//! write, manual edit) is treated as a miss and the entry is recomputed.
//! Writes go to a temp file in the same directory and are published with an
//! atomic rename, so concurrent daemon workers and CLI runs can share one
//! directory without locking — last writer wins with identical bytes.
//!
//! [`DiskCache::open`] additionally runs a crash-recovery sweep: `.tmp*`
//! orphans from publishes that died before their rename are deleted, and
//! reports whose sidecar is missing or fails verification are moved into
//! `quarantine/` (counted in [`DiskCacheStats`]) instead of silently
//! re-missing on every fetch forever.
//!
//! The directory is chosen by `--cache-dir`, falling back to the
//! `KD_CACHE_DIR` environment variable; with neither, callers run without
//! a disk store (the CLI) or pick their own default (the daemon).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use kaleidoscope::PolicyConfig;

/// Environment variable naming the shared cache directory.
pub const CACHE_DIR_ENV: &str = "KD_CACHE_DIR";

/// Version of the per-function frontend cache entries (`fe/` namespace):
/// the IR/block byte codec, the key derivation, and the import-list
/// layout. Any change to `kaleidoscope_ir::codec`, the block op encoding,
/// or the entry framing must bump this so stale entries are never decoded.
pub const FE_CACHE_VERSION: u32 = 1;

/// What an analyze report covered: the whole Table-3 matrix or a single
/// configuration, with or without solver-stats rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportScope {
    /// `None` = all eight Table-3 configurations in order.
    pub config: Option<PolicyConfig>,
    /// Whether solver counters are included in the report.
    pub stats: bool,
    /// Ignored. It once selected a since-removed alternative solver
    /// schedule and is kept only so existing struct literals still build;
    /// it never changes the report path.
    pub wave: bool,
}

/// Version of the solver-stats row layout, part of every stats scope's
/// tag. Bump it whenever the row's counters change, so a report cached
/// under the old layout is a miss rather than served with a stale row.
/// v2: the three wave-schedule counters left the row.
/// v3: word-level delta propagation changed the values of `union-words`
/// (now bitmap words actually touched) and `peak-pts-bytes`.
/// v4: the pending frontier changed them again (`union-words` stopped
/// counting per-pop difference scans, `peak-pts-bytes` lost the second
/// copy of every set).
const STATS_ROW_VERSION: u32 = 4;

impl ReportScope {
    /// The filename fragment for this scope.
    fn tag(&self) -> String {
        let mut base = match self.config {
            None => "all".to_string(),
            Some(c) => format!("c{}", c.key()),
        };
        if self.stats {
            base.push_str(&format!("s{STATS_ROW_VERSION}"));
        }
        base
    }
}

/// Traffic counters for the disk store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Report lookups performed.
    pub report_lookups: u64,
    /// Report lookups served from disk (verified).
    pub report_hits: u64,
    /// Solved-state snapshot lookups performed.
    pub state_lookups: u64,
    /// Snapshot lookups served from disk (verified).
    pub state_hits: u64,
    /// Per-function frontend entry lookups performed.
    pub fe_lookups: u64,
    /// Frontend entry lookups served from disk (verified).
    pub fe_hits: u64,
    /// Entries rejected by checksum verification.
    pub verify_failures: u64,
    /// `.tmp` publish orphans removed by recovery sweeps.
    pub tmp_swept: u64,
    /// Corrupt artifacts moved to `quarantine/` by recovery sweeps.
    pub quarantined: u64,
}

/// The on-disk artifact store. See the module docs for the layout.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    report_lookups: AtomicU64,
    report_hits: AtomicU64,
    state_lookups: AtomicU64,
    state_hits: AtomicU64,
    fe_lookups: AtomicU64,
    fe_hits: AtomicU64,
    verify_failures: AtomicU64,
    tmp_swept: AtomicU64,
    quarantined: AtomicU64,
}

/// One evictable unit of the store (a module file, or a report with its
/// checksum sidecar).
#[derive(Debug)]
struct Artifact {
    path: PathBuf,
    sidecar: Option<PathBuf>,
    bytes: u64,
    mtime: Option<std::time::SystemTime>,
}

/// FNV-1a over bytes — same family as the module fingerprint, cheap and
/// dependency-free.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

impl DiskCache {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// Opening runs a crash-recovery sweep: `.tmp*` publish orphans (left
    /// by a process that died between its tmp-write and rename) are
    /// deleted, and reports whose integrity sidecar is missing or wrong
    /// are moved to `quarantine/` so they stop costing a failed verify on
    /// every fetch. Both actions are counted in [`DiskCache::stats`].
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("modules"))?;
        fs::create_dir_all(dir.join("reports"))?;
        fs::create_dir_all(dir.join("state"))?;
        fs::create_dir_all(dir.join("fe"))?;
        fs::create_dir_all(dir.join("heads"))?;
        let cache = DiskCache {
            dir,
            max_bytes: None,
            report_lookups: AtomicU64::new(0),
            report_hits: AtomicU64::new(0),
            state_lookups: AtomicU64::new(0),
            state_hits: AtomicU64::new(0),
            fe_lookups: AtomicU64::new(0),
            fe_hits: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            tmp_swept: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        };
        cache.recover();
        Ok(cache)
    }

    /// Crash-recovery sweep; runs at [`DiskCache::open`] and again at
    /// daemon drain (workers are stopped by then, so anything `.tmp` is an
    /// orphan by definition). Idempotent: a clean store sweeps to itself.
    pub fn recover(&self) {
        // 1. `.tmp<pid>` publish orphans: a crash between tmp-write and
        // rename leaves one behind, invisible to fetches but permanent —
        // delete them. (A concurrent publisher's live tmp file could in
        // principle be swept too; its rename then fails and that publish
        // degrades to a cache miss, never a torn artifact.)
        for sub in ["modules", "reports", "state", "fe", "heads"] {
            let Ok(entries) = fs::read_dir(self.dir.join(sub)) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let is_tmp = path
                    .extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| e.starts_with("tmp"));
                if is_tmp && fs::remove_file(&path).is_ok() {
                    self.tmp_swept.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // 2. Corrupt artifacts: a report `.txt` or state `.bin` whose
        // sidecar is missing, torn, or wrong would re-fail verification on
        // every fetch forever; move the pair into `quarantine/` (preserved
        // for inspection, out of the fetch path) so the next publish
        // starts clean.
        for (sub, ext) in [("reports", "txt"), ("state", "bin"), ("fe", "bin")] {
            let Ok(entries) = fs::read_dir(self.dir.join(sub)) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_none_or(|e| e != ext) {
                    continue;
                }
                let sidecar = path.with_extension("sum");
                let healthy = match (fs::read(&path), fs::read_to_string(&sidecar)) {
                    (Ok(bytes), Ok(sum)) => {
                        sum == format!("{:016x} {}", fnv64(&bytes), bytes.len())
                    }
                    _ => false,
                };
                if healthy {
                    continue;
                }
                let quarantine = self.dir.join("quarantine");
                if fs::create_dir_all(&quarantine).is_err() {
                    continue;
                }
                let moved = [&path, &sidecar]
                    .iter()
                    .filter(|p| p.exists())
                    .filter_map(|p| p.file_name().map(|n| (p.to_path_buf(), quarantine.join(n))))
                    .all(|(from, to)| fs::rename(&from, &to).is_ok());
                if moved {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Test hook for the `TornPublish` fault: leave exactly the debris a
    /// publish that died mid-flight leaves — a `.tmp<pid>` orphan plus a
    /// report whose sidecar write was cut short. The next
    /// [`DiskCache::recover`] sweep must clean up both.
    #[doc(hidden)]
    pub fn inject_torn_publish(&self) -> io::Result<()> {
        let pid = std::process::id();
        let reports = self.dir.join("reports");
        // Died between tmp-write and rename: the orphan.
        fs::write(
            reports.join(format!("{pid:016x}-all-v0.tmp{pid}")),
            "partial publish bytes",
        )?;
        // Died between the report rename and the sidecar publish: a
        // visible report with a truncated checksum line.
        let txt = reports.join(format!(
            "{pid:016x}-all-v{}.txt",
            kaleidoscope_pta::PTS_REPR_VERSION
        ));
        fs::write(&txt, "torn report body\n")?;
        fs::write(txt.with_extension("sum"), "00ab")?;
        Ok(())
    }

    /// Cap the store's total artifact bytes. After every publish the
    /// oldest artifacts (by modification time) are evicted until the store
    /// fits; the artifact just published is the newest, so it survives
    /// unless it alone exceeds the cap. `0` disables the cap.
    pub fn with_max_bytes(mut self, max: u64) -> DiskCache {
        self.max_bytes = if max == 0 { None } else { Some(max) };
        self
    }

    /// The configured size cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Resolve a store from an explicit `--cache-dir` value, falling back
    /// to `KD_CACHE_DIR`. `Ok(None)` means neither is set.
    pub fn resolve(flag: Option<&str>) -> io::Result<Option<DiskCache>> {
        let dir = flag
            .map(str::to_owned)
            .or_else(|| std::env::var(CACHE_DIR_ENV).ok().filter(|s| !s.is_empty()));
        dir.map(DiskCache::open).transpose()
    }

    /// The root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current traffic counters.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            report_lookups: self.report_lookups.load(Ordering::Relaxed),
            report_hits: self.report_hits.load(Ordering::Relaxed),
            state_lookups: self.state_lookups.load(Ordering::Relaxed),
            state_hits: self.state_hits.load(Ordering::Relaxed),
            fe_lookups: self.fe_lookups.load(Ordering::Relaxed),
            fe_hits: self.fe_hits.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            tmp_swept: self.tmp_swept.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    fn module_path(&self, fp: u64) -> PathBuf {
        self.dir.join("modules").join(format!("{fp:016x}.kir"))
    }

    fn report_path(&self, fp: u64, scope: ReportScope) -> PathBuf {
        self.dir.join("reports").join(format!(
            "{fp:016x}-{}-v{}.txt",
            scope.tag(),
            kaleidoscope_pta::PTS_REPR_VERSION
        ))
    }

    /// Atomically publish `content` at `path` (same-directory temp file +
    /// rename, so readers never observe a torn file).
    fn publish(path: &Path, content: &str) -> io::Result<()> {
        Self::publish_bytes(path, content.as_bytes())
    }

    /// Byte-level [`DiskCache::publish`] (state snapshots are binary).
    fn publish_bytes(path: &Path, content: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        fs::write(&tmp, content)?;
        fs::rename(&tmp, path)
    }

    /// Total bytes currently stored across modules and reports (sidecars
    /// included).
    pub fn total_bytes(&self) -> u64 {
        Self::scan_artifacts(&self.dir)
            .iter()
            .map(|a| a.bytes)
            .sum()
    }

    /// Enumerate evictable artifacts. A report's `.txt` and `.sum` sidecar
    /// are one artifact (evicted together); a module file is one artifact.
    fn scan_artifacts(dir: &Path) -> Vec<Artifact> {
        let mut out = Vec::new();
        for sub in ["modules", "reports", "state", "fe"] {
            let Ok(entries) = fs::read_dir(dir.join(sub)) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let Ok(meta) = entry.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                if path.extension().is_some_and(|e| e == "sum") {
                    continue; // accounted for with its .txt/.bin below
                }
                let mut bytes = meta.len();
                let mut sidecar = None;
                if path.extension().is_some_and(|e| e == "txt" || e == "bin") {
                    let sum = path.with_extension("sum");
                    if let Ok(m) = fs::metadata(&sum) {
                        bytes += m.len();
                        sidecar = Some(sum);
                    }
                }
                let mtime = meta.modified().ok();
                out.push(Artifact {
                    path,
                    sidecar,
                    bytes,
                    mtime,
                });
            }
        }
        out
    }

    /// Evict oldest artifacts until the store fits under `max_bytes`.
    /// Ties on modification time break by path, so eviction order is
    /// deterministic even on coarse-mtime filesystems.
    fn enforce_cap(&self) {
        let Some(cap) = self.max_bytes else { return };
        let mut artifacts = Self::scan_artifacts(&self.dir);
        let mut total: u64 = artifacts.iter().map(|a| a.bytes).sum();
        if total <= cap {
            return;
        }
        artifacts.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
        for a in &artifacts {
            if total <= cap {
                break;
            }
            let _ = fs::remove_file(&a.path);
            if let Some(s) = &a.sidecar {
                let _ = fs::remove_file(s);
            }
            total = total.saturating_sub(a.bytes);
        }
    }

    /// Store a module's canonical text under fingerprint `fp`.
    ///
    /// `text` must be the canonical form
    /// ([`Module::to_text`](kaleidoscope_ir::Module::to_text)) so that
    /// re-parsing the stored text yields the same fingerprint.
    pub fn put_module(&self, fp: u64, text: &str) -> io::Result<()> {
        let path = self.module_path(fp);
        if path.exists() {
            return Ok(()); // content-addressed: identical by construction
        }
        Self::publish(&path, text)?;
        self.enforce_cap();
        Ok(())
    }

    /// Whether `modules/` holds an entry for `fp` (checked before printing
    /// a module's canonical text to store it).
    pub fn has_module(&self, fp: u64) -> bool {
        self.module_path(fp).exists()
    }

    /// Fetch a module's canonical text by fingerprint.
    pub fn get_module(&self, fp: u64) -> Option<String> {
        fs::read_to_string(self.module_path(fp)).ok()
    }

    /// Store a healthy analyze report.
    pub fn put_report(&self, fp: u64, scope: ReportScope, text: &str) -> io::Result<()> {
        let path = self.report_path(fp, scope);
        Self::publish(&path, text)?;
        let sum = format!("{:016x} {}", fnv64(text.as_bytes()), text.len());
        Self::publish(&path.with_extension("sum"), &sum)?;
        self.enforce_cap();
        Ok(())
    }

    /// Fetch a verified report; checksum mismatches count as misses (and
    /// bump `verify_failures`) so a torn or tampered entry is recomputed,
    /// never served.
    pub fn get_report(&self, fp: u64, scope: ReportScope) -> Option<String> {
        self.report_lookups.fetch_add(1, Ordering::Relaxed);
        let path = self.report_path(fp, scope);
        let text = fs::read_to_string(&path).ok()?;
        let sum = fs::read_to_string(path.with_extension("sum")).ok()?;
        let want = format!("{:016x} {}", fnv64(text.as_bytes()), text.len());
        if sum != want {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.report_hits.fetch_add(1, Ordering::Relaxed);
        Some(text)
    }

    fn state_path(&self, fp: u64, opts_key: u64, with_ctx: bool) -> PathBuf {
        self.dir.join("state").join(format!(
            "{fp:016x}-k{opts_key:x}{}-v{}i{}.bin",
            if with_ctx { "c" } else { "" },
            kaleidoscope_pta::PTS_REPR_VERSION,
            kaleidoscope_pta::INCR_STATE_VERSION,
        ))
    }

    /// Store a solved-state snapshot for `(fp, opts_key, with_ctx)` —
    /// the serialized fixpoint of a converged solve, fetched later by the
    /// next revision of the same tenant to warm-start incrementally.
    pub fn put_state(
        &self,
        fp: u64,
        opts_key: u64,
        with_ctx: bool,
        bytes: &[u8],
    ) -> io::Result<()> {
        let path = self.state_path(fp, opts_key, with_ctx);
        Self::publish_bytes(&path, bytes)?;
        let sum = format!("{:016x} {}", fnv64(bytes), bytes.len());
        Self::publish(&path.with_extension("sum"), &sum)?;
        self.enforce_cap();
        Ok(())
    }

    /// Fetch a verified solved-state snapshot; checksum mismatches count
    /// as misses (the caller solves cold), never as wrong warm-starts.
    pub fn get_state(&self, fp: u64, opts_key: u64, with_ctx: bool) -> Option<Vec<u8>> {
        self.state_lookups.fetch_add(1, Ordering::Relaxed);
        let path = self.state_path(fp, opts_key, with_ctx);
        let bytes = fs::read(&path).ok()?;
        let sum = fs::read_to_string(path.with_extension("sum")).ok()?;
        let want = format!("{:016x} {}", fnv64(&bytes), bytes.len());
        if sum != want {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.state_hits.fetch_add(1, Ordering::Relaxed);
        Some(bytes)
    }

    fn fe_path(&self, key: u64) -> PathBuf {
        self.dir
            .join("fe")
            .join(format!("{key:016x}-v{FE_CACHE_VERSION}.bin"))
    }

    /// Store a per-function frontend entry (lowered IR + constraint block +
    /// import list, pre-encoded by the frontend loader) under its content
    /// key.
    pub fn put_fe(&self, key: u64, bytes: &[u8]) -> io::Result<()> {
        let path = self.fe_path(key);
        Self::publish_bytes(&path, bytes)?;
        let sum = format!("{:016x} {}", fnv64(bytes), bytes.len());
        Self::publish(&path.with_extension("sum"), &sum)?;
        self.enforce_cap();
        Ok(())
    }

    /// Fetch a verified frontend entry; checksum mismatches count as
    /// misses (the function re-parses), never as a wrong splice.
    pub fn get_fe(&self, key: u64) -> Option<Vec<u8>> {
        self.fe_lookups.fetch_add(1, Ordering::Relaxed);
        let path = self.fe_path(key);
        let bytes = fs::read(&path).ok()?;
        let sum = fs::read_to_string(path.with_extension("sum")).ok()?;
        let want = format!("{:016x} {}", fnv64(&bytes), bytes.len());
        if sum != want {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.fe_hits.fetch_add(1, Ordering::Relaxed);
        Some(bytes)
    }

    fn head_path(&self, tenant: &str) -> PathBuf {
        // Tenant names are client-chosen free text; key the file by hash
        // so odd characters can't escape the directory.
        self.dir
            .join("heads")
            .join(format!("t{:016x}.fp", fnv64(tenant.as_bytes())))
    }

    /// Record `fp` as the last module fingerprint served for `tenant`
    /// (the warm-start candidate for that tenant's next request).
    pub fn put_tenant_head(&self, tenant: &str, fp: u64) -> io::Result<()> {
        Self::publish(&self.head_path(tenant), &format!("{fp:016x}"))
    }

    /// The last module fingerprint served for `tenant`, if recorded.
    /// Malformed head files read as absent (a cold solve, never an error).
    pub fn get_tenant_head(&self, tenant: &str) -> Option<u64> {
        let text = fs::read_to_string(self.head_path(tenant)).ok()?;
        u64::from_str_radix(text.trim(), 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("kd-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn module_round_trip_by_fingerprint() {
        let cache = DiskCache::open(tmpdir("mod")).unwrap();
        assert_eq!(cache.get_module(0xBEEF), None);
        assert!(!cache.has_module(0xBEEF));
        cache.put_module(0xBEEF, "module \"m\" {\n}\n").unwrap();
        assert!(cache.has_module(0xBEEF));
        assert_eq!(
            cache.get_module(0xBEEF).as_deref(),
            Some("module \"m\" {\n}\n")
        );
    }

    #[test]
    fn report_round_trip_and_scope_separation() {
        let cache = DiskCache::open(tmpdir("rep")).unwrap();
        let all = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        let one = ReportScope {
            config: Some(PolicyConfig::all()),
            stats: false,
            wave: false,
        };
        cache.put_report(1, all, "full matrix\n").unwrap();
        assert_eq!(cache.get_report(1, all).as_deref(), Some("full matrix\n"));
        assert_eq!(cache.get_report(1, one), None, "scopes don't alias");
        assert_eq!(cache.get_report(2, all), None, "fingerprints don't alias");
        let stats = cache.stats();
        assert_eq!(stats.report_lookups, 3);
        assert_eq!(stats.report_hits, 1);
    }

    #[test]
    fn corrupt_report_is_a_miss_not_a_wrong_answer() {
        let dir = tmpdir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let scope = ReportScope {
            config: None,
            stats: true,
            wave: false,
        };
        cache.put_report(7, scope, "pristine\n").unwrap();
        // Damage the stored report behind the store's back.
        let path = cache.report_path(7, scope);
        fs::write(&path, "tampered\n").unwrap();
        assert_eq!(cache.get_report(7, scope), None);
        assert_eq!(cache.stats().verify_failures, 1);
        // Re-publishing repairs the entry.
        cache.put_report(7, scope, "pristine\n").unwrap();
        assert_eq!(cache.get_report(7, scope).as_deref(), Some("pristine\n"));
    }

    #[test]
    fn resolve_prefers_flag_over_env() {
        let dir = tmpdir("resolve");
        let c = DiskCache::resolve(Some(dir.to_str().unwrap()))
            .unwrap()
            .unwrap();
        assert_eq!(c.dir(), dir.as_path());
        // No flag and (in the test environment) no env: disabled. Guard the
        // assertion so a developer's exported KD_CACHE_DIR doesn't fail it.
        if std::env::var(CACHE_DIR_ENV).is_err() {
            assert!(DiskCache::resolve(None).unwrap().is_none());
        }
    }

    #[test]
    fn stats_reports_cached_before_the_row_changed_are_misses() {
        let dir = tmpdir("statsrow");
        let cache = DiskCache::open(&dir).unwrap();
        let stats = ReportScope {
            config: None,
            stats: true,
            wave: false,
        };
        // A verified report under the pre-v2 stats tag (`…-alls-v<P>`),
        // whose stats row still carried the wave counters.
        let old = dir.join("reports").join(format!(
            "{:016x}-alls-v{}.txt",
            9,
            kaleidoscope_pta::PTS_REPR_VERSION
        ));
        let text = "solver[fallback]: pops=1 strata=0\n";
        fs::write(&old, text).unwrap();
        let sum = format!("{:016x} {}", fnv64(text.as_bytes()), text.len());
        fs::write(old.with_extension("sum"), sum).unwrap();
        assert_eq!(cache.get_report(9, stats), None, "stale stats row served");
        // Non-stats report paths are unchanged, and `wave` never matters.
        let plain = ReportScope {
            stats: false,
            ..stats
        };
        assert!(cache.report_path(9, plain).ends_with(format!(
            "{:016x}-all-v{}.txt",
            9,
            kaleidoscope_pta::PTS_REPR_VERSION
        )));
        cache.put_report(9, stats, "fresh\n").unwrap();
        let wave = ReportScope {
            wave: true,
            ..stats
        };
        assert_eq!(cache.get_report(9, wave).as_deref(), Some("fresh\n"));
    }

    /// A verified report stored under stats row `old` (`…-alls<old>-…`,
    /// `…-c<k>s<old>-…`) is a miss, and a fresh publish is served.
    fn stats_reports_under_row_are_misses(old: u32) {
        assert!(old < STATS_ROW_VERSION);
        let dir = tmpdir(&format!("statsrow{old}"));
        let cache = DiskCache::open(&dir).unwrap();
        let all = ReportScope {
            config: None,
            stats: true,
            wave: false,
        };
        let one = ReportScope {
            config: Some(PolicyConfig {
                ctx: true,
                pa: false,
                pwc: true,
            }),
            ..all
        };
        let text = "solver[fallback]: pops=1 union-words=9 peak-pts-bytes=9\n";
        let (cur, stale) = (format!("s{STATS_ROW_VERSION}-v"), format!("s{old}-v"));
        for scope in [all, one] {
            let tag = cache.report_path(9, scope);
            let name = tag.file_name().unwrap().to_str().unwrap();
            assert!(name.contains(&cur), "{name}");
            let old_path = tag.with_file_name(name.replace(&cur, &stale));
            fs::write(&old_path, text).unwrap();
            let sum = format!("{:016x} {}", fnv64(text.as_bytes()), text.len());
            fs::write(old_path.with_extension("sum"), sum).unwrap();
            assert_eq!(
                cache.get_report(9, scope),
                None,
                "stale v{old} stats row served"
            );
            cache.put_report(9, scope, "fresh\n").unwrap();
            assert_eq!(cache.get_report(9, scope).as_deref(), Some("fresh\n"));
        }
    }

    #[test]
    fn stats_reports_cached_under_the_v2_row_are_misses() {
        // v2 rows carry element-wise `union-words` and `peak-pts-bytes`.
        stats_reports_under_row_are_misses(2);
    }

    #[test]
    fn stats_reports_cached_under_the_v3_row_are_misses() {
        // v3 rows count per-pop difference scans in `union-words` and the
        // solver's second copy of every set in `peak-pts-bytes`.
        stats_reports_under_row_are_misses(3);
    }

    #[test]
    fn max_bytes_cap_evicts_oldest_artifacts_at_publish() {
        let cache = DiskCache::open(tmpdir("evict"))
            .unwrap()
            .with_max_bytes(256);
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        let body = "x".repeat(100); // ~120 B per report with its sidecar
        let now = std::time::SystemTime::now();
        for fp in 0..4u64 {
            cache.put_report(fp, scope, &body).unwrap();
            // Coarse-mtime filesystems would otherwise tie all four entries;
            // back-date each so "oldest" is unambiguous.
            let age = std::time::Duration::from_secs(100 - fp * 10);
            let f = fs::File::options()
                .write(true)
                .open(cache.report_path(fp, scope))
                .unwrap();
            f.set_modified(now - age).unwrap();
        }
        // Publishing one more must evict the oldest entries, not the newest.
        cache.put_report(9, scope, &body).unwrap();
        assert!(cache.total_bytes() <= 256, "cap enforced after publish");
        assert_eq!(cache.get_report(9, scope).as_deref(), Some(body.as_str()));
        assert_eq!(cache.get_report(0, scope), None, "oldest evicted");
        assert!(
            !cache.report_path(0, scope).with_extension("sum").exists(),
            "sidecar evicted with its report"
        );
        assert_eq!(cache.get_report(3, scope).as_deref(), Some(body.as_str()));
    }

    #[test]
    fn uncapped_store_never_evicts() {
        let cache = DiskCache::open(tmpdir("uncapped"))
            .unwrap()
            .with_max_bytes(0);
        assert_eq!(cache.max_bytes(), None);
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        for fp in 0..8u64 {
            cache.put_report(fp, scope, &"y".repeat(200)).unwrap();
        }
        for fp in 0..8u64 {
            assert!(cache.get_report(fp, scope).is_some());
        }
    }

    #[test]
    fn open_sweeps_tmp_orphans_and_quarantines_corrupt_reports() {
        let dir = tmpdir("recover");
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        // A healthy store, then a simulated crash mid-publish.
        let cache = DiskCache::open(&dir).unwrap();
        cache.put_report(1, scope, "healthy\n").unwrap();
        cache.inject_torn_publish().unwrap();
        drop(cache);
        // Reopen: the orphan is swept, the torn report quarantined, the
        // healthy report untouched.
        let cache = DiskCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.tmp_swept, 1, "tmp orphan swept at open");
        assert_eq!(stats.quarantined, 1, "torn report quarantined at open");
        assert_eq!(cache.get_report(1, scope).as_deref(), Some("healthy\n"));
        let leftover_tmp = fs::read_dir(dir.join("reports"))
            .unwrap()
            .flatten()
            .filter(|e| {
                e.path()
                    .extension()
                    .and_then(|x| x.to_str())
                    .is_some_and(|x| x.starts_with("tmp"))
            })
            .count();
        assert_eq!(leftover_tmp, 0, "no .tmp files survive recovery");
        assert!(
            fs::read_dir(dir.join("quarantine")).unwrap().count() >= 2,
            "quarantine holds the txt and its sidecar"
        );
    }

    #[test]
    fn recovered_store_behaves_identically_to_a_clean_one() {
        let dir = tmpdir("recover-clean");
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.inject_torn_publish().unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        // The torn fingerprint's entry is gone: fetch misses cleanly
        // (no verify failure — the corrupt pair left the fetch path) and
        // publish-then-fetch round-trips as on a fresh store.
        // The torn report's fingerprint is the injecting pid, so this
        // fetch would have hit the corrupt pair before recovery.
        let fp = std::process::id() as u64;
        assert_eq!(cache.get_report(fp, scope), None);
        assert_eq!(cache.stats().verify_failures, 0, "quarantine beat verify");
        cache.put_report(fp, scope, "fresh\n").unwrap();
        assert_eq!(cache.get_report(fp, scope).as_deref(), Some("fresh\n"));
    }

    #[test]
    fn state_round_trip_and_key_separation() {
        let cache = DiskCache::open(tmpdir("state")).unwrap();
        let blob: Vec<u8> = (0..=255u8).collect();
        assert_eq!(cache.get_state(5, 3, false), None);
        cache.put_state(5, 3, false, &blob).unwrap();
        assert_eq!(cache.get_state(5, 3, false).as_deref(), Some(&blob[..]));
        assert_eq!(cache.get_state(5, 7, false), None, "opts keys don't alias");
        assert_eq!(cache.get_state(5, 3, true), None, "ctx flag doesn't alias");
        assert_eq!(cache.get_state(6, 3, false), None, "fps don't alias");
        let stats = cache.stats();
        assert_eq!(stats.state_lookups, 5);
        assert_eq!(stats.state_hits, 1);
        // A tampered snapshot is a miss (solve cold), never a warm-start.
        fs::write(cache.state_path(5, 3, false), b"garbage").unwrap();
        assert_eq!(cache.get_state(5, 3, false), None);
        assert_eq!(cache.stats().verify_failures, 1);
    }

    #[test]
    fn corrupt_state_is_quarantined_at_open() {
        let dir = tmpdir("state-recover");
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.put_state(11, 1, false, b"valid snapshot").unwrap();
            fs::write(cache.state_path(11, 1, false), b"torn").unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.stats().quarantined, 1, "torn snapshot quarantined");
        assert_eq!(cache.get_state(11, 1, false), None);
        assert_eq!(cache.stats().verify_failures, 0, "quarantine beat verify");
    }

    #[test]
    fn fe_entries_round_trip_and_verify() {
        let cache = DiskCache::open(tmpdir("fe")).unwrap();
        assert_eq!(cache.get_fe(0xABCD), None);
        cache.put_fe(0xABCD, b"entry bytes").unwrap();
        assert_eq!(cache.get_fe(0xABCD).as_deref(), Some(&b"entry bytes"[..]));
        assert_eq!(cache.get_fe(0xABCE), None, "keys don't alias");
        let stats = cache.stats();
        assert_eq!(stats.fe_lookups, 3);
        assert_eq!(stats.fe_hits, 1);
        // The filename carries the fe-cache version so incompatible
        // encodings never decode.
        assert!(cache
            .fe_path(0xABCD)
            .to_string_lossy()
            .contains(&format!("-v{FE_CACHE_VERSION}")));
        // Tampering reads as a miss.
        fs::write(cache.fe_path(0xABCD), b"scribbled").unwrap();
        assert_eq!(cache.get_fe(0xABCD), None);
        assert_eq!(cache.stats().verify_failures, 1);
    }

    #[test]
    fn corrupt_fe_entry_is_quarantined_at_open() {
        let dir = tmpdir("fe-recover");
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.put_fe(0x77, b"valid entry").unwrap();
            fs::write(cache.fe_path(0x77), b"torn").unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.stats().quarantined, 1, "torn fe entry quarantined");
        assert_eq!(cache.get_fe(0x77), None);
        assert_eq!(cache.stats().verify_failures, 0, "quarantine beat verify");
    }

    #[test]
    fn tenant_heads_round_trip_and_tolerate_garbage() {
        let cache = DiskCache::open(tmpdir("heads")).unwrap();
        assert_eq!(cache.get_tenant_head("acme"), None);
        cache.put_tenant_head("acme", 0xFEED_F00D).unwrap();
        cache.put_tenant_head("other", 0x42).unwrap();
        assert_eq!(cache.get_tenant_head("acme"), Some(0xFEED_F00D));
        assert_eq!(cache.get_tenant_head("other"), Some(0x42));
        cache.put_tenant_head("acme", 0x1).unwrap();
        assert_eq!(cache.get_tenant_head("acme"), Some(0x1), "last write wins");
        // A scribbled head reads as absent, never an error.
        fs::write(cache.head_path("acme"), "not hex at all").unwrap();
        assert_eq!(cache.get_tenant_head("acme"), None);
    }

    #[test]
    fn repr_version_partitions_reports() {
        let cache = DiskCache::open(tmpdir("repr")).unwrap();
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        let path = cache.report_path(3, scope);
        assert!(path
            .to_string_lossy()
            .contains(&format!("-v{}", kaleidoscope_pta::PTS_REPR_VERSION)));
    }
}
