//! The one analyze request path: `kd analyze`, the serve worker and the
//! daemon's shed path all answer through [`analyze_request`]. What
//! differs between them is data, carried on [`AnalyzeRequest`].

use std::sync::Arc;

use kaleidoscope::PolicyConfig;
use kaleidoscope_ir::{verify_module, Module, ParseError};
use kaleidoscope_pta::SolveBudget;

use crate::{
    load_frontend, render_analyze, AnalyzeReport, DiskCache, Executor, FrontendStats,
    LoadedFrontend, ReportScope,
};

/// Where a request's program comes from.
#[derive(Debug, Clone, Copy)]
pub enum Program<'a> {
    /// Textual IR, loaded through the cached frontend ([`load_frontend`]).
    Text {
        /// The module text.
        text: &'a str,
        /// The file it was read from, named in error messages.
        path: Option<&'a str>,
    },
    /// The fingerprint of a module stored in the cache's `modules/`
    /// namespace. The stored text must re-fingerprint to this value.
    Fingerprint(u64),
    /// A module the caller loaded and verified itself (C sources and the
    /// built-in models). It is solved without frontend blocks.
    Module(&'a Module),
}

/// How one caller wants a request answered. The fields are the real
/// differences between `kd analyze`, a serve worker and the shed path.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeRequest<'a> {
    /// The module to analyze.
    pub program: Program<'a>,
    /// One configuration name, or `None` for the eight Table-3
    /// configurations in order.
    pub config: Option<&'a str>,
    /// Include the solver-counter rows in the report.
    pub stats: bool,
    /// Executor worker threads (`0` = available parallelism).
    pub jobs: usize,
    /// Frontend body-pass threads for textual IR (`0` or `1` = inline).
    pub frontend_threads: usize,
    /// Worklist pops each solve may spend; `None` = unbounded.
    pub budget: Option<usize>,
    /// The shared on-disk store.
    pub cache: Option<&'a Arc<DiskCache>>,
    /// Publish the solves' snapshots and a healthy report to `cache`.
    /// The module text is stored either way.
    pub publish: bool,
    /// Explicit warm-start source: a previous revision's fingerprint.
    /// Needs `cache` and `publish`.
    pub warm_from: Option<u64>,
    /// The tenant whose recorded head is the warm-start source when
    /// `warm_from` is `None`; the head moves to this module once answered.
    pub tenant: Option<&'a str>,
}

/// How a report relates to the shared artifact store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from the store without a solve.
    Hit,
    /// Solved; the result was not storable (degraded or store disabled).
    Miss,
    /// Solved and the healthy report was published to the store.
    Stored,
}

impl CacheDisposition {
    /// The wire name: `hit`, `miss` or `stored`.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Stored => "stored",
        }
    }

    /// Inverse of [`CacheDisposition::as_str`].
    pub fn parse(s: &str) -> Option<CacheDisposition> {
        Some(match s {
            "hit" => CacheDisposition::Hit,
            "miss" => CacheDisposition::Miss,
            "stored" => CacheDisposition::Stored,
            _ => return None,
        })
    }
}

/// An answered request.
#[derive(Debug)]
pub struct Analyzed {
    /// The report and its health summary (healthy on a cache hit).
    pub report: AnalyzeReport,
    /// The module's canonical fingerprint.
    pub fingerprint: u64,
    /// Whether the report came from, or went to, the store.
    pub cache: CacheDisposition,
    /// Frontend counters; `None` for [`Program::Module`].
    pub frontend: Option<FrontendStats>,
}

/// Answer one analyze request: parse the config scope, resolve the
/// program to a verified module, store its canonical text, look up the
/// report cache, solve and [`render_analyze`] on a miss, and publish. The
/// error is the message for the user.
///
/// The report bytes depend only on the module, the configuration scope,
/// the stats flag and — when a cell degrades — the budget; never on the
/// caller, the thread counts, the cache or the warm start.
pub fn analyze_request(req: &AnalyzeRequest<'_>) -> Result<Analyzed, String> {
    let configs: Vec<PolicyConfig> = match req.config {
        Some(name) => vec![PolicyConfig::parse(name)?],
        None => PolicyConfig::table3_order().to_vec(),
    };
    let scope = ReportScope {
        config: match configs.as_slice() {
            [c] => Some(*c),
            _ => None,
        },
        stats: req.stats,
        wave: false,
    };
    let store = req.cache.map(|c| &**c);
    let loaded;
    let (module, fp, frontend) = match req.program {
        Program::Module(module) => (module, module.fingerprint(), None),
        Program::Text { text, path } => {
            loaded = load(text, path, store, req.frontend_threads)?;
            (&loaded.module, loaded.module.fingerprint(), Some(&loaded))
        }
        Program::Fingerprint(want) => {
            let unknown =
                || format!("unknown fingerprint `{want:016x}` (submit the module inline first)");
            let text = store.and_then(|c| c.get_module(want)).ok_or_else(unknown)?;
            loaded = load(&text, None, store, req.frontend_threads)?;
            // `modules/` carries no integrity sidecar: an entry is trusted
            // only if it re-fingerprints to its name.
            if loaded.module.fingerprint() != want {
                return Err(unknown());
            }
            (&loaded.module, want, Some(&loaded))
        }
    };
    let answered = |report, cache| Analyzed {
        report,
        fingerprint: fp,
        cache,
        frontend: frontend.map(|l| l.stats),
    };
    if let Some(c) = req.cache {
        // Store the canonical form, so fetch-by-fingerprint re-parses to
        // the same fingerprint even if the submission had odd whitespace.
        if !c.has_module(fp) {
            let _ = c.put_module(fp, &module.to_text());
        }
        if let Some(text) = c.get_report(fp, scope) {
            if let Some(tenant) = req.tenant {
                let _ = c.put_tenant_head(tenant, fp);
            }
            let report = AnalyzeReport {
                text,
                degraded: 0,
                worst_tier: None,
            };
            return Ok(answered(report, CacheDisposition::Hit));
        }
    }
    let mut ex = Executor::with_jobs(req.jobs);
    if let Some(l) = frontend {
        ex = ex.with_frontend(fp, Arc::clone(&l.blocks));
    }
    if let Some(n) = req.budget {
        ex = ex.with_budget(SolveBudget::iterations(n));
    }
    if let Some(c) = req.cache.filter(|_| req.publish) {
        // The warm-start candidate is advisory: a missing or incompatible
        // snapshot just solves cold, and a self-edge is skipped outright.
        ex = ex.with_state_store(Arc::clone(c));
        let prev = req
            .warm_from
            .or_else(|| req.tenant.and_then(|t| c.get_tenant_head(t)))
            .filter(|&prev| prev != fp);
        if let Some(prev) = prev {
            ex = ex.with_incremental_from(prev);
        }
    }
    let report = render_analyze(module, &configs, &ex, req.stats);
    let mut cache = CacheDisposition::Miss;
    if let Some(c) = req.cache {
        if let Some(tenant) = req.tenant {
            let _ = c.put_tenant_head(tenant, fp);
        }
        // Only the full-precision fixpoint is storable; a degraded report
        // is an artifact of this request's budget.
        if req.publish && report.all_healthy() && c.put_report(fp, scope, &report.text).is_ok() {
            cache = CacheDisposition::Stored;
        }
    }
    Ok(answered(report, cache))
}

/// Parse and verify module text through the cached frontend.
fn load(
    text: &str,
    path: Option<&str>,
    store: Option<&DiskCache>,
    threads: usize,
) -> Result<LoadedFrontend, String> {
    let loaded = load_frontend(text, store, threads).map_err(|e| parse_error(&e, text, path))?;
    verify(&loaded.module, path)?;
    Ok(loaded)
}

/// The message for a parse failure of `text`; with the `path` it was
/// read from, it also quotes the offending line.
pub fn parse_error(e: &ParseError, text: &str, path: Option<&str>) -> String {
    match path {
        Some(path) => format!("parse error in `{path}`: {e}\n{}", e.snippet(text)),
        None => format!("parse error: {e}"),
    }
}

/// Run the IR verifier; the error lists every problem and names the
/// `path` the module was read from, if any.
pub fn verify(module: &Module, path: Option<&str>) -> Result<(), String> {
    let problems = verify_module(module);
    if problems.is_empty() {
        return Ok(());
    }
    let problems: Vec<String> = problems.iter().map(|p| p.to_string()).collect();
    Err(match path {
        Some(path) => format!("`{path}` failed verification: {}", problems.join("; ")),
        None => format!("module failed verification: {}", problems.join("; ")),
    })
}
