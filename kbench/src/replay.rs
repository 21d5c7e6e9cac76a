//! The traced replay of one analyze request.
//!
//! `kd analyze` (`cmd_analyze_full`) and the serve worker
//! (`handle_request`) both load the frontend, run the executor's
//! configuration matrix and render the report. This module makes the same
//! sequence of public calls one layer further down — frontend, disk cache,
//! pipeline stages, constraint replay, solver, incremental state — with a
//! span around each, so the traced run can attribute time to layers
//! without any tracing inside the program. The replay renders the same
//! bytes as the real path; callers compare the two, which keeps the replay
//! honest as the program changes.
//!
//! Differences from the real path, by design: cells run serially (the
//! executor runs them on `--jobs` threads), and the per-function `fe/`
//! cache traffic stays inside the `frontend.load` span because it happens
//! inside one public call.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use kaleidoscope::{assemble_result, ctx_plan_for, PolicyConfig};
use kaleidoscope_exec::{load_frontend, DiskCache, ReportScope};
use kaleidoscope_ir::{parse_module, verify_module, Module};
use kaleidoscope_pta::gen::generate_spliced;
use kaleidoscope_pta::{
    Analysis, ConstraintDiff, CtxPlan, ModuleBlocks, NullObserver, PtsStats, SolveOptions,
    SolvedState, Solver,
};

use crate::trace::Trace;

/// Where a replayed request reads and writes cached state: the serve
/// worker's disk cache and the tenant whose head it advances.
pub struct Store<'a> {
    pub cache: &'a DiskCache,
    pub tenant: &'a str,
}

/// What a replayed request produced.
pub struct Replayed {
    pub report: String,
    pub hit: bool,
}

/// The previous revision, loaded once per request (the executor memoizes
/// it the same way).
struct Prev {
    module: Arc<Module>,
    blocks: Arc<ModuleBlocks>,
}

struct Ctx<'a> {
    module: &'a Module,
    fp: u64,
    blocks: &'a ModuleBlocks,
    store: Option<&'a Store<'a>>,
    prev_fp: Option<u64>,
    prev: Option<Option<Prev>>,
}

/// Replay one analyze of `text` under `configs`. With a store this is the
/// serve worker's sequence (module publish, report lookup, tenant head,
/// warm start from the head's snapshot, report publish); without one it is
/// `kd analyze` with no cache directory.
pub fn analyze(
    tr: &mut Trace,
    text: &str,
    configs: &[PolicyConfig],
    store: Option<&Store<'_>>,
) -> Result<Replayed, String> {
    let cache = store.map(|s| s.cache);
    let loaded = tr.span("frontend.load", |tr| {
        let loaded = load_frontend(text, cache, 0).map_err(|e| format!("parse error: {e}"))?;
        let st = loaded.stats;
        tr.derived(
            "frontend.parse",
            std::time::Duration::from_millis(st.parse_ms),
        );
        tr.derived("frontend.gen", std::time::Duration::from_millis(st.gen_ms));
        tr.count("frontend.funcs", st.funcs as f64);
        tr.count("frontend.fe_hits", st.fe_cache_hits as f64);
        if cache.is_some() {
            tr.count("diskcache.fe_lookups", st.funcs as f64);
            tr.count("diskcache.fe_hits", st.fe_cache_hits as f64);
        }
        Ok::<_, String>(loaded)
    })?;
    let module = loaded.module;
    let problems = tr.span("ir.verify", |_| verify_module(&module));
    if !problems.is_empty() {
        return Err(format!(
            "module failed verification: {} problems",
            problems.len()
        ));
    }
    let fp = module.fingerprint();
    let scope = ReportScope {
        config: (configs.len() == 1).then(|| configs[0]),
        stats: false,
        wave: false,
    };
    if let Some(s) = store {
        let canon = tr.span("ir.print", |_| module.to_text());
        tr.count("diskcache.bytes_written", canon.len() as f64);
        tr.span("diskcache.module_put", |_| s.cache.put_module(fp, &canon))
            .map_err(|e| format!("module publish: {e}"))?;
        tr.count("diskcache.report_lookups", 1.0);
        if let Some(report) = tr.span("diskcache.report_get", |_| s.cache.get_report(fp, scope)) {
            tr.count("diskcache.report_hits", 1.0);
            put_head(tr, s, fp)?;
            return Ok(Replayed { report, hit: true });
        }
    }
    let prev_fp = match store {
        Some(s) => tr
            .span("diskcache.head_get", |_| s.cache.get_tenant_head(s.tenant))
            .filter(|&p| p != fp),
        None => None,
    };
    let mut cx = Ctx {
        module: &module,
        fp,
        blocks: &loaded.blocks,
        store,
        prev_fp,
        prev: None,
    };
    let report = tr.span("executor.matrix", |tr| render(tr, &mut cx, configs))?;
    if let Some(s) = store {
        put_head(tr, s, fp)?;
        tr.count("diskcache.bytes_written", report.len() as f64);
        tr.span("diskcache.report_put", |_| {
            s.cache.put_report(fp, scope, &report)
        })
        .map_err(|e| format!("report publish: {e}"))?;
    }
    Ok(Replayed { report, hit: false })
}

fn put_head(tr: &mut Trace, s: &Store<'_>, fp: u64) -> Result<(), String> {
    tr.count("diskcache.bytes_written", 16.0);
    tr.span("diskcache.head_put", |_| {
        s.cache.put_tenant_head(s.tenant, fp)
    })
    .map_err(|e| format!("head publish: {e}"))
}

/// The executor's matrix for one module, serially, with its artifact
/// dedup (one solve per `(options, ctx)` key), rendered exactly as
/// `render_analyze` renders it.
fn render(tr: &mut Trace, cx: &mut Ctx<'_>, configs: &[PolicyConfig]) -> Result<String, String> {
    let module = cx.module;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "module `{}`: {} functions, {} instructions",
        module.name,
        module.funcs.len(),
        module.inst_count()
    );
    let _ = writeln!(
        out,
        "{:<13} {:>8} {:>8} {:>8} {:>11}",
        "config", "avg-pts", "max-pts", "pointers", "invariants"
    );
    let mut artifacts: HashMap<(u64, bool), Arc<Analysis>> = HashMap::new();
    let mut plan: Option<Arc<CtxPlan>> = None;
    for &config in configs {
        let base = SolveOptions::baseline();
        let fallback = artifact(tr, cx, &mut artifacts, "pipeline.fallback", &base, None)?;
        let ctx_plan = if config.ctx {
            plan.get_or_insert_with(|| {
                Arc::new(tr.span("pipeline.ctx_plan", |_| ctx_plan_for(module, config)))
            })
            .clone()
        } else {
            Arc::new(CtxPlan::new())
        };
        let opts = SolveOptions::optimistic(config.pa, config.pwc);
        let with_plan = config.ctx.then(|| (config, &*ctx_plan));
        let optimistic = artifact(
            tr,
            cx,
            &mut artifacts,
            "pipeline.optimistic",
            &opts,
            with_plan,
        )?;
        let r = tr.span("pipeline.assemble", |_| {
            assemble_result(module, config, fallback, optimistic, (*ctx_plan).clone())
        });
        tr.count("pipeline.invariants", r.invariants.len() as f64);
        let pstats = tr.span("report.pts_stats", |_| {
            PtsStats::collect(&r.optimistic, module)
        });
        tr.span("report.render", |_| {
            let _ = writeln!(
                out,
                "{:<13} {:>8.2} {:>8} {:>8} {:>11}",
                config.name(),
                pstats.avg,
                pstats.max,
                pstats.count,
                r.invariants.len()
            );
            for inv in &r.invariants {
                let _ = writeln!(out, "    {inv}");
            }
        });
    }
    Ok(out)
}

/// One solve artifact through the executor's dedup: a hit returns the
/// earlier solve, a miss runs the stage (warm-started when the store
/// holds the previous revision's snapshot for these options).
fn artifact(
    tr: &mut Trace,
    cx: &mut Ctx<'_>,
    artifacts: &mut HashMap<(u64, bool), Arc<Analysis>>,
    stage: &'static str,
    opts: &SolveOptions,
    plan: Option<(PolicyConfig, &CtxPlan)>,
) -> Result<Arc<Analysis>, String> {
    let key = (opts.cache_key(), plan.is_some());
    tr.count("executor.artifact_lookups", 1.0);
    if let Some(a) = artifacts.get(&key) {
        tr.count("executor.artifact_hits", 1.0);
        return Ok(a.clone());
    }
    let a = Arc::new(tr.span(stage, |tr| solve(tr, cx, opts, plan))?);
    artifacts.insert(key, a.clone());
    Ok(a)
}

fn solve(
    tr: &mut Trace,
    cx: &mut Ctx<'_>,
    opts: &SolveOptions,
    plan: Option<(PolicyConfig, &CtxPlan)>,
) -> Result<Analysis, String> {
    let (module, fp) = (cx.module, cx.fp);
    let ctx_plan = plan.map(|(_, p)| p);
    let Some(store) = cx.store else {
        let program = tr.span("block.replay", |_| {
            generate_spliced(module, ctx_plan, Some(cx.blocks))
        });
        let result = tr.span("solver.solve", |tr| {
            let r = Solver::new(module, program, opts.clone()).try_solve(&mut NullObserver);
            if let Ok(r) = &r {
                tr.derived("solver.propagate", r.stats.duration);
            }
            r
        });
        let result = result.map_err(|e| format!("solve failed: {e}"))?;
        note_solve(tr, &result.stats);
        return Ok(Analysis { result });
    };
    let opts_key = opts.cache_key();
    let prev = prev_inputs(tr, cx, store, opts_key, plan.is_some());
    let program = tr.span("block.replay", |_| {
        generate_spliced(module, ctx_plan, Some(cx.blocks))
    });
    let outcome = match prev {
        Some((prev_module, prev_blocks, state)) => {
            tr.count("incr.attempts", 1.0);
            let prev_plan = plan.map(|(config, _)| {
                tr.span("pipeline.ctx_plan", |_| ctx_plan_for(&prev_module, config))
            });
            let prev_program = tr.span("block.replay", |_| {
                generate_spliced(&prev_module, prev_plan.as_ref(), Some(&prev_blocks))
            });
            let diff = tr.span("incr.diff", |_| {
                ConstraintDiff::compute(&prev_module, &prev_program, module, &program)
            });
            tr.span("incr.resolve", |tr| {
                let r = Solver::new(module, program, opts.clone())
                    .try_resolve_incremental_captured(fp, &state, &diff, &mut NullObserver);
                if let Ok((r, _)) = &r {
                    tr.derived("solver.propagate", r.stats.duration);
                }
                r
            })
        }
        None => tr.span("solver.solve", |tr| {
            let r = Solver::new(module, program, opts.clone())
                .try_solve_captured(fp, &mut NullObserver);
            if let Ok((r, _)) = &r {
                tr.derived("solver.propagate", r.stats.duration);
            }
            r
        }),
    };
    let (result, state) = outcome.map_err(|e| format!("solve failed: {e}"))?;
    note_solve(tr, &result.stats);
    if result.stats.incr_reused > 0 && result.stats.incr_fallback_full == 0 {
        tr.count("incr.warm_starts", 1.0);
    }
    tr.count("incr.seeded_nodes", result.stats.incr_seeded_nodes as f64);
    if let Some(state) = state {
        let bytes = tr.span("incr.encode", |_| state.to_bytes());
        tr.count("incr.state_bytes", bytes.len() as f64);
        tr.count("diskcache.bytes_written", bytes.len() as f64);
        // Best effort, as in the executor: a failed write only costs the
        // next edit its warm start.
        let _ = tr.span("diskcache.state_put", |_| {
            store.cache.put_state(fp, opts_key, plan.is_some(), &bytes)
        });
    }
    Ok(Analysis { result })
}

fn note_solve(tr: &mut Trace, s: &kaleidoscope_pta::SolveStats) {
    tr.count("solver.pops", s.iterations as f64);
    tr.count("solver.union_words", s.union_words as f64);
    tr.count("solver.nodes", s.node_count as f64);
    tr.max("solver.peak_pts_bytes", s.peak_pts_bytes as f64);
}

/// The previous revision's snapshot for one solve family, plus its module
/// and blocks: `None` on any miss or mismatch, exactly as the executor
/// decides (the solve then runs cold).
fn prev_inputs(
    tr: &mut Trace,
    cx: &mut Ctx<'_>,
    store: &Store<'_>,
    opts_key: u64,
    with_ctx: bool,
) -> Option<(Arc<Module>, Arc<ModuleBlocks>, SolvedState)> {
    let prev_fp = cx.prev_fp?;
    tr.count("diskcache.state_lookups", 1.0);
    let bytes = tr.span("diskcache.state_get", |_| {
        store.cache.get_state(prev_fp, opts_key, with_ctx)
    })?;
    tr.count("diskcache.state_hits", 1.0);
    let state = tr.span("incr.decode", |_| SolvedState::from_bytes(&bytes))?;
    if state.fingerprint != prev_fp {
        return None;
    }
    if cx.prev.is_none() {
        let loaded = (|| {
            let text = tr.span("diskcache.module_get", |_| store.cache.get_module(prev_fp))?;
            let module = tr.span("ir.parse", |_| parse_module(&text).ok())?;
            if module.fingerprint() != prev_fp {
                return None;
            }
            let blocks = tr.span("block.build", |_| ModuleBlocks::build_parallel(&module, 1));
            Some(Prev {
                module: Arc::new(module),
                blocks: Arc::new(blocks),
            })
        })();
        cx.prev = Some(loaded);
    }
    let prev = cx.prev.as_ref()?.as_ref()?;
    Some((prev.module.clone(), prev.blocks.clone(), state))
}
