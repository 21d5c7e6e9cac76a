//! The per-layer metrics of the traced run, in `BENCHMARK.json` order.
//!
//! Time metrics are span self times summed over the traced operations;
//! counts are summed (peaks maximized). A layer a workload never enters
//! reads 0 there — the benchmark's prediction for that workload.

use crate::report::Outcome;
use crate::trace::Trace;

/// Span self times reported directly, by metric name and span name.
const SELF_TIMES: [(&str, &str); 34] = [
    ("frontend.load_ms", "frontend.load"),
    ("frontend.parse_ms", "frontend.parse"),
    ("frontend.gen_ms", "frontend.gen"),
    ("ir.parse_ms", "ir.parse"),
    ("ir.verify_ms", "ir.verify"),
    ("ir.print_ms", "ir.print"),
    ("block.build_ms", "block.build"),
    ("block.replay_ms", "block.replay"),
    ("solver.solve_ms", "solver.solve"),
    ("solver.propagate_ms", "solver.propagate"),
    ("incr.resolve_ms", "incr.resolve"),
    ("incr.diff_ms", "incr.diff"),
    ("incr.encode_ms", "incr.encode"),
    ("incr.decode_ms", "incr.decode"),
    ("pipeline.fallback_ms", "pipeline.fallback"),
    ("pipeline.ctx_plan_ms", "pipeline.ctx_plan"),
    ("pipeline.optimistic_ms", "pipeline.optimistic"),
    ("pipeline.assemble_ms", "pipeline.assemble"),
    ("executor.matrix_ms", "executor.matrix"),
    ("report.render_ms", "report.render"),
    ("report.pts_stats_ms", "report.pts_stats"),
    ("diskcache.report_get_ms", "diskcache.report_get"),
    ("diskcache.report_put_ms", "diskcache.report_put"),
    ("diskcache.state_get_ms", "diskcache.state_get"),
    ("diskcache.state_put_ms", "diskcache.state_put"),
    ("diskcache.module_get_ms", "diskcache.module_get"),
    ("diskcache.module_put_ms", "diskcache.module_put"),
    ("diskcache.head_get_ms", "diskcache.head_get"),
    ("diskcache.head_put_ms", "diskcache.head_put"),
    ("protocol.encode_ms", "protocol.encode"),
    ("protocol.decode_ms", "protocol.decode"),
    ("router.worker_ms", "router.worker"),
    ("router.handle_line_ms", "router.handle_line"),
    ("transport.ms", "transport"),
];

/// Counters reported as they were recorded.
const COUNTS: [(&str, &str); 7] = [
    ("solver.pops", "count"),
    ("solver.union_words", "count"),
    ("solver.peak_pts_bytes", "bytes"),
    ("solver.nodes", "count"),
    ("incr.state_bytes", "bytes"),
    ("incr.seeded_nodes", "count"),
    ("pipeline.invariants", "count"),
];

fn ratio(tr: &Trace, num: &str, den: &str) -> f64 {
    let d = tr.counter(den);
    if d > 0.0 {
        tr.counter(num) / d
    } else {
        0.0
    }
}

/// Fill `o` with every per-layer metric. `overhead_pct` compares traced
/// operations with the same operations run with recording off.
pub fn fill(o: &mut Outcome, tr: &Trace, overhead_pct: f64) {
    let (self_ms, unattributed) = tr.self_times_ms();
    let e2e = tr.roots_ms();
    for (metric, span) in SELF_TIMES {
        o.metric(
            metric,
            self_ms.get(span).copied().unwrap_or(0.0),
            "ms",
            None,
        );
    }
    for (name, unit) in COUNTS {
        o.metric(name, tr.counter(name), unit, None);
    }
    let (solve_b, solve_c) = tr.alloc_in("solver.solve");
    let (incr_b, incr_c) = tr.alloc_in("incr.resolve");
    o.metric(
        "solver.alloc_bytes",
        (solve_b + incr_b) as f64,
        "bytes",
        None,
    );
    o.metric(
        "solver.alloc_calls",
        (solve_c + incr_c) as f64,
        "count",
        None,
    );
    o.metric(
        "frontend.fe_hit_ratio",
        ratio(tr, "frontend.fe_hits", "frontend.funcs"),
        "ratio",
        None,
    );
    o.metric(
        "incr.warm_start_ratio",
        ratio(tr, "incr.warm_starts", "incr.attempts"),
        "ratio",
        None,
    );
    o.metric(
        "executor.artifact_hit_ratio",
        ratio(tr, "executor.artifact_hits", "executor.artifact_lookups"),
        "ratio",
        None,
    );
    for ns in ["report", "state", "fe"] {
        let (hits, lookups) = match ns {
            "report" => ("diskcache.report_hits", "diskcache.report_lookups"),
            "state" => ("diskcache.state_hits", "diskcache.state_lookups"),
            _ => ("diskcache.fe_hits", "diskcache.fe_lookups"),
        };
        o.metric(
            &format!("diskcache.{ns}_hit_ratio"),
            ratio(tr, hits, lookups),
            "ratio",
            None,
        );
    }
    for (name, unit) in [
        ("diskcache.bytes_written", "bytes"),
        ("protocol.frame_bytes", "bytes"),
        ("router.admitted", "count"),
        ("router.shed", "count"),
        ("router.errors", "count"),
    ] {
        o.metric(name, tr.counter(name), unit, None);
    }
    o.metric("trace.e2e_ms", e2e, "ms", None);
    o.metric("trace.unattributed_ms", unattributed, "ms", None);
    o.metric("trace.overhead_pct", overhead_pct, "%", None);
    o.metric("trace.spans", tr.span_count() as f64, "count", None);
    // The additive check: every self time plus the remainder is the
    // traced end-to-end time.
    let attributed: f64 = self_ms.values().sum();
    o.extra("trace.attributed_ms", attributed, "ms", None);
    if (attributed + unattributed - e2e).abs() > 1e-6 * e2e.max(1.0) {
        o.fail(format!(
            "trace does not add up: {attributed} + {unattributed} != {e2e} ms"
        ));
    }
    for span in self_ms.keys() {
        if !SELF_TIMES.iter().any(|(_, s)| s == span) {
            o.fail(format!("span `{span}` has no per-layer metric"));
        }
    }
}
