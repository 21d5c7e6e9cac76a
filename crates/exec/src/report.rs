//! The canonical `analyze` report renderer.
//!
//! `kd analyze`, the serve daemon's worker processes, and the degraded
//! admission tier all render analysis results through this one function,
//! which is what makes a served response byte-identical to the offline
//! CLI report for the same module and configuration — the serving
//! acceptance criterion, and the property the e2e tests assert.

use std::fmt::Write as _;

use kaleidoscope::{CellHealth, DegradedTier, PolicyConfig};
use kaleidoscope_ir::Module;
use kaleidoscope_pta::PtsStats;

use crate::Executor;

/// A rendered analyze report plus the health summary the serving layer
/// tags responses with.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The rendered report text (exactly what `kd analyze` prints).
    pub text: String,
    /// Number of degraded configuration cells.
    pub degraded: usize,
    /// The lowest ladder rung any cell landed on (`None` = all healthy).
    pub worst_tier: Option<DegradedTier>,
}

impl AnalyzeReport {
    /// Whether every cell ran as configured.
    pub fn all_healthy(&self) -> bool {
        self.degraded == 0
    }
}

/// Render the analyze report for `module × configs` through `ex`.
///
/// The output is deterministic for a given module + config set + executor
/// budget: worker count, cache warmth, and interleaving never change a
/// byte (see the executor crate docs). With `stats` set, each row carries
/// the solver's internal counters.
pub fn render_analyze(
    module: &Module,
    configs: &[PolicyConfig],
    ex: &Executor,
    stats: bool,
) -> AnalyzeReport {
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
    let results = ex.run_matrix(&[module], configs);
    let mut degraded = 0usize;
    let mut worst_tier: Option<DegradedTier> = None;
    for r in &results[0] {
        let c = r.config;
        let pstats = PtsStats::collect(&r.optimistic, module);
        let _ = writeln!(
            out,
            "{:<13} {:>8.2} {:>8} {:>8} {:>11}",
            c.name(),
            pstats.avg,
            pstats.max,
            pstats.count,
            r.invariants.len()
        );
        if let CellHealth::Degraded { tier, reason } = &r.health {
            degraded += 1;
            worst_tier = Some(match (worst_tier, *tier) {
                (Some(DegradedTier::Steensgaard), _) | (_, DegradedTier::Steensgaard) => {
                    DegradedTier::Steensgaard
                }
                _ => DegradedTier::Fallback,
            });
            let _ = writeln!(out, "    degraded: serving {tier} tier — {reason}");
        }
        for inv in &r.invariants {
            let _ = writeln!(out, "    {inv}");
        }
        if stats {
            for (tag, a) in [("fallback", &r.fallback), ("optimistic", &r.optimistic)] {
                let s = &a.result.stats;
                let _ = writeln!(
                    out,
                    "    solver[{tag}]: pops={} scc-passes={} union-words={} \
                     peak-pts-bytes={} copy-edges={} collapsed-objects={}",
                    s.iterations,
                    s.scc_passes,
                    s.union_words,
                    s.peak_pts_bytes,
                    s.copy_edges,
                    s.collapsed_objects
                );
                if s.incr_reused > 0 || s.incr_fallback_full > 0 {
                    let _ = writeln!(
                        out,
                        "    incr[{tag}]: incr-reused={} incr-seeded={} incr-fallback-full={}",
                        s.incr_reused, s.incr_seeded_nodes, s.incr_fallback_full
                    );
                }
            }
        }
    }
    if degraded > 0 {
        let _ = writeln!(
            out,
            "warning: {degraded}/{} configurations degraded (see `degraded:` lines above)",
            results[0].len()
        );
    }
    AnalyzeReport {
        text: out,
        degraded,
        worst_tier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_pta::SolveBudget;

    fn model() -> Module {
        kaleidoscope_apps::model("TinyDTLS")
            .expect("bundled model")
            .module
    }

    #[test]
    fn healthy_report_has_no_tier() {
        let m = model();
        let ex = Executor::with_jobs(2);
        let r = render_analyze(&m, &PolicyConfig::table3_order(), &ex, false);
        assert!(r.all_healthy());
        assert_eq!(r.worst_tier, None);
        assert!(r.text.contains("Kaleidoscope"));
    }

    #[test]
    fn exhausted_budget_reports_worst_tier() {
        let m = model();
        let ex = Executor::with_jobs(2).with_budget(SolveBudget::iterations(1));
        let r = render_analyze(&m, &PolicyConfig::table3_order(), &ex, false);
        assert_eq!(r.degraded, 8);
        assert_eq!(r.worst_tier, Some(DegradedTier::Steensgaard));
        assert!(r.text.contains("configurations degraded"));
    }
}
