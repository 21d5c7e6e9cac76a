//! Pointer-analysis introspection (paper §4.1).
//!
//! The introspector observes the solver and raises *alerts* when it sees
//! behaviour indicative of an imprecision explosion:
//!
//! * a pointer's points-to set grows past a threshold (the paper configures
//!   100–1000 depending on program size);
//! * a points-to set accumulates objects of too many unrelated types
//!   (10–50 in the paper);
//!
//! and for every derived copy edge it records up to five origin paths so an
//! alert can be *backtracked* (≤ 5 levels) to the primitive constraint that
//! caused it. The paper used this exact instrumentation on Nginx and a tiny
//! Linux build to choose its three likely-invariant policies.

use std::collections::HashMap;
use std::fmt;

use kaleidoscope_ir::{InstLoc, Module, Type};
use kaleidoscope_pta::gen::CopyProvenance;
use kaleidoscope_pta::gen::Origin;
use kaleidoscope_pta::observer::CollapseReason;
use kaleidoscope_pta::{NodeId, NodeTable, ObjId, PtsSet, SolverObserver};

/// Maximum origin paths retained per derived edge (paper: "we retain the
/// five most recent paths").
pub const MAX_ORIGIN_PATHS: usize = 5;

/// Maximum backtracking depth (paper: "we impose a limit of five levels").
pub const MAX_BACKTRACK: usize = 5;

/// Thresholds controlling when alerts fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntrospectionConfig {
    /// Points-to growth threshold (paper: 100–1000 by program size).
    pub growth_threshold: usize,
    /// Distinct-type threshold (paper: 10–50).
    pub type_threshold: usize,
}

impl IntrospectionConfig {
    /// Scale thresholds from module size the way the paper describes:
    /// larger programs get larger thresholds.
    pub fn for_module(module: &Module) -> Self {
        let insts = module.inst_count();
        IntrospectionConfig {
            growth_threshold: (insts / 20).clamp(100, 1000),
            type_threshold: (insts / 400).clamp(10, 50),
        }
    }

    /// Small fixed thresholds, useful for tests.
    pub fn tiny() -> Self {
        IntrospectionConfig {
            growth_threshold: 4,
            type_threshold: 3,
        }
    }
}

/// Why an alert fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertReason {
    /// The node's points-to set crossed the growth threshold.
    Growth {
        /// Set size when the alert fired.
        size: usize,
    },
    /// The node's points-to set contains too many unrelated object types.
    TypeDiversity {
        /// Distinct type count when the alert fired.
        types: usize,
    },
}

/// One introspection alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// The pointer whose set exploded.
    pub node: NodeId,
    /// Why the alert fired.
    pub reason: AlertReason,
    /// Primitive-constraint locations reached by backtracking the most
    /// recent derived edges into this node (≤ [`MAX_BACKTRACK`] levels).
    pub primitive_origins: Vec<InstLoc>,
}

/// The report produced after a solver run under introspection.
#[derive(Debug, Clone, Default)]
pub struct IntrospectionReport {
    /// All alerts, in firing order.
    pub alerts: Vec<Alert>,
    /// Objects collapsed (and why), in order.
    pub collapses: Vec<(ObjId, &'static str)>,
    /// Total derived copy edges observed.
    pub derived_edges: usize,
    /// Total cycles collapsed (pwc flag counted separately).
    pub cycles: usize,
    /// PWCs among the collapsed cycles.
    pub pwc_cycles: usize,
}

impl IntrospectionReport {
    /// Render a human-readable summary (one alert per line).
    pub fn render(&self, module: &Module, nodes: &NodeTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "introspection: {} alert(s), {} derived edge(s), {} cycle(s) ({} PWC), {} collapse(s)",
            self.alerts.len(),
            self.derived_edges,
            self.cycles,
            self.pwc_cycles,
            self.collapses.len()
        );
        for a in &self.alerts {
            let what = match &a.reason {
                AlertReason::Growth { size } => format!("grew to {size}"),
                AlertReason::TypeDiversity { types } => {
                    format!("holds {types} unrelated types")
                }
            };
            let origins = a
                .primitive_origins
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  ALERT {}: {} [origins: {}]",
                nodes.describe(a.node, module),
                what,
                if origins.is_empty() { "-" } else { &origins }
            );
        }
        out
    }
}

impl fmt::Display for IntrospectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} alerts, {} derived edges, {} cycles",
            self.alerts.len(),
            self.derived_edges,
            self.cycles
        )
    }
}

/// A coarse type key used for the type-diversity heuristic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TypeKey {
    Int,
    Ptr,
    Struct(u32),
    Array,
    Func,
    Unknown,
}

fn type_key(ty: Option<&Type>) -> TypeKey {
    match ty {
        Some(Type::Int) => TypeKey::Int,
        Some(Type::Ptr(_)) => TypeKey::Ptr,
        Some(Type::Struct(s)) => TypeKey::Struct(s.0),
        Some(Type::Array(_, _)) => TypeKey::Array,
        Some(Type::Func(_)) => TypeKey::Func,
        Some(Type::Void) | None => TypeKey::Unknown,
    }
}

/// The introspection observer. Attach with
/// [`kaleidoscope_pta::Analysis::solve`].
#[derive(Debug)]
pub struct Introspector {
    config: IntrospectionConfig,
    /// Cumulative objects added per node since the last growth alert.
    growth: HashMap<NodeId, usize>,
    /// Distinct type keys seen per node.
    types: HashMap<NodeId, Vec<TypeKey>>,
    /// Whether a type-diversity alert already fired for a node.
    type_alerted: HashMap<NodeId, bool>,
    /// Most recent origin paths per edge target (≤ 5).
    origins: HashMap<NodeId, Vec<CopyProvenance>>,
    report: IntrospectionReport,
}

impl Introspector {
    /// Create an introspector with the given thresholds.
    pub fn new(config: IntrospectionConfig) -> Self {
        Introspector {
            config,
            growth: HashMap::new(),
            types: HashMap::new(),
            type_alerted: HashMap::new(),
            origins: HashMap::new(),
            report: IntrospectionReport::default(),
        }
    }

    /// Finish and take the report.
    pub fn into_report(self) -> IntrospectionReport {
        self.report
    }

    /// Backtrack the recorded origin paths of `node` to primitive
    /// constraint locations, up to [`MAX_BACKTRACK`] levels deep.
    fn backtrack(&self, node: NodeId) -> Vec<InstLoc> {
        let mut out = Vec::new();
        let mut frontier = vec![(node, 0usize)];
        while let Some((n, depth)) = frontier.pop() {
            if depth >= MAX_BACKTRACK {
                continue;
            }
            let Some(paths) = self.origins.get(&n) else {
                continue;
            };
            for p in paths {
                match p {
                    CopyProvenance::Primitive(o) => {
                        if let Some(loc) = origin_loc(o) {
                            out.push(loc);
                        }
                    }
                    CopyProvenance::LoadDeref { load, through } => {
                        if let Some(loc) = origin_loc(load) {
                            out.push(loc);
                        }
                        frontier.push((*through, depth + 1));
                    }
                    CopyProvenance::StoreDeref { store, through } => {
                        if let Some(loc) = origin_loc(store) {
                            out.push(loc);
                        }
                        frontier.push((*through, depth + 1));
                    }
                    CopyProvenance::ICallArg { site, .. }
                    | CopyProvenance::ICallRet { site, .. } => out.push(*site),
                    CopyProvenance::CycleMerge => {}
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.truncate(MAX_ORIGIN_PATHS);
        out
    }
}

fn origin_loc(o: &Origin) -> Option<InstLoc> {
    match o {
        Origin::Inst(l) => Some(*l),
        Origin::CallArg { site, .. } | Origin::CallRet { site } | Origin::CtxBypass { site } => {
            Some(*site)
        }
        Origin::Init => None,
    }
}

impl SolverObserver for Introspector {
    fn pts_grew(&mut self, nodes: &NodeTable, target: NodeId, added: &PtsSet) {
        // Growth heuristic.
        let g = self.growth.entry(target).or_insert(0);
        *g += added.len();
        if *g >= self.config.growth_threshold {
            let size = *g;
            self.growth.insert(target, 0);
            let primitive_origins = self.backtrack(target);
            self.report.alerts.push(Alert {
                node: target,
                reason: AlertReason::Growth { size },
                primitive_origins,
            });
        }
        // Type-diversity heuristic.
        let keys = self.types.entry(target).or_default();
        for o in added.iter() {
            let k = type_key(nodes.ty(o));
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        if keys.len() >= self.config.type_threshold
            && !self.type_alerted.get(&target).copied().unwrap_or(false)
        {
            self.type_alerted.insert(target, true);
            let types = keys.len();
            let primitive_origins = self.backtrack(target);
            self.report.alerts.push(Alert {
                node: target,
                reason: AlertReason::TypeDiversity { types },
                primitive_origins,
            });
        }
    }

    fn derived_copy(
        &mut self,
        _nodes: &NodeTable,
        _from: NodeId,
        to: NodeId,
        why: &CopyProvenance,
    ) {
        self.report.derived_edges += 1;
        let paths = self.origins.entry(to).or_default();
        if paths.len() == MAX_ORIGIN_PATHS {
            paths.remove(0); // keep the five most recent
        }
        paths.push(*why);
    }

    fn cycle_collapsed(&mut self, _nodes: &NodeTable, _members: &[NodeId], pwc: bool) {
        self.report.cycles += 1;
        if pwc {
            self.report.pwc_cycles += 1;
        }
    }

    fn object_collapsed(&mut self, _nodes: &NodeTable, obj: ObjId, why: CollapseReason) {
        let tag = match why {
            CollapseReason::PtrArith(_) => "ptr-arith",
            CollapseReason::Pwc => "pwc",
        };
        self.report.collapses.push((obj, tag));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::{FunctionBuilder, Module};
    use kaleidoscope_pta::{Analysis, SolveInput, SolveOptions};

    /// A baseline solve of `m` observed by `intro`.
    fn observe(m: &Module, intro: &mut Introspector) -> Analysis {
        let input = SolveInput::default();
        let (a, _) = Analysis::solve(m, &SolveOptions::baseline(), input, intro).unwrap();
        a
    }

    /// A module where one pointer accumulates many objects of many types.
    fn explosive_module() -> Module {
        let mut m = Module::new("explosive");
        let mut structs = Vec::new();
        for i in 0..4 {
            structs.push(
                m.types
                    .declare(format!("s{i}"), vec![Type::Int, Type::Int])
                    .unwrap(),
            );
        }
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let sink = b.alloca("sink", Type::ptr(Type::Int));
        for (i, s) in structs.iter().enumerate() {
            let o = b.alloca(&format!("o{i}"), Type::Struct(*s));
            let c = b.copy_typed(&format!("c{i}"), o, Type::ptr(Type::Int));
            b.store(sink, c);
        }
        for i in 0..4 {
            let o = b.alloca(&format!("p{i}"), Type::Int);
            b.store(sink, o);
        }
        let _all = b.load("all", sink);
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn growth_alert_fires() {
        let m = explosive_module();
        let mut intro = Introspector::new(IntrospectionConfig::tiny());
        observe(&m, &mut intro);
        let report = intro.into_report();
        assert!(
            report
                .alerts
                .iter()
                .any(|a| matches!(a.reason, AlertReason::Growth { .. })),
            "expected a growth alert: {report:?}"
        );
    }

    #[test]
    fn type_diversity_alert_fires() {
        let m = explosive_module();
        let mut intro = Introspector::new(IntrospectionConfig {
            growth_threshold: 1000,
            type_threshold: 3,
        });
        observe(&m, &mut intro);
        let report = intro.into_report();
        assert!(report
            .alerts
            .iter()
            .any(|a| matches!(a.reason, AlertReason::TypeDiversity { .. })));
    }

    #[test]
    fn backtracking_reaches_primitive_origins() {
        let m = explosive_module();
        let mut intro = Introspector::new(IntrospectionConfig::tiny());
        observe(&m, &mut intro);
        let report = intro.into_report();
        let with_origins = report
            .alerts
            .iter()
            .filter(|a| !a.primitive_origins.is_empty())
            .count();
        assert!(with_origins > 0, "alerts should backtrack to primitives");
        for a in &report.alerts {
            assert!(a.primitive_origins.len() <= MAX_ORIGIN_PATHS);
        }
    }

    #[test]
    fn report_renders() {
        let m = explosive_module();
        let mut intro = Introspector::new(IntrospectionConfig::tiny());
        let a = observe(&m, &mut intro);
        let report = intro.into_report();
        let text = report.render(&m, &a.result.nodes);
        assert!(text.contains("introspection:"));
        assert!(text.contains("ALERT"));
    }

    #[test]
    fn config_scales_with_module_size() {
        let m = explosive_module();
        let c = IntrospectionConfig::for_module(&m);
        assert!(c.growth_threshold >= 100 && c.growth_threshold <= 1000);
        assert!(c.type_threshold >= 10 && c.type_threshold <= 50);
    }

    #[test]
    fn quiet_module_produces_no_alerts() {
        let mut m = Module::new("quiet");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let _c = b.copy("c", o);
        b.ret(None);
        b.finish();
        let mut intro = Introspector::new(IntrospectionConfig::tiny());
        observe(&m, &mut intro);
        assert!(intro.into_report().alerts.is_empty());
    }
}
