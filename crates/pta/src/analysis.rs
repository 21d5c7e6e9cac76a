//! High-level analysis facade.
//!
//! [`Analysis`] bundles constraint generation and solving, and offers the
//! queries the rest of the system needs: per-variable points-to sets,
//! indirect-callsite targets, and the "top-level pointer" enumeration the
//! paper's Table 3 statistics are computed over.

use kaleidoscope_ir::{FuncId, InstLoc, LocalId, Module};

use crate::block::ModuleBlocks;
use crate::ctxplan::CtxPlan;
use crate::gen::generate_spliced;
use crate::incr::{ConstraintDiff, SolvedState};
use crate::node::{NodeId, ObjSite};
use crate::observer::{NullObserver, SolverObserver};
use crate::pts::PtsSet;
use crate::solver::{SolveError, SolveOptions, SolveResult, Solver};

/// A completed pointer analysis over one module.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The raw solver result.
    pub result: SolveResult,
}

/// The parallel executor shares modules and finished analyses across worker
/// threads; these types must stay `Send + Sync` (plain owned data, no
/// interior mutability).
#[allow(dead_code)]
fn _assert_shareable() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Module>();
    send_sync::<Analysis>();
    send_sync::<SolveResult>();
    send_sync::<SolveOptions>();
    send_sync::<CtxPlan>();
}

/// The previous revision a solve warm-starts from: its module, the context
/// plan and frontend blocks its constraints were generated with, and the
/// fixpoint captured from its solve under the same options.
#[derive(Debug, Clone, Copy)]
pub struct PrevRevision<'a> {
    /// The previous module revision.
    pub module: &'a Module,
    /// The context plan the previous revision was generated with.
    pub plan: Option<&'a CtxPlan>,
    /// Pre-recorded frontend blocks of the previous revision.
    pub blocks: Option<&'a ModuleBlocks>,
    /// The previous revision's captured fixpoint.
    pub state: &'a SolvedState,
}

/// How a solve is requested. The default is a cold solve of live-generated,
/// context-insensitive constraints with no snapshot capture.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveInput<'a> {
    /// Context plan feeding constraint generation.
    pub ctx_plan: Option<&'a CtxPlan>,
    /// Pre-recorded frontend blocks: generation replays them for every
    /// function the context plan does not affect, producing a program
    /// identical to live generation.
    pub blocks: Option<&'a ModuleBlocks>,
    /// Warm start: seed the worklist with only what the edit touched. Any
    /// incompatible edit falls back to a sound full solve, visible as
    /// `stats.incr_fallback_full == 1`.
    pub prev: Option<PrevRevision<'a>>,
    /// Capture a [`SolvedState`] of the fixpoint when the solve converges,
    /// for later warm starts of edited revisions.
    pub capture: bool,
}

impl Analysis {
    /// Generate constraints and solve, without a context plan or observer,
    /// panicking if the budget of `opts` runs out (the default budget is
    /// effectively unlimited).
    pub fn run(module: &Module, opts: &SolveOptions) -> Analysis {
        Self::solve(module, opts, SolveInput::default(), &mut NullObserver)
            .unwrap_or_else(|e| panic!("likely divergence: {e}"))
            .0
    }

    /// Generate constraints as `input` requests and solve them under
    /// `opts`, reporting events to `obs`. Returns the typed budget error
    /// when the solve budget is exhausted, and the captured snapshot when
    /// `input.capture` is set and the solve converged.
    pub fn solve(
        module: &Module,
        opts: &SolveOptions,
        input: SolveInput<'_>,
        obs: &mut dyn SolverObserver,
    ) -> Result<(Analysis, Option<SolvedState>), SolveError> {
        let program = generate_spliced(module, input.ctx_plan, input.blocks);
        let warm = input.prev.map(|prev| {
            let prev_program = generate_spliced(prev.module, prev.plan, prev.blocks);
            let diff = ConstraintDiff::compute(prev.module, &prev_program, module, &program);
            (prev.state, diff)
        });
        let capture = input.capture.then(|| module.fingerprint());
        let (result, state) = Solver::new(module, program, opts.clone()).solve_from(
            warm.as_ref().map(|(state, diff)| (*state, diff)),
            capture,
            obs,
        )?;
        Ok((Analysis { result }, state))
    }

    /// Canonical points-to set of a local variable (empty if the local
    /// never participated in a pointer constraint).
    pub fn pts_of_local(&self, func: FuncId, local: LocalId) -> PtsSet {
        match self.result.nodes.local_node_opt(func, local) {
            Some(n) => self.result.pts_of(n),
            None => PtsSet::new(),
        }
    }

    /// Canonical points-to set of an arbitrary node.
    pub fn pts_of(&self, n: NodeId) -> PtsSet {
        self.result.pts_of(n)
    }

    /// Allocation sites of the objects in a points-to set (deduplicated;
    /// field sub-objects map to their root object's site).
    pub fn sites_of(&self, pts: &PtsSet) -> Vec<ObjSite> {
        let mut sites: Vec<ObjSite> = pts
            .iter()
            .filter_map(|n| self.result.nodes.node_obj(n))
            .map(|o| self.result.nodes.obj_info(o).site)
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// Resolved targets of an indirect callsite.
    pub fn callsite_targets(&self, site: InstLoc) -> &[FuncId] {
        self.result.callgraph.indirect_targets(site)
    }

    /// Enumerate the module's *top-level pointers* — pointer-typed locals
    /// (SVF's notion; what Table 3 measures) — with their points-to set
    /// sizes. Pointers that never received a points-to set are skipped.
    pub fn top_level_pointer_sizes(&self, module: &Module) -> Vec<(FuncId, LocalId, usize)> {
        let mut out = Vec::new();
        for (fid, f) in module.iter_funcs() {
            for (i, l) in f.locals.iter().enumerate() {
                if !l.ty.is_ptr() {
                    continue;
                }
                let lid = LocalId(i as u32);
                if let Some(n) = self.result.nodes.local_node_opt(fid, lid) {
                    let size = self.result.pts_len(n);
                    if size > 0 {
                        out.push((fid, lid, size));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::{FunctionBuilder, Type};

    #[test]
    fn facade_runs_and_queries() {
        let mut m = Module::new("facade");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int);
        let c = b.copy("c", o);
        let _ = c;
        b.ret(None);
        let main = b.finish();
        let a = Analysis::run(&m, &SolveOptions::baseline());
        let pts = a.pts_of_local(main, LocalId(1));
        assert_eq!(pts.len(), 1);
        let sites = a.sites_of(&pts);
        assert_eq!(sites.len(), 1);
        assert!(matches!(sites[0], ObjSite::Stack(_)));
        let tlp = a.top_level_pointer_sizes(&m);
        assert_eq!(tlp.len(), 2); // o and c both hold &obj
    }

    #[test]
    fn unused_pointer_locals_are_skipped() {
        let mut m = Module::new("skip");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let _unused = b.local("unused", Type::ptr(Type::Int));
        b.ret(None);
        b.finish();
        let a = Analysis::run(&m, &SolveOptions::baseline());
        assert!(a.top_level_pointer_sizes(&m).is_empty());
    }
}
