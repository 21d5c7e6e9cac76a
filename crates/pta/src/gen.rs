//! Constraint generation (the "modeling phase" of paper §2.1).
//!
//! Walks a module and produces the primitive constraints of Table 1:
//! Addr-Of, Copy, Load, Store, and Field-Of, plus the two forms the solver
//! treats specially — arbitrary pointer arithmetic and array element
//! addresses — and the indirect-call records resolved on the fly.
//!
//! When a [`CtxPlan`] is supplied (the optimistic context-sensitivity
//! policy), the critical store/return statements it names are *skipped*
//! here and replicated per direct callsite through fresh dummy nodes.

use kaleidoscope_ir::{FuncId, Inst, InstLoc, LocalId, Module, Operand, Terminator, Type};

use crate::block::{
    plan_affected, BlockOp, FuncBlock, ModuleBlocks, SymConstraintKind, SymOrigin, SymRef, SymSite,
};
use crate::ctxplan::{ChainStep, CriticalFlow, CtxPlan};
use crate::node::{NodeId, NodeTable, ObjId, ObjSite};

/// Why a primitive constraint exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Added during initialization (address constants).
    Init,
    /// Corresponds to the instruction (or terminator) at this location.
    Inst(InstLoc),
    /// Parameter passing at a direct callsite.
    CallArg {
        /// The callsite.
        site: InstLoc,
        /// Parameter index.
        idx: usize,
    },
    /// Return-value flow at a direct callsite.
    CallRet {
        /// The callsite.
        site: InstLoc,
    },
    /// Added by the context-sensitivity bypass for this callsite.
    CtxBypass {
        /// The callsite whose actuals the bypass wires.
        site: InstLoc,
    },
}

/// Why a *derived* copy edge was added during solving — the origin
/// information the paper's introspection backtracks through (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyProvenance {
    /// A primitive Copy constraint.
    Primitive(Origin),
    /// Resolving a Load `p = *q` against object `through ∈ pts(q)`.
    LoadDeref {
        /// Origin of the Load constraint.
        load: Origin,
        /// The object the load was resolved against.
        through: NodeId,
    },
    /// Resolving a Store `*p = q` against object `through ∈ pts(p)`.
    StoreDeref {
        /// Origin of the Store constraint.
        store: Origin,
        /// The object the store was resolved against.
        through: NodeId,
    },
    /// Argument wiring of an indirect call resolved to `callee`.
    ICallArg {
        /// The callsite.
        site: InstLoc,
        /// The resolved callee.
        callee: FuncId,
        /// Parameter index.
        idx: usize,
    },
    /// Return wiring of an indirect call resolved to `callee`.
    ICallRet {
        /// The callsite.
        site: InstLoc,
        /// The resolved callee.
        callee: FuncId,
    },
    /// Node merging during cycle collapse.
    CycleMerge,
}

/// A primitive constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintKind {
    /// `obj ∈ pts(dst)`.
    AddrOf {
        /// Pointer gaining the object.
        dst: NodeId,
        /// The object.
        obj: ObjId,
    },
    /// `pts(dst) ⊇ pts(src)`.
    Copy {
        /// Destination.
        dst: NodeId,
        /// Source.
        src: NodeId,
    },
    /// `dst = *addr`.
    Load {
        /// Destination.
        dst: NodeId,
        /// Dereferenced pointer.
        addr: NodeId,
    },
    /// `*addr = src`.
    Store {
        /// Dereferenced pointer.
        addr: NodeId,
        /// Stored value.
        src: NodeId,
    },
    /// `dst = &base->idx` (Field-Of).
    Field {
        /// Destination.
        dst: NodeId,
        /// Base pointer.
        base: NodeId,
        /// Field index.
        idx: usize,
    },
    /// `dst = base ⊕ unknown` — arbitrary pointer arithmetic. `loc` is kept
    /// so the PA likely invariant can attach its runtime monitor.
    PtrArith {
        /// Destination.
        dst: NodeId,
        /// Base pointer.
        base: NodeId,
        /// The arithmetic instruction.
        loc: InstLoc,
    },
    /// `dst = &base[i]` — array element address (array smashing).
    Elem {
        /// Destination.
        dst: NodeId,
        /// Base pointer.
        base: NodeId,
    },
}

/// A primitive constraint with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The constraint.
    pub kind: ConstraintKind,
    /// Why it exists.
    pub origin: Origin,
}

/// An indirect call awaiting on-the-fly resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectCall {
    /// The callsite.
    pub site: InstLoc,
    /// Node holding the function pointer.
    pub fnptr: NodeId,
    /// Actual-argument nodes (`None` for constants).
    pub args: Vec<Option<NodeId>>,
    /// Destination node for the return value, if any.
    pub dst: Option<NodeId>,
}

/// The generated constraint program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The node arena (owned; the solver continues extending it).
    pub nodes: NodeTable,
    /// Primitive constraints.
    pub constraints: Vec<Constraint>,
    /// Indirect calls.
    pub icalls: Vec<IndirectCall>,
}

struct Gen<'m> {
    module: &'m Module,
    nodes: NodeTable,
    constraints: Vec<Constraint>,
    icalls: Vec<IndirectCall>,
    ctx_plan: Option<&'m CtxPlan>,
}

/// Generate the constraint program for a module.
///
/// `ctx_plan` carries the optimistic context-sensitivity bypass; pass
/// `None` for the baseline analysis.
pub fn generate(module: &Module, ctx_plan: Option<&CtxPlan>) -> Program {
    generate_spliced(module, ctx_plan, None)
}

/// Generate the constraint program, replaying pre-recorded [`FuncBlock`]s
/// for every function the context plan does not touch.
///
/// `blocks` must be index-aligned with `Module::iter_funcs` (ignored when
/// the lengths disagree). Replay performs exactly the primitive-call
/// sequence live generation would, so the resulting [`Program`] is
/// identical — node ids, constraint order, everything — to a fresh
/// [`generate`]. Functions in [`plan_affected`] are always generated live,
/// because the bypass rewrites their bodies and callsites.
pub fn generate_spliced(
    module: &Module,
    ctx_plan: Option<&CtxPlan>,
    blocks: Option<&ModuleBlocks>,
) -> Program {
    let mut g = Gen {
        module,
        nodes: NodeTable::new(),
        constraints: Vec::new(),
        icalls: Vec::new(),
        ctx_plan,
    };
    // Pre-create objects for globals and functions so their ids are stable
    // regardless of reference order.
    for (gid, decl) in module.iter_globals() {
        g.nodes.object(ObjSite::Global(gid), Some(decl.ty.clone()));
    }
    for (fid, f) in module.iter_funcs() {
        g.nodes
            .object(ObjSite::Func(fid), Some(Type::Func(f.sig())));
    }
    match blocks {
        Some(bs) if bs.funcs.len() == module.iter_funcs().count() => {
            let affected = plan_affected(module, ctx_plan);
            for (i, (fid, _)) in module.iter_funcs().enumerate() {
                if affected.contains(&fid) {
                    g.gen_func(fid);
                } else {
                    g.replay_block(fid, &bs.funcs[i]);
                }
            }
        }
        _ => {
            for (fid, _) in module.iter_funcs() {
                g.gen_func(fid);
            }
        }
    }
    Program {
        nodes: g.nodes,
        constraints: g.constraints,
        icalls: g.icalls,
    }
}

impl<'m> Gen<'m> {
    fn op_node(&mut self, f: FuncId, op: Operand) -> Option<NodeId> {
        match op {
            Operand::Local(l) => Some(self.nodes.local_node(f, l)),
            Operand::Global(gid) => {
                let obj = self
                    .nodes
                    .object_at(ObjSite::Global(gid))
                    .expect("globals pre-created");
                Some(self.addr_const(obj))
            }
            Operand::Func(fid) => {
                let obj = self
                    .nodes
                    .object_at(ObjSite::Func(fid))
                    .expect("functions pre-created");
                Some(self.addr_const(obj))
            }
            Operand::ConstInt(_) | Operand::Null => None,
        }
    }

    fn addr_const(&mut self, obj: ObjId) -> NodeId {
        let existed = self.nodes.len();
        let n = self.nodes.addr_node(obj);
        if self.nodes.len() != existed {
            // Newly created: seed it with the object.
            self.constraints.push(Constraint {
                kind: ConstraintKind::AddrOf { dst: n, obj },
                origin: Origin::Init,
            });
        }
        n
    }

    /// Resolve a self-relative reference, creating the node if needed —
    /// the replay counterpart of `op_node`/`local_node`/`ret_node`.
    fn resolve_ref(&mut self, fid: FuncId, r: SymRef) -> NodeId {
        match r {
            SymRef::SelfLocal(l) => self.nodes.local_node(fid, l),
            SymRef::SelfRet => self.nodes.ret_node(fid),
            SymRef::CalleeLocal(f, l) => self.nodes.local_node(f, l),
            SymRef::CalleeRet(f) => self.nodes.ret_node(f),
            SymRef::GlobalAddr(g) => {
                let obj = self
                    .nodes
                    .object_at(ObjSite::Global(g))
                    .expect("globals pre-created");
                self.addr_const(obj)
            }
            SymRef::FuncAddr(f) => {
                let obj = self
                    .nodes
                    .object_at(ObjSite::Func(f))
                    .expect("functions pre-created");
                self.addr_const(obj)
            }
        }
    }

    fn site_obj(&mut self, fid: FuncId, site: SymSite) -> ObjId {
        let site = match site {
            SymSite::Stack(l) => ObjSite::Stack(l.rebase(fid)),
            SymSite::Heap(l) => ObjSite::Heap(l.rebase(fid)),
        };
        self.nodes
            .object_at(site)
            .expect("block Obj op precedes uses")
    }

    /// Replay a recorded plan-free block for function `fid`, reproducing
    /// live generation's exact node-creation and constraint order.
    fn replay_block(&mut self, fid: FuncId, block: &FuncBlock) {
        for op in &block.ops {
            match op {
                BlockOp::Obj { site, ty } => {
                    let site = match site {
                        SymSite::Stack(l) => ObjSite::Stack(l.rebase(fid)),
                        SymSite::Heap(l) => ObjSite::Heap(l.rebase(fid)),
                    };
                    self.nodes.object(site, ty.clone());
                }
                BlockOp::Touch(r) => {
                    self.resolve_ref(fid, *r);
                }
                BlockOp::Push { kind, origin } => {
                    let kind = match kind {
                        SymConstraintKind::AddrOf { dst, obj } => ConstraintKind::AddrOf {
                            dst: self.resolve_ref(fid, *dst),
                            obj: self.site_obj(fid, *obj),
                        },
                        SymConstraintKind::Copy { dst, src } => ConstraintKind::Copy {
                            dst: self.resolve_ref(fid, *dst),
                            src: self.resolve_ref(fid, *src),
                        },
                        SymConstraintKind::Load { dst, addr } => ConstraintKind::Load {
                            dst: self.resolve_ref(fid, *dst),
                            addr: self.resolve_ref(fid, *addr),
                        },
                        SymConstraintKind::Store { addr, src } => ConstraintKind::Store {
                            addr: self.resolve_ref(fid, *addr),
                            src: self.resolve_ref(fid, *src),
                        },
                        SymConstraintKind::Field { dst, base, idx } => ConstraintKind::Field {
                            dst: self.resolve_ref(fid, *dst),
                            base: self.resolve_ref(fid, *base),
                            idx: *idx,
                        },
                        SymConstraintKind::PtrArith { dst, base, loc } => {
                            ConstraintKind::PtrArith {
                                dst: self.resolve_ref(fid, *dst),
                                base: self.resolve_ref(fid, *base),
                                loc: loc.rebase(fid),
                            }
                        }
                        SymConstraintKind::Elem { dst, base } => ConstraintKind::Elem {
                            dst: self.resolve_ref(fid, *dst),
                            base: self.resolve_ref(fid, *base),
                        },
                    };
                    let origin = match origin {
                        SymOrigin::Inst(l) => Origin::Inst(l.rebase(fid)),
                        SymOrigin::CallArg { site, idx } => Origin::CallArg {
                            site: site.rebase(fid),
                            idx: *idx,
                        },
                        SymOrigin::CallRet { site } => Origin::CallRet {
                            site: site.rebase(fid),
                        },
                    };
                    self.constraints.push(Constraint { kind, origin });
                }
                BlockOp::ICall {
                    site,
                    fnptr,
                    args,
                    dst,
                } => {
                    let fnptr = self.resolve_ref(fid, *fnptr);
                    let args = args
                        .iter()
                        .map(|a| a.map(|r| self.resolve_ref(fid, r)))
                        .collect();
                    let dst = dst.map(|r| self.resolve_ref(fid, r));
                    self.icalls.push(IndirectCall {
                        site: site.rebase(fid),
                        fnptr,
                        args,
                        dst,
                    });
                }
            }
        }
    }

    fn gen_func(&mut self, fid: FuncId) {
        let func = self.module.func(fid);
        let plan = self.ctx_plan.and_then(|p| p.for_func(fid)).cloned();
        let bypassed_stores: Vec<InstLoc> = plan
            .as_ref()
            .map(|p| p.bypassed_stores().collect())
            .unwrap_or_default();
        let bypass_ret = plan.as_ref().is_some_and(|p| p.bypasses_ret());

        for (bid, block) in func.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let loc = InstLoc::new(fid, bid, i as u32);
                self.gen_inst(fid, loc, inst, &bypassed_stores);
            }
            // Return-value flow: the terminator gets a location one past the
            // last instruction of its block.
            if let Terminator::Ret(Some(op)) = &block.term {
                if !bypass_ret {
                    if let Some(src) = self.op_node(fid, *op) {
                        let ret = self.nodes.ret_node(fid);
                        let loc = InstLoc::new(fid, bid, block.insts.len() as u32);
                        self.constraints.push(Constraint {
                            kind: ConstraintKind::Copy { dst: ret, src },
                            origin: Origin::Inst(loc),
                        });
                    }
                }
            }
        }
    }

    fn gen_inst(&mut self, fid: FuncId, loc: InstLoc, inst: &Inst, bypassed: &[InstLoc]) {
        match inst {
            Inst::Alloca { dst, ty } => {
                let obj = self.nodes.object(ObjSite::Stack(loc), Some(ty.clone()));
                let dst = self.nodes.local_node(fid, *dst);
                self.constraints.push(Constraint {
                    kind: ConstraintKind::AddrOf { dst, obj },
                    origin: Origin::Inst(loc),
                });
            }
            Inst::HeapAlloc { dst, ty } => {
                let obj = self.nodes.object(ObjSite::Heap(loc), ty.clone());
                let dst = self.nodes.local_node(fid, *dst);
                self.constraints.push(Constraint {
                    kind: ConstraintKind::AddrOf { dst, obj },
                    origin: Origin::Inst(loc),
                });
            }
            Inst::Copy { dst, src } => {
                if let Some(src) = self.op_node(fid, *src) {
                    let dst = self.nodes.local_node(fid, *dst);
                    self.constraints.push(Constraint {
                        kind: ConstraintKind::Copy { dst, src },
                        origin: Origin::Inst(loc),
                    });
                }
            }
            Inst::Load { dst, src } => {
                if let Some(addr) = self.op_node(fid, *src) {
                    let dst = self.nodes.local_node(fid, *dst);
                    self.constraints.push(Constraint {
                        kind: ConstraintKind::Load { dst, addr },
                        origin: Origin::Inst(loc),
                    });
                }
            }
            Inst::Store { dst, src } => {
                if bypassed.contains(&loc) {
                    return;
                }
                if let (Some(addr), Some(src)) = (self.op_node(fid, *dst), self.op_node(fid, *src))
                {
                    self.constraints.push(Constraint {
                        kind: ConstraintKind::Store { addr, src },
                        origin: Origin::Inst(loc),
                    });
                }
            }
            Inst::FieldAddr { dst, base, field } => {
                if let Some(base) = self.op_node(fid, *base) {
                    let dst = self.nodes.local_node(fid, *dst);
                    self.constraints.push(Constraint {
                        kind: ConstraintKind::Field {
                            dst,
                            base,
                            idx: *field,
                        },
                        origin: Origin::Inst(loc),
                    });
                }
            }
            Inst::PtrArith { dst, base, .. } => {
                if let Some(base) = self.op_node(fid, *base) {
                    let dst = self.nodes.local_node(fid, *dst);
                    self.constraints.push(Constraint {
                        kind: ConstraintKind::PtrArith { dst, base, loc },
                        origin: Origin::Inst(loc),
                    });
                }
            }
            Inst::ElemAddr { dst, base, .. } => {
                if let Some(base) = self.op_node(fid, *base) {
                    let dst = self.nodes.local_node(fid, *dst);
                    self.constraints.push(Constraint {
                        kind: ConstraintKind::Elem { dst, base },
                        origin: Origin::Inst(loc),
                    });
                }
            }
            Inst::BinOp { .. } | Inst::Input { .. } | Inst::Output { .. } => {}
            Inst::Call { dst, callee, args } => {
                self.gen_direct_call(fid, loc, *dst, *callee, args);
            }
            Inst::CallInd { dst, callee, args } => {
                if let Some(fnptr) = self.op_node(fid, *callee) {
                    let args = args.iter().map(|a| self.op_node(fid, *a)).collect();
                    let dst = dst.map(|d| self.nodes.local_node(fid, d));
                    self.icalls.push(IndirectCall {
                        site: loc,
                        fnptr,
                        args,
                        dst,
                    });
                }
            }
        }
    }

    fn gen_direct_call(
        &mut self,
        fid: FuncId,
        site: InstLoc,
        dst: Option<LocalId>,
        callee: FuncId,
        args: &[Operand],
    ) {
        let callee_func = self.module.func(callee);
        let n = args.len().min(callee_func.param_count);
        for (idx, arg) in args.iter().take(n).enumerate() {
            if let Some(src) = self.op_node(fid, *arg) {
                let dst = self.nodes.local_node(callee, LocalId(idx as u32));
                self.constraints.push(Constraint {
                    kind: ConstraintKind::Copy { dst, src },
                    origin: Origin::CallArg { site, idx },
                });
            }
        }
        let plan = self.ctx_plan.and_then(|p| p.for_func(callee)).cloned();
        // Return-value flow: bypassed per-callsite if the plan says so.
        if let Some(dst) = dst {
            let dst_node = self.nodes.local_node(fid, dst);
            let bypass_ret = plan.as_ref().is_some_and(|p| p.bypasses_ret());
            if bypass_ret {
                for flow in plan.as_ref().map(|p| p.flows.as_slice()).unwrap_or(&[]) {
                    if let CriticalFlow::Ret { param } = flow {
                        if let Some(actual) = args.get(*param).and_then(|a| self.op_node(fid, *a)) {
                            self.constraints.push(Constraint {
                                kind: ConstraintKind::Copy {
                                    dst: dst_node,
                                    src: actual,
                                },
                                origin: Origin::CtxBypass { site },
                            });
                        }
                    }
                }
            } else if callee_func.ret_ty != Type::Void {
                let ret = self.nodes.ret_node(callee);
                self.constraints.push(Constraint {
                    kind: ConstraintKind::Copy {
                        dst: dst_node,
                        src: ret,
                    },
                    origin: Origin::CallRet { site },
                });
            }
        }
        // Store-flow replication: rebuild the address chain per callsite
        // with the *actual* arguments, through fresh dummy nodes.
        if let Some(plan) = plan {
            let mut seq = 0u32;
            for flow in &plan.flows {
                if let CriticalFlow::Store {
                    base_param,
                    addr_chain,
                    src_param,
                    ..
                } = flow
                {
                    let base = args.get(*base_param).and_then(|a| self.op_node(fid, *a));
                    let src = args.get(*src_param).and_then(|a| self.op_node(fid, *a));
                    let (Some(base), Some(src)) = (base, src) else {
                        continue;
                    };
                    let mut cur = base;
                    for step in addr_chain {
                        let d = self.nodes.ctx_dummy(site, seq, None);
                        seq += 1;
                        let kind = match step {
                            ChainStep::Field(k) => ConstraintKind::Field {
                                dst: d,
                                base: cur,
                                idx: *k,
                            },
                            ChainStep::Load => ConstraintKind::Load { dst: d, addr: cur },
                            ChainStep::Elem => ConstraintKind::Elem { dst: d, base: cur },
                        };
                        self.constraints.push(Constraint {
                            kind,
                            origin: Origin::CtxBypass { site },
                        });
                        cur = d;
                    }
                    self.constraints.push(Constraint {
                        kind: ConstraintKind::Store { addr: cur, src },
                        origin: Origin::CtxBypass { site },
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctxplan::FuncCtxPlan;
    use kaleidoscope_ir::FunctionBuilder;

    fn count_kind(p: &Program, pred: impl Fn(&ConstraintKind) -> bool) -> usize {
        p.constraints.iter().filter(|c| pred(&c.kind)).count()
    }

    #[test]
    fn fig2_constraints() {
        // p = &o; q = &p; r = *q — Figure 2 of the paper.
        let mut m = Module::new("fig2");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let o = b.alloca("o", Type::Int); // o plays double duty: alloca gives &o
        let q = b.alloca("q", Type::ptr(Type::Int));
        b.store(q, o);
        let _r = b.load("r", q);
        b.ret(None);
        b.finish();
        let p = generate(&m, None);
        assert_eq!(
            count_kind(&p, |k| matches!(k, ConstraintKind::AddrOf { .. })),
            2
        );
        assert_eq!(
            count_kind(&p, |k| matches!(k, ConstraintKind::Store { .. })),
            1
        );
        assert_eq!(
            count_kind(&p, |k| matches!(k, ConstraintKind::Load { .. })),
            1
        );
        assert!(p.icalls.is_empty());
    }

    #[test]
    fn direct_call_wires_params_and_ret() {
        let mut m = Module::new("call");
        let callee = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "callee",
                vec![("p", Type::ptr(Type::Int))],
                Type::ptr(Type::Int),
            );
            let p = b.param(0);
            b.ret(Some(p.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let x = b.alloca("x", Type::Int);
        b.call("r", callee, vec![x.into()]);
        b.ret(None);
        b.finish();
        let p = generate(&m, None);
        let arg_edges = p
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CallArg { .. }))
            .count();
        let ret_edges = p
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CallRet { .. }))
            .count();
        assert_eq!(arg_edges, 1);
        assert_eq!(ret_edges, 1);
    }

    #[test]
    fn indirect_call_recorded() {
        let mut m = Module::new("icall");
        let f = {
            let b = FunctionBuilder::new(&mut m, "handler", vec![], Type::Void);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let fp = b.copy("fp", Operand::Func(f));
        b.call_ind("r", fp, vec![], Type::Void);
        b.ret(None);
        b.finish();
        let p = generate(&m, None);
        assert_eq!(p.icalls.len(), 1);
        assert!(p.icalls[0].dst.is_none());
    }

    #[test]
    fn ctx_plan_skips_store_and_replicates_per_callsite() {
        // ev_queue_insert(b, cb) { *(&b->0) = cb } called from two sites.
        let mut m = Module::new("ctx");
        let s = m
            .types
            .declare("ev_base", vec![Type::ptr(Type::Int)])
            .unwrap();
        let insert = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "ev_queue_insert",
                vec![
                    ("b", Type::ptr(Type::Struct(s))),
                    ("cb", Type::ptr(Type::Int)),
                ],
                Type::Void,
            );
            let base = b.param(0);
            let cb = b.param(1);
            let slot = b.field_addr("slot", base, 0);
            b.store(slot, cb);
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let g1 = b.alloca("g1", Type::Struct(s));
        let g2 = b.alloca("g2", Type::Struct(s));
        let c1 = b.alloca("c1", Type::Int);
        let c2 = b.alloca("c2", Type::Int);
        b.call("r1", insert, vec![g1.into(), c1.into()]);
        b.call("r2", insert, vec![g2.into(), c2.into()]);
        b.ret(None);
        b.finish();

        // The store to bypass is instruction 1 of block 0 of `insert`
        // (0 = field_addr, 1 = store).
        let store_loc = InstLoc::new(insert, kaleidoscope_ir::BlockId(0), 1);
        let mut plan = CtxPlan::new();
        plan.funcs.insert(
            insert,
            FuncCtxPlan {
                flows: vec![CriticalFlow::Store {
                    loc: store_loc,
                    base_param: 0,
                    addr_chain: vec![ChainStep::Field(0)],
                    src_param: 1,
                }],
            },
        );

        let without = generate(&m, None);
        let with = generate(&m, Some(&plan));
        let stores = |p: &Program| count_kind(p, |k| matches!(k, ConstraintKind::Store { .. }));
        // Baseline: 1 in-function store. Plan: 0 in-function + 2 replicas.
        assert_eq!(stores(&without), 1);
        assert_eq!(stores(&with), 2);
        let bypass_edges = with
            .constraints
            .iter()
            .filter(|c| matches!(c.origin, Origin::CtxBypass { .. }))
            .count();
        // Per callsite: 1 Field dummy + 1 Store = 2, times 2 callsites.
        assert_eq!(bypass_edges, 4);
    }

    #[test]
    fn globals_and_functions_get_address_constants() {
        let mut m = Module::new("g");
        m.add_global("g", Type::Int).unwrap();
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let g = m_op(&b);
        let _v = b.load("v", g);
        b.ret(None);
        b.finish();
        let p = generate(&m, None);
        // One AddrOf for the address constant of `g`.
        assert_eq!(
            count_kind(&p, |k| matches!(k, ConstraintKind::AddrOf { .. })),
            1
        );
    }

    fn m_op(b: &FunctionBuilder<'_>) -> Operand {
        Operand::Global(b.module().global_by_name("g").unwrap())
    }

    /// Assert two programs are identical down to node ids and order.
    fn assert_programs_identical(a: &Program, b: &Program) {
        assert_eq!(a.constraints, b.constraints);
        assert_eq!(a.icalls, b.icalls);
        assert_eq!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.nodes.obj_count(), b.nodes.obj_count());
        for n in a.nodes.iter_ids() {
            assert_eq!(a.nodes.kind(n), b.nodes.kind(n), "kind of {n}");
            assert_eq!(a.nodes.ty(n), b.nodes.ty(n), "type of {n}");
        }
        for o in 0..a.nodes.obj_count() {
            let o = crate::node::ObjId(o as u32);
            assert_eq!(a.nodes.obj_info(o).site, b.nodes.obj_info(o).site);
            assert_eq!(a.nodes.obj_info(o).ty, b.nodes.obj_info(o).ty);
        }
    }

    fn exercise_module() -> Module {
        let mut m = Module::new("splice");
        let s = m
            .types
            .declare("pair", vec![Type::ptr(Type::Int), Type::Int]);
        let s = s.unwrap();
        m.add_global("g", Type::ptr(Type::Int)).unwrap();
        let callee = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "callee",
                vec![("p", Type::ptr(Type::Int))],
                Type::ptr(Type::Int),
            );
            let p = b.param(0);
            b.ret(Some(p.into()));
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let x = b.alloca("x", Type::Int);
        let h = b.heap_alloc("h", Type::Int);
        let pr = b.alloca("pr", Type::Struct(s));
        let q = b.alloca("q", Type::ptr(Type::Int));
        b.store(q, x);
        let l = b.load("l", q);
        let f0 = b.field_addr("f0", pr, 0);
        b.store(f0, h);
        let pa = b.ptr_arith("pa", q, Operand::ConstInt(1));
        let ar = b.alloca("ar", Type::Array(Box::new(Type::Int), 4));
        let el = b.elem_addr("el", ar, Operand::ConstInt(2));
        let _ = (pa, el);
        b.call("r", callee, vec![l.into()]);
        let fp = b.copy("fp", Operand::Func(callee));
        b.call_ind(
            "ri",
            fp,
            vec![x.into(), Operand::ConstInt(3)],
            Type::ptr(Type::Int),
        );
        let gv = b.load("gv", m_op(&b));
        let _ = gv;
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn spliced_blocks_reproduce_live_generation_exactly() {
        let m = exercise_module();
        let live = generate(&m, None);
        let blocks = crate::block::ModuleBlocks::build(&m);
        let spliced = generate_spliced(&m, None, Some(&blocks));
        assert_programs_identical(&live, &spliced);
        // Parallel block recording is index-deterministic.
        let par = crate::block::ModuleBlocks::build_parallel(&m, 4);
        assert_eq!(par, blocks);
        // Codec round-trip of every block preserves the splice result.
        let decoded = crate::block::ModuleBlocks {
            funcs: blocks
                .funcs
                .iter()
                .map(|b| crate::block::FuncBlock::from_bytes(&b.to_bytes()).unwrap())
                .collect(),
        };
        let respliced = generate_spliced(&m, None, Some(&decoded));
        assert_programs_identical(&live, &respliced);
    }

    #[test]
    fn spliced_generation_with_ctx_plan_regenerates_affected_live() {
        // Same module/plan as ctx_plan_skips_store_and_replicates_per_callsite,
        // plus an unrelated function that stays on the replay path.
        let mut m = Module::new("ctx");
        let s = m
            .types
            .declare("ev_base", vec![Type::ptr(Type::Int)])
            .unwrap();
        let insert = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "ev_queue_insert",
                vec![
                    ("b", Type::ptr(Type::Struct(s))),
                    ("cb", Type::ptr(Type::Int)),
                ],
                Type::Void,
            );
            let base = b.param(0);
            let cb = b.param(1);
            let slot = b.field_addr("slot", base, 0);
            b.store(slot, cb);
            b.ret(None);
            b.finish()
        };
        {
            let mut b = FunctionBuilder::new(&mut m, "unrelated", vec![], Type::Void);
            let a = b.alloca("a", Type::Int);
            let p = b.alloca("p", Type::ptr(Type::Int));
            b.store(p, a);
            b.ret(None);
            b.finish();
        }
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
        let g1 = b.alloca("g1", Type::Struct(s));
        let c1 = b.alloca("c1", Type::Int);
        b.call("r1", insert, vec![g1.into(), c1.into()]);
        b.call("r2", insert, vec![g1.into(), c1.into()]);
        b.ret(None);
        b.finish();

        let store_loc = InstLoc::new(insert, kaleidoscope_ir::BlockId(0), 1);
        let mut plan = CtxPlan::new();
        plan.funcs.insert(
            insert,
            FuncCtxPlan {
                flows: vec![CriticalFlow::Store {
                    loc: store_loc,
                    base_param: 0,
                    addr_chain: vec![ChainStep::Field(0)],
                    src_param: 1,
                }],
            },
        );

        let blocks = crate::block::ModuleBlocks::build(&m);
        // Baseline plan-free splice matches live.
        assert_programs_identical(
            &generate(&m, None),
            &generate_spliced(&m, None, Some(&blocks)),
        );
        // With the plan, affected funcs regenerate live; result still
        // matches a full live generation under the same plan.
        assert_programs_identical(
            &generate(&m, Some(&plan)),
            &generate_spliced(&m, Some(&plan), Some(&blocks)),
        );
    }
}
