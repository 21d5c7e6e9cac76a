//! Constraint generation (the "modeling phase" of paper §2.1).
//!
//! One walk, `walk_func`, is the only code that maps the IR to
//! constraints: it walks one function and emits the primitive constraints
//! of Table 1 — Addr-Of, Copy, Load, Store, and Field-Of, plus the two
//! forms the solver treats specially (arbitrary pointer arithmetic and
//! array element addresses) and the indirect-call records resolved on the
//! fly — as symbolic operations into a sink. The generator here is one
//! sink: it resolves each symbolic reference against the [`NodeTable`] as
//! it arrives and builds the [`Program`]. The other sink is the recorder,
//! [`FuncBlock`](crate::block::FuncBlock), whose recorded operations
//! replay into this same generator (see [`crate::block`]).
//!
//! When a [`CtxPlan`] is supplied (the optimistic context-sensitivity
//! policy), the walk skips the critical store/return statements it names
//! and replicates them per direct callsite through fresh dummy nodes.

use kaleidoscope_ir::{FuncId, Inst, InstLoc, LocalId, Module, Operand, Terminator, Type};

use crate::block::{
    plan_affected, ModuleBlocks, SelfLoc, SymConstraintKind, SymOrigin, SymRef, SymSite,
};
use crate::ctxplan::{ChainStep, CriticalFlow, CtxPlan, FuncCtxPlan};
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

/// Receives the symbolic operations of [`walk_func`], in order.
///
/// Implementations are monomorphized into the walk: the generator
/// (`Node = NodeId`) and the block recorder (`Node = SymRef`).
pub(crate) trait Sink {
    /// What a resolved reference is to this sink.
    type Node: Copy;

    /// Ensure the object of a self-owned allocation site exists.
    fn obj(&mut self, site: SymSite, ty: Option<Type>);

    /// Resolve a reference, creating its node if needed.
    fn node(&mut self, r: SymRef) -> Self::Node;

    /// Emit a constraint over resolved references.
    fn push(&mut self, kind: SymConstraintKind<Self::Node>, origin: SymOrigin);

    /// Emit an indirect call over resolved references.
    fn icall(
        &mut self,
        site: SelfLoc,
        fnptr: Self::Node,
        args: Vec<Option<Self::Node>>,
        dst: Option<Self::Node>,
    );
}

/// Walk function `fid` and emit its constraints into `sink`, applying the
/// context plan's skipped stores, bypassed returns and per-callsite
/// replication when `plan` is given.
pub(crate) fn walk_func<S: Sink>(
    module: &Module,
    fid: FuncId,
    plan: Option<&CtxPlan>,
    sink: &mut S,
) {
    let own = plan.and_then(|p| p.for_func(fid));
    let bypass_ret = own.is_some_and(FuncCtxPlan::bypasses_ret);
    for (bid, block) in module.func(fid).iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let loc = SelfLoc {
                block: bid.0,
                inst: i as u32,
            };
            walk_inst(module, fid, plan, own, loc, inst, sink);
        }
        // Return-value flow: the terminator gets a location one past the
        // last instruction of its block.
        if let Terminator::Ret(Some(op)) = &block.term {
            if !bypass_ret {
                if let Some(src) = operand(sink, *op) {
                    let ret = sink.node(SymRef::SelfRet);
                    let loc = SelfLoc {
                        block: bid.0,
                        inst: block.insts.len() as u32,
                    };
                    sink.push(
                        SymConstraintKind::Copy { dst: ret, src },
                        SymOrigin::Inst(loc),
                    );
                }
            }
        }
    }
}

/// Resolve an operand; constants have no node.
fn operand<S: Sink>(sink: &mut S, op: Operand) -> Option<S::Node> {
    let r = match op {
        Operand::Local(l) => SymRef::SelfLocal(l),
        Operand::Global(g) => SymRef::GlobalAddr(g),
        Operand::Func(f) => SymRef::FuncAddr(f),
        Operand::ConstInt(_) | Operand::Null => return None,
    };
    Some(sink.node(r))
}

/// `dst = mk(src)` for a single-source instruction: resolve the source,
/// then the destination, then emit.
fn unary<S: Sink>(
    sink: &mut S,
    loc: SelfLoc,
    dst: LocalId,
    src: Operand,
    mk: impl FnOnce(S::Node, S::Node) -> SymConstraintKind<S::Node>,
) {
    if let Some(src) = operand(sink, src) {
        let dst = sink.node(SymRef::SelfLocal(dst));
        sink.push(mk(dst, src), SymOrigin::Inst(loc));
    }
}

fn walk_inst<S: Sink>(
    module: &Module,
    fid: FuncId,
    plan: Option<&CtxPlan>,
    own: Option<&FuncCtxPlan>,
    loc: SelfLoc,
    inst: &Inst,
    sink: &mut S,
) {
    use SymConstraintKind as K;
    match inst {
        Inst::Alloca { dst, ty } => alloc(sink, loc, SymSite::Stack(loc), *dst, Some(ty.clone())),
        Inst::HeapAlloc { dst, ty } => alloc(sink, loc, SymSite::Heap(loc), *dst, ty.clone()),
        Inst::Copy { dst, src } => unary(sink, loc, *dst, *src, |dst, src| K::Copy { dst, src }),
        Inst::Load { dst, src } => unary(sink, loc, *dst, *src, |dst, addr| K::Load { dst, addr }),
        Inst::Store { dst, src } => {
            if own.is_some_and(|p| p.bypassed_stores().any(|l| l == loc.rebase(fid))) {
                return;
            }
            // Both operands resolve before either is checked.
            if let (Some(addr), Some(src)) = (operand(sink, *dst), operand(sink, *src)) {
                sink.push(K::Store { addr, src }, SymOrigin::Inst(loc));
            }
        }
        Inst::FieldAddr { dst, base, field } => {
            let idx = *field;
            unary(sink, loc, *dst, *base, |dst, base| K::Field {
                dst,
                base,
                idx,
            })
        }
        Inst::PtrArith { dst, base, .. } => unary(sink, loc, *dst, *base, |dst, base| {
            K::PtrArith { dst, base, loc }
        }),
        Inst::ElemAddr { dst, base, .. } => {
            unary(sink, loc, *dst, *base, |dst, base| K::Elem { dst, base })
        }
        Inst::BinOp { .. } | Inst::Input { .. } | Inst::Output { .. } => {}
        Inst::Call { dst, callee, args } => {
            walk_direct_call(module, plan, loc, *dst, *callee, args, sink)
        }
        Inst::CallInd { dst, callee, args } => {
            if let Some(fnptr) = operand(sink, *callee) {
                let args = args.iter().map(|a| operand(sink, *a)).collect();
                let dst = dst.map(|d| sink.node(SymRef::SelfLocal(d)));
                sink.icall(loc, fnptr, args, dst);
            }
        }
    }
}

/// An allocation: create the site's object, then `dst = &obj`.
fn alloc<S: Sink>(sink: &mut S, loc: SelfLoc, site: SymSite, dst: LocalId, ty: Option<Type>) {
    sink.obj(site, ty);
    let dst = sink.node(SymRef::SelfLocal(dst));
    sink.push(
        SymConstraintKind::AddrOf { dst, obj: site },
        SymOrigin::Inst(loc),
    );
}

fn walk_direct_call<S: Sink>(
    module: &Module,
    plan: Option<&CtxPlan>,
    site: SelfLoc,
    dst: Option<LocalId>,
    callee: FuncId,
    args: &[Operand],
    sink: &mut S,
) {
    use SymConstraintKind as K;
    let callee_func = module.func(callee);
    let n = args.len().min(callee_func.param_count);
    for (idx, arg) in args.iter().take(n).enumerate() {
        if let Some(src) = operand(sink, *arg) {
            let dst = sink.node(SymRef::CalleeLocal(callee, LocalId(idx as u32)));
            sink.push(K::Copy { dst, src }, SymOrigin::CallArg { site, idx });
        }
    }
    let plan = plan.and_then(|p| p.for_func(callee));
    let bypass = SymOrigin::CtxBypass { site };
    // Return-value flow: bypassed per-callsite if the plan says so. The
    // destination resolves even for void callees.
    if let Some(dst) = dst {
        let dst = sink.node(SymRef::SelfLocal(dst));
        match plan.filter(|p| p.bypasses_ret()) {
            Some(p) => {
                for flow in &p.flows {
                    if let CriticalFlow::Ret { param } = flow {
                        if let Some(src) = args.get(*param).and_then(|a| operand(sink, *a)) {
                            sink.push(K::Copy { dst, src }, bypass);
                        }
                    }
                }
            }
            None if callee_func.ret_ty != Type::Void => {
                let src = sink.node(SymRef::CalleeRet(callee));
                sink.push(K::Copy { dst, src }, SymOrigin::CallRet { site });
            }
            None => {}
        }
    }
    // Store-flow replication: rebuild the address chain per callsite with
    // the *actual* arguments, through fresh dummy nodes.
    let Some(plan) = plan else {
        return;
    };
    for flow in &plan.flows {
        if let CriticalFlow::Store {
            base_param,
            addr_chain,
            src_param,
            ..
        } = flow
        {
            let base = args.get(*base_param).and_then(|a| operand(sink, *a));
            let src = args.get(*src_param).and_then(|a| operand(sink, *a));
            let (Some(base), Some(src)) = (base, src) else {
                continue;
            };
            let mut cur = base;
            for step in addr_chain {
                let d = sink.node(SymRef::CtxDummy(site));
                let kind = match step {
                    ChainStep::Field(idx) => K::Field {
                        dst: d,
                        base: cur,
                        idx: *idx,
                    },
                    ChainStep::Load => K::Load { dst: d, addr: cur },
                    ChainStep::Elem => K::Elem { dst: d, base: cur },
                };
                sink.push(kind, bypass);
                cur = d;
            }
            sink.push(K::Store { addr: cur, src }, bypass);
        }
    }
}

/// The generator sink: resolves references against the node table of the
/// program under construction, for the function `fid` being walked or
/// replayed.
struct Gen {
    nodes: NodeTable,
    constraints: Vec<Constraint>,
    icalls: Vec<IndirectCall>,
    fid: FuncId,
    /// The callsite and number of the last dummy created.
    last_dummy: Option<(InstLoc, u32)>,
}

impl Gen {
    /// The address-constant node of a global's or function's object,
    /// seeded with the object when first created.
    fn addr_const(&mut self, site: ObjSite) -> NodeId {
        let obj = self
            .nodes
            .object_at(site)
            .expect("globals and functions are pre-created");
        let existed = self.nodes.len();
        let n = self.nodes.addr_node(obj);
        if self.nodes.len() != existed {
            self.constraints.push(Constraint {
                kind: ConstraintKind::AddrOf { dst: n, obj },
                origin: Origin::Init,
            });
        }
        n
    }
}

impl Sink for Gen {
    type Node = NodeId;

    fn obj(&mut self, site: SymSite, ty: Option<Type>) {
        self.nodes.object(site.rebase(self.fid), ty);
    }

    fn node(&mut self, r: SymRef) -> NodeId {
        let fid = self.fid;
        match r {
            SymRef::SelfLocal(l) => self.nodes.local_node(fid, l),
            SymRef::SelfRet => self.nodes.ret_node(fid),
            SymRef::CalleeLocal(f, l) => self.nodes.local_node(f, l),
            SymRef::CalleeRet(f) => self.nodes.ret_node(f),
            SymRef::GlobalAddr(g) => self.addr_const(ObjSite::Global(g)),
            SymRef::FuncAddr(f) => self.addr_const(ObjSite::Func(f)),
            SymRef::CtxDummy(site) => {
                // A callsite's dummies are created one after another.
                let site = site.rebase(fid);
                let seq = match self.last_dummy {
                    Some((last, seq)) if last == site => seq + 1,
                    _ => 0,
                };
                self.last_dummy = Some((site, seq));
                self.nodes.ctx_dummy(site, seq, None)
            }
        }
    }

    fn push(&mut self, kind: SymConstraintKind<NodeId>, origin: SymOrigin) {
        use SymConstraintKind as K;
        let kind = match kind {
            K::AddrOf { dst, obj } => ConstraintKind::AddrOf {
                dst,
                obj: self
                    .nodes
                    .object_at(obj.rebase(self.fid))
                    .expect("an Obj op creates the site before its AddrOf"),
            },
            K::Copy { dst, src } => ConstraintKind::Copy { dst, src },
            K::Load { dst, addr } => ConstraintKind::Load { dst, addr },
            K::Store { addr, src } => ConstraintKind::Store { addr, src },
            K::Field { dst, base, idx } => ConstraintKind::Field { dst, base, idx },
            K::PtrArith { dst, base, loc } => ConstraintKind::PtrArith {
                dst,
                base,
                loc: loc.rebase(self.fid),
            },
            K::Elem { dst, base } => ConstraintKind::Elem { dst, base },
        };
        self.constraints.push(Constraint {
            kind,
            origin: origin.rebase(self.fid),
        });
    }

    fn icall(
        &mut self,
        site: SelfLoc,
        fnptr: NodeId,
        args: Vec<Option<NodeId>>,
        dst: Option<NodeId>,
    ) {
        self.icalls.push(IndirectCall {
            site: site.rebase(self.fid),
            fnptr,
            args,
            dst,
        });
    }
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
/// the lengths disagree). A block is the recorded walk of its function, and
/// replay feeds it to the same generator, so the resulting [`Program`] is
/// identical — node ids, constraint order, everything — to a fresh
/// [`generate`]. Functions in [`plan_affected`] are always walked with the
/// plan, because the bypass rewrites their bodies and callsites.
///
/// [`FuncBlock`]: crate::block::FuncBlock
pub fn generate_spliced(
    module: &Module,
    ctx_plan: Option<&CtxPlan>,
    blocks: Option<&ModuleBlocks>,
) -> Program {
    let mut g = Gen {
        nodes: NodeTable::new(),
        constraints: Vec::new(),
        icalls: Vec::new(),
        fid: FuncId(0),
        last_dummy: None,
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
    let blocks = blocks.filter(|bs| bs.funcs.len() == module.iter_funcs().count());
    let affected = match blocks {
        Some(_) => plan_affected(module, ctx_plan),
        None => Default::default(),
    };
    for (i, (fid, _)) in module.iter_funcs().enumerate() {
        g.fid = fid;
        match blocks {
            Some(bs) if !affected.contains(&fid) => bs.funcs[i].replay(&mut g),
            _ => walk_func(module, fid, ctx_plan, &mut g),
        }
    }
    Program {
        nodes: g.nodes,
        constraints: g.constraints,
        icalls: g.icalls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
