//! Position-independent per-function constraint blocks.
//!
//! Constraint generation is one walk over the IR (`walk_func` in
//! [`gen`](crate::gen)) that emits *symbolic* operations into a
//! sink: every value the walk names is a [`SymRef`], every allocation site a
//! self-relative [`SymSite`], and every origin a [`SymOrigin`]. Only the
//! identities a body *textually* names (callee functions, globals) are
//! absolute. There are two sinks:
//!
//! * a [`FuncBlock`] records the operations as [`BlockOp`]s — a block is the
//!   walk's trace for one function, and [`build_func_block`] is the walk
//!   with no context plan;
//! * the generator in [`gen`](crate::gen) resolves each reference against a
//!   [`NodeTable`](crate::node::NodeTable) as it arrives.
//!
//! Replaying a recorded block feeds its operations to the same generator,
//! so splicing cached blocks for unchanged functions into a fresh
//! generation run yields a byte-identical [`Program`](crate::gen::Program)
//! by construction: the recorded trace *is* what the walk emitted.
//!
//! Blocks are *plan-free*: the context-sensitivity bypass of [`CtxPlan`]
//! rewrites both a planned function's own body (skipped stores, bypassed
//! returns) and every direct caller's callsites (per-site dummy
//! replication). [`plan_affected`] computes that set so the splicer runs
//! the walk with the plan for exactly those functions; everything else
//! replays. With an empty plan — the baseline configuration every cached
//! solve family starts from — the affected set is empty and all blocks
//! replay. The plan-only vocabulary ([`SymRef::CtxDummy`],
//! [`SymOrigin::CtxBypass`]) therefore never appears in a recorded block,
//! and [`FuncBlock::resolves_within`] rejects a decoded block that carries
//! it.

use std::collections::HashSet;

use kaleidoscope_ir::codec::{decode_type, encode_type};
use kaleidoscope_ir::{
    claim_indexed, BlockId, ByteReader, ByteWriter, CodecError, FuncId, GlobalId, Inst, InstLoc,
    LocalId, Module, Type,
};

use crate::ctxplan::CtxPlan;
use crate::gen::{walk_func, Origin, Sink};
use crate::node::ObjSite;

/// A `(block, instruction)` coordinate within the block's own function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelfLoc {
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block (`insts.len()` addresses the
    /// terminator, the location of its return-value flow).
    pub inst: u32,
}

impl SelfLoc {
    /// Rebase onto a concrete function id.
    #[inline]
    pub fn rebase(self, fid: FuncId) -> InstLoc {
        InstLoc::new(fid, BlockId(self.block), self.inst)
    }
}

/// An allocation site owned by the block's function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymSite {
    /// `alloca` at the given self-relative location.
    Stack(SelfLoc),
    /// `halloc` at the given self-relative location.
    Heap(SelfLoc),
}

impl SymSite {
    /// Rebase onto a concrete function id.
    #[inline]
    pub(crate) fn rebase(self, fid: FuncId) -> ObjSite {
        match self {
            SymSite::Stack(l) => ObjSite::Stack(l.rebase(fid)),
            SymSite::Heap(l) => ObjSite::Heap(l.rebase(fid)),
        }
    }
}

/// A node reference, self-relative for the block's own function.
///
/// Callee/global/function references are absolute: a body names them
/// textually, so a cached block is only valid while those names still
/// resolve to the same ids — the frontend cache checks exactly that via its
/// per-entry import list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymRef {
    /// A local of the block's own function.
    SelfLocal(LocalId),
    /// The return slot of the block's own function.
    SelfRet,
    /// A parameter local of a direct callee.
    CalleeLocal(FuncId, LocalId),
    /// The return slot of a direct callee.
    CalleeRet(FuncId),
    /// The address constant of a global.
    GlobalAddr(GlobalId),
    /// The address constant of a function.
    FuncAddr(FuncId),
    /// A fresh dummy of the context plan for the callsite at this
    /// self-relative location: every resolution creates a new node, and
    /// the dummies of one callsite are numbered in creation order.
    /// Plan-only.
    CtxDummy(SelfLoc),
}

/// Self-relative [`Origin`]. `Init` never appears: address-constant
/// seeding is implied by reference resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymOrigin {
    /// The instruction (or terminator) at this self-relative location.
    Inst(SelfLoc),
    /// Parameter passing at a direct callsite.
    CallArg {
        /// The callsite.
        site: SelfLoc,
        /// Parameter index.
        idx: usize,
    },
    /// Return-value flow at a direct callsite.
    CallRet {
        /// The callsite.
        site: SelfLoc,
    },
    /// Added by the context-sensitivity bypass for this callsite.
    /// Plan-only.
    CtxBypass {
        /// The callsite whose actuals the bypass wires.
        site: SelfLoc,
    },
}

impl SymOrigin {
    /// Rebase onto a concrete function id.
    #[inline]
    pub(crate) fn rebase(self, fid: FuncId) -> Origin {
        match self {
            SymOrigin::Inst(l) => Origin::Inst(l.rebase(fid)),
            SymOrigin::CallArg { site, idx } => Origin::CallArg {
                site: site.rebase(fid),
                idx,
            },
            SymOrigin::CallRet { site } => Origin::CallRet {
                site: site.rebase(fid),
            },
            SymOrigin::CtxBypass { site } => Origin::CtxBypass {
                site: site.rebase(fid),
            },
        }
    }
}

/// Self-relative [`ConstraintKind`](crate::gen::ConstraintKind) over
/// node references `R`: [`SymRef`]s in a recorded block, resolved nodes
/// on their way into the generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymConstraintKind<R = SymRef> {
    /// `obj ∈ pts(dst)` for a self-owned allocation site.
    AddrOf {
        /// Pointer gaining the object.
        dst: R,
        /// The self-owned allocation site.
        obj: SymSite,
    },
    /// `pts(dst) ⊇ pts(src)`.
    Copy {
        /// Destination.
        dst: R,
        /// Source.
        src: R,
    },
    /// `dst = *addr`.
    Load {
        /// Destination.
        dst: R,
        /// Dereferenced pointer.
        addr: R,
    },
    /// `*addr = src`.
    Store {
        /// Dereferenced pointer.
        addr: R,
        /// Stored value.
        src: R,
    },
    /// `dst = &base->idx`.
    Field {
        /// Destination.
        dst: R,
        /// Base pointer.
        base: R,
        /// Field index.
        idx: usize,
    },
    /// `dst = base ⊕ unknown`.
    PtrArith {
        /// Destination.
        dst: R,
        /// Base pointer.
        base: R,
        /// The arithmetic instruction, self-relative.
        loc: SelfLoc,
    },
    /// `dst = &base[i]`.
    Elem {
        /// Destination.
        dst: R,
        /// Base pointer.
        base: R,
    },
}

impl<R: Copy> SymConstraintKind<R> {
    /// The same constraint with every reference mapped through `f`, in
    /// field order.
    pub(crate) fn map<T>(&self, mut f: impl FnMut(R) -> T) -> SymConstraintKind<T> {
        use SymConstraintKind::*;
        match *self {
            AddrOf { dst, obj } => AddrOf { dst: f(dst), obj },
            Copy { dst, src } => Copy {
                dst: f(dst),
                src: f(src),
            },
            Load { dst, addr } => Load {
                dst: f(dst),
                addr: f(addr),
            },
            Store { addr, src } => Store {
                addr: f(addr),
                src: f(src),
            },
            Field { dst, base, idx } => Field {
                dst: f(dst),
                base: f(base),
                idx,
            },
            PtrArith { dst, base, loc } => PtrArith {
                dst: f(dst),
                base: f(base),
                loc,
            },
            Elem { dst, base } => Elem {
                dst: f(dst),
                base: f(base),
            },
        }
    }
}

/// One operation of the recorded walk. Replay feeds ops in order to the
/// generator, reproducing the walk's exact node-creation sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockOp {
    /// Ensure the abstract object for a self-owned allocation site exists.
    Obj {
        /// The allocation site.
        site: SymSite,
        /// The allocated type, if known.
        ty: Option<Type>,
    },
    /// Resolve a reference for its node-creation side effect. For address
    /// constants this includes pushing the seeding `AddrOf` on first
    /// creation.
    Touch(SymRef),
    /// Push a constraint whose references were already touched.
    Push {
        /// The constraint.
        kind: SymConstraintKind,
        /// Why it exists.
        origin: SymOrigin,
    },
    /// Record an indirect call.
    ICall {
        /// The callsite.
        site: SelfLoc,
        /// Function-pointer reference.
        fnptr: SymRef,
        /// Actual-argument references (`None` for constants).
        args: Vec<Option<SymRef>>,
        /// Destination reference, if any.
        dst: Option<SymRef>,
    },
}

/// The recorded, plan-free constraint walk of one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuncBlock {
    /// The walk's operations, in order.
    pub ops: Vec<BlockOp>,
}

/// The recorder: each operation the walk emits becomes a [`BlockOp`], and
/// a reference resolves to itself.
impl Sink for FuncBlock {
    type Node = SymRef;

    fn obj(&mut self, site: SymSite, ty: Option<Type>) {
        self.ops.push(BlockOp::Obj { site, ty });
    }

    fn node(&mut self, r: SymRef) -> SymRef {
        self.ops.push(BlockOp::Touch(r));
        r
    }

    fn push(&mut self, kind: SymConstraintKind, origin: SymOrigin) {
        self.ops.push(BlockOp::Push { kind, origin });
    }

    fn icall(
        &mut self,
        site: SelfLoc,
        fnptr: SymRef,
        args: Vec<Option<SymRef>>,
        dst: Option<SymRef>,
    ) {
        self.ops.push(BlockOp::ICall {
            site,
            fnptr,
            args,
            dst,
        });
    }
}

impl FuncBlock {
    /// Encode to bytes for the frontend cache.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_block(&mut w, self);
        w.into_bytes()
    }

    /// Decode a block previously produced by [`FuncBlock::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<FuncBlock, CodecError> {
        let mut r = ByteReader::new(bytes);
        let b = decode_block(&mut r)?;
        if !r.is_at_end() {
            return Err(CodecError("trailing bytes after block".into()));
        }
        Ok(b)
    }

    /// Feed the recorded operations to `sink`, in order. A `Push` or
    /// `ICall` resolves its references again; the preceding `Touch`es
    /// already created them, so that second resolution is a lookup.
    pub(crate) fn replay<S: Sink>(&self, sink: &mut S) {
        for op in &self.ops {
            match op {
                BlockOp::Obj { site, ty } => sink.obj(*site, ty.clone()),
                BlockOp::Touch(r) => {
                    sink.node(*r);
                }
                BlockOp::Push { kind, origin } => {
                    let kind = kind.map(|r| sink.node(r));
                    sink.push(kind, *origin);
                }
                BlockOp::ICall {
                    site,
                    fnptr,
                    args,
                    dst,
                } => {
                    let fnptr = sink.node(*fnptr);
                    let args = args.iter().map(|a| a.map(|r| sink.node(r))).collect();
                    let dst = dst.map(|r| sink.node(r));
                    sink.icall(*site, fnptr, args, dst);
                }
            }
        }
    }

    /// Whether replaying the block can only name what its function and the
    /// module header provide: locals below `locals`, callees for which
    /// `callee_params` gives a parameter count (parameter locals below
    /// it), globals `global` accepts, and allocation sites created by an
    /// earlier `Obj` op — and whether it is free of plan-only operations.
    /// Every block [`build_func_block`] records qualifies; the frontend
    /// cache rejects a decoded one that does not.
    pub fn resolves_within(
        &self,
        locals: usize,
        callee_params: impl Fn(FuncId) -> Option<usize>,
        global: impl Fn(GlobalId) -> bool,
    ) -> bool {
        let ok = |r: SymRef| match r {
            SymRef::SelfLocal(l) => l.index() < locals,
            SymRef::SelfRet => true,
            SymRef::CalleeLocal(f, l) => callee_params(f).is_some_and(|n| l.index() < n),
            SymRef::CalleeRet(f) | SymRef::FuncAddr(f) => callee_params(f).is_some(),
            SymRef::GlobalAddr(g) => global(g),
            SymRef::CtxDummy(_) => false,
        };
        let mut sites = HashSet::new();
        self.ops.iter().all(|op| match op {
            BlockOp::Obj { site, .. } => {
                sites.insert(*site);
                true
            }
            BlockOp::Touch(r) => ok(*r),
            BlockOp::Push { kind, origin } => {
                let mut refs_ok = true;
                kind.map(|r| refs_ok &= ok(r));
                let site_ok = match kind {
                    SymConstraintKind::AddrOf { obj, .. } => sites.contains(obj),
                    _ => true,
                };
                refs_ok && site_ok && !matches!(origin, SymOrigin::CtxBypass { .. })
            }
            BlockOp::ICall {
                fnptr, args, dst, ..
            } => ok(*fnptr) && args.iter().chain([dst]).flatten().all(|&r| ok(r)),
        })
    }
}

/// Blocks for every function of a module, indexed like `Module::iter_funcs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleBlocks {
    /// One block per function, in function-id order.
    pub funcs: Vec<FuncBlock>,
}

impl ModuleBlocks {
    /// Record blocks for every function, sequentially.
    pub fn build(module: &Module) -> ModuleBlocks {
        Self::build_parallel(module, 1)
    }

    /// Record blocks for every function using up to `threads` worker
    /// threads (deterministic: results land at their function index).
    pub fn build_parallel(module: &Module, threads: usize) -> ModuleBlocks {
        let n = module.iter_funcs().count();
        ModuleBlocks {
            funcs: claim_indexed(n, threads, |i| build_func_block(module, FuncId(i as u32))),
        }
    }
}

/// The functions whose generated constraints depend on `plan`: the planned
/// functions themselves (skipped stores / bypassed returns) plus every
/// function with a direct call to one (per-callsite replication). These must
/// be walked with the plan; all other functions' blocks replay unchanged.
pub fn plan_affected(module: &Module, plan: Option<&CtxPlan>) -> HashSet<FuncId> {
    let mut affected = HashSet::new();
    let Some(plan) = plan else {
        return affected;
    };
    if plan.funcs.is_empty() {
        return affected;
    }
    affected.extend(plan.funcs.keys().copied());
    for (fid, f) in module.iter_funcs() {
        if affected.contains(&fid) {
            continue;
        }
        'scan: for (_, block) in f.iter_blocks() {
            for inst in &block.insts {
                if let Inst::Call { callee, .. } = inst {
                    if plan.funcs.contains_key(callee) {
                        affected.insert(fid);
                        break 'scan;
                    }
                }
            }
        }
    }
    affected
}

/// Record the plan-free constraint walk of one function.
pub fn build_func_block(module: &Module, fid: FuncId) -> FuncBlock {
    let mut block = FuncBlock::default();
    walk_func(module, fid, None, &mut block);
    block
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn bad(msg: &str) -> CodecError {
    CodecError(msg.into())
}

fn encode_loc(w: &mut ByteWriter, loc: SelfLoc) {
    w.uint(loc.block as u64);
    w.uint(loc.inst as u64);
}

fn decode_loc(r: &mut ByteReader<'_>) -> Result<SelfLoc, CodecError> {
    Ok(SelfLoc {
        block: r.u32()?,
        inst: r.u32()?,
    })
}

fn encode_site(w: &mut ByteWriter, site: SymSite) {
    match site {
        SymSite::Stack(l) => {
            w.u8(0);
            encode_loc(w, l);
        }
        SymSite::Heap(l) => {
            w.u8(1);
            encode_loc(w, l);
        }
    }
}

fn decode_site(r: &mut ByteReader<'_>) -> Result<SymSite, CodecError> {
    Ok(match r.u8()? {
        0 => SymSite::Stack(decode_loc(r)?),
        1 => SymSite::Heap(decode_loc(r)?),
        _ => return Err(bad("bad site tag")),
    })
}

fn encode_ref(w: &mut ByteWriter, r: SymRef) {
    match r {
        SymRef::SelfLocal(l) => {
            w.u8(0);
            w.uint(l.0 as u64);
        }
        SymRef::SelfRet => w.u8(1),
        SymRef::CalleeLocal(f, l) => {
            w.u8(2);
            w.uint(f.0 as u64);
            w.uint(l.0 as u64);
        }
        SymRef::CalleeRet(f) => {
            w.u8(3);
            w.uint(f.0 as u64);
        }
        SymRef::GlobalAddr(g) => {
            w.u8(4);
            w.uint(g.0 as u64);
        }
        SymRef::FuncAddr(f) => {
            w.u8(5);
            w.uint(f.0 as u64);
        }
        SymRef::CtxDummy(site) => {
            w.u8(6);
            encode_loc(w, site);
        }
    }
}

fn decode_ref(r: &mut ByteReader<'_>) -> Result<SymRef, CodecError> {
    Ok(match r.u8()? {
        0 => SymRef::SelfLocal(LocalId(r.u32()?)),
        1 => SymRef::SelfRet,
        2 => SymRef::CalleeLocal(FuncId(r.u32()?), LocalId(r.u32()?)),
        3 => SymRef::CalleeRet(FuncId(r.u32()?)),
        4 => SymRef::GlobalAddr(GlobalId(r.u32()?)),
        5 => SymRef::FuncAddr(FuncId(r.u32()?)),
        6 => SymRef::CtxDummy(decode_loc(r)?),
        _ => return Err(bad("bad ref tag")),
    })
}

fn encode_origin(w: &mut ByteWriter, o: SymOrigin) {
    match o {
        SymOrigin::Inst(l) => {
            w.u8(0);
            encode_loc(w, l);
        }
        SymOrigin::CallArg { site, idx } => {
            w.u8(1);
            encode_loc(w, site);
            w.uint(idx as u64);
        }
        SymOrigin::CallRet { site } => {
            w.u8(2);
            encode_loc(w, site);
        }
        SymOrigin::CtxBypass { site } => {
            w.u8(3);
            encode_loc(w, site);
        }
    }
}

fn decode_origin(r: &mut ByteReader<'_>) -> Result<SymOrigin, CodecError> {
    Ok(match r.u8()? {
        0 => SymOrigin::Inst(decode_loc(r)?),
        1 => SymOrigin::CallArg {
            site: decode_loc(r)?,
            idx: r.uint()? as usize,
        },
        2 => SymOrigin::CallRet {
            site: decode_loc(r)?,
        },
        3 => SymOrigin::CtxBypass {
            site: decode_loc(r)?,
        },
        _ => return Err(bad("bad origin tag")),
    })
}

fn encode_kind(w: &mut ByteWriter, k: &SymConstraintKind) {
    match k {
        SymConstraintKind::AddrOf { dst, obj } => {
            w.u8(0);
            encode_ref(w, *dst);
            encode_site(w, *obj);
        }
        SymConstraintKind::Copy { dst, src } => {
            w.u8(1);
            encode_ref(w, *dst);
            encode_ref(w, *src);
        }
        SymConstraintKind::Load { dst, addr } => {
            w.u8(2);
            encode_ref(w, *dst);
            encode_ref(w, *addr);
        }
        SymConstraintKind::Store { addr, src } => {
            w.u8(3);
            encode_ref(w, *addr);
            encode_ref(w, *src);
        }
        SymConstraintKind::Field { dst, base, idx } => {
            w.u8(4);
            encode_ref(w, *dst);
            encode_ref(w, *base);
            w.uint(*idx as u64);
        }
        SymConstraintKind::PtrArith { dst, base, loc } => {
            w.u8(5);
            encode_ref(w, *dst);
            encode_ref(w, *base);
            encode_loc(w, *loc);
        }
        SymConstraintKind::Elem { dst, base } => {
            w.u8(6);
            encode_ref(w, *dst);
            encode_ref(w, *base);
        }
    }
}

fn decode_kind(r: &mut ByteReader<'_>) -> Result<SymConstraintKind, CodecError> {
    Ok(match r.u8()? {
        0 => SymConstraintKind::AddrOf {
            dst: decode_ref(r)?,
            obj: decode_site(r)?,
        },
        1 => SymConstraintKind::Copy {
            dst: decode_ref(r)?,
            src: decode_ref(r)?,
        },
        2 => SymConstraintKind::Load {
            dst: decode_ref(r)?,
            addr: decode_ref(r)?,
        },
        3 => SymConstraintKind::Store {
            addr: decode_ref(r)?,
            src: decode_ref(r)?,
        },
        4 => SymConstraintKind::Field {
            dst: decode_ref(r)?,
            base: decode_ref(r)?,
            idx: r.uint()? as usize,
        },
        5 => SymConstraintKind::PtrArith {
            dst: decode_ref(r)?,
            base: decode_ref(r)?,
            loc: decode_loc(r)?,
        },
        6 => SymConstraintKind::Elem {
            dst: decode_ref(r)?,
            base: decode_ref(r)?,
        },
        _ => return Err(bad("bad constraint tag")),
    })
}

fn encode_opt_ty(w: &mut ByteWriter, ty: &Option<Type>) {
    match ty {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            encode_type(w, t);
        }
    }
}

fn decode_opt_ty(r: &mut ByteReader<'_>) -> Result<Option<Type>, CodecError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(decode_type(r)?),
        _ => return Err(bad("bad option tag")),
    })
}

/// Encode a [`FuncBlock`].
pub fn encode_block(w: &mut ByteWriter, b: &FuncBlock) {
    w.uint(b.ops.len() as u64);
    for op in &b.ops {
        match op {
            BlockOp::Obj { site, ty } => {
                w.u8(0);
                encode_site(w, *site);
                encode_opt_ty(w, ty);
            }
            BlockOp::Touch(r) => {
                w.u8(1);
                encode_ref(w, *r);
            }
            BlockOp::Push { kind, origin } => {
                w.u8(2);
                encode_kind(w, kind);
                encode_origin(w, *origin);
            }
            BlockOp::ICall {
                site,
                fnptr,
                args,
                dst,
            } => {
                w.u8(3);
                encode_loc(w, *site);
                encode_ref(w, *fnptr);
                w.uint(args.len() as u64);
                for a in args {
                    encode_opt_ref(w, *a);
                }
                encode_opt_ref(w, *dst);
            }
        }
    }
}

fn encode_opt_ref(w: &mut ByteWriter, r: Option<SymRef>) {
    match r {
        None => w.u8(0),
        Some(r) => {
            w.u8(1);
            encode_ref(w, r);
        }
    }
}

/// Decode a [`FuncBlock`] previously written by [`encode_block`].
pub fn decode_block(r: &mut ByteReader<'_>) -> Result<FuncBlock, CodecError> {
    let ops = r.list(|r| {
        Ok(match r.u8()? {
            0 => BlockOp::Obj {
                site: decode_site(r)?,
                ty: decode_opt_ty(r)?,
            },
            1 => BlockOp::Touch(decode_ref(r)?),
            2 => BlockOp::Push {
                kind: decode_kind(r)?,
                origin: decode_origin(r)?,
            },
            3 => BlockOp::ICall {
                site: decode_loc(r)?,
                fnptr: decode_ref(r)?,
                args: r.list(decode_opt_ref)?,
                dst: decode_opt_ref(r)?,
            },
            _ => return Err(bad("bad op tag")),
        })
    })?;
    Ok(FuncBlock { ops })
}

fn decode_opt_ref(r: &mut ByteReader<'_>) -> Result<Option<SymRef>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_ref(r)?)),
        _ => Err(bad("bad option tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::{FunctionBuilder, Operand};

    fn sample_module() -> Module {
        let mut m = Module::new("blocks");
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
        let q = b.alloca("q", Type::ptr(Type::Int));
        b.store(q, x);
        let l = b.load("l", q);
        let c = b.copy("c", l);
        b.call("r", callee, vec![c.into()]);
        let fp = b.copy("fp", Operand::Func(callee));
        b.call_ind("ri", fp, vec![h.into()], Type::ptr(Type::Int));
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn block_round_trips_through_codec() {
        let m = sample_module();
        for (fid, _) in m.iter_funcs() {
            let block = build_func_block(&m, fid);
            let bytes = block.to_bytes();
            assert_eq!(FuncBlock::from_bytes(&bytes).unwrap(), block);
        }
    }

    #[test]
    fn truncated_block_bytes_are_an_error() {
        let m = sample_module();
        let block = build_func_block(&m, FuncId(1));
        let bytes = block.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                FuncBlock::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn oversized_counts_are_errors_not_allocations() {
        // 2^40 ops.
        let huge_ops = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x20];
        assert!(FuncBlock::from_bytes(&huge_ops).is_err());
        // One indirect call (site 0:0:0, fnptr self-local 0) claiming 2^40
        // arguments.
        let huge_args = [1u8, 3, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
        assert!(FuncBlock::from_bytes(&huge_args).is_err());
    }

    #[test]
    fn plan_affected_is_planned_funcs_plus_direct_callers() {
        let m = sample_module();
        assert!(plan_affected(&m, None).is_empty());
        let empty = CtxPlan::new();
        assert!(plan_affected(&m, Some(&empty)).is_empty());
        let mut plan = CtxPlan::new();
        plan.funcs
            .insert(FuncId(0), crate::ctxplan::FuncCtxPlan { flows: vec![] });
        let affected = plan_affected(&m, Some(&plan));
        // callee (planned) + main (direct caller). The indirect call alone
        // would not pull main in — the direct `call` does.
        assert!(affected.contains(&FuncId(0)));
        assert!(affected.contains(&FuncId(1)));
        assert_eq!(affected.len(), 2);
    }
}
