//! The node arena shared by constraint generation and the solver.
//!
//! Nodes represent pointers (locals, return slots, address constants,
//! context-policy dummies) and memory objects (allocation sites and their
//! field sub-objects). The table embeds a union-find structure: cycle
//! collapse and field-insensitivity merge nodes by rerouting them to a
//! representative.

use std::collections::HashMap;
use std::fmt;

use kaleidoscope_ir::{FuncId, GlobalId, InstLoc, LocalId, Module, Type};

use crate::pts::PtsSet;

/// Identifier of a node in the [`NodeTable`].
///
/// `repr(transparent)` is load-bearing: `pta::pts` reinterprets
/// `Vec<NodeId>` as `Vec<u32>` when talking to the bitmap layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an abstract object (allocation site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Index into the object table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Where an abstract object comes from. This is the identity the runtime
/// monitors use: interpreter objects are tagged with their allocation site,
/// so "does this pointer refer to a filtered object" is a site comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjSite {
    /// A stack allocation (`alloca`) at the given instruction.
    Stack(InstLoc),
    /// A heap allocation (`halloc`) at the given instruction.
    Heap(InstLoc),
    /// A global variable.
    Global(GlobalId),
    /// A function (its address-taken object).
    Func(FuncId),
}

impl fmt::Display for ObjSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjSite::Stack(l) => write!(f, "stack@{l}"),
            ObjSite::Heap(l) => write!(f, "heap@{l}"),
            ObjSite::Global(g) => write!(f, "global:{g}"),
            ObjSite::Func(x) => write!(f, "func:@{}", x.0),
        }
    }
}

/// Metadata about an abstract object.
#[derive(Debug, Clone)]
pub struct ObjInfo {
    /// The allocation site.
    pub site: ObjSite,
    /// The object's type if known (`None` for untyped heap allocations —
    /// such objects are never filtered by the PA invariant; paper §6).
    pub ty: Option<Type>,
    /// Whether the object has been made field-insensitive (collapsed).
    pub collapsed: bool,
}

/// What a node stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A function-local variable (a "top-level pointer" in SVF terms).
    Local(FuncId, LocalId),
    /// The return-value slot of a function.
    Ret(FuncId),
    /// The address constant of a global or function (a node whose points-to
    /// set is the singleton object, so operands can be handled uniformly).
    AddrConst(ObjId),
    /// The root node of an abstract object.
    Obj(ObjId),
    /// A field sub-object: `parent` is the enclosing object/field node,
    /// `idx` the field index.
    Field {
        /// Root object this field belongs to.
        obj: ObjId,
        /// Immediate parent node (object root or an outer field).
        parent: NodeId,
        /// Field index within the parent struct.
        idx: usize,
    },
    /// A per-callsite dummy introduced by the context-sensitivity policy
    /// (the `cbs0`/`cbs1` nodes of Figure 8 in the paper).
    CtxDummy {
        /// Callsite this dummy belongs to.
        site: InstLoc,
        /// Disambiguator within the callsite.
        seq: u32,
    },
}

/// Newtype answer of [`NodeTable::field_struct_of`]: the struct whose fields
/// a field access on a node addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructIdOfNode(pub kaleidoscope_ir::StructId);

/// Arena of nodes + objects with an embedded union-find.
#[derive(Debug, Clone, Default)]
pub struct NodeTable {
    kinds: Vec<NodeKind>,
    /// Type of the *slot* the node denotes, where known. For object nodes,
    /// the object type; for field nodes, the field type.
    tys: Vec<Option<Type>>,
    rep: Vec<u32>,
    /// Every id that lost a [`NodeTable::merge`] (i.e. is no longer its own
    /// representative). A points-to set that does not intersect this is
    /// already canonical, so `find` over its members can be skipped.
    merged: PtsSet,
    objs: Vec<ObjInfo>,
    obj_root: Vec<NodeId>,
    obj_fields: Vec<Vec<NodeId>>,
    locals: HashMap<(FuncId, LocalId), NodeId>,
    rets: HashMap<FuncId, NodeId>,
    addrs: HashMap<ObjId, NodeId>,
    fields: HashMap<(NodeId, usize), NodeId>,
    site_objs: HashMap<ObjSite, ObjId>,
}

impl NodeTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: NodeKind, ty: Option<Type>) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.tys.push(ty);
        self.rep.push(id.0);
        id
    }

    /// Number of nodes (including merged ones).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The kind of a node (as created; merging does not rewrite kinds).
    pub fn kind(&self, n: NodeId) -> &NodeKind {
        &self.kinds[n.index()]
    }

    /// The slot type of a node, if known.
    pub fn ty(&self, n: NodeId) -> Option<&Type> {
        self.tys[n.index()].as_ref()
    }

    /// Union-find: the current representative of `n`.
    pub fn find(&mut self, n: NodeId) -> NodeId {
        let mut x = n.0;
        while self.rep[x as usize] != x {
            let parent = self.rep[x as usize];
            self.rep[x as usize] = self.rep[parent as usize];
            x = self.rep[x as usize];
        }
        NodeId(x)
    }

    /// Union-find lookup without path compression (no `&mut` needed).
    pub fn find_ref(&self, n: NodeId) -> NodeId {
        let mut x = n.0;
        while self.rep[x as usize] != x {
            x = self.rep[x as usize];
        }
        NodeId(x)
    }

    /// Make `from`'s representative point at `into`'s representative.
    /// Returns `(winner, loser)` or `None` if already merged.
    pub fn merge(&mut self, from: NodeId, into: NodeId) -> Option<(NodeId, NodeId)> {
        let a = self.find(from);
        let b = self.find(into);
        if a == b {
            return None;
        }
        self.rep[a.index()] = b.0;
        self.merged.insert(a);
        Some((b, a))
    }

    /// The ids merged away so far (see [`NodeTable::merge`]). Cycle
    /// merges, object collapses and incremental restores all go through
    /// `merge`, so this is complete.
    pub fn merged(&self) -> &PtsSet {
        &self.merged
    }

    /// Get or create the node for a local variable.
    pub fn local_node(&mut self, func: FuncId, local: LocalId) -> NodeId {
        if let Some(&n) = self.locals.get(&(func, local)) {
            return n;
        }
        let n = self.push(NodeKind::Local(func, local), None);
        self.locals.insert((func, local), n);
        n
    }

    /// The node for a local, if it was created.
    pub fn local_node_opt(&self, func: FuncId, local: LocalId) -> Option<NodeId> {
        self.locals.get(&(func, local)).copied()
    }

    /// Get or create the return-value node of a function.
    pub fn ret_node(&mut self, func: FuncId) -> NodeId {
        if let Some(&n) = self.rets.get(&func) {
            return n;
        }
        let n = self.push(NodeKind::Ret(func), None);
        self.rets.insert(func, n);
        n
    }

    /// The return-value node of a function, if it was created.
    pub fn ret_node_opt(&self, func: FuncId) -> Option<NodeId> {
        self.rets.get(&func).copied()
    }

    /// Get or create an abstract object for an allocation site.
    pub fn object(&mut self, site: ObjSite, ty: Option<Type>) -> ObjId {
        if let Some(&o) = self.site_objs.get(&site) {
            return o;
        }
        let o = ObjId(self.objs.len() as u32);
        self.objs.push(ObjInfo {
            site,
            ty: ty.clone(),
            collapsed: false,
        });
        let root = self.push(NodeKind::Obj(o), ty);
        self.obj_root.push(root);
        self.obj_fields.push(Vec::new());
        self.site_objs.insert(site, o);
        o
    }

    /// The object registered for a site, if any.
    pub fn object_at(&self, site: ObjSite) -> Option<ObjId> {
        self.site_objs.get(&site).copied()
    }

    /// Object metadata.
    pub fn obj_info(&self, o: ObjId) -> &ObjInfo {
        &self.objs[o.index()]
    }

    /// Mark an object field-insensitive (metadata only; the solver performs
    /// the actual node merging).
    pub fn set_collapsed(&mut self, o: ObjId) {
        self.objs[o.index()].collapsed = true;
    }

    /// Number of abstract objects.
    pub fn obj_count(&self) -> usize {
        self.objs.len()
    }

    /// Root node of an object.
    pub fn obj_root(&self, o: ObjId) -> NodeId {
        self.obj_root[o.index()]
    }

    /// Get or create the address-constant node of an object (its points-to
    /// set is initialized by constraint generation to the singleton object).
    pub fn addr_node(&mut self, o: ObjId) -> NodeId {
        if let Some(&n) = self.addrs.get(&o) {
            return n;
        }
        let kind = NodeKind::AddrConst(o);
        let ty = self.objs[o.index()].ty.clone().map(Type::ptr);
        let n = self.push(kind, ty);
        self.addrs.insert(o, n);
        n
    }

    /// The address-constant node of an object, if it was created.
    pub fn addr_node_opt(&self, o: ObjId) -> Option<NodeId> {
        self.addrs.get(&o).copied()
    }

    /// Create a fresh context-policy dummy node.
    pub fn ctx_dummy(&mut self, site: InstLoc, seq: u32, ty: Option<Type>) -> NodeId {
        self.push(NodeKind::CtxDummy { site, seq }, ty)
    }

    /// The root object a node belongs to, when the node is an object root or
    /// a field sub-object.
    pub fn node_obj(&self, n: NodeId) -> Option<ObjId> {
        match &self.kinds[n.index()] {
            NodeKind::Obj(o) | NodeKind::Field { obj: o, .. } => Some(*o),
            _ => None,
        }
    }

    /// Whether a node denotes (part of) a memory object, i.e. may appear in
    /// points-to sets.
    pub fn is_object_node(&self, n: NodeId) -> bool {
        matches!(
            self.kinds[n.index()],
            NodeKind::Obj(_) | NodeKind::Field { .. }
        )
    }

    /// The struct id whose fields a field access on this node addresses,
    /// looking through one array layer (array elements are smashed into the
    /// array node). `None` when the node's slot is not struct-shaped.
    pub fn field_struct_of(&self, n: NodeId) -> Option<StructIdOfNode> {
        match self.tys[n.index()].as_ref()? {
            Type::Struct(s) => Some(StructIdOfNode(*s)),
            Type::Array(elem, _) => match **elem {
                Type::Struct(s) => Some(StructIdOfNode(s)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Resolve the field sub-object `base.k`, creating it when the base is a
    /// struct (directly or as array-of-struct) with `k` in range. `fields`
    /// supplies the declared field types of the base struct.
    pub fn field_node_typed(&mut self, base: NodeId, k: usize, fields: &[Type]) -> NodeId {
        let base = self.find(base);
        let obj = match self.node_obj(base) {
            Some(o) => o,
            None => return base,
        };
        if self.objs[obj.index()].collapsed {
            return self.find(self.obj_root[obj.index()]);
        }
        if let Some(&f) = self.fields.get(&(base, k)) {
            return self.find(f);
        }
        if k >= fields.len() {
            return base;
        }
        let f = self.push(
            NodeKind::Field {
                obj,
                parent: base,
                idx: k,
            },
            Some(fields[k].clone()),
        );
        self.fields.insert((base, k), f);
        self.obj_fields[obj.index()].push(f);
        f
    }

    /// All field nodes created under the given object (any depth).
    pub fn fields_of_obj(&self, o: ObjId) -> &[NodeId] {
        &self.obj_fields[o.index()]
    }

    /// Iterate over all node ids (including merged ones).
    pub fn iter_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Human-readable description of a node for diagnostics.
    pub fn describe(&self, n: NodeId, module: &Module) -> String {
        match &self.kinds[n.index()] {
            NodeKind::Local(f, l) => {
                let func = module.func(*f);
                format!("{}::{}", func.name, func.locals[l.index()].name)
            }
            NodeKind::Ret(f) => format!("{}::<ret>", module.func(*f).name),
            NodeKind::AddrConst(o) => format!("&{}", self.objs[o.index()].site),
            NodeKind::Obj(o) => format!("{}", self.objs[o.index()].site),
            NodeKind::Field { obj, idx, .. } => {
                format!("{}.f{}", self.objs[obj.index()].site, idx)
            }
            NodeKind::CtxDummy { site, seq } => format!("ctx-dummy@{site}#{seq}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::BlockId;

    fn loc(i: u32) -> InstLoc {
        InstLoc::new(FuncId(0), BlockId(0), i)
    }

    #[test]
    fn local_and_ret_nodes_are_memoized() {
        let mut t = NodeTable::new();
        let a = t.local_node(FuncId(0), LocalId(1));
        let b = t.local_node(FuncId(0), LocalId(1));
        assert_eq!(a, b);
        let r1 = t.ret_node(FuncId(2));
        let r2 = t.ret_node(FuncId(2));
        assert_eq!(r1, r2);
        assert_ne!(a, r1);
    }

    #[test]
    fn objects_are_per_site() {
        let mut t = NodeTable::new();
        let o1 = t.object(ObjSite::Stack(loc(0)), Some(Type::Int));
        let o2 = t.object(ObjSite::Stack(loc(1)), Some(Type::Int));
        let o1b = t.object(ObjSite::Stack(loc(0)), Some(Type::Int));
        assert_ne!(o1, o2);
        assert_eq!(o1, o1b);
        assert!(t.is_object_node(t.obj_root(o1)));
        assert_eq!(t.node_obj(t.obj_root(o1)), Some(o1));
    }

    #[test]
    fn union_find_merge_and_find() {
        let mut t = NodeTable::new();
        let a = t.local_node(FuncId(0), LocalId(0));
        let b = t.local_node(FuncId(0), LocalId(1));
        let c = t.local_node(FuncId(0), LocalId(2));
        assert!(t.merge(a, b).is_some());
        assert!(t.merge(b, c).is_some());
        assert_eq!(t.find(a), t.find(c));
        assert!(t.merge(a, c).is_none(), "already merged");
        assert_eq!(t.find_ref(a), t.find(a));
        let merged: Vec<NodeId> = t.merged().iter().collect();
        assert_eq!(merged, vec![a, b], "losers recorded, representative not");
    }

    #[test]
    fn field_nodes_created_for_structs_in_range() {
        let mut t = NodeTable::new();
        let fields = vec![Type::Int, Type::ptr(Type::Int)];
        let o = t.object(
            ObjSite::Global(GlobalId(0)),
            Some(Type::Struct(kaleidoscope_ir::StructId(0))),
        );
        let root = t.obj_root(o);
        let f0 = t.field_node_typed(root, 0, &fields);
        let f1 = t.field_node_typed(root, 1, &fields);
        assert_ne!(f0, root);
        assert_ne!(f0, f1);
        // Memoized.
        assert_eq!(t.field_node_typed(root, 0, &fields), f0);
        // Out of range falls back to the base.
        assert_eq!(t.field_node_typed(root, 9, &fields), root);
        assert_eq!(t.ty(f1), Some(&Type::ptr(Type::Int)));
        assert_eq!(t.fields_of_obj(o).len(), 2);
    }

    #[test]
    fn field_on_collapsed_object_returns_root() {
        let mut t = NodeTable::new();
        let fields = vec![Type::Int];
        let o = t.object(
            ObjSite::Global(GlobalId(0)),
            Some(Type::Struct(kaleidoscope_ir::StructId(0))),
        );
        let root = t.obj_root(o);
        t.set_collapsed(o);
        assert_eq!(t.field_node_typed(root, 0, &fields), root);
    }

    #[test]
    fn field_on_non_object_returns_base() {
        let mut t = NodeTable::new();
        let l = t.local_node(FuncId(0), LocalId(0));
        assert_eq!(t.field_node_typed(l, 0, &[Type::Int]), l);
    }

    #[test]
    fn addr_nodes_are_memoized_and_typed() {
        let mut t = NodeTable::new();
        let o = t.object(ObjSite::Global(GlobalId(3)), Some(Type::Int));
        let a1 = t.addr_node(o);
        let a2 = t.addr_node(o);
        assert_eq!(a1, a2);
        assert_eq!(t.ty(a1), Some(&Type::ptr(Type::Int)));
        assert!(matches!(t.kind(a1), NodeKind::AddrConst(x) if *x == o));
    }
}
