//! Solver observation hooks.
//!
//! The paper's introspection framework (§4.1) instruments SVF's resolution
//! rules and cycle-collapse code "to record the number of objects that are
//! added to the target pointer's points-to set" and to track the origins of
//! derived constraint edges. [`SolverObserver`] is that instrumentation
//! surface: the solver reports every points-to growth, derived copy edge,
//! cycle collapse, and object collapse as it happens.

use kaleidoscope_ir::InstLoc;

use crate::gen::CopyProvenance;
use crate::node::{NodeId, NodeTable, ObjId};
use crate::pts::PtsSet;

/// Why an object was made field-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseReason {
    /// Arbitrary pointer arithmetic reached the object (baseline handling
    /// of `*(p+i)`; paper §4.2).
    PtrArith(InstLoc),
    /// The object was a target of a Field-Of edge inside a positive weight
    /// cycle (baseline PWC handling; paper §4.3).
    Pwc,
}

/// Instrumentation surface of the Andersen solver.
///
/// All methods have empty default bodies, so an observer only implements
/// what it needs. Observers must not assume canonical node ids: the solver
/// reports representative ids valid at event time.
pub trait SolverObserver {
    /// `target` gained the objects in `added` (exactly the new ones; a
    /// cycle merge reports the growth of all its losers as one set).
    fn pts_grew(&mut self, nodes: &NodeTable, target: NodeId, added: &PtsSet) {
        let _ = (nodes, target, added);
    }

    /// A derived copy edge `from → to` was added while resolving a Load,
    /// Store, or indirect call; `why` records the derivation origin.
    fn derived_copy(&mut self, nodes: &NodeTable, from: NodeId, to: NodeId, why: &CopyProvenance) {
        let _ = (nodes, from, to, why);
    }

    /// A cycle of `members` was collapsed into one representative.
    fn cycle_collapsed(&mut self, nodes: &NodeTable, members: &[NodeId], pwc: bool) {
        let _ = (nodes, members, pwc);
    }

    /// `obj` was turned field-insensitive.
    fn object_collapsed(&mut self, nodes: &NodeTable, obj: ObjId, why: CollapseReason) {
        let _ = (nodes, obj, why);
    }
}

/// An observer that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SolverObserver for NullObserver {}

/// An observer that counts events (useful in tests and stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingObserver {
    /// Total objects added across all points-to growths.
    pub objects_added: usize,
    /// Number of derived copy edges.
    pub derived_copies: usize,
    /// Number of collapsed cycles.
    pub cycles: usize,
    /// Number of collapsed cycles that were PWCs.
    pub pwc_cycles: usize,
    /// Number of objects turned field-insensitive.
    pub collapsed_objects: usize,
}

impl SolverObserver for CountingObserver {
    fn pts_grew(&mut self, _nodes: &NodeTable, _target: NodeId, added: &PtsSet) {
        self.objects_added += added.len();
    }

    fn derived_copy(
        &mut self,
        _nodes: &NodeTable,
        _from: NodeId,
        _to: NodeId,
        _why: &CopyProvenance,
    ) {
        self.derived_copies += 1;
    }

    fn cycle_collapsed(&mut self, _nodes: &NodeTable, members: &[NodeId], pwc: bool) {
        let _ = members;
        self.cycles += 1;
        if pwc {
            self.pwc_cycles += 1;
        }
    }

    fn object_collapsed(&mut self, _nodes: &NodeTable, _obj: ObjId, _why: CollapseReason) {
        self.collapsed_objects += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_observer_accumulates() {
        let nodes = NodeTable::new();
        let mut c = CountingObserver::default();
        c.pts_grew(
            &nodes,
            NodeId(0),
            &[NodeId(1), NodeId(2)].into_iter().collect(),
        );
        c.cycle_collapsed(&nodes, &[NodeId(0), NodeId(1)], true);
        c.cycle_collapsed(&nodes, &[NodeId(2), NodeId(3)], false);
        c.object_collapsed(&nodes, ObjId(0), CollapseReason::Pwc);
        assert_eq!(c.objects_added, 2);
        assert_eq!(c.cycles, 2);
        assert_eq!(c.pwc_cycles, 1);
        assert_eq!(c.collapsed_objects, 1);
    }

    #[test]
    fn null_observer_is_a_noop() {
        let nodes = NodeTable::new();
        let mut n = NullObserver;
        n.pts_grew(&nodes, NodeId(0), &PtsSet::new());
        n.cycle_collapsed(&nodes, &[], false);
    }
}
