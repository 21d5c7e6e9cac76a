//! Points-to sets.
//!
//! A [`PtsSet`] is a hybrid set of node ids: sets of up to [`SMALL_MAX`]
//! elements live in an inline sorted array (no heap allocation at all —
//! the overwhelmingly common case for points-to sets), and larger sets
//! promote to the sparse word-indexed bitmap in [`crate::bitvec`], where
//! union/intersection/subset run as word-level popcount loops. The threshold
//! is adaptive in both directions: a promoted set that shrinks back to
//! [`DEMOTE_AT`] elements or fewer (via `remove`/`retain`) demotes to the
//! inline array and frees its bitmap, so large-then-shrinking sets — SCC
//! merge losers, retained filters — stop pinning peak heap bytes. The
//! demotion threshold sits at half of [`SMALL_MAX`] so a set oscillating
//! around the promotion boundary does not thrash representations.
//!
//! Every operation observes the set as sorted ascending — the iterator,
//! `Display`, and the growth handed to observers all yield ids in the same
//! order the old sorted-vec representation did, so printed artifacts and
//! cache fingerprints are unchanged. The solver's difference ("delta")
//! propagation is word-level end to end: [`PtsSet::union_from`] ORs a
//! delta into a successor and reports exactly the newly added elements as
//! another set in a reusable [`PtsDelta`] — words in, words out, with no
//! id decoded unless a consumer iterates it.

use std::fmt;

use crate::bitvec::{BitBlocks, BlocksIter};
use crate::node::NodeId;

/// Largest cardinality stored inline before promoting to bitmap blocks.
pub const SMALL_MAX: usize = 16;

/// Cardinality at or below which a bitmap representation demotes back to
/// the inline array after shrinking. Half of [`SMALL_MAX`] gives hysteresis:
/// a set bouncing around the promotion boundary never thrashes between
/// representations.
pub const DEMOTE_AT: usize = SMALL_MAX / 2;

/// Cost model for the deterministic `union_words` counter: one 64-bit word
/// per two inline u32 slots touched, so small-array merges and bitmap OR
/// loops report in the same unit.
#[inline]
fn small_words(elems: usize) -> u64 {
    elems.div_ceil(2) as u64
}

#[derive(Debug, Clone)]
enum Repr {
    /// Inline sorted array; only `buf[..len]` is meaningful.
    Small { len: u8, buf: [NodeId; SMALL_MAX] },
    /// Sparse bitmap blocks (demotes back to `Small` when shrinking to
    /// [`DEMOTE_AT`] elements or fewer).
    Bits(BitBlocks),
}

/// A set of node ids (object nodes, in practice), observed sorted ascending.
#[derive(Debug)]
pub struct PtsSet {
    repr: Repr,
}

impl Default for PtsSet {
    fn default() -> Self {
        PtsSet {
            repr: Repr::Small {
                len: 0,
                buf: [NodeId(0); SMALL_MAX],
            },
        }
    }
}

impl Clone for PtsSet {
    fn clone(&self) -> Self {
        PtsSet {
            repr: self.repr.clone(),
        }
    }

    fn clone_from(&mut self, other: &Self) {
        match (&mut self.repr, &other.repr) {
            // Bitmap→bitmap reuses the destination vectors.
            (Repr::Bits(dst), Repr::Bits(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// Equality is on contents, independent of representation (a promoted set
/// that shrank below [`SMALL_MAX`] via `remove`/`retain` still compares
/// equal to an inline one).
impl PartialEq for PtsSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for PtsSet {}

impl PtsSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hash of the *raw representation* (inline slots or bitmap words, not
    /// members). Two content-equal sets in different representations may
    /// hash differently — callers use this as a cheap pre-dedup for sets
    /// built by identical propagation, with an exact fallback behind it.
    pub(crate) fn repr_hash(&self) -> u64 {
        const FNV: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        match &self.repr {
            Repr::Small { len, buf } => {
                let mut h = (FNV ^ 1).wrapping_mul(PRIME);
                for m in &buf[..*len as usize] {
                    h = (h ^ m.0 as u64).wrapping_mul(PRIME);
                }
                h
            }
            Repr::Bits(b) => b.repr_hash((FNV ^ 2).wrapping_mul(PRIME)),
        }
    }

    /// Raw-representation equality (same inline slots / same bitmap
    /// words). `false` across representations even for equal contents —
    /// exact where `repr_hash` matches, cheap everywhere.
    pub(crate) fn repr_eq(&self, other: &PtsSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small { len: l1, buf: b1 }, Repr::Small { len: l2, buf: b2 }) => {
                l1 == l2 && b1[..*l1 as usize] == b2[..*l2 as usize]
            }
            (Repr::Bits(a), Repr::Bits(b)) => a.repr_eq(b),
            _ => false,
        }
    }

    /// Fold this set's raw representation into a rolling digest: inline
    /// slots or bitmap words, never decoded members, so it costs one pass
    /// over the backing words (~64x cheaper than member iteration for
    /// bitmap sets). Deterministic for a given in-memory set, but
    /// **representation-sensitive**: two content-equal sets in different
    /// representations digest differently. Suitable for re-verifying an
    /// immutable artifact against a digest recorded from the same object,
    /// not for cross-run content addressing.
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        match &self.repr {
            Repr::Small { len, buf } => {
                h = (h ^ (*len as u64 | 1 << 32)).wrapping_mul(PRIME);
                for m in &buf[..*len as usize] {
                    h = (h ^ m.0 as u64).wrapping_mul(PRIME);
                }
                h
            }
            Repr::Bits(b) => b.repr_hash((h ^ (2 << 32)).wrapping_mul(PRIME)),
        }
    }

    /// Create a set from an iterator (sorted and deduplicated).
    pub fn from_iter_unsorted(iter: impl IntoIterator<Item = NodeId>) -> Self {
        let mut items: Vec<NodeId> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        Self::from_sorted(&items)
    }

    fn from_sorted(items: &[NodeId]) -> Self {
        if items.len() <= SMALL_MAX {
            let mut buf = [NodeId(0); SMALL_MAX];
            buf[..items.len()].copy_from_slice(items);
            PtsSet {
                repr: Repr::Small {
                    len: items.len() as u8,
                    buf,
                },
            }
        } else {
            let raw: Vec<u32> = items.iter().map(|n| n.0).collect();
            PtsSet {
                repr: Repr::Bits(BitBlocks::from_sorted_slice(&raw)),
            }
        }
    }

    /// Promote the inline array to bitmap blocks.
    fn promote(&mut self) -> &mut BitBlocks {
        if let Repr::Small { len, buf } = &self.repr {
            let raw: Vec<u32> = buf[..*len as usize].iter().map(|n| n.0).collect();
            self.repr = Repr::Bits(BitBlocks::from_sorted_slice(&raw));
        }
        match &mut self.repr {
            Repr::Bits(b) => b,
            Repr::Small { .. } => unreachable!("just promoted"),
        }
    }

    /// Demote a bitmap that shrank to [`DEMOTE_AT`] elements or fewer back
    /// to the inline array, freeing the bitmap's heap blocks.
    fn maybe_demote(&mut self) {
        if let Repr::Bits(b) = &self.repr {
            if b.len() <= DEMOTE_AT {
                let mut buf = [NodeId(0); SMALL_MAX];
                let mut len = 0u8;
                for v in b.iter() {
                    buf[len as usize] = NodeId(v);
                    len += 1;
                }
                self.repr = Repr::Small { len, buf };
            }
        }
    }

    /// Append an id above every element of an inline set with room left.
    fn push_inline(&mut self, n: NodeId) {
        match &mut self.repr {
            Repr::Small { len, buf } => {
                debug_assert!((*len as usize) < SMALL_MAX);
                debug_assert!(*len == 0 || buf[*len as usize - 1] < n);
                buf[*len as usize] = n;
                *len += 1;
            }
            Repr::Bits(_) => unreachable!("inline sets only"),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small { len, .. } => *len as usize,
            Repr::Bits(b) => b.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the set (0 while inline).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Small { .. } => 0,
            Repr::Bits(b) => b.heap_bytes(),
        }
    }

    /// Membership test.
    pub fn contains(&self, n: NodeId) -> bool {
        match &self.repr {
            Repr::Small { len, buf } => buf[..*len as usize].binary_search(&n).is_ok(),
            Repr::Bits(b) => b.contains(n.0),
        }
    }

    /// Insert one element; returns `true` if it was not already present.
    pub fn insert(&mut self, n: NodeId) -> bool {
        match &mut self.repr {
            Repr::Small { len, buf } => {
                let l = *len as usize;
                match buf[..l].binary_search(&n) {
                    Ok(_) => false,
                    Err(pos) => {
                        if l < SMALL_MAX {
                            buf.copy_within(pos..l, pos + 1);
                            buf[pos] = n;
                            *len += 1;
                        } else {
                            self.promote().insert(n.0);
                        }
                        true
                    }
                }
            }
            Repr::Bits(b) => b.insert(n.0),
        }
    }

    /// Remove one element; returns `true` if it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        match &mut self.repr {
            Repr::Small { len, buf } => {
                let l = *len as usize;
                match buf[..l].binary_search(&n) {
                    Ok(pos) => {
                        buf.copy_within(pos + 1..l, pos);
                        *len -= 1;
                        true
                    }
                    Err(_) => false,
                }
            }
            Repr::Bits(b) => {
                let hit = b.remove(n.0);
                if hit {
                    self.maybe_demote();
                }
                hit
            }
        }
    }

    /// Union `other` into `self`, setting `grown` to exactly the newly
    /// added elements: inline iff there are at most [`SMALL_MAX`] of them.
    /// Bitmap growth is reported word by word, never decoded. Returns the
    /// number of 64-bit words touched.
    pub fn union_from(&mut self, other: &PtsSet, grown: &mut PtsDelta) -> u64 {
        let words = match &other.repr {
            Repr::Small { len, buf } => {
                let other = &buf[..*len as usize];
                if other.is_empty() {
                    grown.park();
                    return 0;
                }
                let mut words = 0;
                if let Repr::Small { len, .. } = self.repr {
                    match self.union_inline(other, grown) {
                        Some(words) => return words,
                        // Overflow: promote and redo the merge at word level.
                        None => words = small_words(len as usize + other.len()),
                    }
                }
                words + self.promote().union_sorted(raw_ids(other), grown.park())
            }
            Repr::Bits(ob) => self.promote().union_from(ob, grown.park()),
        };
        grown.settle();
        words
    }

    /// The inline × inline union: merge into a stack buffer and report the
    /// new ids inline. `None` (and `self` untouched) when the result would
    /// not fit inline.
    fn union_inline(&mut self, other: &[NodeId], grown: &mut PtsDelta) -> Option<u64> {
        let Repr::Small { len, buf } = &mut self.repr else {
            unreachable!("inline sets only");
        };
        let l = *len as usize;
        let mut merged = [NodeId(0); SMALL_MAX];
        let mut new = [NodeId(0); SMALL_MAX];
        let (mut m, mut k) = (0usize, 0usize);
        let (mut i, mut j) = (0usize, 0usize);
        while i < l || j < other.len() {
            let pick = if j == other.len() || (i < l && buf[i] < other[j]) {
                i += 1;
                buf[i - 1]
            } else {
                if i < l && buf[i] == other[j] {
                    i += 1;
                } else {
                    new[k] = other[j];
                    k += 1;
                }
                j += 1;
                other[j - 1]
            };
            if m == SMALL_MAX {
                return None;
            }
            merged[m] = pick;
            m += 1;
        }
        *buf = merged;
        *len = m as u8;
        grown.park();
        for &n in &new[..k] {
            grown.set.push_inline(n);
        }
        Some(small_words(l + other.len()))
    }

    /// Whether `self` and `other` share an element (word-level when both
    /// are bitmaps).
    pub fn intersects(&self, other: &PtsSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Bits(a), Repr::Bits(b)) => a.intersects(b),
            (Repr::Small { len, buf }, _) => {
                buf[..*len as usize].iter().any(|&n| other.contains(n))
            }
            (_, Repr::Small { len, buf }) => buf[..*len as usize].iter().any(|&n| self.contains(n)),
        }
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &PtsSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Bits(sb), Repr::Bits(ob)) => sb.is_subset(ob),
            _ => self.len() <= other.len() && self.iter().all(|n| other.contains(n)),
        }
    }

    /// Iterate over elements in ascending order.
    pub fn iter(&self) -> PtsIter<'_> {
        match &self.repr {
            Repr::Small { len, buf } => PtsIter::Small(buf[..*len as usize].iter()),
            Repr::Bits(b) => PtsIter::Bits(b.iter()),
        }
    }

    /// Retain only elements matching the predicate; returns removed elements.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) -> Vec<NodeId> {
        let mut removed = Vec::new();
        match &mut self.repr {
            Repr::Small { len, buf } => {
                let l = *len as usize;
                let mut w = 0usize;
                for i in 0..l {
                    let n = buf[i];
                    if keep(n) {
                        buf[w] = n;
                        w += 1;
                    } else {
                        removed.push(n);
                    }
                }
                *len = w as u8;
            }
            Repr::Bits(b) => {
                let raw: &mut Vec<u32> = unsafe { transmute_ids(&mut removed) };
                b.retain(|v| keep(NodeId(v)), raw);
                if !removed.is_empty() {
                    self.maybe_demote();
                }
            }
        }
        removed
    }

    /// Remove all elements, keeping any bitmap allocation.
    ///
    /// This deliberately does *not* demote: a scratch set that is cleared
    /// and refilled over and over keeps its warm bitmap. Sets that are dead
    /// for good should use [`PtsSet::release`] instead.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Small { len, .. } => *len = 0,
            Repr::Bits(b) => b.clear(),
        }
    }

    /// Remove all elements *and* drop any bitmap allocation, resetting to
    /// the inline representation. For sets that will never grow again —
    /// SCC merge losers, collapsed field nodes — where `clear`'s
    /// allocation reuse would pin `peak_pts_bytes` for the rest of the
    /// solve.
    pub fn release(&mut self) {
        *self = PtsSet::default();
    }
}

/// View a `Vec<NodeId>` as a `Vec<u32>` for the bitvec APIs.
///
/// Sound because `NodeId` is `#[repr(transparent)]` over `u32` — same size,
/// alignment, and bit validity — and the borrow keeps the vec exclusive.
#[inline]
unsafe fn transmute_ids(v: &mut Vec<NodeId>) -> &mut Vec<u32> {
    &mut *(v as *mut Vec<NodeId> as *mut Vec<u32>)
}

/// View a `&[NodeId]` as `&[u32]` for the bitvec APIs (sound for the
/// same `#[repr(transparent)]` reason as [`transmute_ids`]).
#[inline]
fn raw_ids(v: &[NodeId]) -> &[u32] {
    // SAFETY: `NodeId` is `repr(transparent)` over `u32`, so the pointer
    // is valid and aligned for `v.len()` `u32`s for the borrow of `v`.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u32, v.len()) }
}

/// Reusable output of [`PtsSet::union_from`]: the ids a union added, as a
/// [`PtsSet`], plus the bitmap allocation parked while that set is
/// inline. The solver reports one growth per union and keeps a few of
/// these warm, so a large growth reuses one bitmap for the whole solve
/// instead of allocating per union.
#[derive(Debug, Default)]
pub struct PtsDelta {
    set: PtsSet,
    spare: BitBlocks,
}

impl PtsDelta {
    /// An empty delta buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current set.
    pub fn set(&self) -> &PtsSet {
        &self.set
    }

    /// Set the delta to a copy of `src`, reusing the parked bitmap when
    /// `src` is one.
    pub(crate) fn copy_from(&mut self, src: &PtsSet) {
        match &src.repr {
            Repr::Small { .. } => {
                self.park();
                self.set.clone_from(src);
            }
            Repr::Bits(b) => {
                self.park().clone_from(b);
                self.set.repr = Repr::Bits(std::mem::take(&mut self.spare));
            }
        }
    }

    /// Reset the set to empty inline, parking its bitmap (if any) as the
    /// working bitmap, and return that bitmap, emptied.
    fn park(&mut self) -> &mut BitBlocks {
        if let Repr::Bits(b) = std::mem::take(&mut self.set).repr {
            self.spare = b;
        }
        self.spare.clear();
        &mut self.spare
    }

    /// Publish the working bitmap: decoded inline when it has at most
    /// [`SMALL_MAX`] ids (the bitmap stays parked), else moved into the set.
    fn settle(&mut self) {
        if self.spare.len() <= SMALL_MAX {
            for v in self.spare.iter() {
                self.set.push_inline(NodeId(v));
            }
        } else {
            self.set.repr = Repr::Bits(std::mem::take(&mut self.spare));
        }
    }
}

/// Sorted-order iterator over a [`PtsSet`].
pub enum PtsIter<'a> {
    Small(std::slice::Iter<'a, NodeId>),
    Bits(BlocksIter<'a>),
}

impl Iterator for PtsIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match self {
            PtsIter::Small(it) => it.next().copied(),
            PtsIter::Bits(it) => it.next().map(NodeId),
        }
    }
}

impl FromIterator<NodeId> for PtsSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        PtsSet::from_iter_unsorted(iter)
    }
}

impl Extend<NodeId> for PtsSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for n in iter {
            self.insert(n);
        }
    }
}

impl fmt::Display for PtsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "n{}", n.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    fn to_vec(s: &PtsSet) -> Vec<NodeId> {
        s.iter().collect()
    }

    #[test]
    fn insert_and_contains() {
        let mut s = PtsSet::new();
        assert!(s.insert(n(5)));
        assert!(s.insert(n(1)));
        assert!(!s.insert(n(5)));
        assert!(s.contains(n(1)));
        assert!(!s.contains(n(2)));
        assert_eq!(to_vec(&s), vec![n(1), n(5)]);
        assert_eq!(s.heap_bytes(), 0, "small sets stay inline");
    }

    /// Union `other` into `s`, returning the grown ids.
    fn grow(s: &mut PtsSet, other: &PtsSet) -> Vec<NodeId> {
        let mut grown = PtsDelta::new();
        s.union_from(other, &mut grown);
        to_vec(grown.set())
    }

    #[test]
    fn union_reports_exactly_new_elements() {
        let mut a: PtsSet = [n(1), n(3), n(5)].into_iter().collect();
        let b: PtsSet = [n(2), n(3), n(6)].into_iter().collect();
        assert_eq!(grow(&mut a, &b), vec![n(2), n(6)]);
        assert_eq!(to_vec(&a), vec![n(1), n(2), n(3), n(5), n(6)]);
        // Second union adds nothing.
        assert!(grow(&mut a, &b).is_empty());
    }

    #[test]
    fn union_with_empty() {
        let mut a: PtsSet = [n(1)].into_iter().collect();
        assert!(grow(&mut a, &PtsSet::new()).is_empty());
        let mut e = PtsSet::new();
        assert_eq!(grow(&mut e, &a), vec![n(1)]);
    }

    #[test]
    fn intersects_and_subset() {
        let a: PtsSet = [n(1), n(2), n(3)].into_iter().collect();
        let b: PtsSet = [n(2)].into_iter().collect();
        assert!(a.intersects(&b) && !a.intersects(&[n(4)].into_iter().collect()));
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn retain_returns_removed() {
        let mut a: PtsSet = [n(1), n(2), n(3), n(4)].into_iter().collect();
        let removed = a.retain(|x| x.0 % 2 == 0);
        assert_eq!(removed, vec![n(1), n(3)]);
        assert_eq!(to_vec(&a), vec![n(2), n(4)]);
    }

    #[test]
    fn from_iter_dedups_and_sorts() {
        let s = PtsSet::from_iter_unsorted(vec![n(4), n(1), n(4), n(2)]);
        assert_eq!(to_vec(&s), vec![n(1), n(2), n(4)]);
        assert_eq!(s.to_string(), "{n1, n2, n4}");
    }

    #[test]
    fn promotion_preserves_semantics() {
        let mut s = PtsSet::new();
        for v in 0..SMALL_MAX as u32 {
            assert!(s.insert(n(v * 7)));
        }
        assert_eq!(s.heap_bytes(), 0);
        // One more element crosses the boundary.
        assert!(s.insert(n(3)));
        assert!(s.heap_bytes() > 0, "promoted to bitmap");
        assert_eq!(s.len(), SMALL_MAX + 1);
        let got = to_vec(&s);
        let mut want: Vec<NodeId> = (0..SMALL_MAX as u32).map(|v| n(v * 7)).collect();
        want.push(n(3));
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(s.contains(n(3)) && s.contains(n(7 * 15)));
    }

    #[test]
    fn inline_overflow_promotes_and_reports_added_once() {
        let mut a: PtsSet = (0..14u32).map(n).collect();
        let b: PtsSet = (10..24u32).map(n).collect();
        assert_eq!(b.heap_bytes(), 0, "both operands inline");
        let mut grown = PtsDelta::new();
        a.union_from(&b, &mut grown);
        assert_eq!(to_vec(grown.set()), (14..24u32).map(n).collect::<Vec<_>>());
        assert_eq!(grown.set().heap_bytes(), 0, "10 new ids stay inline");
        assert_eq!(a.len(), 24);
        assert!(a.heap_bytes() > 0, "promoted");
        assert_eq!(to_vec(&a), (0..24u32).map(n).collect::<Vec<_>>());
    }

    #[test]
    fn eq_across_representations() {
        // Promote then shrink back under the boundary: still equal to an
        // inline set with the same contents.
        let mut big: PtsSet = (0..20u32).map(n).collect();
        assert!(big.heap_bytes() > 0);
        for v in 3..20u32 {
            big.remove(n(v));
        }
        let small: PtsSet = (0..3u32).map(n).collect();
        assert_eq!(big, small);
        assert_eq!(small, big);
        assert!(big.is_subset(&small) && small.is_subset(&big));
    }

    #[test]
    fn shrinking_below_demote_threshold_frees_the_bitmap() {
        let mut s: PtsSet = (0..30u32).map(n).collect();
        assert!(s.heap_bytes() > 0);
        // Stay above DEMOTE_AT: still a bitmap (hysteresis).
        for v in (DEMOTE_AT as u32 + 1)..30 {
            assert!(s.remove(n(v)));
        }
        assert!(s.heap_bytes() > 0, "at DEMOTE_AT+1 the bitmap is kept");
        // One more removal crosses the threshold and demotes.
        assert!(s.remove(n(DEMOTE_AT as u32)));
        assert_eq!(s.heap_bytes(), 0, "demoted to inline");
        assert_eq!(to_vec(&s), (0..DEMOTE_AT as u32).map(n).collect::<Vec<_>>());
        // The demoted set can promote again and keeps working.
        for v in 100..130u32 {
            assert!(s.insert(n(v)));
        }
        assert!(s.heap_bytes() > 0);
        assert_eq!(s.len(), DEMOTE_AT + 30);
    }

    #[test]
    fn retain_demotes_and_release_frees() {
        let mut s: PtsSet = (0..40u32).map(n).collect();
        let removed = s.retain(|x| x.0 < 4);
        assert_eq!(removed.len(), 36);
        assert_eq!(s.heap_bytes(), 0, "retain shrank it below DEMOTE_AT");
        assert_eq!(to_vec(&s), (0..4u32).map(n).collect::<Vec<_>>());
        let mut big: PtsSet = (0..40u32).map(n).collect();
        big.clear();
        assert!(big.heap_bytes() > 0, "clear keeps the warm bitmap");
        big.release();
        assert_eq!(big.heap_bytes(), 0, "release drops it");
        assert!(big.is_empty());
    }

    #[test]
    fn mixed_repr_union() {
        let big: PtsSet = (0..40u32).map(n).collect();
        let mut small: PtsSet = [n(1), n(100)].into_iter().collect();
        let mut grown = PtsDelta::new();
        small.union_from(&big, &mut grown);
        assert_eq!(grown.set().len(), 39);
        assert!(!grown.set().contains(n(1)) && grown.set().contains(n(39)));
        assert_eq!(small.len(), 41);
        // Inline source into a bitmap destination.
        let few: PtsSet = [n(5), n(200)].into_iter().collect();
        small.union_from(&few, &mut grown);
        assert_eq!(to_vec(grown.set()), vec![n(200)]);
    }

    #[test]
    fn growth_is_inline_iff_small_and_reuses_its_bitmap() {
        let big: PtsSet = (0..100u32).map(n).collect();
        let mut grown = PtsDelta::new();
        // Into an empty set: everything is new, held as a bitmap.
        let mut a = PtsSet::new();
        a.union_from(&big, &mut grown);
        assert_eq!(grown.set(), &big);
        assert!(grown.set().heap_bytes() > 0);
        // Exactly SMALL_MAX new ids: inline again, the bitmap parked.
        let mut most: PtsSet = (0..100 - SMALL_MAX as u32).map(n).collect();
        most.union_from(&big, &mut grown);
        assert_eq!(grown.set().len(), SMALL_MAX);
        assert_eq!(grown.set().heap_bytes(), 0);
        assert!(grown.spare.heap_bytes() > 0, "bitmap parked, not freed");
        // A copy reuses the parked bitmap and holds the set as given.
        grown.copy_from(&big);
        assert_eq!(grown.set(), &big);
        grown.copy_from(&[n(7)].into_iter().collect());
        assert_eq!(to_vec(grown.set()), vec![n(7)]);
        assert!(grown.spare.heap_bytes() > 0);
    }

    #[test]
    fn clone_from_reuses_bits() {
        let big: PtsSet = (0..100u32).map(n).collect();
        let mut dst = PtsSet::new();
        dst.clone_from(&big);
        assert_eq!(dst, big);
        let small: PtsSet = [n(1)].into_iter().collect();
        dst.clone_from(&small);
        assert_eq!(dst, small);
    }
}
