//! Model-based property tests: `PtsSet` must behave exactly like a
//! `BTreeSet<u32>` under arbitrary operation sequences, `union_into` must
//! report exactly the new elements, and the word-level delta operations
//! (`diff_into`, `intersects`, structural `union_from`) must agree with
//! the model for every pair of representations.
//!
//! Driven by the in-repo [`kaleidoscope_prng::check`] harness (the sandbox
//! has no registry access for proptest); failing cases print their seed.

use std::collections::BTreeSet;

use kaleidoscope_prng::{check, Rng};
use kaleidoscope_pta::{NodeId, PtsDelta, PtsSet, DEMOTE_AT, SMALL_MAX};

#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
    UnionWith(Vec<u32>),
    RetainEven,
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..4u32) {
        0 => Op::Insert(rng.gen_range(0..64u32)),
        1 => Op::Remove(rng.gen_range(0..64u32)),
        2 => {
            let n = rng.gen_range(0..12usize);
            Op::UnionWith((0..n).map(|_| rng.gen_range(0..64u32)).collect())
        }
        _ => Op::RetainEven,
    }
}

#[test]
fn pts_set_matches_btreeset_model() {
    check(256, 0x9075, |rng| {
        let n_ops = rng.gen_range(0..60usize);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(rng)).collect();
        let mut sut = PtsSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(v) => {
                    let a = sut.insert(NodeId(v));
                    let b = model.insert(v);
                    assert_eq!(a, b, "insert return mismatch for {v}");
                }
                Op::Remove(v) => {
                    let a = sut.remove(NodeId(v));
                    let b = model.remove(&v);
                    assert_eq!(a, b, "remove return mismatch for {v}");
                }
                Op::UnionWith(vs) => {
                    let other: PtsSet = vs.iter().map(|&v| NodeId(v)).collect();
                    let added = sut.union_into(&other);
                    // Model: exactly the values not already present, sorted.
                    let mut expect: Vec<u32> =
                        vs.iter().copied().filter(|v| !model.contains(v)).collect();
                    expect.sort_unstable();
                    expect.dedup();
                    let got: Vec<u32> = added.iter().map(|n| n.0).collect();
                    assert_eq!(got, expect, "union_into delta");
                    model.extend(vs);
                }
                Op::RetainEven => {
                    let removed = sut.retain(|n| n.0 % 2 == 0);
                    let expect_removed: Vec<u32> =
                        model.iter().copied().filter(|v| v % 2 != 0).collect();
                    let got: Vec<u32> = removed.iter().map(|n| n.0).collect();
                    assert_eq!(got, expect_removed);
                    model.retain(|v| v % 2 == 0);
                }
            }
            // Invariants after every step.
            assert_eq!(sut.len(), model.len());
            let sut_items: Vec<u32> = sut.iter().map(|n| n.0).collect();
            let model_items: Vec<u32> = model.iter().copied().collect();
            assert_eq!(sut_items, model_items, "sorted content");
        }
    });
}

/// Same model check, but with value ranges and growth rates chosen to cross
/// the inline→bitmap promotion boundary (~16 elements) and spread ids over
/// many 64-bit words, so the sparse-bitmap paths (in-place OR, structural
/// merge, word-level difference) all get exercised.
#[test]
fn hybrid_promotion_matches_btreeset_model() {
    check(256, 0xb175, |rng| {
        let mut sut = PtsSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let n_ops = rng.gen_range(0..40usize);
        for _ in 0..n_ops {
            match rng.gen_range(0..5u32) {
                // Bulk union: the growth op, biased large to force promotion.
                0 | 1 => {
                    let n = rng.gen_range(0..40usize);
                    let vs: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2048u32)).collect();
                    let other: PtsSet = vs.iter().map(|&v| NodeId(v)).collect();
                    let mut added = Vec::new();
                    sut.union_from(&other, &mut added);
                    let mut expect: Vec<u32> =
                        vs.iter().copied().filter(|v| !model.contains(v)).collect();
                    expect.sort_unstable();
                    expect.dedup();
                    assert_eq!(
                        added.iter().map(|n| n.0).collect::<Vec<_>>(),
                        expect,
                        "union_from delta"
                    );
                    model.extend(vs);
                }
                // Sorted-slice union (the solver's copy-propagation path).
                2 => {
                    let n = rng.gen_range(0..25usize);
                    let mut vs: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2048u32)).collect();
                    vs.sort_unstable();
                    vs.dedup();
                    let slice: Vec<NodeId> = vs.iter().map(|&v| NodeId(v)).collect();
                    let mut added = Vec::new();
                    sut.union_slice_from(&slice, &mut added);
                    let expect: Vec<u32> =
                        vs.iter().copied().filter(|v| !model.contains(v)).collect();
                    assert_eq!(
                        added.iter().map(|n| n.0).collect::<Vec<_>>(),
                        expect,
                        "union_slice_from delta"
                    );
                    model.extend(vs);
                }
                3 => {
                    let v = rng.gen_range(0..2048u32);
                    assert_eq!(sut.insert(NodeId(v)), model.insert(v));
                }
                _ => {
                    let v = rng.gen_range(0..2048u32);
                    assert_eq!(sut.remove(NodeId(v)), model.remove(&v));
                }
            }
            assert_eq!(sut.len(), model.len());
            let sut_items: Vec<u32> = sut.iter().map(|n| n.0).collect();
            let model_items: Vec<u32> = model.iter().copied().collect();
            assert_eq!(sut_items, model_items, "sorted content after op");
        }
        // diff_into against a random second set matches the model difference.
        let vs: Vec<u32> = (0..rng.gen_range(0..50usize))
            .map(|_| rng.gen_range(0..2048u32))
            .collect();
        let other: PtsSet = vs.iter().map(|&v| NodeId(v)).collect();
        let other_model: BTreeSet<u32> = vs.into_iter().collect();
        let mut out = PtsDelta::new();
        sut.diff_into(&other, &mut out);
        let expect: Vec<u32> = model.difference(&other_model).copied().collect();
        assert_eq!(out.set().iter().map(|n| n.0).collect::<Vec<_>>(), expect);
        assert_eq!(
            sut.is_subset(&other),
            model.is_subset(&other_model),
            "is_subset agrees with model"
        );
    });
}

/// Promote-then-demote round trips: grow a random set past the inline
/// capacity (bitmap representation), shrink it back with random
/// `remove`/`retain` calls, and check that representation changes never
/// alter the observable set — contents, sorted iteration order, and the
/// equality/subset relations all track a `BTreeSet` model, and a set at or
/// below [`DEMOTE_AT`] holds no heap at all.
#[test]
fn promotion_demotion_round_trip_preserves_contents_and_order() {
    check(256, 0xde04, |rng| {
        // Grow: strictly more than SMALL_MAX distinct ids forces the
        // bitmap representation.
        let grow = SMALL_MAX + 1 + rng.gen_range(0..48usize);
        let mut sut = PtsSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        while model.len() < grow {
            let v = rng.gen_range(0..4096u32);
            sut.insert(NodeId(v));
            model.insert(v);
        }
        assert!(sut.heap_bytes() > 0, "past SMALL_MAX the set is a bitmap");
        // Shrink back below the demotion threshold, via a random mix of
        // point removes and a retain sweep.
        let keep = rng.gen_range(0..=DEMOTE_AT);
        while model.len() > keep {
            if rng.gen_bool(0.25) {
                // Retain a random prefix of the value space.
                let cut = rng.gen_range(0..4096u32);
                let before = model.len();
                sut.retain(|n| n.0 < cut);
                model.retain(|v| *v < cut);
                assert_eq!(sut.len(), model.len(), "retain cut at {cut}");
                if model.len() == before {
                    continue;
                }
            } else {
                let &v = model.iter().nth(rng.gen_range(0..model.len())).unwrap();
                assert!(sut.remove(NodeId(v)));
                model.remove(&v);
            }
            // The observable set tracks the model through every
            // representation change.
            let sut_items: Vec<u32> = sut.iter().map(|n| n.0).collect();
            let model_items: Vec<u32> = model.iter().copied().collect();
            assert_eq!(sut_items, model_items, "sorted content while shrinking");
        }
        assert!(
            sut.heap_bytes() == 0,
            "at {} ≤ DEMOTE_AT={DEMOTE_AT} elements the set must be inline",
            model.len()
        );
        // The demoted set is a first-class citizen: it compares equal to a
        // set built inline from scratch, and round-trips through promotion
        // again.
        let rebuilt: PtsSet = model.iter().map(|&v| NodeId(v)).collect();
        assert_eq!(sut, rebuilt, "demoted set equals inline-built set");
        assert!(sut.is_subset(&rebuilt) && rebuilt.is_subset(&sut));
        for v in 5000..5000 + SMALL_MAX as u32 + 1 {
            sut.insert(NodeId(v));
            model.insert(v);
        }
        assert!(sut.heap_bytes() > 0, "re-promotion works after demotion");
        let sut_items: Vec<u32> = sut.iter().map(|n| n.0).collect();
        let model_items: Vec<u32> = model.iter().copied().collect();
        assert_eq!(sut_items, model_items, "sorted content after re-growth");
    });
}

#[test]
fn union_is_idempotent_and_monotone() {
    check(256, 0xa11e, |rng| {
        let rand_vec = |rng: &mut Rng| {
            let n = rng.gen_range(0..30usize);
            (0..n).map(|_| rng.gen_range(0..128u32)).collect::<Vec<_>>()
        };
        let a = rand_vec(rng);
        let b = rand_vec(rng);
        let sa: PtsSet = a.iter().map(|&v| NodeId(v)).collect();
        let sb: PtsSet = b.iter().map(|&v| NodeId(v)).collect();
        let mut u = sa.clone();
        u.union_into(&sb);
        assert!(sa.is_subset(&u));
        assert!(sb.is_subset(&u));
        // Second union adds nothing.
        let mut u2 = u.clone();
        assert!(u2.union_into(&sb).is_empty());
        assert!(u2.union_into(&sa).is_empty());
        // Difference + subset coherence.
        for n in sa.difference(&sb) {
            assert!(sa.contains(n) && !sb.contains(n));
        }
    });
}

fn items(s: &PtsSet) -> Vec<u32> {
    s.iter().map(|n| n.0).collect()
}

/// A random set that is a bitmap (more than `SMALL_MAX` ids) with
/// probability `bitmap_odds`, else inline (at most `SMALL_MAX`). Half of the bitmap sets then have
/// whole words emptied by `remove`, staying above `DEMOTE_AT` so they keep
/// their bitmap — with the zero words `remove` leaves in the skeleton.
fn random_set(rng: &mut Rng, bitmap_odds: f64) -> (PtsSet, BTreeSet<u32>) {
    let bitmap = rng.gen_bool(bitmap_odds);
    let target = if bitmap {
        SMALL_MAX + 1 + rng.gen_range(0..80usize)
    } else {
        rng.gen_range(0..=SMALL_MAX)
    };
    let mut model = BTreeSet::new();
    while model.len() < target {
        model.insert(rng.gen_range(0..4096u32));
    }
    let mut set: PtsSet = model.iter().map(|&v| NodeId(v)).collect();
    if bitmap && rng.gen_bool(0.5) {
        for _ in 0..rng.gen_range(1..4usize) {
            let &pick = model.iter().nth(rng.gen_range(0..model.len())).unwrap();
            let word: Vec<u32> = model
                .iter()
                .copied()
                .filter(|v| v / 64 == pick / 64)
                .collect();
            if model.len() - word.len() > DEMOTE_AT {
                for v in word {
                    assert!(set.remove(NodeId(v)));
                    model.remove(&v);
                }
            }
        }
    }
    assert_eq!(set.heap_bytes() > 0, bitmap, "representation as requested");
    (set, model)
}

/// The second operand of a delta: empty, inline, bitmap, or a random
/// subset of `of` (the solver's `prop ⊆ pts` case).
fn random_other(rng: &mut Rng, of: &BTreeSet<u32>) -> (PtsSet, BTreeSet<u32>) {
    match rng.gen_range(0..4u32) {
        0 => (PtsSet::new(), BTreeSet::new()),
        1 => random_set(rng, 0.0),
        2 => random_set(rng, 1.0),
        _ => {
            let keep = rng.gen_range(0..=100u32);
            let model: BTreeSet<u32> = of
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0..100u32) < keep)
                .collect();
            (model.iter().map(|&v| NodeId(v)).collect(), model)
        }
    }
}

#[test]
fn delta_matches_model_for_every_representation_pair() {
    check(256, 0xd317, |rng| {
        // One buffer across several deltas, as in the solver, so the
        // parked bitmap is reused between inline and bitmap results.
        let mut out = PtsDelta::new();
        for _ in 0..6 {
            let (a, am) = random_set(rng, 0.5);
            let (b, bm) = random_other(rng, &am);
            a.diff_into(&b, &mut out);
            let expect: Vec<u32> = am.difference(&bm).copied().collect();
            assert_eq!(items(out.set()), expect, "delta content");
            assert_eq!(out.set().len(), expect.len(), "delta len");
            assert_eq!(
                out.set().heap_bytes() == 0,
                expect.len() <= SMALL_MAX,
                "delta is inline iff it has at most SMALL_MAX ids ({})",
                expect.len()
            );
        }
    });
}

#[test]
fn intersects_matches_model_for_every_representation_pair() {
    check(256, 0x1e75, |rng| {
        let (a, am) = random_set(rng, 0.5);
        let (b, bm) = random_other(rng, &am);
        let expect = !am.is_disjoint(&bm);
        assert_eq!(a.intersects(&b), expect);
        assert_eq!(b.intersects(&a), expect, "symmetric");
    });
}

#[test]
fn structural_union_reports_exactly_the_new_ids() {
    check(256, 0x57c0, |rng| {
        let (mut a, mut am) = random_set(rng, 0.5);
        for _ in 0..4 {
            // Sparse ids over a wide range, so most source words are
            // missing from the destination skeleton and the merge grows it.
            let (b, bm) = random_set(rng, 0.7);
            let mut added = Vec::new();
            a.union_from(&b, &mut added);
            let expect: Vec<u32> = bm.difference(&am).copied().collect();
            assert_eq!(
                added.iter().map(|n| n.0).collect::<Vec<_>>(),
                expect,
                "added is exactly the new ids, ascending"
            );
            am.extend(bm);
            assert_eq!(a.len(), am.len(), "len after union");
            assert_eq!(items(&a), am.iter().copied().collect::<Vec<_>>());
            // Idempotent, and the source is now a subset.
            assert!(a.union_into(&b).is_empty());
            assert!(b.is_subset(&a));
        }
    });
}
