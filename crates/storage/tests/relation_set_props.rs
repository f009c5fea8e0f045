//! Reference-model property test for [`RelationSet`]: two bitmap sets and
//! two `BTreeSet<RelationId>`s are driven side by side through random
//! inserts, removes, unions, intersections and differences over every
//! relation id a catalog can hand out (0–254), and every observable answer
//! of the bitmaps must match the trees'.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tashkent_storage::{RelationId, RelationSet, MAX_RELATIONS};

/// One step on set `0` or set `1`; the binary operations combine it with
/// the other set.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(usize, u32),
    Remove(usize, u32),
    Union(usize),
    Intersection(usize),
    Difference(usize),
}

/// Relation ids: half uniform over the catalog range, half at the 64-bit
/// word boundaries, so the two sets overlap often and every word is used.
fn id_strategy() -> impl Strategy<Value = u32> {
    const EDGES: [u32; 8] = [0, 63, 64, 127, 128, 191, 192, 254];
    prop_oneof![
        0u32..MAX_RELATIONS,
        (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0usize..2, id_strategy()).prop_map(|(s, id)| Op::Insert(s, id)),
        3 => (0usize..2, id_strategy()).prop_map(|(s, id)| Op::Remove(s, id)),
        1 => (0usize..2).prop_map(Op::Union),
        1 => (0usize..2).prop_map(Op::Intersection),
        1 => (0usize..2).prop_map(Op::Difference),
    ]
}

/// Asserts every single-set answer of `set` against `model`.
fn check_set(set: RelationSet, model: &BTreeSet<RelationId>) {
    for id in 0..300 {
        let rel = RelationId(id);
        assert_eq!(set.contains(rel), model.contains(&rel), "contains({id})");
    }
    assert_eq!(set.len(), model.len());
    assert_eq!(set.is_empty(), model.is_empty());
    let members: Vec<RelationId> = set.iter().collect();
    let expect: Vec<RelationId> = model.iter().copied().collect();
    assert_eq!(members, expect, "ascending iteration");
    assert_eq!(format!("{set:?}"), format!("{model:?}"));
    assert_eq!(model.iter().copied().collect::<RelationSet>(), set);
}

proptest! {
    /// Every answer of the bitmap matches the tree after every step.
    #[test]
    fn matches_btreeset_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut sets = [RelationSet::new(); 2];
        let mut models: [BTreeSet<RelationId>; 2] = Default::default();
        for op in ops {
            match op {
                Op::Insert(s, id) => {
                    let rel = RelationId(id);
                    prop_assert_eq!(sets[s].insert(rel), models[s].insert(rel));
                }
                Op::Remove(s, id) => {
                    let rel = RelationId(id);
                    prop_assert_eq!(sets[s].remove(rel), models[s].remove(&rel));
                }
                Op::Union(s) => {
                    sets[s] = sets[s].union(sets[1 - s]);
                    models[s] = models[s].union(&models[1 - s]).copied().collect();
                }
                Op::Intersection(s) => {
                    sets[s] = sets[s].intersection(sets[1 - s]);
                    models[s] = models[s].intersection(&models[1 - s]).copied().collect();
                }
                Op::Difference(s) => {
                    sets[s] = sets[s].difference(sets[1 - s]);
                    models[s] = models[s].difference(&models[1 - s]).copied().collect();
                }
            }
            for s in 0..2 {
                check_set(sets[s], &models[s]);
            }
            let [a, b] = sets;
            prop_assert_eq!(a.is_subset(b), models[0].is_subset(&models[1]));
            prop_assert_eq!(b.is_subset(a), models[1].is_subset(&models[0]));
            prop_assert_eq!(a.intersects(b), !models[0].is_disjoint(&models[1]));
        }
    }
}

#[test]
#[should_panic(expected = "relation id 255 out of range")]
fn inserting_relation_255_panics() {
    RelationSet::new().insert(RelationId(MAX_RELATIONS));
}
