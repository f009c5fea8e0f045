//! Property-based invariants of `grouping::pack_groups` (§2.3).
//!
//! Across arbitrary working-set populations, capacities, and all three
//! estimation modes:
//!
//! * every transaction type lands in exactly one group;
//! * no group exceeds the memory budget unless it is a singleton oversized
//!   (overflow) type;
//! * overlap credit can only shrink a group's estimate relative to the sum
//!   of its members' sizes, and size-only packing takes the exact sum;
//! * the bitmap packer returns exactly the groups of a reference model: the
//!   packer as it was written over `BTreeMap`s of relation → pages, kept
//!   below verbatim.
//!
//! Each case draws one page table, as the catalog's `relpages` gives one
//! size per relation, and each type's relations as a subset of it.

use proptest::prelude::*;
use tashkent_core::{pack_groups, EstimationMode, PageTable, WorkingSet};
use tashkent_engine::TxnTypeId;
use tashkent_storage::RelationId;

const MODES: [EstimationMode; 3] = [
    EstimationMode::Size,
    EstimationMode::SizeContent,
    EstimationMode::SizeContentAccessPattern,
];

/// Relations in a case's schema.
const RELATIONS: u32 = 16;

/// A page table over [`RELATIONS`] relations and up to `max_types - 1`
/// types, each referencing one to five of them.
fn working_sets(max_types: u32) -> impl Strategy<Value = (PageTable, Vec<WorkingSet>)> {
    (
        proptest::collection::vec(1u64..6_000, RELATIONS as usize..RELATIONS as usize + 1),
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..RELATIONS, 1..6),
            1..max_types as usize,
        ),
    )
        .prop_map(|(pages, types)| {
            let sets = types
                .into_iter()
                .enumerate()
                .map(|(i, rels)| WorkingSet {
                    txn_type: TxnTypeId(i as u32),
                    // Mark roughly half the relations scanned so SCAP
                    // differs from SC.
                    scanned: rels
                        .iter()
                        .filter(|r| *r % 2 == 0)
                        .map(|r| RelationId(*r))
                        .collect(),
                    relations: rels.into_iter().map(RelationId).collect(),
                })
                .collect();
            (PageTable::from(pages), sets)
        })
}

/// The packer over `BTreeMap`s of relation → pages, as it was before
/// working sets became relation bitmaps: the reference model.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use tashkent_core::EstimationMode;
    use tashkent_engine::TxnTypeId;
    use tashkent_storage::RelationId;

    /// The estimated working set of one transaction type.
    pub struct WorkingSet {
        pub txn_type: TxnTypeId,
        pub relations: BTreeMap<RelationId, u64>,
        pub scanned: BTreeSet<RelationId>,
    }

    impl WorkingSet {
        fn size_pages(&self) -> u64 {
            self.relations.values().sum()
        }

        fn scanned_pages(&self) -> u64 {
            self.scanned
                .iter()
                .map(|r| self.relations.get(r).copied().unwrap_or(0))
                .sum()
        }

        fn pages_for(&self, mode: EstimationMode) -> u64 {
            match mode {
                EstimationMode::Size | EstimationMode::SizeContent => self.size_pages(),
                EstimationMode::SizeContentAccessPattern => self.scanned_pages(),
            }
        }

        fn relations_for(&self, mode: EstimationMode) -> BTreeMap<RelationId, u64> {
            match mode {
                EstimationMode::Size | EstimationMode::SizeContent => self.relations.clone(),
                EstimationMode::SizeContentAccessPattern => self
                    .relations
                    .iter()
                    .filter(|(r, _)| self.scanned.contains(r))
                    .map(|(r, p)| (*r, *p))
                    .collect(),
            }
        }
    }

    /// A group of transaction types sharing replicas.
    #[derive(Debug)]
    pub struct TxnGroup {
        pub types: Vec<TxnTypeId>,
        pub relations: BTreeMap<RelationId, u64>,
        pub estimate_pages: u64,
        pub overflow: bool,
    }

    impl TxnGroup {
        fn new_overflow(ws: &WorkingSet, mode: EstimationMode) -> Self {
            TxnGroup {
                types: vec![ws.txn_type],
                relations: ws.relations_for(mode),
                estimate_pages: ws.pages_for(mode),
                overflow: true,
            }
        }

        fn new_seeded(ws: &WorkingSet, mode: EstimationMode) -> Self {
            TxnGroup {
                types: vec![ws.txn_type],
                relations: ws.relations_for(mode),
                estimate_pages: ws.pages_for(mode),
                overflow: false,
            }
        }

        fn added_pages(&self, ws: &WorkingSet, mode: EstimationMode) -> u64 {
            match mode {
                EstimationMode::Size => ws.pages_for(mode),
                _ => ws
                    .relations_for(mode)
                    .iter()
                    .filter(|(r, _)| !self.relations.contains_key(*r))
                    .map(|(_, p)| *p)
                    .sum(),
            }
        }

        fn overlap_pages(&self, ws: &WorkingSet, mode: EstimationMode) -> u64 {
            match mode {
                EstimationMode::Size => 0,
                _ => ws
                    .relations_for(mode)
                    .iter()
                    .filter(|(r, _)| self.relations.contains_key(*r))
                    .map(|(_, p)| *p)
                    .sum(),
            }
        }

        fn add(&mut self, ws: &WorkingSet, mode: EstimationMode) {
            self.estimate_pages += self.added_pages(ws, mode);
            for (r, p) in ws.relations_for(mode) {
                self.relations.entry(r).or_insert(p);
            }
            self.types.push(ws.txn_type);
        }
    }

    pub fn pack_groups(
        working_sets: &[WorkingSet],
        mode: EstimationMode,
        capacity_pages: u64,
    ) -> Vec<TxnGroup> {
        // Decreasing size order; ties break by type id for determinism.
        let mut order: Vec<&WorkingSet> = working_sets.iter().collect();
        order.sort_by(|a, b| {
            b.pages_for(mode)
                .cmp(&a.pages_for(mode))
                .then(a.txn_type.cmp(&b.txn_type))
        });

        let mut groups: Vec<TxnGroup> = Vec::new();
        for ws in order {
            if ws.pages_for(mode) > capacity_pages {
                groups.push(TxnGroup::new_overflow(ws, mode));
                continue;
            }
            // Best fit: among non-overflow bins where the added pages fit,
            // prefer maximal overlap, then minimal resulting free space, then
            // lowest index. Overflow bins are closed — lightly loaded groups
            // may still end up sharing a replica later via the allocator's
            // merge step (§2.4), which is how the paper's Table 2 puts the
            // small probing types next to OrderDisplay.
            let mut best: Option<(usize, u64, u64)> = None; // (idx, overlap, free_after)
            for (idx, g) in groups.iter().enumerate() {
                if g.overflow {
                    continue;
                }
                let added = g.added_pages(ws, mode);
                if g.estimate_pages + added > capacity_pages {
                    continue;
                }
                let overlap = g.overlap_pages(ws, mode);
                let free_after = capacity_pages - g.estimate_pages - added;
                let better = match best {
                    None => true,
                    Some((_, bo, bf)) => overlap > bo || (overlap == bo && free_after < bf),
                };
                if better {
                    best = Some((idx, overlap, free_after));
                }
            }
            match best {
                Some((idx, _, _)) => groups[idx].add(ws, mode),
                None => groups.push(TxnGroup::new_seeded(ws, mode)),
            }
        }
        groups
    }
}

/// The reference model's view of a working set: each relation with its
/// size from the case's page table.
fn reference_set(ws: &WorkingSet, pages: &PageTable) -> reference::WorkingSet {
    reference::WorkingSet {
        txn_type: ws.txn_type,
        relations: ws.relations.iter().map(|r| (r, pages.pages(r))).collect(),
        scanned: ws.scanned.iter().collect(),
    }
}

proptest! {
    /// Every transaction type appears in exactly one group, in every mode.
    #[test]
    fn each_type_in_exactly_one_group(case in working_sets(24), capacity in 500u64..25_000) {
        let (pages, sets) = case;
        for mode in MODES {
            let groups = pack_groups(&sets, &pages, mode, capacity);
            let mut seen: Vec<u32> = groups
                .iter()
                .flat_map(|g| g.types.iter().map(|t| t.0))
                .collect();
            seen.sort_unstable();
            let expected: Vec<u32> = (0..sets.len() as u32).collect();
            prop_assert_eq!(seen, expected, "{:?}: type partition broken", mode);
        }
    }

    /// A group over the memory budget must be a singleton oversized type —
    /// flagged overflow, holding exactly one type whose own estimate exceeds
    /// capacity. Everything else fits.
    #[test]
    fn only_singleton_oversized_types_exceed_budget(case in working_sets(24), capacity in 500u64..25_000) {
        let (pages, sets) = case;
        for mode in MODES {
            for g in pack_groups(&sets, &pages, mode, capacity) {
                if g.estimate_pages > capacity {
                    prop_assert!(g.overflow, "{:?}: oversized group not flagged", mode);
                    prop_assert_eq!(g.types.len(), 1, "{:?}: oversized group not singleton", mode);
                    let only = g.types[0];
                    prop_assert!(
                        sets[only.0 as usize].pages_for(mode, &pages) > capacity,
                        "{:?}: {:?} fits alone yet its group overflows",
                        mode,
                        only
                    );
                } else {
                    prop_assert!(!g.overflow, "{:?}: fitting group flagged overflow", mode);
                }
            }
        }
    }

    /// Content-aware estimates never exceed the arithmetic sum of member
    /// sizes (overlap can only shrink); size-only packing is the exact sum.
    #[test]
    fn estimates_bounded_by_member_sum(case in working_sets(16), capacity in 500u64..25_000) {
        let (pages, sets) = case;
        for mode in MODES {
            for g in pack_groups(&sets, &pages, mode, capacity) {
                let sum: u64 = g
                    .types
                    .iter()
                    .map(|t| sets[t.0 as usize].pages_for(mode, &pages))
                    .sum();
                prop_assert!(g.estimate_pages <= sum, "{:?}: overlap grew the estimate", mode);
                if mode == EstimationMode::Size {
                    prop_assert_eq!(g.estimate_pages, sum, "size-only must double count");
                }
            }
        }
    }

    /// Packing is deterministic: same inputs, same groups.
    #[test]
    fn packing_is_deterministic(case in working_sets(16), capacity in 500u64..25_000) {
        let (pages, sets) = case;
        for mode in MODES {
            prop_assert_eq!(
                pack_groups(&sets, &pages, mode, capacity),
                pack_groups(&sets, &pages, mode, capacity)
            );
        }
    }

    /// The bitmap packer returns the reference model's groups: the same
    /// groups in the same order, each with the same members in the same
    /// order, the same relations, estimate and overflow flag.
    #[test]
    fn matches_the_btree_map_reference(case in working_sets(24), capacity in 500u64..25_000) {
        let (pages, sets) = case;
        let reference_sets: Vec<reference::WorkingSet> =
            sets.iter().map(|ws| reference_set(ws, &pages)).collect();
        for mode in MODES {
            let got = pack_groups(&sets, &pages, mode, capacity);
            let want = reference::pack_groups(&reference_sets, mode, capacity);
            prop_assert_eq!(got.len(), want.len(), "{:?}: group count", mode);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(&g.types, &w.types, "{:?}: members", mode);
                let rels: Vec<RelationId> = g.relations.iter().collect();
                let want_rels: Vec<RelationId> = w.relations.keys().copied().collect();
                prop_assert_eq!(rels, want_rels, "{:?}: relations", mode);
                prop_assert_eq!(g.estimate_pages, w.estimate_pages, "{:?}: estimate", mode);
                prop_assert_eq!(g.overflow, w.overflow, "{:?}: overflow", mode);
            }
        }
    }
}
