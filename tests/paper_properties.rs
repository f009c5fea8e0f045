//! Property-based integration tests over the paper's core invariants.

use proptest::prelude::*;
use tashkent::certifier::{Certifier, CertifyOutcome};
use tashkent::core::GroupId;
use tashkent::core::{pack_groups, EstimationMode, PageTable, WorkingSet};
use tashkent::core::{AllocationConfig, Allocator, GroupLoads};
use tashkent::engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent::sim::SimTime;
use tashkent::storage::RelationId;

/// One page table over 20 relations, as the catalog's `relpages` gives one
/// size per relation, and up to `max_types - 1` types each referencing one
/// to four of them.
fn working_set_strategy(max_types: u32) -> impl Strategy<Value = (PageTable, Vec<WorkingSet>)> {
    (
        proptest::collection::vec(1u64..5_000, 20..21),
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..20, 1..5),
            1..max_types as usize,
        ),
    )
        .prop_map(|(pages, types)| {
            let sets = types
                .into_iter()
                .enumerate()
                .map(|(i, rels)| WorkingSet {
                    txn_type: TxnTypeId(i as u32),
                    relations: rels.into_iter().map(RelationId).collect(),
                    scanned: Default::default(),
                })
                .collect();
            (PageTable::from(pages), sets)
        })
}

proptest! {
    /// Bin packing: every type appears exactly once; non-overflow bins
    /// respect capacity; overlap-aware estimates never exceed the sum of
    /// sizes.
    #[test]
    fn packing_invariants(case in working_set_strategy(16), capacity in 1_000u64..20_000) {
        let (pages, sets) = case;
        for mode in [EstimationMode::Size, EstimationMode::SizeContent] {
            let groups = pack_groups(&sets, &pages, mode, capacity);
            let mut seen: Vec<u32> = groups.iter().flat_map(|g| g.types.iter().map(|t| t.0)).collect();
            seen.sort_unstable();
            let expected: Vec<u32> = (0..sets.len() as u32).collect();
            prop_assert_eq!(seen, expected, "each type in exactly one group");
            for g in &groups {
                if !g.overflow {
                    prop_assert!(g.estimate_pages <= capacity);
                }
                let sum: u64 = g
                    .types
                    .iter()
                    .map(|t| sets[t.0 as usize].pages_for(mode, &pages))
                    .sum();
                prop_assert!(g.estimate_pages <= sum, "overlap can only shrink");
            }
        }
    }

    /// Balance equations conserve the replica total and give every group at
    /// least one replica, for arbitrary load vectors.
    #[test]
    fn balance_equations_conserve(loads in proptest::collection::vec((0.0f64..2.5, 1usize..8), 1..8),
                                  extra in 0usize..16) {
        let gl: Vec<GroupLoads> = loads
            .iter()
            .enumerate()
            .map(|(i, (load, replicas))| GroupLoads {
                group: GroupId(i),
                load: *load,
                replicas: *replicas,
            })
            .collect();
        let total = gl.len() + extra;
        let a = Allocator::new(AllocationConfig::default());
        let result = a.solve_balance(&gl, total);
        prop_assert_eq!(result.iter().map(|(_, n)| n).sum::<usize>(), total);
        prop_assert!(result.iter().all(|(_, n)| *n >= 1));
        // Determinism.
        prop_assert_eq!(result.clone(), a.solve_balance(&gl, total));
    }

    /// GSI certification: serially committed disjoint writesets never
    /// conflict; any writeset intersecting a later commit does.
    #[test]
    fn certification_soundness(rows in proptest::collection::vec(0u64..50, 2..30)) {
        let mut cert = Certifier::default();
        let mut committed: Vec<(u64, Version)> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let snapshot = cert.version();
            let ws = Writeset::new(
                TxnId(i as u64),
                TxnTypeId(0),
                Snapshot::at(snapshot),
                vec![WritesetItem::new(RelationId(0), *row)],
            );
            // Fresh snapshot ⇒ certification must succeed.
            match cert.certify(SimTime::from_micros(i as u64), ws) {
                CertifyOutcome::Committed { version, .. } => committed.push((*row, version)),
                CertifyOutcome::Conflict => prop_assert!(false, "fresh snapshot conflicted"),
            }
        }
        // A stale snapshot conflicts iff some later commit wrote its row.
        for (row, version) in &committed {
            let stale = Version(version.0.saturating_sub(1));
            let ws = Writeset::new(
                TxnId(9_999),
                TxnTypeId(0),
                Snapshot::at(stale),
                vec![WritesetItem::new(RelationId(0), *row)],
            );
            let outcome = cert.certify(SimTime::from_secs(1), ws);
            let later_write = committed.iter().any(|(r, v)| r == row && v.0 > stale.0);
            if later_write {
                prop_assert_eq!(outcome, CertifyOutcome::Conflict);
            } else {
                let committed_ok = matches!(outcome, CertifyOutcome::Committed { .. });
                prop_assert!(committed_ok, "stale-but-unconflicted snapshot must commit");
            }
        }
    }

    /// Writeset conflicts are symmetric and reflexive on overlap.
    #[test]
    fn conflict_symmetry(a in proptest::collection::btree_set((0u32..4, 0u64..40), 1..10),
                         b in proptest::collection::btree_set((0u32..4, 0u64..40), 1..10)) {
        let mk = |items: &std::collections::BTreeSet<(u32, u64)>| Writeset::new(
            TxnId(0),
            TxnTypeId(0),
            Snapshot::at(Version(0)),
            items.iter().map(|&(r, row)| WritesetItem::new(RelationId(r), row)).collect(),
        );
        let wa = mk(&a);
        let wb = mk(&b);
        prop_assert_eq!(wa.conflicts_with(&wb), wb.conflicts_with(&wa));
        let overlap = a.intersection(&b).count() > 0;
        prop_assert_eq!(wa.conflicts_with(&wb), overlap);
    }
}
