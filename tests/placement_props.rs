//! Reference-model property test for [`ReplicationPlanner::plan`]'s holder
//! choice.
//!
//! The reference below is the sort-based planner: for each group, heaviest
//! first, it computes every replica's newly added pages, sorts all replicas
//! by `(held + added, replica)` and takes the first `min_copies`. The
//! planner under test keeps only the `min_copies` best keys in one buffer
//! and computes `added` from the group's overlap with what a replica holds.
//! Over random page tables (1–60 relations, sizes drawn from a small range
//! half the time so groups tie on pages), random overlapping relation
//! groups (duplicates included), 1–24 replicas and `min_copies` from 0 to
//! replicas + 1, both must produce the same groups, holders, held sets and
//! held pages.

use proptest::prelude::*;
use tashkent::cluster::{ReplicationPlanner, TypeGroups};
use tashkent::core::{Estimates, PageTable, WorkingSet};
use tashkent::engine::TxnTypeId;
use tashkent::storage::{Catalog, RelationId, RelationSet};

/// Combined size in pages of `rels`.
fn pages_of(pages: &[u64], rels: RelationSet) -> u64 {
    rels.iter().map(|rel| pages[rel.0 as usize]).sum()
}

/// What the reference planner decides: holders per group (ascending),
/// held relations and held pages per replica.
struct Plan {
    holders: Vec<Vec<usize>>,
    held: Vec<RelationSet>,
    held_pages: Vec<u64>,
}

/// The sort-based holder choice, kept as the reference: `groups` in group
/// order, each with its size in pages.
fn reference_plan(
    pages: &[u64],
    groups: &[(RelationSet, u64)],
    min_copies: usize,
    replicas: usize,
) -> Plan {
    let min_copies = min_copies.clamp(1, replicas);
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|g| (std::cmp::Reverse(groups[*g].1), *g));
    let mut held = vec![RelationSet::new(); replicas];
    let mut held_pages = vec![0u64; replicas];
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
    for g in order {
        let rels = groups[g].0;
        let added: Vec<u64> = held
            .iter()
            .map(|h| pages_of(pages, rels.difference(*h)))
            .collect();
        let mut ranked: Vec<usize> = (0..replicas).collect();
        ranked.sort_by_key(|r| (held_pages[*r] + added[*r], *r));
        let mut chosen: Vec<usize> = ranked.into_iter().take(min_copies).collect();
        chosen.sort_unstable();
        for &r in &chosen {
            held_pages[r] += added[r];
            held[r] = held[r].union(rels);
        }
        holders[g] = chosen;
    }
    Plan {
        holders,
        held,
        held_pages,
    }
}

/// Relation sizes: half the tables draw from 1–4 pages, so group sizes
/// often tie, the other half from a wide range.
fn pages_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        proptest::collection::vec(1u64..5, 1..61),
        proptest::collection::vec(0u64..50_000, 1..61),
    ]
}

/// One type's relations, as indices into the page table (taken modulo its
/// length). A type may touch nothing, and types often repeat a set.
fn type_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..60, 0..8)
}

proptest! {
    /// The buffered planner picks exactly the holders the sort picks.
    #[test]
    fn planner_matches_sort_based_reference(
        pages in pages_strategy(),
        types in proptest::collection::vec(type_strategy(), 1..20),
        replicas in 1usize..25,
        copies_draw in 0usize..1_000,
    ) {
        let min_copies = copies_draw % (replicas + 2);
        // A schema of tables only, so a type's group is exactly the set it
        // touches.
        let mut catalog = Catalog::new();
        for (i, p) in pages.iter().enumerate() {
            catalog.add_table(&format!("t{i}"), *p as u32, 1_000);
        }
        let sets: Vec<RelationSet> = types
            .iter()
            .map(|rels| rels.iter().map(|r| RelationId((r % pages.len()) as u32)).collect())
            .collect();
        let estimates = Estimates {
            pages: PageTable::from(pages.clone()),
            sets: sets
                .iter()
                .enumerate()
                .map(|(t, rels)| WorkingSet {
                    txn_type: TxnTypeId(t as u32),
                    relations: *rels,
                    scanned: RelationSet::new(),
                })
                .collect(),
        };
        let map = ReplicationPlanner::new(min_copies).plan(
            &catalog,
            &TypeGroups::from_estimates(&catalog, &estimates),
            replicas,
        );

        // The groups: the distinct non-empty sets in first-seen type order.
        let mut groups: Vec<(RelationSet, u64, Vec<TxnTypeId>)> = Vec::new();
        for (t, rels) in sets.iter().enumerate() {
            if rels.is_empty() {
                continue;
            }
            let id = TxnTypeId(t as u32);
            match groups.iter_mut().find(|g| g.0 == *rels) {
                Some(g) => g.2.push(id),
                None => groups.push((*rels, pages_of(&pages, *rels), vec![id])),
            }
        }
        prop_assert_eq!(map.group_count(), groups.len());
        for (placed, (rels, size, types)) in map.groups().iter().zip(&groups) {
            prop_assert_eq!(placed.relations, *rels);
            prop_assert_eq!(placed.pages, *size);
            prop_assert_eq!(&placed.types, types);
        }

        let sized: Vec<(RelationSet, u64)> = groups.iter().map(|g| (g.0, g.1)).collect();
        let reference = reference_plan(&pages, &sized, min_copies, replicas);
        for (g, holders) in reference.holders.iter().enumerate() {
            prop_assert_eq!(map.holders(g), holders.as_slice(), "group {}", g);
        }
        for r in 0..replicas {
            prop_assert_eq!(map.held_relations(r), reference.held[r], "replica {}", r);
            prop_assert_eq!(map.held_pages(r), reference.held_pages[r], "replica {}", r);
        }
    }
}
