//! Property test for [`Catalog`]'s id-indexed table: over random schemas of
//! tables and indices (up to the 255 relations a catalog holds), each
//! relation's index set and [`Catalog::indices_of`] must equal a scan of the
//! relations for the ones naming it as their table, in id order; every name
//! must be found by [`Catalog::by_name`] and [`Catalog::relpages`]; and
//! registering a taken name must still panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use tashkent_storage::{Catalog, RelationId, RelationKind, MAX_RELATIONS};

/// One relation to register: a table, or an index over the table picked
/// (modulo the tables so far) by the second value; then its pages.
fn relation_strategy() -> impl Strategy<Value = (bool, usize, u32)> {
    (0u32..3, 0usize..1_000, 0u32..100_000).prop_map(|(kind, pick, pages)| (kind == 0, pick, pages))
}

/// Builds the catalog a list of relation draws describes; the first
/// relation is always a table, so every index has one to name.
fn build(draws: &[(bool, usize, u32)]) -> Catalog {
    let mut catalog = Catalog::new();
    let mut tables: Vec<RelationId> = Vec::new();
    for (i, &(table, pick, pages)) in draws.iter().enumerate() {
        if table || tables.is_empty() {
            tables.push(catalog.add_table(&format!("t{i}_{pick}"), pages, 10_000));
        } else {
            let over = tables[pick % tables.len()];
            catalog.add_index(&format!("t{i}_{pick}_idx"), over, pages, 10_000);
        }
    }
    catalog
}

proptest! {
    /// Index sets, name lookups and the duplicate-name check agree with a
    /// scan of the relations.
    #[test]
    fn index_sets_and_names_match_a_scan(
        draws in proptest::collection::vec(relation_strategy(), 1..MAX_RELATIONS as usize + 1),
        dup_pick in 0usize..1_000,
    ) {
        let catalog = build(&draws);
        prop_assert_eq!(catalog.len(), draws.len());
        for rel in catalog.relations() {
            let scan: Vec<RelationId> = catalog
                .relations()
                .iter()
                .filter(|r| r.table == Some(rel.id))
                .map(|r| r.id)
                .collect();
            prop_assert_eq!(rel.indices.iter().collect::<Vec<_>>(), scan.clone());
            prop_assert_eq!(catalog.indices_of(rel.id).map(|r| r.id).collect::<Vec<_>>(), scan);
            if rel.kind == RelationKind::Index {
                prop_assert!(rel.indices.is_empty(), "{} has indices", rel.name);
            }
            let found = catalog.by_name(&rel.name).expect("every name is found");
            prop_assert_eq!(found.id, rel.id);
            prop_assert_eq!(catalog.relpages(&rel.name), Some(rel.pages));
        }
        prop_assert!(catalog.by_name("missing").is_none());

        let taken = catalog.relations()[dup_pick % catalog.len()].name.clone();
        let table = catalog.relations()[0].id;
        let as_index = dup_pick % 2 == 0;
        let mut copy = catalog.clone();
        let err = catch_unwind(AssertUnwindSafe(|| {
            if as_index {
                copy.add_index(&taken, table, 1, 1);
            } else {
                copy.add_table(&taken, 1, 1);
            }
        }))
        .expect_err("a taken name is rejected");
        let msg = err
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        prop_assert!(msg.contains("duplicate relation name"), "{}", msg);
        prop_assert_eq!(copy.len(), catalog.len());
    }
}
