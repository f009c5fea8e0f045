//! Relation catalog: the `pg_class`-style metadata the load balancer reads.
//!
//! The paper's load balancer retrieves the schema and, for every table and
//! index, its size in pages via `SELECT relpages FROM pg_class WHERE
//! relname='…'` (§4.2.2). [`Catalog`] is that information channel: replicas
//! build it from the workload schema, and the load balancer may only consult
//! the catalog (never the simulator's ground truth) when estimating working
//! sets.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ids::{GlobalPageId, PageId, RelationId, RowId, PAGE_SIZE};

/// Whether a relation is a base table or an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationKind {
    /// A heap table holding rows.
    Table,
    /// A secondary structure (B-tree index) over a table.
    Index,
}

/// Metadata for one relation, mirroring a `pg_class` row.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Stable identifier.
    pub id: RelationId,
    /// Relation name, e.g. `"order_line"` or `"order_line_pk"`.
    pub name: String,
    /// Table or index.
    pub kind: RelationKind,
    /// Number of 8 KB pages (`relpages`).
    pub pages: PageId,
    /// Number of rows (`reltuples`); for indices, the number of entries.
    pub rows: RowId,
    /// For an index, the table it belongs to.
    pub table: Option<RelationId>,
}

impl Relation {
    /// Size of the relation in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.pages as u64 * PAGE_SIZE
    }

    /// Rows stored per page (at least 1 to keep arithmetic safe).
    pub fn rows_per_page(&self) -> u64 {
        if self.pages == 0 {
            self.rows.max(1)
        } else {
            (self.rows / self.pages as u64).max(1)
        }
    }

    /// Page holding a given row (rows are laid out densely in row order).
    pub fn page_of_row(&self, row: RowId) -> GlobalPageId {
        let per = self.rows_per_page();
        let page = ((row / per) as PageId).min(self.pages.saturating_sub(1));
        GlobalPageId::new(self.id, page)
    }
}

/// A schema registry for one database.
///
/// # Examples
///
/// ```
/// use tashkent_storage::{Catalog, RelationKind};
///
/// let mut cat = Catalog::new();
/// let t = cat.add_table("item", 1_250, 10_000);
/// let i = cat.add_index("item_pk", t, 40, 10_000);
/// assert_eq!(cat.relpages("item"), Some(1_250));
/// assert_eq!(cat.get(i).kind, RelationKind::Index);
/// assert_eq!(cat.total_pages(), 1_290);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    // Shared so that the copy every replica holds costs two reference
    // counts rather than a string allocation per relation; `add` copies on
    // write.
    relations: Arc<Vec<Relation>>,
    by_name: Arc<HashMap<String, RelationId>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    fn add(&mut self, mut rel: Relation) -> RelationId {
        let id = RelationId(self.relations.len() as u32);
        rel.id = id;
        assert!(
            Arc::make_mut(&mut self.by_name)
                .insert(rel.name.clone(), id)
                .is_none(),
            "duplicate relation name {:?}",
            rel.name
        );
        Arc::make_mut(&mut self.relations).push(rel);
        id
    }

    /// Registers a table.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_table(&mut self, name: &str, pages: PageId, rows: RowId) -> RelationId {
        self.add(Relation {
            id: RelationId(0),
            name: name.to_string(),
            kind: RelationKind::Table,
            pages,
            rows,
            table: None,
        })
    }

    /// Registers an index over `table`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_index(
        &mut self,
        name: &str,
        table: RelationId,
        pages: PageId,
        rows: RowId,
    ) -> RelationId {
        self.add(Relation {
            id: RelationId(0),
            name: name.to_string(),
            kind: RelationKind::Index,
            pages,
            rows,
            table: Some(table),
        })
    }

    /// Looks a relation up by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in this catalog.
    pub fn get(&self, id: RelationId) -> &Relation {
        &self.relations[id.0 as usize]
    }

    /// Looks a relation up by name.
    pub fn by_name(&self, name: &str) -> Option<&Relation> {
        self.by_name.get(name).map(|id| self.get(*id))
    }

    /// The `relpages` query the paper's load balancer issues (§4.2.2).
    pub fn relpages(&self, name: &str) -> Option<PageId> {
        self.by_name(name).map(|r| r.pages)
    }

    /// All relations in id order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Indices defined over `table`.
    pub fn indices_of(&self, table: RelationId) -> impl Iterator<Item = &Relation> {
        self.relations
            .iter()
            .filter(move |r| r.table == Some(table))
    }

    /// Total database size in pages.
    pub fn total_pages(&self) -> u64 {
        self.relations.iter().map(|r| r.pages as u64).sum()
    }

    /// Total database size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = c.add_table("orders", 100, 10_000);
        c.add_index("orders_pk", t, 10, 10_000);
        c.add_table("item", 50, 1_000);
        c
    }

    #[test]
    fn lookup_by_name_and_id() {
        let c = small_catalog();
        let orders = c.by_name("orders").unwrap();
        assert_eq!(orders.kind, RelationKind::Table);
        assert_eq!(c.get(orders.id).name, "orders");
        assert!(c.by_name("nope").is_none());
    }

    #[test]
    fn relpages_matches_pg_class_semantics() {
        let c = small_catalog();
        assert_eq!(c.relpages("orders"), Some(100));
        assert_eq!(c.relpages("orders_pk"), Some(10));
        assert_eq!(c.relpages("missing"), None);
    }

    #[test]
    fn indices_of_finds_only_that_tables_indices() {
        let c = small_catalog();
        let orders = c.by_name("orders").unwrap().id;
        let idx: Vec<&str> = c.indices_of(orders).map(|r| r.name.as_str()).collect();
        assert_eq!(idx, vec!["orders_pk"]);
        let item = c.by_name("item").unwrap().id;
        assert_eq!(c.indices_of(item).count(), 0);
    }

    #[test]
    fn totals_sum_pages() {
        let c = small_catalog();
        assert_eq!(c.total_pages(), 160);
        assert_eq!(c.total_bytes(), 160 * PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "duplicate relation name")]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.add_table("t", 1, 1);
        c.add_table("t", 2, 2);
    }

    #[test]
    fn row_to_page_mapping_is_dense_and_bounded() {
        let c = small_catalog();
        let orders = c.by_name("orders").unwrap();
        // 10_000 rows over 100 pages → 100 rows/page.
        assert_eq!(orders.rows_per_page(), 100);
        assert_eq!(orders.page_of_row(0).page, 0);
        assert_eq!(orders.page_of_row(99).page, 0);
        assert_eq!(orders.page_of_row(100).page, 1);
        // Out-of-range rows clamp to the last page.
        assert_eq!(orders.page_of_row(1_000_000).page, 99);
    }

    #[test]
    fn zero_page_relation_is_safe() {
        let mut c = Catalog::new();
        let t = c.add_table("empty", 0, 0);
        let r = c.get(t);
        assert_eq!(r.rows_per_page(), 1);
        assert_eq!(r.page_of_row(5).page, 0);
        assert_eq!(r.size_bytes(), 0);
    }
}
