//! Working-set estimation from `EXPLAIN` plans and catalog metadata (§2.2).
//!
//! The working set of a database transaction is dominated by the tables and
//! indices it references. The estimator therefore:
//!
//! 1. obtains the transaction type's `EXPLAIN` plan (which relations, and
//!    whether each is scanned linearly or probed randomly),
//! 2. resolves each relation's size in pages from the catalog (`relpages`),
//! 3. produces a [`WorkingSet`]: the referenced relation set and the
//!    scanned subset.
//!
//! Three estimation modes correspond to the paper's three grouping methods:
//! size only (MALB-S), size + contents (MALB-SC), and size + contents +
//! access pattern (MALB-SCAP, which keeps only linearly-scanned relations as
//! a lower-bound estimate).
//!
//! The plan names relations by catalog id, so a [`WorkingSet`] is two
//! [`RelationSet`] bitmaps, and every size is read through one
//! [`PageTable`] of the catalog's `relpages`: a relation has one size
//! wherever it appears, and the size of a union of working sets is the size
//! of a bitmap union. A cluster estimates every transaction type once per
//! build ([`Estimates`]) and hands the result to MALB's packing and to the
//! relation groups of partial placement and certification.

use tashkent_engine::{ExplainPlan, TxnTypeId};
use tashkent_storage::{Catalog, RelationId, RelationSet, PAGE_SIZE};

/// How much plan information the estimator uses (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationMode {
    /// MALB-S: working-set *size* only; overlap between types is ignored
    /// when combining.
    Size,
    /// MALB-SC: size plus *contents* — shared relations are not double
    /// counted when types are grouped.
    SizeContent,
    /// MALB-SCAP: size, contents, and *access pattern* — only linearly
    /// scanned relations count, a lower-bound estimate.
    SizeContentAccessPattern,
}

/// The size in pages of every relation, indexed by relation id: the
/// catalog's `relpages`, read once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageTable(Vec<u64>);

impl PageTable {
    /// Reads every relation's `relpages` from `catalog`.
    pub fn new(catalog: &Catalog) -> Self {
        PageTable(catalog.relations().iter().map(|r| r.pages as u64).collect())
    }

    /// Size in pages of `rel`.
    ///
    /// # Panics
    ///
    /// Panics if `rel` is not in the table.
    pub fn pages(&self, rel: RelationId) -> u64 {
        self.0[rel.0 as usize]
    }

    /// Combined size in pages of `rels`.
    pub fn sum(&self, rels: RelationSet) -> u64 {
        rels.iter().map(|rel| self.pages(rel)).sum()
    }
}

/// A page table from per-relation sizes, the size of relation `i` at index
/// `i` (synthetic schemas in tests and benchmarks).
impl From<Vec<u64>> for PageTable {
    fn from(pages: Vec<u64>) -> Self {
        PageTable(pages)
    }
}

/// The estimated working set of one transaction type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSet {
    /// The transaction type.
    pub txn_type: TxnTypeId,
    /// Every referenced relation.
    pub relations: RelationSet,
    /// The subset reported as linearly scanned.
    pub scanned: RelationSet,
}

impl WorkingSet {
    /// Relation set relevant under a given estimation mode: every
    /// referenced relation (MALB-S/SC), or the scanned ones (MALB-SCAP).
    pub fn relations_for(&self, mode: EstimationMode) -> RelationSet {
        match mode {
            EstimationMode::Size | EstimationMode::SizeContent => self.relations,
            EstimationMode::SizeContentAccessPattern => self.relations.intersection(self.scanned),
        }
    }

    /// Size in pages under a given estimation mode.
    pub fn pages_for(&self, mode: EstimationMode, pages: &PageTable) -> u64 {
        pages.sum(self.relations_for(mode))
    }

    /// Upper-bound size in pages: all referenced relations (MALB-S/SC view).
    pub fn size_pages(&self, pages: &PageTable) -> u64 {
        self.pages_for(EstimationMode::SizeContent, pages)
    }

    /// Lower-bound size in pages: scanned relations only (MALB-SCAP view).
    pub fn scanned_pages(&self, pages: &PageTable) -> u64 {
        self.pages_for(EstimationMode::SizeContentAccessPattern, pages)
    }

    /// Upper-bound size in bytes.
    pub fn size_bytes(&self, pages: &PageTable) -> u64 {
        self.size_pages(pages) * PAGE_SIZE
    }
}

/// Produces [`WorkingSet`]s from `EXPLAIN` plans, and sizes them through the
/// catalog's `relpages`.
///
/// # Examples
///
/// ```
/// use tashkent_core::WorkingSetEstimator;
/// use tashkent_engine::{Access, ExplainPlan, PlanStep, TxnPlan, TxnTypeId};
/// use tashkent_storage::Catalog;
///
/// let mut catalog = Catalog::new();
/// let item = catalog.add_table("item", 1_250, 10_000);
/// let plan = TxnPlan::new(vec![PlanStep::Read { rel: item, access: Access::SeqScan }]);
/// let explain = ExplainPlan::from_plan(&plan, &catalog);
///
/// let est = WorkingSetEstimator::new(&catalog);
/// let ws = est.estimate(TxnTypeId(0), &explain);
/// assert_eq!(ws.size_pages(est.pages()), 1_250);
/// assert_eq!(ws.scanned_pages(est.pages()), 1_250);
/// ```
#[derive(Debug, Clone)]
pub struct WorkingSetEstimator {
    pages: PageTable,
}

impl WorkingSetEstimator {
    /// Creates an estimator reading sizes from `catalog`.
    pub fn new(catalog: &Catalog) -> Self {
        WorkingSetEstimator {
            pages: PageTable::new(catalog),
        }
    }

    /// Estimates the working set of one transaction type from its plan,
    /// which names its relations by id in the catalog the estimator reads.
    pub fn estimate(&self, txn_type: TxnTypeId, explain: &ExplainPlan) -> WorkingSet {
        WorkingSet {
            txn_type,
            relations: explain.referenced().collect(),
            scanned: explain.scanned().collect(),
        }
    }

    /// The page table that sizes the estimates.
    pub fn pages(&self) -> &PageTable {
        &self.pages
    }

    /// Estimates every plan in `plans`, the `i`-th as transaction type `i`
    /// (a workload's types in id order).
    pub fn estimate_all(self, plans: impl IntoIterator<Item = ExplainPlan>) -> Estimates {
        let sets = plans
            .into_iter()
            .enumerate()
            .map(|(i, explain)| self.estimate(TxnTypeId(i as u32), &explain))
            .collect();
        Estimates {
            pages: self.pages,
            sets,
        }
    }
}

/// Every transaction type's working set, indexed by type id, with the page
/// table that sizes them: what one cluster build estimates once and shares
/// between MALB's packing and the relation groups of partial placement and
/// certification.
#[derive(Debug, Clone)]
pub struct Estimates {
    /// Size in pages of every relation.
    pub pages: PageTable,
    /// One working set per type: `sets[i].txn_type == TxnTypeId(i)`.
    pub sets: Vec<WorkingSet>,
}

/// Combined size in pages of several working sets when grouped, per mode:
/// MALB-S sums sizes (double counting shared relations); MALB-SC and
/// MALB-SCAP take the union.
///
/// This reproduces the paper's example: T1 uses tables A and B, T2 uses B
/// and C — MALB-S estimates |A| + 2|B| + |C|, MALB-SC estimates
/// |A| + |B| + |C|.
pub fn combined_pages(sets: &[WorkingSet], pages: &PageTable, mode: EstimationMode) -> u64 {
    match mode {
        EstimationMode::Size => sets.iter().map(|w| w.pages_for(mode, pages)).sum(),
        EstimationMode::SizeContent | EstimationMode::SizeContentAccessPattern => {
            let union = sets
                .iter()
                .fold(RelationSet::new(), |u, w| u.union(w.relations_for(mode)));
            pages.sum(union)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_engine::{Access, PlanStep, TxnPlan, WriteKind, WriteSpec};

    fn setup() -> (Catalog, TxnPlan, TxnPlan) {
        let mut c = Catalog::new();
        let a = c.add_table("a", 100, 10_000);
        let b = c.add_table("b", 200, 20_000);
        let cc = c.add_table("c", 50, 5_000);
        c.add_index("b_pk", b, 20, 20_000);
        // T1: scans a, scans b.
        let t1 = TxnPlan::new(vec![
            PlanStep::Read {
                rel: a,
                access: Access::SeqScan,
            },
            PlanStep::Read {
                rel: b,
                access: Access::SeqScan,
            },
        ]);
        // T2: scans c, probes b through its index.
        let bpk = c.by_name("b_pk").unwrap().id;
        let t2 = TxnPlan::new(vec![
            PlanStep::Read {
                rel: cc,
                access: Access::SeqScan,
            },
            PlanStep::Read {
                rel: bpk,
                access: Access::IndexLookup {
                    lookups: 3,
                    theta: 0.0,
                },
            },
        ]);
        (c, t1, t2)
    }

    fn estimate(c: &Catalog, plan: &TxnPlan, id: u32) -> WorkingSet {
        let explain = ExplainPlan::from_plan(plan, c);
        WorkingSetEstimator::new(c).estimate(TxnTypeId(id), &explain)
    }

    #[test]
    fn size_is_sum_of_referenced_relations() {
        let (c, t1, _) = setup();
        let ws = estimate(&c, &t1, 0);
        let pages = PageTable::new(&c);
        assert_eq!(ws.size_pages(&pages), 300);
        assert_eq!(ws.size_bytes(&pages), 300 * PAGE_SIZE);
    }

    #[test]
    fn index_probe_includes_index_and_heap() {
        let (c, _, t2) = setup();
        let ws = estimate(&c, &t2, 1);
        // c (50) + b_pk (20) + heap b (200) = 270.
        assert_eq!(ws.size_pages(&PageTable::new(&c)), 270);
    }

    #[test]
    fn scanned_subset_excludes_probed_relations() {
        let (c, _, t2) = setup();
        let ws = estimate(&c, &t2, 1);
        let pages = PageTable::new(&c);
        // Only `c` is linearly scanned; b/b_pk are random.
        assert_eq!(ws.scanned_pages(&pages), 50);
        assert_eq!(
            ws.pages_for(EstimationMode::SizeContentAccessPattern, &pages),
            50
        );
        assert_eq!(ws.pages_for(EstimationMode::SizeContent, &pages), 270);
    }

    #[test]
    fn combined_sizes_match_paper_example() {
        // Paper §2.3: T1 uses A and B; T2 uses B and C.
        let mut c = Catalog::new();
        let a = c.add_table("A", 100, 1);
        let b = c.add_table("B", 200, 1);
        let cc = c.add_table("C", 50, 1);
        let t1 = TxnPlan::new(vec![
            PlanStep::Read {
                rel: a,
                access: Access::SeqScan,
            },
            PlanStep::Read {
                rel: b,
                access: Access::SeqScan,
            },
        ]);
        let t2 = TxnPlan::new(vec![
            PlanStep::Read {
                rel: b,
                access: Access::SeqScan,
            },
            PlanStep::Read {
                rel: cc,
                access: Access::SeqScan,
            },
        ]);
        let pair = [estimate(&c, &t1, 0), estimate(&c, &t2, 1)];
        let pages = PageTable::new(&c);
        // MALB-S double counts B: |A| + 2|B| + |C| = 550.
        assert_eq!(combined_pages(&pair, &pages, EstimationMode::Size), 550);
        // MALB-SC avoids recounting: |A| + |B| + |C| = 350.
        assert_eq!(
            combined_pages(&pair, &pages, EstimationMode::SizeContent),
            350
        );
    }

    #[test]
    fn writes_contribute_written_tables_and_indices() {
        let mut c = Catalog::new();
        let orders = c.add_table("orders", 140, 10_000);
        c.add_index("orders_pk", orders, 20, 10_000);
        let plan = TxnPlan::new(vec![PlanStep::Write(WriteSpec {
            rel: orders,
            rows: 1,
            kind: WriteKind::Insert,
            theta: 0.0,
        })]);
        let ws = estimate(&c, &plan, 0);
        let pages = PageTable::new(&c);
        assert_eq!(ws.size_pages(&pages), 160);
        assert_eq!(ws.scanned_pages(&pages), 0, "writes are random access");
    }

    #[test]
    fn relations_for_scap_filters_to_scanned() {
        let (c, _, t2) = setup();
        let ws = estimate(&c, &t2, 1);
        let scap = ws.relations_for(EstimationMode::SizeContentAccessPattern);
        assert_eq!(scap.len(), 1);
        let sc = ws.relations_for(EstimationMode::SizeContent);
        assert_eq!(sc.len(), 3);
    }
}
