//! `EXPLAIN` output: the plan view the load balancer is allowed to see.
//!
//! The paper's load balancer sends each transaction type through PostgreSQL's
//! `EXPLAIN` and parses "all tables and indices accessed as well as how they
//! are accessed" (§4.2.2). [`ExplainPlan`] is that parsed form: the
//! referenced relations plus a scan-vs-random classification, and nothing
//! else — in particular no ground-truth page-touch counts, keeping the
//! estimator honest about its information channel.
//!
//! The view names each relation by its catalog [`RelationId`], as the
//! balancer resolves a name once against `pg_class`, so reading a plan
//! allocates no string and hashes no name; [`ExplainPlan::render`] prints
//! the names through the catalog.

use tashkent_storage::{Catalog, RelationId};

use crate::plan::{Access, PlanStep, TxnPlan};

/// How `EXPLAIN` reports a relation being accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplainAccess {
    /// The relation is read linearly (`Seq Scan` node).
    SeqScan,
    /// The relation is probed at a handful of points (`Index Scan` node).
    IndexScan,
}

/// One referenced relation in an `EXPLAIN` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplainStep {
    /// The table or index, by catalog id.
    pub relation: RelationId,
    /// Linear or random access.
    pub access: ExplainAccess,
}

/// The parsed `EXPLAIN` output for one transaction type.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExplainPlan {
    /// Referenced relations in plan order (duplicates collapsed, keeping the
    /// "most linear" access seen for each relation).
    pub steps: Vec<ExplainStep>,
}

impl ExplainPlan {
    /// Builds the plan the way the load balancer would receive it from the
    /// database, with every relation resolved against `catalog`.
    ///
    /// Mapping:
    /// * `SeqScan` and `RangeScan` report as `Seq Scan` — PostgreSQL picks a
    ///   sequential scan for large contiguous ranges, and the paper's SCAP
    ///   estimator treats "linearly scanned" relations as the heavily-used
    ///   lower bound (§2.3).
    /// * `IndexLookup` reports an `Index Scan` on the index **and** random
    ///   access to its base table (the heap fetch).
    /// * Writes report random access to the written relation and its indices
    ///   (index maintenance).
    pub fn from_plan(plan: &TxnPlan, catalog: &Catalog) -> Self {
        // Most steps report one or two relations.
        let mut out = ExplainPlan {
            steps: Vec::with_capacity(2 * plan.steps.len()),
        };
        for step in &plan.steps {
            match step {
                PlanStep::Read { rel, access } => match access {
                    Access::SeqScan | Access::RangeScan { .. } => {
                        out.push(*rel, ExplainAccess::SeqScan);
                    }
                    Access::IndexLookup { .. } => {
                        out.push(*rel, ExplainAccess::IndexScan);
                        // The heap fetch behind an index scan touches the
                        // base table randomly.
                        if let Some(table) = catalog.get(*rel).table {
                            out.push(table, ExplainAccess::IndexScan);
                        }
                    }
                },
                PlanStep::Write(w) => {
                    out.push(w.rel, ExplainAccess::IndexScan);
                    for idx in catalog.get(w.rel).indices.iter() {
                        out.push(idx, ExplainAccess::IndexScan);
                    }
                }
            }
        }
        out
    }

    fn push(&mut self, relation: RelationId, access: ExplainAccess) {
        if let Some(existing) = self.steps.iter_mut().find(|s| s.relation == relation) {
            // A relation both scanned and probed counts as scanned: the scan
            // dominates its memory footprint.
            if access == ExplainAccess::SeqScan {
                existing.access = ExplainAccess::SeqScan;
            }
        } else {
            self.steps.push(ExplainStep { relation, access });
        }
    }

    /// All referenced relations.
    pub fn referenced(&self) -> impl Iterator<Item = RelationId> + '_ {
        self.steps.iter().map(|s| s.relation)
    }

    /// Relations reported as linearly scanned.
    pub fn scanned(&self) -> impl Iterator<Item = RelationId> + '_ {
        self.steps
            .iter()
            .filter(|s| s.access == ExplainAccess::SeqScan)
            .map(|s| s.relation)
    }

    /// Pretty text form, close to what `EXPLAIN` prints, with relation
    /// names read from `catalog`.
    pub fn render(&self, catalog: &Catalog) -> String {
        let mut s = String::new();
        for step in &self.steps {
            let kind = match step.access {
                ExplainAccess::SeqScan => "Seq Scan",
                ExplainAccess::IndexScan => "Index Scan",
            };
            s.push_str(&format!(
                "{} on {}\n",
                kind,
                catalog.get(step.relation).name
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{WriteKind, WriteSpec};
    use tashkent_storage::Catalog;

    fn setup() -> (Catalog, TxnPlan) {
        let mut c = Catalog::new();
        let orders = c.add_table("orders", 100, 10_000);
        let opk = c.add_index("orders_pk", orders, 10, 10_000);
        let item = c.add_table("item", 50, 1_000);
        c.add_index("item_pk", item, 5, 1_000);
        let plan = TxnPlan::new(vec![
            PlanStep::Read {
                rel: opk,
                access: Access::IndexLookup {
                    lookups: 3,
                    theta: 0.0,
                },
            },
            PlanStep::Read {
                rel: item,
                access: Access::SeqScan,
            },
            PlanStep::Write(WriteSpec {
                rel: item,
                rows: 1,
                kind: WriteKind::Update,
                theta: 0.0,
            }),
        ]);
        (c, plan)
    }

    fn id(c: &Catalog, name: &str) -> RelationId {
        c.by_name(name).unwrap().id
    }

    #[test]
    fn index_lookup_reports_index_and_heap() {
        let (c, plan) = setup();
        let ex = ExplainPlan::from_plan(&plan, &c);
        let rels: Vec<RelationId> = ex.referenced().collect();
        assert!(rels.contains(&id(&c, "orders_pk")));
        assert!(rels.contains(&id(&c, "orders")));
    }

    #[test]
    fn scan_dominates_probe_for_same_relation() {
        let (c, plan) = setup();
        let ex = ExplainPlan::from_plan(&plan, &c);
        // `item` is seq-scanned and then written; it must classify as scanned.
        let item = ex
            .steps
            .iter()
            .find(|s| s.relation == id(&c, "item"))
            .unwrap();
        assert_eq!(item.access, ExplainAccess::SeqScan);
    }

    #[test]
    fn writes_pull_in_indices_for_maintenance() {
        let (c, plan) = setup();
        let ex = ExplainPlan::from_plan(&plan, &c);
        let rels: Vec<RelationId> = ex.referenced().collect();
        assert!(
            rels.contains(&id(&c, "item_pk")),
            "index maintenance missing"
        );
    }

    #[test]
    fn scanned_filter_returns_only_seq_scans() {
        let (c, plan) = setup();
        let ex = ExplainPlan::from_plan(&plan, &c);
        let scanned: Vec<RelationId> = ex.scanned().collect();
        assert_eq!(scanned, vec![id(&c, "item")]);
    }

    #[test]
    fn no_duplicate_relations() {
        let (c, plan) = setup();
        let ex = ExplainPlan::from_plan(&plan, &c);
        let mut rels: Vec<RelationId> = ex.referenced().collect();
        let before = rels.len();
        rels.sort();
        rels.dedup();
        assert_eq!(before, rels.len());
    }

    #[test]
    fn render_is_explain_like() {
        let (c, plan) = setup();
        let text = ExplainPlan::from_plan(&plan, &c).render(&c);
        assert!(text.contains("Index Scan on orders_pk"));
        assert!(text.contains("Seq Scan on item"));
    }

    #[test]
    fn range_scan_reports_as_seq_scan() {
        let mut c = Catalog::new();
        let t = c.add_table("order_line", 1000, 100_000);
        let plan = TxnPlan::new(vec![PlanStep::Read {
            rel: t,
            access: Access::RangeScan {
                fraction: 0.3,
                recent: true,
            },
        }]);
        let ex = ExplainPlan::from_plan(&plan, &c);
        assert_eq!(ex.scanned().collect::<Vec<_>>(), vec![t]);
    }
}
