//! Transaction plans: the memory- and CPU-relevant shape of a transaction type.

use tashkent_storage::RelationId;

use crate::types::TxnTypeId;

/// How a plan step reads a relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    /// Read every page of the relation in page order (PostgreSQL `Seq Scan`).
    SeqScan,
    /// Read a contiguous fraction of the relation in page order.
    ///
    /// `recent = true` anchors the range at the end of the relation (e.g.
    /// "orders from the last 3.5 days" in TPC-W BestSeller), which makes
    /// repeated executions touch the *same* pages and therefore cache well.
    /// `recent = false` picks a random start, modelling parameter-dependent
    /// ranges that only overlap partially across executions.
    RangeScan {
        /// Fraction of the relation's pages covered, in `(0, 1]`.
        fraction: f64,
        /// Anchor at the tail of the relation instead of a random offset.
        recent: bool,
    },
    /// `lookups` point queries via an index: each touches one or two index
    /// pages and one heap page chosen by the lookup key.
    IndexLookup {
        /// Number of point lookups in this step.
        lookups: u32,
        /// Skew of the looked-up rows (0 = uniform, →1 = highly skewed).
        theta: f64,
    },
}

/// What a write step does to a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Append new rows; they land on the relation's tail pages, so repeated
    /// inserts coalesce into few dirty pages.
    Insert,
    /// Update existing rows chosen by key across the whole relation (with
    /// the spec's zipf skew) — products, sellers, other shared entities.
    Update,
    /// Update a row uniformly drawn from the relation's last `window` rows —
    /// the "active session" pattern (a client updates *its own* recent cart
    /// or customer row): strong page locality, negligible write-write
    /// conflicts.
    UpdateTail {
        /// Size of the active tail window, in rows.
        window: u64,
    },
}

/// A write performed by a transaction against one relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteSpec {
    /// The relation written.
    pub rel: RelationId,
    /// Rows inserted or updated.
    pub rows: u32,
    /// Insert versus update.
    pub kind: WriteKind,
    /// Row-choice skew for updates (0 = uniform over the relation).
    pub theta: f64,
}

/// One step of a transaction plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Read access to a relation.
    Read {
        /// Relation read.
        rel: RelationId,
        /// How it is read.
        access: Access,
    },
    /// Write access to a relation (also touches the pages it dirties, and
    /// each written row is recorded in the transaction's writeset).
    Write(WriteSpec),
}

/// CPU cost model for a transaction type.
///
/// Costs are charged by the executor: a fixed per-transaction cost plus a
/// per-page cost for every page processed (hit or miss — the CPU work of
/// scanning rows happens either way) and a per-written-row cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCosts {
    /// Fixed parse/plan/commit overhead per transaction, in µs.
    pub base_us: u64,
    /// Per page processed, in µs.
    pub per_page_us: u64,
    /// Per row written, in µs.
    pub per_write_us: u64,
}

impl Default for CpuCosts {
    /// ~50 µs fixed, ~20 µs per 8 KB page (≈ 100 rows), ~200 µs per write —
    /// calibrated to a 2.4 GHz 2007 Xeon running PostgreSQL.
    fn default() -> Self {
        CpuCosts {
            base_us: 50,
            per_page_us: 20,
            per_write_us: 200,
        }
    }
}

/// The full plan of a transaction type.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnPlan {
    /// Ordered steps.
    pub steps: Vec<PlanStep>,
    /// CPU cost model.
    pub cpu: CpuCosts,
}

impl TxnPlan {
    /// Creates a plan from steps with default CPU costs.
    pub fn new(steps: Vec<PlanStep>) -> Self {
        TxnPlan {
            steps,
            cpu: CpuCosts::default(),
        }
    }

    /// Replaces the CPU cost model.
    pub fn with_cpu(mut self, cpu: CpuCosts) -> Self {
        self.cpu = cpu;
        self
    }

    /// Whether any step writes (the transaction is an update transaction).
    pub fn is_update(&self) -> bool {
        self.steps.iter().any(|s| matches!(s, PlanStep::Write(_)))
    }
}

/// A named transaction type: id, name, and plan.
#[derive(Debug, Clone)]
pub struct TxnType {
    /// Stable identifier (index into the workload's type table).
    pub id: TxnTypeId,
    /// Human-readable name (e.g. `"BestSeller"`).
    pub name: String,
    /// The execution plan.
    pub plan: TxnPlan,
}

impl TxnType {
    /// Creates a transaction type.
    pub fn new(id: TxnTypeId, name: &str, plan: TxnPlan) -> Self {
        TxnType {
            id,
            name: name.to_string(),
            plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_storage::Catalog;

    fn catalog() -> (Catalog, RelationId, RelationId, RelationId) {
        let mut c = Catalog::new();
        let orders = c.add_table("orders", 100, 10_000);
        let item = c.add_table("item", 50, 1_000);
        let idx = c.add_index("orders_pk", orders, 10, 10_000);
        (c, orders, item, idx)
    }

    #[test]
    fn is_update_detects_writes() {
        let (_, orders, item, _) = catalog();
        let ro = TxnPlan::new(vec![PlanStep::Read {
            rel: item,
            access: Access::SeqScan,
        }]);
        assert!(!ro.is_update());
        let rw = TxnPlan::new(vec![
            PlanStep::Read {
                rel: item,
                access: Access::SeqScan,
            },
            PlanStep::Write(WriteSpec {
                rel: orders,
                rows: 1,
                kind: WriteKind::Insert,
                theta: 0.0,
            }),
        ]);
        assert!(rw.is_update());
    }

    #[test]
    fn default_cpu_costs_in_expected_band() {
        let c = CpuCosts::default();
        assert!(c.per_page_us >= 5 && c.per_page_us <= 100);
        assert!(c.base_us < 10_000);
    }
}
