//! Workload and mix specifications.

use tashkent_core::{Estimates, WorkingSetEstimator};
use tashkent_engine::{Access, ExplainPlan, PlanStep, TxnType, TxnTypeId, WriteKind, WriteSpec};
use tashkent_sim::SimRng;
use tashkent_storage::{Catalog, RelationId, PAGE_SIZE};

/// A complete workload: schema plus transaction types.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (`"tpcw"`, `"rubis"`).
    pub name: String,
    /// The database schema and sizes.
    pub catalog: Catalog,
    /// Transaction types; `types[i].id == TxnTypeId(i)`.
    pub types: Vec<TxnType>,
}

impl Workload {
    /// Looks up a transaction type by name.
    pub fn type_by_name(&self, name: &str) -> Option<&TxnType> {
        self.types.iter().find(|t| t.name == name)
    }

    /// The `EXPLAIN` output for a transaction type — the exact information
    /// channel the paper's load balancer uses (§4.2.2).
    pub fn explain(&self, id: TxnTypeId) -> ExplainPlan {
        ExplainPlan::from_plan(&self.types[id.0 as usize].plan, &self.catalog)
    }

    /// Every transaction type's working set, estimated from its `EXPLAIN`
    /// output and the catalog's `relpages` (§2.2), in type-id order.
    pub fn estimates(&self) -> Estimates {
        WorkingSetEstimator::new(&self.catalog)
            .estimate_all(self.types.iter().map(|t| self.explain(t.id)))
    }

    /// Name of a transaction type.
    pub fn type_name(&self, id: TxnTypeId) -> &str {
        &self.types[id.0 as usize].name
    }

    /// Total database size in bytes.
    pub fn db_bytes(&self) -> u64 {
        self.catalog.total_bytes()
    }
}

/// A workload mix: relative frequencies over the workload's types.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Mix name (`"ordering"`, `"bidding"`, …).
    pub name: String,
    /// Weight per transaction type, parallel to `Workload::types`. Weights
    /// need not sum to 1; they are normalized on sampling.
    pub weights: Vec<f64>,
}

impl Mix {
    /// Creates a mix from `(type name, weight)` pairs against a workload.
    ///
    /// Types not mentioned get weight zero.
    ///
    /// # Panics
    ///
    /// Panics if a name does not exist in the workload.
    pub fn from_pairs(name: &str, workload: &Workload, pairs: &[(&str, f64)]) -> Self {
        let mut weights = vec![0.0; workload.types.len()];
        for (tname, w) in pairs {
            let t = workload
                .type_by_name(tname)
                .unwrap_or_else(|| panic!("unknown transaction type {tname:?}"));
            weights[t.id.0 as usize] = *w;
        }
        Mix {
            name: name.to_string(),
            weights,
        }
    }

    /// Samples a transaction type.
    pub fn pick(&self, rng: &mut SimRng) -> TxnTypeId {
        TxnTypeId(rng.weighted_index(&self.weights) as u32)
    }

    /// Fraction of transactions that are updates under this mix.
    pub fn update_fraction(&self, workload: &Workload) -> f64 {
        let total: f64 = self.weights.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        self.weights
            .iter()
            .zip(&workload.types)
            .filter(|(_, t)| t.plan.is_update())
            .map(|(w, _)| w)
            .sum::<f64>()
            / total
    }

    /// Types with non-zero weight (the set MALB packs).
    pub fn active_types(&self) -> Vec<TxnTypeId> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0.0)
            .map(|(i, _)| TxnTypeId(i as u32))
            .collect()
    }
}

// Schema and plan building blocks shared by the TPC-W and RUBiS models.

/// Heap fill factor: fraction of each page holding live rows.
const FILL: f64 = 0.85;

/// Pages needed for `rows` rows of `width` bytes.
pub(crate) fn pages(rows: u64, width: u64) -> u32 {
    (((rows * width) as f64) / (PAGE_SIZE as f64 * FILL)).ceil() as u32
}

pub(crate) fn read(rel: RelationId, access: Access) -> PlanStep {
    PlanStep::Read { rel, access }
}

pub(crate) fn lookups(rel: RelationId, n: u32, theta: f64) -> PlanStep {
    read(rel, Access::IndexLookup { lookups: n, theta })
}

pub(crate) fn update(rel: RelationId, rows: u32, theta: f64) -> PlanStep {
    PlanStep::Write(WriteSpec {
        rel,
        rows,
        kind: WriteKind::Update,
        theta,
    })
}

pub(crate) fn insert(rel: RelationId, rows: u32) -> PlanStep {
    PlanStep::Write(WriteSpec {
        rel,
        rows,
        kind: WriteKind::Insert,
        theta: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_engine::{Access, PlanStep, TxnPlan, WriteKind, WriteSpec};

    fn tiny_workload() -> Workload {
        let mut catalog = Catalog::new();
        let t = catalog.add_table("t", 10, 1_000);
        let read = TxnPlan::new(vec![PlanStep::Read {
            rel: t,
            access: Access::SeqScan,
        }]);
        let write = TxnPlan::new(vec![PlanStep::Write(WriteSpec {
            rel: t,
            rows: 1,
            kind: WriteKind::Update,
            theta: 0.0,
        })]);
        Workload {
            name: "tiny".into(),
            catalog,
            types: vec![
                TxnType::new(TxnTypeId(0), "Read", read),
                TxnType::new(TxnTypeId(1), "Write", write),
            ],
        }
    }

    #[test]
    fn mix_from_pairs_places_weights() {
        let w = tiny_workload();
        let m = Mix::from_pairs("m", &w, &[("Read", 3.0), ("Write", 1.0)]);
        assert_eq!(m.weights, vec![3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "unknown transaction type")]
    fn unknown_type_panics() {
        let w = tiny_workload();
        Mix::from_pairs("m", &w, &[("Nope", 1.0)]);
    }

    #[test]
    fn update_fraction_counts_write_plans() {
        let w = tiny_workload();
        let m = Mix::from_pairs("m", &w, &[("Read", 3.0), ("Write", 1.0)]);
        assert!((m.update_fraction(&w) - 0.25).abs() < 1e-12);
        let ro = Mix::from_pairs("ro", &w, &[("Read", 1.0)]);
        assert_eq!(ro.update_fraction(&w), 0.0);
    }

    #[test]
    fn pick_respects_weights() {
        let w = tiny_workload();
        let m = Mix::from_pairs("m", &w, &[("Read", 9.0), ("Write", 1.0)]);
        let mut rng = SimRng::seed_from(3);
        let writes = (0..10_000)
            .filter(|_| m.pick(&mut rng) == TxnTypeId(1))
            .count();
        assert!((800..1200).contains(&writes), "writes {writes}");
    }

    #[test]
    fn active_types_skips_zero_weights() {
        let w = tiny_workload();
        let m = Mix::from_pairs("m", &w, &[("Write", 1.0)]);
        assert_eq!(m.active_types(), vec![TxnTypeId(1)]);
    }

    #[test]
    fn explain_resolves_through_catalog() {
        let w = tiny_workload();
        let e = w.explain(TxnTypeId(0));
        let t = w.catalog.by_name("t").unwrap().id;
        assert_eq!(e.scanned().collect::<Vec<_>>(), vec![t]);
    }
}
