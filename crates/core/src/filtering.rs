//! Update-filtering control: per-replica table lists (§3).
//!
//! Once MALB's partition of transaction types over replicas is stable, each
//! replica only needs the tables its assigned types reference; updates to
//! every other table can be filtered before they reach the replica. The
//! load balancer computes the per-replica table lists here, subject to two
//! availability constraints:
//!
//! 1. **Transaction-type availability** — every transaction type must be
//!    runnable on a minimum number of replicas, even if its group currently
//!    holds fewer for performance reasons; extra replicas are kept up to
//!    date as standbys.
//! 2. **Table availability** — enough copies of every table must stay
//!    current; this follows automatically from (1) since every table in the
//!    schema is referenced by some transaction type's working set.

use std::collections::BTreeSet;

use tashkent_storage::RelationSet;

use crate::estimator::WorkingSet;
use crate::grouping::TxnGroup;
use crate::types::ReplicaId;

/// The computed filter assignment for one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterPlan {
    /// The replica.
    pub replica: ReplicaId,
    /// Tables the replica keeps up to date. `None` means "all tables"
    /// (filtering disabled for this replica).
    pub tables: Option<RelationSet>,
}

/// Computes per-replica filter lists from a group → replicas assignment.
///
/// * `groups` — the transaction groups (their members' working sets define
///   the tables each group needs, always from the full referenced set, not
///   the SCAP lower bound: a replica must keep *everything its transactions
///   read* up to date);
/// * `working_sets` — working set per transaction type (indexed by type);
/// * `assignment` — replicas serving each group, parallel to `groups`;
/// * `min_copies` — minimum replicas that must stay current for every
///   group's table set (transaction-type availability).
///
/// Standby copies: when a group is served by fewer than `min_copies`
/// replicas, the group's tables are added to the filter lists of the
/// replicas with the largest existing overlap (cheapest standbys first).
///
/// # Panics
///
/// Panics if `assignment` and `groups` lengths differ, or if `min_copies`
/// exceeds the number of replicas.
pub fn filter_lists(
    groups: &[TxnGroup],
    working_sets: &[WorkingSet],
    assignment: &[Vec<ReplicaId>],
    all_replicas: &[ReplicaId],
    min_copies: usize,
) -> Vec<FilterPlan> {
    assert_eq!(
        groups.len(),
        assignment.len(),
        "one replica list per group required"
    );
    assert!(
        min_copies <= all_replicas.len(),
        "cannot keep {min_copies} copies on {} replicas",
        all_replicas.len()
    );

    // Tables needed by each group: union of members' *referenced* relations.
    let group_tables: Vec<RelationSet> = groups
        .iter()
        .map(|g| {
            g.types.iter().fold(RelationSet::new(), |set, t| {
                let ws = working_sets
                    .iter()
                    .find(|w| w.txn_type == *t)
                    .unwrap_or_else(|| panic!("missing working set for {t}"));
                set.union(ws.relations)
            })
        })
        .collect();

    let mut tables_of: Vec<RelationSet> = vec![RelationSet::new(); all_replicas.len()];
    let index_of = |r: ReplicaId| {
        all_replicas
            .iter()
            .position(|x| *x == r)
            .unwrap_or_else(|| panic!("{r} not in replica list"))
    };

    for (g, replicas) in group_tables.iter().zip(assignment) {
        for r in replicas {
            let i = index_of(*r);
            tables_of[i] = tables_of[i].union(*g);
        }
    }

    // Availability: give each group standbys until it has min_copies hosts.
    for (g, replicas) in group_tables.iter().zip(assignment) {
        let mut hosts: BTreeSet<usize> = replicas.iter().map(|r| index_of(*r)).collect();
        while hosts.len() < min_copies {
            // Cheapest standby: the non-host whose current list overlaps the
            // group's tables the most (fewest new tables to keep current);
            // ties to the lowest replica id.
            let candidate = (0..all_replicas.len())
                .filter(|i| !hosts.contains(i))
                .min_by_key(|i| (g.difference(tables_of[*i]).len(), *i))
                .expect("min_copies bounded by replica count");
            tables_of[candidate] = tables_of[candidate].union(*g);
            hosts.insert(candidate);
        }
    }

    all_replicas
        .iter()
        .zip(tables_of)
        .map(|(r, tables)| FilterPlan {
            replica: *r,
            tables: Some(tables),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_engine::TxnTypeId;
    use tashkent_storage::RelationId;

    fn ws(id: u32, rels: &[u32]) -> WorkingSet {
        WorkingSet {
            txn_type: TxnTypeId(id),
            relations: rels.iter().map(|r| RelationId(*r)).collect(),
            scanned: RelationSet::new(),
        }
    }

    fn group(types: &[u32]) -> TxnGroup {
        TxnGroup {
            types: types.iter().map(|t| TxnTypeId(*t)).collect(),
            relations: RelationSet::new(),
            estimate_pages: 0,
            overflow: false,
        }
    }

    fn rids(n: usize) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId).collect()
    }

    fn tables(plan: &FilterPlan) -> Vec<u32> {
        plan.tables.as_ref().unwrap().iter().map(|r| r.0).collect()
    }

    #[test]
    fn replicas_get_their_groups_tables() {
        let groups = [group(&[0]), group(&[1])];
        let sets = [ws(0, &[0, 1]), ws(1, &[2])];
        let assignment = vec![vec![ReplicaId(0)], vec![ReplicaId(1)]];
        let plans = filter_lists(&groups, &sets, &assignment, &rids(2), 1);
        assert_eq!(tables(&plans[0]), vec![0, 1]);
        assert_eq!(tables(&plans[1]), vec![2]);
    }

    #[test]
    fn shared_replica_unions_groups() {
        let groups = [group(&[0]), group(&[1])];
        let sets = [ws(0, &[0]), ws(1, &[1])];
        // Both groups on replica 0 (a merged pair).
        let assignment = vec![vec![ReplicaId(0)], vec![ReplicaId(0)]];
        let plans = filter_lists(&groups, &sets, &assignment, &rids(2), 1);
        assert_eq!(tables(&plans[0]), vec![0, 1]);
        assert!(tables(&plans[1]).is_empty());
    }

    #[test]
    fn min_copies_adds_standbys() {
        let groups = [group(&[0])];
        let sets = [ws(0, &[0, 1])];
        let assignment = vec![vec![ReplicaId(0)]];
        let plans = filter_lists(&groups, &sets, &assignment, &rids(3), 2);
        // One standby gained the tables.
        let hosting = plans.iter().filter(|p| !tables(p).is_empty()).count();
        assert_eq!(hosting, 2);
    }

    #[test]
    fn standby_choice_prefers_overlap() {
        let groups = [group(&[0]), group(&[1])];
        let sets = [ws(0, &[0, 1, 2]), ws(1, &[0, 1])];
        // Group 0 on replicas {0}; group 1 on replica 2. Replica 2 already
        // holds tables {0,1} → it is the cheapest standby for group 0
        // (adds only table 2), beating empty replica 1.
        let assignment = vec![vec![ReplicaId(0)], vec![ReplicaId(2)]];
        let plans = filter_lists(&groups, &sets, &assignment, &rids(3), 2);
        assert_eq!(tables(&plans[2]), vec![0, 1, 2]);
        // Replica 1 hosts group 1's standby copy ({0,1}): group 1 needed a
        // second host too, and replica 0 (holding {0,1,2}) adds nothing —
        // so replica 0 wins as group 1's standby, leaving replica 1 empty.
        assert!(tables(&plans[1]).is_empty());
    }

    #[test]
    fn multi_type_groups_union_member_tables() {
        let groups = [group(&[0, 1])];
        let sets = [ws(0, &[0]), ws(1, &[5])];
        let assignment = vec![vec![ReplicaId(0)]];
        let plans = filter_lists(&groups, &sets, &assignment, &rids(1), 1);
        assert_eq!(tables(&plans[0]), vec![0, 5]);
    }

    #[test]
    #[should_panic(expected = "cannot keep")]
    fn min_copies_bounded_by_cluster() {
        let groups = [group(&[0])];
        let sets = [ws(0, &[0])];
        filter_lists(&groups, &sets, &[vec![ReplicaId(0)]], &rids(1), 2);
    }

    #[test]
    #[should_panic(expected = "missing working set")]
    fn unknown_type_panics() {
        let groups = [group(&[9])];
        let sets = [ws(0, &[0])];
        filter_lists(&groups, &sets, &[vec![ReplicaId(0)]], &rids(1), 1);
    }
}
