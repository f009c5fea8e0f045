//! Partial replication: relation-group placement under a durability
//! constraint (Sutra & Shapiro 2008 direction).
//!
//! Tashkent+'s update filtering (§3) lets a replica *drop* writesets for
//! relations its assigned transaction types never read, but every replica
//! still stores the full database. Partial replication goes one step
//! further: each *relation group* — the relation set one transaction type
//! touches, the same unit §3's filter lists are built from — lives on only
//! a subset of replicas, its **holder set**, under an explicit durability
//! constraint (`min_copies` up-to-date copies). A replica's *held* relation
//! set is the union over the groups assigned to it; groups overlap freely
//! (TPC-W's co-access graph is connected, so disjoint components would
//! degenerate to full replication), and a shared relation is simply kept
//! current wherever any holder needs it. The consequences thread through
//! every layer:
//!
//! * **Dispatch** routes a transaction only to replicas holding *every*
//!   relation it touches: the balancer asks [`PlacementMap::eligible`] at
//!   every dispatch and rebalance tick, so it never holds a copy of the
//!   placement;
//! * **Propagation** ships a committed writeset's pages only to replicas
//!   holding the touched relations; a replica holding none of them receives
//!   a bare *version tick* ([`WS_TICK_BYTES`]) so its applied version stays
//!   a consistent prefix — extending [`UpdateFilter`] from "may drop" to
//!   "must not receive";
//! * **Failover** must uphold the durability invariant: a crash that drops
//!   a group below `min_copies` live holders triggers re-replication onto a
//!   survivor via certifier-log backfill (see
//!   [`crate::state::ClusterState`]).
//!
//! Full replication is a placement too, so the cluster has one placement
//! path. [`PlacementSpec::Full`] builds [`PlacementMap::full`], which has no
//! relation groups: every relation counts as held on every replica, every
//! filter passes everything through and every type is eligible everywhere.
//! A plan at `min_copies = cluster size` holds every group on every replica
//! and reproduces those runs bit for bit.
//!
//! [`PlacementSpec::Full`]: crate::config::PlacementSpec::Full
//!
//! The groups come from one derivation, [`TypeGroups::from_estimates`],
//! which a cluster runs once per build over the working sets it estimated
//! once (the same estimates MALB packs) and hands to both the
//! [`ReplicationPlanner`] and the relation → certifier-group map
//! [`CertMap`]. Every relation set here — a group's members, a replica's
//! held and pending relations, the update filter it installs, a backfill's
//! relations — is a [`tashkent_storage::RelationSet`] bitmap.

use tashkent_certifier::CertMap;
use tashkent_core::{Estimates, PageTable};
use tashkent_engine::TxnTypeId;
use tashkent_replica::UpdateFilter;
use tashkent_storage::{Catalog, RelationId, RelationSet};
use tashkent_workloads::Workload;

/// Bytes of a version tick — the durability notification a non-holder
/// receives instead of a writeset's pages (a version number plus framing).
pub const WS_TICK_BYTES: u64 = 16;

/// The relation groups of a workload: the distinct non-empty relation sets
/// its transaction types touch, in first-seen type order, and each type's
/// group. Both the [`ReplicationPlanner`] (which places the groups) and
/// [`CertMap`] (which folds them into certifier groups) start from this one
/// derivation, so placement groups and certifier owners agree by
/// construction; a cluster derives it once per build.
///
/// A type's relation set is what EXPLAIN plus the working-set estimator
/// report for it — the same channel §3's filter lists are built from — with
/// each index brought along with its base table and each table with its
/// indices, so writeset application always finds both.
#[derive(Debug)]
pub struct TypeGroups {
    /// The distinct relation sets, in first-seen type order.
    sets: Vec<RelationSet>,
    /// Index into `sets` per transaction type (`None` for types touching
    /// no relation).
    of_type: Vec<Option<usize>>,
}

impl TypeGroups {
    /// Derives the relation groups of `workload`, estimating its working
    /// sets first.
    pub fn derive(workload: &Workload) -> Self {
        Self::from_estimates(&workload.catalog, &workload.estimates())
    }

    /// Derives the relation groups from every type's working set in
    /// `estimates`, made against `catalog`.
    pub fn from_estimates(catalog: &Catalog, estimates: &Estimates) -> Self {
        let mut sets: Vec<RelationSet> = Vec::new();
        let mut of_type = vec![None; estimates.sets.len()];
        for (slot, ws) in of_type.iter_mut().zip(&estimates.sets) {
            // Each relation with what it brings: an index its table, a
            // table its indices.
            let rels = ws.relations.iter().fold(ws.relations, |mut rels, rel| {
                let r = catalog.get(rel);
                if let Some(table) = r.table {
                    rels.insert(table);
                }
                rels.union(r.indices)
            });
            if rels.is_empty() {
                continue;
            }
            *slot = Some(match sets.iter().position(|s| *s == rels) {
                Some(g) => g,
                None => {
                    sets.push(rels);
                    sets.len() - 1
                }
            });
        }
        TypeGroups { sets, of_type }
    }

    /// The group holding `txn_type`'s relations (`None` for a type touching
    /// no relation).
    pub(crate) fn group_of(&self, txn_type: TxnTypeId) -> Option<usize> {
        self.of_type[txn_type.0 as usize]
    }

    /// The relation → certifier-group map: these groups folded down to at
    /// most `max_groups` certifier groups (see [`CertMap::build`]).
    pub fn cert_map(&self, max_groups: usize) -> CertMap {
        CertMap::build(&self.sets, max_groups)
    }
}

/// One unit of placement: the relations one or more transaction types
/// touch together (types with identical relation sets share a group), plus
/// each referenced index alongside its base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationGroup {
    /// The transaction types this group serves, ascending.
    pub types: Vec<TxnTypeId>,
    /// Member relations (tables and their indices); iteration is in
    /// ascending id order.
    pub relations: RelationSet,
    /// Combined size in pages (catalog `relpages`), the placement weight.
    pub pages: u64,
}

/// Where every relation group lives: the group → holder-set assignment the
/// cluster threads through dispatch, propagation, and failover.
///
/// Every per-replica relation set is a [`RelationSet`] bitmap, so the
/// per-item questions of the hot paths ([`PlacementMap::holds`] for each
/// shipped item, [`PlacementMap::eligible`] for each dispatch) are a few
/// word operations.
#[derive(Debug, Clone)]
pub struct PlacementMap {
    n_replicas: usize,
    min_copies: usize,
    groups: Vec<RelationGroup>,
    /// Group index per transaction type (`None` for types touching no
    /// relation).
    group_of_type: Vec<Option<usize>>,
    /// Holder replica indices per group, sorted ascending.
    holders: Vec<Vec<usize>>,
    /// Cached per-replica held relations: the union over assigned groups.
    held: Vec<RelationSet>,
    /// Relations a replica has been assigned but whose pages are still in
    /// flight from a capped backfill. A pending relation is *held* (the
    /// filter accepts foreground propagation so the copy converges) but the
    /// replica is not dispatch-eligible for any type touching it until the
    /// backfill completes.
    pending: Vec<RelationSet>,
    /// Every relation referenced by some group (relations outside this set
    /// never appear in a writeset and count as held everywhere).
    referenced: RelationSet,
    /// Size in pages (catalog `relpages`) per relation.
    pages: PageTable,
}

impl PlacementMap {
    /// Full replication over `replicas` nodes, the paper's deployment: no
    /// relation groups, so no relation is referenced by one and every
    /// relation counts as held on every replica. The filters pass
    /// everything through and every type is eligible everywhere.
    pub fn full(replicas: usize) -> Self {
        PlacementMap {
            n_replicas: replicas,
            min_copies: replicas,
            groups: Vec::new(),
            group_of_type: Vec::new(),
            holders: Vec::new(),
            held: vec![RelationSet::new(); replicas],
            pending: vec![RelationSet::new(); replicas],
            referenced: RelationSet::new(),
            pages: PageTable::default(),
        }
    }

    /// Number of relation groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The durability constraint: minimum up-to-date copies per group.
    pub fn min_copies(&self) -> usize {
        self.min_copies
    }

    /// The relation groups, in id order.
    pub fn groups(&self) -> &[RelationGroup] {
        &self.groups
    }

    /// Holder replicas of `group`, ascending.
    pub fn holders(&self, group: usize) -> &[usize] {
        &self.holders[group]
    }

    /// The group serving a transaction type.
    pub fn group_of_type(&self, txn_type: TxnTypeId) -> Option<usize> {
        self.group_of_type
            .get(txn_type.0 as usize)
            .copied()
            .flatten()
    }

    /// Whether `replica` is an assigned holder of `group`.
    pub fn holds_group(&self, replica: usize, group: usize) -> bool {
        self.holders[group].binary_search(&replica).is_ok()
    }

    /// Whether `replica` keeps `rel` current (relations referenced by no
    /// group never change, so they count as held everywhere). Asked once
    /// per propagated item; the unreferenced test comes first, so under
    /// full replication, where no relation is referenced, it is one bit.
    pub fn holds(&self, replica: usize, rel: RelationId) -> bool {
        !self.referenced.contains(rel) || self.held[replica].contains(rel)
    }

    /// Whether `replica` may serve transactions of `txn_type`: its held set
    /// covers the type's whole relation group (holder sets qualify by
    /// construction; so does a replica covering the group through other
    /// groups' overlap) *and* none of those relations are still being
    /// backfilled — a still-backfilling holder must never receive dispatch.
    pub fn eligible(&self, txn_type: TxnTypeId, replica: usize) -> bool {
        match self.group_of_type(txn_type) {
            Some(g) => {
                let rels = self.groups[g].relations;
                rels.is_subset(self.held[replica]) && !rels.intersects(self.pending[replica])
            }
            None => true,
        }
    }

    /// Whether every group is held by every replica: [`PlacementMap::full`],
    /// or a plan at `min_copies >= cluster size`.
    pub fn is_full(&self) -> bool {
        self.holders.iter().all(|h| h.len() == self.n_replicas)
    }

    /// Adds `replica` to `group`'s holder set, extending its held
    /// relations; returns whether it was new.
    pub fn add_holder(&mut self, group: usize, replica: usize) -> bool {
        match self.holders[group].binary_search(&replica) {
            Ok(_) => false,
            Err(pos) => {
                self.holders[group].insert(pos, replica);
                self.held[replica] = self.held[replica].union(self.groups[group].relations);
                true
            }
        }
    }

    /// Removes `replica` from `group`'s holder set, recomputing its held
    /// relations as the union over its remaining groups (a relation shared
    /// with another held group stays held); returns whether it was a
    /// holder. Pending relations are left alone: only
    /// [`PlacementMap::mark_pending`] and
    /// [`PlacementMap::complete_backfill`] write them.
    pub fn remove_holder(&mut self, group: usize, replica: usize) -> bool {
        match self.holders[group].binary_search(&replica) {
            Err(_) => false,
            Ok(pos) => {
                self.holders[group].remove(pos);
                let held = (0..self.groups.len())
                    .filter(|g| self.holds_group(replica, *g))
                    .fold(RelationSet::new(), |held, g| {
                        held.union(self.groups[g].relations)
                    });
                self.held[replica] = held;
                true
            }
        }
    }

    /// Marks `rels` on `replica` as backfill-in-flight: held (the filter
    /// keeps the copy converging) but not dispatch-eligible.
    pub fn mark_pending(&mut self, replica: usize, rels: RelationSet) {
        self.pending[replica] = self.pending[replica].union(rels);
    }

    /// Clears the backfill-in-flight mark for `rels` on `replica`: the
    /// pages have arrived and the replica may serve types touching them.
    pub fn complete_backfill(&mut self, replica: usize, rels: RelationSet) {
        self.pending[replica] = self.pending[replica].difference(rels);
    }

    /// Relations still being backfilled onto `replica`.
    pub fn pending_relations(&self, replica: usize) -> RelationSet {
        self.pending[replica]
    }

    /// Relations `replica` keeps current (union over its groups).
    pub fn held_relations(&self, replica: usize) -> RelationSet {
        self.held[replica]
    }

    /// Relations of `group` that `replica` does *not* yet hold — what a
    /// re-replication backfill must ship.
    pub fn missing_relations(&self, replica: usize, group: usize) -> RelationSet {
        self.groups[group].relations.difference(self.held[replica])
    }

    /// Pages resident on `replica` under this placement (re-replication
    /// target selection weight).
    pub fn held_pages(&self, replica: usize) -> u64 {
        self.pages.sum(self.held[replica])
    }

    /// The update filter partial replication installs on `replica`:
    /// pass-through when it holds every group (full replication must stay
    /// bit-identical), otherwise exactly its held relations.
    pub fn filter_for(&self, replica: usize) -> UpdateFilter {
        if (0..self.groups.len()).all(|g| self.holds_group(replica, g)) {
            UpdateFilter::all()
        } else {
            UpdateFilter::Only(self.held[replica])
        }
    }
}

/// Computes a [`PlacementMap`] from a workload's [`TypeGroups`]: one
/// relation group per distinct transaction-type relation set, holder sets
/// by overlap-aware balance under the `min_copies` durability constraint.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationPlanner {
    /// Minimum up-to-date copies per relation group (clamped to
    /// `[1, cluster size]` when planning).
    pub min_copies: usize,
}

impl ReplicationPlanner {
    /// A planner with the given durability constraint.
    pub fn new(min_copies: usize) -> Self {
        ReplicationPlanner { min_copies }
    }

    /// Plans placement of `groups` (derived from a workload over
    /// `catalog`) over `replicas` nodes.
    ///
    /// Groups are assigned heaviest-first; each picks the `min_copies`
    /// replicas minimizing the resulting held pages (`held + newly added`,
    /// ties to the lowest replica id) — overlap makes a replica that
    /// already holds most of a group a cheap extra holder, while the
    /// balance term keeps the database spread. A replica's newly added
    /// pages are the group's pages less those of its overlap with what the
    /// replica holds. One pass over the replicas keeps the `min_copies`
    /// best `(held + added, replica)` keys in a buffer reused across
    /// groups; the keys are unique per replica, so the pick is the one a
    /// full sort of the replicas would make, and a group allocates only
    /// its holder list. Deterministic throughout; this assignment is the
    /// object the skew-driven rebalancing acts on.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn plan(&self, catalog: &Catalog, groups: &TypeGroups, replicas: usize) -> PlacementMap {
        assert!(replicas > 0, "placement needs at least one replica");
        let min_copies = self.min_copies.clamp(1, replicas);
        let pages = PageTable::new(catalog);
        let mut placed: Vec<RelationGroup> = groups
            .sets
            .iter()
            .map(|&relations| RelationGroup {
                types: Vec::new(),
                relations,
                pages: pages.sum(relations),
            })
            .collect();
        for (t, g) in groups.of_type.iter().enumerate() {
            if let Some(g) = g {
                placed[*g].types.push(TxnTypeId(t as u32));
            }
        }
        let referenced = groups
            .sets
            .iter()
            .fold(RelationSet::new(), |all, rels| all.union(*rels));

        // Holder assignment: heaviest group first; each onto the
        // `min_copies` replicas minimizing resulting held pages.
        let mut order: Vec<usize> = (0..placed.len()).collect();
        order.sort_by_key(|g| (std::cmp::Reverse(placed[*g].pages), *g));
        let mut held = vec![RelationSet::new(); replicas];
        let mut held_pages = vec![0u64; replicas];
        let mut holders: Vec<Vec<usize>> = vec![Vec::new(); placed.len()];
        // The best `(held + added pages, replica)` keys so far, ascending.
        let mut best: Vec<(u64, usize)> = Vec::with_capacity(min_copies);
        for g in order {
            let RelationGroup {
                relations: rels,
                pages: group_pages,
                ..
            } = placed[g];
            best.clear();
            for (r, (h, p)) in held.iter().zip(&held_pages).enumerate() {
                let added = if rels.intersects(*h) {
                    group_pages - pages.sum(rels.intersection(*h))
                } else {
                    group_pages
                };
                let key = (p + added, r);
                if best.len() == min_copies {
                    if best.last().is_some_and(|worst| key >= *worst) {
                        continue;
                    }
                    best.pop();
                }
                best.insert(best.partition_point(|k| *k < key), key);
            }
            let mut chosen: Vec<usize> = Vec::with_capacity(min_copies);
            for &(after, r) in &best {
                held_pages[r] = after;
                held[r] = held[r].union(rels);
                chosen.push(r);
            }
            chosen.sort_unstable();
            holders[g] = chosen;
        }

        PlacementMap {
            n_replicas: replicas,
            min_copies,
            groups: placed,
            group_of_type: groups.of_type.clone(),
            holders,
            held,
            pending: vec![RelationSet::new(); replicas],
            referenced,
            pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_certifier::MAX_CERT_GROUPS;
    use tashkent_storage::MAX_RELATIONS;
    use tashkent_workloads::tpcw::{self, TpcwScale};

    fn tpcw_map(replicas: usize, min_copies: usize) -> PlacementMap {
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let groups = TypeGroups::derive(&workload);
        ReplicationPlanner::new(min_copies).plan(&workload.catalog, &groups, replicas)
    }

    #[test]
    fn every_type_has_a_group_and_indices_travel_with_tables() {
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let map = tpcw_map(4, 2);
        for t in &workload.types {
            let g = map
                .group_of_type(t.id)
                .unwrap_or_else(|| panic!("{} has no group", t.name));
            assert!(map.groups()[g].types.contains(&t.id));
            // Every table in the group brings its indices and vice versa.
            for rel in map.groups()[g].relations.iter() {
                if let Some(table) = workload.catalog.get(rel).table {
                    assert!(map.groups()[g].relations.contains(table));
                }
            }
        }
    }

    #[test]
    fn every_type_is_servable_by_its_holder_set() {
        let map = tpcw_map(4, 2);
        for (g, group) in map.groups().iter().enumerate() {
            for t in &group.types {
                for &r in map.holders(g) {
                    assert!(map.eligible(*t, r), "holder {r} not eligible for {t}");
                }
                let eligible = (0..4).filter(|r| map.eligible(*t, *r)).count();
                assert!(eligible >= 2, "{t}: only {eligible} eligible");
            }
        }
    }

    #[test]
    fn holder_sets_honor_min_copies() {
        for mc in [1, 2, 3] {
            let map = tpcw_map(4, mc);
            assert_eq!(map.min_copies(), mc);
            for g in 0..map.group_count() {
                assert_eq!(map.holders(g).len(), mc, "group {g} at min_copies {mc}");
            }
        }
    }

    #[test]
    fn min_copies_at_cluster_size_is_full_replication() {
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        // A plan at cluster size, and full replication's own map.
        for map in [tpcw_map(4, 4), PlacementMap::full(4)] {
            assert!(map.is_full());
            for r in 0..4 {
                assert_eq!(map.filter_for(r), UpdateFilter::all());
                for rel in workload.catalog.relations() {
                    assert!(map.holds(r, rel.id), "replica {r} misses {}", rel.id);
                }
            }
            for t in 0..13 {
                assert!((0..4).all(|r| map.eligible(TxnTypeId(t), r)));
            }
        }
        assert_eq!(PlacementMap::full(4).group_count(), 0);
        // Over-asking clamps to the cluster size.
        let clamped = tpcw_map(4, 99);
        assert!(clamped.is_full());
    }

    #[test]
    fn partial_placement_filters_and_spreads() {
        let map = tpcw_map(8, 2);
        assert!(!map.is_full());
        let total: u64 = map.pages.sum(map.referenced);
        let mut any_filtering = false;
        for r in 0..8 {
            let filter = map.filter_for(r);
            if filter.is_filtering() {
                any_filtering = true;
                for rel in map.held_relations(r).iter() {
                    assert!(filter.accepts(rel));
                }
                assert!(map.held_pages(r) < total, "filtering replica holds all");
            }
        }
        assert!(
            any_filtering,
            "8 replicas at 2 copies must filter somewhere"
        );
        // Partial replication stores strictly less than n full copies.
        let stored: u64 = (0..8).map(|r| map.held_pages(r)).sum();
        assert!(stored < 8 * total, "no storage saved: {stored}");
    }

    #[test]
    fn add_holder_widens_the_map() {
        let mut map = tpcw_map(8, 2);
        let g = 0;
        let outsider = (0..8)
            .find(|r| !map.holds_group(*r, g))
            .expect("partial placement has non-holders");
        let missing = map.missing_relations(outsider, g);
        assert!(map.add_holder(g, outsider));
        assert!(map.holds_group(outsider, g));
        for rel in missing.iter() {
            assert!(map.holds(outsider, rel), "backfilled relation not held");
        }
        assert!(!map.add_holder(g, outsider), "idempotent");
        assert_eq!(map.holders(g).len(), 3);
        assert!(map.missing_relations(outsider, g).is_empty());
        let sorted = map.holders(g).windows(2).all(|w| w[0] < w[1]);
        assert!(sorted, "holders stay sorted");
        // The wider held set can make the replica eligible for the group's
        // types.
        for t in &map.groups()[g].types {
            assert!(map.eligible(*t, outsider));
        }
    }

    #[test]
    fn remove_holder_narrows_but_keeps_overlap_held() {
        let mut map = tpcw_map(8, 2);
        let g = 0;
        let outsider = (0..8)
            .find(|r| !map.holds_group(*r, g))
            .expect("partial placement has non-holders");
        map.add_holder(g, outsider);
        assert!(map.remove_holder(g, outsider));
        assert!(!map.holds_group(outsider, g));
        assert_eq!(map.holders(g).len(), 2);
        assert!(!map.remove_holder(g, outsider), "idempotent");
        // Held is exactly the union over the remaining groups: relations
        // shared with another held group stay, group-exclusive ones go.
        let mut expect = RelationSet::new();
        for (og, group) in map.groups().iter().enumerate() {
            if map.holds_group(outsider, og) {
                expect = expect.union(group.relations);
            }
        }
        assert_eq!(map.held_relations(outsider), expect);
    }

    #[test]
    fn pending_backfill_blocks_eligibility_until_complete() {
        let mut map = tpcw_map(8, 2);
        // A non-holder that actually misses some of the group's relations
        // (overlap through other groups can make a copy free).
        let (g, outsider, missing) = (0..map.group_count())
            .flat_map(|g| (0..8).map(move |r| (g, r)))
            .filter(|(g, r)| !map.holds_group(*r, *g))
            .map(|(g, r)| (g, r, map.missing_relations(r, g)))
            .find(|(_, _, missing)| !missing.is_empty())
            .expect("some non-holder misses relations of some group");
        map.add_holder(g, outsider);
        map.mark_pending(outsider, missing);
        // Held (the filter must accept propagation) but not eligible.
        for rel in missing.iter() {
            assert!(map.holds(outsider, rel));
            assert!(map.filter_for(outsider).accepts(rel));
        }
        for t in &map.groups()[g].types.clone() {
            assert!(!map.eligible(*t, outsider), "pending holder dispatched");
        }
        map.complete_backfill(outsider, missing);
        assert!(map.pending_relations(outsider).is_empty());
        for t in &map.groups()[g].types {
            assert!(map.eligible(*t, outsider), "completed holder stays barred");
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let a = tpcw_map(8, 2);
        let b = tpcw_map(8, 2);
        for g in 0..a.group_count() {
            assert_eq!(a.holders(g), b.holders(g));
        }
    }

    #[test]
    fn unreferenced_relations_count_as_held_everywhere() {
        let map = tpcw_map(8, 2);
        // Fabricate an id beyond the catalog range: no group references it.
        let ghost = RelationId(10_000);
        for r in 0..8 {
            assert!(map.holds(r, ghost));
        }
    }

    fn tpcw_cert_map(max_groups: usize) -> CertMap {
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        TypeGroups::derive(&workload).cert_map(max_groups)
    }

    #[test]
    fn cert_map_is_a_total_single_owner_function() {
        let cert = tpcw_cert_map(8);
        assert!(cert.group_count() >= 2, "TPC-W must shard into >1 group");
        assert!(cert.group_count() <= MAX_CERT_GROUPS);
        for rel in 0..MAX_RELATIONS {
            assert!(cert.group_of_rel(RelationId(rel)) < cert.group_count());
        }
        // Unreferenced relations fall to group 0.
        assert_eq!(cert.group_of_rel(RelationId(10_000)), 0);
    }

    #[test]
    fn cert_map_degenerates_to_one_group() {
        let cert = tpcw_cert_map(1);
        assert_eq!(cert.group_count(), 1);
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        use tashkent_engine::WritesetItem;
        for rel in 0..workload.catalog.len() as u32 {
            assert_eq!(cert.group_of_rel(RelationId(rel)), 0);
        }
        assert_eq!(cert.mask_for(&[WritesetItem::new(RelationId(3), 9)]), 1);
        assert_eq!(cert.mask_for(&[]), 1, "empty writesets use group 0");
    }

    #[test]
    fn cert_masks_cover_every_type_and_are_deterministic() {
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let groups = TypeGroups::derive(&workload);
        let a = groups.cert_map(8);
        let b = TypeGroups::derive(&workload).cert_map(8);
        assert_eq!(a.group_count(), b.group_count());
        let mut union = 0u64;
        for rel in groups.sets.iter().flat_map(|rels| rels.iter()) {
            assert_eq!(a.group_of_rel(rel), b.group_of_rel(rel));
            union |= 1 << a.group_of_rel(rel);
        }
        assert_eq!(
            union.count_ones() as usize,
            a.group_count(),
            "every group must own at least one relation"
        );
    }
}
