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
//!   relation it touches (the balancer consumes per-type eligibility masks
//!   derived here);
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
//! Full replication is the `min_copies = cluster size` degenerate case:
//! every replica holds every group, the eligibility masks are all-true, and
//! runs reproduce the fully-replicated results bit for bit.

use std::collections::{BTreeMap, BTreeSet};

use tashkent_core::WorkingSetEstimator;
use tashkent_engine::{TxnTypeId, Writeset};
use tashkent_replica::UpdateFilter;
use tashkent_storage::RelationId;
use tashkent_workloads::Workload;

/// Bytes of a version tick — the durability notification a non-holder
/// receives instead of a writeset's pages (a version number plus framing).
pub const WS_TICK_BYTES: u64 = 16;

/// One unit of placement: the relations one or more transaction types
/// touch together (types with identical relation sets share a group), plus
/// each referenced index alongside its base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationGroup {
    /// The transaction types this group serves.
    pub types: Vec<TxnTypeId>,
    /// Member relations (tables and their indices), sorted.
    pub relations: BTreeSet<RelationId>,
    /// Combined size in pages (catalog `relpages`), the placement weight.
    pub pages: u64,
}

/// Where every relation group lives: the group → holder-set assignment the
/// cluster threads through dispatch, propagation, and failover.
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
    held: Vec<BTreeSet<RelationId>>,
    /// Relations a replica has been assigned but whose pages are still in
    /// flight from a capped backfill. A pending relation is *held* (the
    /// filter accepts foreground propagation so the copy converges) but the
    /// replica is not dispatch-eligible for any type touching it until the
    /// backfill completes.
    pending: Vec<BTreeSet<RelationId>>,
    /// Every relation referenced by some group (relations outside this set
    /// never appear in a writeset and count as held everywhere), with its
    /// size in pages (catalog `relpages`).
    referenced: BTreeMap<RelationId, u64>,
}

impl PlacementMap {
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
    /// group never change, so they count as held everywhere).
    pub fn holds(&self, replica: usize, rel: RelationId) -> bool {
        self.held[replica].contains(&rel) || !self.referenced.contains_key(&rel)
    }

    /// Whether `replica` may serve transactions of `txn_type`: its held set
    /// covers the type's whole relation group (holder sets qualify by
    /// construction; so does a replica covering the group through other
    /// groups' overlap) *and* none of those relations are still being
    /// backfilled — a still-backfilling holder must never receive dispatch.
    pub fn eligible(&self, txn_type: TxnTypeId, replica: usize) -> bool {
        match self.group_of_type(txn_type) {
            Some(g) => self.groups[g].relations.iter().all(|rel| {
                self.held[replica].contains(rel) && !self.pending[replica].contains(rel)
            }),
            None => true,
        }
    }

    /// Whether every group is held by every replica (the full-replication
    /// degenerate case, `min_copies >= cluster size`).
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
                let rels: Vec<RelationId> = self.groups[group].relations.iter().copied().collect();
                self.held[replica].extend(rels);
                true
            }
        }
    }

    /// Removes `replica` from `group`'s holder set, recomputing its held
    /// relations as the union over its remaining groups (a relation shared
    /// with another held group stays held); returns whether it was a
    /// holder. Pending relations the replica no longer holds are dropped
    /// with it.
    pub fn remove_holder(&mut self, group: usize, replica: usize) -> bool {
        match self.holders[group].binary_search(&replica) {
            Err(_) => false,
            Ok(pos) => {
                self.holders[group].remove(pos);
                let mut held = BTreeSet::new();
                for (g, holders) in self.holders.iter().enumerate() {
                    if holders.binary_search(&replica).is_ok() {
                        held.extend(self.groups[g].relations.iter().copied());
                    }
                }
                self.pending[replica].retain(|rel| held.contains(rel));
                self.held[replica] = held;
                true
            }
        }
    }

    /// Marks `rels` on `replica` as backfill-in-flight: held (the filter
    /// keeps the copy converging) but not dispatch-eligible.
    pub fn mark_pending(&mut self, replica: usize, rels: &BTreeSet<RelationId>) {
        self.pending[replica].extend(rels.iter().copied());
    }

    /// Clears the backfill-in-flight mark for `rels` on `replica`: the
    /// pages have arrived and the replica may serve types touching them.
    pub fn complete_backfill(&mut self, replica: usize, rels: &BTreeSet<RelationId>) {
        for rel in rels {
            self.pending[replica].remove(rel);
        }
    }

    /// Relations still being backfilled onto `replica`.
    pub fn pending_relations(&self, replica: usize) -> &BTreeSet<RelationId> {
        &self.pending[replica]
    }

    /// Relations `replica` keeps current (union over its groups).
    pub fn held_relations(&self, replica: usize) -> &BTreeSet<RelationId> {
        &self.held[replica]
    }

    /// Relations of `group` that `replica` does *not* yet hold — what a
    /// re-replication backfill must ship.
    pub fn missing_relations(&self, replica: usize, group: usize) -> BTreeSet<RelationId> {
        self.groups[group]
            .relations
            .difference(&self.held[replica])
            .copied()
            .collect()
    }

    /// Pages resident on `replica` under this placement (re-replication
    /// target selection weight).
    pub fn held_pages(&self, replica: usize) -> u64 {
        self.held[replica]
            .iter()
            .map(|rel| self.referenced.get(rel).copied().unwrap_or(0))
            .sum()
    }

    /// The update filter partial replication installs on `replica`:
    /// pass-through when it holds every group (full replication must stay
    /// bit-identical), otherwise exactly its held relations.
    pub fn filter_for(&self, replica: usize) -> UpdateFilter {
        if (0..self.groups.len()).all(|g| self.holds_group(replica, g)) {
            UpdateFilter::all()
        } else {
            UpdateFilter::only(self.held[replica].iter().copied())
        }
    }

    /// Per-type eligibility masks for the load balancer: `masks[t][r]` is
    /// whether replica `r` holds every relation transaction type `t`
    /// touches.
    pub fn type_masks(&self, n_types: usize) -> Vec<Vec<bool>> {
        (0..n_types)
            .map(|t| {
                (0..self.n_replicas)
                    .map(|r| self.eligible(TxnTypeId(t as u32), r))
                    .collect()
            })
            .collect()
    }
}

/// Computes a [`PlacementMap`] for a workload: one relation group per
/// distinct transaction-type relation set, holder sets by overlap-aware
/// balance under the `min_copies` durability constraint.
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

    /// Plans placement for `workload` over `replicas` nodes.
    ///
    /// Groups are assigned heaviest-first; each picks the `min_copies`
    /// replicas minimizing the resulting held pages (`held + newly added`,
    /// ties to the lowest replica id) — overlap makes a replica that
    /// already holds most of a group a cheap extra holder, while the
    /// balance term keeps the database spread. Deterministic throughout;
    /// this assignment is the object the skew-driven rebalancing follow-on
    /// will act on.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn plan(&self, workload: &Workload, replicas: usize) -> PlacementMap {
        assert!(replicas > 0, "placement needs at least one replica");
        let min_copies = self.min_copies.clamp(1, replicas);
        let catalog = &workload.catalog;
        let estimator = WorkingSetEstimator::new(catalog);

        // One group per distinct relation set; each index travels with its
        // base table so writeset application always finds both.
        let mut groups: Vec<RelationGroup> = Vec::new();
        let mut group_of_rels: BTreeMap<BTreeSet<RelationId>, usize> = BTreeMap::new();
        let mut group_of_type: Vec<Option<usize>> = vec![None; workload.types.len()];
        let mut referenced: BTreeMap<RelationId, u64> = BTreeMap::new();
        for t in &workload.types {
            let ws = estimator.estimate(t.id, &workload.explain(t.id));
            let mut rels: BTreeSet<RelationId> = ws.relations.keys().copied().collect();
            for rel in rels.clone() {
                let meta = catalog.get(rel);
                if let Some(table) = meta.table {
                    rels.insert(table);
                }
                for idx in catalog.indices_of(rel) {
                    rels.insert(idx.id);
                }
            }
            if rels.is_empty() {
                continue;
            }
            let gi = *group_of_rels.entry(rels.clone()).or_insert_with(|| {
                let mut pages = 0;
                for r in &rels {
                    let p = catalog.get(*r).pages as u64;
                    referenced.insert(*r, p);
                    pages += p;
                }
                groups.push(RelationGroup {
                    types: Vec::new(),
                    pages,
                    relations: rels.clone(),
                });
                groups.len() - 1
            });
            groups[gi].types.push(t.id);
            group_of_type[t.id.0 as usize] = Some(gi);
        }

        // Holder assignment: heaviest group first; each onto the
        // `min_copies` replicas minimizing resulting held pages.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|g| (std::cmp::Reverse(groups[*g].pages), *g));
        let mut held: Vec<BTreeSet<RelationId>> = vec![BTreeSet::new(); replicas];
        let mut held_pages = vec![0u64; replicas];
        let mut holders: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
        for g in order {
            let added: Vec<u64> = (0..replicas)
                .map(|r| {
                    groups[g]
                        .relations
                        .iter()
                        .filter(|rel| !held[r].contains(*rel))
                        .map(|rel| referenced[rel])
                        .sum()
                })
                .collect();
            let mut ranked: Vec<usize> = (0..replicas).collect();
            ranked.sort_by_key(|r| (held_pages[*r] + added[*r], *r));
            let mut chosen: Vec<usize> = ranked.into_iter().take(min_copies).collect();
            chosen.sort_unstable();
            for &r in &chosen {
                held_pages[r] += added[r];
                let rels: Vec<RelationId> = groups[g].relations.iter().copied().collect();
                held[r].extend(rels);
            }
            holders[g] = chosen;
        }

        PlacementMap {
            n_replicas: replicas,
            min_copies,
            groups,
            group_of_type,
            holders,
            held,
            pending: vec![BTreeSet::new(); replicas],
            referenced,
        }
    }
}

/// Assigns every relation to exactly one *certifier group* — the sharding
/// unit of certification. Groups are derived from the same distinct
/// transaction-type relation sets the [`ReplicationPlanner`] places (the
/// PR 4 placement unit), folded down to at most `max_groups` groups; a
/// relation shared by several relation sets is owned by the lowest-indexed
/// one, so ownership is a function — each item has exactly one certifying
/// group, which is what makes the sharded conflict probe equivalent to the
/// global one.
#[derive(Debug, Clone)]
pub struct CertMap {
    n_groups: usize,
    /// Owning certifier group per referenced relation; unreferenced
    /// relations (never written) default to group 0.
    owner: BTreeMap<RelationId, usize>,
}

/// Hard cap on certifier groups: touched-group sets travel as `u64`
/// bitmasks through events and the driver.
pub const MAX_CERT_GROUPS: usize = 64;

impl CertMap {
    /// Derives the certifier-group map for `workload`, folding the distinct
    /// relation sets down to at most `max_groups` (clamped to
    /// `[1, MAX_CERT_GROUPS]`) groups round-robin by relation-set index.
    pub fn build(workload: &Workload, max_groups: usize) -> Self {
        let catalog = &workload.catalog;
        let estimator = WorkingSetEstimator::new(catalog);
        // The same distinct-relation-set derivation as
        // `ReplicationPlanner::plan`, in first-seen type order.
        let mut rel_sets: Vec<BTreeSet<RelationId>> = Vec::new();
        let mut seen: BTreeMap<BTreeSet<RelationId>, usize> = BTreeMap::new();
        for t in &workload.types {
            let ws = estimator.estimate(t.id, &workload.explain(t.id));
            let mut rels: BTreeSet<RelationId> = ws.relations.keys().copied().collect();
            for rel in rels.clone() {
                let meta = catalog.get(rel);
                if let Some(table) = meta.table {
                    rels.insert(table);
                }
                for idx in catalog.indices_of(rel) {
                    rels.insert(idx.id);
                }
            }
            if rels.is_empty() {
                continue;
            }
            if !seen.contains_key(&rels) {
                seen.insert(rels.clone(), rel_sets.len());
                rel_sets.push(rels);
            }
        }
        let fold = rel_sets
            .len()
            .min(max_groups.clamp(1, MAX_CERT_GROUPS))
            .max(1);
        let mut owner: BTreeMap<RelationId, usize> = BTreeMap::new();
        for (idx, rels) in rel_sets.iter().enumerate() {
            for rel in rels {
                owner.entry(*rel).or_insert(idx % fold);
            }
        }
        // Compact away groups left owning nothing (every relation of their
        // sets was claimed by a lower-indexed set): each surviving group
        // must own at least one relation or it would never see traffic.
        let mut remap = vec![usize::MAX; fold];
        let mut n_groups = 0;
        for g in owner.values() {
            if remap[*g] == usize::MAX {
                remap[*g] = 0; // mark; ids assigned in ascending group order
            }
        }
        for slot in &mut remap {
            if *slot == 0 {
                *slot = n_groups;
                n_groups += 1;
            }
        }
        for g in owner.values_mut() {
            *g = remap[*g];
        }
        CertMap {
            n_groups: n_groups.max(1),
            owner,
        }
    }

    /// Number of certifier groups (1 ..= [`MAX_CERT_GROUPS`]).
    pub fn group_count(&self) -> usize {
        self.n_groups
    }

    /// The certifier group owning `rel`.
    pub fn group_of_rel(&self, rel: RelationId) -> usize {
        self.owner.get(&rel).copied().unwrap_or(0)
    }

    /// Bitmask of the certifier groups `ws` touches. Empty writesets
    /// certify against group 0 (any single group works; 0 is canonical).
    pub fn mask_for(&self, ws: &Writeset) -> u64 {
        if ws.items.is_empty() {
            return 1;
        }
        let mut mask = 0u64;
        for item in &ws.items {
            mask |= 1 << self.group_of_rel(item.rel());
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_workloads::tpcw::{self, TpcwScale};

    fn tpcw_map(replicas: usize, min_copies: usize) -> PlacementMap {
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        ReplicationPlanner::new(min_copies).plan(&workload, replicas)
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
            for rel in &map.groups()[g].relations {
                if let Some(table) = workload.catalog.get(*rel).table {
                    assert!(map.groups()[g].relations.contains(&table));
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
        let map = tpcw_map(4, 4);
        assert!(map.is_full());
        for r in 0..4 {
            assert_eq!(map.filter_for(r), UpdateFilter::all());
        }
        let masks = map.type_masks(13);
        assert!(masks.iter().all(|row| row.iter().all(|b| *b)));
        // Over-asking clamps to the cluster size.
        let clamped = tpcw_map(4, 99);
        assert!(clamped.is_full());
    }

    #[test]
    fn partial_placement_filters_and_spreads() {
        let map = tpcw_map(8, 2);
        assert!(!map.is_full());
        let total: u64 = map.referenced.values().sum();
        let mut any_filtering = false;
        for r in 0..8 {
            let filter = map.filter_for(r);
            if filter.is_filtering() {
                any_filtering = true;
                for rel in map.held_relations(r) {
                    assert!(filter.accepts(*rel));
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
        for rel in &missing {
            assert!(map.holds(outsider, *rel), "backfilled relation not held");
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
        let mut expect = BTreeSet::new();
        for (og, group) in map.groups().iter().enumerate() {
            if map.holds_group(outsider, og) {
                expect.extend(group.relations.iter().copied());
            }
        }
        assert_eq!(*map.held_relations(outsider), expect);
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
        map.mark_pending(outsider, &missing);
        // Held (the filter must accept propagation) but not eligible.
        for rel in &missing {
            assert!(map.holds(outsider, *rel));
            assert!(map.filter_for(outsider).accepts(*rel));
        }
        for t in &map.groups()[g].types.clone() {
            assert!(!map.eligible(*t, outsider), "pending holder dispatched");
        }
        let masks = map.type_masks(13);
        for t in &map.groups()[g].types {
            assert!(!masks[t.0 as usize][outsider]);
        }
        map.complete_backfill(outsider, &missing);
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
        CertMap::build(&workload, max_groups)
    }

    #[test]
    fn cert_map_is_a_total_single_owner_function() {
        let cert = tpcw_cert_map(8);
        assert!(cert.group_count() >= 2, "TPC-W must shard into >1 group");
        assert!(cert.group_count() <= MAX_CERT_GROUPS);
        for g in cert.owner.values() {
            assert!(*g < cert.group_count());
        }
        // Unreferenced relations fall to group 0.
        assert_eq!(cert.group_of_rel(RelationId(10_000)), 0);
    }

    #[test]
    fn cert_map_degenerates_to_one_group() {
        let cert = tpcw_cert_map(1);
        assert_eq!(cert.group_count(), 1);
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        use tashkent_engine::{Snapshot, TxnId, Version, WritesetItem};
        for rel in 0..workload.catalog.len() as u32 {
            assert_eq!(cert.group_of_rel(RelationId(rel)), 0);
        }
        let ws = Writeset::new(
            TxnId(1),
            TxnTypeId(0),
            Snapshot::at(Version(0)),
            vec![WritesetItem::new(RelationId(3), 9)],
        );
        assert_eq!(cert.mask_for(&ws), 1);
        let empty = Writeset::new(TxnId(2), TxnTypeId(0), Snapshot::at(Version(0)), Vec::new());
        assert_eq!(empty.items.len(), 0);
        assert_eq!(cert.mask_for(&empty), 1, "empty writesets use group 0");
    }

    #[test]
    fn cert_masks_cover_every_type_and_are_deterministic() {
        let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let a = CertMap::build(&workload, 8);
        let b = CertMap::build(&workload, 8);
        assert_eq!(a.group_count(), b.group_count());
        let mut union = 0u64;
        for rel in &a.owner {
            assert_eq!(Some(rel.1), b.owner.get(rel.0));
            union |= 1 << *rel.1;
        }
        assert_eq!(
            union.count_ones() as usize,
            a.group_count(),
            "every group must own at least one relation"
        );
    }
}
