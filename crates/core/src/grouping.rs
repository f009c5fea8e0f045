//! Transaction grouping by Best-Fit-Decreasing bin packing (§2.3).
//!
//! Given working-set estimates, transaction types are packed into groups
//! whose combined working sets fit the available memory of one replica.
//! Types whose individual estimate already exceeds memory are *overflow*
//! types and get dedicated groups.
//!
//! The three methods differ in what they count:
//! * **MALB-S** packs by size alone: a bin's load is the arithmetic sum of
//!   its members' sizes (shared relations double counted).
//! * **MALB-SC** packs by contents: a bin's load is the size of the *union*
//!   of its members' relation sets; a type fits when its non-overlapping
//!   pages fit, and among fitting bins the one with maximal overlap wins.
//! * **MALB-SCAP** is MALB-SC restricted to linearly-scanned relations.
//!
//! A group's relations are a [`RelationSet`] bitmap sized through the
//! estimator's [`PageTable`], so testing a candidate bin is one bitmap
//! difference (the pages a type adds) and one intersection (the pages it
//! shares).

use tashkent_engine::TxnTypeId;
use tashkent_storage::RelationSet;

use crate::estimator::{EstimationMode, PageTable, WorkingSet};

/// Identifies a transaction group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub usize);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// A group of transaction types sharing replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnGroup {
    /// Member transaction types, in packing order.
    pub types: Vec<TxnTypeId>,
    /// The union of the members' relations under the packing mode (for
    /// MALB-S this holds each member's relations, but the load is tracked
    /// separately to preserve double counting).
    pub relations: RelationSet,
    /// Estimated combined working-set size in pages (mode-dependent).
    pub estimate_pages: u64,
    /// Whether this is a dedicated group for an overflow type.
    pub overflow: bool,
}

/// Packs working sets into groups that fit `capacity_pages`, using
/// Best-Fit-Decreasing with the mode's size semantics; `pages` sizes every
/// relation.
///
/// Returns groups in creation order; group indices are stable [`GroupId`]s.
///
/// # Examples
///
/// ```
/// use tashkent_core::{pack_groups, EstimationMode, PageTable, WorkingSet};
/// use tashkent_engine::TxnTypeId;
/// use tashkent_storage::RelationId;
///
/// let pages = PageTable::from(vec![60, 20, 20]);
/// let ws = |id: u32, rels: &[u32]| WorkingSet {
///     txn_type: TxnTypeId(id),
///     relations: rels.iter().map(|r| RelationId(*r)).collect(),
///     scanned: rels.iter().map(|r| RelationId(*r)).collect(),
/// };
/// let sets = [ws(0, &[0, 1]), ws(1, &[0, 2])];
/// // Two types sharing a 60-page table fit one 100-page bin under SC…
/// let groups = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
/// assert_eq!(groups.len(), 1);
/// // …but not under size-only packing (60+20+60+20 = 160 > 100).
/// let groups = pack_groups(&sets, &pages, EstimationMode::Size, 100);
/// assert_eq!(groups.len(), 2);
/// ```
pub fn pack_groups(
    working_sets: &[WorkingSet],
    pages: &PageTable,
    mode: EstimationMode,
    capacity_pages: u64,
) -> Vec<TxnGroup> {
    // Each type's relations and size under the mode; decreasing size order,
    // ties broken by type id for determinism.
    let mut order: Vec<(TxnTypeId, RelationSet, u64)> = working_sets
        .iter()
        .map(|ws| {
            let rels = ws.relations_for(mode);
            (ws.txn_type, rels, pages.sum(rels))
        })
        .collect();
    order.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));

    let mut groups: Vec<TxnGroup> = Vec::new();
    for (txn_type, rels, size) in order {
        // A type larger than memory gets a dedicated overflow group.
        // Otherwise, best fit: among non-overflow bins where the added
        // pages fit, prefer maximal overlap, then minimal resulting free
        // space, then lowest index. Under size-only packing a type adds its
        // full size and overlaps nothing. Overflow bins are closed — lightly
        // loaded groups may still end up sharing a replica later via the
        // allocator's merge step (§2.4), which is how the paper's Table 2
        // puts the small probing types next to OrderDisplay.
        let overflow = size > capacity_pages;
        let mut best: Option<(usize, u64, u64, u64)> = None; // (idx, overlap, free_after, added)
        for (idx, g) in groups.iter().enumerate() {
            if overflow || g.overflow {
                continue;
            }
            let added = match mode {
                EstimationMode::Size => size,
                _ => pages.sum(rels.difference(g.relations)),
            };
            if g.estimate_pages + added > capacity_pages {
                continue;
            }
            // The shared pages, `rels ∩ g.relations`, are the rest of the
            // type's size (zero under size-only packing).
            let overlap = size - added;
            let free_after = capacity_pages - g.estimate_pages - added;
            let better = match best {
                None => true,
                Some((_, bo, bf, _)) => overlap > bo || (overlap == bo && free_after < bf),
            };
            if better {
                best = Some((idx, overlap, free_after, added));
            }
        }
        match best {
            Some((idx, _, _, added)) => {
                let g = &mut groups[idx];
                g.estimate_pages += added;
                g.relations = g.relations.union(rels);
                g.types.push(txn_type);
            }
            None => groups.push(TxnGroup {
                types: vec![txn_type],
                relations: rels,
                estimate_pages: size,
                overflow,
            }),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_storage::RelationId;

    fn ws(id: u32, rels: &[u32]) -> WorkingSet {
        ws_scanned(id, rels, rels)
    }

    fn ws_scanned(id: u32, rels: &[u32], scanned: &[u32]) -> WorkingSet {
        WorkingSet {
            txn_type: TxnTypeId(id),
            relations: rels.iter().map(|r| RelationId(*r)).collect(),
            scanned: scanned.iter().map(|r| RelationId(*r)).collect(),
        }
    }

    /// A page table giving relation `r` the size `sizes[r]`.
    fn table(sizes: &[u64]) -> PageTable {
        PageTable::from(sizes.to_vec())
    }

    fn types_of(g: &TxnGroup) -> Vec<u32> {
        let mut t: Vec<u32> = g.types.iter().map(|t| t.0).collect();
        t.sort();
        t
    }

    #[test]
    fn every_type_lands_in_exactly_one_group() {
        let pages = table(&[50, 30, 80, 200]);
        let sets: Vec<WorkingSet> = (0..4).map(|i| ws(i, &[i])).collect();
        let groups = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
        let mut seen: Vec<u32> = groups
            .iter()
            .flat_map(|g| g.types.iter().map(|t| t.0))
            .collect();
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn oversized_type_becomes_overflow_group() {
        let pages = table(&[500, 10]);
        let sets = vec![ws(0, &[0]), ws(1, &[1])];
        let groups = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
        assert_eq!(groups.len(), 2);
        let overflow = groups.iter().find(|g| g.overflow).unwrap();
        assert_eq!(types_of(overflow), vec![0]);
        assert_eq!(overflow.estimate_pages, 500);
    }

    #[test]
    fn overflow_groups_accept_no_members() {
        // Type 1 would "fit" in the overflow bin arithmetically if overlap
        // were credited, but overflow bins are closed at packing time;
        // sharing only happens later through the allocator's merge step.
        let pages = table(&[500]);
        let sets = vec![ws(0, &[0]), ws(1, &[0])];
        let groups = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.overflow));
    }

    #[test]
    fn sc_credits_overlap_s_does_not() {
        let pages = table(&[60, 20, 20]);
        let sets = vec![ws(0, &[0, 1]), ws(1, &[0, 2])];
        let sc = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
        assert_eq!(sc.len(), 1);
        assert_eq!(sc[0].estimate_pages, 100); // 60 + 20 + 20
        let s = pack_groups(&sets, &pages, EstimationMode::Size, 100);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn scap_uses_scanned_only_and_overpacks() {
        // Each type references 90 pages but scans only 10: SCAP packs many
        // together where SC would not.
        let pages = table(&[80, 10, 80, 10, 80, 10]);
        let sets = vec![
            ws_scanned(0, &[0, 1], &[1]),
            ws_scanned(1, &[2, 3], &[3]),
            ws_scanned(2, &[4, 5], &[5]),
        ];
        let scap = pack_groups(&sets, &pages, EstimationMode::SizeContentAccessPattern, 100);
        assert_eq!(scap.len(), 1, "SCAP packs all three by their scans");
        let sc = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
        assert_eq!(sc.len(), 3, "SC sees the full 90-page footprints");
    }

    #[test]
    fn best_fit_prefers_maximal_overlap() {
        // Bin A = {0:40}, bin B = {1:40}. A new type {1:40, 2:10} overlaps B.
        let pages = table(&[40, 40, 10]);
        let sets = vec![ws(0, &[0]), ws(1, &[1]), ws(2, &[1, 2])];
        let groups = pack_groups(&sets, &pages, EstimationMode::SizeContent, 60);
        // Type 2 must share a group with type 1.
        let with2 = groups
            .iter()
            .find(|g| g.types.contains(&TxnTypeId(2)))
            .unwrap();
        assert!(with2.types.contains(&TxnTypeId(1)));
    }

    #[test]
    fn bfd_places_largest_first() {
        // Descending order matters: the 70-page type seeds the first bin.
        let pages = table(&[30, 70]);
        let sets = vec![ws(0, &[0]), ws(1, &[1])];
        let groups = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].types[0], TxnTypeId(1), "largest seeds first bin");
    }

    #[test]
    fn non_overflow_bins_respect_capacity() {
        let pages = PageTable::from((0..20).map(|i| 10 + (i * 7) % 60).collect::<Vec<u64>>());
        let sets: Vec<WorkingSet> = (0..20).map(|i| ws(i, &[i])).collect();
        for mode in [
            EstimationMode::Size,
            EstimationMode::SizeContent,
            EstimationMode::SizeContentAccessPattern,
        ] {
            let groups = pack_groups(&sets, &pages, mode, 100);
            for g in &groups {
                if !g.overflow {
                    assert!(g.estimate_pages <= 100, "{mode:?}: {g:?}");
                }
            }
        }
    }

    #[test]
    fn deterministic_for_equal_sizes() {
        let pages = table(&[50, 50, 50]);
        let sets = vec![ws(2, &[0]), ws(0, &[1]), ws(1, &[2])];
        let a = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
        let b = pack_groups(&sets, &pages, EstimationMode::SizeContent, 100);
        assert_eq!(a, b);
        // Ties broken by type id: type 0 placed before 1 before 2.
        assert_eq!(a[0].types[0], TxnTypeId(0));
    }

    #[test]
    fn empty_input_gives_no_groups() {
        let pages = PageTable::default();
        assert!(pack_groups(&[], &pages, EstimationMode::SizeContent, 100).is_empty());
    }
}
