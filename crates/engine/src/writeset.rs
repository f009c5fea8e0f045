//! Writesets: the unit of update propagation and certification.
//!
//! A writeset is "the core information required to reflect the effects of an
//! update transaction's changes" (§4.1, citing Kemme & Alonso). Here it is
//! the list of (relation, row) pairs the transaction wrote, plus enough
//! metadata to certify it (the snapshot it read from) and to apply it at
//! remote replicas (page locations derive from the catalog). The paper
//! reports an average writeset size of ~275 bytes; the byte model below
//! reproduces that for the TPC-W write shapes.

use tashkent_storage::RelationId;

use crate::types::{Snapshot, TxnId, TxnTypeId};

/// Serialized-size model: fixed header bytes per writeset.
pub const WS_HEADER_BYTES: u64 = 64;
/// Serialized-size model: bytes per written row (identifiers + new values).
pub const WS_ITEM_BYTES: u64 = 70;

/// One written row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WritesetItem {
    /// Relation written.
    pub rel: RelationId,
    /// Row written.
    pub row: u64,
}

/// The writeset of one update transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Writeset {
    /// Transaction instance that produced it.
    pub txn: TxnId,
    /// Transaction type (used by update filtering and metrics).
    pub txn_type: TxnTypeId,
    /// Snapshot the transaction read from (certification input).
    pub snapshot: Snapshot,
    /// Written rows, sorted and deduplicated.
    pub items: Vec<WritesetItem>,
}

impl Writeset {
    /// Builds a writeset, normalizing items (sorted, deduplicated).
    pub fn new(
        txn: TxnId,
        txn_type: TxnTypeId,
        snapshot: Snapshot,
        mut items: Vec<WritesetItem>,
    ) -> Self {
        items.sort_unstable();
        items.dedup();
        Writeset {
            txn,
            txn_type,
            snapshot,
            items,
        }
    }

    /// Whether the writeset is empty (a read-only transaction; never
    /// certified).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Serialized size in bytes under the paper's ~275 B average model.
    pub fn bytes(&self) -> u64 {
        WS_HEADER_BYTES + self.items.len() as u64 * WS_ITEM_BYTES
    }

    /// Relations this writeset touches, deduplicated, in sorted order.
    pub fn relations(&self) -> Vec<RelationId> {
        let mut rels: Vec<RelationId> = self.items.iter().map(|i| i.rel).collect();
        rels.dedup(); // Items are sorted by (rel, row), so dedup suffices.
        rels
    }

    /// Whether two writesets write any common row (write-write conflict).
    pub fn conflicts_with(&self, other: &Writeset) -> bool {
        items_intersect(&self.items, &other.items)
    }

    /// Restricts the writeset to relations accepted by `keep`, returning the
    /// filtered items. This is the proxy-side half of update filtering (§3):
    /// the proxy "only forwards the writesets for those tables to the
    /// replica".
    pub fn filtered(&self, keep: impl Fn(RelationId) -> bool) -> Vec<WritesetItem> {
        self.items.iter().copied().filter(|i| keep(i.rel)).collect()
    }
}

/// Whether two sorted item lists share an item: a linear merge that stops
/// at the first common row or when either list runs out.
pub fn items_intersect(a: &[WritesetItem], b: &[WritesetItem]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Version;

    fn ws(items: Vec<(u32, u64)>) -> Writeset {
        Writeset::new(
            TxnId(1),
            TxnTypeId(0),
            Snapshot::at(Version(0)),
            items
                .into_iter()
                .map(|(r, row)| WritesetItem {
                    rel: RelationId(r),
                    row,
                })
                .collect(),
        )
    }

    #[test]
    fn items_are_normalized() {
        let w = ws(vec![(2, 5), (1, 9), (2, 5), (1, 3)]);
        let rows: Vec<(u32, u64)> = w.items.iter().map(|i| (i.rel.0, i.row)).collect();
        assert_eq!(rows, vec![(1, 3), (1, 9), (2, 5)]);
    }

    #[test]
    fn conflict_requires_same_row() {
        let a = ws(vec![(1, 5), (2, 7)]);
        let b = ws(vec![(1, 6), (2, 7)]);
        let c = ws(vec![(1, 6), (3, 7)]);
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a), "conflict must be symmetric");
        assert!(!a.conflicts_with(&c));
        assert!(!c.conflicts_with(&a));
    }

    #[test]
    fn empty_writeset_never_conflicts() {
        let a = ws(vec![]);
        let b = ws(vec![(1, 1)]);
        assert!(a.is_empty());
        assert!(!a.conflicts_with(&b));
        assert!(!b.conflicts_with(&a));
    }

    #[test]
    fn byte_model_matches_paper_scale() {
        // A typical TPC-W update writes ~3 rows → ~274 B, matching the
        // paper's reported 275 B average.
        let w = ws(vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(w.bytes(), WS_HEADER_BYTES + 3 * WS_ITEM_BYTES);
        assert!((200..350).contains(&w.bytes()));
    }

    #[test]
    fn relations_are_deduplicated() {
        let w = ws(vec![(2, 1), (1, 4), (1, 2), (2, 9)]);
        assert_eq!(w.relations(), vec![RelationId(1), RelationId(2)]);
    }

    #[test]
    fn filtered_drops_other_relations() {
        let w = ws(vec![(1, 1), (2, 2), (3, 3)]);
        let kept = w.filtered(|r| r.0 != 2);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|i| i.rel != RelationId(2)));
    }
}
