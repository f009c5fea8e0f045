//! Writesets: the unit of update propagation and certification.
//!
//! A writeset is "the core information required to reflect the effects of an
//! update transaction's changes" (§4.1, citing Kemme & Alonso). Here it is
//! the list of (relation, row) pairs the transaction wrote, plus enough
//! metadata to certify it (the snapshot it read from) and to apply it at
//! remote replicas (page locations derive from the catalog). The paper
//! reports an average writeset size of ~275 bytes; the byte model below
//! reproduces that for the TPC-W write shapes.

use std::fmt;

use tashkent_storage::{RelationId, RowId, MAX_RELATIONS};

use crate::types::{Snapshot, TxnId, TxnTypeId};

/// Serialized-size model: fixed header bytes per writeset.
pub const WS_HEADER_BYTES: u64 = 64;
/// Serialized-size model: bytes per written row (identifiers + new values).
pub const WS_ITEM_BYTES: u64 = 70;

/// Bits of a [`WritesetItem`] that hold the row.
const ROW_BITS: u32 = 56;

/// One written row, packed into one word: the relation id in the top 8 bits
/// and the row in the low 56.
///
/// The derived order on the word is (relation, row) order, so sorting,
/// deduplication and [`items_intersect`] compare one word per item. Rows
/// fit with room to spare: inserts draw row ids from below `rows + 2^40`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WritesetItem(u64);

const _: () = assert!(std::mem::size_of::<WritesetItem>() == 8);
const _: () = assert!(MAX_RELATIONS as u64 <= 1 << (u64::BITS - ROW_BITS));

impl WritesetItem {
    /// The item for `row` of `rel`.
    ///
    /// # Panics
    ///
    /// Panics if `rel` is not below [`MAX_RELATIONS`] or `row` not below
    /// 2^56.
    pub fn new(rel: RelationId, row: RowId) -> Self {
        assert!(
            rel.0 < MAX_RELATIONS && row >> ROW_BITS == 0,
            "writeset item {rel}:{row} does not pack: relation ids must be \
             below {MAX_RELATIONS} and rows below 2^{ROW_BITS}"
        );
        WritesetItem(u64::from(rel.0) << ROW_BITS | row)
    }

    /// Relation written.
    pub fn rel(self) -> RelationId {
        RelationId((self.0 >> ROW_BITS) as u32)
    }

    /// Row written.
    pub fn row(self) -> RowId {
        self.0 & ((1 << ROW_BITS) - 1)
    }
}

impl fmt::Debug for WritesetItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WritesetItem")
            .field("rel", &self.rel())
            .field("row", &self.row())
            .finish()
    }
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

    /// Whether two writesets write any common row (write-write conflict).
    pub fn conflicts_with(&self, other: &Writeset) -> bool {
        items_intersect(&self.items, &other.items)
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
    use proptest::prelude::*;

    fn ws(items: Vec<(u32, u64)>) -> Writeset {
        Writeset::new(
            TxnId(1),
            TxnTypeId(0),
            Snapshot::at(Version(0)),
            items
                .into_iter()
                .map(|(r, row)| WritesetItem::new(RelationId(r), row))
                .collect(),
        )
    }

    #[test]
    fn items_are_normalized() {
        let w = ws(vec![(2, 5), (1, 9), (2, 5), (1, 3)]);
        let rows: Vec<(u32, u64)> = w.items.iter().map(|i| (i.rel().0, i.row())).collect();
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

    proptest! {
        /// Packing keeps both fields, and the word's order is (relation,
        /// row) order, which sorting, deduplication and conflict scans
        /// rely on.
        #[test]
        fn packing_round_trips_and_orders_by_relation_then_row(
            a in (0..MAX_RELATIONS, 0..1u64 << ROW_BITS),
            b in (0..MAX_RELATIONS, 0..1u64 << ROW_BITS),
        ) {
            let item = |(rel, row): (u32, u64)| WritesetItem::new(RelationId(rel), row);
            for (rel, row) in [a, b] {
                prop_assert_eq!(item((rel, row)).rel(), RelationId(rel));
                prop_assert_eq!(item((rel, row)).row(), row);
            }
            // Also compare within one relation, which random draws rarely do.
            for (x, y) in [(a, b), (a, (a.0, b.1))] {
                prop_assert_eq!(item(x).cmp(&item(y)), x.cmp(&y));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not pack")]
    fn relation_255_rejected() {
        WritesetItem::new(RelationId(MAX_RELATIONS), 0);
    }

    #[test]
    #[should_panic(expected = "does not pack")]
    fn row_2_pow_56_rejected() {
        WritesetItem::new(RelationId(0), 1 << 56);
    }
}
