//! Identifier types shared across the storage and engine layers.

use std::fmt;

/// Size of a database page in bytes (PostgreSQL default, paper §4.2.2).
pub const PAGE_SIZE: u64 = 8 * 1024;

/// Most relations one schema may hold. The buffer pool packs a page into a
/// `u32` frame word: the relation id takes the top 8 bits, and id 255 is
/// reserved to mark free frames, so relation ids run from 0 to 254.
pub const MAX_RELATIONS: u32 = 255;

/// Most pages one relation may hold: the page number takes the low 24 bits
/// of the buffer pool's frame word.
pub const MAX_RELATION_PAGES: PageId = 1 << 24;

/// Identifies a relation (table or index) within a database schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationId(pub u32);

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rel{}", self.0)
    }
}

/// A set of relations: one bit per relation id in four 64-bit words.
///
/// The per-replica table sets of update filtering (§3) and partial
/// replication are small subsets of one schema, and the hot paths ask
/// "is this relation in the set" once per writeset item, so the set is a
/// `Copy` bitmap rather than a tree: membership is one bit test, and the
/// set algebra the placement layer needs is four word operations.
/// Iteration runs in ascending id order, as a `BTreeSet` iterates.
///
/// ```
/// use tashkent_storage::{RelationId, RelationSet};
///
/// let a: RelationSet = [RelationId(3), RelationId(200)].into_iter().collect();
/// let b: RelationSet = [RelationId(3)].into_iter().collect();
/// assert!(b.is_subset(a) && a.intersects(b));
/// assert_eq!(a.difference(b).iter().collect::<Vec<_>>(), [RelationId(200)]);
/// assert!(!a.contains(RelationId(10_000)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct RelationSet([u64; 4]);

const _: () = assert!(MAX_RELATIONS <= 256, "RelationSet holds 256 relation ids");

impl RelationSet {
    /// The empty set.
    pub const fn new() -> Self {
        RelationSet([0; 4])
    }

    /// Adds `rel`; returns whether it was not already a member.
    ///
    /// # Panics
    ///
    /// Panics if `rel` is at or above [`MAX_RELATIONS`], which no catalog
    /// can hand out.
    pub fn insert(&mut self, rel: RelationId) -> bool {
        assert!(rel.0 < MAX_RELATIONS, "relation id {} out of range", rel.0);
        let (word, bit) = (rel.0 as usize / 64, 1u64 << (rel.0 % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Removes `rel`; returns whether it was a member.
    pub fn remove(&mut self, rel: RelationId) -> bool {
        let was = self.contains(rel);
        if was {
            self.0[rel.0 as usize / 64] &= !(1u64 << (rel.0 % 64));
        }
        was
    }

    /// Whether `rel` is a member; `false` for any id outside the catalog
    /// range.
    pub fn contains(self, rel: RelationId) -> bool {
        self.0
            .get(rel.0 as usize / 64)
            .is_some_and(|w| w >> (rel.0 % 64) & 1 != 0)
    }

    /// Whether the set has no members.
    pub fn is_empty(self) -> bool {
        self.0 == [0; 4]
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The members in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = RelationId> {
        Members { set: self, word: 0 }
    }

    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        RelationSet(std::array::from_fn(|i| f(self.0[i], other.0[i])))
    }

    /// Members of either set.
    pub fn union(self, other: Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Members of both sets.
    pub fn intersection(self, other: Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Members of `self` that are not in `other`.
    pub fn difference(self, other: Self) -> Self {
        self.zip(other, |a, b| a & !b)
    }

    /// Whether every member of `self` is in `other`.
    pub fn is_subset(self, other: Self) -> bool {
        self.difference(other).is_empty()
    }

    /// Whether the sets share a member.
    pub fn intersects(self, other: Self) -> bool {
        !self.intersection(other).is_empty()
    }
}

/// Iterator over a [`RelationSet`]'s members, in ascending id order: the
/// remaining bits of the set and the word they are taken from.
struct Members {
    set: RelationSet,
    word: usize,
}

impl Iterator for Members {
    type Item = RelationId;

    fn next(&mut self) -> Option<RelationId> {
        while let Some(w) = self.set.0.get_mut(self.word) {
            if *w != 0 {
                let bit = w.trailing_zeros();
                *w &= *w - 1;
                return Some(RelationId(self.word as u32 * 64 + bit));
            }
            self.word += 1;
        }
        None
    }
}

impl FromIterator<RelationId> for RelationSet {
    fn from_iter<I: IntoIterator<Item = RelationId>>(iter: I) -> Self {
        let mut set = RelationSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<RelationId> for RelationSet {
    fn extend<I: IntoIterator<Item = RelationId>>(&mut self, iter: I) {
        for rel in iter {
            self.insert(rel);
        }
    }
}

impl fmt::Debug for RelationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A page number local to one relation (0-based).
pub type PageId = u32;

/// A row number local to one relation (0-based).
pub type RowId = u64;

/// Identifies a page globally: a relation plus a page within it.
///
/// All replicas share the same logical page identifiers because they store
/// identical (fully replicated) databases; each replica's buffer pool caches
/// its own subset of these pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalPageId {
    /// The relation this page belongs to.
    pub rel: RelationId,
    /// Page number within the relation.
    pub page: PageId,
}

impl GlobalPageId {
    /// Creates a global page id.
    pub fn new(rel: RelationId, page: PageId) -> Self {
        GlobalPageId { rel, page }
    }
}

impl fmt::Display for GlobalPageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.rel, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(GlobalPageId::new(RelationId(2), 7).to_string(), "rel2:7");
    }
}
