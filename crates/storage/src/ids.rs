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

    /// Returns `true` when `other` is the immediately following page of the
    /// same relation — the condition under which a disk read continues a
    /// sequential transfer instead of seeking.
    pub fn is_sequential_successor_of(&self, other: &GlobalPageId) -> bool {
        self.rel == other.rel && other.page.checked_add(1) == Some(self.page)
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
    fn sequential_successor_detection() {
        let r = RelationId(3);
        let a = GlobalPageId::new(r, 10);
        let b = GlobalPageId::new(r, 11);
        assert!(b.is_sequential_successor_of(&a));
        assert!(!a.is_sequential_successor_of(&b));
        assert!(!a.is_sequential_successor_of(&a));
    }

    #[test]
    fn successor_requires_same_relation() {
        let a = GlobalPageId::new(RelationId(1), 10);
        let b = GlobalPageId::new(RelationId(2), 11);
        assert!(!b.is_sequential_successor_of(&a));
    }

    #[test]
    fn successor_handles_page_overflow() {
        let a = GlobalPageId::new(RelationId(1), u32::MAX);
        let b = GlobalPageId::new(RelationId(1), 0);
        assert!(!b.is_sequential_successor_of(&a));
    }

    #[test]
    fn display_formats() {
        assert_eq!(GlobalPageId::new(RelationId(2), 7).to_string(), "rel2:7");
    }
}
