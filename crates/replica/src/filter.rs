//! Update filter: the proxy-side table list for update filtering (§3).
//!
//! When update filtering is enabled, the load balancer sends each proxy the
//! list of tables for which the replica should receive remote writesets;
//! the proxy forwards only those writesets to the database. Tables outside
//! the list go out of date at this replica and can be dropped from its
//! cache entirely.

use tashkent_storage::{RelationId, RelationSet};

/// The set of relations a replica keeps up to date.
///
/// `UpdateFilter::all()` is the pass-through default (no filtering, the base
/// Tashkent behaviour). The table list is a [`RelationSet`] bitmap, so the
/// filter is `Copy` and [`UpdateFilter::accepts`], asked once per applied
/// writeset item, tests one bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateFilter {
    /// Accept updates to every relation (filtering disabled).
    #[default]
    All,
    /// Accept updates only to these relations.
    Only(RelationSet),
}

impl UpdateFilter {
    /// Pass-through filter.
    pub fn all() -> Self {
        UpdateFilter::All
    }

    /// Filter accepting exactly `rels`.
    pub fn only(rels: impl IntoIterator<Item = RelationId>) -> Self {
        UpdateFilter::Only(rels.into_iter().collect())
    }

    /// Whether updates to `rel` are applied at this replica.
    pub fn accepts(&self, rel: RelationId) -> bool {
        match self {
            UpdateFilter::All => true,
            UpdateFilter::Only(set) => set.contains(rel),
        }
    }

    /// Whether filtering is active.
    pub fn is_filtering(&self) -> bool {
        matches!(self, UpdateFilter::Only(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_accepts_everything() {
        let f = UpdateFilter::all();
        assert!(f.accepts(RelationId(0)));
        assert!(f.accepts(RelationId(999)));
        assert!(!f.is_filtering());
    }

    #[test]
    fn only_accepts_members() {
        let f = UpdateFilter::only([RelationId(1), RelationId(3)]);
        assert!(f.accepts(RelationId(1)));
        assert!(!f.accepts(RelationId(2)));
        assert!(f.accepts(RelationId(3)));
        assert!(f.is_filtering());
    }

    #[test]
    fn empty_only_filter_rejects_all() {
        let f = UpdateFilter::only(std::iter::empty());
        assert!(!f.accepts(RelationId(0)));
    }
}
