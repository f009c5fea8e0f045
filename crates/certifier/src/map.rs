//! The relation → certifier-group map.

use tashkent_engine::WritesetItem;
use tashkent_storage::{RelationId, RelationSet, MAX_RELATIONS};

/// Hard cap on certifier groups: a request's touched groups are a `u64`
/// bitmask, inside the certifier and in the trace's `certify` events.
pub const MAX_CERT_GROUPS: usize = 64;

/// Assigns every relation to exactly one *certifier group* — the unit of
/// certification. The groups are relation sets (a workload's co-access
/// groups) folded down to at most `max_groups` groups; a relation shared by
/// several sets is owned by the lowest-indexed one, so ownership is a
/// function — each item has exactly one certifying group, which is what
/// makes the per-group votes of a cross-group round add up to the one
/// global conflict check.
///
/// The default map is the paper's deployment: one group owning everything.
#[derive(Debug, Clone)]
pub struct CertMap {
    n_groups: usize,
    /// Owning certifier group per relation id; unreferenced relations
    /// (never written) belong to group 0.
    owner: [u8; MAX_RELATIONS as usize],
}

impl Default for CertMap {
    fn default() -> Self {
        CertMap::build(&[], 1)
    }
}

impl CertMap {
    /// Builds the map from relation sets, folding them down to at most
    /// `max_groups` (clamped to `[1, MAX_CERT_GROUPS]`) groups round-robin
    /// by set index.
    pub fn build(sets: &[RelationSet], max_groups: usize) -> Self {
        let fold = sets.len().min(max_groups.clamp(1, MAX_CERT_GROUPS)).max(1);
        // The first relation set to claim a relation owns it.
        let mut owner = [0u8; MAX_RELATIONS as usize];
        let mut claimed = RelationSet::new();
        let mut owns_any = [false; MAX_CERT_GROUPS];
        for (idx, rels) in sets.iter().enumerate() {
            for rel in rels.difference(claimed).iter() {
                owner[rel.0 as usize] = (idx % fold) as u8;
                owns_any[idx % fold] = true;
            }
            claimed = claimed.union(*rels);
        }
        // Compact away groups left owning nothing (every relation of their
        // sets was claimed by a lower-indexed set): each surviving group
        // must own at least one relation or it would never see traffic.
        let mut remap = [0u8; MAX_CERT_GROUPS];
        let mut n_groups = 0;
        for (g, owns) in owns_any[..fold].iter().enumerate() {
            if *owns {
                remap[g] = n_groups as u8;
                n_groups += 1;
            }
        }
        for rel in claimed.iter() {
            owner[rel.0 as usize] = remap[owner[rel.0 as usize] as usize];
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
        self.owner.get(rel.0 as usize).map_or(0, |g| *g as usize)
    }

    /// Bitmask of the certifier groups `items` touch; never 0. An empty
    /// writeset certifies against group 0 (any single group works; 0 is
    /// canonical).
    pub fn mask_for(&self, items: &[WritesetItem]) -> u64 {
        if items.is_empty() {
            return 1;
        }
        items
            .iter()
            .fold(0, |mask, item| mask | 1 << self.group_of_rel(item.rel()))
    }
}

/// The group indices set in a touched-groups bitmask, ascending.
pub(crate) fn group_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let g = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            g
        })
    })
}
