//! LARD: locality-aware request distribution (PAB+98), the paper's stronger
//! baseline (§4.3).
//!
//! LARD "knows only the transaction type and dispatches a transaction to a
//! replica where instances of the same transaction type have recently run".
//! This is the replica-set variant of the original algorithm: each type has
//! a server set; a request goes to the least-loaded member, and when that
//! member is overloaded while some cluster node is lightly loaded (or the
//! member is severely overloaded), the lightly-loaded node joins the set.
//! Load here is the balancer-visible outstanding-connection count — LARD has
//! no working-set information, which is exactly the limitation Tashkent+
//! targets.

use std::collections::HashMap;

use tashkent_engine::TxnTypeId;

use crate::types::ReplicaId;

/// LARD thresholds, in outstanding connections per replica.
#[derive(Debug, Clone, Copy)]
pub struct LardConfig {
    /// A set member above this is considered overloaded.
    pub t_high: usize,
    /// A cluster node below this is lightly loaded and may join a set.
    pub t_low: usize,
    /// A set member at or above `2 × t_high` forces set growth regardless
    /// of cluster state (severe overload, as in PAB+98).
    pub severe_factor: usize,
}

impl Default for LardConfig {
    /// Defaults scaled to a database MPL of ~8 (the original paper used
    /// 65/25 for web servers with hundreds of connections): a home replica
    /// with a Gatekeeper-deep queue counts as overloaded.
    fn default() -> Self {
        LardConfig {
            t_high: 6,
            t_low: 3,
            severe_factor: 2,
        }
    }
}

/// LARD dispatcher state.
#[derive(Debug, Clone)]
pub struct Lard {
    config: LardConfig,
    sets: HashMap<TxnTypeId, Vec<ReplicaId>>,
    replicas: usize,
}

impl Lard {
    /// Creates a LARD dispatcher over `replicas` nodes.
    pub fn new(replicas: usize, config: LardConfig) -> Self {
        Lard {
            config,
            sets: HashMap::new(),
            replicas,
        }
    }

    /// The server set currently assigned to `txn_type` (empty slice if the
    /// type has not been seen).
    pub fn server_set(&self, txn_type: TxnTypeId) -> &[ReplicaId] {
        self.sets.get(&txn_type).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Chooses a replica for `txn_type` given per-replica outstanding
    /// connection counts (`conns[i]` for replica `i`), among the replicas
    /// `servable` accepts: a member that is not servable is passed over,
    /// and a set with no servable member grows by the cluster's
    /// least-loaded servable replica.
    ///
    /// # Panics
    ///
    /// Panics if no replica is servable.
    pub fn dispatch(
        &mut self,
        txn_type: TxnTypeId,
        conns: &[usize],
        servable: impl Fn(usize) -> bool,
    ) -> ReplicaId {
        debug_assert_eq!(conns.len(), self.replicas);
        let cluster_least = least_loaded(conns, &servable);
        let set = self.sets.entry(txn_type).or_default();
        // Least-loaded servable member of the set.
        let Some(member) = set
            .iter()
            .copied()
            .filter(|r| servable(r.0))
            .min_by_key(|r| (conns[r.0], r.0))
        else {
            set.push(cluster_least);
            return cluster_least;
        };
        let member_load = conns[member.0];
        let grow = (member_load > self.config.t_high && conns[cluster_least.0] < self.config.t_low)
            || member_load >= self.config.severe_factor * self.config.t_high;
        if grow && !set.contains(&cluster_least) {
            set.push(cluster_least);
            return cluster_least;
        }
        member
    }

    /// Removes `replica` from every server set (used when a replica fails).
    pub fn remove_replica(&mut self, replica: ReplicaId) {
        for set in self.sets.values_mut() {
            set.retain(|r| *r != replica);
        }
    }
}

/// Least-loaded `servable` replica by connection count, ties to the
/// lowest id.
///
/// # Panics
///
/// Panics if no replica is servable.
pub(crate) fn least_loaded(conns: &[usize], servable: impl Fn(usize) -> bool) -> ReplicaId {
    conns
        .iter()
        .enumerate()
        .filter(|(i, _)| servable(*i))
        .min_by_key(|(i, c)| (**c, *i))
        .map(|(i, _)| ReplicaId(i))
        .expect("no servable replica")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lard(n: usize) -> Lard {
        Lard::new(n, LardConfig::default())
    }

    #[test]
    fn first_dispatch_assigns_least_loaded() {
        let mut l = lard(4);
        let conns = [3, 1, 2, 5];
        let r = l.dispatch(TxnTypeId(0), &conns, |_| true);
        assert_eq!(r, ReplicaId(1));
        assert_eq!(l.server_set(TxnTypeId(0)), &[ReplicaId(1)]);
    }

    #[test]
    fn repeat_dispatches_stick_to_home() {
        let mut l = lard(4);
        let conns = [0, 0, 0, 0];
        let home = l.dispatch(TxnTypeId(7), &conns, |_| true);
        for _ in 0..10 {
            // Home moderately loaded but under T_high: stays.
            let mut c = [3, 3, 3, 3];
            c[home.0] = 5;
            assert_eq!(l.dispatch(TxnTypeId(7), &c, |_| true), home);
        }
    }

    #[test]
    fn overload_with_idle_node_grows_set() {
        let mut l = lard(3);
        let home = l.dispatch(TxnTypeId(1), &[0, 6, 6], |_| true);
        assert_eq!(home, ReplicaId(0));
        // Home above T_high (12) and replica 2 below T_low (4).
        let r = l.dispatch(TxnTypeId(1), &[13, 9, 2], |_| true);
        assert_eq!(r, ReplicaId(2));
        assert_eq!(
            l.server_set(TxnTypeId(1)),
            &[ReplicaId(0), ReplicaId(2)],
            "set grew"
        );
    }

    #[test]
    fn moderate_load_does_not_grow_set() {
        let mut l = lard(3);
        l.dispatch(TxnTypeId(1), &[0, 0, 0], |_| true);
        // Home above T_high (6) but below severe (12), and no node under
        // T_low (3): the set stays.
        let r = l.dispatch(TxnTypeId(1), &[8, 4, 4], |_| true);
        assert_eq!(r, ReplicaId(0));
        assert_eq!(l.server_set(TxnTypeId(1)).len(), 1);
    }

    #[test]
    fn severe_overload_forces_growth() {
        let mut l = lard(3);
        l.dispatch(TxnTypeId(1), &[0, 0, 0], |_| true);
        // Home at 24 = 2×T_high: grows even though no node is under T_low.
        let r = l.dispatch(TxnTypeId(1), &[24, 6, 5], |_| true);
        assert_eq!(r, ReplicaId(2));
    }

    #[test]
    fn dispatch_goes_to_least_loaded_member() {
        let mut l = lard(4);
        l.dispatch(TxnTypeId(0), &[0, 9, 9, 9], |_| true); // home = 0
        l.dispatch(TxnTypeId(0), &[13, 9, 9, 1], |_| true); // grows to {0, 3}
                                                            // Member 3 lighter than member 0 → dispatch to 3.
        assert_eq!(
            l.dispatch(TxnTypeId(0), &[8, 9, 9, 2], |_| true),
            ReplicaId(3)
        );
        // Member 0 lighter → back to 0.
        assert_eq!(
            l.dispatch(TxnTypeId(0), &[1, 9, 9, 6], |_| true),
            ReplicaId(0)
        );
    }

    #[test]
    fn types_get_independent_sets() {
        let mut l = lard(2);
        let a = l.dispatch(TxnTypeId(0), &[0, 1], |_| true);
        let b = l.dispatch(TxnTypeId(1), &[5, 1], |_| true);
        assert_eq!(a, ReplicaId(0));
        assert_eq!(b, ReplicaId(1));
        assert_ne!(l.server_set(TxnTypeId(0)), l.server_set(TxnTypeId(1)));
    }

    #[test]
    fn remove_replica_purges_sets() {
        let mut l = lard(2);
        l.dispatch(TxnTypeId(0), &[0, 5], |_| true);
        l.remove_replica(ReplicaId(0));
        assert!(l.server_set(TxnTypeId(0)).is_empty());
        // Next dispatch re-homes the type.
        let r = l.dispatch(TxnTypeId(0), &[0, 5], |_| true);
        assert_eq!(r, ReplicaId(0));
    }
}
