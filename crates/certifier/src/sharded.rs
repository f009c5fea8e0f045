//! Per-relation-group certification shards.
//!
//! Sharded certification (Sutra & Shapiro direction) splits the single
//! certifier's serial service queue into one queue per relation group, so
//! checks for different groups no longer wait behind one another. A shard
//! holds only that queue and its leader's failover horizon; it answers "when
//! does this check's CPU work finish?" — the part a driver may run on a pool
//! worker, since it depends only on the order of the group's checks.
//!
//! The conflict verdict stays with the coordinator-side decide step, next to
//! the global log, version assignment and durability accounting: it scans
//! the log entries committed after the writeset's snapshot
//! ([`crate::CommitLog::conflicts`]). Every item belongs to exactly one
//! group, so that one scan equals the OR of per-group votes, each checking
//! only the items its group owns — for a single-group request and for a
//! cross-group atomic-commitment round alike.

use tashkent_sim::SimTime;

use crate::certifier::CertifierParams;

/// When one shard-local check's CPU work ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCheck {
    /// When the check's CPU work completed on this shard.
    pub checked_at: SimTime,
    /// The arrival time after waiting out a failover gap
    /// (`now.max(available_at)`).
    pub eff_now: SimTime,
}

/// One relation group's serial certification queue.
///
/// With a single group this degenerates to exactly [`crate::Certifier`]'s
/// service model, so check-completion times are bit-identical (the decide
/// step reproduces the verdict, version and durability half).
#[derive(Debug, Clone)]
pub struct CertShard {
    params: CertifierParams,
    /// Completion horizon of this shard's certification CPU.
    busy_until: SimTime,
    /// Earliest time this shard's leader serves (failover gaps).
    available_at: SimTime,
}

impl CertShard {
    /// Creates an idle shard with the given service parameters.
    pub fn new(params: CertifierParams) -> Self {
        CertShard {
            params,
            busy_until: SimTime::ZERO,
            available_at: SimTime::ZERO,
        }
    }

    /// Earliest serving time (failover gaps push it forward).
    pub fn available_at(&self) -> SimTime {
        self.available_at
    }

    /// Pushes the serving horizon forward after a leader failover.
    pub fn set_available_at(&mut self, at: SimTime) {
        self.available_at = self.available_at.max(at);
    }

    /// Charges one check's CPU time, arriving at `now`, against this
    /// shard's serial queue.
    pub fn reserve_check(&mut self, now: SimTime) -> ShardCheck {
        let eff_now = now.max(self.available_at);
        let start = self.busy_until.max(eff_now);
        let checked_at = start + self.params.check_us;
        self.busy_until = checked_at;
        ShardCheck {
            checked_at,
            eff_now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::{Certifier, CertifyOutcome};
    use crate::log::CommitLog;
    use tashkent_engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
    use tashkent_storage::RelationId;

    fn ws(txn: u64, snap: u64, items: &[(u32, u64)]) -> Writeset {
        Writeset::new(
            TxnId(txn),
            TxnTypeId(0),
            Snapshot::at(Version(snap)),
            items
                .iter()
                .map(|&(r, row)| WritesetItem::new(RelationId(r), row))
                .collect(),
        )
    }

    /// The 1-group degenerate case must reproduce [`Certifier::certify`]
    /// bit for bit: same outcomes, same versions, same durability times —
    /// with the shard reserving the check and a hand-rolled coordinator
    /// doing the decide (log scan, global version, group-commit
    /// durability).
    #[test]
    fn one_group_shard_matches_the_unified_certifier_exactly() {
        let params = CertifierParams::default();
        let mut unified = Certifier::new(params);
        let mut shard = CertShard::new(params);
        let mut log = CommitLog::default();

        // A sequence with commits, conflicts (stale snapshots on hot rows),
        // empties, and bursty same-instant arrivals.
        type Req = (u64, u64, Vec<(u32, u64)>);
        let reqs: Vec<Req> = vec![
            (1, 0, vec![(0, 1), (1, 5)]),
            (2, 0, vec![(0, 1)]), // conflict with txn 1
            (3, 1, vec![(0, 1)]), // fresh snapshot, same row: fine
            (4, 0, vec![]),       // read-only
            (5, 1, vec![(2, 9)]),
            (6, 1, vec![(1, 5)]),         // conflict with txn 1
            (7, 3, vec![(0, 1), (2, 9)]), // fresh again
        ];
        for (i, (txn, snap, items)) in reqs.into_iter().enumerate() {
            let now = SimTime::from_micros(30 * (i as u64 / 2));
            let w = ws(txn, snap, &items);
            let expected = unified.certify(now, w.clone());

            let check = shard.reserve_check(now);
            let got = if log.conflicts(w.snapshot.version, &w.items) {
                CertifyOutcome::Conflict
            } else if w.is_empty() {
                CertifyOutcome::Committed {
                    version: log.head(),
                    durable_at: check.checked_at,
                }
            } else {
                let win = params.group_window_us.max(1);
                let boundary = check.checked_at.as_micros().div_ceil(win) * win;
                CertifyOutcome::Committed {
                    version: log.append(&w.items),
                    durable_at: SimTime::from_micros(boundary + params.log_write_us),
                }
            };
            assert_eq!(got, expected, "request {txn} diverged");
        }
        assert_eq!(log.head(), unified.version());
    }

    #[test]
    fn availability_gap_defers_service_not_arrival() {
        let mut s = CertShard::new(CertifierParams::default());
        s.set_available_at(SimTime::from_millis(200));
        let out = s.reserve_check(SimTime::from_micros(10));
        assert_eq!(out.eff_now, SimTime::from_millis(200));
        assert_eq!(out.checked_at, SimTime::from_millis(200) + 50);
        // Pushing availability backwards is a no-op (max semantics).
        s.set_available_at(SimTime::from_millis(100));
        assert_eq!(s.available_at(), SimTime::from_millis(200));
    }

    #[test]
    fn serial_service_queues_checks_within_the_shard() {
        let params = CertifierParams {
            check_us: 1_000,
            log_write_us: 0,
            group_window_us: 1,
        };
        let mut s = CertShard::new(params);
        let first = s.reserve_check(SimTime::ZERO);
        let second = s.reserve_check(SimTime::ZERO);
        assert_eq!(first.checked_at.as_micros(), 1_000);
        assert_eq!(second.checked_at.as_micros(), 2_000);
        assert_eq!(second.eff_now, SimTime::ZERO);
    }
}
