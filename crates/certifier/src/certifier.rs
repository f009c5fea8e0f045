//! Certification and the global commit log.

use tashkent_engine::{Version, Writeset};
use tashkent_sim::{fnv1a_fold, SimTime, FNV1A_BASIS};

use crate::log::CommitLog;
use crate::map::{group_bits, CertMap};

/// Timing parameters for the certifier's service model.
#[derive(Debug, Clone, Copy)]
pub struct CertifierParams {
    /// CPU time to run one conflict check, in µs.
    pub check_us: u64,
    /// Latency of one group-commit log write, in µs.
    pub log_write_us: u64,
    /// Width of the group-commit window, in µs: checks completing within the
    /// same window share one log write.
    pub group_window_us: u64,
}

impl Default for CertifierParams {
    /// ~50 µs check, ~1 ms log write, 2 ms group-commit window.
    fn default() -> Self {
        CertifierParams {
            check_us: 50,
            log_write_us: 1_000,
            group_window_us: 2_000,
        }
    }
}

/// Counters describing certifier activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct CertifierStats {
    /// Writesets certified successfully.
    pub committed: u64,
    /// Writesets rejected for write-write conflicts.
    pub conflicts: u64,
    /// Total bytes appended to the persistent log.
    pub log_bytes: u64,
}

/// Outcome of certifying one writeset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifyOutcome {
    /// No conflict: the writeset is committed at `version` and will be
    /// durable at `durable_at`.
    Committed {
        /// Assigned global commit version.
        version: Version,
        /// When the group-commit log write completes.
        durable_at: SimTime,
    },
    /// A write-write conflict with a transaction committed after the
    /// writeset's snapshot; the transaction must abort.
    Conflict,
}

/// A certification answer as it leaves the certifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// The commit version, or `None` for a write-write conflict. An empty
    /// writeset commits at the current head without consuming a version.
    pub version: Option<Version>,
    /// When the answer leaves the certifier: a commit once its group-commit
    /// log write is durable, an empty writeset once checked, a conflict on
    /// arrival at a lone group or at the decide of a cross-group round.
    pub at: SimTime,
    /// The arrival time after waiting out the touched groups' failover
    /// gaps and control-plane occupancy.
    pub arrived: SimTime,
}

/// One certifier group's commit accounting, updated at each commit. A
/// cross-group commit counts in every group it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommits {
    /// Versions the group took.
    pub commits: u64,
    /// The last version the group took (`Version(0)` before its first).
    pub last: Version,
    /// 64-bit FNV-1a fold ([`fnv1a_fold`]) of the versions the group took,
    /// in commit order.
    pub digest: u64,
}

/// One certifier group's serial check queue.
#[derive(Debug, Clone, Copy, Default)]
struct GroupQueue {
    /// Completion horizon of the group's certification CPU.
    busy_until: SimTime,
    /// Earliest time the group serves (failover gaps, NIC occupancy).
    available_at: SimTime,
}

/// The certification engine: one serial check queue per certifier group in
/// front of one persistent commit log that fixes the global commit order.
///
/// Certification under GSI: a writeset with snapshot version `s` commits iff
/// no writeset with version `> s` intersects it (write-write conflict
/// detection, §4.1). The check scans the log entries committed since the
/// snapshot, as the paper states it; that suffix is short (tens of entries
/// on the TPC-W mixes). The log is the paper's persistent log, also used
/// for propagation and replica recovery. Its durability timing (group
/// commit plus the log write) and its size ([`CertifierStats::log_bytes`])
/// are modelled in full, while host memory keeps only the suffix above the
/// floor its owner passes to [`Certifier::trim`]: the oldest position a
/// replica, a snapshot or a pending request can still ask for. The cluster
/// keeps the floor at 0 under partial placement, whose backfills replay
/// from version 0.
///
/// Every relation belongs to exactly one group ([`CertMap`]). A writeset
/// touching one group queues only behind that group's checks. One touching
/// several runs an atomic-commitment round: each touched group charges a
/// vote on its own queue, the decide waits for the slowest vote plus two
/// LAN hops (collecting the votes, broadcasting the decision), and a commit
/// takes one global version for every touched group. Each item has one
/// owner, so the votes' OR is the one scan of the log suffix. A commit is
/// durable at the end of the group-commit window its check or decide fell
/// into, plus the log write. With several groups, each keeps its
/// [`GroupCommits`], updated at commit ([`Certifier::group_commits`]).
/// [`Certifier::new`] is the paper's deployment: one group.
///
/// # Examples
///
/// ```
/// use tashkent_certifier::{Certifier, CertifyOutcome};
/// use tashkent_engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
/// use tashkent_sim::SimTime;
/// use tashkent_storage::RelationId;
///
/// let mut cert = Certifier::default();
/// let item = WritesetItem::new(RelationId(0), 7);
/// let ws = |snap| Writeset::new(TxnId(0), TxnTypeId(0), Snapshot::at(snap), vec![item]);
///
/// // First writer commits...
/// assert!(matches!(cert.certify(SimTime::ZERO, ws(Version(0))),
///                  CertifyOutcome::Committed { version: Version(1), .. }));
/// // ...a second writer with a pre-commit snapshot conflicts.
/// assert_eq!(cert.certify(SimTime::ZERO, ws(Version(0))), CertifyOutcome::Conflict);
/// ```
#[derive(Debug, Clone)]
pub struct Certifier {
    params: CertifierParams,
    log: CommitLog,
    stats: CertifierStats,
    map: CertMap,
    queues: Vec<GroupQueue>,
    /// Per-group commit accounting; empty with one group.
    commits: Vec<GroupCommits>,
    /// One-way LAN latency, µs, paid twice by a cross-group decide.
    lan_hop_us: u64,
}

impl Default for Certifier {
    fn default() -> Self {
        Self::new(CertifierParams::default())
    }
}

impl Certifier {
    /// Creates a one-group certifier with the given service parameters.
    pub fn new(params: CertifierParams) -> Self {
        Self::grouped(params, CertMap::default(), 0)
    }

    /// Creates a certifier with one group per group of `map`, whose
    /// cross-group rounds pay `lan_hop_us` per hop.
    pub fn grouped(params: CertifierParams, map: CertMap, lan_hop_us: u64) -> Self {
        let groups = map.group_count();
        let none = GroupCommits {
            commits: 0,
            last: Version::ZERO,
            digest: FNV1A_BASIS,
        };
        Certifier {
            params,
            log: CommitLog::default(),
            stats: CertifierStats::default(),
            queues: vec![GroupQueue::default(); groups],
            commits: vec![none; if groups > 1 { groups } else { 0 }],
            map,
            lan_hop_us,
        }
    }

    /// Latest committed version (log head).
    pub fn version(&self) -> Version {
        self.log.head()
    }

    /// The persistent commit log.
    pub fn log(&self) -> &CommitLog {
        &self.log
    }

    /// Drops the log entries up to `floor` from host memory
    /// ([`CommitLog::trim`]); nothing below it may be read afterwards.
    pub fn trim(&mut self, floor: Version) {
        self.log.trim(floor);
    }

    /// Activity counters.
    pub fn stats(&self) -> CertifierStats {
        self.stats
    }

    /// Bitmask of the groups `ws` touches; never 0.
    pub fn groups_of(&self, ws: &Writeset) -> u64 {
        self.map.mask_for(&ws.items)
    }

    /// Defers group `group`'s service to at least `at` (a new leader's
    /// election delay).
    pub fn defer(&mut self, group: usize, at: SimTime) {
        let q = &mut self.queues[group];
        q.available_at = q.available_at.max(at);
    }

    /// Charges `us` of control-plane NIC occupancy, starting no earlier
    /// than `now`, to every group: requests arriving before it drains wait
    /// behind it.
    pub fn occupy(&mut self, now: SimTime, us: u64) {
        for q in &mut self.queues {
            q.available_at = q.available_at.max(now) + us;
        }
    }

    /// Certifies `ws` arriving at time `now`.
    ///
    /// Read-only writesets (empty item lists) never reach the certifier in
    /// Tashkent; passing one here commits it without consuming a version.
    pub fn certify(&mut self, now: SimTime, ws: Writeset) -> CertifyOutcome {
        let answer = self.answer(now, &ws, self.groups_of(&ws));
        match answer.version {
            Some(version) => CertifyOutcome::Committed {
                version,
                durable_at: answer.at,
            },
            None => CertifyOutcome::Conflict,
        }
    }

    /// Certifies `ws` arriving at time `now` and returns the answer as it
    /// leaves the certifier. `groups` is [`Self::groups_of`]`(ws)`, which a
    /// caller needs first to check the touched groups' membership.
    pub fn answer(&mut self, now: SimTime, ws: &Writeset, groups: u64) -> Answer {
        let arrived = group_bits(groups).fold(now, |t, g| t.max(self.queues[g].available_at));
        // Serial service: each touched group's check queues behind the
        // group's earlier ones.
        let check_us = self.params.check_us;
        let checked = group_bits(groups).fold(SimTime::ZERO, |t, g| {
            let q = &mut self.queues[g];
            q.busy_until = q.busy_until.max(arrived) + check_us;
            t.max(q.busy_until)
        });
        let lone = groups.is_power_of_two();
        let decided = if lone {
            checked
        } else {
            checked + 2 * self.lan_hop_us
        };
        let (version, at) = if ws.is_empty() {
            (Some(self.version()), decided)
        } else if self.log.conflicts(ws.snapshot.version, &ws.items) {
            self.stats.conflicts += 1;
            (None, if lone { arrived } else { decided })
        } else {
            let version = self.log.append(&ws.items);
            self.stats.committed += 1;
            // A no-op with one group, which keeps no accounting.
            for g in group_bits(groups) {
                if let Some(c) = self.commits.get_mut(g) {
                    c.commits += 1;
                    c.last = version;
                    c.digest = fnv1a_fold(c.digest, version.0);
                }
            }
            self.stats.log_bytes += ws.bytes();
            // Group commit: the log write completes at the end of the
            // window the decision fell into, plus the write itself.
            let w = self.params.group_window_us.max(1);
            let boundary = decided.as_micros().div_ceil(w) * w;
            (
                Some(version),
                SimTime::from_micros(boundary + self.params.log_write_us),
            )
        };
        Answer {
            version,
            at,
            arrived,
        }
    }

    /// Each group's commit accounting, indexed by group. Empty with one
    /// group, whose accounting would be the log head's.
    pub fn group_commits(&self) -> &[GroupCommits] {
        &self.commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_engine::{Snapshot, TxnId, TxnTypeId, WritesetItem};
    use tashkent_storage::{RelationId, RelationSet};

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

    fn commit_version(out: CertifyOutcome) -> Version {
        match out {
            CertifyOutcome::Committed { version, .. } => version,
            CertifyOutcome::Conflict => panic!("unexpected conflict"),
        }
    }

    #[test]
    fn versions_are_sequential() {
        let mut c = Certifier::default();
        let v1 = commit_version(c.certify(SimTime::ZERO, ws(1, 0, &[(0, 1)])));
        let v2 = commit_version(c.certify(SimTime::ZERO, ws(2, 1, &[(0, 2)])));
        assert_eq!(v1, Version(1));
        assert_eq!(v2, Version(2));
        assert_eq!(c.version(), Version(2));
    }

    #[test]
    fn conflict_on_same_row_with_stale_snapshot() {
        let mut c = Certifier::default();
        c.certify(SimTime::ZERO, ws(1, 0, &[(0, 7)]));
        assert_eq!(
            c.certify(SimTime::ZERO, ws(2, 0, &[(0, 7)])),
            CertifyOutcome::Conflict
        );
        assert_eq!(c.stats().conflicts, 1);
    }

    #[test]
    fn no_conflict_when_snapshot_is_fresh() {
        let mut c = Certifier::default();
        c.certify(SimTime::ZERO, ws(1, 0, &[(0, 7)]));
        // Snapshot 1 already saw the first commit → same row is fine.
        let out = c.certify(SimTime::ZERO, ws(2, 1, &[(0, 7)]));
        assert_eq!(commit_version(out), Version(2));
    }

    #[test]
    fn disjoint_rows_never_conflict() {
        let mut c = Certifier::default();
        c.certify(SimTime::ZERO, ws(1, 0, &[(0, 1), (1, 2)]));
        let out = c.certify(SimTime::ZERO, ws(2, 0, &[(0, 2), (2, 2)]));
        assert_eq!(commit_version(out), Version(2));
    }

    #[test]
    fn conflicting_writeset_consumes_no_version() {
        let mut c = Certifier::default();
        c.certify(SimTime::ZERO, ws(1, 0, &[(0, 1)]));
        c.certify(SimTime::ZERO, ws(2, 0, &[(0, 1)]));
        assert_eq!(c.version(), Version(1));
        let out = c.certify(SimTime::ZERO, ws(3, 1, &[(0, 9)]));
        assert_eq!(commit_version(out), Version(2));
    }

    #[test]
    fn writesets_since_returns_suffix() {
        let mut c = Certifier::default();
        for i in 0..5 {
            c.certify(SimTime::ZERO, ws(i, i, &[(0, i)]));
        }
        let tail = c.log().since(Version(3));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.get(0).0, Version(4));
        assert_eq!(tail.get(1).0, Version(5));
        assert!(c.log().since(Version(99)).is_empty());
        assert_eq!(c.log().since(Version(0)).len(), 5);
    }

    #[test]
    fn empty_writeset_commits_without_version() {
        let mut c = Certifier::default();
        let out = c.certify(SimTime::ZERO, ws(1, 0, &[]));
        assert!(matches!(
            out,
            CertifyOutcome::Committed {
                version: Version(0),
                ..
            }
        ));
        assert_eq!(c.version(), Version(0));
    }

    #[test]
    fn group_commit_batches_durability() {
        let params = CertifierParams {
            check_us: 10,
            log_write_us: 500,
            group_window_us: 2_000,
        };
        let mut c = Certifier::new(params);
        let d1 = match c.certify(SimTime::from_micros(100), ws(1, 0, &[(0, 1)])) {
            CertifyOutcome::Committed { durable_at, .. } => durable_at,
            _ => panic!(),
        };
        let d2 = match c.certify(SimTime::from_micros(200), ws(2, 1, &[(0, 2)])) {
            CertifyOutcome::Committed { durable_at, .. } => durable_at,
            _ => panic!(),
        };
        // Both checks fall in the first 2 ms window → same durability point.
        assert_eq!(d1, d2);
        assert_eq!(d1.as_micros(), 2_500);
    }

    #[test]
    fn serial_service_queues_requests() {
        let params = CertifierParams {
            check_us: 1_000,
            log_write_us: 0,
            group_window_us: 1,
        };
        let mut c = Certifier::new(params);
        c.certify(SimTime::ZERO, ws(1, 0, &[(0, 1)]));
        let out = c.certify(SimTime::ZERO, ws(2, 1, &[(0, 2)]));
        match out {
            CertifyOutcome::Committed { durable_at, .. } => {
                // Second check starts after the first completes (1 ms).
                assert!(durable_at.as_micros() >= 2_000);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn log_bytes_accumulate() {
        let mut c = Certifier::default();
        c.certify(SimTime::ZERO, ws(1, 0, &[(0, 1), (0, 2)]));
        let expected = ws(1, 0, &[(0, 1), (0, 2)]).bytes();
        assert_eq!(c.stats().log_bytes, expected);
    }

    #[test]
    fn availability_gap_defers_service_not_arrival() {
        let mut c = Certifier::default();
        c.defer(0, SimTime::from_millis(200));
        // Deferring to an earlier time is a no-op (max semantics).
        c.defer(0, SimTime::from_millis(100));
        // An empty writeset's answer leaves when its check completes.
        let w = ws(1, 0, &[]);
        let out = c.answer(SimTime::from_micros(10), &w, c.groups_of(&w));
        assert_eq!(out.arrived, SimTime::from_millis(200));
        assert_eq!(out.at, SimTime::from_millis(200) + 50);
    }

    #[test]
    fn serial_service_queues_checks_within_the_shard() {
        let params = CertifierParams {
            check_us: 1_000,
            log_write_us: 0,
            group_window_us: 1,
        };
        // Relation r is owned by group r.
        let sets: Vec<RelationSet> = (0..2)
            .map(|r| [RelationId(r)].into_iter().collect())
            .collect();
        let mut c = Certifier::grouped(params, CertMap::build(&sets, 2), 100);
        let mut answer = |w: Writeset| c.answer(SimTime::ZERO, &w, c.groups_of(&w));
        let first = answer(ws(1, 0, &[(0, 1)]));
        let second = answer(ws(2, 1, &[(0, 2)]));
        let other = answer(ws(3, 2, &[(1, 2)]));
        assert_eq!(first.at.as_micros(), 1_000);
        assert_eq!(second.at.as_micros(), 2_000);
        assert_eq!(second.arrived, SimTime::ZERO);
        // Group 1's queue is idle: its check does not wait behind group 0's.
        assert_eq!(other.at.as_micros(), 1_000);
    }
}
