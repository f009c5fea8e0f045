//! Certification and the global commit log.

use tashkent_engine::{Version, Writeset};
use tashkent_sim::SimTime;

use crate::log::CommitLog;

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

/// The certification state machine plus the persistent commit log.
///
/// Certification under GSI: a writeset with snapshot version `s` commits iff
/// no writeset with version `> s` intersects it (write-write conflict
/// detection, §4.1). The check scans the log entries committed since the
/// snapshot, as the paper states it; that suffix is short (tens of entries
/// on the TPC-W mixes). The full log is retained — it is the paper's
/// persistent log, also used for propagation and replica recovery.
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
    /// Completion horizon of the certification CPU (serial service).
    busy_until: SimTime,
}

impl Default for Certifier {
    fn default() -> Self {
        Self::new(CertifierParams::default())
    }
}

impl Certifier {
    /// Creates a certifier with the given service parameters.
    pub fn new(params: CertifierParams) -> Self {
        Certifier {
            params,
            log: CommitLog::default(),
            stats: CertifierStats::default(),
            busy_until: SimTime::ZERO,
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

    /// Activity counters.
    pub fn stats(&self) -> CertifierStats {
        self.stats
    }

    /// Certifies `ws` arriving at time `now`.
    ///
    /// Read-only writesets (empty item lists) never reach the certifier in
    /// Tashkent; passing one here commits it without consuming a version.
    pub fn certify(&mut self, now: SimTime, ws: Writeset) -> CertifyOutcome {
        // Serial service: requests queue behind one another.
        let start = self.busy_until.max(now);
        let checked_at = start + self.params.check_us;
        self.busy_until = checked_at;

        if ws.is_empty() {
            return CertifyOutcome::Committed {
                version: self.version(),
                durable_at: checked_at,
            };
        }

        if self.log.conflicts(ws.snapshot.version, &ws.items) {
            self.stats.conflicts += 1;
            return CertifyOutcome::Conflict;
        }

        let version = self.log.append(&ws.items);
        self.stats.committed += 1;
        self.stats.log_bytes += ws.bytes();

        // Group commit: the log write completes at the end of the window the
        // check fell into, plus the write itself.
        let w = self.params.group_window_us.max(1);
        let boundary = checked_at.as_micros().div_ceil(w) * w;
        let durable_at = SimTime::from_micros(boundary + self.params.log_write_us);
        CertifyOutcome::Committed {
            version,
            durable_at,
        }
    }

    /// How many commits a replica at `applied` is behind the log head.
    pub fn lag_of(&self, applied: Version) -> u64 {
        self.version().0.saturating_sub(applied.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_engine::{Snapshot, TxnId, TxnTypeId, WritesetItem};
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
    fn lag_reflects_distance_to_head() {
        let mut c = Certifier::default();
        for i in 0..30 {
            c.certify(SimTime::ZERO, ws(i, i, &[(0, i)]));
        }
        assert_eq!(c.lag_of(Version(30)), 0);
        assert_eq!(c.lag_of(Version(5)), 25);
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
}
