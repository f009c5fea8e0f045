//! Property-based tests for GSI certification.

use std::collections::HashMap;

use proptest::prelude::*;
use tashkent_certifier::{Certifier, CertifierParams, CertifyOutcome};
use tashkent_engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent_sim::SimTime;
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

/// A certifier built on a per-item last-writer index instead of a log scan:
/// a writeset conflicts iff some item's last writer is newer than its
/// snapshot. Kept as the reference model [`Certifier`] must match exactly —
/// outcome, version and durability time — on every history.
struct IndexCertifier {
    params: CertifierParams,
    head: u64,
    last_writer: HashMap<WritesetItem, u64>,
    busy_until: SimTime,
}

impl IndexCertifier {
    fn new(params: CertifierParams) -> Self {
        IndexCertifier {
            params,
            head: 0,
            last_writer: HashMap::new(),
            busy_until: SimTime::ZERO,
        }
    }

    fn certify(&mut self, now: SimTime, ws: &Writeset) -> CertifyOutcome {
        let checked_at = self.busy_until.max(now) + self.params.check_us;
        self.busy_until = checked_at;
        if ws.is_empty() {
            return CertifyOutcome::Committed {
                version: Version(self.head),
                durable_at: checked_at,
            };
        }
        let snapshot = ws.snapshot.version.0;
        if ws
            .items
            .iter()
            .any(|item| self.last_writer.get(item).is_some_and(|v| *v > snapshot))
        {
            return CertifyOutcome::Conflict;
        }
        self.head += 1;
        for item in &ws.items {
            self.last_writer.insert(*item, self.head);
        }
        let w = self.params.group_window_us.max(1);
        let boundary = checked_at.as_micros().div_ceil(w) * w;
        CertifyOutcome::Committed {
            version: Version(self.head),
            durable_at: SimTime::from_micros(boundary + self.params.log_write_us),
        }
    }
}

proptest! {
    /// The log-scan certifier and the last-writer-index reference agree on
    /// every request of random histories: 1–4 relations over few rows (so
    /// conflicts are common), duplicate rows, empty writesets, snapshot
    /// lags from 0 to past the head, bursty arrivals, and random service
    /// parameters. The log holds exactly the committed writesets' items.
    #[test]
    fn matches_reference_model(
        rels in 1u32..5,
        params in (1u64..200, 0u64..3_000, 0u64..4_000),
        history in proptest::collection::vec(
            (
                0u64..48, // snapshot lag behind the head
                0u64..400, // gap since the previous arrival, µs
                proptest::collection::vec((0u32..4, 0u64..16), 0..7),
            ),
            1..150,
        ),
    ) {
        let (check_us, log_write_us, group_window_us) = params;
        let params = CertifierParams { check_us, log_write_us, group_window_us };
        let mut cert = Certifier::new(params);
        let mut reference = IndexCertifier::new(params);
        let mut committed: Vec<Vec<WritesetItem>> = Vec::new();
        let mut now = 0u64;
        for (i, (lag, gap, items)) in history.iter().enumerate() {
            now += gap;
            let items: Vec<(u32, u64)> = items.iter().map(|(r, row)| (r % rels, *row)).collect();
            let snap = cert.version().0.saturating_sub(*lag);
            let w = ws(i as u64, snap, &items);
            let expected = reference.certify(SimTime::from_micros(now), &w);
            let got = cert.certify(SimTime::from_micros(now), w.clone());
            prop_assert_eq!(got, expected, "request {} diverged", i);
            if matches!(got, CertifyOutcome::Committed { .. }) && !w.is_empty() {
                committed.push(w.items);
            }
        }
        prop_assert_eq!(cert.version(), Version(reference.head));
        prop_assert_eq!(cert.stats().committed, committed.len() as u64);
        let logged: Vec<Vec<WritesetItem>> = cert
            .log()
            .since(Version(0))
            .iter()
            .map(|(_, items)| items.to_vec())
            .collect();
        prop_assert_eq!(logged, committed);
    }

    /// Commit versions are dense and strictly increasing, regardless of the
    /// conflict pattern.
    #[test]
    fn versions_are_dense(writes in proptest::collection::vec(
        (0u64..5 /* snapshot lag */, proptest::collection::vec((0u32..3, 0u64..30), 1..4)),
        1..40,
    )) {
        let mut cert = Certifier::default();
        let mut last = 0u64;
        for (i, (lag, items)) in writes.iter().enumerate() {
            let head = cert.version().0;
            let snap = head.saturating_sub(*lag);
            let outcome = cert.certify(
                SimTime::from_micros(i as u64),
                ws(i as u64, snap, items),
            );
            if let CertifyOutcome::Committed { version, .. } = outcome {
                prop_assert_eq!(version.0, last + 1, "versions must be dense");
                last = version.0;
            }
        }
        prop_assert_eq!(cert.version().0, last);
    }

    /// The log suffix returned for any `after` version contains exactly the
    /// versions `(after, head]`.
    #[test]
    fn log_suffixes_are_exact(n in 1u64..60, after in 0u64..80) {
        let mut cert = Certifier::default();
        for i in 0..n {
            let head = cert.version().0;
            cert.certify(SimTime::from_micros(i), ws(i, head, &[(0, i)]));
        }
        let suffix = cert.log().since(Version(after));
        let expect_len = cert.version().0.saturating_sub(after) as usize;
        prop_assert_eq!(suffix.len(), expect_len);
        for (k, (version, items)) in suffix.iter().enumerate() {
            prop_assert_eq!(version.0, after + 1 + k as u64);
            prop_assert_eq!(items, &[WritesetItem::new(RelationId(0), version.0 - 1)][..]);
        }
    }

    /// Group-commit durability is monotone in arrival time.
    #[test]
    fn durability_is_monotone(times in proptest::collection::vec(0u64..100_000, 2..20)) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut cert = Certifier::default();
        let mut last_durable = 0u64;
        for (i, t) in sorted.iter().enumerate() {
            let head = cert.version().0;
            let out = cert.certify(SimTime::from_micros(*t), ws(i as u64, head, &[(0, i as u64)]));
            if let CertifyOutcome::Committed { durable_at, .. } = out {
                prop_assert!(durable_at.as_micros() >= *t);
                prop_assert!(durable_at.as_micros() >= last_durable);
                last_durable = durable_at.as_micros();
            }
        }
    }
}
