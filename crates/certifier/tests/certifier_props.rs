//! Property-based tests for GSI certification. The log-scan [`Certifier`]
//! must match a per-item last-writer reference model ([`IndexCertifier`])
//! on outcome, version, reply time and each group's commit accounting, over
//! random histories with 1–4 certifier groups and a log trimmed as the
//! cluster trims it.

use std::collections::HashMap;

use proptest::prelude::*;
use tashkent_certifier::{
    Answer, CertMap, Certifier, CertifierParams, CertifyOutcome, GroupCommits,
};
use tashkent_engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent_sim::SimTime;
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

/// A certifier built on a per-item last-writer index instead of a log scan:
/// a writeset conflicts iff some item's last writer is newer than its
/// snapshot. Relation `r` belongs to group `r % groups`, each group with
/// its own serial check queue; a writeset touching several groups is
/// decided once its slowest check is done plus two LAN hops. Kept as the
/// reference model [`Certifier`] must match exactly — outcome, version and
/// reply time — on every history, and each group's commit accounting
/// against the group's full version list.
struct IndexCertifier {
    params: CertifierParams,
    lan_hop_us: u64,
    head: u64,
    last_writer: HashMap<WritesetItem, u64>,
    /// Completion horizon of each group's checks.
    busy_until: Vec<SimTime>,
    /// Each group's commit versions, in commit order: a commit is in the
    /// list of every group its writeset touches.
    versions: Vec<Vec<u64>>,
}

impl IndexCertifier {
    fn new(params: CertifierParams, groups: usize, lan_hop_us: u64) -> Self {
        IndexCertifier {
            params,
            lan_hop_us,
            head: 0,
            last_writer: HashMap::new(),
            busy_until: vec![SimTime::ZERO; groups],
            versions: vec![Vec::new(); groups],
        }
    }

    fn certify(&mut self, now: SimTime, ws: &Writeset) -> Answer {
        let groups = self.busy_until.len();
        let mut touched: Vec<usize> = ws
            .items
            .iter()
            .map(|item| item.rel().0 as usize % groups)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            touched.push(0);
        }
        let mut checked = SimTime::ZERO;
        for &g in &touched {
            self.busy_until[g] = self.busy_until[g].max(now) + self.params.check_us;
            checked = checked.max(self.busy_until[g]);
        }
        let cross = touched.len() > 1;
        let decided = if cross {
            checked + 2 * self.lan_hop_us
        } else {
            checked
        };
        let answer = |version, at| Answer {
            version,
            at,
            arrived: now,
        };
        if ws.is_empty() {
            return answer(Some(Version(self.head)), decided);
        }
        let snapshot = ws.snapshot.version.0;
        if ws
            .items
            .iter()
            .any(|item| self.last_writer.get(item).is_some_and(|v| *v > snapshot))
        {
            return answer(None, if cross { decided } else { now });
        }
        self.head += 1;
        for item in &ws.items {
            self.last_writer.insert(*item, self.head);
        }
        for &g in &touched {
            self.versions[g].push(self.head);
        }
        let w = self.params.group_window_us.max(1);
        let boundary = decided.as_micros().div_ceil(w) * w;
        answer(
            Some(Version(self.head)),
            SimTime::from_micros(boundary + self.params.log_write_us),
        )
    }
}

/// The accounting of one group's version list: its length, its last entry
/// and the 64-bit FNV-1a fold of every entry's 8 little-endian bytes.
fn accounting_of(list: &[u64]) -> GroupCommits {
    let digest = list.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    });
    GroupCommits {
        commits: list.len() as u64,
        last: Version(list.last().copied().unwrap_or(0)),
        digest,
    }
}

proptest! {
    /// The log-scan certifier and the last-writer-index reference agree on
    /// every request of random histories: 1–4 relations over few rows (so
    /// conflicts are common), duplicate rows, empty writesets, snapshot
    /// lags from 0 to past the head, bursty arrivals, 1–4 certifier groups
    /// with cross-group rounds, and random service parameters and LAN
    /// hops. Between requests the log is trimmed at random floors no higher
    /// than the oldest snapshot still to be certified, as the cluster trims
    /// it; the trims change no answer. The log holds exactly the committed
    /// writesets' items above its base. With several groups, each group's
    /// commit count, last version and FNV-1a digest are those of the
    /// reference's version list for it; the lists are strictly ascending
    /// and together cover `1..=head`, so no commit is missing from a group.
    #[test]
    fn matches_reference_model(
        rels in 1u32..5,
        groups in 1usize..5,
        lan_hop_us in 0u64..500,
        params in (1u64..200, 0u64..3_000, 0u64..4_000),
        history in proptest::collection::vec(
            (
                0u64..48, // snapshot lag behind the head
                0u64..400, // gap since the previous arrival, µs
                proptest::collection::vec((0u32..4, 0u64..16), 0..7),
                0u64..12, // below 4: trim first, this many versions under the oldest pending snapshot
            ),
            1..150,
        ),
    ) {
        let (check_us, log_write_us, group_window_us) = params;
        let params = CertifierParams { check_us, log_write_us, group_window_us };
        // A first pass of the reference fixes every request's arrival and
        // snapshot, so each trim knows the oldest snapshot still to be
        // certified.
        let mut dry = IndexCertifier::new(params, groups, lan_hop_us);
        let mut now = 0u64;
        let requests: Vec<(SimTime, Writeset)> = history
            .iter()
            .enumerate()
            .map(|(i, (lag, gap, items, _))| {
                now += gap;
                let items: Vec<(u32, u64)> =
                    items.iter().map(|(r, row)| (r % rels, *row)).collect();
                let w = ws(i as u64, dry.head.saturating_sub(*lag), &items);
                let at = SimTime::from_micros(now);
                dry.certify(at, &w);
                (at, w)
            })
            .collect();
        let mut oldest_pending: Vec<u64> =
            requests.iter().map(|(_, w)| w.snapshot.version.0).collect();
        for i in (1..oldest_pending.len()).rev() {
            oldest_pending[i - 1] = oldest_pending[i - 1].min(oldest_pending[i]);
        }
        // Relation r is its own set, so the fold gives it to group r % groups.
        let sets: Vec<RelationSet> = (0..4).map(|r| [RelationId(r)].into_iter().collect()).collect();
        let mut cert = Certifier::grouped(params, CertMap::build(&sets, groups), lan_hop_us);
        let mut reference = IndexCertifier::new(params, groups, lan_hop_us);
        let mut committed: Vec<Vec<WritesetItem>> = Vec::new();
        for (i, ((now, w), (_, _, _, trim))) in requests.into_iter().zip(&history).enumerate() {
            if *trim < 4 {
                cert.trim(Version(oldest_pending[i].saturating_sub(*trim)));
            }
            let expected = reference.certify(now, &w);
            let got = cert.answer(now, &w, cert.groups_of(&w));
            prop_assert_eq!(got, expected, "request {} diverged", i);
            if got.version.is_some() && !w.is_empty() {
                committed.push(w.items);
            }
        }
        prop_assert_eq!(cert.version(), Version(reference.head));
        prop_assert_eq!(cert.stats().committed, committed.len() as u64);
        let base = cert.log().base();
        let logged: Vec<Vec<WritesetItem>> = cert
            .log()
            .since(base)
            .iter()
            .map(|(_, items)| items.to_vec())
            .collect();
        prop_assert_eq!(&logged[..], &committed[base.0 as usize..]);
        let mut covered: Vec<u64> = Vec::new();
        for (g, list) in reference.versions.iter().enumerate() {
            prop_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "group {} list is not strictly ascending", g
            );
            covered.extend_from_slice(list);
        }
        covered.sort_unstable();
        covered.dedup();
        prop_assert_eq!(covered, (1..=reference.head).collect::<Vec<u64>>());
        let expected: Vec<GroupCommits> = if groups == 1 {
            Vec::new()
        } else {
            reference.versions.iter().map(|list| accounting_of(list)).collect()
        };
        prop_assert_eq!(cert.group_commits(), &expected[..]);
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
