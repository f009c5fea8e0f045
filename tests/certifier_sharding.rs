//! Sharded-certification integration tests: atomicity across certifier
//! groups, per-group log contiguity, decide-order determinism under random
//! per-group leader kills, and the degenerate single-group configuration
//! reproducing the unified certifier bit for bit — on both drivers — plus
//! the sharded link's verdicts against a last-writer-index reference.

use std::collections::HashMap;

use proptest::prelude::*;
use tashkent::certifier::CertifierParams;
use tashkent::cluster::{
    run, run_scenario, CertifierLink, DriverKind, Ev, FaultKind, RunResult, Scenario,
    ScenarioKnobs, TpcwSteadyState, TraceConfig, Tracer,
};
use tashkent::engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent::sim::{EventQueue, SimTime};
use tashkent::storage::RelationId;

/// The observable result of a run under sharded certification, exact to
/// the bit: the base commit/abort/timing counters plus the per-group
/// commit logs (global versions, ascending per group).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    committed: u64,
    updates: u64,
    aborts: u64,
    retries_exhausted: u64,
    mean_response_us: u64,
    completions: usize,
    faults: Vec<tashkent::cluster::FaultEvent>,
    cert_group_commits: Vec<Vec<u64>>,
}

impl Fingerprint {
    fn of(r: &RunResult) -> Self {
        Fingerprint {
            committed: r.committed,
            updates: r.updates,
            aborts: r.aborts,
            retries_exhausted: r.retries_exhausted,
            mean_response_us: (r.mean_response_s * 1e6).round() as u64,
            completions: r.completions.len(),
            faults: r.faults.clone(),
            cert_group_commits: r.cert_group_commits.clone(),
        }
    }
}

fn sharded_knobs(seed: u64) -> ScenarioKnobs {
    ScenarioKnobs::smoke()
        .with_seed(seed)
        .with_cert_groups(Some(4))
}

#[test]
fn sharded_runs_agree_across_drivers_and_widths() {
    for (scenario, seed, groups) in [
        ("tpcw-steady-state", 1, 4),
        ("tpcw-steady-state", 42, 4),
        ("tpcw-steady-state", 42, 3),
        ("tpcw-steady-state", 7, 2),
        ("rubis-auction", 11, 4),
    ] {
        let knobs = sharded_knobs(seed).with_cert_groups(Some(groups));
        let sequential = run_scenario(scenario, &knobs.clone().with_driver(DriverKind::Sequential))
            .expect("sequential sharded run completes");
        assert!(
            sequential.cert_group_commits.len() >= 2,
            "the workload must shard into multiple certifier groups"
        );
        for threads in [2, 4, 8] {
            let parallel = run_scenario(
                scenario,
                &knobs.clone().with_driver(DriverKind::Parallel { threads }),
            )
            .expect("parallel sharded run completes");
            assert_eq!(
                Fingerprint::of(&sequential),
                Fingerprint::of(&parallel),
                "drivers diverged on {scenario} seed {seed} at {threads} threads"
            );
            assert_eq!(sequential.completions, parallel.completions);
        }
    }
}

#[test]
fn no_partial_commit_across_groups() {
    // Atomic commitment: a cross-group transaction's commit lands in every
    // touched group's log under the same global version, or in none. The
    // per-group logs must each be strictly ascending (group-log
    // contiguity), and their union must cover the global commit sequence
    // 1..=head with no gaps — a partially-committed cross-group txn would
    // leave its version missing from some touched group and the gap check
    // would not see it, so also require every version's holder set to be
    // non-empty and consistent across both drivers. One to four groups:
    // from no cross-group rounds at all to the most of them.
    for groups in 1..=4 {
        for driver in [DriverKind::Sequential, DriverKind::Parallel { threads: 2 }] {
            let knobs = sharded_knobs(42).with_cert_groups(Some(groups));
            let r = run_scenario("tpcw-steady-state", &knobs.with_driver(driver))
                .expect("sharded run completes");
            let mut all: Vec<u64> = Vec::new();
            for (g, log) in r.cert_group_commits.iter().enumerate() {
                assert!(
                    log.windows(2).all(|w| w[0] < w[1]),
                    "group {g} log is not strictly ascending under {driver:?}"
                );
                all.extend_from_slice(log);
            }
            all.sort_unstable();
            all.dedup();
            let head = *all.last().expect("updates committed");
            assert_eq!(
                all,
                (1..=head).collect::<Vec<u64>>(),
                "global commit sequence has gaps under {driver:?}: some group \
                 recorded a version another group's atomic round aborted"
            );
        }
    }
}

#[test]
fn cross_group_transactions_actually_occur() {
    // The atomicity assertion above would be vacuous if no transaction ever
    // spanned groups: pin that the TPC-W ordering mix produces versions
    // recorded by more than one group (the cross-group decide path).
    let r = run_scenario("tpcw-steady-state", &sharded_knobs(42)).expect("sharded run completes");
    let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for log in &r.cert_group_commits {
        for &v in log {
            *seen.entry(v).or_insert(0) += 1;
        }
    }
    assert!(
        seen.values().any(|&n| n >= 2),
        "no commit version was recorded by multiple groups — the \
         cross-group atomic-commitment path never ran"
    );
}

#[test]
fn decide_order_is_deterministic_under_random_group_kill_schedules() {
    // Random per-group leader-kill schedules (deterministic LCG per seed):
    // both drivers must agree on every commit decision and on the decide
    // order within every group, fault log included.
    for seed in [3u64, 17] {
        let mut lcg = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let knobs = sharded_knobs(seed);
        let base = TpcwSteadyState::default().experiment(&knobs);
        let groups = 4u64;
        let mut injections = Vec::new();
        for _ in 0..3 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let group = (lcg >> 33) % groups;
            let at = 6 + (lcg >> 17) % 12; // inside the measured window
            injections.push((
                SimTime::from_secs(at),
                Ev::CertifierKill {
                    group: group as usize,
                    member: 0,
                },
            ));
        }
        let build = |driver: DriverKind| {
            let mut exp = base.clone().with_driver(driver);
            for (at, ev) in &injections {
                exp = exp.with_injection(*at, ev.clone());
            }
            run(exp).expect("killed-leader sharded run completes")
        };
        let sequential = build(DriverKind::Sequential);
        assert!(
            sequential
                .faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::CertifierFailover { .. })),
            "the kill schedule must actually fail a leader over"
        );
        for threads in [2, 4] {
            let parallel = build(DriverKind::Parallel { threads });
            assert_eq!(
                Fingerprint::of(&sequential),
                Fingerprint::of(&parallel),
                "decide order diverged under kill schedule seed {seed} at {threads} threads"
            );
        }
    }
}

#[test]
fn degenerate_single_group_matches_unified_bit_for_bit() {
    // `max_groups = 1` routes every transaction through one group with no
    // atomic-commitment rounds: the observable results must be identical
    // to the unified certifier's, on both drivers.
    for driver in [DriverKind::Sequential, DriverKind::Parallel { threads: 2 }] {
        let knobs = ScenarioKnobs::smoke().with_driver(driver);
        let unified = run_scenario("tpcw-steady-state", &knobs).expect("unified run completes");
        let one_group = run_scenario(
            "tpcw-steady-state",
            &knobs.clone().with_cert_groups(Some(1)),
        )
        .expect("single-group sharded run completes");
        assert_eq!(one_group.cert_group_commits.len(), 1);
        let mut uni = Fingerprint::of(&unified);
        let mut one = Fingerprint::of(&one_group);
        // The per-group log is the sharded mode's extra observable; the
        // single group's log must be the full commit sequence.
        let log = std::mem::take(&mut one.cert_group_commits).remove(0);
        let head = *log.last().expect("updates committed");
        assert_eq!(log, (1..=head).collect::<Vec<u64>>());
        uni.cert_group_commits = Vec::new();
        assert_eq!(
            uni, one,
            "max_groups = 1 diverged from the unified certifier under {driver:?}"
        );
        assert_eq!(unified.completions, one_group.completions);
    }
}

#[test]
fn pooled_windows_shard_certification_checks() {
    // The tentpole's accounting: with the pool forced on, single-group
    // checks must execute on pool workers (`certifier_sharded > 0`), and
    // the merge-inline certifier replays must be strictly fewer than the
    // same configuration and seed with dispatch disabled (`min_dispatch`
    // maxed: identical windows, identical results, every cert send
    // replayed inline) — the sharded path actually moves certification
    // work off the merge thread.
    // Smoke density rarely overlaps certification with other activity;
    // use a denser cluster so windows actually carry cert sends.
    let dense = ScenarioKnobs {
        replicas: 4,
        clients_per_replica: 8,
        think_mean_us: 30_000,
        ..ScenarioKnobs::smoke()
    }
    .with_cert_groups(Some(4));
    let pooled = run_scenario(
        "tpcw-steady-state",
        &dense.clone().with_driver(DriverKind::ParallelTuned {
            threads: 2,
            min_dispatch: 0,
        }),
    )
    .expect("sharded pooled run completes");
    let inline_only = run_scenario(
        "tpcw-steady-state",
        &dense.with_driver(DriverKind::ParallelTuned {
            threads: 2,
            min_dispatch: usize::MAX,
        }),
    )
    .expect("sharded inline run completes");
    assert_eq!(
        Fingerprint::of(&pooled),
        Fingerprint::of(&inline_only),
        "the dispatch threshold must never change results"
    );
    let p = pooled.driver_stats.expect("parallel runs record stats");
    let i = inline_only
        .driver_stats
        .expect("parallel runs record stats");
    assert!(
        p.certifier_sharded > 0,
        "no certification checks ran on pool workers: {p:?}"
    );
    assert!(
        p.certifier_inline < i.certifier_inline,
        "worker dispatch must strictly reduce merge-inline certifier \
         replays: pooled {} vs inline-only {}",
        p.certifier_inline,
        i.certifier_inline
    );
}

proptest! {
    /// The sharded link's verdicts and versions match a last-writer-index
    /// certifier (a writeset conflicts iff some item's last writer is newer
    /// than its snapshot) on random histories over 1–4 groups: relation `r`
    /// belongs to group `r % groups`, so multi-relation writesets run
    /// cross-group atomic-commitment rounds. Snapshot lags reach past the
    /// head, and rows repeat within and across writesets.
    #[test]
    fn sharded_verdicts_match_a_last_writer_reference(
        groups in 1usize..5,
        history in proptest::collection::vec(
            (
                0u64..40, // snapshot lag behind the head
                0u64..300, // gap since the previous arrival, µs
                proptest::collection::vec((0u32..8, 0u64..12), 1..6),
            ),
            1..120,
        ),
    ) {
        let mut link = CertifierLink::new_sharded(CertifierParams::default(), 1, 100, groups);
        let mut tracer = Tracer::new(&TraceConfig::default());
        let mut queue = EventQueue::new();
        let mut last_writer: HashMap<WritesetItem, u64> = HashMap::new();
        let mut expected = Vec::new();
        let mut now = 0u64;
        for (i, (lag, gap, rows)) in history.iter().enumerate() {
            now += gap;
            let snap = link.version().0.saturating_sub(*lag);
            let items = rows
                .iter()
                .map(|&(r, row)| WritesetItem::new(RelationId(r), row))
                .collect();
            let txn = TxnId(i as u64);
            let ws = Writeset::new(txn, TxnTypeId(0), Snapshot::at(Version(snap)), items);
            let mask = ws
                .items
                .iter()
                .fold(0u64, |m, it| m | 1 << (it.rel().0 as usize % groups));
            let conflict = ws
                .items
                .iter()
                .any(|it| last_writer.get(it).is_some_and(|v| *v > snap));
            expected.push((!conflict).then(|| {
                let version = link.version().0 + 1;
                for it in &ws.items {
                    last_writer.insert(*it, version);
                }
                Version(version)
            }));
            let at = SimTime::from_micros(now);
            link.on_send(at, 0, txn, ws, mask, &mut tracer, &mut queue);
        }
        let mut got = vec![None; expected.len()];
        while let Some((_, ev)) = queue.pop() {
            match ev {
                Ev::CertifyReturn { txn, version, .. } => got[txn.0 as usize] = Some(version),
                other => panic!("unexpected event {other:?}"),
            }
        }
        let expected: Vec<Option<Option<Version>>> = expected.into_iter().map(Some).collect();
        prop_assert_eq!(got, expected, "groups {}", groups);
    }
}
