//! Certifier-group integration tests: per-group commit accounting against
//! the log head, decide-order determinism under random per-group leader
//! kills, and the run's certifier accessor on grouped runs — plus the
//! grouped link's verdicts against a last-writer-index reference. The
//! accounting itself is checked against per-group version lists in
//! `crates/certifier/tests/certifier_props.rs`.

use std::collections::HashMap;

use proptest::prelude::*;
use tashkent::certifier::{CertMap, CertifierParams, GroupCommits};
use tashkent::cluster::{
    run, run_sweep, scenario, CertifierLink, ClusterState, Ev, Experiment, FaultKind, RunResult,
    Scenario, ScenarioKnobs, TpcwSteadyState, TraceConfig, Tracer,
};
use tashkent::engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent::sim::{EventQueue, SimTime};
use tashkent::storage::{RelationId, RelationSet};

/// The observable result of a run with several certifier groups, exact to
/// the bit: the base commit/abort/timing counters plus each group's commit
/// count, last version and digest of its versions in order.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    committed: u64,
    updates: u64,
    aborts: u64,
    retries_exhausted: u64,
    mean_response_us: u64,
    completions: usize,
    faults: Vec<tashkent::cluster::FaultEvent>,
    cert_group_commits: Vec<GroupCommits>,
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
    // Two to four certifier groups, each configuration run serially with
    // `run` and again through `run_sweep` on other threads.
    let exps: Vec<Experiment> = [
        ("tpcw-steady-state", 1, 4),
        ("tpcw-steady-state", 42, 4),
        ("tpcw-steady-state", 42, 3),
        ("tpcw-steady-state", 7, 2),
        ("rubis-auction", 11, 4),
    ]
    .into_iter()
    .map(|(name, seed, groups)| {
        scenario(name)
            .unwrap_or_else(|| panic!("no scenario named {name:?}"))
            .experiment(&sharded_knobs(seed).with_cert_groups(Some(groups)))
    })
    .collect();
    let serial: Vec<RunResult> = exps
        .iter()
        .map(|e| run(e.clone()).expect("sharded run completes"))
        .collect();
    for (i, (first, second)) in serial.iter().zip(run_sweep(exps)).enumerate() {
        let second = second.expect("swept sharded run completes");
        assert!(
            first.cert_group_commits.len() >= 2,
            "the workload must shard into multiple certifier groups"
        );
        assert_eq!(
            Fingerprint::of(first),
            Fingerprint::of(&second),
            "run {i} diverged between the serial run and the sweep"
        );
        assert_eq!(first.completions, second.completions);
    }
}

/// Runs the `tpcw-steady-state` experiment at `knobs` as `run` does and
/// returns its per-group commit accounting with the commit log's head.
fn group_commits_and_head(knobs: &ScenarioKnobs) -> (Vec<GroupCommits>, Version) {
    let (mut state, mut queue) = TpcwSteadyState::default().experiment(knobs).build();
    state.run_to_end(&mut queue).expect("End event scheduled");
    let r = state.finish_result(queue.now());
    assert_eq!(r.cert_group_commits, state.certifier().group_commits());
    (r.cert_group_commits, state.certifier().version())
}

#[test]
fn no_partial_commit_across_groups() {
    // Every committed version counts in at least one group, and the last
    // version the groups took is the log head. Two to four groups (one
    // group keeps no accounting). That each group counts exactly the
    // versions touching it, in order, is checked against a reference model
    // in certifier_props.
    for groups in 2..=4 {
        let knobs = sharded_knobs(42).with_cert_groups(Some(groups));
        let (commits, head) = group_commits_and_head(&knobs);
        assert!(head > Version(0), "updates committed with {groups} groups");
        let total: u64 = commits.iter().map(|c| c.commits).sum();
        assert!(
            total >= head.0,
            "{total} group commits cannot cover {head} versions with {groups} groups"
        );
        let last = commits.iter().map(|c| c.last).max();
        assert_eq!(
            last,
            Some(head),
            "the groups' last version is not the head with {groups} groups"
        );
    }
}

#[test]
fn cross_group_transactions_actually_occur() {
    // The atomicity reference would be vacuous here if no transaction ever
    // spanned groups. Every version counts in at least one group, so the
    // groups' counts exceed the head exactly when some version counts in
    // two (the cross-group decide path).
    let (commits, head) = group_commits_and_head(&sharded_knobs(42));
    let total: u64 = commits.iter().map(|c| c.commits).sum();
    assert!(
        total > head.0,
        "{total} group commits over {head} versions: no version counted in \
         several groups, so the cross-group atomic-commitment path never ran"
    );
}

#[test]
fn decide_order_is_deterministic_under_random_group_kill_schedules() {
    // Random per-group leader-kill schedules (deterministic LCG per seed):
    // two runs of the same schedule must agree on every commit decision and
    // on the decide order within every group, fault log included.
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
        let build = || {
            let mut exp = base.clone();
            for (at, ev) in &injections {
                exp = exp.with_injection(*at, ev.clone());
            }
            run(exp).expect("killed-leader sharded run completes")
        };
        let first = build();
        assert!(
            first
                .faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::CertifierFailover { .. })),
            "the kill schedule must actually fail a leader over"
        );
        assert_eq!(
            Fingerprint::of(&first),
            Fingerprint::of(&build()),
            "decide order diverged under kill schedule seed {seed}"
        );
    }
}

#[test]
fn world_certifier_reads_the_grouped_log() {
    // `ClusterState::certifier` is the one certification engine, so on a
    // four-group run its log head is the link's head.
    let exp = TpcwSteadyState::default().experiment(&sharded_knobs(42));
    let mut state = ClusterState::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
    let mut queue = EventQueue::new();
    state.prime(&mut queue);
    queue.schedule(SimTime::from_secs(10), Ev::End);
    state.run_to_end(&mut queue).expect("End event scheduled");
    let head = state.cert_link().version();
    assert!(head.0 > 0, "the run must commit updates");
    assert_eq!(state.certifier().version(), head);
}

proptest! {
    /// The grouped link's verdicts and versions match a last-writer-index
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
        // Relation r is its own set, so the fold gives it to group r % groups.
        let sets: Vec<RelationSet> = (0..8).map(|r| [RelationId(r)].into_iter().collect()).collect();
        let map = CertMap::build(&sets, groups);
        let mut link = CertifierLink::new(CertifierParams::default(), map, 1);
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
            link.on_send(at, 0, txn, ws, &mut tracer, &mut queue);
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
