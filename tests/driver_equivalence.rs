//! Driver equivalence: a run is a pure function of its experiment, however
//! it is driven.
//!
//! An experiment has two drivers: `run` executes it on the calling thread,
//! and `run_sweep` executes a list of them on the host's cores. Every
//! experiment below runs under both — serially on the test thread, then all
//! together through `run_sweep`, on other threads with fresh hash seeds —
//! and each pair must agree to the bit: the same [`Fingerprint`] and the
//! same completions (per-second counts and a digest of the exact
//! timestamps). A result that
//! depends on hash-map iteration order, or on state shared between runs,
//! fails here. Each test also asserts the preconditions that make its
//! comparison meaningful (faults injected, re-replication ran, the detector
//! reached its verdicts, …), so a scenario that silently stopped exercising
//! its machinery cannot pass vacuously.

use tashkent::certifier::GroupCommits;
use tashkent::cluster::{
    run, run_scenario, run_sweep, scenario, Experiment, Failover, FaultEvent, FaultKind,
    PolicySpec, RunResult, Scenario, ScenarioKnobs,
};

/// The fields a run is judged by, exact to the bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    committed: u64,
    updates: u64,
    aborts: u64,
    retries_exhausted: u64,
    read_kb_per_txn: u64,
    write_kb_per_txn: u64,
    mean_response_us: u64,
    completions: usize,
    /// Crash/recover/failover/re-replication events with their exact
    /// effect times.
    faults: Vec<FaultEvent>,
    /// Partial-replication propagation accounting, exact to the byte.
    propagated_ws_bytes: u64,
    filtered_ws_bytes: u64,
    /// Placement-backfill traffic (re-replication + skew migration), exact
    /// to the byte — covers the rebalancing lifecycle's copies.
    migration_bytes: u64,
    /// Sharded certification: each group's commit count, last version and
    /// digest of its versions in order — the decide order itself is part
    /// of the contract (empty with one certifier group).
    cert_group_commits: Vec<GroupCommits>,
    /// Checkpoint-lag recovery's redo-window accounting, exact to the byte
    /// and microsecond.
    redo_bytes: u64,
    redo_us: u64,
}

impl Fingerprint {
    fn of(r: &RunResult) -> Self {
        Fingerprint {
            committed: r.committed,
            updates: r.updates,
            aborts: r.aborts,
            retries_exhausted: r.retries_exhausted,
            // Exact equality on the underlying byte counters: kb/txn is a
            // pure function of (bytes, committed), both integers.
            read_kb_per_txn: r.read_kb_per_txn.to_bits(),
            write_kb_per_txn: r.write_kb_per_txn.to_bits(),
            mean_response_us: (r.mean_response_s * 1e6).round() as u64,
            completions: r.completions.len(),
            faults: r.faults.clone(),
            propagated_ws_bytes: r.propagated_ws_bytes,
            filtered_ws_bytes: r.filtered_ws_bytes,
            migration_bytes: r.migration_bytes,
            cert_group_commits: r.cert_group_commits.clone(),
            redo_bytes: r.redo_bytes,
            redo_us: r.redo_us,
        }
    }
}

/// Runs `exps` serially, then through `run_sweep`, and asserts each pair
/// agrees. Returns the serial results for the caller's preconditions.
fn assert_drivers_agree(label: &str, exps: Vec<Experiment>) -> Vec<RunResult> {
    let serial: Vec<RunResult> = exps
        .iter()
        .map(|e| run(e.clone()).expect("serial run completes"))
        .collect();
    let swept = run_sweep(exps);
    assert_eq!(swept.len(), serial.len(), "{label}: one result per input");
    for (i, (a, b)) in serial.iter().zip(swept).enumerate() {
        let b = b.expect("swept run completes");
        assert_eq!(
            Fingerprint::of(a),
            Fingerprint::of(&b),
            "{label}: run {i} diverged between the serial run and the sweep"
        );
        assert_eq!(
            a.completions, b.completions,
            "{label}: run {i} completions diverged"
        );
    }
    serial
}

/// The registered scenario `name`'s experiment at `knobs`.
fn exp(name: &str, knobs: &ScenarioKnobs) -> Experiment {
    scenario(name)
        .unwrap_or_else(|| panic!("no scenario named {name:?}"))
        .experiment(knobs)
}

/// Smoke knobs on a wider cluster: more replicas, more clients each.
fn wide() -> ScenarioKnobs {
    ScenarioKnobs {
        replicas: 4,
        clients_per_replica: 4,
        ..ScenarioKnobs::smoke()
    }
}

fn has_fault(r: &RunResult, pred: impl Fn(&FaultKind) -> bool) -> bool {
    r.faults.iter().any(|f| pred(&f.kind))
}

#[test]
fn tpcw_runs_identically_under_both_drivers_across_seeds() {
    // Three seeds, plus the mix switches of dynamic reconfiguration.
    let mut exps: Vec<Experiment> = [1, 7, 42]
        .into_iter()
        .map(|seed| exp("tpcw-steady-state", &ScenarioKnobs::smoke().with_seed(seed)))
        .collect();
    exps.push(exp("dynamic-reconfig", &ScenarioKnobs::smoke()));
    assert_drivers_agree("tpcw", exps);
}

#[test]
fn rubis_runs_identically_under_both_drivers_across_seeds() {
    let exps = [3, 11, 42]
        .into_iter()
        .map(|seed| exp("rubis-auction", &ScenarioKnobs::smoke().with_seed(seed)))
        .collect();
    assert_drivers_agree("rubis-auction", exps);
}

#[test]
fn malb_with_filtering_runs_identically_under_both_drivers() {
    // Update filtering exercises the certifier round-trip and filter
    // installs.
    let knobs = ScenarioKnobs::smoke().with_policy(PolicySpec::malb_sc_uf());
    assert_drivers_agree("MALB-SC+UF", vec![exp("tpcw-steady-state", &knobs)]);
}

#[test]
fn wider_cluster_runs_identically_under_both_drivers() {
    assert_drivers_agree("wide tpcw", vec![exp("tpcw-steady-state", &wide())]);
}

#[test]
fn failover_runs_identically_under_both_drivers_across_seeds_and_threads() {
    // Crashes orphan in-flight transactions whose queued events must come
    // to nothing, recovery replays the certifier log, and the fault log's
    // timing is in the fingerprint.
    let exps = [5, 21, 42]
        .into_iter()
        .map(|seed| exp("failover", &ScenarioKnobs::smoke().with_seed(seed)))
        .collect();
    for r in assert_drivers_agree("failover", exps) {
        assert!(!r.faults.is_empty(), "failover scenario must inject faults");
    }
}

#[test]
fn multi_victim_failover_on_a_wider_cluster_runs_identically() {
    // Crash two of four replicas at once, so several replicas' orphans
    // retry together (the registered scenario crashes only one).
    let scenario = Failover {
        crashes: 2,
        ..Failover::default()
    };
    let results = assert_drivers_agree("multi-victim failover", vec![scenario.experiment(&wide())]);
    let crashes = results[0]
        .faults
        .iter()
        .filter(|f| matches!(f.kind, FaultKind::ReplicaCrash(_)))
        .count();
    assert_eq!(crashes, 2, "both victims must actually crash");
}

#[test]
fn partial_replication_runs_identically_under_both_drivers_across_seeds_and_threads() {
    // Placement-restricted dispatch, holder-only propagation accounting
    // (exact to the byte) and crash-triggered re-replication on top of the
    // failover machinery.
    let exps = [9, 42]
        .into_iter()
        .map(|seed| exp("partial-replication", &wide().with_seed(seed)))
        .collect();
    for r in assert_drivers_agree("partial-replication", exps) {
        assert!(
            has_fault(&r, |k| matches!(k, FaultKind::Rereplicate { .. })),
            "the crash must force re-replication events into the fingerprint"
        );
        assert!(r.filtered_ws_bytes > 0, "placement must filter");
    }
}

#[test]
fn rebalance_runs_identically_under_both_drivers_across_seeds_and_threads() {
    // Bandwidth-capped backfill chunks interleave with foreground
    // propagation, eligibility flips at BackfillDone, and migration drops
    // donors mid-run; the fault log with exact bytes and migration_bytes
    // are in the fingerprint.
    let exps = [13, 42]
        .into_iter()
        .map(|seed| exp("rebalance", &wide().with_seed(seed)))
        .collect();
    for r in assert_drivers_agree("rebalance", exps) {
        assert!(
            has_fault(&r, |k| matches!(
                k,
                FaultKind::Rereplicate { .. } | FaultKind::Migrate { .. }
            )),
            "the rebalance scenario must put backfill events into the fingerprint"
        );
    }
}

#[test]
fn sharded_certification_runs_identically_under_both_drivers() {
    // Four certifier groups: per-group commit logs and every commit
    // decision are in the fingerprint; the failover run adds a group-0
    // leader kill mid-run.
    let exps = [
        ("tpcw-steady-state", 1),
        ("tpcw-steady-state", 42),
        ("rubis-auction", 11),
        ("failover", 5),
    ]
    .into_iter()
    .map(|(name, seed)| {
        exp(
            name,
            &ScenarioKnobs::smoke()
                .with_seed(seed)
                .with_cert_groups(Some(4)),
        )
    })
    .collect();
    for r in assert_drivers_agree("sharded certification", exps) {
        assert!(
            !r.cert_group_commits.is_empty(),
            "sharded runs must expose per-group commit accounting"
        );
    }
}

#[test]
fn detection_runs_identically_under_both_drivers_across_seeds_and_threads() {
    // Heartbeat verdicts, partitions that drop certification sends, client
    // timeouts that re-dispatch abandoned work, and checkpoint-lag redo
    // accounting.
    let three = ScenarioKnobs {
        replicas: 3,
        clients_per_replica: 4,
        ..ScenarioKnobs::smoke()
    };
    let exps = [5, 42]
        .into_iter()
        .map(|seed| exp("detection", &three.clone().with_seed(seed)))
        .collect();
    for r in assert_drivers_agree("detection", exps) {
        assert!(
            has_fault(&r, |k| matches!(k, FaultKind::ReplicaSuspected(_)))
                && has_fault(&r, |k| matches!(k, FaultKind::ReplicaDead(_))),
            "the detection scenario must put detector verdicts into the fingerprint"
        );
        assert!(
            r.redo_bytes > 0,
            "recovery must replay a redo window into the fingerprint"
        );
    }
}

#[test]
fn detection_with_partial_replication_runs_identically() {
    // A dead verdict under partial replication re-replicates the victim's
    // under-copied groups: backfill traffic interleaved with heartbeats
    // and redo replay.
    let knobs = wide().with_min_copies(Some(2));
    let results = assert_drivers_agree(
        "detection + partial replication",
        vec![exp("detection", &knobs)],
    );
    assert!(
        has_fault(&results[0], |k| matches!(k, FaultKind::Rereplicate { .. })),
        "the dead verdict must force re-replication events into the fingerprint"
    );
}

#[test]
fn thread_count_does_not_change_results() {
    // A sweep of one experiment runs on one worker thread; a sweep of four
    // copies runs on up to four at once (as many as the host has cores).
    // Every copy must match the lone run.
    let one = exp("tpcw-steady-state", &ScenarioKnobs::smoke());
    let alone = run_sweep(vec![one.clone()])
        .pop()
        .expect("one result")
        .expect("lone run completes");
    for (i, r) in run_sweep(vec![one; 4]).into_iter().enumerate() {
        let r = r.expect("swept run completes");
        assert_eq!(
            Fingerprint::of(&alone),
            Fingerprint::of(&r),
            "copy {i} diverged from the lone run"
        );
        assert_eq!(alone.completions, r.completions);
    }
}

#[test]
fn min_copies_at_cluster_size_reproduces_full_replication_bit_for_bit() {
    // The degenerate `min_copies = cluster size` placement must be
    // indistinguishable from full replication: same dispatch choices, same
    // propagation, same bytes — with §3 update filtering still applying
    // unchanged.
    for (scenario, policy) in [
        ("tpcw-steady-state", None),
        ("tpcw-steady-state", Some(PolicySpec::malb_sc_uf())),
        ("rubis-auction", None),
    ] {
        let mut knobs = ScenarioKnobs::smoke();
        knobs.policy = policy;
        let full = run_scenario(scenario, &knobs).expect("full-replication run completes");
        let degenerate = run_scenario(
            scenario,
            &knobs.clone().with_min_copies(Some(knobs.replicas)),
        )
        .expect("degenerate partial run completes");
        assert_eq!(
            Fingerprint::of(&full),
            Fingerprint::of(&degenerate),
            "min_copies = n diverged from full replication on {scenario} ({policy:?})"
        );
        assert_eq!(full.completions, degenerate.completions);
        assert_eq!(degenerate.filtered_ws_bytes, 0);
    }
}
