//! Failure-injection integration tests: replica crash/recovery, certifier
//! failover, and balancer soft state (§3 recovery, §4.2.1 fault tolerance)
//! — both at the component level and end-to-end through the `failover`
//! scenario in the shared harness.

use tashkent::certifier::{Certifier, CertifierGroup, CertifyOutcome, GroupEvent};
use tashkent::cluster::{
    run, ClusterConfig, Detection, Ev, Failover, FaultKind, PartialReplication, PolicySpec,
    ReplicaHealth, ReplicationPlanner, RunResult, Scenario, ScenarioKnobs, World, CONTROL_NODE,
};
use tashkent::core::LoadBalancer;
use tashkent::engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent::replica::{ReplicaConfig, ReplicaNode};
use tashkent::sim::{SimRng, SimTime};
use tashkent::storage::{Catalog, RelationId};
use tashkent::workloads::tpcw::{self, TpcwScale};

fn mini_catalog() -> Catalog {
    let mut c = Catalog::new();
    let t = c.add_table("t", 64, 6_400);
    c.add_index("t_pk", t, 8, 6_400);
    c
}

fn commit_n(cert: &mut Certifier, n: u64) {
    for i in 0..n {
        let ws = Writeset::new(
            TxnId(i),
            TxnTypeId(0),
            Snapshot::at(Version(cert.version().0)),
            vec![WritesetItem::new(RelationId(0), i)],
        );
        assert!(matches!(
            cert.certify(SimTime::from_millis(i), ws),
            CertifyOutcome::Committed { .. }
        ));
    }
}

#[test]
fn replica_recovers_from_certifier_log() {
    let mut cert = Certifier::default();
    let mut node = ReplicaNode::new(
        mini_catalog(),
        ReplicaConfig::default(),
        SimRng::seed_from(1),
    );
    commit_n(&mut cert, 40);
    node.apply_writesets(SimTime::from_secs(1), cert.log().since(Version(0)));
    assert_eq!(node.applied(), Version(40));

    // Crash loses the cache and in-flight work, not durable state.
    node.crash();
    node.recover(Version(25)); // restored from a checkpointed copy
    let missed = cert.log().since(node.applied());
    assert_eq!(missed.len(), 15);
    node.apply_writesets(SimTime::from_secs(2), missed);
    assert_eq!(node.applied(), cert.version());
}

#[test]
fn recovered_replica_rereads_pages_cold() {
    let mut cert = Certifier::default();
    let mut node = ReplicaNode::new(
        mini_catalog(),
        ReplicaConfig::default(),
        SimRng::seed_from(2),
    );
    commit_n(&mut cert, 10);
    node.apply_writesets(SimTime::from_secs(1), cert.log().since(Version(0)));
    let reads_before = node.disk_stats().read_pages;
    node.crash();
    node.recover(Version(0));
    // Re-applying after the crash must hit disk again (cold cache).
    node.apply_writesets(SimTime::from_secs(2), cert.log().since(Version(0)));
    assert!(node.disk_stats().read_pages > reads_before);
}

#[test]
fn certifier_group_survives_two_failures() {
    let mut g = CertifierGroup::paper_default();
    match g.kill(SimTime::from_secs(1), 0) {
        Some(GroupEvent::FailedOver { leader, .. }) => assert_eq!(leader, 1),
        other => panic!("unexpected {other:?}"),
    }
    match g.kill(SimTime::from_secs(2), 1) {
        Some(GroupEvent::FailedOver { leader, .. }) => assert_eq!(leader, 2),
        other => panic!("unexpected {other:?}"),
    }
    assert!(g.is_available());
    assert_eq!(g.failovers(), 2);
    // Third failure exhausts the group.
    assert_eq!(
        g.kill(SimTime::from_secs(3), 2),
        Some(GroupEvent::Unavailable)
    );
    // A restart restores service as a backup-elect.
    g.restart(0);
    assert_eq!(g.live_members(), 1);
}

#[test]
fn balancer_soft_state_is_reconstructible() {
    // §4.2.1: the backup balancer starts from scratch; clients reconnect
    // and the connection counts rebuild naturally.
    let mut primary = LoadBalancer::least_connections(4);
    for _ in 0..8 {
        primary.dispatch(TxnTypeId(0));
    }
    // Fail over: a fresh balancer with zero soft state.
    let mut backup = LoadBalancer::least_connections(4);
    let choices: Vec<usize> = (0..8).map(|_| backup.dispatch(TxnTypeId(0)).0).collect();
    // It spreads evenly immediately — no dependence on lost state.
    for r in 0..4 {
        assert_eq!(choices.iter().filter(|c| **c == r).count(), 2);
    }
}

/// Knobs sized so the `failover` scenario has real plateaus on both sides
/// of the outage: enough warm-up for steady state, enough post-recovery
/// tail to measure.
fn failover_knobs() -> ScenarioKnobs {
    ScenarioKnobs {
        replicas: 3,
        clients_per_replica: 4,
        warmup_secs: 15,
        measured_secs: 80,
        ..ScenarioKnobs::smoke()
    }
}

#[test]
fn failover_scenario_recovers_throughput() {
    // Crash at warmup + measured/4 = 35 s, recover at 45 s, leader kill at
    // 65 s. Post-recovery throughput must return to within 10 % of the
    // pre-crash steady state — the scenario's headline assertion.
    let knobs = failover_knobs();
    let sched = Failover::schedule(&knobs);
    let r = Failover::default()
        .run(&knobs)
        .expect("failover scenario runs to its End event");

    let pre = r.plateau(5.0, knobs.warmup_secs as f64, sched.crash_at_secs as f64);
    // Leave one settle bucket after recovery before measuring.
    let post = r.plateau(
        5.0,
        sched.recover_at_secs as f64 + 5.0,
        (knobs.warmup_secs + knobs.measured_secs) as f64,
    );
    assert!(pre > 1.0, "pre-crash steady state too idle: {pre} tps");
    assert!(
        post >= 0.9 * pre,
        "post-recovery throughput {post:.1} tps did not return to within \
         10% of the pre-crash steady state {pre:.1} tps"
    );

    // The fault log carries the exact schedule.
    let kinds: Vec<FaultKind> = r.faults.iter().map(|f| f.kind).collect();
    assert_eq!(
        kinds,
        vec![
            FaultKind::ReplicaCrash(2),
            FaultKind::ReplicaRecover(2),
            FaultKind::CertifierFailover {
                group: 0,
                leader: 1
            },
        ]
    );
    assert_eq!(r.faults[0].at, SimTime::from_secs(sched.crash_at_secs));
    assert_eq!(r.faults[1].at, SimTime::from_secs(sched.recover_at_secs));
}

#[test]
fn crashed_replica_rejoins_consistent_through_the_harness() {
    // Drive the crash/recover pair through World directly and stop right
    // at the recovery instant: the victim must have replayed the certifier
    // log exactly to its head, with a cold cache doing real reads.
    let exp = Failover::default().experiment(&failover_knobs());
    let mut world = World::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
    world.prime();
    world.schedule(SimTime::from_secs(4), Ev::ReplicaCrash { replica: 2 });
    world.schedule(SimTime::from_secs(9), Ev::ReplicaRecover { replica: 2 });
    world.schedule(SimTime::from_secs(9), Ev::End);
    world.run_to_end().expect("End event scheduled");
    assert!(world.node(2).is_up());
    assert_eq!(
        world.replica(2).applied(),
        world.certifier().version(),
        "recovery replays the certifier log to its head"
    );
    assert!(
        world.certifier().version().0 > 0,
        "the outage window must have committed updates to replay"
    );
}

#[test]
fn certifier_leader_kill_through_the_harness_fails_over() {
    let exp = Failover::default().experiment(&failover_knobs());
    let mut world = World::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
    world.prime();
    world.schedule(
        SimTime::from_secs(3),
        Ev::CertifierKill {
            group: 0,
            member: 0,
        },
    );
    world.schedule(SimTime::from_secs(10), Ev::End);
    world.run_to_end().expect("End event scheduled");
    let group = world.certifier_group();
    assert_eq!(group.leader(), Some(1), "backup elected");
    assert_eq!(group.failovers(), 1);
    assert!(
        world.certifier().version().0 > 0,
        "certification keeps serving after the failover delay"
    );
}

/// Runs a world with every member of certifier group 0 killed at 3 s,
/// optionally restarting member 0 at `restart_at_secs`, ending at
/// `end_secs`.
fn full_certifier_outage(end_secs: u64, restart_at_secs: Option<u64>) -> World {
    let exp = Failover::default().experiment(&failover_knobs());
    let mut world = World::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
    world.prime();
    world.schedule(SimTime::from_secs(1), Ev::EndWarmup);
    for member in 0..3 {
        world.schedule(
            SimTime::from_secs(3),
            Ev::CertifierKill { group: 0, member },
        );
    }
    if let Some(at) = restart_at_secs {
        world.schedule(
            SimTime::from_secs(at),
            Ev::CertifierRestart {
                group: 0,
                member: 0,
            },
        );
    }
    world.schedule(SimTime::from_secs(end_secs), Ev::End);
    world.run_to_end().expect("End event scheduled");
    world
}

#[test]
fn dead_certifier_parks_requests_instead_of_aborting() {
    // Queue-and-wait back-pressure: with the whole group dead, new
    // certification requests park at the link — they are *not* failed like
    // conflicts. No outcome of any kind can originate from the dead
    // certifier, so the abort count must be frozen at its kill-time value:
    // two truncations of the same outage, 1 s and 3 s in, see identical
    // aborts (the no-spurious-aborts assertion), while requests pile up.
    let short = full_certifier_outage(4, None);
    let long = full_certifier_outage(6, None);
    assert!(
        !long.certifier_group().is_available(),
        "all three members dead leaves the group unavailable"
    );
    assert!(
        long.cert_link().waiting_certs() > 0,
        "an unavailable certifier must park requests, not fail them"
    );
    assert_eq!(
        short.finish_result().aborts,
        long.finish_result().aborts,
        "two extra seconds of total certifier outage produced aborts — \
         a dead certifier must never fail requests like conflicts"
    );
}

#[test]
fn certifier_restart_drains_parked_requests_in_arrival_order() {
    // The drain half: restarting one member elects it leader after the
    // failover delay and the parked requests go through it — committing
    // normally, in arrival order, with nothing left waiting.
    let outage = full_certifier_outage(6, None);
    let drained = full_certifier_outage(20, Some(6));
    assert_eq!(
        drained.cert_link().waiting_certs(),
        0,
        "queue fully drained"
    );
    assert!(drained.certifier_group().is_available());
    assert!(
        drained.certifier().version() > outage.certifier().version(),
        "drained requests must commit after the restart"
    );
    assert!(
        drained.finish_result().committed > outage.finish_result().committed,
        "throughput resumes after the restart"
    );
}

/// Runs a quiet partial-replication schedule (no crash faults) with the
/// rebalancer ticking every 2 s and one bandwidth-capped re-replication of
/// `group` injected at 6 s, ending at `warmup + measured_secs`. The tight
/// 512 B/s cap keeps the injected copy in flight for seconds of simulated
/// time.
fn migration_truncation(measured_secs: u64, group: usize) -> RunResult {
    let knobs = ScenarioKnobs {
        replicas: 4,
        clients_per_replica: 3,
        measured_secs,
        ..ScenarioKnobs::smoke()
    }
    .with_backfill_cap(Some(512));
    let mut exp = PartialReplication {
        faults: false,
        ..PartialReplication::default()
    }
    .experiment(&knobs);
    exp.config.migration_period = Some(SimTime::from_secs(2));
    run(exp.with_injection(SimTime::from_secs(6), Ev::Rereplicate { group }))
        .expect("partial run completes")
}

#[test]
fn migration_window_introduces_no_spurious_aborts() {
    // Truncation equality, same shape as the dead-certifier test: the two
    // runs share one deterministic schedule and differ only in when End
    // fires, so the short run is an exact prefix of the long one and any
    // abort-count difference could only originate in the extra window —
    // which here contains the capped copy's completion (filter widening
    // finalised, dispatch eligibility flipped, holder set changed) plus
    // further rebalancer ticks. Rebalancing must never fail client
    // requests, so the counts must match.
    const SHORT_MEASURED: u64 = 3; // ends at 8 s — the copy still in flight
    const LONG_MEASURED: u64 = 10; // ends at 15 s — completion + more ticks
    let short_end = SimTime::from_secs(ScenarioKnobs::smoke().warmup_secs + SHORT_MEASURED);
    // Pick a group whose injected copy ships real bytes and completes only
    // inside the extra window; overlap can make some groups' copies free.
    let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
    let groups = ReplicationPlanner::new(2).plan(&workload, 4).group_count();
    let (group, long) = (0..groups)
        .find_map(|g| {
            let r = migration_truncation(LONG_MEASURED, g);
            r.faults
                .iter()
                .any(|f| {
                    f.at > short_end
                        && matches!(f.kind, FaultKind::Rereplicate { bytes, .. } if bytes > 0)
                })
                .then_some((g, r))
        })
        .expect("some group's capped copy completes inside the extra window");
    let short = migration_truncation(SHORT_MEASURED, group);
    assert!(
        !short
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Rereplicate { .. })),
        "the injected copy must still be in flight when the short run ends"
    );
    assert!(
        long.migration_bytes > short.migration_bytes,
        "the extra window must ship migration traffic"
    );
    assert_eq!(
        short.aborts, long.aborts,
        "completing a migration in the extra window changed the abort \
         count — rebalancing must never fail in-flight requests"
    );
}

#[test]
fn sharded_group_outage_parks_only_its_own_groups_requests() {
    // Per-group back-pressure under sharded certification: killing every
    // member of one group parks only the transactions touching it; the
    // other groups keep certifying and the cluster keeps committing.
    let knobs = failover_knobs().with_cert_groups(Some(4));
    let exp = tashkent::cluster::TpcwSteadyState::default().experiment(&knobs);
    let mut world = World::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
    world.prime();
    world.schedule(SimTime::from_secs(1), Ev::EndWarmup);
    for member in 0..3 {
        world.schedule(
            SimTime::from_secs(3),
            Ev::CertifierKill { group: 1, member },
        );
    }
    world.schedule(SimTime::from_secs(10), Ev::End);
    world.run_to_end().expect("End event scheduled");
    assert!(!world.cert_link().group_of(1).is_available());
    assert!(
        world.cert_link().waiting_certs() > 0,
        "requests touching the dead group must park"
    );
    let commits = world.cert_link().cert_group_commits();
    let dead_head = commits[1].last().copied().unwrap_or(0);
    assert!(
        commits
            .iter()
            .enumerate()
            .any(|(g, log)| g != 1 && log.last().copied().unwrap_or(0) > dead_head),
        "the surviving groups must keep committing past the dead group's head"
    );
}

#[test]
fn crash_and_recover_are_idempotent_through_the_harness() {
    // Double crash and double recover must be no-ops: only one fault pair
    // lands in the log, and the run still completes.
    let exp = Failover::default().experiment(&failover_knobs());
    let mut world = World::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
    world.prime();
    world.schedule(SimTime::from_secs(3), Ev::ReplicaCrash { replica: 1 });
    world.schedule(SimTime::from_secs(4), Ev::ReplicaCrash { replica: 1 });
    world.schedule(SimTime::from_secs(6), Ev::ReplicaRecover { replica: 1 });
    world.schedule(SimTime::from_secs(7), Ev::ReplicaRecover { replica: 1 });
    world.schedule(SimTime::from_secs(10), Ev::End);
    world.run_to_end().expect("End event scheduled");
    let kinds: Vec<FaultKind> = world.metrics().faults().iter().map(|f| f.kind).collect();
    assert_eq!(
        kinds,
        vec![FaultKind::ReplicaCrash(1), FaultKind::ReplicaRecover(1)]
    );
}

/// Knobs sized like [`failover_knobs`] for the `detection` scenario: with
/// warmup 15 s / measured 80 s its schedule is partition at 25 s, heal at
/// 27 s, crash at 55 s, recover at 65 s, end at 95 s.
fn detection_knobs() -> ScenarioKnobs {
    ScenarioKnobs {
        replicas: 3,
        clients_per_replica: 4,
        warmup_secs: 15,
        measured_secs: 80,
        ..ScenarioKnobs::smoke()
    }
}

#[test]
fn false_suspicion_rejoins_with_zero_rereplication() {
    // A partitioned-then-healed replica under partial replication: the
    // detector suspects it (so its in-flight work is retried on survivors)
    // but the heal beats the dead threshold, so rejoining is a cheap
    // filter-widen — no relation group may move.
    let knobs = detection_knobs().with_min_copies(Some(2));
    let mut config = knobs.config(PolicySpec::malb_sc());
    config.heartbeat_period_us = 500_000;
    config.client_timeout_us = 3_000_000;
    let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
    let mut world = World::new(config, workload, vec![mix]);
    world.prime();
    let end = knobs.warmup_secs + knobs.measured_secs;
    world.schedule(SimTime::from_secs(knobs.warmup_secs), Ev::EndWarmup);
    world.schedule(
        SimTime::from_secs(25),
        Ev::LinkPartition {
            a: CONTROL_NODE,
            b: 2,
            heal_at: SimTime::from_secs(27),
        },
    );
    world.schedule(SimTime::from_secs(end), Ev::End);
    world.run_to_end().expect("End event scheduled");

    let r = world.finish_result();
    let kinds: Vec<FaultKind> = r.faults.iter().map(|f| f.kind).collect();
    // Suspected during the outage, trusted after the heal, never dead.
    assert!(kinds.contains(&FaultKind::ReplicaSuspected(2)));
    assert!(kinds.contains(&FaultKind::ReplicaTrusted(2)));
    assert!(!kinds.contains(&FaultKind::ReplicaDead(2)));
    assert!(world.node(2).is_up());
    assert_eq!(world.replica_health(2), ReplicaHealth::Live);
    // The rejoin cost nothing: no re-replication, no migration, no bytes.
    assert!(
        !kinds
            .iter()
            .any(|k| matches!(k, FaultKind::Rereplicate { .. } | FaultKind::Migrate { .. })),
        "a false suspicion must never move data: {kinds:?}"
    );
    assert_eq!(
        r.migration_bytes, 0,
        "re-replication is deferred until a replica is declared dead"
    );
    // The suspicion records its detection latency back to the injection.
    let suspect = r
        .faults
        .iter()
        .find(|f| f.kind == FaultKind::ReplicaSuspected(2))
        .expect("suspicion recorded");
    assert_eq!(suspect.injected_at, SimTime::from_secs(25));
    assert!(suspect.at > suspect.injected_at);
    // Throughput returns to within 10 % of the pre-partition steady state
    // (settle one 5 s bucket after the heal before measuring).
    let pre = r.plateau(5.0, knobs.warmup_secs as f64, 25.0);
    let post = r.plateau(5.0, 32.0, end as f64);
    assert!(pre > 1.0, "pre-partition steady state too idle: {pre} tps");
    assert!(
        post >= 0.9 * pre,
        "post-heal throughput {post:.1} tps did not return to within 10% \
         of the pre-partition steady state {pre:.1} tps"
    );
}

#[test]
fn detection_scenario_discovers_the_crash_and_recovers_throughput() {
    // End-to-end through the `detection` scenario: nobody tells the
    // balancer about the crash — the detector walks the victim through
    // Suspected to Dead on missed heartbeats, recovery replays the
    // checkpoint-lag redo window, and trust (plus throughput) returns.
    let knobs = detection_knobs();
    let sched = Detection::schedule(&knobs);
    let r = Detection::default()
        .run(&knobs)
        .expect("detection scenario runs to its End event");

    let kinds: Vec<FaultKind> = r.faults.iter().map(|f| f.kind).collect();
    let cv = Detection::crash_victim();
    let pos = |k: FaultKind| {
        kinds
            .iter()
            .position(|x| *x == k)
            .unwrap_or_else(|| panic!("missing {k:?} in {kinds:?}"))
    };
    assert!(pos(FaultKind::ReplicaCrash(cv)) < pos(FaultKind::ReplicaSuspected(cv)));
    assert!(pos(FaultKind::ReplicaSuspected(cv)) < pos(FaultKind::ReplicaDead(cv)));
    assert!(pos(FaultKind::ReplicaDead(cv)) < pos(FaultKind::ReplicaRecover(cv)));
    assert!(pos(FaultKind::ReplicaRecover(cv)) < pos(FaultKind::ReplicaTrusted(cv)));
    // The dead verdict measures its latency from the real crash instant.
    let dead = r
        .faults
        .iter()
        .find(|f| f.kind == FaultKind::ReplicaDead(cv))
        .expect("dead verdict recorded");
    assert_eq!(dead.injected_at, SimTime::from_secs(sched.crash_at_secs));
    assert!(dead.detection_latency_us() > 0);
    // Checkpoint-lag recovery replayed a real redo window.
    assert!(r.redo_bytes > 0, "redo window shipped bytes");
    assert!(r.redo_us > 0, "redo replay took time");
    // Throughput recovers within 10 % of the steady state between the
    // partition heal and the crash.
    let end = (knobs.warmup_secs + knobs.measured_secs) as f64;
    let pre = r.plateau(
        5.0,
        (sched.partition_at_secs + 7) as f64,
        sched.crash_at_secs as f64,
    );
    let post = r.plateau(5.0, (sched.recover_at_secs + 10) as f64, end);
    assert!(pre > 1.0, "pre-crash steady state too idle: {pre} tps");
    assert!(
        post >= 0.9 * pre,
        "post-recovery throughput {post:.1} tps did not return to within \
         10% of the pre-crash steady state {pre:.1} tps"
    );
}

/// Runs a two-replica cluster with the detector off and a 25 s control-link
/// partition on replica 1, under the given client request timeout.
fn partitioned_run(client_timeout_us: u64) -> RunResult {
    let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
    let config = ClusterConfig {
        replicas: 2,
        clients: 8,
        think_mean_us: 200_000,
        client_timeout_us,
        ..ClusterConfig::paper_default()
    };
    let mut world = World::new(config, workload, vec![mix]);
    world.prime();
    world.schedule(SimTime::from_secs(2), Ev::EndWarmup);
    // Heartbeats are off, so no sweep ever rescues the victims' in-flight
    // work — only the clients' own timers can.
    world.schedule(
        SimTime::from_secs(5),
        Ev::LinkPartition {
            a: CONTROL_NODE,
            b: 1,
            heal_at: SimTime::from_secs(30),
        },
    );
    world.schedule(SimTime::from_secs(35), Ev::End);
    world.run_to_end().expect("End event scheduled");
    world.finish_result()
}

#[test]
fn client_timeouts_rescue_updates_stranded_by_a_partition() {
    // An update whose certification request is dropped by the partition
    // leaves its client waiting forever: without a request timeout the
    // client is wedged for the rest of the run, with one it abandons the
    // request and retries elsewhere under capped exponential backoff.
    let with_timeout = partitioned_run(2_000_000);
    let without = partitioned_run(0);
    assert!(
        with_timeout.committed > without.committed,
        "client timeouts must rescue stranded updates: {} committed with \
         a 2 s timeout vs {} without",
        with_timeout.committed,
        without.committed
    );
}

#[test]
fn certification_still_correct_across_checkpointing() {
    // Certifying against a long log must never lose conflicts newer than
    // the snapshot.
    let mut cert = Certifier::default();
    commit_n(&mut cert, 30);
    // A stale snapshot writing a recently-written row conflicts.
    let ws = Writeset::new(
        TxnId(99),
        TxnTypeId(0),
        Snapshot::at(Version(22)),
        vec![WritesetItem::new(RelationId(0), 25)],
    );
    assert_eq!(
        cert.certify(SimTime::from_secs(1), ws),
        CertifyOutcome::Conflict
    );
}
