//! Property-based recovery invariants (§3 recovery, §4.2.1 fault
//! tolerance), via the offline `proptest` stand-in:
//!
//! * **catch-up**: however far behind a recovered replica restarts, one
//!   log replay from the certifier's persistent log brings it exactly to
//!   the certifier's version — and the log itself never loses a committed
//!   transaction (versions are a contiguous prefix);
//! * **harness catch-up**: the same invariant through the event loop — a
//!   `ReplicaCrash`/`ReplicaRecover` pair injected at arbitrary times
//!   leaves the victim at the certifier's version the instant recovery
//!   completes;
//! * **dispatch safety**: whatever subset of replicas is dead (short of
//!   all of them), no policy ever dispatches to a crashed replica, and
//!   every replica serves again after recovery;
//! * **transient partitions are free**: whenever a control-link partition
//!   heals before the detector's dead threshold, the victim is re-trusted
//!   with zero re-replication — false suspicion never moves data.

use proptest::prelude::*;
use tashkent::certifier::Certifier;
use tashkent::cluster::{
    ClusterConfig, ClusterState, Ev, FaultKind, PlacementSpec, PolicySpec, ReplicaHealth,
    CONTROL_NODE,
};
use tashkent::core::{LardConfig, LoadBalancer, MalbConfig, PageTable, ReplicaId, WorkingSet};
use tashkent::engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent::replica::{ReplicaConfig, ReplicaNode};
use tashkent::sim::{EventQueue, SimRng, SimTime};
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
            vec![WritesetItem::new(RelationId(0), i % 97)],
        );
        cert.certify(SimTime::from_millis(i), ws);
    }
}

proptest! {
    /// Log replay from an arbitrary checkpoint reaches exactly the
    /// certifier's version, and the log holds every committed transaction
    /// as a contiguous version prefix (none lost).
    #[test]
    fn replay_catches_up_from_any_checkpoint(
        commits in 1u64..80,
        checkpoint_permille in 0u64..1000,
        seed in 1u64..1000,
    ) {
        let mut cert = Certifier::default();
        commit_n(&mut cert, commits);
        // No committed transaction is lost: the persistent log is a
        // contiguous prefix 1..=commits.
        let log = cert.log().since(Version(0));
        prop_assert_eq!(log.len() as u64, commits);
        for (i, (version, _)) in log.iter().enumerate() {
            prop_assert_eq!(version, Version(i as u64 + 1));
        }

        let mut node = ReplicaNode::new(
            0,
            mini_catalog(),
            ReplicaConfig::default(),
            SimRng::seed_from(seed),
        );
        node.apply_writesets(SimTime::from_secs(1), log);
        prop_assert_eq!(node.applied(), cert.version());

        // Crash, restart from an arbitrary earlier checkpoint, replay.
        node.crash();
        let checkpoint = Version(commits * checkpoint_permille / 1000);
        node.recover(checkpoint);
        node.apply_writesets(SimTime::from_secs(2), cert.log().since(checkpoint));
        prop_assert_eq!(node.applied(), cert.version());
        prop_assert_eq!(node.outstanding(), 0, "crash drained the admission queue");
    }

    /// Through the event loop: crash and recover a replica at arbitrary
    /// times; the instant recovery completes, the victim has applied
    /// exactly the certifier's version (the run ends at that instant so
    /// later commits cannot mask a partial replay).
    #[test]
    fn harness_recovery_applies_the_certifier_version(
        seed in 1u64..500,
        crash_at in 2u64..6,
        downtime in 1u64..4,
        victim in 0usize..2,
    ) {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let config = ClusterConfig {
            replicas: 2,
            clients: 8,
            think_mean_us: 200_000,
            seed,
            ..ClusterConfig::paper_default()
        };
        let mut state = ClusterState::new(config, workload, vec![mix]);
        let mut queue = EventQueue::new();
        state.prime(&mut queue);
        let recover_at = crash_at + downtime;
        queue.schedule(SimTime::from_secs(crash_at), Ev::ReplicaCrash { replica: victim });
        queue.schedule(SimTime::from_secs(recover_at), Ev::ReplicaRecover { replica: victim });
        // Same instant, scheduled after the recovery: FIFO runs it second.
        queue.schedule(SimTime::from_secs(recover_at), Ev::End);
        state.run_to_end(&mut queue).expect("End event scheduled");
        prop_assert!(state.node(victim).is_up());
        prop_assert_eq!(
            state.node(victim).applied(),
            state.certifier().version(),
            "log replay must catch the replica up, seed {}", seed
        );
    }

    /// No dispatch policy ever selects a crashed replica, and a recovered
    /// replica serves again.
    #[test]
    fn dispatch_never_selects_a_crashed_replica(
        replicas in 2usize..8,
        dead_mask in any::<u32>(),
        policy in 0u8..3,
        dispatches in 1usize..60,
    ) {
        let mut lb = match policy {
            0 => LoadBalancer::least_connections(replicas),
            1 => LoadBalancer::lard(replicas, LardConfig::default()),
            _ => {
                // Two disjoint working sets of 80 pages over however many
                // replicas.
                let sets = vec![
                    WorkingSet {
                        txn_type: TxnTypeId(0),
                        relations: [RelationId(0)].into_iter().collect(),
                        scanned: [RelationId(0)].into_iter().collect(),
                    },
                    WorkingSet {
                        txn_type: TxnTypeId(1),
                        relations: [RelationId(1)].into_iter().collect(),
                        scanned: [RelationId(1)].into_iter().collect(),
                    },
                ];
                let cfg = MalbConfig::paper_default(
                    tashkent::core::EstimationMode::SizeContent,
                    100,
                );
                LoadBalancer::malb(replicas, sets, PageTable::from(vec![80, 80]), cfg)
            }
        };
        // Kill an arbitrary subset, always leaving replica 0 alive.
        let dead: Vec<usize> = (1..replicas).filter(|r| dead_mask & (1 << r) != 0).collect();
        for &r in &dead {
            lb.replica_failed(ReplicaId(r));
        }
        for i in 0..dispatches {
            let choice = lb.dispatch(TxnTypeId((i % 2) as u32), |_, _| true);
            prop_assert!(
                !dead.contains(&choice.0),
                "policy {} dispatched to dead replica {}", policy, choice.0
            );
        }
        // Recovery: every replica is eligible again, and sustained load
        // reaches the recovered ones under the connection-counting
        // policies.
        for &r in &dead {
            lb.replica_recovered(ReplicaId(r));
        }
        if policy == 0 {
            for _ in 0..replicas * 3 {
                lb.dispatch(TxnTypeId(0), |_, _| true);
            }
            for &r in &dead {
                prop_assert!(
                    lb.connections()[r] > 0,
                    "recovered replica {} never served again", r
                );
            }
        }
    }

    /// A control-link partition healed before the detector's dead
    /// threshold never triggers re-replication: wherever and whenever it
    /// strikes, the victim stays up, is re-trusted after the heal, and no
    /// relation group moves. With the default 500 ms heartbeat and dead
    /// threshold of 5 misses, any outage under 2 s covers at most 4 ticks.
    #[test]
    fn transient_partitions_cost_no_rereplication(
        seed in 1u64..200,
        partition_at_ms in 2_000u64..6_000,
        partition_len_ms in 100u64..1_900,
        victim in 0usize..3,
    ) {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let mut config = ClusterConfig {
            replicas: 3,
            clients: 9,
            think_mean_us: 200_000,
            seed,
            heartbeat_period_us: 500_000,
            client_timeout_us: 1_000_000,
            ..ClusterConfig::paper_default().with_policy(PolicySpec::malb_sc())
        };
        config.placement = PlacementSpec::Partial { min_copies: 2 };
        let mut state = ClusterState::new(config, workload, vec![mix]);
        let mut queue = EventQueue::new();
        state.prime(&mut queue);
        queue.schedule(SimTime::from_secs(1), Ev::EndWarmup);
        queue.schedule(
            SimTime::from_millis(partition_at_ms),
            Ev::LinkPartition {
                a: CONTROL_NODE,
                b: victim,
                heal_at: SimTime::from_millis(partition_at_ms + partition_len_ms),
            },
        );
        queue.schedule(SimTime::from_secs(12), Ev::End);
        state.run_to_end(&mut queue).expect("End event scheduled");
        prop_assert!(state.node(victim).is_up(), "a partition never downs a node");
        let r = state.finish_result(queue.now());
        let kinds: Vec<FaultKind> = r.faults.iter().map(|f| f.kind).collect();
        prop_assert!(!kinds.contains(&FaultKind::ReplicaDead(victim)));
        prop_assert!(
            !kinds.iter().any(|k| matches!(
                k,
                FaultKind::Rereplicate { .. } | FaultKind::Migrate { .. }
            )),
            "a transient partition moved data, seed {}: {:?}", seed, kinds
        );
        prop_assert_eq!(r.migration_bytes, 0);
        // If the detector got as far as suspicion, the heal restored trust.
        if kinds.contains(&FaultKind::ReplicaSuspected(victim)) {
            prop_assert!(kinds.contains(&FaultKind::ReplicaTrusted(victim)));
        }
        prop_assert_eq!(state.replica_health(victim), ReplicaHealth::Live);
    }
}
