//! Property tests for partial replication (the placement subsystem):
//!
//! * **durability** — at every event boundary of a run, including across
//!   the failover fault schedule, every relation group has at least
//!   `min(min_copies, live replicas)` live holders, and every live holder
//!   keeps the group's relations current (its update filter accepts them) —
//!   together: every committed writeset stays durable on `min_copies` live
//!   replicas, the crash handler re-replicating synchronously before any
//!   client is retried;
//! * **dispatch safety** — dispatch never routes a transaction to a
//!   non-holder. The routing invariant is a hard assertion inside
//!   `ClusterState::submit_txn`, so every run below doubles as a dispatch
//!   property check across random fault schedules;
//! * **re-replication** — the injectable `Ev::Rereplicate` widens a group's
//!   holder set via certifier-log backfill, and recovery catch-up under
//!   partial replication still lands the victim exactly on the certifier's
//!   version (held groups as pages, the rest as version ticks).

use proptest::prelude::*;
use tashkent::cluster::{ClusterState, Ev, FaultKind, PartialReplication, Scenario, ScenarioKnobs};
use tashkent::sim::SimTime;

/// Checks the durability invariant on a state snapshot; `deep` also
/// verifies that every live holder's filter keeps the group current.
fn assert_durable(state: &ClusterState, deep: bool) {
    let p = state.placement();
    let n = state.config.replicas;
    let live = (0..n).filter(|r| state.node(*r).is_up()).count();
    let need = p.min_copies().min(live);
    for g in 0..p.group_count() {
        let live_holders = p
            .holders(g)
            .iter()
            .filter(|r| state.node(**r).is_up())
            .count();
        assert!(
            live_holders >= need,
            "group {g}: {live_holders} live holders < {need}"
        );
        if deep {
            for &r in p.holders(g) {
                if !state.node(r).is_up() {
                    continue;
                }
                for rel in p.groups()[g].relations.iter() {
                    assert!(
                        state.node(r).filter().accepts(rel),
                        "live holder {r} filters out {rel} of its group {g}"
                    );
                }
            }
        }
    }
}

/// Drives the partial-replication scenario event by event and checks the
/// durability invariant at every boundary — the crash handler must
/// re-replicate synchronously, so there is never a window in which a group
/// sits below its constraint.
#[test]
fn durability_holds_at_every_event_across_the_failover_schedule() {
    for seed in [1, 42] {
        let knobs = ScenarioKnobs {
            replicas: 4,
            clients_per_replica: 3,
            ..ScenarioKnobs::smoke()
        }
        .with_seed(seed);
        let exp = PartialReplication::default().experiment(&knobs);
        let (mut state, mut queue) = exp.build();
        assert_durable(&state, true);
        let mut faults_seen = 0;
        while !state.ended() {
            let (now, ev) = queue.pop().expect("End event scheduled");
            state.handle(now, ev, &mut queue);
            // The deep (filter) check runs whenever the fault log grows;
            // the holder-count check runs at every single event boundary.
            let faults = state.metrics.faults().len();
            assert_durable(&state, faults != faults_seen);
            faults_seen = faults;
        }
        assert!(
            state
                .metrics
                .faults()
                .iter()
                .any(|f| matches!(f.kind, FaultKind::Rereplicate { .. })),
            "seed {seed}: the crash must have forced re-replication"
        );
        assert_durable(&state, true);
        // Convergence: the post-recovery shrink pass drops the surplus
        // copies the crash-time re-replication added, so placement returns
        // to exactly `min_copies` holders per group instead of ratcheting
        // wider with every crash/recover cycle.
        let p = state.placement();
        for g in 0..p.group_count() {
            assert_eq!(
                p.holders(g).len(),
                p.min_copies(),
                "seed {seed}: group {g} still over-replicated after recovery"
            );
        }
        assert!(
            state
                .metrics
                .faults()
                .iter()
                .any(|f| matches!(f.kind, FaultKind::ShrinkHolder { .. })),
            "seed {seed}: the recovery must have shed the surplus holder"
        );
    }
}

/// The injectable `Ev::Rereplicate` widens the holder set mid-run: the new
/// holder becomes eligible for the group's types, its filter accepts the
/// group's relations, and the fault log records the copy.
#[test]
fn rereplicate_event_widens_the_holder_set() {
    let knobs = ScenarioKnobs {
        replicas: 4,
        clients_per_replica: 3,
        ..ScenarioKnobs::smoke()
    };
    let scenario = PartialReplication {
        faults: false,
        ..PartialReplication::default()
    };
    let exp = scenario
        .experiment(&knobs)
        .with_injection(SimTime::from_secs(3), Ev::Rereplicate { group: 0 });
    let (mut state, mut queue) = exp.build();
    state.run_to_end(&mut queue).expect("End event scheduled");

    let p = state.placement();
    assert_eq!(
        p.holders(0).len(),
        p.min_copies() + 1,
        "the event must add exactly one holder"
    );
    let added = state
        .metrics
        .faults()
        .iter()
        .find_map(|f| match f.kind {
            FaultKind::Rereplicate { group: 0, to, .. } => Some(to),
            _ => None,
        })
        .expect("re-replication recorded in the fault log");
    assert!(p.holds_group(added, 0));
    for t in &p.groups()[0].types {
        assert!(p.eligible(*t, added), "new holder not eligible for {t}");
    }
    for rel in p.groups()[0].relations.iter() {
        assert!(state.node(added).filter().accepts(rel));
    }
}

/// MALB with update filtering on top of partial replication: MALB's filter
/// lists are placement-unaware, so they must never narrow a holder below
/// its held set — placement subsumes them. Regression for a bug where the
/// composed filter let live holders reject their own groups' relations,
/// silently voiding the durability invariant once MALB stabilized and
/// installed its lists.
#[test]
fn malb_update_filtering_never_narrows_a_holder_below_its_held_set() {
    let knobs = ScenarioKnobs {
        replicas: 4,
        clients_per_replica: 3,
        warmup_secs: 5,
        // Long enough for MALB to stabilize (10 rebalance rounds at the 5 s
        // period) and install its filter lists mid-run.
        measured_secs: 120,
        ..ScenarioKnobs::smoke()
    }
    .with_policy(tashkent::cluster::PolicySpec::malb_sc_uf());
    let scenario = PartialReplication {
        faults: false,
        ..PartialReplication::default()
    };
    let (mut state, mut queue) = scenario.experiment(&knobs).build();
    state.run_to_end(&mut queue).expect("End event scheduled");
    assert!(
        state.balancer().stats().filters_installed,
        "MALB must have installed its update filters for the regression to bite"
    );
    // Every live holder still keeps every relation of its groups current.
    assert_durable(&state, true);
}

proptest! {
    /// Random fault schedules over a partially-replicated cluster: the run
    /// completes (dispatch safety is asserted inside the cluster on every
    /// submit), the durability invariant holds at the end, and the
    /// recovered victim has applied exactly the certifier's version — the
    /// run ends the instant recovery completes, so catch-up under partial
    /// replication (held pages + version ticks) cannot hide a partial
    /// replay.
    #[test]
    fn random_faults_preserve_durability_and_catch_up(
        seed in 1u64..200,
        min_copies in 1usize..4,
        crash_at in 2u64..5,
        downtime in 1u64..3,
        victim in 0usize..3,
    ) {
        let knobs = ScenarioKnobs {
            replicas: 3,
            clients_per_replica: 3,
            warmup_secs: 1,
            measured_secs: crash_at + downtime,
            ..ScenarioKnobs::smoke()
        }
        .with_seed(seed)
        .with_min_copies(Some(min_copies));
        let exp = PartialReplication {
            faults: false,
            ..PartialReplication::default()
        }
        .experiment(&knobs);
        let (mut state, mut queue) = exp.build();
        let recover_at = crash_at + downtime;
        queue.schedule(SimTime::from_secs(crash_at), Ev::ReplicaCrash { replica: victim });
        queue.schedule(SimTime::from_secs(recover_at), Ev::ReplicaRecover { replica: victim });
        // Same instant, scheduled after the recovery: FIFO ends the run the
        // moment catch-up finishes (the End `build` scheduled never fires).
        queue.schedule(SimTime::from_secs(recover_at), Ev::End);
        state.run_to_end(&mut queue).expect("End event scheduled");
        assert_durable(&state, true);
        prop_assert!(state.node(victim).is_up());
        prop_assert_eq!(
            state.node(victim).applied(),
            state.certifier().version(),
            "partial-replication catch-up must land on the certifier version (seed {})",
            seed
        );
    }
}
