//! Integration tests for the live placement-rebalancing lifecycle:
//!
//! * **capped backfill is observable** — a bandwidth-capped copy completes
//!   later than an uncapped one, and quartering the cap pushes completion
//!   further out (the regression target: backfill used to be charged
//!   instantaneously, so `add_holder` had no cost no matter the volume);
//! * **pending holders are invisible to dispatch** — between the filter
//!   widening and [`FaultKind::Rereplicate`] landing in the fault log, the
//!   new holder stays ineligible for the group's types. The routing
//!   invariant is also a hard assertion inside `ClusterState::submit_txn`,
//!   so every capped run doubles as a "never dispatched mid-backfill"
//!   check;
//! * **the rebalance scenario converges** — the registered scenario keeps
//!   serving while groups migrate, and migrated groups never leave a group
//!   under `min_copies` holders.

use tashkent::cluster::{
    run, Ev, Experiment, FaultKind, PartialReplication, ReplicationPlanner, Scenario,
    ScenarioKnobs, TypeGroups,
};
use tashkent::sim::SimTime;
use tashkent::workloads::tpcw::{self, TpcwScale};

const REPLICAS: usize = 4;
const MIN_COPIES: usize = 2;
const INJECT_AT_SECS: u64 = 8;

/// Knobs for a quiet partial-replication run (no crash schedule, no
/// rebalancer ticks) with one injected re-replication — the isolated
/// backfill under test.
fn knobs(cap: Option<u64>) -> ScenarioKnobs {
    ScenarioKnobs {
        replicas: REPLICAS,
        clients_per_replica: 3,
        ..ScenarioKnobs::smoke()
    }
    .with_backfill_cap(cap)
}

/// Picks a relation group whose injected re-replication actually ships
/// bytes. Overlap through other groups can make a copy free, and a group
/// whose relations the mix never writes has nothing in the certifier log —
/// either would make the timing tests vacuous — so probe each candidate
/// with a deterministic uncapped run and take the first that ships.
fn group_that_ships_bytes() -> usize {
    let (workload, _) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
    let groups = TypeGroups::derive(&workload);
    let p = ReplicationPlanner::new(MIN_COPIES).plan(&workload.catalog, &groups, REPLICAS);
    (0..p.group_count())
        .find(|g| {
            let r = run(experiment(None, *g)).expect("probe run completes");
            r.faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::Rereplicate { bytes, .. } if bytes > 0))
        })
        .expect("some group's re-replication ships bytes")
}

fn experiment(cap: Option<u64>, group: usize) -> Experiment {
    PartialReplication {
        faults: false,
        ..PartialReplication::default()
    }
    .experiment(&knobs(cap))
    .with_injection(
        SimTime::from_secs(INJECT_AT_SECS),
        Ev::Rereplicate { group },
    )
}

/// The simulated time at which the injected backfill completed (the fault
/// is recorded at completion, not at injection).
fn completion_us(cap: Option<u64>, group: usize) -> u64 {
    let r = run(experiment(cap, group)).expect("run completes");
    let f = r
        .faults
        .iter()
        .find(|f| matches!(f.kind, FaultKind::Rereplicate { .. }))
        .expect("injected re-replication recorded");
    if let FaultKind::Rereplicate { bytes, .. } = f.kind {
        assert!(bytes > 0, "the chosen group must ship bytes");
    }
    assert!(r.migration_bytes > 0);
    f.at.as_micros()
}

#[test]
fn backfill_completion_scales_inversely_with_the_bandwidth_cap() {
    let group = group_that_ships_bytes();
    let instant = completion_us(None, group);
    let fast = completion_us(Some(64 * 1024), group);
    let slow = completion_us(Some(16 * 1024), group);
    let injected = SimTime::from_secs(INJECT_AT_SECS).as_micros();
    assert!(instant >= injected);
    assert!(
        fast > instant,
        "a capped copy must finish later than an instantaneous one: {fast} vs {instant}"
    );
    assert!(
        slow > fast,
        "quartering the cap must push completion further out: {slow} vs {fast}"
    );
}

#[test]
fn still_backfilling_holder_is_never_eligible_for_dispatch() {
    let group = group_that_ships_bytes();
    // A tight cap keeps the copy in flight across many events.
    let (mut state, mut queue) = experiment(Some(2 * 1024), group).build();
    let before: Vec<usize> = state.placement().holders(group).to_vec();
    let types = state.placement().groups()[group].types.clone();
    let mut pending_boundaries = 0u64;
    while !state.ended() {
        let (now, ev) = queue.pop().expect("End event scheduled");
        // submit_txn hard-asserts dispatch eligibility on every submission,
        // so simply driving the run is the "never dispatched" regression
        // check; on top of that, pin the mask-level reason at every event
        // boundary while the copy is in flight.
        state.handle(now, ev, &mut queue);
        let p = state.placement();
        if let Some(target) = p
            .holders(group)
            .iter()
            .copied()
            .find(|r| !before.contains(r))
        {
            if !p.pending_relations(target).is_empty() {
                pending_boundaries += 1;
                for t in &types {
                    assert!(
                        !p.eligible(*t, target),
                        "still-backfilling holder {target} eligible for type {t:?} at {now:?}"
                    );
                }
            }
        }
    }
    assert!(
        pending_boundaries > 100,
        "the capped copy must stay in flight across many events (got {pending_boundaries})"
    );
    // And after completion the holder is eligible — the gate lifts.
    let p = state.placement();
    let target = p
        .holders(group)
        .iter()
        .copied()
        .find(|r| !before.contains(r))
        .expect("injected re-replication added a holder");
    assert!(p.pending_relations(target).is_empty());
    for t in &types {
        assert!(p.eligible(*t, target), "completed holder stays barred");
    }
}

#[test]
fn rebalance_scenario_keeps_groups_durable_while_migrating() {
    let k = ScenarioKnobs {
        replicas: REPLICAS,
        clients_per_replica: 3,
        ..ScenarioKnobs::smoke()
    };
    let r = tashkent::cluster::run_scenario("rebalance", &k).expect("scenario completes");
    assert!(r.committed > 0, "cluster kept serving while migrating");
    assert!(r.migration_bytes > 0, "migrations must ship bytes");
    // Donors are only dropped at copy completion and never below
    // min_copies, so every migration in the log is a safe handoff.
    for f in &r.faults {
        if let FaultKind::Migrate { from, to, .. } = f.kind {
            assert_ne!(from, to, "a migration must actually move the group");
        }
    }
}
