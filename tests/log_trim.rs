//! The certifier log held in host memory stays bounded: under full
//! replication, with one certifier group or several, the cluster trims the
//! log below the oldest position a reader can still ask for, and under
//! partial placement, whose backfills replay from version 0, it keeps the
//! log whole.

use tashkent::cluster::{ClusterState, Ev, PolicySpec, ScenarioKnobs};
use tashkent::engine::Version;
use tashkent::sim::{EventQueue, SimTime};
use tashkent::workloads::tpcw::{self, TpcwScale};

/// Entries the log may retain: the 1,024 commits between two trim scans
/// plus the lag of the oldest reader behind the head at a scan, tens of
/// commits on this run.
const RETAINED_BOUND: u64 = 1_200;

/// A 4-replica MALB-SC+UF run of the TPC-W ordering mix, stopped at `end`
/// seconds.
fn ordering_run(knobs: ScenarioKnobs, end: u64) -> ClusterState {
    let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
    let mut state = ClusterState::new(knobs.config(PolicySpec::malb_sc_uf()), workload, vec![mix]);
    let mut queue = EventQueue::new();
    state.prime(&mut queue);
    queue.schedule(SimTime::from_secs(end), Ev::End);
    state.run_to_end(&mut queue).expect("End event scheduled");
    state
}

fn knobs() -> ScenarioKnobs {
    ScenarioKnobs {
        replicas: 4,
        ..ScenarioKnobs::smoke()
    }
}

/// `(head, base)` of the run's commit log.
fn log_ends(state: &ClusterState) -> (Version, Version) {
    let log = state.certifier().log();
    (log.head(), log.base())
}

#[test]
fn retained_entries_stay_bounded_while_the_head_grows() {
    // One certifier group and four, both under full placement.
    for knobs in [knobs(), knobs().with_cert_groups(Some(4))] {
        let (head60, base60) = log_ends(&ordering_run(knobs.clone(), 60));
        let (head180, base180) = log_ends(&ordering_run(knobs.clone(), 180));
        assert!(
            head180.0 > 3 * head60.0,
            "{knobs:?}: the head grows from {head60} to {head180}"
        );
        assert!(
            base180 > Version(0),
            "{knobs:?}: the log was trimmed by 180 s"
        );
        for (head, base) in [(head60, base60), (head180, base180)] {
            assert!(
                head.0 - base.0 < RETAINED_BOUND,
                "{knobs:?}: {} entries retained at head {head}",
                head.0 - base.0
            );
        }
    }
}

#[test]
fn partial_placement_keeps_the_whole_log() {
    let knobs = knobs().with_min_copies(Some(2));
    let (head, base) = log_ends(&ordering_run(knobs, 180));
    assert!(
        head.0 > 2 * RETAINED_BOUND,
        "the run commits past two trim scans"
    );
    assert_eq!(base, Version(0), "the log stays whole");
}
