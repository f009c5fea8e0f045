//! Exactly-once outcomes: every client request ends exactly once, on every
//! registered scenario and under the faults that make clients abandon
//! attempts (timeouts, suspicion sweeps, crashes, partitions).
//!
//! A closed-loop client waits on one request at a time. The cluster gives
//! each client one request slot and each replica its own Gatekeeper slots,
//! so a request can neither be answered twice nor stranded. This test
//! checks that against each run's trace, read in memory. Per client, in
//! trace order:
//!
//! * an `arrive` with `retries: 0` comes only when the client has no open
//!   request;
//! * an `arrive` with `retries: k > 0` comes only as the open request's next
//!   attempt, after attempt `k − 1`;
//! * a `complete` names only the open request's latest attempt, at most
//!   once;
//! * a committed `complete`, or a `gave_up` naming the latest attempt,
//!   closes the request.

use std::collections::HashMap;

use tashkent::cluster::{
    registry, scenario, ClusterConfig, ClusterState, Ev, Experiment, ScenarioKnobs, TraceData,
    Tracer, CONTROL_NODE,
};
use tashkent::sim::{EventQueue, SimTime};
use tashkent::workloads::tpcw::{self, TpcwScale};

/// A client's open request: the latest attempt, its retry number, and
/// whether an abort already answered it (the client then retries or gives
/// up).
#[derive(Debug, Clone, Copy)]
struct Open {
    txn: u64,
    retries: u32,
    aborted: bool,
}

/// Checks `state`'s trace against the rules in the module doc and returns
/// the number of retried attempts it saw.
fn check(name: &str, state: &ClusterState) -> usize {
    assert!(state.tracer.on(), "{name}: tracing is off");
    assert_eq!(
        state.tracer.dropped(),
        0,
        "{name}: the trace ring dropped events"
    );
    let mut open: Vec<Option<Open>> = vec![None; state.config.clients];
    let mut client_of: HashMap<u64, usize> = HashMap::new();
    let mut retried = 0;
    for ev in state.tracer.events() {
        let at = ev.at.as_micros();
        match ev.data {
            TraceData::Arrive {
                txn,
                client,
                retries,
                ..
            } => {
                let slot = &mut open[client];
                if retries == 0 {
                    assert!(
                        slot.is_none(),
                        "{name}: client {client} opened txn {txn} at {at} us \
                         with {slot:?} still open"
                    );
                } else {
                    let prev = slot.unwrap_or_else(|| {
                        panic!(
                            "{name}: client {client} retried as txn {txn} at {at} us \
                             with no request open"
                        )
                    });
                    assert_eq!(
                        prev.retries + 1,
                        retries,
                        "{name}: client {client} retried as txn {txn} at {at} us \
                         after {prev:?}"
                    );
                    retried += 1;
                }
                *slot = Some(Open {
                    txn,
                    retries,
                    aborted: false,
                });
                client_of.insert(txn, client);
            }
            TraceData::Complete { txn, committed, .. } => {
                let client = *client_of
                    .get(&txn)
                    .unwrap_or_else(|| panic!("{name}: txn {txn} completed unsubmitted"));
                let slot = &mut open[client];
                match slot {
                    Some(o) if o.txn == txn && !o.aborted => {
                        if committed {
                            *slot = None;
                        } else {
                            o.aborted = true;
                        }
                    }
                    _ => panic!(
                        "{name}: txn {txn} of client {client} completed at {at} us \
                         while the client's request is {slot:?}"
                    ),
                }
            }
            TraceData::GaveUp { txn, client } => {
                let slot = &mut open[client];
                assert!(
                    slot.is_some_and(|o| o.txn == txn),
                    "{name}: client {client} gave up on txn {txn} at {at} us \
                     while its request is {slot:?}"
                );
                *slot = None;
            }
            _ => {}
        }
    }
    retried
}

/// A tracer that keeps every event in memory for the checker.
fn in_memory_trace() -> Tracer {
    Tracer::in_memory(1 << 22)
}

/// Runs `exp` traced to its end and returns the state.
fn run_traced(exp: Experiment) -> ClusterState {
    let (mut state, mut queue) = exp.build();
    state.tracer = in_memory_trace();
    state.run_to_end(&mut queue).expect("End event scheduled");
    state
}

/// `result_golden`'s knobs: smoke scale on four replicas, seed 42.
fn knobs() -> ScenarioKnobs {
    ScenarioKnobs {
        replicas: 4,
        ..ScenarioKnobs::smoke()
    }
}

#[test]
fn every_registered_scenario_ends_each_request_once() {
    for s in registry() {
        check(s.name(), &run_traced(s.experiment(&knobs())));
    }
}

#[test]
fn requests_abandoned_to_timeouts_and_sweeps_end_once() {
    // Detection sweeps a suspected replica's requests while a partition
    // keeps it running them; failover (detector off) sweeps at the crash.
    // A 1 s timeout makes clients abandon attempts on both, so stale
    // completions reach replicas whose clients have moved on.
    for name in ["detection", "failover"] {
        for seed in 1..=5 {
            let knobs = knobs().with_seed(seed).with_client_timeout(Some(1_000_000));
            let exp = scenario(name)
                .unwrap_or_else(|| panic!("no scenario named {name:?}"))
                .experiment(&knobs);
            let run = format!("{name} seed {seed}");
            let retried = check(&run, &run_traced(exp));
            assert!(retried > 0, "{run}: no attempt was retried");
        }
    }
}

#[test]
fn requests_stranded_by_a_partition_end_once() {
    // `tests/failures.rs`'s partitioned run: two replicas, the detector
    // off and a 25 s control-link partition on replica 1, so only the
    // clients' 1 s timers rescue the requests the partition strands.
    for seed in 1..=5 {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let config = ClusterConfig {
            replicas: 2,
            clients: 8,
            think_mean_us: 200_000,
            client_timeout_us: 1_000_000,
            seed,
            ..ClusterConfig::paper_default()
        };
        let mut state = ClusterState::new(config, workload, vec![mix]);
        state.tracer = in_memory_trace();
        let mut queue = EventQueue::new();
        state.prime(&mut queue);
        queue.schedule(SimTime::from_secs(2), Ev::EndWarmup);
        queue.schedule(
            SimTime::from_secs(5),
            Ev::LinkPartition {
                a: CONTROL_NODE,
                b: 1,
                heal_at: SimTime::from_secs(30),
            },
        );
        queue.schedule(SimTime::from_secs(35), Ev::End);
        state.run_to_end(&mut queue).expect("End event scheduled");
        let run = format!("partitioned seed {seed}");
        let retried = check(&run, &state);
        assert!(retried > 0, "{run}: no attempt was retried");
    }
}
