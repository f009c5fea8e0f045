//! Fault tolerance walkthrough through the shared scenario harness.
//!
//! Runs the `failover` scenario at smoke scale: mid-run a replica crashes
//! (cold cache, in-flight work dropped, its clients retry on the
//! survivors), later recovers by replaying the certifier's persistent log,
//! and rejoins dispatch; after that the certifier leader is killed and a
//! backup takes over. The run prints the fault log, the throughput time
//! series around the faults, and the end-of-run consistency picture.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use tashkent::cluster::{ClusterState, Ev, Failover, FaultKind, Scenario, ScenarioKnobs};
use tashkent::sim::{EventQueue, SimTime};

fn main() {
    // Enough measured window for the crash/outage/recovery plateaus to be
    // visible in 5 s buckets.
    let knobs = ScenarioKnobs {
        replicas: 3,
        clients_per_replica: 4,
        measured_secs: 60,
        ..ScenarioKnobs::smoke()
    };
    let scenario = Failover::default();
    let sched = Failover::schedule(&knobs);
    println!(
        "failover scenario: {} replicas, crash at {}s, recover at {}s, leader kill at {}s",
        knobs.replicas, sched.crash_at_secs, sched.recover_at_secs, sched.leader_kill_at_secs
    );

    let result = scenario
        .run(&knobs)
        .expect("failover scenario runs to its End event");

    println!("\nfault log:");
    for f in &result.faults {
        let label = match f.kind {
            FaultKind::ReplicaCrash(r) => format!("replica {r} crashed (cold cache)"),
            FaultKind::ReplicaRecover(r) => {
                format!("replica {r} replayed the certifier log and rejoined")
            }
            FaultKind::CertifierFailover { group, leader } => {
                format!("certifier group {group} leader died; member {leader} elected after 200 ms")
            }
            FaultKind::Rereplicate { group, to, bytes } => {
                format!("relation group {group} re-replicated onto replica {to} ({bytes} B)")
            }
            FaultKind::Migrate {
                group,
                from,
                to,
                bytes,
            } => {
                format!("relation group {group} migrated from replica {from} to {to} ({bytes} B)")
            }
            FaultKind::ShrinkHolder { group, from } => {
                format!("relation group {group} shed surplus holder {from}")
            }
            FaultKind::ReplicaSuspected(r) => format!("replica {r} suspected by the detector"),
            FaultKind::ReplicaDead(r) => format!("replica {r} declared dead by the detector"),
            FaultKind::ReplicaTrusted(r) => format!("replica {r} trusted again"),
            FaultKind::Partition { a, b } => format!("link {a}<->{b} partitioned"),
            FaultKind::PartitionHealed { a, b } => format!("link {a}<->{b} healed"),
        };
        println!("  {:>5.1}s  {label}", f.at.as_secs_f64());
    }

    println!("\nthroughput (5 s buckets):");
    for (t, tps) in result.timeseries(5) {
        let bar = "#".repeat((tps * 2.0).round() as usize);
        println!("  {t:>5.0}s {tps:>6.1} {bar}");
    }
    println!(
        "\n{} committed, {} aborted, {} gave up; mean response {:.0} ms",
        result.committed,
        result.aborts,
        result.retries_exhausted,
        result.mean_response_s * 1e3
    );

    // The same faults, scheduled by hand into the cluster state's queue —
    // the low-level interface the scenario wraps — stopping right after
    // recovery to inspect the log-replay invariant: the recovered replica
    // has applied exactly the certifier's version.
    let exp = scenario.experiment(&knobs);
    let mut state = ClusterState::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
    let mut queue = EventQueue::new();
    state.prime(&mut queue);
    let victim = knobs.replicas - 1;
    queue.schedule(SimTime::from_secs(5), Ev::ReplicaCrash { replica: victim });
    queue.schedule(
        SimTime::from_secs(8),
        Ev::ReplicaRecover { replica: victim },
    );
    queue.schedule(SimTime::from_secs(8), Ev::End);
    state.run_to_end(&mut queue).expect("End event scheduled");
    assert_eq!(
        state.node(victim).applied(),
        state.certifier().version(),
        "recovery must catch the replica up to the certifier log"
    );
    println!(
        "\nlow-level check: recovered replica applied v{} == certifier v{} ✓",
        state.node(victim).applied().0,
        state.certifier().version().0
    );
}
