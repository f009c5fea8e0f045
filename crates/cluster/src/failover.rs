//! The `failover` scenario: replica crashes, log-replay recovery, and a
//! certifier leader kill, driven through the shared harness.
//!
//! Tashkent+ argues the memory-aware balancer must stay correct under
//! replica loss and certifier failover (§3 recovery, §4.2.1 fault
//! tolerance). This scenario injects both failure classes mid-run as
//! ordinary [`Ev`] events and measures whether throughput recovers:
//!
//! 1. after a steady-state quarter of the measured window, `crashes`
//!    replicas fail simultaneously — cold caches, in-flight transactions
//!    dropped, their clients retrying on the survivors;
//! 2. one downtime-eighth later they recover, replaying the certifier's
//!    persistent log and rejoining dispatch cold;
//! 3. optionally, past the window midpoint the certifier leader is killed
//!    and a backup takes over after the paper's 200 ms election delay.
//!
//! Every timing is derived from [`ScenarioKnobs`], so the same recipe
//! serves smoke tests, the `fig_failover` bench target, and the example.
//! Because the injections are plain events, failure timing is as
//! deterministic as the rest of the run — the determinism suite
//! (`tests/driver_equivalence.rs`) runs this scenario too, fault log
//! included.

use tashkent_sim::SimTime;
use tashkent_workloads::tpcw::{self, TpcwScale};

use crate::config::PolicySpec;
use crate::events::Ev;
use crate::experiment::{Experiment, Scenario, ScenarioKnobs};

/// When each fault of a [`Failover`] run fires, in whole simulated seconds
/// — shared between the experiment builder, the tests asserting recovery,
/// and the bench target annotating its time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverSchedule {
    /// Replica crash instant.
    pub crash_at_secs: u64,
    /// Replica recovery instant.
    pub recover_at_secs: u64,
    /// Certifier leader kill instant (only fired when the scenario asks
    /// for it).
    pub leader_kill_at_secs: u64,
}

/// Replica crash + recovery (and optional certifier leader kill) on the
/// TPC-W ordering mix — the update-heavy mix, so recovery has a real log
/// to replay.
pub struct Failover {
    /// Database scale.
    pub scale: TpcwScale,
    /// Replicas crashed simultaneously; clamped to leave at least one
    /// survivor for dispatch. The highest-indexed replicas crash first.
    pub crashes: usize,
    /// Also kill the certifier leader after recovery settles.
    pub kill_certifier_leader: bool,
}

impl Default for Failover {
    fn default() -> Self {
        Failover {
            scale: TpcwScale::Small,
            crashes: 1,
            kill_certifier_leader: true,
        }
    }
}

impl Failover {
    /// The fault schedule these knobs imply: crash after a steady-state
    /// quarter of the measured window, recover one downtime-eighth later,
    /// kill the certifier leader past the midpoint.
    pub fn schedule(knobs: &ScenarioKnobs) -> FailoverSchedule {
        let crash_at_secs = knobs.warmup_secs + knobs.measured_secs / 4;
        FailoverSchedule {
            crash_at_secs,
            recover_at_secs: crash_at_secs + (knobs.measured_secs / 8).max(1),
            leader_kill_at_secs: knobs.warmup_secs + (5 * knobs.measured_secs) / 8,
        }
    }

    /// The replica indices this scenario crashes at the given scale: the
    /// tail of the cluster, always leaving at least one survivor.
    pub fn victims(&self, replicas: usize) -> Vec<usize> {
        let n = self.crashes.min(replicas.saturating_sub(1));
        (0..n).map(|i| replicas - 1 - i).collect()
    }
}

impl Scenario for Failover {
    fn name(&self) -> &'static str {
        "failover"
    }

    fn summary(&self) -> &'static str {
        "replica crash + log-replay recovery, certifier leader kill; throughput must recover"
    }

    fn experiment(&self, knobs: &ScenarioKnobs) -> Experiment {
        let (workload, mix) = tpcw::workload_with_mix(self.scale, "ordering");
        let config = knobs.config(PolicySpec::malb_sc());
        let sched = Self::schedule(knobs);
        let mut exp = Experiment::new(config, workload, mix)
            .with_window(knobs.warmup_secs, knobs.measured_secs);
        for replica in self.victims(knobs.replicas) {
            exp = exp
                .with_injection(
                    SimTime::from_secs(sched.crash_at_secs),
                    Ev::ReplicaCrash { replica },
                )
                .with_injection(
                    SimTime::from_secs(sched.recover_at_secs),
                    Ev::ReplicaRecover { replica },
                );
        }
        if self.kill_certifier_leader {
            exp = exp.with_injection(
                SimTime::from_secs(sched.leader_kill_at_secs),
                Ev::CertifierKill {
                    group: 0,
                    member: 0,
                },
            );
        }
        exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FaultKind;

    #[test]
    fn schedule_orders_crash_recover_kill() {
        let knobs = ScenarioKnobs::smoke();
        let s = Failover::schedule(&knobs);
        assert!(knobs.warmup_secs < s.crash_at_secs);
        assert!(s.crash_at_secs < s.recover_at_secs);
        assert!(s.recover_at_secs < s.leader_kill_at_secs);
        assert!(s.leader_kill_at_secs < knobs.warmup_secs + knobs.measured_secs);
    }

    #[test]
    fn victims_leave_a_survivor() {
        let f = Failover {
            crashes: 10,
            ..Failover::default()
        };
        assert_eq!(f.victims(3), vec![2, 1]);
        assert_eq!(Failover::default().victims(2), vec![1]);
        assert_eq!(Failover::default().victims(1), Vec::<usize>::new());
    }

    #[test]
    fn experiment_injects_the_full_fault_plan() {
        let knobs = ScenarioKnobs::smoke();
        let exp = Failover::default().experiment(&knobs);
        assert_eq!(exp.injections.len(), 3, "crash + recover + leader kill");
        assert!(matches!(
            exp.injections[0].1,
            Ev::ReplicaCrash { replica } if replica == knobs.replicas - 1
        ));
        let no_kill = Failover {
            kill_certifier_leader: false,
            ..Failover::default()
        }
        .experiment(&knobs);
        assert_eq!(no_kill.injections.len(), 2);
    }

    #[test]
    fn smoke_run_records_faults_and_keeps_committing() {
        let knobs = ScenarioKnobs::smoke();
        let sched = Failover::schedule(&knobs);
        let r = Failover::default()
            .run(&knobs)
            .expect("failover run completes");
        assert!(r.committed > 0, "cluster kept serving through the crash");
        let kinds: Vec<FaultKind> = r.faults.iter().map(|f| f.kind).collect();
        let victim = knobs.replicas - 1;
        assert_eq!(
            kinds,
            vec![
                FaultKind::ReplicaCrash(victim),
                FaultKind::ReplicaRecover(victim),
                FaultKind::CertifierFailover {
                    group: 0,
                    leader: 1
                },
            ]
        );
        assert_eq!(
            r.faults[0].at,
            SimTime::from_secs(sched.crash_at_secs),
            "crash timing is part of the result"
        );
        assert_eq!(r.faults[1].at, SimTime::from_secs(sched.recover_at_secs));
    }
}
