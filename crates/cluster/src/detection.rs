//! The `detection` scenario: suspicion-based failure detection under a
//! transient control-link partition and a real crash, without the
//! omniscient fault oracle.
//!
//! The paper's balancer must route around failed replicas, but a real
//! deployment only ever *infers* failure from missed heartbeats — and pays
//! for wrong inferences. This scenario exercises both sides of that
//! trade-off in one run, with the heartbeat detector on (so no handler acts
//! on oracle crash knowledge):
//!
//! 1. after a steady-state eighth of the measured window, the tail
//!    replica's control link partitions ([`Ev::LinkPartition`]) — it stays
//!    up, serving reads, but heartbeats, certification traffic, and
//!    propagation drop. The detector walks it `Live → Suspected`, retries
//!    its in-flight work on survivors, and — because the link heals before
//!    the dead threshold — re-trusts it with a cheap filter-widen and
//!    **zero** re-replication bytes;
//! 2. at the window midpoint, replica 0 really crashes. No oracle notifies
//!    the balancer: clients bridge the detection window with
//!    connection-refused retries under capped exponential backoff, the
//!    detector walks the victim through *Suspected* to *Dead*, and recovery
//!    replays a `checkpoint_lag`-deep redo window from the certifier log
//!    before heartbeats answer again and trust is restored.
//!
//! Timings derive from [`ScenarioKnobs`] like every other scenario, and the
//! injections are plain events, so failure timing is as deterministic as
//! the rest of the run — the determinism suite
//! (`tests/driver_equivalence.rs`) runs this scenario too, fault log (with
//! detection latencies) included.

use tashkent_sim::SimTime;
use tashkent_workloads::tpcw::{self, TpcwScale};

use crate::config::PolicySpec;
use crate::events::{Ev, CONTROL_NODE};
use crate::experiment::{Experiment, Scenario, ScenarioKnobs};

/// When each injection of a [`Detection`] run fires — shared between the
/// experiment builder, the tests asserting detector behaviour, and the
/// `fig_detection` bench annotating its sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionSchedule {
    /// Control-link partition instant (the false-suspicion injection).
    pub partition_at_secs: u64,
    /// Partition heal instant, absolute milliseconds — early enough that
    /// the default detector suspects but never declares the victim dead.
    pub heal_at_ms: u64,
    /// Real crash instant.
    pub crash_at_secs: u64,
    /// Recovery instant (checkpoint-lag replay starts here).
    pub recover_at_secs: u64,
}

/// Heartbeat detection under a transient partition and a real crash, on the
/// TPC-W ordering mix — update-heavy, so dropped certification traffic and
/// the redo window both carry real weight.
pub struct Detection {
    /// Database scale.
    pub scale: TpcwScale,
}

/// Heartbeat period the scenario runs when the knobs leave it unset, µs.
pub const DEFAULT_HEARTBEAT_US: u64 = 500_000;
/// Client request timeout the scenario runs when the knobs leave it unset.
pub const DEFAULT_CLIENT_TIMEOUT_US: u64 = 3_000_000;
/// Checkpoint lag the scenario runs when the knobs leave it unset.
pub const DEFAULT_CHECKPOINT_LAG: u64 = 32;

impl Default for Detection {
    fn default() -> Self {
        Detection {
            scale: TpcwScale::Small,
        }
    }
}

impl Detection {
    /// The injection schedule these knobs imply: partition after a
    /// steady-state eighth, heal 2 s later (under the default detector
    /// that is past the suspect threshold, short of the dead one), crash
    /// at the midpoint, recover one downtime-eighth later.
    pub fn schedule(knobs: &ScenarioKnobs) -> DetectionSchedule {
        let partition_at_secs = knobs.warmup_secs + (knobs.measured_secs / 8).max(1);
        let crash_at_secs = knobs.warmup_secs + knobs.measured_secs / 2;
        DetectionSchedule {
            partition_at_secs,
            heal_at_ms: partition_at_secs * 1_000 + 2_000,
            crash_at_secs,
            recover_at_secs: crash_at_secs + (knobs.measured_secs / 8).max(2),
        }
    }

    /// The partitioned replica at a given scale: the tail of the cluster.
    pub fn partition_victim(replicas: usize) -> usize {
        replicas.saturating_sub(1)
    }

    /// The crashed replica: the head of the cluster (never the partition
    /// victim, so the two faults stay independent).
    pub fn crash_victim() -> usize {
        0
    }
}

impl Scenario for Detection {
    fn name(&self) -> &'static str {
        "detection"
    }

    fn summary(&self) -> &'static str {
        "heartbeat suspicion under a control-link partition + a real crash; no fault oracle"
    }

    fn experiment(&self, knobs: &ScenarioKnobs) -> Experiment {
        let (workload, mix) = tpcw::workload_with_mix(self.scale, "ordering");
        let mut config = knobs.config(PolicySpec::malb_sc());
        // The scenario is about the detector: force it (and its companion
        // knobs) on unless the caller chose explicit values.
        if knobs.heartbeat_period_us.is_none() {
            config.heartbeat_period_us = DEFAULT_HEARTBEAT_US;
        }
        if knobs.client_timeout_us.is_none() {
            config.client_timeout_us = DEFAULT_CLIENT_TIMEOUT_US;
        }
        if knobs.checkpoint_lag.is_none() {
            config.checkpoint_lag = DEFAULT_CHECKPOINT_LAG;
        }
        let sched = Self::schedule(knobs);
        let mut exp = Experiment::new(config, workload, mix)
            .with_window(knobs.warmup_secs, knobs.measured_secs);
        // Both injections need a survivor; a single-replica cluster gets
        // neither (nothing to route around).
        if knobs.replicas >= 2 {
            exp = exp
                .with_injection(
                    SimTime::from_secs(sched.partition_at_secs),
                    Ev::LinkPartition {
                        a: CONTROL_NODE,
                        b: Self::partition_victim(knobs.replicas),
                        heal_at: SimTime::from_millis(sched.heal_at_ms),
                    },
                )
                .with_injection(
                    SimTime::from_secs(sched.crash_at_secs),
                    Ev::ReplicaCrash {
                        replica: Self::crash_victim(),
                    },
                )
                .with_injection(
                    SimTime::from_secs(sched.recover_at_secs),
                    Ev::ReplicaRecover {
                        replica: Self::crash_victim(),
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
    fn schedule_orders_partition_heal_crash_recover() {
        let knobs = ScenarioKnobs::smoke();
        let s = Detection::schedule(&knobs);
        assert!(knobs.warmup_secs < s.partition_at_secs);
        assert!(s.partition_at_secs * 1_000 < s.heal_at_ms);
        assert!(s.heal_at_ms < s.crash_at_secs * 1_000);
        assert!(s.crash_at_secs < s.recover_at_secs);
        assert!(s.recover_at_secs < knobs.warmup_secs + knobs.measured_secs);
    }

    #[test]
    fn experiment_forces_the_detector_on() {
        let knobs = ScenarioKnobs::smoke();
        let exp = Detection::default().experiment(&knobs);
        assert_eq!(exp.config.heartbeat_period_us, DEFAULT_HEARTBEAT_US);
        assert_eq!(exp.config.client_timeout_us, DEFAULT_CLIENT_TIMEOUT_US);
        assert_eq!(exp.config.checkpoint_lag, DEFAULT_CHECKPOINT_LAG);
        assert_eq!(exp.injections.len(), 3, "partition + crash + recover");
        // Knob overrides win over the scenario's defaults.
        let tuned = Detection::default().experiment(
            &ScenarioKnobs::smoke()
                .with_heartbeat(Some(250_000))
                .with_checkpoint_lag(Some(0))
                .with_client_timeout(Some(0)),
        );
        assert_eq!(tuned.config.heartbeat_period_us, 250_000);
        assert_eq!(tuned.config.checkpoint_lag, 0);
        assert_eq!(tuned.config.client_timeout_us, 0);
    }

    #[test]
    fn smoke_run_detects_both_faults_without_an_oracle() {
        let knobs = ScenarioKnobs::smoke();
        let r = Detection::default()
            .run(&knobs)
            .expect("detection run completes");
        assert!(r.committed > 0, "cluster kept serving throughout");
        let kinds: Vec<FaultKind> = r.faults.iter().map(|f| f.kind).collect();
        let pv = Detection::partition_victim(knobs.replicas);
        let cv = Detection::crash_victim();
        // False suspicion: suspected during the partition, trusted after
        // heal, never declared dead.
        assert!(kinds.contains(&FaultKind::ReplicaSuspected(pv)));
        assert!(kinds.contains(&FaultKind::ReplicaTrusted(pv)));
        assert!(!kinds.contains(&FaultKind::ReplicaDead(pv)));
        // Real crash: the detector walks it to Dead and re-trusts it only
        // after recovery replay.
        assert!(kinds.contains(&FaultKind::ReplicaCrash(cv)));
        assert!(kinds.contains(&FaultKind::ReplicaDead(cv)));
        assert!(kinds.contains(&FaultKind::ReplicaTrusted(cv)));
        // Detection latency is observable: the suspicion records when the
        // partition was injected, strictly before it was detected.
        let s = Detection::schedule(&knobs);
        let suspect = r
            .faults
            .iter()
            .find(|f| f.kind == FaultKind::ReplicaSuspected(pv))
            .expect("suspicion recorded");
        assert_eq!(suspect.injected_at, SimTime::from_secs(s.partition_at_secs));
        assert!(suspect.at > suspect.injected_at);
        assert!(suspect.detection_latency_us() > 0);
        // Checkpoint-lag recovery replayed a real redo window.
        assert!(r.redo_bytes > 0, "redo window shipped bytes");
        assert!(r.redo_us > 0, "redo replay took time");
    }
}
