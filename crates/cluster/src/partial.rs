//! The `partial-replication` scenario: filtered-writeset volume and
//! propagation traffic under a `min_copies` durability constraint.
//!
//! Runs the update-heavy TPC-W ordering mix with the database partially
//! replicated: each relation group lives on `min_copies` holder replicas
//! (see [`crate::placement`]), dispatch routes transactions only to
//! holders, and the certifier ships writeset pages only to holders —
//! non-holders get bare version ticks. The run measures
//! [`crate::metrics::RunResult::propagated_ws_bytes`] (what actually
//! travelled) against [`crate::metrics::RunResult::filtered_ws_bytes`]
//! (what partial replication withheld), the trade the Sutra & Shapiro 2008
//! direction studies.
//!
//! The failover machinery composes: by default a replica crashes mid-run
//! and recovers later on the PR 3 schedule. The crash drops every group it
//! held below `min_copies` live holders, so the cluster re-replicates each
//! onto a survivor via certifier-log backfill — visible in the fault log as
//! [`crate::metrics::FaultKind::Rereplicate`] entries — and recovery then
//! replays only held groups. `min_copies >= replicas` is the degenerate
//! full-replication case and reproduces today's fully-replicated results
//! bit for bit.

use tashkent_sim::SimTime;
use tashkent_workloads::tpcw::{self, TpcwScale};

use crate::config::{PlacementSpec, PolicySpec};
use crate::events::Ev;
use crate::experiment::{Experiment, Scenario, ScenarioKnobs};
use crate::failover::Failover;

/// Partial replication on the TPC-W ordering mix, with the PR 3 failover
/// schedule stressing the durability invariant.
pub struct PartialReplication {
    /// Database scale.
    pub scale: TpcwScale,
    /// Holder copies per relation group when the knobs don't override it
    /// (`ScenarioKnobs::min_copies` wins when set).
    pub min_copies: usize,
    /// Crash (and later recover) the highest-indexed replica mid-run, on
    /// the failover schedule, forcing re-replication.
    pub faults: bool,
}

impl Default for PartialReplication {
    fn default() -> Self {
        PartialReplication {
            scale: TpcwScale::Small,
            min_copies: 2,
            faults: true,
        }
    }
}

impl PartialReplication {
    /// The `min_copies` a run at these knobs uses.
    pub fn effective_min_copies(&self, knobs: &ScenarioKnobs) -> usize {
        knobs.min_copies.unwrap_or(self.min_copies)
    }
}

impl Scenario for PartialReplication {
    fn name(&self) -> &'static str {
        "partial-replication"
    }

    fn summary(&self) -> &'static str {
        "partial replication: min_copies holder sets, holder-only propagation, crash re-replication"
    }

    fn experiment(&self, knobs: &ScenarioKnobs) -> Experiment {
        let (workload, mix) = tpcw::workload_with_mix(self.scale, "ordering");
        let mut config = knobs.config(PolicySpec::LeastConnections);
        config.placement = PlacementSpec::Partial {
            min_copies: self.effective_min_copies(knobs),
        };
        let mut exp = Experiment::new(config, workload, mix)
            .with_window(knobs.warmup_secs, knobs.measured_secs);
        if self.faults && knobs.replicas > 1 {
            let sched = Failover::schedule(knobs);
            let victim = knobs.replicas - 1;
            exp = exp
                .with_injection(
                    SimTime::from_secs(sched.crash_at_secs),
                    Ev::ReplicaCrash { replica: victim },
                )
                .with_injection(
                    SimTime::from_secs(sched.recover_at_secs),
                    Ev::ReplicaRecover { replica: victim },
                );
        }
        exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementSpec;
    use crate::metrics::FaultKind;
    use crate::run_scenario;

    fn knobs() -> ScenarioKnobs {
        ScenarioKnobs {
            replicas: 4,
            clients_per_replica: 3,
            ..ScenarioKnobs::smoke()
        }
    }

    #[test]
    fn experiment_is_partial_with_the_failover_schedule() {
        let k = knobs();
        let exp = PartialReplication::default().experiment(&k);
        assert_eq!(
            exp.config.placement,
            PlacementSpec::Partial { min_copies: 2 }
        );
        assert_eq!(exp.injections.len(), 2, "crash + recover");
        let quiet = PartialReplication {
            faults: false,
            ..PartialReplication::default()
        }
        .experiment(&k);
        assert!(quiet.injections.is_empty());
        // The knobs' min_copies overrides the scenario default.
        let overridden =
            PartialReplication::default().experiment(&k.clone().with_min_copies(Some(3)));
        assert_eq!(
            overridden.config.placement,
            PlacementSpec::Partial { min_copies: 3 }
        );
    }

    #[test]
    fn crash_triggers_rereplication_and_bytes_are_saved() {
        let r = run_scenario("partial-replication", &knobs()).expect("scenario completes");
        assert!(r.committed > 0, "cluster kept serving");
        assert!(
            r.faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::Rereplicate { .. })),
            "crash must force re-replication: {:?}",
            r.faults
        );
        assert!(
            r.filtered_ws_bytes > 0,
            "partial replication must withhold pages from non-holders"
        );
    }

    #[test]
    fn fewer_copies_propagate_fewer_bytes() {
        let k = knobs();
        let two = run_scenario("partial-replication", &k.clone().with_min_copies(Some(2)))
            .expect("min_copies=2 completes");
        let full = run_scenario(
            "partial-replication",
            &k.clone().with_min_copies(Some(k.replicas)),
        )
        .expect("min_copies=n completes");
        assert!(
            two.propagated_ws_bytes < full.propagated_ws_bytes,
            "2 copies must ship strictly fewer bytes: {} vs {}",
            two.propagated_ws_bytes,
            full.propagated_ws_bytes
        );
        assert_eq!(full.filtered_ws_bytes, 0, "full replication saves nothing");
    }
}
