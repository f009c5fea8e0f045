//! The `rebalance` scenario: live placement rebalancing under workload
//! skew.
//!
//! Runs TPC-W partially replicated with the rebalancer enabled
//! ([`crate::config::ClusterConfig::migration`]) and the placement
//! backfill bandwidth-capped
//! ([`crate::config::ClusterConfig::backfill_bytes_per_sec`]), then shifts
//! the hot set mid-run by switching the mix ordering → browsing. The
//! per-group dispatch counters feed the periodic rebalance tick, which
//! migrates the hottest group from its busiest holder onto the idlest
//! non-holder when that lowers the holder's load — capped backfill onto
//! the target (pages compete with foreground propagation for its disk and
//! NIC), dispatch eligibility only at completion, and the donor dropped
//! once the copy lands.
//!
//! A deterministic [`Ev::Rereplicate`] injection mid-first-phase ships
//! backfill traffic even at scales where the skew never moves a group, so
//! [`crate::metrics::RunResult::migration_bytes`] is not trivially zero and
//! the determinism fingerprint (`tests/driver_equivalence.rs`) exercises
//! the whole widen → backfill → eligible lifecycle. It copies the group of
//! the first type the ordering mix writes with: a backfill replays the log
//! items of the group's relations, so a group no transaction writes ships
//! nothing.

use tashkent_sim::SimTime;
use tashkent_workloads::tpcw::{self, TpcwScale};

use crate::config::{PlacementSpec, PolicySpec};
use crate::events::Ev;
use crate::experiment::{Experiment, Scenario, ScenarioKnobs};
use crate::placement::TypeGroups;

/// Live rebalancing on TPC-W: capped backfill, skew-driven migration, a
/// mid-run hot-set shift.
pub struct Rebalance {
    /// Database scale.
    pub scale: TpcwScale,
    /// Holder copies per relation group when the knobs don't override it.
    pub min_copies: usize,
    /// Backfill bandwidth cap when the knobs don't override it
    /// (`ScenarioKnobs::backfill_bytes_per_sec` wins when set).
    pub backfill_bytes_per_sec: u64,
}

impl Default for Rebalance {
    fn default() -> Self {
        Rebalance {
            scale: TpcwScale::Small,
            min_copies: 2,
            backfill_bytes_per_sec: 2 * 1024 * 1024,
        }
    }
}

impl Scenario for Rebalance {
    fn name(&self) -> &'static str {
        "rebalance"
    }

    fn summary(&self) -> &'static str {
        "live placement rebalancing: capped backfill, skew-driven migration, hot set shifts mid-run"
    }

    fn experiment(&self, knobs: &ScenarioKnobs) -> Experiment {
        let workload = tpcw::workload(self.scale);
        let ordering = tpcw::mix(&workload, "ordering");
        let browsing = tpcw::mix(&workload, "browsing");
        let mut config = knobs.config(PolicySpec::LeastConnections);
        config.placement = PlacementSpec::Partial {
            min_copies: knobs.min_copies.unwrap_or(self.min_copies),
        };
        config.migration = true;
        config.backfill_bytes_per_sec = knobs
            .backfill_bytes_per_sec
            .unwrap_or(self.backfill_bytes_per_sec);
        // The hot set shifts halfway through the measured window: the
        // update-heavy ordering mix concentrates load on the order-path
        // groups, then browsing moves it to the catalog-path groups.
        let first = (knobs.measured_secs / 2).max(1);
        let second = knobs.measured_secs.saturating_sub(first).max(1);
        let written = ordering
            .active_types()
            .into_iter()
            .find(|t| workload.types[t.0 as usize].plan.is_update())
            .and_then(|t| TypeGroups::derive(&workload).group_of(t))
            .expect("the ordering mix writes through a relation group");
        Experiment {
            config,
            workload,
            phases: vec![(knobs.warmup_secs + first, ordering), (second, browsing)],
            warmup_secs: knobs.warmup_secs,
            freeze_at_secs: None,
            injections: Vec::new(),
        }
        // Deterministic backfill traffic regardless of whether the skew
        // moves a group at this scale.
        .with_injection(
            SimTime::from_secs(knobs.warmup_secs + (first / 2).max(1)),
            Ev::Rereplicate { group: written },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn experiment_enables_the_rebalancer_and_caps_backfill() {
        let exp = Rebalance::default().experiment(&knobs());
        assert_eq!(
            exp.config.placement,
            PlacementSpec::Partial { min_copies: 2 }
        );
        assert!(exp.config.migration);
        assert_eq!(exp.config.backfill_bytes_per_sec, 2 * 1024 * 1024);
        assert_eq!(exp.phases.len(), 2, "the hot set must shift mid-run");
        assert_eq!(exp.injections.len(), 1, "deterministic Rereplicate");
        // The knobs' cap overrides the scenario default.
        let capped = Rebalance::default().experiment(&knobs().with_backfill_cap(Some(512 * 1024)));
        assert_eq!(capped.config.backfill_bytes_per_sec, 512 * 1024);
    }

    #[test]
    fn run_ships_migration_traffic_and_keeps_serving() {
        let r = run_scenario("rebalance", &knobs()).expect("scenario completes");
        assert!(r.committed > 0, "cluster kept serving during migration");
        assert!(
            r.migration_bytes > 0,
            "capped backfill must ship observable bytes"
        );
        assert!(r.migration_us > 0, "a capped copy must take simulated time");
        assert!(
            r.faults.iter().any(|f| matches!(
                f.kind,
                FaultKind::Rereplicate { .. } | FaultKind::Migrate { .. }
            )),
            "the fault log must record the copy: {:?}",
            r.faults
        );
    }
}
