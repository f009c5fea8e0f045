//! The assembled cluster: thin glue binding a [`ClusterState`] to an event
//! queue and a [`Driver`].
//!
//! All simulation semantics live one layer down: per-component handlers in
//! [`crate::components`], cross-cutting transaction/client/metrics state in
//! [`crate::state::ClusterState`], and the event-loop strategy in
//! [`crate::driver`]. `World` only assembles the three and forwards its
//! accessors, so existing entry points (tests, examples, the experiment
//! harness) keep a single convenient handle on a run.

use tashkent_certifier::Certifier;
use tashkent_core::LoadBalancer;
use tashkent_replica::{ReplicaNode, UpdateFilter};
use tashkent_sim::{EventQueue, SimTime};
use tashkent_workloads::{Mix, Workload};

use crate::components::ClusterNode;
use crate::config::ClusterConfig;
use crate::driver::{Driver, DriverKind, RunError};
use crate::metrics::{GroupSnapshot, Metrics, RunResult};
use crate::state::ClusterState;

pub use crate::events::Ev;

/// The assembled cluster: state + queue + driver.
pub struct World {
    state: ClusterState,
    queue: EventQueue<Ev>,
    driver: Box<dyn Driver>,
}

impl World {
    /// Builds a world from a configuration, workload, and mixes (the first
    /// mix is active at start), driven by the [`DriverKind::Sequential`]
    /// reference driver.
    ///
    /// # Panics
    ///
    /// Panics if `mixes` is empty.
    pub fn new(config: ClusterConfig, workload: Workload, mixes: Vec<Mix>) -> Self {
        Self::with_driver(config, workload, mixes, DriverKind::Sequential)
    }

    /// Builds a world that runs under the given driver. Every driver
    /// produces identical results for the same seed; the parallel driver is
    /// faster on multi-core hosts for multi-replica configurations.
    pub fn with_driver(
        config: ClusterConfig,
        workload: Workload,
        mixes: Vec<Mix>,
        driver: DriverKind,
    ) -> Self {
        World {
            state: ClusterState::new(config, workload, mixes),
            queue: EventQueue::new(),
            driver: driver.build(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.state.config
    }

    /// The workload (schema + transaction types).
    pub fn workload(&self) -> &Workload {
        &self.state.workload
    }

    /// Metrics accumulator.
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Schedules the initial events: staggered client arrivals, per-replica
    /// maintenance, and balancer ticks.
    pub fn prime(&mut self) {
        self.state.prime(&mut self.queue);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules an event (used by the experiment driver for phase switches
    /// and run boundaries).
    pub fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.queue.schedule(at, ev);
    }

    /// Cluster-wide disk byte counters `(read, write)`.
    pub fn disk_bytes(&self) -> (u64, u64) {
        self.state.disk_bytes()
    }

    /// Access a replica (tests and metrics).
    pub fn replica(&self, idx: usize) -> &ReplicaNode {
        self.state.replica(idx)
    }

    /// Access a cluster node handler (failure injection, alternate drivers).
    pub fn node(&self, idx: usize) -> &ClusterNode {
        self.state.node(idx)
    }

    /// Mutable node access (failure injection, alternate drivers).
    pub fn node_mut(&mut self, idx: usize) -> &mut ClusterNode {
        self.state.node_access_mut(idx)
    }

    /// The balancer (tests and metrics).
    pub fn balancer(&self) -> &LoadBalancer {
        self.state.balancer()
    }

    /// The certifier (tests and metrics).
    pub fn certifier(&self) -> &Certifier {
        self.state.certifier()
    }

    /// The certifier group's membership and leadership (tests and metrics).
    pub fn certifier_group(&self) -> &tashkent_certifier::CertifierGroup {
        self.state.certifier_group()
    }

    /// The full certifier link — per-group state under sharded
    /// certification (tests and metrics).
    pub fn cert_link(&self) -> &crate::components::CertifierLink {
        self.state.cert_link()
    }

    /// A replica's health as the detector currently believes it (always
    /// `Live` when the detector is off — see
    /// [`crate::config::ClusterConfig::heartbeat_period_us`]).
    pub fn replica_health(&self, idx: usize) -> crate::components::ReplicaHealth {
        self.state.replica_health(idx)
    }

    /// Finalizes the run into a [`RunResult`], including mean CPU/disk
    /// utilizations over the measurement window.
    pub fn finish_result(&self) -> RunResult {
        self.state.finish_result(self.now())
    }

    /// Finalizes the run as [`World::finish_result`] does, moving the
    /// completion timestamps into the result rather than copying them.
    pub(crate) fn into_result(mut self) -> RunResult {
        let completions = self.state.metrics.take_completions();
        let mut result = self.finish_result();
        result.completions = completions;
        result
    }

    /// Current group → replica assignments with type names resolved.
    pub fn group_snapshots(&self) -> Vec<GroupSnapshot> {
        self.state.group_snapshots()
    }

    /// The partial-replication placement map, when the cluster runs one
    /// (`None` under full replication).
    pub fn placement(&self) -> Option<&crate::placement::PlacementMap> {
        self.state.placement()
    }

    /// Runs until the `End` event fires.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::QueueDrained`] when the event queue empties
    /// before `End` — a mis-scheduled experiment. The world stays
    /// inspectable at the drained point.
    pub fn run_to_end(&mut self) -> Result<(), RunError> {
        self.driver.run_to_end(&mut self.state, &mut self.queue)
    }

    /// Installs an update filter on a replica (alternate drivers; the
    /// balancer tick normally does this itself).
    pub fn set_filter(&mut self, replica: usize, filter: UpdateFilter) {
        self.state.set_filter(replica, filter);
    }

    /// Writes the recorded trace to the paths configured in
    /// [`crate::trace::TraceConfig`] — JSONL and/or Chrome `trace_event`
    /// JSON. A no-op when tracing is disabled.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing either output file.
    pub fn export_traces(&self) -> std::io::Result<()> {
        let cfg = &self.state.config.trace;
        if let Some(path) = &cfg.jsonl_path {
            std::fs::write(path, self.state.tracer.export_jsonl())?;
        }
        if let Some(path) = &cfg.chrome_path {
            std::fs::write(path, self.state.tracer.export_chrome())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicySpec;
    use tashkent_workloads::tpcw::{self, TpcwScale};

    fn tiny_world(policy: PolicySpec, driver: DriverKind) -> World {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let config = ClusterConfig {
            replicas: 2,
            clients: 6,
            think_mean_us: 200_000,
            ..ClusterConfig::paper_default()
        }
        .with_policy(policy);
        World::with_driver(config, workload, vec![mix], driver)
    }

    fn run_secs(world: &mut World, warmup: u64, total: u64) {
        world.prime();
        world.schedule(SimTime::from_secs(warmup), Ev::EndWarmup);
        world.schedule(SimTime::from_secs(total), Ev::End);
        world.run_to_end().expect("End event scheduled");
    }

    #[test]
    fn transactions_flow_end_to_end() {
        let mut w = tiny_world(PolicySpec::LeastConnections, DriverKind::Sequential);
        run_secs(&mut w, 2, 20);
        let (read, write) = w.disk_bytes();
        let r = w.metrics().finish(w.now(), read, write, Vec::new());
        assert!(r.committed > 10, "committed {}", r.committed);
        assert!(r.tps > 0.5, "tps {}", r.tps);
        assert!(r.mean_response_s > 0.0);
    }

    #[test]
    fn updates_propagate_to_all_replicas() {
        let mut w = tiny_world(PolicySpec::LeastConnections, DriverKind::Sequential);
        run_secs(&mut w, 2, 30);
        let head = w.certifier().version();
        assert!(head.0 > 0, "some updates committed");
        for i in 0..2 {
            let lag = head.0 - w.replica(i).applied().0;
            assert!(lag <= 30, "replica {i} lags {lag} commits");
        }
    }

    #[test]
    fn malb_world_assigns_groups() {
        let mut w = tiny_world(PolicySpec::malb_sc(), DriverKind::Sequential);
        run_secs(&mut w, 2, 20);
        let snaps = w.group_snapshots();
        assert!(!snaps.is_empty());
        let types: usize = snaps.iter().map(|g| g.types.len()).sum();
        assert_eq!(types, 13, "all 13 TPC-W types grouped");
        let (read, write) = w.disk_bytes();
        let r = w
            .metrics()
            .finish(w.now(), read, write, w.group_snapshots());
        assert!(r.committed > 10);
    }

    fn run_fingerprint(driver: DriverKind) -> (u64, u64, u64, u64) {
        let mut w = tiny_world(PolicySpec::LeastConnections, driver);
        run_secs(&mut w, 2, 15);
        let (read, write) = w.disk_bytes();
        let r = w.metrics().finish(w.now(), read, write, Vec::new());
        (r.committed, r.aborts, read, write)
    }

    #[test]
    fn deterministic_across_runs() {
        assert_eq!(
            run_fingerprint(DriverKind::Sequential),
            run_fingerprint(DriverKind::Sequential)
        );
    }

    #[test]
    fn deterministic_across_runs_parallel() {
        // Two threads even on a single-core host: the merge, not the
        // scheduler, defines the result.
        let parallel = DriverKind::Parallel { threads: 2 };
        assert_eq!(run_fingerprint(parallel), run_fingerprint(parallel));
    }

    #[test]
    fn parallel_driver_matches_sequential() {
        assert_eq!(
            run_fingerprint(DriverKind::Sequential),
            run_fingerprint(DriverKind::Parallel { threads: 2 })
        );
    }

    #[test]
    fn drained_queue_is_an_error_not_a_panic() {
        let mut w = tiny_world(PolicySpec::LeastConnections, DriverKind::Sequential);
        // No priming, no End event: one lone event, then the queue drains.
        w.schedule(SimTime::from_secs(1), Ev::FreezeLb);
        let err = w.run_to_end().unwrap_err();
        assert_eq!(
            err,
            RunError::QueueDrained {
                at: SimTime::from_secs(1)
            }
        );
    }

    #[test]
    fn mix_switch_changes_distribution() {
        let (workload, ordering) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let (_, browsing) = tpcw::workload_with_mix(TpcwScale::Small, "browsing");
        let config = ClusterConfig {
            replicas: 2,
            clients: 6,
            think_mean_us: 200_000,
            ..ClusterConfig::paper_default()
        };
        let mut w = World::new(config, workload, vec![ordering, browsing]);
        w.prime();
        w.schedule(SimTime::from_secs(1), Ev::EndWarmup);
        w.schedule(SimTime::from_secs(10), Ev::MixSwitch { mix: 1 });
        w.schedule(SimTime::from_secs(30), Ev::End);
        w.run_to_end().expect("End event scheduled");
        // After the switch to read-only-ish browsing, update volume is low:
        // the certifier version grows far slower than completions.
        let (read, write) = w.disk_bytes();
        let r = w.metrics().finish(w.now(), read, write, Vec::new());
        assert!(r.committed > 0);
        assert!(
            (r.updates as f64) < 0.45 * r.committed as f64,
            "updates {} of {}",
            r.updates,
            r.committed
        );
    }
}
