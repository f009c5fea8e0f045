//! The assembled cluster: thin glue binding a [`ClusterState`] to an event
//! queue, plus the simulator's one event loop.
//!
//! All simulation semantics live one layer down: per-component handlers in
//! [`crate::components`] and cross-cutting transaction/client/metrics state
//! in [`crate::state::ClusterState`]. `World` owns the queue and the
//! pop-and-handle loop ([`World::run_to_end`]) and forwards the state's
//! accessors, so every entry point (tests, examples, the experiment
//! harness) keeps a single convenient handle on a run.

use std::fmt;

use tashkent_certifier::Certifier;
use tashkent_core::LoadBalancer;
use tashkent_replica::ReplicaNode;
use tashkent_sim::{EventQueue, SimTime};
use tashkent_workloads::{Mix, Workload};

use crate::components::ClusterNode;
use crate::config::ClusterConfig;
use crate::metrics::{GroupSnapshot, Metrics, RunResult};
use crate::state::ClusterState;

pub use crate::events::Ev;

/// A failed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The event queue drained before the `End` event fired. The experiment
    /// was mis-scheduled (no `End` event, or all load sources exhausted);
    /// the state remains inspectable.
    QueueDrained {
        /// Simulated time of the last processed event.
        at: SimTime,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::QueueDrained { at } => write!(
                f,
                "event queue drained at t={:.3}s before the End event fired",
                at.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// The assembled cluster: state + queue.
pub struct World {
    state: ClusterState,
    queue: EventQueue<Ev>,
}

impl World {
    /// Builds a world from a configuration, workload, and mixes (the first
    /// mix is active at start).
    ///
    /// # Panics
    ///
    /// Panics if `mixes` is empty.
    pub fn new(config: ClusterConfig, workload: Workload, mixes: Vec<Mix>) -> Self {
        World {
            state: ClusterState::new(config, workload, mixes),
            queue: EventQueue::new(),
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

    /// Schedules an event (used by the experiment runner for phase switches
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

    /// Access a cluster node handler (tests and metrics).
    pub fn node(&self, idx: usize) -> &ClusterNode {
        self.state.node(idx)
    }

    /// Mutable node access (failure injection).
    pub fn node_mut(&mut self, idx: usize) -> &mut ClusterNode {
        self.state.node_access_mut(idx)
    }

    /// The balancer (tests and metrics).
    pub fn balancer(&self) -> &LoadBalancer {
        self.state.balancer()
    }

    /// The certification engine (tests and metrics).
    pub fn certifier(&self) -> &Certifier {
        self.state.certifier()
    }

    /// The first certifier group's membership and leadership (tests and
    /// metrics).
    pub fn certifier_group(&self) -> &tashkent_certifier::CertifierGroup {
        self.state.certifier_group()
    }

    /// The full certifier link — per-group membership and parked requests
    /// (tests and metrics).
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

    /// Current group → replica assignments with type names resolved.
    pub fn group_snapshots(&self) -> Vec<GroupSnapshot> {
        self.state.group_snapshots()
    }

    /// The placement map ([`crate::placement::PlacementMap::full`] under
    /// full replication).
    pub fn placement(&self) -> &crate::placement::PlacementMap {
        self.state.placement()
    }

    /// Runs until the `End` event fires: pops events in `(timestamp, FIFO)`
    /// order and hands each to [`ClusterState::handle`], which schedules
    /// its consequences back into the queue.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::QueueDrained`] when the event queue empties
    /// before `End` — a mis-scheduled experiment. The world stays
    /// inspectable at the drained point.
    pub fn run_to_end(&mut self) -> Result<(), RunError> {
        while !self.state.ended() {
            let Some((now, ev)) = self.queue.pop() else {
                return Err(RunError::QueueDrained {
                    at: self.queue.now(),
                });
            };
            self.state.handle(now, ev, &mut self.queue);
        }
        Ok(())
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

    fn tiny_world(policy: PolicySpec) -> World {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let config = ClusterConfig {
            replicas: 2,
            clients: 6,
            think_mean_us: 200_000,
            ..ClusterConfig::paper_default()
        }
        .with_policy(policy);
        World::new(config, workload, vec![mix])
    }

    fn run_secs(world: &mut World, warmup: u64, total: u64) {
        world.prime();
        world.schedule(SimTime::from_secs(warmup), Ev::EndWarmup);
        world.schedule(SimTime::from_secs(total), Ev::End);
        world.run_to_end().expect("End event scheduled");
    }

    #[test]
    fn transactions_flow_end_to_end() {
        let mut w = tiny_world(PolicySpec::LeastConnections);
        run_secs(&mut w, 2, 20);
        let (read, write) = w.disk_bytes();
        let r = w.metrics().finish(w.now(), read, write, Vec::new());
        assert!(r.committed > 10, "committed {}", r.committed);
        assert!(r.tps > 0.5, "tps {}", r.tps);
        assert!(r.mean_response_s > 0.0);
    }

    #[test]
    fn updates_propagate_to_all_replicas() {
        let mut w = tiny_world(PolicySpec::LeastConnections);
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
        let mut w = tiny_world(PolicySpec::malb_sc());
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

    fn run_fingerprint() -> (u64, u64, u64, u64) {
        let mut w = tiny_world(PolicySpec::LeastConnections);
        run_secs(&mut w, 2, 15);
        let (read, write) = w.disk_bytes();
        let r = w.metrics().finish(w.now(), read, write, Vec::new());
        (r.committed, r.aborts, read, write)
    }

    #[test]
    fn deterministic_across_runs() {
        assert_eq!(run_fingerprint(), run_fingerprint());
    }

    #[test]
    fn deterministic_across_runs_parallel() {
        // Two runs at once on two threads, even on a single-core host: the
        // result depends neither on the scheduler nor on state shared
        // between runs.
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(run_fingerprint);
            let b = s.spawn(run_fingerprint);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(a, run_fingerprint());
    }

    #[test]
    fn drained_queue_is_an_error_not_a_panic() {
        let mut w = tiny_world(PolicySpec::LeastConnections);
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
    fn queue_drained_is_an_error_value() {
        let err = RunError::QueueDrained {
            at: SimTime::from_secs(2),
        };
        assert!(err.to_string().contains("2.000"));
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
