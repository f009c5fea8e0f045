//! # Tashkent+ — memory-aware load balancing and update filtering
//!
//! A full reproduction of *"Tashkent+: Memory-Aware Load Balancing and
//! Update Filtering in Replicated Databases"* (Elnikety, Dropsho,
//! Zwaenepoel, EuroSys 2007) as a deterministic discrete-event simulation.
//!
//! The paper's contribution — the MALB load balancer and update filtering —
//! lives in [`tashkent_core`]; every substrate it needs (storage,
//! execution engine, certifier, replica middleware, workloads, and the
//! whole-cluster simulation) is implemented in the sibling crates and
//! re-exported here.
//!
//! # Examples
//!
//! ```
//! use tashkent::cluster::{run, ClusterConfig, Experiment, PolicySpec};
//! use tashkent::workloads::tpcw::{self, TpcwScale};
//!
//! // A small MALB-SC cluster on the TPC-W ordering mix.
//! let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
//! let config = ClusterConfig {
//!     replicas: 2,
//!     clients: 8,
//!     ..ClusterConfig::paper_default()
//! }
//! .with_policy(PolicySpec::malb_sc());
//! let result = run(Experiment::new(config, workload, mix).with_window(5, 20))
//!     .expect("experiment schedules an End event");
//! assert!(result.tps > 0.0);
//! ```
//!
//! The same run through the scenario registry — the shared harness every
//! example, integration test, and bench figure uses:
//!
//! ```
//! use tashkent::cluster::{run_scenario, PolicySpec, ScenarioKnobs};
//!
//! let knobs = ScenarioKnobs::smoke().with_policy(PolicySpec::malb_sc());
//! let result = run_scenario("tpcw-steady-state", &knobs).expect("scenario runs to its End event");
//! assert!(result.tps > 0.0);
//! ```
//!
//! One run is one single-threaded event loop. Independent runs — a
//! figure's grid of policies, memory sizes and seeds — go through
//! [`cluster::run_sweep`], which spreads them over the host's cores and
//! returns the results in input order, exactly as a serial loop would:
//!
//! ```
//! use tashkent::cluster::{run_sweep, PolicySpec, Scenario, ScenarioKnobs, TpcwSteadyState};
//!
//! let exps = [PolicySpec::LeastConnections, PolicySpec::malb_sc()]
//!     .map(|p| TpcwSteadyState::default().experiment(&ScenarioKnobs::smoke().with_policy(p)));
//! let results = run_sweep(exps.into());
//! assert!(results.iter().all(|r| r.as_ref().is_ok_and(|r| r.tps > 0.0)));
//! ```

/// The discrete-event simulation kernel (time, events, RNG, statistics).
pub use tashkent_sim as sim;

/// Storage substrate: catalog, buffer pool, disk model, background writer.
pub use tashkent_storage as storage;

/// Transaction engine: plans, EXPLAIN, executor, snapshots, writesets.
pub use tashkent_engine as engine;

/// The replicated certifier: GSI certification, commit log, propagation.
pub use tashkent_certifier as certifier;

/// Replica node: proxy, Gatekeeper, writeset application, load daemon.
pub use tashkent_replica as replica;

/// ★ The paper's contribution: MALB policies, working-set estimation, bin
/// packing, dynamic allocation, and update-filtering control.
pub use tashkent_core as core;

/// TPC-W and RUBiS workload models.
pub use tashkent_workloads as workloads;

/// Whole-cluster simulation and the experiment runner.
pub use tashkent_cluster as cluster;

/// Commonly used types, re-exported flat.
pub mod prelude {
    pub use tashkent_cluster::{
        calibrate_standalone, registry, run, run_scenario, run_sweep, scenario, ClusterConfig,
        ClusterState, Ev, Experiment, Failover, FailoverSchedule, FaultEvent, FaultKind,
        PartialReplication, PlacementMap, PlacementSpec, PolicySpec, ReplicationPlanner, RunError,
        RunResult, Scenario, ScenarioKnobs, TypeGroups,
    };
    pub use tashkent_core::{EstimationMode, LoadBalancer, MalbConfig, WorkingSetEstimator};
    pub use tashkent_engine::{TxnTypeId, Version};
    pub use tashkent_sim::{SimRng, SimTime};
    pub use tashkent_workloads::{rubis, tpcw, Mix, Workload};
}
