//! Whole-system simulation of a Tashkent+ cluster.
//!
//! This crate assembles the pieces — clients, the load balancer
//! (`tashkent-core`), replica nodes (`tashkent-replica`), and the certifier
//! (`tashkent-certifier`) — into one deterministic discrete-event
//! simulation, mirroring the paper's testbed of 16 replica machines, a
//! replicated certifier, and a client farm on a switched 1 Gb/s LAN (§4.4).
//!
//! The crate is layered so that *what happens* is separate from *how it is
//! run*:
//!
//! * [`config`] — cluster configuration (replica count, RAM, policy, …);
//! * [`metrics`] — throughput / response-time / disk-I/O accounting over
//!   the measurement window, which [`metrics::Metrics`] owns, and the
//!   [`metrics::RunResult`] every experiment produces;
//! * [`events`] — the event vocabulary ([`events::Ev`]);
//! * [`components`] — the certifier round-trip
//!   ([`components::CertifierLink`]) and the heartbeat failure detector
//!   ([`components::Detector`]);
//! * [`state`] — [`state::ClusterState`]: the replica nodes, the load
//!   balancer, the components, and the clients with their open requests,
//!   with a single `handle` entry point and the simulator's one event loop
//!   ([`state::ClusterState::run_to_end`]): pop the earliest event, hand it
//!   to `handle`, repeat until `End`. The copies of relation groups and the
//!   faults are its two child modules, each the only writer of its
//!   bookkeeping;
//! * [`trace`] — deterministic run tracing: lifecycle span events,
//!   utilization timelines, JSONL and Chrome `trace_event` exporters, with
//!   the trace byte-equal across runs of the same seed;
//! * [`experiment`] — experiment descriptions, the [`experiment::Scenario`]
//!   registry every entry point builds runs from, the schedule every run
//!   starts from ([`experiment::Experiment::build`]), the runner,
//!   [`experiment::run_sweep`] (independent experiments, one per core,
//!   results in input order), and standalone calibration (§4.4's "85 % of
//!   peak" client sizing).

pub mod components;
pub mod config;
pub mod detection;
pub mod events;
pub mod experiment;
pub mod failover;
pub mod metrics;
pub mod partial;
pub mod placement;
pub mod rebalance;
pub mod state;
pub mod trace;

pub use components::{CertifierLink, Detector, HealthTransition, ReplicaHealth};
pub use config::{ClusterConfig, PlacementSpec, PolicySpec};
pub use detection::{Detection, DetectionSchedule};
pub use events::{Ev, CONTROL_NODE};
pub use experiment::{
    calibrate_standalone, registry, run, run_scenario, run_sweep, scenario, Calibration,
    DynamicReconfig, Experiment, Failover, FailoverSchedule, RubisAuctionMix, Scenario,
    ScenarioKnobs, TpcwSteadyState,
};
pub use metrics::{
    Completions, Counters, FaultEvent, FaultKind, GroupSnapshot, Metrics, RunResult,
};
pub use partial::PartialReplication;
pub use placement::{PlacementMap, RelationGroup, ReplicationPlanner, TypeGroups, WS_TICK_BYTES};
pub use rebalance::Rebalance;
pub use state::{ClusterState, RunError};
pub use trace::{TraceConfig, TraceData, TraceEvent, TraceSummary, Tracer};
