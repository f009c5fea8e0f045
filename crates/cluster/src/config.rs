//! Cluster configuration.
//!
//! [`ClusterConfig`] holds what an experiment varies. Both placements build
//! a [`crate::placement::PlacementMap`]: [`PlacementSpec::Full`] the map
//! with no relation groups, [`PlacementSpec::Partial`] a planned one. Values
//! no experiment varies are constants beside their readers instead of
//! fields: the node's [`OVERHEAD_BYTES`] (70 MB) beside
//! [`ClusterConfig::pool_bytes`], the one [`LAN_HOP_US`] (150 µs) between
//! any two components, the rebalance tick's [`MIGRATION_PERIOD`] (2 s),
//! the detector's suspect and dead thresholds (2 and 5 missed heartbeats)
//! and the client retry backoff (100 ms doubling to 2 s). The rest of the
//! testbed is fixed in the crate that models it: the replica's disk,
//! background writer, CPU quantum, apply costs and Gatekeeper MPL
//! ([`ReplicaConfig`]), the certifier's service times
//! ([`tashkent_certifier::CertifierParams::default`]), LARD's thresholds
//! ([`tashkent_core::LardConfig::default`]), and MALB's rebalance period,
//! filter stability rounds and update-filtering `min_copies`
//! ([`MalbConfig::paper_default`]).

use tashkent_core::{Estimates, EstimationMode, LardConfig, LoadBalancer, MalbConfig};
use tashkent_replica::ReplicaConfig;
use tashkent_sim::SimTime;
use tashkent_storage::PAGE_SIZE;
use tashkent_workloads::Mix;

use crate::trace::TraceConfig;

/// How the database is placed across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementSpec {
    /// Every replica stores the full database (the paper's deployment).
    #[default]
    Full,
    /// Partial replication (Sutra & Shapiro 2008 direction): each relation
    /// group lives on a holder subset of `min_copies` replicas; dispatch
    /// routes transactions only to holders and the certifier propagates
    /// writeset pages only to holders (non-holders get a version tick).
    /// `min_copies >= replicas` degenerates to full replication and
    /// reproduces `Full` results bit for bit.
    Partial {
        /// Minimum up-to-date copies per relation group (clamped to
        /// `[1, replicas]`).
        min_copies: usize,
    },
}

impl PlacementSpec {
    /// Label for tables and logs.
    pub fn label(&self) -> String {
        match self {
            PlacementSpec::Full => "full".into(),
            PlacementSpec::Partial { min_copies } => format!("partial(min_copies={min_copies})"),
        }
    }
}

/// Memory on each node not available to the database: OS, PostgreSQL
/// processes, proxy, daemons (paper: 70 MB, §4.4).
pub const OVERHEAD_BYTES: u64 = 70 * 1024 * 1024;

/// One-way LAN latency between any two components, in µs.
pub const LAN_HOP_US: u64 = 150;

/// Period of the skew-driven migration tick (`Ev::RebalanceTick`) when
/// [`ClusterConfig::migration`] is on.
pub const MIGRATION_PERIOD: SimTime = SimTime::from_secs(2);

/// Which load-balancing policy the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Least outstanding connections (§4.3 baseline).
    LeastConnections,
    /// Locality-aware request distribution (§4.3 baseline).
    Lard,
    /// Memory-aware load balancing (§2) with the given estimation mode and
    /// optionally update filtering (§3).
    Malb {
        /// Working-set information used for packing.
        mode: EstimationMode,
        /// Enable update filtering once allocation stabilizes.
        update_filtering: bool,
    },
}

impl PolicySpec {
    /// The paper's headline configuration: MALB-SC without filtering.
    pub fn malb_sc() -> Self {
        PolicySpec::Malb {
            mode: EstimationMode::SizeContent,
            update_filtering: false,
        }
    }

    /// MALB-SC plus update filtering.
    pub fn malb_sc_uf() -> Self {
        PolicySpec::Malb {
            mode: EstimationMode::SizeContent,
            update_filtering: true,
        }
    }

    /// Label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::LeastConnections => "LeastConnections".into(),
            PolicySpec::Lard => "LARD".into(),
            PolicySpec::Malb {
                mode,
                update_filtering,
            } => {
                let base = match mode {
                    EstimationMode::Size => "MALB-S",
                    EstimationMode::SizeContent => "MALB-SC",
                    EstimationMode::SizeContentAccessPattern => "MALB-SCAP",
                };
                if *update_filtering {
                    format!("{base}+UF")
                } else {
                    base.into()
                }
            }
        }
    }
}

/// Full configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of database replicas (paper default: 16).
    pub replicas: usize,
    /// Physical RAM per replica in bytes (256 MB / 512 MB / 1024 MB in the
    /// evaluation).
    pub ram_bytes: u64,
    /// Load-balancing policy.
    pub policy: PolicySpec,
    /// Total number of closed-loop clients.
    pub clients: usize,
    /// Mean client think time, in µs.
    pub think_mean_us: u64,
    /// Database placement: full replication, or partial replication with a
    /// per-relation-group `min_copies` durability constraint (see
    /// [`PlacementSpec::Partial`]).
    pub placement: PlacementSpec,
    /// Upper bound on certifier groups (clamped to
    /// `[1, MAX_CERT_GROUPS]`). One group, the default, is the paper's
    /// deployment. More split certification by the workload's relation
    /// groups (Sutra & Shapiro direction): each group has its own
    /// leader+backups membership and serial check queue in front of the one
    /// global commit log, and a cross-group transaction runs an
    /// atomic-commitment round among the groups it touches (see
    /// [`tashkent_certifier::Certifier`]).
    ///
    /// [`MAX_CERT_GROUPS`]: tashkent_certifier::MAX_CERT_GROUPS
    pub cert_groups: usize,
    /// Bandwidth cap on placement backfill (re-replication and migration),
    /// in bytes per second of simulated time. `0` means uncapped: the whole
    /// backfill is charged through the target's CPU/disk models at the
    /// instant it starts (the historical synchronous behaviour). A non-zero
    /// cap stages the copy through `Ev::BackfillChunk` events so migration
    /// I/O competes with foreground propagation over simulated time.
    pub backfill_bytes_per_sec: u64,
    /// Skew-driven migration under partial replication: every
    /// [`MIGRATION_PERIOD`] a tick (`Ev::RebalanceTick`) may migrate the
    /// hottest relation group from its most-loaded holder toward the
    /// least-loaded non-holder. Off by default.
    pub migration: bool,
    /// Overrides the allocator's merge threshold (e.g. `Some(0.0)` disables
    /// group merging — the §5.3 ablation).
    pub merge_threshold_override: Option<f64>,
    /// Response-time histogram bucket width, in seconds (default 50 ms,
    /// matching the historical hardcoded `Histogram::new(0.050, 400)`).
    pub resp_hist_bucket_s: f64,
    /// Response-time histogram bucket count (default 400, saturating at
    /// `bucket_s * buckets` = 20 s with the defaults).
    pub resp_hist_buckets: usize,
    /// Run tracing: disabled by default; set an exporter path (directly or
    /// via `TASHKENT_TRACE` / `ScenarioKnobs::with_trace`) to record the
    /// full deterministic event trace. See [`crate::trace`].
    pub trace: TraceConfig,
    /// Heartbeat period of the balancer's failure detector, in µs. `0` (the
    /// default) disables detection entirely: fault events remain omniscient,
    /// and `Ev::ReplicaCrash` applies what the detector's *Dead* and
    /// *Suspected* transitions would at the crash instant (dispatch routes
    /// around the replica, under-copied groups are re-replicated, then its
    /// in-flight requests retry). A non-zero period makes the balancer ping
    /// every replica each period — probes occupy the certifier-side NIC and
    /// pay LAN hops — and drive the per-replica `Live → Suspected → Dead`
    /// accrual state machine; dispatch eligibility then changes *only*
    /// through that state machine.
    pub heartbeat_period_us: u64,
    /// Checkpoint lag `k`: a crashed replica recovers at `applied − k` and
    /// replays the redo window from the certifier log before rejoining.
    /// `0` (the default) recovers from a perfectly fresh log position (the
    /// historical behaviour).
    pub checkpoint_lag: u64,
    /// Per-request client timeout, in µs. `0` (the default) waits forever.
    /// A non-zero timeout abandons the request on the (possibly dead)
    /// replica and retries it after a capped exponential backoff through
    /// the usual `Ev::TxnRetry` path.
    pub client_timeout_us: u64,
    /// RNG seed (runs are bit-reproducible per seed).
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's default testbed shape: 16 replicas, 512 MB RAM,
    /// LeastConnections.
    pub fn paper_default() -> Self {
        ClusterConfig {
            replicas: 16,
            ram_bytes: 512 * 1024 * 1024,
            policy: PolicySpec::LeastConnections,
            clients: 112,
            think_mean_us: 500_000,
            placement: PlacementSpec::Full,
            cert_groups: 1,
            backfill_bytes_per_sec: 0,
            migration: false,
            merge_threshold_override: None,
            resp_hist_bucket_s: 0.050,
            resp_hist_buckets: 400,
            trace: TraceConfig::default(),
            heartbeat_period_us: 0,
            checkpoint_lag: 0,
            client_timeout_us: 0,
            seed: 42,
        }
    }

    /// Memory available to the buffer pool per replica.
    pub fn pool_bytes(&self) -> u64 {
        self.ram_bytes.saturating_sub(OVERHEAD_BYTES).max(PAGE_SIZE)
    }

    /// The capacity the bin-packing algorithm sees, in pages (§4.4: RAM
    /// minus 70 MB).
    pub fn capacity_pages(&self) -> u64 {
        self.pool_bytes() / PAGE_SIZE
    }

    /// Replica-level configuration derived from the cluster config.
    pub fn replica_config(&self) -> ReplicaConfig {
        ReplicaConfig {
            mem_bytes: self.pool_bytes(),
            ..ReplicaConfig::default()
        }
    }

    /// MALB configuration derived from the cluster config (when the policy
    /// is a MALB variant).
    pub fn malb_config(&self) -> Option<MalbConfig> {
        match self.policy {
            PolicySpec::Malb {
                mode,
                update_filtering,
            } => {
                let mut cfg = MalbConfig::paper_default(mode, self.capacity_pages());
                cfg.update_filtering = update_filtering;
                cfg.min_copies = cfg.min_copies.min(self.replicas);
                if let Some(t) = self.merge_threshold_override {
                    cfg.allocation.merge_threshold = t;
                }
                Some(cfg)
            }
            _ => None,
        }
    }

    /// Builds the load balancer. MALB packs the working sets of `mix`'s
    /// active transaction types from `estimates`, the cluster's one estimate
    /// of every type from `EXPLAIN` + catalog metadata — exactly the paper's
    /// information channel (§4.2.2).
    ///
    /// # Panics
    ///
    /// Panics if the policy is MALB and `estimates` is `None`.
    pub fn balancer(&self, estimates: Option<&Estimates>, mix: &Mix) -> LoadBalancer {
        match self.policy {
            PolicySpec::LeastConnections => LoadBalancer::least_connections(self.replicas),
            PolicySpec::Lard => LoadBalancer::lard(self.replicas, LardConfig::default()),
            PolicySpec::Malb { .. } => {
                let estimates = estimates.expect("MALB packs the working-set estimates");
                let sets = mix
                    .active_types()
                    .iter()
                    .map(|t| estimates.sets[t.0 as usize])
                    .collect();
                let malb_cfg = self.malb_config().expect("policy is MALB");
                LoadBalancer::malb(self.replicas, sets, estimates.pages.clone(), malb_cfg)
            }
        }
    }

    /// Convenience: set RAM in megabytes.
    pub fn with_ram_mb(mut self, mb: u64) -> Self {
        self.ram_bytes = mb * 1024 * 1024;
        self
    }

    /// Convenience: set the policy.
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Convenience: single-replica (standalone) variant with proportionally
    /// fewer clients.
    pub fn standalone(mut self, clients: usize) -> Self {
        self.replicas = 1;
        self.clients = clients;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_testbed() {
        let c = ClusterConfig::paper_default();
        assert_eq!(c.replicas, 16);
        assert_eq!(c.ram_bytes, 512 * 1024 * 1024);
    }

    #[test]
    fn tracing_off_and_histogram_bounds_default() {
        let c = ClusterConfig::paper_default();
        assert!(!c.trace.enabled(), "tracing must be opt-in");
        assert_eq!(c.resp_hist_bucket_s, 0.050);
        assert_eq!(c.resp_hist_buckets, 400);
    }

    #[test]
    fn detection_and_recovery_knobs_default_off() {
        // The defaults must reproduce the pre-detector fault model bit for
        // bit: no heartbeats, fresh-log recovery, clients wait forever.
        let c = ClusterConfig::paper_default();
        assert_eq!(c.heartbeat_period_us, 0, "detector must be opt-in");
        assert_eq!(c.checkpoint_lag, 0, "fresh-log recovery by default");
        assert_eq!(c.client_timeout_us, 0, "clients wait forever by default");
    }

    #[test]
    fn capacity_subtracts_overhead() {
        let c = ClusterConfig::paper_default();
        // (512 − 70) MB in 8 KB pages = 56,576.
        assert_eq!(c.capacity_pages(), 56_576);
    }

    #[test]
    fn tiny_ram_keeps_one_page() {
        let c = ClusterConfig::paper_default().with_ram_mb(1);
        assert!(c.pool_bytes() >= PAGE_SIZE);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicySpec::malb_sc().label(), "MALB-SC");
        assert_eq!(PolicySpec::malb_sc_uf().label(), "MALB-SC+UF");
        assert_eq!(PolicySpec::Lard.label(), "LARD");
    }

    #[test]
    fn default_certification_is_unified() {
        let c = ClusterConfig::paper_default();
        assert_eq!(c.cert_groups, 1);
    }

    #[test]
    fn malb_config_only_for_malb() {
        let c = ClusterConfig::paper_default();
        assert!(c.malb_config().is_none());
        let m = c.with_policy(PolicySpec::malb_sc());
        let cfg = m.malb_config().unwrap();
        assert_eq!(cfg.capacity_pages, 56_576);
        assert!(!cfg.update_filtering);
    }

    #[test]
    fn standalone_shrinks_cluster() {
        let c = ClusterConfig::paper_default().standalone(10);
        assert_eq!(c.replicas, 1);
        assert_eq!(c.clients, 10);
    }
}
