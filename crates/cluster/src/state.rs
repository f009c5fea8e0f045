//! The assembled cluster state, independent of the event loop.
//!
//! [`ClusterState`] owns the per-component handlers — one
//! [`ClusterNode`] per replica, the [`CertifierLink`], the [`BalancerCtl`] —
//! plus the cross-cutting state no single component owns: the client pool,
//! in-flight transaction metadata, the experiment RNG, and metrics. It
//! exposes exactly one mutation entry point, [`ClusterState::handle`], which
//! routes a timestamped [`Ev`] to its component handler and schedules the
//! consequences into the [`EventQueue`] it is handed.
//!
//! What `ClusterState` deliberately does **not** own is the event loop:
//! [`crate::world::World::run_to_end`] pops events and hands them here one
//! at a time, and any loop that delivers the same events in the same order
//! observes bit-identical state evolution.
//!
//! Placement and crashes each take one path. Full replication is a
//! [`PlacementMap`] with no relation groups, so dispatch, propagation and
//! failover ask the same map whatever the placement. A crash with the
//! heartbeat detector off applies, at the crash instant, what the
//! detector's *Dead* and *Suspected* transitions apply once heartbeats
//! miss: durability first, then the retries of the replica's in-flight
//! transactions.

use std::collections::HashMap;

use tashkent_certifier::{CertMap, Certifier, CertifierParams};
use tashkent_core::{LoadBalancer, ReplicaId, ResourceLoad};
use tashkent_engine::{TxnExecutor, TxnId, TxnTypeId, Version};
use tashkent_replica::ReplicaNode;
use tashkent_sim::{EventQueue, SimRng, SimTime};
use tashkent_storage::RelationSet;
use tashkent_workloads::{ClientPool, Mix, Workload};

use crate::components::{BalancerCtl, CertifierLink, ClusterNode, HealthTransition, ReplicaHealth};
use crate::config::{ClusterConfig, PlacementSpec, PolicySpec, LAN_HOP_US};
use crate::events::{Ev, CONTROL_NODE};
use crate::metrics::{FaultKind, GroupSnapshot, Metrics};
use crate::placement::{PlacementMap, ReplicationPlanner, TypeGroups};
use crate::trace::{TraceData, Tracer};

/// Bookkeeping for one in-flight transaction.
#[derive(Clone, Copy)]
struct TxnMeta {
    client: usize,
    txn_type: TxnTypeId,
    /// First submission time (retries keep the original arrival).
    arrived: SimTime,
    retries: u32,
    is_update: bool,
    /// Replica the transaction was dispatched to — a crash there orphans
    /// the transaction and the client retries elsewhere.
    replica: usize,
    /// The client stopped waiting (request timeout or suspicion sweep) and
    /// was already retried elsewhere; the transaction may still be running
    /// on its replica, so the meta lingers only to free the Gatekeeper slot
    /// when the stale completion arrives — no client-side effects then.
    abandoned: bool,
}

/// Bytes shipped per [`Ev::BackfillChunk`] under a bandwidth cap. Small
/// enough that foreground propagation interleaves with a long copy, large
/// enough that the event count stays negligible next to transaction traffic.
const BACKFILL_CHUNK_BYTES: u64 = 64 * 1024;

/// The minimum bottleneck-utilization gap between the busiest holder and
/// the idlest non-holder before the rebalancer migrates a hot group —
/// hysteresis so balanced clusters don't churn placement.
const MIGRATION_MIN_IMBALANCE: f64 = 0.10;

/// First client retry backoff; each further retry doubles it, up to
/// [`CLIENT_BACKOFF_CAP_US`]. Read by `ClusterState::backoff_us`.
const CLIENT_BACKOFF_BASE_US: u64 = 100_000;

/// Ceiling on the client retry backoff.
const CLIENT_BACKOFF_CAP_US: u64 = 2_000_000;

const _: () = assert!(CLIENT_BACKOFF_CAP_US >= CLIENT_BACKOFF_BASE_US);

/// Commits between two scans for the certifier log's trim floor
/// ([`ClusterState::log_floor`]). A scan walks every node's running set and
/// the event queue, so one per 1,024 commits costs amortized O(1) per
/// commit, and a floor held back (by a long-running transaction, say) is
/// not rescanned on every commit.
const LOG_TRIM_INTERVAL: u64 = 1_024;

/// One in-flight certifier-log backfill onto a target replica: a durability
/// re-replication (crash or explicit [`Ev::Rereplicate`]) or, when
/// `drop_source` is set, a skew-driven migration that sheds the donor once
/// the copy completes. Tasks are append-only for the run — `Ev::BackfillChunk
/// { task }` indexes into [`ClusterState::backfills`] — and a crash of the
/// target cancels the task rather than removing it.
struct BackfillTask {
    group: usize,
    target: usize,
    /// Relations being copied (the ones the target did not already hold).
    rels: RelationSet,
    /// Last certifier-log version shipped.
    next: Version,
    /// Log version the copy must reach — fixed at task creation; later
    /// versions arrive through normal propagation (the filter is already
    /// widened), so a busy cluster cannot push completion out forever.
    upto: Version,
    /// Bytes shipped so far.
    bytes: u64,
    started: SimTime,
    done: bool,
    cancelled: bool,
    /// Migration donor: dropped from the holder set at completion (unless
    /// that would leave the group under-replicated).
    drop_source: Option<usize>,
}

/// Components plus cross-cutting transaction/client/metrics state — the
/// whole cluster, minus the event loop that drives it.
pub struct ClusterState {
    /// Configuration.
    pub config: ClusterConfig,
    /// The workload (schema + transaction types).
    pub workload: Workload,
    /// Mixes selectable via `MixSwitch` (index 0 active initially).
    pub mixes: Vec<Mix>,
    active_mix: usize,
    balancer: BalancerCtl,
    nodes: Vec<ClusterNode>,
    certifier: CertifierLink,
    clients: ClientPool,
    rng: SimRng,
    next_txn: u64,
    txns: HashMap<TxnId, TxnMeta>,
    /// Where every relation group lives; [`PlacementMap::full`] (no groups,
    /// everything held everywhere) under full replication. Unless the map
    /// is full, the placement filter is authoritative on every node — it
    /// subsumes §3 update filtering (holder sets are the "keep current"
    /// lists).
    placement: PlacementMap,
    /// Every backfill started this run, live and finished (event payloads
    /// index into it, so entries are never removed).
    backfills: Vec<BackfillTask>,
    /// Per-relation-group dispatch counts since the last migration — the
    /// skew signal the rebalancer acts on. Empty under full replication.
    group_load: Vec<u64>,
    /// Total bytes shipped by completed backfills (re-replication and
    /// migration) and total in-flight time, for [`crate::metrics::RunResult`].
    migration_bytes: u64,
    migration_us: u64,
    /// Injected network partitions, as normalized `(min, max)` node pairs
    /// ([`CONTROL_NODE`] stands for the balancer/certifier side). Messages
    /// between partitioned pairs — heartbeats, certification traffic,
    /// propagation pulls — are dropped until the matching [`Ev::LinkHeal`].
    partitions: Vec<(usize, usize)>,
    /// When the physical fault behind a replica's unreachability was
    /// injected (crash or control-link partition) — the epoch detection
    /// latency is measured from. Cleared when the detector re-trusts the
    /// replica.
    fault_started: Vec<Option<SimTime>>,
    /// Until this instant a recovering replica is busy replaying the redo
    /// window and does not answer heartbeats — with the detector on it
    /// rejoins dispatch only at the *Trusted* transition after replay.
    recovering_until: Vec<SimTime>,
    /// Recovery replay totals: certifier-log bytes re-shipped at
    /// [`Ev::ReplicaRecover`] (the checkpoint-lag redo window plus whatever
    /// the replica missed while down) and the replay time, for
    /// [`crate::metrics::RunResult`].
    redo_bytes: u64,
    redo_us: u64,
    /// Log head at which the next trim-floor scan runs.
    next_trim_scan: Version,
    /// Metrics accumulator.
    pub metrics: Metrics,
    /// Run tracer (disabled unless the config sets an exporter path). Every
    /// emission happens inside a handler, in exact event pop order, so the
    /// trace is byte-equal across runs of the same seed.
    pub tracer: Tracer,
    /// CPU/disk busy totals at the start of the measurement window.
    busy0: (u64, u64),
    /// Propagation byte counters `(sent, saved)` at the start of the
    /// measurement window.
    prop0: (u64, u64),
    window_started: SimTime,
    ended: bool,
}

impl ClusterState {
    /// Builds the cluster from a configuration, workload, and mixes (the
    /// first mix is active at start).
    ///
    /// # Panics
    ///
    /// Panics if `mixes` is empty.
    pub fn new(config: ClusterConfig, workload: Workload, mixes: Vec<Mix>) -> Self {
        assert!(!mixes.is_empty(), "cluster needs at least one mix");
        let mut rng = SimRng::seed_from(config.seed);
        // MALB's packing, partial placement and certifier groups all start
        // from the working sets of the workload's types: estimate every type
        // once, and only when one of the three needs them.
        let grouped = config.placement != PlacementSpec::Full || config.cert_groups > 1;
        let estimates = (grouped || matches!(config.policy, PolicySpec::Malb { .. }))
            .then(|| workload.estimates());
        let balancer = BalancerCtl::build(&config, estimates.as_ref(), &mixes[0]);
        let nodes: Vec<ClusterNode> = (0..config.replicas)
            .map(|id| {
                ClusterNode::new(
                    id,
                    ReplicaNode::new(
                        workload.catalog.clone(),
                        config.replica_config(),
                        rng.fork(),
                    ),
                )
            })
            .collect();
        // Partial placement and certifier groups both start from the
        // workload's relation groups; derive them once, and only when one of
        // the two needs them.
        let type_groups = match &estimates {
            Some(estimates) if grouped => {
                Some(TypeGroups::from_estimates(&workload.catalog, estimates))
            }
            _ => None,
        };
        // Partial replication plans the group → holder-set assignment; full
        // replication is the map with no groups.
        let placement = match (config.placement, &type_groups) {
            (PlacementSpec::Partial { min_copies }, Some(groups)) => {
                ReplicationPlanner::new(min_copies).plan(&workload.catalog, groups, config.replicas)
            }
            _ => PlacementMap::full(config.replicas),
        };
        // The relation → certifier-group map folds the same relation groups.
        let cert_map = type_groups
            .as_ref()
            .map_or_else(CertMap::default, |g| g.cert_map(config.cert_groups));
        let certifier = CertifierLink::new(CertifierParams::default(), cert_map, config.replicas);
        let clients = ClientPool::new(config.clients, config.think_mean_us);
        let group_load = vec![0; placement.group_count()];
        let tracer = Tracer::new(&config.trace);
        let metrics = Metrics::with_hist(config.resp_hist_bucket_s, config.resp_hist_buckets);
        let mut state = ClusterState {
            balancer,
            nodes,
            certifier,
            clients,
            rng,
            next_txn: 0,
            txns: HashMap::new(),
            placement,
            backfills: Vec::new(),
            group_load,
            migration_bytes: 0,
            migration_us: 0,
            partitions: Vec::new(),
            fault_started: vec![None; config.replicas],
            recovering_until: vec![SimTime::ZERO; config.replicas],
            redo_bytes: 0,
            redo_us: 0,
            next_trim_scan: Version(LOG_TRIM_INTERVAL),
            metrics,
            tracer,
            active_mix: 0,
            config,
            workload,
            mixes,
            busy0: (0, 0),
            prop0: (0, 0),
            window_started: SimTime::ZERO,
            ended: false,
        };
        // Thread a constraining placement through the layers: placement
        // filters on the nodes (the "must not receive" tier) and per-type
        // eligibility masks on the balancer (dispatch routes only to
        // holders). A full map constrains nothing, so it installs neither.
        if !state.placement.is_full() {
            state.apply_placement(0..state.config.replicas);
        }
        state
    }

    /// Schedules the initial events into `queue`: staggered client arrivals,
    /// per-replica maintenance, and balancer ticks.
    pub fn prime(&mut self, queue: &mut EventQueue<Ev>) {
        for client in 0..self.config.clients {
            let delay = self.rng.exp_micros(self.config.think_mean_us.max(1));
            queue.schedule(SimTime::from_micros(delay), Ev::ClientArrive { client });
        }
        for replica in 0..self.config.replicas {
            queue.schedule(
                SimTime::from_millis(250),
                Ev::Maintenance { replica, round: 0 },
            );
        }
        queue.schedule(SimTime::from_secs(1), Ev::LbTick);
        // Skew-driven placement rebalancing only makes sense when placement
        // is actually partial — under full replication (or the degenerate
        // all-holders plan) there is nothing to migrate.
        if let Some(period) = self.config.migration_period {
            if !self.placement.is_full() {
                queue.schedule(SimTime::ZERO + period.as_micros(), Ev::RebalanceTick);
            }
        }
        // Heartbeat failure detection: each round's pings pay their LAN
        // round trip before the balancer reads the answers, so the first
        // tick lands one period plus one RTT in.
        if self.config.heartbeat_period_us > 0 {
            queue.schedule(
                SimTime::from_micros(self.config.heartbeat_period_us + 2 * LAN_HOP_US),
                Ev::HeartbeatTick,
            );
        }
    }

    /// Whether the heartbeat failure detector runs. When it does, *no*
    /// handler acts on oracle crash knowledge: dispatch eligibility,
    /// in-flight retries, and re-replication all change only through the
    /// detector's `Live → Suspected → Dead` transitions.
    fn detection_on(&self) -> bool {
        self.config.heartbeat_period_us > 0
    }

    /// Whether a partition currently severs the `a`–`b` link.
    fn partitioned(&self, a: usize, b: usize) -> bool {
        self.partitions.contains(&(a.min(b), a.max(b)))
    }

    /// The detector's belief about `replica` (always `Live` with the
    /// detector off).
    pub fn replica_health(&self, replica: usize) -> ReplicaHealth {
        self.balancer.health(replica)
    }

    /// Whether `replica` is a sane re-replication participant: physically
    /// up *and* believed live by the detector. With the detector off the
    /// belief is always `Live`, so this reduces to `is_up()` — bit-exact
    /// with the oracle semantics.
    fn believed_live(&self, replica: usize) -> bool {
        self.node(replica).is_up() && self.balancer.health(replica) == ReplicaHealth::Live
    }

    /// Capped exponential client backoff for retry number `retries`.
    fn backoff_us(&self, retries: u32) -> u64 {
        CLIENT_BACKOFF_BASE_US
            .saturating_mul(1u64 << retries.min(20))
            .min(CLIENT_BACKOFF_CAP_US)
    }

    /// Whether the `End` event has fired.
    pub fn ended(&self) -> bool {
        self.ended
    }

    fn node_mut(&mut self, idx: usize) -> &mut ClusterNode {
        &mut self.nodes[idx]
    }

    /// Cluster-wide disk byte counters `(read, write)`.
    pub fn disk_bytes(&self) -> (u64, u64) {
        let mut read = 0;
        let mut write = 0;
        for n in &self.nodes {
            let s = n.replica().disk_stats();
            read += s.read_bytes();
            write += s.write_bytes();
        }
        (read, write)
    }

    /// Access a replica (tests and metrics).
    pub fn replica(&self, idx: usize) -> &ReplicaNode {
        self.node(idx).replica()
    }

    /// Access a cluster node handler (tests and metrics).
    pub fn node(&self, idx: usize) -> &ClusterNode {
        &self.nodes[idx]
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.nodes.len()
    }

    /// Mutable node access (failure injection).
    pub fn node_access_mut(&mut self, idx: usize) -> &mut ClusterNode {
        self.node_mut(idx)
    }

    /// The balancer (tests and metrics).
    pub fn balancer(&self) -> &LoadBalancer {
        self.balancer.inner()
    }

    /// The certification engine (tests and metrics).
    pub fn certifier(&self) -> &Certifier {
        self.certifier.engine()
    }

    /// The certifier group's membership and leadership (tests and metrics).
    pub fn certifier_group(&self) -> &tashkent_certifier::CertifierGroup {
        self.certifier.group()
    }

    /// The full certifier link (tests and metrics).
    pub fn cert_link(&self) -> &CertifierLink {
        &self.certifier
    }

    /// Total CPU and disk busy microseconds across replicas.
    fn busy_totals(&self) -> (u64, u64) {
        let mut cpu = 0;
        let mut disk = 0;
        for n in &self.nodes {
            cpu += n.replica().cpu_busy_us();
            disk += n.replica().disk_stats().busy_us;
        }
        (cpu, disk)
    }

    /// Finalizes the run into a [`crate::metrics::RunResult`], including
    /// mean CPU/disk utilizations over the measurement window.
    pub fn finish_result(&self, now: SimTime) -> crate::metrics::RunResult {
        let (read, write) = self.disk_bytes();
        let snaps = self.group_snapshots();
        let mut result = self.metrics.finish(now, read, write, snaps);
        let (cpu, disk) = self.busy_totals();
        let window_us = (now.saturating_since(self.window_started) as f64).max(1.0)
            * self.config.replicas as f64;
        result.cpu_util = (cpu.saturating_sub(self.busy0.0)) as f64 / window_us;
        result.disk_util = (disk.saturating_sub(self.busy0.1)) as f64 / window_us;
        let stats = self.balancer.inner().stats();
        result.lb = crate::metrics::LbSummary {
            moves: stats.moves,
            merges: stats.merges,
            splits: stats.splits,
            fast_reallocs: stats.fast_reallocs,
            fallback: stats.fallback,
            filters_installed: self.balancer.inner().filters_installed(),
        };
        let (sent, saved) = self.certifier.propagation_bytes();
        result.propagated_ws_bytes = sent.saturating_sub(self.prop0.0);
        result.filtered_ws_bytes = saved.saturating_sub(self.prop0.1);
        result.cert_group_commits = self.certifier().group_commits().to_vec();
        result.migration_bytes = self.migration_bytes;
        result.migration_us = self.migration_us;
        result.redo_bytes = self.redo_bytes;
        result.redo_us = self.redo_us;
        result.trace_summary = self.tracer.summary();
        result
    }

    /// The placement map ([`PlacementMap::full`] under full replication).
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// Current group → replica assignments with type names resolved.
    pub fn group_snapshots(&self) -> Vec<GroupSnapshot> {
        let loads = self.balancer.inner().loads();
        self.balancer
            .inner()
            .assignments()
            .into_iter()
            .map(|(types, replicas)| GroupSnapshot {
                types: types
                    .iter()
                    .map(|t| self.workload.type_name(*t).to_string())
                    .collect(),
                replicas: replicas.len(),
                load: if replicas.is_empty() {
                    0.0
                } else {
                    replicas
                        .iter()
                        .map(|r| loads[r.0].bottleneck())
                        .sum::<f64>()
                        / replicas.len() as f64
                },
            })
            .collect()
    }

    /// Routes one event to its component handler. Every arm is a thin
    /// delegate; the lifecycle lives in [`crate::components`].
    ///
    /// The caller delivers events in nondecreasing `(timestamp, FIFO)`
    /// order, as [`EventQueue::pop`] yields them; under that contract the
    /// state evolution is a pure function of the seed.
    pub fn handle(&mut self, now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
        match ev {
            Ev::ClientArrive { client } => self.on_client_arrive(now, client, queue),
            Ev::StepTxn { replica, txn } => {
                self.nodes[replica].on_step(now, txn, &mut self.tracer, queue)
            }
            Ev::CertifySend { replica, txn, ws } => {
                if self.partitioned(replica, CONTROL_NODE) {
                    // The writeset never reaches the certifier. The
                    // replica-side proxy sees the connection drop and frees
                    // the Gatekeeper slot (the executor already left at
                    // ReadyToCommit); the client is rescued later by its
                    // timeout or the suspicion sweep, unless it already gave
                    // up waiting — then this was the transaction's last
                    // event and the meta can go too.
                    self.node_mut(replica).on_finish(now, false, queue);
                    if self.txns.get(&txn).is_some_and(|m| m.abandoned) {
                        self.txns.remove(&txn);
                    }
                } else {
                    self.certifier
                        .on_send(now, replica, txn, ws, &mut self.tracer, queue);
                    self.trim_log_if_due(queue);
                }
            }
            Ev::CertifyReturn {
                replica,
                txn,
                version,
            } => self.on_certify_return(now, replica, txn, version, queue),
            Ev::TxnComplete {
                replica,
                txn,
                committed,
            } => self.on_txn_complete(now, replica, txn, committed, queue),
            Ev::TxnRetry {
                client,
                txn_type,
                arrived,
                retries,
            } => self.submit_txn(now, client, txn_type, arrived, retries, queue),
            Ev::Maintenance { replica, round } => self.on_maintenance(now, replica, round, queue),
            Ev::LbTick => {
                let (filters, moves) = self.balancer.on_tick(now, queue);
                self.tracer.emit(
                    now,
                    TraceData::Lb {
                        filters: filters.len(),
                        moves,
                    },
                );
                for (replica, filter) in filters {
                    // Under partial replication, placement *subsumes* §3
                    // update filtering: the holder sets already are the
                    // "keep current" lists with an explicit `min_copies`,
                    // and MALB's lists are placement-unaware — derived from
                    // its own unit assignment, they may omit relations this
                    // replica holds for durability. Narrowing below the
                    // held set would silently break the invariant (a live
                    // holder dropping its own group's pages), and widening
                    // would apply items the certifier never shipped here.
                    // The placement filter therefore stays authoritative.
                    // A full placement imposes no constraint, so there §3
                    // filtering applies unchanged.
                    let effective = if self.placement.is_full() {
                        filter
                    } else {
                        self.placement.filter_for(replica.0)
                    };
                    self.node_mut(replica.0).set_filter(effective);
                }
            }
            Ev::Rereplicate { group } => {
                self.rereplicate_group(now, group, queue);
            }
            Ev::BackfillChunk { task } => self.on_backfill_chunk(now, task, queue),
            Ev::BackfillDone { task } => self.on_backfill_done(now, task),
            Ev::RebalanceTick => self.on_rebalance_tick(now, queue),
            Ev::MixSwitch { mix } => self.active_mix = mix.min(self.mixes.len() - 1),
            Ev::FreezeLb => self.balancer.freeze(),
            Ev::ReplicaCrash { replica } => self.on_replica_crash(now, replica, queue),
            Ev::ReplicaRecover { replica } => self.on_replica_recover(now, replica, queue),
            Ev::CertifierKill { group, member } => {
                if let Some(tashkent_certifier::GroupEvent::FailedOver { leader, .. }) =
                    self.certifier.on_kill(now, group, member)
                {
                    self.record_fault(
                        now,
                        now,
                        FaultKind::CertifierFailover { group, leader },
                        || format!("certifier failover group={group} leader={leader}"),
                    );
                }
            }
            Ev::CertifierRestart { group, member } => {
                if let Some(tashkent_certifier::GroupEvent::FailedOver { leader, .. }) = self
                    .certifier
                    .on_restart(now, group, member, &mut self.tracer, queue)
                {
                    // A revival election is a failover too: the restarted
                    // member pays the delay before draining the wait queue.
                    self.record_fault(
                        now,
                        now,
                        FaultKind::CertifierFailover { group, leader },
                        || format!("certifier restart-failover group={group} leader={leader}"),
                    );
                }
                // The parked requests drained through the log.
                self.trim_log_if_due(queue);
            }
            Ev::HeartbeatTick => self.on_heartbeat_tick(now, queue),
            Ev::LinkPartition { a, b, heal_at } => {
                self.on_link_partition(now, a, b, heal_at, queue)
            }
            Ev::LinkHeal { a, b } => self.on_link_heal(now, a, b),
            Ev::ClientTimeout { txn } => self.on_client_timeout(now, txn, queue),
            Ev::EndWarmup => self.on_end_warmup(now),
            Ev::End => self.ended = true,
        }
    }

    /// Trims the certifier log below [`Self::log_floor`] once the head has
    /// passed the next scan point, then sets the next one
    /// [`LOG_TRIM_INTERVAL`] commits on.
    fn trim_log_if_due(&mut self, queue: &EventQueue<Ev>) {
        let head = self.certifier.version();
        if head < self.next_trim_scan {
            return;
        }
        let floor = self.log_floor(queue);
        self.certifier.trim_log(floor);
        self.next_trim_scan = Version(head.0 + LOG_TRIM_INTERVAL);
    }

    /// The oldest certifier-log position a reader can still ask for: the
    /// minimum of
    ///
    /// * every node's applied version less the checkpoint lag, up or down —
    ///   propagation pulls, the commit return and the recovery redo all read
    ///   from there;
    /// * the snapshot of every transaction a node still runs or queues,
    ///   which certification checks against the log after it;
    /// * the snapshot of every writeset on its way to the certifier: an
    ///   [`Ev::CertifySend`] still queued (it outlives its executor, and a
    ///   crash may drop its meta) or a request parked in queue-and-wait;
    /// * version 0 under partial placement, whose backfills replay from
    ///   there.
    fn log_floor(&self, queue: &EventQueue<Ev>) -> Version {
        if self.config.placement != PlacementSpec::Full {
            return Version::ZERO;
        }
        let k = self.config.checkpoint_lag;
        let applied = self
            .nodes
            .iter()
            .map(|n| Version(n.applied().0.saturating_sub(k)));
        let running = self
            .nodes
            .iter()
            .filter_map(|n| n.replica().oldest_snapshot());
        let sending = queue.pending().filter_map(|ev| match ev {
            Ev::CertifySend { ws, .. } => Some(ws.snapshot.version),
            _ => None,
        });
        applied
            .chain(running)
            .chain(sending)
            .chain(self.certifier.parked_snapshots())
            .min()
            .unwrap_or(Version::ZERO)
    }

    /// Dispatches a new transaction instance: the balancer picks the
    /// replica, the node admits or queues it.
    fn submit_txn(
        &mut self,
        now: SimTime,
        client: usize,
        txn_type: TxnTypeId,
        arrived: SimTime,
        retries: u32,
        queue: &mut EventQueue<Ev>,
    ) {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        if self.tracer.on() {
            self.tracer.emit(
                now,
                TraceData::Arrive {
                    txn: txn.0,
                    client,
                    txn_type: txn_type.0,
                    type_name: self.workload.type_name(txn_type).to_string(),
                    retries,
                },
            );
        }
        let replica = self.balancer.dispatch(txn_type).0;
        self.tracer.emit(
            now,
            TraceData::Dispatch {
                txn: txn.0,
                replica,
            },
        );
        let meta = TxnMeta {
            client,
            txn_type,
            arrived,
            retries,
            is_update: self.workload.types[txn_type.0 as usize].plan.is_update(),
            replica,
            abandoned: false,
        };
        // With the detector on, the balancer may still dispatch to a
        // physically dead replica it has not suspected yet — the oracle
        // never tells it. The TCP connect is refused after one round trip
        // and the client retries with capped exponential backoff, which is
        // what bridges the detection window without a storm.
        if self.detection_on() && !self.node(replica).is_up() {
            self.balancer.complete(ReplicaId(replica));
            let refused_at = now + 2 * LAN_HOP_US;
            self.retry_or_give_up(now, txn, &meta, refused_at, self.backoff_us(retries), queue);
            return;
        }
        if let Some(g) = self.placement.group_of_type(txn_type) {
            // Partial replication's routing invariant: a transaction only
            // ever runs where every relation it touches is resident *and*
            // fully backfilled — a still-pending holder is never a dispatch
            // target. (A type with no group touches nothing placed.)
            assert!(
                self.placement.eligible(txn_type, replica),
                "dispatch routed type {} to non-holder replica {replica}",
                txn_type.0
            );
            // Skew signal for the rebalancer: dispatches per group since
            // the last migration.
            self.group_load[g] += 1;
        }
        let plan = self.workload.types[txn_type.0 as usize].plan.clone();
        let node = &mut self.nodes[replica];
        let executor = TxnExecutor::new(txn, txn_type, plan, node.snapshot());
        self.txns.insert(txn, meta);
        node.submit(now, txn, executor, queue);
        if self.config.client_timeout_us > 0 {
            queue.schedule(
                now + self.config.client_timeout_us,
                Ev::ClientTimeout { txn },
            );
        }
    }

    /// Records a fault that took effect at `now`, physically injected at
    /// `injected_at`, and traces it as `desc()`, which runs only when
    /// tracing is on.
    fn record_fault(
        &mut self,
        now: SimTime,
        injected_at: SimTime,
        kind: FaultKind,
        desc: impl FnOnce() -> String,
    ) {
        self.metrics.record_fault_detected(now, injected_at, kind);
        if self.tracer.on() {
            self.tracer.emit(now, TraceData::Fault { desc: desc() });
        }
    }

    /// Crashes a replica: cold cache, admission queue drained, every
    /// in-flight transaction lost with it. With the detector on that is
    /// all: the balancer learns of the crash only when heartbeats miss, and
    /// the in-flight metas stay put for the suspicion sweep, or for the
    /// recovery if that comes first. With it off,
    /// the crash instant applies what the detector's *Dead* and *Suspected*
    /// transitions apply, durability first: dispatch routes around the
    /// replica, any group left below `min_copies` live holders is
    /// re-replicated onto a survivor, and only then do the clients of its
    /// in-flight transactions retry — so dispatch always has a live holder.
    ///
    /// # Panics
    ///
    /// Panics when `replica` is the last live replica: dispatch needs a
    /// target, so a fault plan that kills the whole cluster is a mis-built
    /// experiment — failing here beats garbage metrics later.
    fn on_replica_crash(&mut self, now: SimTime, replica: usize, queue: &mut EventQueue<Ev>) {
        if !self.node(replica).is_up() {
            return;
        }
        let survivors = self
            .nodes
            .iter()
            .filter(|n| n.is_up() && n.id() != replica)
            .count();
        assert!(
            survivors > 0,
            "cannot crash replica {replica}: it is the last live replica \
             (at least one must stay up for dispatch)"
        );
        self.node_mut(replica).crash();
        if self.fault_started[replica].is_none() {
            self.fault_started[replica] = Some(now);
        }
        self.record_fault(now, now, FaultKind::ReplicaCrash(replica), || {
            format!("crash replica={replica}")
        });
        if self.detection_on() {
            // The detector's transitions apply the rest once heartbeats miss.
            return;
        }
        self.balancer.replica_failed(ReplicaId(replica));
        // *Dead*'s durability work before *Suspected*'s retries.
        self.cancel_backfills_targeting(replica);
        self.rereplicate_under_copied(now, replica, queue);
        self.sweep_suspected(now, replica, queue);
    }

    /// Cancels every in-flight backfill onto `replica` and rolls back the
    /// holder membership each had optimistically widened, so durability
    /// scans see the true copy counts. Shared by the crash path, the
    /// detector's *Dead* transition, and the chunk handler's dead-target
    /// guard.
    fn cancel_backfills_targeting(&mut self, replica: usize) {
        let mut rolled_back = false;
        for t in &mut self.backfills {
            if t.target != replica || t.done || t.cancelled {
                continue;
            }
            t.cancelled = true;
            self.placement.complete_backfill(replica, t.rels);
            self.placement.remove_holder(t.group, replica);
            rolled_back = true;
        }
        if rolled_back {
            self.apply_placement([replica]);
        }
    }

    /// Applies a placement change to the layers it constrains: the update
    /// filter of each replica in `changed`, then the balancer's per-type
    /// eligibility masks.
    fn apply_placement(&mut self, changed: impl IntoIterator<Item = usize>) {
        for r in changed {
            let filter = self.placement.filter_for(r);
            self.nodes[r].set_filter(filter);
        }
        let masks = self.placement.type_masks(self.workload.types.len());
        self.balancer.set_type_eligibility(masks);
    }

    /// Copies relation group `group` onto one more live replica: widens the
    /// target's holder membership and update filter *immediately* (so the
    /// copy converges through foreground propagation while it backfills),
    /// marks the target pending (dispatch eligibility waits for
    /// [`Ev::BackfillDone`]), and starts the backfill — instantaneous when
    /// `backfill_bytes_per_sec` is zero, staged through bandwidth-capped
    /// [`Ev::BackfillChunk`]s otherwise. The fault is recorded at
    /// completion, carrying the shipped bytes.
    ///
    /// The target is the live non-holder with the fewest placed pages (ties
    /// to the lowest id) — deterministic, so every run of a seed
    /// re-replicates identically. Returns the new holder, or `None` when there
    /// is no such group (full replication has none) or every believed-live
    /// replica already holds it.
    fn rereplicate_group(
        &mut self,
        now: SimTime,
        group: usize,
        queue: &mut EventQueue<Ev>,
    ) -> Option<usize> {
        let p = &self.placement;
        if group >= p.group_count() {
            return None;
        }
        // Targets must be believed live — with the detector on, a
        // suspected-but-up replica is unreachable from the control side
        // and would receive a copy nobody can use; with it off this is
        // exactly the `is_up()` filter.
        let target = (0..self.config.replicas)
            .filter(|r| self.believed_live(*r) && !p.holds_group(*r, group))
            .min_by_key(|r| (p.held_pages(*r), *r))?;
        // Only the relations the target does not already hold through other
        // groups need backfilling — overlap makes close standbys cheap,
        // exactly like §3's standby choice.
        let rels = p.missing_relations(target, group);
        self.widen_holder(group, target, rels);
        self.start_backfill(now, group, target, rels, None, queue);
        Some(target)
    }

    /// Adds `target` as a holder of `group` with `rels` pending: the filter
    /// widens now (foreground propagation keeps the copy converging during
    /// the backfill) while the recomputed eligibility masks exclude the
    /// still-pending holder from dispatch.
    fn widen_holder(&mut self, group: usize, target: usize, rels: RelationSet) {
        self.placement.add_holder(group, target);
        self.placement.mark_pending(target, rels);
        self.apply_placement([target]);
    }

    /// Creates a [`BackfillTask`] and schedules its copy. With no bandwidth
    /// cap (or nothing to ship) the whole log prefix is charged through the
    /// target's CPU/disk models at `now` — the historical instantaneous
    /// path — and only the completion event is scheduled. Under a cap the
    /// copy is staged through [`Ev::BackfillChunk`]s paced at
    /// `backfill_bytes_per_sec`, so the shipped pages compete with
    /// foreground propagation for the target's disk and the copy takes
    /// simulated time proportional to its volume.
    fn start_backfill(
        &mut self,
        now: SimTime,
        group: usize,
        target: usize,
        rels: RelationSet,
        drop_source: Option<usize>,
        queue: &mut EventQueue<Ev>,
    ) {
        let upto = {
            let node = &self.nodes[target];
            self.certifier.backfill_upto(node)
        };
        let task = self.backfills.len();
        self.backfills.push(BackfillTask {
            group,
            target,
            rels,
            next: Version::ZERO,
            upto,
            bytes: 0,
            started: now,
            done: false,
            cancelled: false,
            drop_source,
        });
        let cap = self.config.backfill_bytes_per_sec;
        let t = &self.backfills[task];
        if cap == 0 || t.upto == Version::ZERO || t.rels.is_empty() {
            // Uncapped (or empty) copy: charge the whole log prefix through
            // the target's models and complete *synchronously* — the
            // historical semantics, where a crash-triggered re-replication
            // leaves the new holder dispatch-eligible before the orphan
            // sweep retries its clients.
            let rels = t.rels;
            let node = &mut self.nodes[target];
            let (done, bytes) = self.certifier.backfill(now, node, rels);
            let t = &mut self.backfills[task];
            t.bytes = bytes;
            t.next = t.upto;
            self.on_backfill_done(done, task);
        } else {
            // The first chunk pays the request's LAN hop; each chunk then
            // paces itself by the bytes it actually shipped.
            queue.schedule(now + LAN_HOP_US, Ev::BackfillChunk { task });
        }
    }

    /// Ships one bandwidth-capped slice of backfill task `task` and
    /// schedules the next chunk (or completion) paced by the cap.
    fn on_backfill_chunk(&mut self, now: SimTime, task: usize, queue: &mut EventQueue<Ev>) {
        let (finished, target) = {
            let t = &self.backfills[task];
            (t.done || t.cancelled, t.target)
        };
        if finished {
            return;
        }
        // Detection mode: the oracle no longer cancels tasks at crash time,
        // so a chunk may land on a target that died since the last one.
        // The copy died with the cache — cancel here rather than apply
        // pages to a corpse. (Unreachable with the detector off.)
        if !self.node(target).is_up() {
            self.cancel_backfills_targeting(target);
            return;
        }
        let (from, upto, rels) = {
            let t = &self.backfills[task];
            (t.next, t.upto, t.rels)
        };
        let node = &mut self.nodes[target];
        let (_applied_at, bytes, next) =
            self.certifier
                .backfill_chunk(now, node, rels, from, upto, BACKFILL_CHUNK_BYTES);
        let t = &mut self.backfills[task];
        t.bytes += bytes;
        t.next = next;
        self.tracer
            .emit(now, TraceData::BackfillChunk { task, bytes });
        let cap = self.config.backfill_bytes_per_sec.max(1);
        let delay = (bytes.saturating_mul(1_000_000) / cap).max(1);
        if next >= upto {
            // Completion pays the last chunk's transfer time too, so the
            // total copy duration scales inversely with the cap.
            queue.schedule(now + delay, Ev::BackfillDone { task });
        } else {
            queue.schedule(now + delay, Ev::BackfillChunk { task });
        }
    }

    /// Finishes backfill task `task`: clears the target's pending set (it
    /// becomes dispatch-eligible), sheds the migration donor when safe,
    /// recomputes the eligibility masks, and records the fault with the
    /// shipped volume.
    fn on_backfill_done(&mut self, now: SimTime, task: usize) {
        let t = &mut self.backfills[task];
        if t.done || t.cancelled {
            return;
        }
        t.done = true;
        let (group, target, bytes, started, drop_source) =
            (t.group, t.target, t.bytes, t.started, t.drop_source);
        let rels = t.rels;
        self.migration_us += now.saturating_since(started);
        self.migration_bytes += bytes;
        // Migration: drop the donor now that the copy is complete — never
        // below `min_copies` holders (a concurrent crash may have shed
        // other copies since the migration started).
        let p = &mut self.placement;
        p.complete_backfill(target, rels);
        let dropped = drop_source
            .filter(|&src| p.holds_group(src, group) && p.holders(group).len() > p.min_copies());
        if let Some(src) = dropped {
            p.remove_holder(group, src);
        }
        self.apply_placement(dropped);
        let kind = match dropped {
            Some(from) => crate::metrics::FaultKind::Migrate {
                group,
                from,
                to: target,
                bytes,
            },
            None => crate::metrics::FaultKind::Rereplicate {
                group,
                to: target,
                bytes,
            },
        };
        self.metrics.record_fault(now, kind);
        self.tracer.emit(
            now,
            TraceData::BackfillDone {
                task,
                group,
                to: target,
                bytes,
            },
        );
    }

    /// Periodic skew check: when the busiest holder of the hottest group is
    /// sufficiently more loaded than the idlest live non-holder, migrate
    /// the group there — capped backfill onto the target, donor dropped at
    /// completion. Single-flight: at most one backfill runs at a time, so
    /// copy traffic stays bounded by the cap.
    fn on_rebalance_tick(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        let Some(period) = self.config.migration_period else {
            return;
        };
        queue.schedule(now + period.as_micros(), Ev::RebalanceTick);
        if self.backfills.iter().any(|t| !t.done && !t.cancelled) {
            self.tracer
                .emit(now, TraceData::Rebalance { migration: None });
            return;
        }
        let Some((hot, src, dst, rels)) = self.pick_migration() else {
            self.tracer
                .emit(now, TraceData::Rebalance { migration: None });
            return;
        };
        self.tracer.emit(
            now,
            TraceData::Rebalance {
                migration: Some((hot, src, dst)),
            },
        );
        self.widen_holder(hot, dst, rels);
        self.start_backfill(now, hot, dst, rels, Some(src), queue);
        // Restart the skew window so the next tick judges post-migration
        // traffic, not the history that triggered this move.
        for l in &mut self.group_load {
            *l = 0;
        }
    }

    /// Chooses the migration for this rebalance round: hottest group by
    /// dispatch count, donor = its busiest live holder, target = idlest
    /// live non-holder, all ties to the lowest id. Returns `None` when
    /// there is no skew signal, no candidate pair (a full map has no
    /// non-holder), or the imbalance is within the hysteresis band.
    fn pick_migration(&self) -> Option<(usize, usize, usize, RelationSet)> {
        let p = &self.placement;
        let (hot, load) = self
            .group_load
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
        if load == 0 {
            return None;
        }
        let loads = self.balancer.inner().loads();
        let live = |r: &usize| self.nodes[*r].is_up();
        let src = p.holders(hot).iter().copied().filter(live).max_by(|a, b| {
            loads[*a]
                .bottleneck()
                .total_cmp(&loads[*b].bottleneck())
                .then(b.cmp(a))
        })?;
        let dst = (0..self.config.replicas)
            .filter(|r| live(r) && !p.holds_group(*r, hot))
            .min_by(|a, b| {
                loads[*a]
                    .bottleneck()
                    .total_cmp(&loads[*b].bottleneck())
                    .then(a.cmp(b))
            })?;
        if loads[src].bottleneck() < loads[dst].bottleneck() + MIGRATION_MIN_IMBALANCE {
            return None;
        }
        Some((hot, src, dst, p.missing_relations(dst, hot)))
    }

    /// Recovers a crashed replica: the durable prefix (its applied version)
    /// survived, so §3 standard recovery replays only the writesets it
    /// missed from the certifier's persistent log — paying cold-cache page
    /// reads — then the replica rejoins dispatch.
    fn on_replica_recover(&mut self, now: SimTime, replica: usize, queue: &mut EventQueue<Ev>) {
        if self.node(replica).is_up() {
            return;
        }
        if self.detection_on() {
            // The restarted proxy resets the connections its crash lost. A
            // replica suspected before it recovered was swept then and has
            // none left; one that recovers first would otherwise strand
            // those clients, since the suspicion sweep never comes.
            self.sweep_suspected(now, replica, queue);
        }
        self.node_mut(replica).mark_recovered();
        // Checkpoint-lag crash model: the durable on-disk state is a
        // checkpoint `k` versions behind what the replica had applied when
        // it died, so the replay window covers that redo prefix *plus*
        // whatever committed while it was down.
        let k = self.config.checkpoint_lag;
        let from = Version(self.node(replica).applied().0.saturating_sub(k));
        if k > 0 {
            self.node_mut(replica).replica_mut().recover(from);
            let head = self.certifier.version();
            self.tracer.emit(
                now,
                TraceData::RedoStart {
                    replica,
                    from: from.0,
                    head: head.0,
                },
            );
        }
        // The replay's CPU and disk work is charged through the node's
        // queueing models at `now`, so transactions dispatched to the
        // rejoining replica queue behind it — the completion time itself
        // needs no separate event. Under partial replication the replay
        // carries pages only for held groups (the rest are version ticks).
        let (sent0, _) = self.certifier.propagation_bytes();
        let replay_done = {
            let node = &mut self.nodes[replica];
            self.certifier.catch_up(now, node, &self.placement)
        };
        let (sent1, _) = self.certifier.propagation_bytes();
        let bytes = sent1.saturating_sub(sent0);
        let us = replay_done.saturating_since(now);
        self.redo_bytes += bytes;
        self.redo_us += us;
        if k > 0 {
            self.tracer
                .emit(now, TraceData::RedoDone { replica, bytes, us });
        }
        self.record_fault(now, now, FaultKind::ReplicaRecover(replica), || {
            format!("recover replica={replica}")
        });
        if self.detection_on() {
            // The replica does not answer heartbeats until the replay
            // drains; dispatch eligibility and the over-replication shrink
            // follow at the detector's *Trusted* transition, never from
            // oracle knowledge.
            self.recovering_until[replica] = replay_done;
            return;
        }
        self.balancer.replica_recovered(ReplicaId(replica));
        // The crash-time re-replication widened holder sets to keep
        // `min_copies` *live* copies; this recovery may leave groups
        // over-replicated. Shrink back so placement converges instead of
        // ratcheting wider with every crash/recover cycle.
        self.shrink_over_replicated(now);
    }

    /// Drops surplus holders until every group is back at exactly
    /// `min_copies` copies. Victims are chosen deterministically: first a
    /// holder whose backfill is still in flight (the copy is cancelled —
    /// cheaper to abandon than to finish), then crashed holders (their
    /// pages are stale until replay anyway), then the live holder with the
    /// most placed pages; ties to the highest id. Dropping a holder only
    /// narrows its update filter — no transaction state is touched, so the
    /// shrink can never abort anything.
    fn shrink_over_replicated(&mut self, now: SimTime) {
        if self.placement.is_full() {
            return;
        }
        let min_copies = self.placement.min_copies();
        for g in 0..self.placement.group_count() {
            while self.placement.holders(g).len() > min_copies {
                let pending_task = self
                    .backfills
                    .iter()
                    .position(|t| t.group == g && !t.done && !t.cancelled);
                let victim = match pending_task {
                    Some(task) => {
                        let t = &mut self.backfills[task];
                        t.cancelled = true;
                        self.placement.complete_backfill(t.target, t.rels);
                        t.target
                    }
                    None => {
                        let p = &self.placement;
                        let live_holders = p
                            .holders(g)
                            .iter()
                            .filter(|r| self.nodes[**r].is_up())
                            .count();
                        p.holders(g)
                            .iter()
                            .copied()
                            .filter(|r| {
                                let up = self.nodes[*r].is_up();
                                // Never shed a live copy if that would
                                // leave fewer than `min_copies` live.
                                !up || live_holders > min_copies
                            })
                            .max_by_key(|r| {
                                let up = self.nodes[*r].is_up();
                                (!up, p.held_pages(*r), *r)
                            })
                            .expect("over-replicated group has a droppable holder")
                    }
                };
                self.placement.remove_holder(g, victim);
                self.apply_placement([victim]);
                self.record_fault(
                    now,
                    now,
                    FaultKind::ShrinkHolder {
                        group: g,
                        from: victim,
                    },
                    || format!("shrink group={g} holder={victim}"),
                );
            }
        }
    }

    /// One heartbeat round: the balancer pings every replica, the probe
    /// pairs occupy the control-side NIC, and the answers feed the
    /// per-replica accrual counters. The resulting transitions — and only
    /// they — change dispatch eligibility, retry in-flight work, trigger
    /// re-replication, or restore trust.
    fn on_heartbeat_tick(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        let period = self.config.heartbeat_period_us;
        if period == 0 {
            return;
        }
        let n = self.config.replicas;
        // The round's ping/ack pairs serialize on the control-side NIC:
        // certification requests arriving behind them wait — detection is
        // cheap, not free.
        self.certifier.occupy_nic(now, n as u64);
        let reachable: Vec<bool> = (0..n)
            .map(|r| {
                self.node(r).is_up()
                    && !self.partitioned(CONTROL_NODE, r)
                    && now >= self.recovering_until[r]
            })
            .collect();
        for tr in self.balancer.observe_heartbeats(&reachable) {
            self.apply_health_transition(now, tr, queue);
        }
        queue.schedule(now + period, Ev::HeartbeatTick);
    }

    /// Applies one detector transition's cluster-side consequences.
    fn apply_health_transition(
        &mut self,
        now: SimTime,
        tr: HealthTransition,
        queue: &mut EventQueue<Ev>,
    ) {
        match tr {
            HealthTransition::Miss { replica, misses } => {
                self.tracer
                    .emit(now, TraceData::HeartbeatMiss { replica, misses });
            }
            HealthTransition::Suspected { replica, misses } => {
                let injected = self.fault_started[replica].unwrap_or(now);
                self.metrics.record_fault_detected(
                    now,
                    injected,
                    FaultKind::ReplicaSuspected(replica),
                );
                self.tracer
                    .emit(now, TraceData::Suspect { replica, misses });
                // Out of dispatch and MALB eligibility; in-flight work
                // retries on survivors. Re-replication waits for *Dead* —
                // a false suspicion must cost a filter-widen, not a copy.
                self.balancer.replica_failed(ReplicaId(replica));
                self.sweep_suspected(now, replica, queue);
            }
            HealthTransition::Dead { replica } => {
                let injected = self.fault_started[replica].unwrap_or(now);
                self.record_fault(now, injected, FaultKind::ReplicaDead(replica), || {
                    format!("dead replica={replica}")
                });
                self.cancel_backfills_targeting(replica);
                self.rereplicate_under_copied(now, replica, queue);
            }
            HealthTransition::Trusted { replica, was_dead } => {
                let injected = self.fault_started[replica].unwrap_or(now);
                self.fault_started[replica] = None;
                self.metrics.record_fault_detected(
                    now,
                    injected,
                    FaultKind::ReplicaTrusted(replica),
                );
                self.tracer.emit(now, TraceData::Unsuspect { replica });
                // The cheap rejoin: dispatch eligibility back on. Only a
                // wrongly-declared death needs placement work — shrinking
                // whatever re-replication over-copied.
                self.balancer.replica_recovered(ReplicaId(replica));
                if was_dead {
                    self.shrink_over_replicated(now);
                }
            }
        }
    }

    /// Retries a replica's in-flight transactions on survivors, at its
    /// *Suspected* transition (or at its recovery, when that comes first)
    /// or, with the detector off, at its crash.
    /// Requests a client timeout already abandoned were retried then and
    /// keep their one retry. A merely-unreachable (still up) replica may
    /// still be running them: those metas are kept as *abandoned* so the
    /// stale completions free their Gatekeeper slots; a physically dead
    /// replica's metas are dropped outright.
    fn sweep_suspected(&mut self, now: SimTime, replica: usize, queue: &mut EventQueue<Ev>) {
        let up = self.node(replica).is_up();
        let mut orphans: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, meta)| meta.replica == replica && !meta.abandoned)
            .map(|(txn, _)| *txn)
            .collect();
        orphans.sort_unstable();
        for txn in orphans {
            let (client, txn_type, arrived, retries) = {
                let meta = self.txns.get_mut(&txn).expect("swept meta present");
                meta.abandoned = true;
                (meta.client, meta.txn_type, meta.arrived, meta.retries)
            };
            if !up {
                self.txns.remove(&txn);
            }
            self.balancer.complete(ReplicaId(replica));
            if retries < self.clients.max_retries {
                self.submit_txn(now, client, txn_type, arrived, retries + 1, queue);
            } else {
                self.metrics.record_gave_up();
                self.tracer
                    .emit(now, TraceData::GaveUp { txn: txn.0, client });
                self.schedule_next_arrival(now, client, queue);
            }
        }
        if !up {
            // Previously-abandoned metas (client timeouts) on a dead node
            // can never complete — drop them too. Pure map cleanup, no
            // side effects, so iteration order is immaterial.
            let stale: Vec<TxnId> = self
                .txns
                .iter()
                .filter(|(_, meta)| meta.replica == replica)
                .map(|(txn, _)| *txn)
                .collect();
            for txn in stale {
                self.txns.remove(&txn);
            }
        }
    }

    /// Re-replicates every group the dead `replica` holds that has fallen
    /// below `min_copies` believed-live holders (clamped by the number of
    /// believed-live replicas) — at its *Dead* transition, deferred from
    /// suspicion so a false suspicion never ships a byte, or at its crash
    /// with the detector off.
    fn rereplicate_under_copied(
        &mut self,
        now: SimTime,
        replica: usize,
        queue: &mut EventQueue<Ev>,
    ) {
        let affected: Vec<usize> = (0..self.placement.group_count())
            .filter(|g| self.placement.holds_group(replica, *g))
            .collect();
        let live = (0..self.config.replicas)
            .filter(|r| self.believed_live(*r))
            .count();
        let target = self.placement.min_copies().min(live);
        for g in affected {
            loop {
                let live_holders = self
                    .placement
                    .holders(g)
                    .iter()
                    .filter(|r| self.believed_live(**r))
                    .count();
                if live_holders >= target || self.rereplicate_group(now, g, queue).is_none() {
                    break;
                }
            }
        }
    }

    /// Installs a partition between `a` and `b`: messages between them drop
    /// until `heal_at`. Partitioning a replica against [`CONTROL_NODE`]
    /// severs it from heartbeats, certification, and propagation without
    /// killing it — the false-suspicion injection.
    fn on_link_partition(
        &mut self,
        now: SimTime,
        a: usize,
        b: usize,
        heal_at: SimTime,
        queue: &mut EventQueue<Ev>,
    ) {
        let pair = (a.min(b), a.max(b));
        if !self.partitions.contains(&pair) {
            self.partitions.push(pair);
            // The fault clock detection latency is measured from starts
            // the moment a replica loses its control link (`CONTROL_NODE`
            // is `usize::MAX`, so it always normalizes to `pair.1`).
            if pair.1 == CONTROL_NODE
                && pair.0 < self.config.replicas
                && self.fault_started[pair.0].is_none()
            {
                self.fault_started[pair.0] = Some(now);
            }
            self.record_fault(
                now,
                now,
                FaultKind::Partition {
                    a: pair.0,
                    b: pair.1,
                },
                || {
                    format!(
                        "partition {}<->{}",
                        endpoint_name(pair.0),
                        endpoint_name(pair.1)
                    )
                },
            );
        }
        queue.schedule(heal_at, Ev::LinkHeal { a, b });
    }

    /// Removes a partition; traffic between the pair flows again. Trust is
    /// *not* restored here — the detector re-trusts the replica only once
    /// heartbeats actually answer again.
    fn on_link_heal(&mut self, now: SimTime, a: usize, b: usize) {
        let pair = (a.min(b), a.max(b));
        if let Some(i) = self.partitions.iter().position(|p| *p == pair) {
            self.partitions.remove(i);
            self.record_fault(
                now,
                now,
                FaultKind::PartitionHealed {
                    a: pair.0,
                    b: pair.1,
                },
                || format!("heal {}<->{}", endpoint_name(pair.0), endpoint_name(pair.1)),
            );
        }
    }

    /// The client stopped waiting for `txn`: release its balancer
    /// connection, mark the meta abandoned (the transaction may still be
    /// running — its eventual completion then only frees the slot), and
    /// retry with capped exponential backoff.
    fn on_client_timeout(&mut self, now: SimTime, txn: TxnId, queue: &mut EventQueue<Ev>) {
        let Some(meta) = self.txns.get_mut(&txn) else {
            return; // Completed (or swept away) before the timeout fired.
        };
        if meta.abandoned {
            return; // Already rescued by the suspicion sweep.
        }
        meta.abandoned = true;
        let meta = *meta;
        self.balancer.complete(ReplicaId(meta.replica));
        self.retry_or_give_up(now, txn, &meta, now, self.backoff_us(meta.retries), queue);
    }

    /// Answers a client whose request `txn` failed; the answer reaches it
    /// at `reply_at`. With retries left, the client retries `backoff_us`
    /// later; out of retries, it gives up and thinks before its next
    /// request.
    fn retry_or_give_up(
        &mut self,
        now: SimTime,
        txn: TxnId,
        meta: &TxnMeta,
        reply_at: SimTime,
        backoff_us: u64,
        queue: &mut EventQueue<Ev>,
    ) {
        if meta.retries < self.clients.max_retries {
            queue.schedule(
                reply_at + backoff_us,
                Ev::TxnRetry {
                    client: meta.client,
                    txn_type: meta.txn_type,
                    arrived: meta.arrived,
                    retries: meta.retries + 1,
                },
            );
        } else {
            self.metrics.record_gave_up();
            self.tracer.emit(
                now,
                TraceData::GaveUp {
                    txn: txn.0,
                    client: meta.client,
                },
            );
            self.schedule_next_arrival(reply_at, meta.client, queue);
        }
    }

    fn on_client_arrive(&mut self, now: SimTime, client: usize, queue: &mut EventQueue<Ev>) {
        let txn_type = self
            .clients
            .next_type(&self.mixes[self.active_mix], &mut self.rng);
        self.submit_txn(now, client, txn_type, now, 0, queue);
    }

    /// Commit: apply remote writesets then finish; conflict: abort and let
    /// the completion path retry.
    fn on_certify_return(
        &mut self,
        now: SimTime,
        replica: usize,
        txn: TxnId,
        version: Option<Version>,
        queue: &mut EventQueue<Ev>,
    ) {
        if !self.txns.contains_key(&txn) {
            // Orphaned by a crash on the origin replica: the client already
            // retried elsewhere. A commit still exists in the certifier's
            // log and reaches the replica through recovery replay or
            // propagation, so the response is simply dropped.
            return;
        }
        if !self.node(replica).is_up() {
            // Detection mode: the origin died after sending — the response
            // has nowhere to land. The meta stays for the suspicion sweep
            // (or the recovery) to retry the client. (With the detector
            // off, a crash removes every meta synchronously, so this is
            // unreachable.)
            return;
        }
        if self.partitioned(replica, CONTROL_NODE) {
            // The response is dropped on the severed link. The replica-side
            // proxy sees the certifier connection break and aborts the
            // waiting transaction locally, freeing the Gatekeeper slot; the
            // commit (if any) reaches the replica later through propagation
            // after heal, and the client is rescued by timeout or sweep.
            self.node_mut(replica).on_finish(now, false, queue);
            if self.txns.get(&txn).is_some_and(|m| m.abandoned) {
                self.txns.remove(&txn);
            }
            return;
        }
        let done_at = match version {
            Some(v) => {
                let node = &mut self.nodes[replica];
                self.certifier
                    .on_return_commit(now, node, v, &self.placement)
            }
            None => {
                let txn_type = self.txns[&txn].txn_type.0;
                self.metrics.record_abort(txn_type);
                now
            }
        };
        queue.schedule(
            done_at,
            Ev::TxnComplete {
                replica,
                txn,
                committed: version.is_some(),
            },
        );
    }

    /// Frees the replica slot, then routes the outcome back to the client.
    /// Either way the response pays the two-hop trip replica → balancer →
    /// client before the client reacts: record + think on commit, a
    /// [`Ev::TxnRetry`] (fresh snapshot, possibly elsewhere) or giving up
    /// on abort. The handler itself touches only `replica`'s node.
    fn on_txn_complete(
        &mut self,
        now: SimTime,
        replica: usize,
        txn: TxnId,
        committed: bool,
        queue: &mut EventQueue<Ev>,
    ) {
        if !self.txns.contains_key(&txn) {
            // Orphaned by a crash: the Gatekeeper slot and the balancer
            // connection were both released in the orphan sweep.
            return;
        }
        if !self.node(replica).is_up() {
            // Detection mode: the node died between scheduling and delivery
            // of this completion — the response died with it. The meta
            // stays; the suspicion sweep retries the client.
            return;
        }
        let meta = self.txns.remove(&txn).expect("presence checked above");
        self.node_mut(replica).on_finish(now, committed, queue);
        if meta.abandoned {
            // The client stopped waiting (timeout or suspicion sweep) and
            // its retry is already in flight elsewhere; the balancer
            // connection was released at abandonment, so only the
            // Gatekeeper slot mattered here.
            return;
        }
        self.balancer.complete(ReplicaId(replica));
        let response_at = now + 2 * LAN_HOP_US;
        self.tracer.emit(
            now,
            TraceData::Complete {
                txn: txn.0,
                replica,
                committed,
                response_us: response_at.saturating_since(meta.arrived),
            },
        );
        if committed {
            self.metrics.record_completion_typed(
                response_at,
                meta.arrived,
                meta.is_update,
                meta.txn_type.0,
            );
            self.schedule_next_arrival(response_at, meta.client, queue);
        } else {
            self.retry_or_give_up(now, txn, &meta, response_at, 0, queue);
        }
    }

    /// Schedules a client's next arrival after its think time.
    fn schedule_next_arrival(&mut self, from: SimTime, client: usize, queue: &mut EventQueue<Ev>) {
        let think = self.clients.think(&mut self.rng);
        queue.schedule(from + think, Ev::ClientArrive { client });
    }

    /// Per-replica periodic work: node maintenance, propagation pull, and
    /// (every fourth 250 ms round) a load-daemon sample for the balancer.
    fn on_maintenance(
        &mut self,
        now: SimTime,
        replica: usize,
        round: u64,
        queue: &mut EventQueue<Ev>,
    ) {
        // A severed control link drops both the propagation pull and the
        // load-daemon report — the node still does its local maintenance.
        let cut = self.partitioned(replica, CONTROL_NODE);
        let node = &mut self.nodes[replica];
        // A crashed replica does no maintenance, but the periodic chain
        // keeps ticking so it resumes seamlessly after recovery.
        if node.is_up() {
            node.on_maintenance(now);
            if !cut {
                self.certifier.maintenance_pull(now, node, &self.placement);
            }
            if round % 4 == 3 && !cut {
                let report = node.sample_load(now);
                self.balancer.report(
                    ReplicaId(replica),
                    ResourceLoad {
                        cpu: report.cpu,
                        disk: report.disk,
                    },
                );
                // Utilization timeline: one sample per replica per 1 s
                // balancer-report round, from the same smoothed load the
                // balancer sees plus the node's queue/memory state and any
                // in-flight backfill traffic targeting it.
                if self.tracer.on() {
                    let backfill_bytes = self
                        .backfills
                        .iter()
                        .filter(|t| t.target == replica && !t.done && !t.cancelled)
                        .map(|t| t.bytes)
                        .sum();
                    self.tracer.emit(
                        now,
                        TraceData::Util {
                            replica,
                            cpu: report.cpu,
                            disk: report.disk,
                            queue: node.replica().outstanding(),
                            resident_bytes: node.replica().resident_bytes(),
                            backfill_bytes,
                        },
                    );
                }
            }
        }
        queue.schedule(
            now + 250_000,
            Ev::Maintenance {
                replica,
                round: round + 1,
            },
        );
    }

    /// Resets the measurement window at the end of warm-up.
    fn on_end_warmup(&mut self, now: SimTime) {
        let (read, write) = self.disk_bytes();
        self.metrics.start_window(now, read, write);
        self.busy0 = self.busy_totals();
        self.prop0 = self.certifier.propagation_bytes();
        self.window_started = now;
    }
}

/// Human-readable partition endpoint for trace descriptions.
fn endpoint_name(n: usize) -> String {
    if n == CONTROL_NODE {
        "ctl".to_string()
    } else {
        n.to_string()
    }
}
