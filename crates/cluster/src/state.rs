//! The assembled cluster state, independent of the event loop.
//!
//! [`ClusterState`] owns the models it drives — one [`ReplicaNode`] per
//! replica, the [`LoadBalancer`], the [`CertifierLink`], the heartbeat
//! [`Detector`] — plus what no model owns: each client's one open request,
//! the experiment RNG, and the [`Metrics`], which own the measurement
//! window. It exposes exactly one mutation entry point,
//! [`ClusterState::handle`], which applies a timestamped [`Ev`] to the
//! models and schedules the consequences into the [`EventQueue`] it is
//! handed.
//!
//! This module holds the transaction and client lifecycle and maintenance.
//! Two lifecycles have child modules, each the only writer of its
//! bookkeeping: `copies` (re-replication, migration, capped backfill, the
//! shrink back to `min_copies`) and `faults` (crashes, recoveries, the
//! detector's rounds and transitions, the suspicion sweep, partitions).
//!
//! The queue lives outside the state: [`ClusterState::run_to_end`], the
//! simulator's one event loop, pops events from the queue it is handed and
//! passes them to `handle` one at a time, and any loop that delivers the
//! same events in the same order observes bit-identical state evolution.
//!
//! Placement and crashes each take one path. Full replication is a
//! [`PlacementMap`] with no relation groups, so dispatch, propagation and
//! failover ask the same map whatever the placement. A crash with the
//! heartbeat detector off applies, at the crash instant, what the
//! detector's *Dead* and *Suspected* transitions apply once heartbeats
//! miss: durability first, then the retries of the replica's in-flight
//! transactions.
//!
//! Every request ends exactly once by construction: only a client's current
//! attempt has client-side effects, and a late event frees a Gatekeeper
//! slot only if the [`ReplicaNode`] that owns it still holds the attempt.

use std::fmt;

use tashkent_certifier::{CertMap, Certifier, CertifierParams};
use tashkent_core::{LoadBalancer, ReconfigAction, ReplicaId, ResourceLoad};
use tashkent_engine::{TxnExecutor, TxnId, TxnTypeId, Version};
use tashkent_replica::{ReplicaNode, StepOutcome, UpdateFilter};
use tashkent_sim::{EventQueue, SimRng, SimTime};
use tashkent_workloads::{Mix, Workload};

use crate::components::{CertifierLink, Detector, ReplicaHealth};
use crate::config::{ClusterConfig, PlacementSpec, PolicySpec, LAN_HOP_US, MIGRATION_PERIOD};
use crate::events::{Ev, CONTROL_NODE};
use crate::metrics::{Counters, FaultKind, GroupSnapshot, Metrics, RunResult};
use crate::placement::{PlacementMap, ReplicationPlanner, TypeGroups};
use crate::trace::{TraceData, Tracer};

mod copies;
mod faults;

use copies::BackfillTask;

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

/// A client's open request, at its latest attempt.
#[derive(Clone, Copy)]
struct TxnMeta {
    /// The latest attempt; each retry is a fresh transaction.
    txn: TxnId,
    client: usize,
    txn_type: TxnTypeId,
    /// First submission time (retries keep the original arrival).
    arrived: SimTime,
    retries: u32,
    is_update: bool,
    /// Replica the attempt was dispatched to — a crash there orphans the
    /// attempt and the client retries elsewhere.
    replica: usize,
}

/// Retries a client makes for one request before it gives up and thinks
/// before its next one.
const MAX_RETRIES: u32 = 10;

/// First client retry backoff; each further retry doubles it, up to
/// [`CLIENT_BACKOFF_CAP_US`]. Read by `ClusterState::backoff_us`.
const CLIENT_BACKOFF_BASE_US: u64 = 100_000;

/// Ceiling on the client retry backoff.
const CLIENT_BACKOFF_CAP_US: u64 = 2_000_000;

const _: () = assert!(CLIENT_BACKOFF_CAP_US >= CLIENT_BACKOFF_BASE_US);

/// Interval between balancer reconfiguration ticks ([`Ev::LbTick`]).
const LB_TICK_US: u64 = 1_000_000;

/// Commits between two scans for the certifier log's trim floor
/// ([`ClusterState::log_floor`]). A scan walks every node's held
/// transactions and the event queue, so one per 1,024 commits costs
/// amortized O(1) per commit, and a floor held back (by a long-running
/// transaction, say) is not rescanned on every commit.
const LOG_TRIM_INTERVAL: u64 = 1_024;

/// The replica nodes, the balancer, the components, and the clients with
/// their open requests — the whole cluster, minus the event loop that
/// drives it.
pub struct ClusterState {
    /// Configuration.
    pub config: ClusterConfig,
    /// The workload (schema + transaction types).
    pub workload: Workload,
    /// Mixes selectable via `MixSwitch` (index 0 active initially).
    pub mixes: Vec<Mix>,
    active_mix: usize,
    nodes: Vec<ReplicaNode>,
    lb: LoadBalancer,
    detector: Detector,
    certifier: CertifierLink,
    rng: SimRng,
    next_txn: u64,
    /// Each client's open request, indexed by client; `None` while the
    /// client thinks or backs off.
    txns: Vec<Option<TxnMeta>>,
    /// Where every relation group lives; [`PlacementMap::full`] (no groups,
    /// everything held everywhere) under full replication. Unless the map
    /// is full, the placement filter is authoritative on every node — it
    /// subsumes §3 update filtering (holder sets are the "keep current"
    /// lists).
    placement: PlacementMap,
    /// Every copy started this run, running and ended (event payloads
    /// index into it, so entries are never removed).
    backfills: Vec<BackfillTask>,
    /// Dispatches per `(relation group, replica)` since the last migration,
    /// at `group * replicas + replica` — the skew signal the rebalancer
    /// acts on. Empty under full replication.
    group_dispatches: Vec<u64>,
    /// Dispatches per replica since the last migration, of every type.
    replica_dispatches: Vec<u64>,
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
    /// Metrics accumulator and measurement window.
    pub metrics: Metrics,
    /// Run tracer (disabled unless the config sets an exporter path). Every
    /// emission happens inside a handler, in exact event pop order, so the
    /// trace is byte-equal across runs of the same seed.
    pub tracer: Tracer,
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
        let lb = config.balancer(estimates.as_ref(), &mixes[0]);
        let nodes: Vec<ReplicaNode> = (0..config.replicas)
            .map(|id| {
                let catalog = workload.catalog.clone();
                ReplicaNode::new(id, catalog, config.replica_config(), rng.fork())
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
        let group_dispatches = vec![0; placement.group_count() * config.replicas];
        let tracer = Tracer::new(&config.trace);
        let metrics = Metrics::with_hist(config.resp_hist_bucket_s, config.resp_hist_buckets);
        let mut state = ClusterState {
            nodes,
            lb,
            detector: Detector::new(config.replicas),
            certifier,
            rng,
            next_txn: 0,
            txns: vec![None; config.clients],
            placement,
            backfills: Vec::new(),
            group_dispatches,
            replica_dispatches: vec![0; config.replicas],
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
            ended: false,
        };
        // A constraining placement installs its filters on the nodes (the
        // "must not receive" tier); the balancer asks the map itself at
        // every dispatch and tick. A full map constrains nothing, so it
        // installs no filter.
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
        queue.schedule(SimTime::from_micros(LB_TICK_US), Ev::LbTick);
        // Skew-driven placement rebalancing only makes sense when placement
        // is actually partial — under full replication (or the degenerate
        // all-holders plan) there is nothing to migrate.
        if self.config.migration && !self.placement.is_full() {
            queue.schedule(MIGRATION_PERIOD, Ev::RebalanceTick);
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

    /// The detector's belief about `replica` (always `Live` with the
    /// detector off).
    pub fn replica_health(&self, replica: usize) -> ReplicaHealth {
        self.detector.health(replica)
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

    /// Runs until the `End` event fires: pops events from `queue` in
    /// `(timestamp, FIFO)` order and hands each to [`Self::handle`], which
    /// schedules its consequences back into the queue.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::QueueDrained`] when the queue empties before
    /// `End` — a mis-scheduled experiment. The state stays inspectable at
    /// the drained point.
    pub fn run_to_end(&mut self, queue: &mut EventQueue<Ev>) -> Result<(), RunError> {
        while !self.ended {
            let Some((now, ev)) = queue.pop() else {
                return Err(RunError::QueueDrained { at: queue.now() });
            };
            self.handle(now, ev, queue);
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
        let cfg = &self.config.trace;
        if let Some(path) = &cfg.jsonl_path {
            std::fs::write(path, self.tracer.export_jsonl())?;
        }
        if let Some(path) = &cfg.chrome_path {
            std::fs::write(path, self.tracer.export_chrome())?;
        }
        Ok(())
    }

    /// The cluster's cumulative counters: disk bytes and busy time summed
    /// over replicas, and the writeset bytes the certifier link shipped and
    /// withheld.
    pub fn counters(&self) -> Counters {
        let (propagated_ws_bytes, filtered_ws_bytes) = self.certifier.propagation_bytes();
        let mut c = Counters {
            propagated_ws_bytes,
            filtered_ws_bytes,
            ..Counters::default()
        };
        for n in &self.nodes {
            let s = n.disk_stats();
            c.read_bytes += s.read_bytes();
            c.write_bytes += s.write_bytes();
            c.cpu_busy_us += n.cpu_busy_us();
            c.disk_busy_us += s.busy_us;
        }
        c
    }

    /// Replica node `idx` (tests and metrics).
    pub fn node(&self, idx: usize) -> &ReplicaNode {
        &self.nodes[idx]
    }

    /// The balancer (tests and metrics).
    pub fn balancer(&self) -> &LoadBalancer {
        &self.lb
    }

    /// The certification engine (tests and metrics).
    pub fn certifier(&self) -> &Certifier {
        &self.certifier.engine
    }

    /// The full certifier link (tests and metrics).
    pub fn cert_link(&self) -> &CertifierLink {
        &self.certifier
    }

    /// Closes the measurement window at `now` into a [`RunResult`], adding
    /// to what the [`Metrics`] recorded the balancer's activity, the
    /// certifier groups' commits, the copy and redo totals, and the trace
    /// summary.
    pub fn finish_result(&self, now: SimTime) -> RunResult {
        let counters = self.counters();
        RunResult {
            lb: self.lb.stats(),
            cert_group_commits: self.certifier().group_commits().to_vec(),
            migration_bytes: self.migration_bytes,
            migration_us: self.migration_us,
            redo_bytes: self.redo_bytes,
            redo_us: self.redo_us,
            trace_summary: self.tracer.summary(),
            ..self
                .metrics
                .finish(now, counters, self.config.replicas, self.group_snapshots())
        }
    }

    /// The placement map ([`PlacementMap::full`] under full replication).
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// Current group → replica assignments with type names resolved.
    pub fn group_snapshots(&self) -> Vec<GroupSnapshot> {
        let loads = self.lb.loads();
        self.lb
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

    /// Applies one event: each arm updates the models it concerns and
    /// schedules what follows.
    ///
    /// The caller delivers events in nondecreasing `(timestamp, FIFO)`
    /// order, as [`EventQueue::pop`] yields them; under that contract the
    /// state evolution is a pure function of the seed.
    pub fn handle(&mut self, now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
        match ev {
            Ev::ClientArrive { client } => self.on_client_arrive(now, client, queue),
            Ev::StepTxn { replica, txn } => self.on_step(now, replica, txn, queue),
            Ev::CertifySend { replica, txn, ws } => {
                if self.partitioned(replica, CONTROL_NODE) {
                    // The writeset never reaches the certifier. The
                    // replica-side proxy sees the connection drop and frees
                    // the Gatekeeper slot, if a crash has not dropped the
                    // transaction (the executor already left at
                    // ReadyToCommit); the client is rescued later by its
                    // timeout or the suspicion sweep.
                    self.release(now, replica, txn, false, queue);
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
                queue.schedule(now + LB_TICK_US, Ev::LbTick);
                // Under partial replication, placement *subsumes* §3 update
                // filtering: the holder sets already are the "keep current"
                // lists with an explicit `min_copies`, and MALB's lists are
                // placement-unaware — derived from its own unit assignment,
                // they may omit relations a replica holds for durability.
                // Narrowing below the held set would silently break the
                // invariant (a live holder dropping its own group's pages),
                // and widening would apply items the certifier never shipped
                // there. The placement filter therefore stays authoritative.
                // A full placement imposes no constraint, so there §3
                // filtering applies unchanged.
                let (mut filters, mut moves) = (0, 0);
                for action in self.lb.tick(now, |t, r| self.placement.eligible(t, r)) {
                    match action {
                        ReconfigAction::Moved { .. } => moves += 1,
                        ReconfigAction::SetFilter { replica, tables } => {
                            filters += 1;
                            let filter = if self.placement.is_full() {
                                tables.map_or_else(UpdateFilter::all, UpdateFilter::Only)
                            } else {
                                self.placement.filter_for(replica.0)
                            };
                            self.nodes[replica.0].set_filter(filter);
                        }
                    }
                }
                self.tracer.emit(now, TraceData::Lb { filters, moves });
            }
            Ev::Rereplicate { group } => {
                self.rereplicate_group(now, group, queue);
            }
            Ev::BackfillChunk { task } => self.on_backfill_chunk(now, task, queue),
            Ev::BackfillDone { task } => self.land_copy(now, task),
            Ev::RebalanceTick => self.on_rebalance_tick(now, queue),
            Ev::MixSwitch { mix } => self.active_mix = mix.min(self.mixes.len() - 1),
            Ev::FreezeLb => self.lb.freeze(),
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
            Ev::ClientTimeout { client, txn } => {
                // Unless the client heard back or was swept first, it stops
                // waiting and retries with capped exponential backoff. The
                // attempt may still run; its completion then only frees the
                // node's Gatekeeper slot.
                if let Some(meta) = self.take_request(client, txn) {
                    let backoff_us = self.backoff_us(meta.retries);
                    self.retry_or_give_up(now, &meta, now, backoff_us, queue);
                }
            }
            Ev::EndWarmup => self.metrics.start_window(now, self.counters()),
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
        self.certifier.engine.trim(floor);
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
    ///   crash may drop its transaction) or a request parked in
    ///   queue-and-wait;
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
        let running = self.nodes.iter().filter_map(ReplicaNode::oldest_snapshot);
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

    /// Dispatches a new attempt of `client`'s request into the client's
    /// slot, which must be empty: the balancer picks the replica, the node
    /// admits or queues it, and an admitted attempt takes its first step
    /// two LAN hops out (client → balancer → replica).
    fn submit_txn(
        &mut self,
        now: SimTime,
        client: usize,
        txn_type: TxnTypeId,
        arrived: SimTime,
        retries: u32,
        queue: &mut EventQueue<Ev>,
    ) {
        assert!(
            self.txns[client].is_none(),
            "client {client} submitted with a request open"
        );
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
        let replica = self
            .lb
            .dispatch(txn_type, |t, r| self.placement.eligible(t, r))
            .0;
        self.tracer.emit(
            now,
            TraceData::Dispatch {
                txn: txn.0,
                replica,
            },
        );
        let meta = TxnMeta {
            txn,
            client,
            txn_type,
            arrived,
            retries,
            is_update: self.workload.types[txn_type.0 as usize].plan.is_update(),
            replica,
        };
        // With the detector on, the balancer may still dispatch to a
        // physically dead replica it has not suspected yet — the oracle
        // never tells it. The TCP connect is refused after one round trip
        // and the client retries with capped exponential backoff, which is
        // what bridges the detection window without a storm.
        if self.detection_on() && !self.nodes[replica].is_up() {
            self.lb.complete(ReplicaId(replica));
            let refused_at = now + 2 * LAN_HOP_US;
            self.retry_or_give_up(now, &meta, refused_at, self.backoff_us(retries), queue);
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
            // Skew signal for the rebalancer: dispatches per group and
            // replica since the last migration.
            self.group_dispatches[g * self.config.replicas + replica] += 1;
        }
        self.replica_dispatches[replica] += 1;
        let plan = self.workload.types[txn_type.0 as usize].plan.clone();
        let node = &mut self.nodes[replica];
        debug_assert!(node.is_up(), "balancer dispatched to a crashed replica");
        let executor = TxnExecutor::new(txn, txn_type, plan, node.snapshot());
        self.txns[client] = Some(meta);
        if node.submit(client, executor) {
            queue.schedule(now + 2 * LAN_HOP_US, Ev::StepTxn { replica, txn });
        }
        if self.config.client_timeout_us > 0 {
            queue.schedule(
                now + self.config.client_timeout_us,
                Ev::ClientTimeout { client, txn },
            );
        }
    }

    /// Advances `txn` on `replica` by one quantum, traces the step, and
    /// schedules what follows: another step, local completion, or the
    /// certifier round-trip. A *stale* step — one whose transaction a crash
    /// dropped while its step event was already queued — does nothing.
    fn on_step(&mut self, now: SimTime, replica: usize, txn: TxnId, queue: &mut EventQueue<Ev>) {
        let Some(step) = self.nodes[replica].step(txn, now) else {
            return;
        };
        let (outcome, ws_bytes, at, ev) = match step {
            StepOutcome::Busy(t) => ("exec", 0, t, Ev::StepTxn { replica, txn }),
            StepOutcome::Done(t) => (
                "done",
                0,
                t,
                Ev::TxnComplete {
                    replica,
                    txn,
                    committed: true,
                },
            ),
            StepOutcome::ReadyToCommit(t, ws) => (
                "cert",
                ws.bytes(),
                t + LAN_HOP_US,
                Ev::CertifySend { replica, txn, ws },
            ),
        };
        self.tracer.emit(
            now,
            TraceData::Step {
                txn: txn.0,
                replica,
                outcome,
                next_at: at.as_micros(),
                ws_bytes,
            },
        );
        queue.schedule(at, ev);
    }

    /// Frees `txn`'s Gatekeeper slot on `replica` after its outcome, or
    /// after the proxy lost its certifier connection, and returns its
    /// client; a queued transaction admitted in its place steps at once. A
    /// transaction the node does not hold (a crash dropped it) frees
    /// nothing.
    fn release(
        &mut self,
        now: SimTime,
        replica: usize,
        txn: TxnId,
        committed: bool,
        queue: &mut EventQueue<Ev>,
    ) -> Option<usize> {
        let (client, next) = self.nodes[replica].release(txn, committed)?;
        if let Some(next) = next {
            queue.schedule(now, Ev::StepTxn { replica, txn: next });
        }
        Some(client)
    }

    /// Takes `client`'s open request if `txn` is its latest attempt and
    /// closes the client's balancer connection; `None` when the client no
    /// longer waits on `txn` (a timeout or the sweep already took it).
    fn take_request(&mut self, client: usize, txn: TxnId) -> Option<TxnMeta> {
        let meta = self.txns[client].take_if(|meta| meta.txn == txn)?;
        self.lb.complete(ReplicaId(meta.replica));
        Some(meta)
    }

    /// Answers a client whose attempt `meta` failed; the answer reaches it
    /// at `reply_at`. With retries left, the client retries `backoff_us`
    /// later; out of retries, it gives up.
    fn retry_or_give_up(
        &mut self,
        now: SimTime,
        meta: &TxnMeta,
        reply_at: SimTime,
        backoff_us: u64,
        queue: &mut EventQueue<Ev>,
    ) {
        if meta.retries < MAX_RETRIES {
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
            self.give_up(now, meta, reply_at, queue);
        }
    }

    /// The client of `meta` gives up on its request, hears so at
    /// `reply_at`, and thinks before its next one.
    fn give_up(
        &mut self,
        now: SimTime,
        meta: &TxnMeta,
        reply_at: SimTime,
        queue: &mut EventQueue<Ev>,
    ) {
        self.metrics.record_gave_up();
        self.tracer.emit(
            now,
            TraceData::GaveUp {
                txn: meta.txn.0,
                client: meta.client,
            },
        );
        self.schedule_next_arrival(reply_at, meta.client, queue);
    }

    fn on_client_arrive(&mut self, now: SimTime, client: usize, queue: &mut EventQueue<Ev>) {
        let txn_type = self.mixes[self.active_mix].pick(&mut self.rng);
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
        let Some(txn_type) = self.nodes[replica].held(txn) else {
            // A crash on the origin replica dropped the transaction: the
            // response has nowhere to land, and the suspicion sweep (or the
            // recovery, or the client's timeout) answers the client. A
            // commit still exists in the certifier's log and reaches the
            // replica through recovery replay or propagation.
            return;
        };
        if self.partitioned(replica, CONTROL_NODE) {
            // The response is dropped on the severed link. The replica-side
            // proxy sees the certifier connection break and aborts the
            // waiting transaction locally, freeing the Gatekeeper slot; the
            // commit (if any) reaches the replica later through propagation
            // after heal, and the client is rescued by timeout or sweep.
            self.release(now, replica, txn, false, queue);
            return;
        }
        let done_at = match version {
            Some(v) => {
                let node = &mut self.nodes[replica];
                self.certifier
                    .on_return_commit(now, node, v, &self.placement)
            }
            None => {
                self.metrics.record_abort(txn_type.0);
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
        // A transaction the node no longer holds died in a crash, and its
        // response with it; the sweep answers the client.
        let Some(client) = self.release(now, replica, txn, committed, queue) else {
            return;
        };
        // A client that stopped waiting (timeout or suspicion sweep) has
        // its retry in flight already: only the Gatekeeper slot mattered.
        let Some(meta) = self.take_request(client, txn) else {
            return;
        };
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
            self.retry_or_give_up(now, &meta, response_at, 0, queue);
        }
    }

    /// Schedules a client's next arrival after its think time.
    fn schedule_next_arrival(&mut self, from: SimTime, client: usize, queue: &mut EventQueue<Ev>) {
        let think = self.rng.exp_micros(self.config.think_mean_us);
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
            node.maintenance(now);
            if !cut {
                self.certifier.maintenance_pull(now, node, &self.placement);
            }
            if round % 4 == 3 && !cut {
                let report = node.sample_load(now);
                self.lb.report(
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
                    let backfill_bytes = self.running_copy_bytes(replica);
                    let node = &self.nodes[replica];
                    self.tracer.emit(
                        now,
                        TraceData::Util {
                            replica,
                            cpu: report.cpu,
                            disk: report.disk,
                            queue: node.outstanding(),
                            resident_bytes: node.resident_bytes(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use tashkent_workloads::tpcw::{self, TpcwScale};

    /// Two replicas and six clients on the TPC-W ordering mix, warm until
    /// `warmup` seconds and ending at `total`.
    fn tiny(policy: PolicySpec, warmup: u64, total: u64) -> Experiment {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let config = ClusterConfig {
            replicas: 2,
            clients: 6,
            think_mean_us: 200_000,
            ..ClusterConfig::paper_default()
        }
        .with_policy(policy);
        Experiment::new(config, workload, mix).with_window(warmup, total - warmup)
    }

    /// Runs `exp` to its end and returns the state with the end time.
    fn run_keeping_state(exp: Experiment) -> (ClusterState, SimTime) {
        let (mut state, mut queue) = exp.build();
        state.run_to_end(&mut queue).expect("End event scheduled");
        (state, queue.now())
    }

    #[test]
    fn transactions_flow_end_to_end() {
        let (state, now) = run_keeping_state(tiny(PolicySpec::LeastConnections, 2, 20));
        let r = state.finish_result(now);
        assert!(r.committed > 10, "committed {}", r.committed);
        assert!(r.tps > 0.5, "tps {}", r.tps);
        assert!(r.mean_response_s > 0.0);
    }

    #[test]
    fn updates_propagate_to_all_replicas() {
        let (state, _) = run_keeping_state(tiny(PolicySpec::LeastConnections, 2, 30));
        let head = state.certifier().version();
        assert!(head.0 > 0, "some updates committed");
        for i in 0..2 {
            let lag = head.0 - state.node(i).applied().0;
            assert!(lag <= 30, "replica {i} lags {lag} commits");
        }
    }

    #[test]
    fn malb_run_assigns_groups() {
        let (state, now) = run_keeping_state(tiny(PolicySpec::malb_sc(), 2, 20));
        let snaps = state.group_snapshots();
        assert!(!snaps.is_empty());
        let types: usize = snaps.iter().map(|g| g.types.len()).sum();
        assert_eq!(types, 13, "all 13 TPC-W types grouped");
        assert!(state.finish_result(now).committed > 10);
    }

    fn run_fingerprint() -> (u64, u64, u64, u64) {
        let (state, now) = run_keeping_state(tiny(PolicySpec::LeastConnections, 2, 15));
        let c = state.counters();
        let r = state.finish_result(now);
        (r.committed, r.aborts, c.read_bytes, c.write_bytes)
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
    fn in_memory_tracer_records_and_exports_no_file() {
        let (mut state, mut queue) = tiny(PolicySpec::LeastConnections, 1, 3).build();
        state.tracer = Tracer::in_memory(1 << 16);
        state.run_to_end(&mut queue).expect("End event scheduled");
        assert!(state
            .tracer
            .events()
            .any(|e| e.data.kind_name() == "complete"));
        let summary = state.finish_result(queue.now()).trace_summary;
        assert!(summary.is_some_and(|s| s.emitted > 0 && s.dropped == 0));
        // The config names no exporter, so exporting writes nothing.
        assert!(!state.config.trace.enabled());
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(".")
                .expect("working directory is readable")
                .map(|e| e.expect("directory entry").file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing();
        state.export_traces().expect("nothing to write");
        assert_eq!(listing(), before);
    }

    #[test]
    fn drained_queue_is_an_error_not_a_panic() {
        let exp = tiny(PolicySpec::LeastConnections, 2, 20);
        let mut state = ClusterState::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
        // No priming, no End event: one lone event, then the queue drains.
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::from_secs(1), Ev::FreezeLb);
        let err = state.run_to_end(&mut queue).unwrap_err();
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
        let exp = tiny(PolicySpec::LeastConnections, 1, 30);
        let (_, browsing) = tpcw::workload_with_mix(TpcwScale::Small, "browsing");
        let ordering = exp.phases[0].1.clone();
        let (state, now) = run_keeping_state(Experiment {
            phases: vec![(10, ordering), (20, browsing)],
            ..exp
        });
        // After the switch to read-only-ish browsing, update volume is low:
        // the certifier version grows far slower than completions.
        let r = state.finish_result(now);
        assert!(r.committed > 0);
        assert!(
            (r.updates as f64) < 0.45 * r.committed as f64,
            "updates {} of {}",
            r.updates,
            r.committed
        );
    }
}
