//! A replica node wired into the cluster event loop.

use std::sync::Arc;

use tashkent_engine::{Snapshot, TxnExecutor, TxnId, Version};
use tashkent_replica::{LoadReport, ReplicaNode, StepOutcome, UpdateFilter};
use tashkent_sim::{EventQueue, SimTime};
use tashkent_storage::RelationSet;

use crate::events::Ev;
use crate::placement::CertMap;
use crate::trace::{TraceData, TraceEvent};

/// Wraps a [`ReplicaNode`] with its cluster identity and network position,
/// translating execution outcomes into scheduled events.
pub struct ClusterNode {
    id: usize,
    node: ReplicaNode,
    lan_hop_us: u64,
    up: bool,
    /// Under sharded certification, the relation→group map used to stamp
    /// each outgoing [`Ev::CertifySend`] with its touched-group bitmask.
    /// `None` under unified certification (mask 0).
    cert_map: Option<Arc<CertMap>>,
    /// Whether step events are recorded into `trace_buf`.
    trace_on: bool,
    /// Step trace events buffered node-side. Under the parallel driver the
    /// node is owned by a worker thread for the window, so `step_child`
    /// cannot reach the coordinator's `Tracer`; it buffers here and the
    /// driver replays the buffer at the step's exact sequential pop slot
    /// (the sequential driver drains it immediately after each step).
    trace_buf: Vec<TraceEvent>,
}

impl ClusterNode {
    /// Wraps `node` as replica `id`, `lan_hop_us` away from every other
    /// component.
    pub fn new(id: usize, node: ReplicaNode, lan_hop_us: u64) -> Self {
        ClusterNode {
            id,
            node,
            lan_hop_us,
            up: true,
            cert_map: None,
            trace_on: false,
            trace_buf: Vec::new(),
        }
    }

    /// Enables or disables step-event tracing on this node.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace_on = on;
    }

    /// Takes the buffered step trace events (empty when tracing is off —
    /// `std::mem::take` of an empty `Vec` does not allocate).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace_buf)
    }

    /// Installs the certification map (sharded mode); subsequent
    /// certification requests carry its group bitmask.
    pub fn set_cert_map(&mut self, map: Arc<CertMap>) {
        self.cert_map = Some(map);
    }

    /// Replica index within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the replica is serving (not crashed).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crashes the replica: cold cache, in-flight work dropped, admission
    /// queue drained. The cluster state sweeps its own transaction metadata
    /// for orphans (the node's running set misses transactions awaiting
    /// certification), so the dropped list is discarded here.
    pub fn crash(&mut self) {
        self.up = false;
        self.node.crash();
    }

    /// Marks the replica up again. The durable prefix (its applied version)
    /// survives the crash; the caller replays the certifier log from there
    /// — the cache stays cold either way.
    pub fn mark_recovered(&mut self) {
        self.up = true;
    }

    /// The wrapped replica (tests and metrics).
    pub fn replica(&self) -> &ReplicaNode {
        &self.node
    }

    /// Mutable access for failure injection and recovery drivers.
    pub fn replica_mut(&mut self) -> &mut ReplicaNode {
        &mut self.node
    }

    /// A fresh transaction snapshot at the replica's applied version.
    pub fn snapshot(&self) -> Snapshot {
        self.node.snapshot()
    }

    /// Latest version applied on this replica.
    pub fn applied(&self) -> Version {
        self.node.applied()
    }

    /// Applies remote writesets; returns the completion time.
    pub fn apply_writesets(
        &mut self,
        now: SimTime,
        writesets: tashkent_certifier::LogView<'_>,
    ) -> SimTime {
        self.node.apply_writesets(now, writesets)
    }

    /// Commits a locally-executed update at `version`.
    pub fn commit_local(&mut self, version: Version) {
        self.node.commit_local(version)
    }

    /// Re-replication backfill (partial replication): re-applies the log
    /// items touching `rels` so this replica can join their holder set;
    /// returns the completion time.
    pub fn backfill_writesets(
        &mut self,
        now: SimTime,
        writesets: tashkent_certifier::LogView<'_>,
        rels: RelationSet,
    ) -> SimTime {
        self.node.backfill_writesets(now, writesets, rels)
    }

    /// Installs an update filter (from the balancer's reconfiguration).
    pub fn set_filter(&mut self, filter: UpdateFilter) {
        self.node.set_filter(filter)
    }

    /// Offers a transaction to the Gatekeeper; when admitted, schedules its
    /// first execution step two LAN hops out (client → balancer → replica).
    pub fn submit(
        &mut self,
        now: SimTime,
        txn: TxnId,
        executor: TxnExecutor,
        queue: &mut EventQueue<Ev>,
    ) {
        debug_assert!(self.up, "balancer dispatched to a crashed replica");
        if self.node.submit(executor) {
            queue.schedule(
                now + 2 * self.lan_hop_us,
                Ev::StepTxn {
                    replica: self.id,
                    txn,
                },
            );
        }
        // If queued, the Gatekeeper will admit it when a slot frees.
    }

    /// Advances a transaction by one quantum and schedules what follows:
    /// another step, local completion, or the certifier round-trip. Stale
    /// steps (transactions a crash dropped) schedule nothing.
    pub fn on_step(&mut self, now: SimTime, txn: TxnId, queue: &mut EventQueue<Ev>) {
        if let Some((at, ev)) = self.step_child(now, txn) {
            queue.schedule(at, ev);
        }
    }

    /// Advances a transaction by one quantum and returns the single
    /// follow-up event instead of scheduling it, or `None` for a *stale*
    /// step — one whose transaction a crash dropped (its step event was
    /// already queued when the replica went down).
    ///
    /// This is the queue-free core of [`ClusterNode::on_step`]: the parallel
    /// driver runs it on worker threads (each worker owns the node for the
    /// window) and merges the produced event streams back into the shared
    /// queue deterministically. Returning `None` for stale steps keeps the
    /// method total, so both drivers skip them identically.
    pub fn step_child(&mut self, now: SimTime, txn: TxnId) -> Option<(SimTime, Ev)> {
        if !self.node.is_running(txn) {
            return None;
        }
        let replica = self.id;
        let (outcome, ws_bytes, child) = match self.node.step(txn, now) {
            StepOutcome::Busy(t) => ("exec", 0, (t, Ev::StepTxn { replica, txn })),
            StepOutcome::Done(t) => (
                "done",
                0,
                (
                    t,
                    Ev::TxnComplete {
                        replica,
                        txn,
                        committed: true,
                    },
                ),
            ),
            StepOutcome::ReadyToCommit(t, ws) => {
                let groups = self.cert_map.as_ref().map_or(0, |m| m.mask_for(&ws));
                let bytes = ws.bytes();
                (
                    "cert",
                    bytes,
                    (
                        t + self.lan_hop_us,
                        Ev::CertifySend {
                            replica,
                            txn,
                            ws,
                            groups,
                        },
                    ),
                )
            }
        };
        if self.trace_on {
            self.trace_buf.push(TraceEvent {
                at: now,
                data: TraceData::Step {
                    txn: txn.0,
                    replica,
                    outcome,
                    next_at: child.0.as_micros(),
                    ws_bytes,
                },
            });
        }
        Some(child)
    }

    /// Frees the Gatekeeper slot after a completion; a queued transaction
    /// may start immediately.
    pub fn on_finish(&mut self, now: SimTime, committed: bool, queue: &mut EventQueue<Ev>) {
        if let Some(next) = self.node.finish(committed) {
            queue.schedule(
                now,
                Ev::StepTxn {
                    replica: self.id,
                    txn: next,
                },
            );
        }
    }

    /// Runs the background writer and other periodic replica work.
    pub fn on_maintenance(&mut self, now: SimTime) {
        self.node.maintenance(now);
    }

    /// Samples the load daemon (smoothed CPU/disk utilization).
    pub fn sample_load(&mut self, now: SimTime) -> LoadReport {
        self.node.sample_load(now)
    }
}
