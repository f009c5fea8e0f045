//! A replica node wired into the cluster event loop.

use tashkent_engine::{TxnExecutor, TxnId};
use tashkent_replica::{ReplicaNode, StepOutcome};
use tashkent_sim::{EventQueue, SimTime};

use crate::config::LAN_HOP_US;
use crate::events::Ev;
use crate::trace::{TraceData, Tracer};

/// Wraps a [`ReplicaNode`] with its cluster identity and liveness,
/// translating execution outcomes into scheduled events.
pub struct ClusterNode {
    id: usize,
    node: ReplicaNode,
    up: bool,
}

impl ClusterNode {
    /// Wraps `node` as replica `id`, [`LAN_HOP_US`] away from every other
    /// component.
    pub fn new(id: usize, node: ReplicaNode) -> Self {
        ClusterNode { id, node, up: true }
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
    /// queue drained. The cluster state finds the orphaned transactions in
    /// its own metadata, which also covers those awaiting certification
    /// that the node's running set does not hold.
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

    /// Mutable access for failure injection and recovery.
    pub fn replica_mut(&mut self) -> &mut ReplicaNode {
        &mut self.node
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
                now + 2 * LAN_HOP_US,
                Ev::StepTxn {
                    replica: self.id,
                    txn,
                },
            );
        }
        // If queued, the Gatekeeper will admit it when a slot frees.
    }

    /// Advances a transaction by one quantum, traces the step, and
    /// schedules what follows: another step, local completion, or the
    /// certifier round-trip. A *stale* step — one whose transaction a crash
    /// dropped while its step event was already queued — does nothing.
    pub fn on_step(
        &mut self,
        now: SimTime,
        txn: TxnId,
        tracer: &mut Tracer,
        queue: &mut EventQueue<Ev>,
    ) {
        if !self.node.is_running(txn) {
            return;
        }
        let replica = self.id;
        let (outcome, ws_bytes, at, ev) = match self.node.step(txn, now) {
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
        tracer.emit(
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
}
