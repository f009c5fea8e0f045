//! A replica node wired into the cluster event loop.

use std::collections::HashMap;

use tashkent_engine::{TxnExecutor, TxnId, TxnTypeId};
use tashkent_replica::{ReplicaNode, StepOutcome};
use tashkent_sim::{EventQueue, SimTime};

use crate::config::LAN_HOP_US;
use crate::events::Ev;
use crate::trace::{TraceData, Tracer};

/// Wraps a [`ReplicaNode`] with its cluster identity, liveness and the
/// Gatekeeper slots its proxy holds, translating execution outcomes into
/// scheduled events.
pub struct ClusterNode {
    id: usize,
    node: ReplicaNode,
    up: bool,
    /// Every transaction the proxy has admitted or queued, with its client
    /// and type, from [`Self::submit`] until [`Self::release`] frees its
    /// slot. A crash clears it.
    held: HashMap<TxnId, (usize, TxnTypeId)>,
}

impl ClusterNode {
    /// Wraps `node` as replica `id`, [`LAN_HOP_US`] away from every other
    /// component.
    pub fn new(id: usize, node: ReplicaNode) -> Self {
        ClusterNode {
            id,
            node,
            up: true,
            held: HashMap::new(),
        }
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
    /// queue drained, and every transaction it held forgotten, so their
    /// late events free no slot. Their clients still wait on them until the
    /// suspicion sweep or a timeout answers.
    pub fn crash(&mut self) {
        self.up = false;
        self.node.crash();
        self.held.clear();
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

    /// Offers `client`'s transaction to the Gatekeeper, which holds it until
    /// its release; when admitted, schedules its first execution step two
    /// LAN hops out (client → balancer → replica).
    pub fn submit(
        &mut self,
        now: SimTime,
        client: usize,
        executor: TxnExecutor,
        queue: &mut EventQueue<Ev>,
    ) {
        debug_assert!(self.up, "balancer dispatched to a crashed replica");
        let txn = executor.txn();
        self.held.insert(txn, (client, executor.txn_type()));
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

    /// The type of `txn` while this node holds it.
    pub(crate) fn held(&self, txn: TxnId) -> Option<TxnTypeId> {
        self.held.get(&txn).map(|&(_, txn_type)| txn_type)
    }

    /// Frees `txn`'s Gatekeeper slot after a completion, or after the proxy
    /// lost its certifier connection, and returns its client; a queued
    /// transaction may start immediately. A transaction the node does not
    /// hold (a crash dropped it) frees nothing.
    pub(crate) fn release(
        &mut self,
        now: SimTime,
        txn: TxnId,
        committed: bool,
        queue: &mut EventQueue<Ev>,
    ) -> Option<usize> {
        let (client, _) = self.held.remove(&txn)?;
        if let Some(next) = self.node.finish(committed) {
            queue.schedule(
                now,
                Ev::StepTxn {
                    replica: self.id,
                    txn: next,
                },
            );
        }
        Some(client)
    }
}
