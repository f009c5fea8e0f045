//! Events driving the cluster simulation.
//!
//! Every component interaction travels through a timestamped [`Ev`] in the
//! run's event queue, which [`crate::state::ClusterState::run_to_end`]
//! drains. The transaction lifecycle:
//!
//! 1. `ClientArrive` — a client finishes thinking, the balancer picks a
//!    replica, the proxy (Gatekeeper) admits or queues the transaction;
//! 2. `StepTxn` — the replica advances the transaction by a CPU quantum or
//!    one disk read;
//! 3. read-only transactions complete locally (`TxnComplete`); update
//!    transactions send their writeset to the certifier (`CertifySend`),
//!    whose response (`CertifyReturn`) carries the remote writesets the
//!    replica must apply before committing — or a conflict, aborting the
//!    transaction for the client to retry;
//! 4. `Maintenance` — per replica: background writes, propagation pulls
//!    (500 ms), load-daemon samples (1 s);
//! 5. `LbTick` — MALB rebalancing and (eventually) filter installation.
//!
//! Failure injection travels through the same queue: `ReplicaCrash` drops a
//! replica's in-flight work and routes dispatch around it, `ReplicaRecover`
//! replays the certifier log and rejoins dispatch with a cold cache, and
//! `CertifierKill` kills a certifier-group member (a leader kill triggers
//! the §4.4 backup election). Because they are ordinary events handled by
//! [`crate::state::ClusterState::handle`], failure timing is as
//! deterministic as the rest of a run.

use tashkent_engine::{TxnId, TxnTypeId, Version, Writeset};
use tashkent_sim::SimTime;

/// Sentinel "node id" for the control plane (balancer + certifier side) in
/// [`Ev::LinkPartition`] pairs: partitioning `(CONTROL_NODE, r)` cuts
/// replica `r` off from heartbeats, certification traffic, and propagation
/// pulls without killing it — the deterministic false-suspicion injection.
pub const CONTROL_NODE: usize = usize::MAX;

/// Events driving the simulation.
///
/// `Clone` exists so experiments can carry pre-built injection schedules
/// (see `Experiment::injections`); events in flight are never cloned.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A client submits its next transaction.
    ClientArrive {
        /// Client index.
        client: usize,
    },
    /// Continue executing a transaction on a replica.
    StepTxn {
        /// Replica index.
        replica: usize,
        /// Transaction.
        txn: TxnId,
    },
    /// A writeset reaches the certifier.
    CertifySend {
        /// Origin replica.
        replica: usize,
        /// Transaction.
        txn: TxnId,
        /// The writeset.
        ws: Writeset,
    },
    /// The certifier's response reaches the replica.
    CertifyReturn {
        /// Origin replica.
        replica: usize,
        /// Transaction.
        txn: TxnId,
        /// Commit version, or `None` on conflict.
        version: Option<Version>,
    },
    /// A transaction finished on its replica (response travels to client).
    TxnComplete {
        /// Replica index.
        replica: usize,
        /// Transaction.
        txn: TxnId,
        /// Whether it committed (vs aborted).
        committed: bool,
    },
    /// A client re-submits an aborted transaction after observing the
    /// abort response (which travelled replica → balancer → client, two
    /// LAN hops after the completion). Keeping the resubmission a separate
    /// event — instead of the historical instantaneous retry inside the
    /// completion handler — models the client round-trip faithfully: the
    /// earliest a retry can touch another replica is four hops after the
    /// original completion (two for the response, two for the new
    /// submission).
    TxnRetry {
        /// Retrying client.
        client: usize,
        /// Transaction type (retries keep the original type).
        txn_type: TxnTypeId,
        /// Original arrival time (response-time accounting spans retries).
        arrived: SimTime,
        /// Retry count of the new submission.
        retries: u32,
    },
    /// Per-replica periodic work: background writer, propagation, daemon.
    Maintenance {
        /// Replica index.
        replica: usize,
        /// Round counter (daemon samples every other round).
        round: u64,
    },
    /// Load-balancer rebalance tick.
    LbTick,
    /// Switch the workload mix (dynamic-reconfiguration experiments).
    MixSwitch {
        /// Index into the experiment's mix list.
        mix: usize,
    },
    /// Freeze the balancer (static-configuration baseline).
    FreezeLb,
    /// A replica fails: cold cache, in-flight work dropped, clients retry
    /// elsewhere, the balancer routes around it. At least one replica must
    /// stay alive for dispatch to have a target.
    ReplicaCrash {
        /// Replica index.
        replica: usize,
    },
    /// A crashed replica rejoins: it replays the writesets it missed from
    /// the certifier's persistent log (§3 standard recovery), then re-enters
    /// dispatch with a cold cache.
    ReplicaRecover {
        /// Replica index.
        replica: usize,
    },
    /// Kill a certifier-group member. Killing the leader elects a backup
    /// after the failover delay; certification requests arriving in the gap
    /// wait for the new leader (§4.4). If *every* member of the group is
    /// dead, requests queue at the link and drain when a member restarts
    /// ([`Ev::CertifierRestart`]) — back-pressure, never spurious aborts.
    CertifierKill {
        /// Certifier group index (`0` in the paper's one-group deployment);
        /// an index past the group count is ignored.
        group: usize,
        /// Group member index (the initial leader is member 0).
        member: usize,
    },
    /// Restart a dead certifier-group member. If the group had no live
    /// members, the restarted member is elected leader after the failover
    /// delay and the requests queued during the outage drain through it in
    /// arrival order.
    CertifierRestart {
        /// Certifier group index; an index past the group count is ignored.
        group: usize,
        /// Group member index.
        member: usize,
    },
    /// Under partial replication: copy a relation group onto one more live
    /// replica, backfilling its pages from the certifier's persistent log
    /// and widening dispatch eligibility. A no-op under full replication or
    /// when every live replica already holds the group. The crash handler
    /// re-replicates under-`min_copies` groups synchronously (so dispatch
    /// never lacks a holder); this event is the injectable form for
    /// scenarios and tests.
    Rereplicate {
        /// Relation-group index in the run's `PlacementMap`.
        group: usize,
    },
    /// One bandwidth-capped slice of an in-flight backfill: ship up to the
    /// chunk budget of certifier-log pages onto the task's target replica
    /// through its CPU/disk models, then self-schedule the next chunk (or
    /// the [`Ev::BackfillDone`]) at the time the cap allows. Staging the
    /// copy through the queue is what makes migration I/O compete with
    /// foreground propagation instead of being charged instantaneously.
    BackfillChunk {
        /// Index into the cluster's backfill-task table.
        task: usize,
    },
    /// An asynchronous backfill finished: the target replica's copy of the
    /// task's relations is complete, dispatch eligibility widens to include
    /// it, and — for a migration — the donor holder is dropped.
    BackfillDone {
        /// Index into the cluster's backfill-task table.
        task: usize,
    },
    /// Periodic skew-driven migration tick: examine per-relation-group
    /// dispatch load, and migrate the hottest group from its most-loaded
    /// holder toward the least-loaded non-holder (capped backfill, then the
    /// donor is dropped on completion). Scheduled only when
    /// `ClusterConfig::migration` is on under partial replication.
    RebalanceTick,
    /// Heartbeat round of the balancer's failure detector: ping every
    /// replica (probes pay LAN hops and briefly occupy the certifier-side
    /// NIC), feed the per-replica accrual counters, and apply any
    /// `Live → Suspected → Dead` transitions — a *Suspected* replica leaves
    /// dispatch/MALB eligibility and its in-flight transactions are retried
    /// on survivors; re-replication waits for *Dead*. Scheduled only when
    /// `ClusterConfig::heartbeat_period_us > 0`; self-reschedules each
    /// period.
    HeartbeatTick,
    /// Partition the link between `a` and `b` (either may be
    /// [`CONTROL_NODE`]): messages between the pair — heartbeats,
    /// certification traffic, propagation pulls — are dropped until
    /// `heal_at`, without killing either side. The handler schedules the
    /// matching [`Ev::LinkHeal`] itself.
    LinkPartition {
        /// One endpoint (replica index or [`CONTROL_NODE`]).
        a: usize,
        /// The other endpoint.
        b: usize,
        /// When the link heals.
        heal_at: SimTime,
    },
    /// Heal a partitioned link (scheduled by the `LinkPartition` handler).
    LinkHeal {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// A client's per-request timer fired before the response arrived: the
    /// request is abandoned on its (possibly dead or partitioned) replica
    /// and retried after a capped exponential backoff through the usual
    /// [`Ev::TxnRetry`] path. Scheduled only when
    /// `ClusterConfig::client_timeout_us > 0`; a no-op unless `txn` is
    /// still the client's latest attempt, unanswered.
    ClientTimeout {
        /// The waiting client.
        client: usize,
        /// The timed-out attempt.
        txn: TxnId,
    },
    /// End of warm-up: reset the measurement window.
    EndWarmup,
    /// End of run.
    End,
}

// Events are stored by value in the queue's heap; keep them at 64 bytes.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Ev>() == 64);
