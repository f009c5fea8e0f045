//! Drivers: interchangeable event-loop strategies over a [`ClusterState`].
//!
//! PR 1 separated *what happens* on each event (the component handlers,
//! reachable only through [`ClusterState::handle`]) from *when and where*
//! events execute. This module owns the second half. A [`Driver`] pops
//! events from the [`EventQueue`] and feeds them to the state; two
//! implementations exist:
//!
//! * [`SequentialDriver`] — pops one event at a time in `(timestamp, FIFO)`
//!   order. This is the reference semantics: bit-for-bit the behaviour of
//!   the original single-threaded `World` loop.
//! * [`ParallelDriver`] — a windowed parallel discrete-event driver. Runs
//!   of consecutive window-compatible events are popped as a *lookahead
//!   window*: `StepTxn` events are sharded by replica across a persistent
//!   pool of worker threads over dedicated SPSC lanes ([`crate::sync`]),
//!   while single-component stoppers (certifier sends, certifier returns,
//!   committed completions, maintenance rounds) are **deferred** into the
//!   merge instead of ending the window. The merge then replays everything
//!   — worker transcripts, deferred stoppers, and the events their
//!   handling schedules — in exactly the sequential pop order, including
//!   same-microsecond FIFO ties, which it reconstructs via generation
//!   stamps. Results are identical to [`SequentialDriver`] for every seed
//!   and configuration; only wall-clock time differs.
//!
//! # The window lifecycle
//!
//! 1. **Formation.** A window opens on a popped `StepTxn` at `t0` and keeps
//!    popping while the queue head is *window-compatible*: any event at or
//!    before the horizon `t0 + 4·lan_hop_us` whose [`Ev::footprint`] is not
//!    [`Footprint::Global`]. Steps join their replica's shard; everything
//!    else becomes a *deferred stopper* carried by the coordinator. Each
//!    popped event records its pop rank — its position in the sequential
//!    pop order. The first `Footprint::Global` event (balancer tick,
//!    fault, placement change, run control) or the first event past the
//!    horizon stays queued and bounds the window as the *true stopper*.
//! 2. **Sharding.** Each shard leases its replica's node and advances that
//!    replica's transactions independently (persistent worker threads when
//!    the window is big enough to pay for the handoff, inline otherwise),
//!    recording a transcript. Shards observe *barriers* (below) that stop
//!    them exactly where a deferred stopper or an emitted consequence would
//!    sequentially intervene on their replica.
//! 3. **Merge.** The coordinator replays the window in the exact global
//!    sequential order — batch events and deferred stoppers by pop rank,
//!    generated events at their generation positions — executing deferred
//!    stoppers and pre-stopper emissions inline through
//!    [`ClusterState::handle`] and interleaving any events that handling
//!    schedules (see [`merge_window`]). Emissions at or past the true
//!    stopper re-enter the queue at their sequential insertion position.
//!    The replay starts as soon as the jobs are dispatched — it does not
//!    wait for the shards — and *streams* their transcripts in: a shard's
//!    transcript is awaited only at the first replay entry that needs it,
//!    so merge work on one shard overlaps execution of the others.
//!
//! # The persistent pool and shard leases
//!
//! Worker threads are spawned once and live for the driver's lifetime.
//! Each worker owns two dedicated SPSC ring-buffer lanes ([`crate::sync`]):
//! a job lane (coordinator → worker) carrying window jobs and node
//! recalls, and a result lane (worker → coordinator) carrying shard
//! transcripts and recalled nodes. Both consumers spin briefly and then
//! park, so an idle pool costs ~0 CPU (the old `mpsc` path burned ~2k spin
//! iterations per worker per window; [`DriverStats::worker_spins`] now
//! stays bounded by the message count). A worker panic is caught and
//! forwarded over the result lane, and the coordinator re-raises it.
//!
//! Shard-to-worker affinity is stable — replica `r` always goes to worker
//! `r % workers` — which enables **shard leases across windows**: when a
//! pooled window's merge completes, shard nodes that no coordinator
//! handler demanded simply *stay at their workers*, and the next pooled
//! window's job for that replica ships without a node (`Job::node` is
//! `None`; the worker already holds it). A maximal stretch of windows
//! executed this way is a *run* ([`DriverStats::runs`]); it ends at the
//! first true barrier — an event whose handler may touch any node
//! ([`crate::events::NodeDemand::AllNodes`]: dispatch, balancer ticks,
//! faults, run control) — which recalls every leased node before it runs.
//!
//! The recall discipline is what keeps leases exact. Every
//! [`ClusterState::handle`] call the coordinator makes is preceded by a
//! check of the event's [`crate::events::NodeDemand`]: a single-replica
//! handler pulls exactly that node home (if leased), an all-nodes handler
//! pulls everything home, a unified-certifier handler pulls nothing, and a
//! sharded-certification handler ([`crate::events::NodeDemand::CertGroups`])
//! pulls exactly the touched certifier shards home. Because
//! each worker's job lane is FIFO, a recall enqueued after a job is
//! processed after it — the worker finishes the shard, parks the node in
//! its local rack, and only then sees the recall — so a recall can never
//! race the very shard execution that justifies the lease. The node's
//! *physical location* is thus pure mechanics: the sequence of handler
//! invocations, and the node state each observes, is bit-identical to the
//! sequential driver's.
//!
//! # Dispatch economics
//!
//! A pooled handoff only pays when shards actually run concurrently.
//! [`DriverKind::Parallel`] therefore clamps pooling to
//! `min(threads, available_parallelism) >= 2`: on a single-core host the
//! window machinery still runs (formation, barriers, merge — the full
//! algorithm, inline), but jobs are not shipped to threads that would only
//! context-switch with the coordinator. [`DriverKind::ParallelTuned`]
//! bypasses the clamp (and sets its own `min_dispatch`), so equivalence
//! suites force the channel path even on one core.
//!
//! # Why windows are exact
//!
//! Every cross-component interaction travels the simulated LAN and pays at
//! least one `lan_hop_us` of latency. The certifier round-trip
//! (`CertifySend` → `CertifyReturn`) returns to the *origin* replica, so
//! the only path by which window work reaches another replica's node runs
//! through the client: a completion's response travels replica → balancer
//! → client (two hops — commits, aborts, and given-up retries alike, see
//! [`Ev::TxnRetry`]), and the client's next submission travels client →
//! balancer → replica (two more) before the first `StepTxn` on the new
//! replica fires. The submission itself only registers the transaction at
//! the Gatekeeper — state no worker reads. Work at time `t` therefore
//! cannot influence any *shard-visible* state on another replica before
//! `t + 4·lan_hop_us`: the lookahead bound, anchored at the window start
//! `t0`.
//!
//! Worker shards touch *only* their leased replica's node (CPU/disk/buffer
//! models, per-node RNG, executor state); every other handler runs on the
//! coordinator, in exact sequential order, during the merge. The only
//! hazard is therefore an event whose handler touches a node while that
//! node's shard would run past it. Window formation prevents it with
//! **per-shard barriers**, keys in the sequential order `(timestamp, pop
//! rank)` past which a shard must not execute:
//!
//! * a deferred `CertifyReturn{r}`, `TxnComplete{r}`, or `Maintenance{r}`
//!   touches replica `r` at its own instant, so shard `r` is barred from
//!   the stopper's own key;
//! * a deferred `CertifySend{r}` touches only certifier state, but its
//!   answer reaches `r` no earlier than one hop later — shard `r` is
//!   barred from `(t + lan_hop_us, rank)`;
//! * a deferred `ClientArrive` or `TxnRetry` dispatches to a replica the
//!   balancer only picks during the merge, and the submitted transaction's
//!   first step fires two hops later — *every* shard is barred from
//!   `(t + 2·lan_hop_us, rank)`;
//! * the same rules apply to consequences *emitted by the shard itself*
//!   (a completion bars its replica at its key; a certifier send one hop
//!   later), exactly as before deferral;
//! * generated events run only strictly before the true stopper's
//!   timestamp (at a tie they would lose FIFO to it).
//!
//! Barriers are conservative, not lossy: batch events a barrier skipped and
//! children it demoted are executed inline by the merge at their precise
//! sequential slot, after every senior deferred stopper and emission has
//! been handled — which is exactly the sequential state.
//!
//! The merge's interleaving closes the same-microsecond tie corner for
//! deferred stoppers just as PR 4 closed it for emissions: a window entry
//! carries the queue's sequence counter at its *generation* instant
//! ([`EventQueue::next_seq`]), so an event scheduled during the replay pops
//! before a window entry only when its sequence number is below the entry's
//! stamp — the exact FIFO order sequential insertion would have produced.
//! Deferred stoppers and batch events predate everything the replay can
//! schedule and carry the minimum stamp.
//!
//! # Sharded certification in the window
//!
//! Under [`crate::config::CertifierSharding::Sharded`], certification
//! itself shards across the pool: each certifier group's service queue
//! ([`CertShard`]) leases to a stable worker exactly like a replica node
//! (lease slot `replicas + group`, affinity `(replicas + group) %
//! workers`), and a pooled window's eligible `CertifySend`s ship to that
//! worker as a *cert job*. The worker runs only the group's service-time
//! reservations ([`CertShard::reserve_check`]: availability wait, serial
//! CPU queue); the merge replays each *decision* — the conflict verdict,
//! global version assignment, log append, per-group commit list, response
//! scheduling — inline at the send's exact pop rank via
//! [`ClusterState::certify_decide`]. A send is eligible only when all of
//! these hold:
//!
//! * it touches exactly one group (cross-group sends run an atomic
//!   commitment round against several shards and always replay inline);
//! * its group is available (a fully-dead group queues the request — the
//!   back-pressure path — which is coordinator-side state);
//! * it pops at or before `t0 + lan_hop_us`, which makes it senior, in
//!   `(timestamp, rank)` order, to every certifier send a shard can emit
//!   mid-window (children surface at `completion + lan_hop_us ≥ t0 +
//!   lan_hop_us`, with a junior rank at a tie);
//! * no earlier-popped send destined for inline handling touched its group.
//!
//! The last two rules make the worker-side reservations of a group exactly
//! the *senior prefix* of that group's sequential check order for the
//! window: every inline send touching the group is junior to every
//! dispatched check, and its handler recalls the shard first
//! ([`crate::events::NodeDemand::CertGroups`]) — the worker's job lane is
//! FIFO, so the recalled shard reflects precisely the window's checks,
//! which is its sequential state at the inline send's slot. The decision
//! half consumes only coordinator-owned state (the global log) in exact pop
//! order: at the send's rank the log holds every earlier commit and nothing
//! later, so the conflict scan and version assignment are bit-identical to
//! the sequential driver; the degenerate one-group configuration reproduces
//! the unified certifier bit-for-bit.
//!
//! Failure events (`ReplicaCrash`, `ReplicaRecover`, `CertifierKill`,
//! `Rereplicate`) are `Footprint::Global` and still bound windows as true
//! stoppers. The crash-specific wrinkle is *stale* steps: a crash drops a
//! replica's in-flight transactions while their step events are still
//! queued, so `step_child` is total — it returns `None` for a transaction
//! that no longer exists, and both drivers skip such events identically
//! (the shard transcript records them as `ChildOut::Stale`).
//!
//! # Observability
//!
//! The driver always collects [`DriverStats`] (window counts, sizes,
//! deferral and pooling counters, a log₂ size histogram, plus the pool's
//! pipeline/handoff counters: lease runs, recalls, overlapped merges, a
//! log₂ handoff-stall histogram, and worker busy/parked occupancy) into
//! [`ClusterState::driver_stats`], which [`crate::metrics::RunResult`]
//! carries as `driver_stats`. Setting `TASHKENT_DRIVER_STATS` additionally
//! prints [`DriverStats::summary`] to stderr at the end of the run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use tashkent_certifier::{CertShard, ShardCheck};
use tashkent_engine::{TxnId, Writeset};
use tashkent_sim::{EventQueue, SimTime};

use crate::components::ClusterNode;
use crate::events::{Ev, Footprint, NodeDemand};
use crate::state::ClusterState;
use crate::sync::{self, WaitCounters};

/// Which driver an experiment runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverKind {
    /// The reference single-threaded event loop.
    #[default]
    Sequential,
    /// The windowed multi-threaded driver. Produces results identical to
    /// the sequential reference — same-microsecond FIFO ties included
    /// (enforced by the cross-driver equivalence tests); faster on
    /// multi-core hosts for multi-replica configurations. Pooling is
    /// clamped to the dispatch economics of the host: jobs go to worker
    /// threads only when `min(threads, available_parallelism) >= 2` —
    /// on a single-core host the full window algorithm runs inline (see
    /// the module docs, "Dispatch economics").
    Parallel {
        /// Worker thread count; `0` picks the host's available parallelism.
        threads: usize,
    },
    /// The windowed driver with an explicit dispatch threshold: windows
    /// with at least `min_dispatch` step events go through the worker
    /// pool, and the single-core economics clamp is bypassed.
    /// `min_dispatch = 0` forces every multi-shard window — however tiny —
    /// through the pool's channel path; the equivalence suites use it as a
    /// stress mode, since production thresholds keep small windows inline
    /// on the coordinator.
    ParallelTuned {
        /// Worker thread count; `0` picks the host's available parallelism.
        threads: usize,
        /// Smallest step count dispatched to worker threads.
        min_dispatch: usize,
    },
}

impl DriverKind {
    /// The parallel driver with automatic thread count.
    pub fn parallel() -> Self {
        DriverKind::Parallel { threads: 0 }
    }

    /// Builds the driver this kind describes.
    pub fn build(self) -> Box<dyn Driver> {
        match self {
            DriverKind::Sequential => Box::new(SequentialDriver),
            DriverKind::Parallel { threads } => Box::new(ParallelDriver::new(threads)),
            DriverKind::ParallelTuned {
                threads,
                min_dispatch,
            } => Box::new(ParallelDriver::new(threads).with_min_dispatch(min_dispatch)),
        }
    }
}

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

/// An event-loop strategy: drives a [`ClusterState`] until its `End` event.
pub trait Driver {
    /// Runs until the state's `End` event fires.
    ///
    /// Returns [`RunError::QueueDrained`] when the queue empties first; the
    /// state is left at the drained point for inspection.
    fn run_to_end(
        &mut self,
        state: &mut ClusterState,
        queue: &mut EventQueue<Ev>,
    ) -> Result<(), RunError>;
}

/// The reference driver: one event at a time, in `(timestamp, FIFO)` order.
#[derive(Debug, Default)]
pub struct SequentialDriver;

impl Driver for SequentialDriver {
    fn run_to_end(
        &mut self,
        state: &mut ClusterState,
        queue: &mut EventQueue<Ev>,
    ) -> Result<(), RunError> {
        while !state.ended() {
            let Some((now, ev)) = queue.pop() else {
                return Err(RunError::QueueDrained { at: queue.now() });
            };
            state.handle(now, ev, queue);
        }
        Ok(())
    }
}

/// Number of log₂ buckets in the window-size histogram (sizes 1, 2–3, 4–7,
/// … up to `2^11 = 2048` and beyond in the last bucket).
pub const WINDOW_HIST_BUCKETS: usize = 12;

/// Number of log₂ buckets in the handoff-stall histogram: bucket 0 counts
/// pooled windows whose coordinator stalled under 512 ns waiting on the
/// pool, bucket `i` covers `2^(8+i) .. 2^(9+i)` ns, and the last bucket
/// absorbs everything from ~8 ms up.
pub const HANDOFF_HIST_BUCKETS: usize = 16;

/// Per-run window accounting, always collected by [`ParallelDriver`] and
/// surfaced through [`crate::metrics::RunResult::driver_stats`]. Setting
/// `TASHKENT_DRIVER_STATS` prints a summary to stderr at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Formed windows (two or more popped events).
    pub windows: u64,
    /// Lone steps handled without forming a window.
    pub singles: u64,
    /// Events popped into formed windows (steps + deferred stoppers).
    pub items: u64,
    /// `StepTxn` events popped into formed windows.
    pub steps: u64,
    /// Stoppers deferred into the merge instead of ending a window.
    pub deferred: u64,
    /// Shards executed across all formed windows.
    pub shards: u64,
    /// Windows dispatched to the worker-thread pool.
    pub pooled: u64,
    /// Window sizes (including singles as size 1), log₂-bucketed: bucket
    /// `i` counts windows of `2^i ..= 2^(i+1) - 1` events.
    pub size_hist: [u64; WINDOW_HIST_BUCKETS],
    /// Lease runs: maximal stretches of pooled windows over which shard
    /// leases could persist at their workers, ended by the first all-nodes
    /// barrier between windows (dispatch, balancer tick, fault, run
    /// control).
    pub runs: u64,
    /// Longest run, in pooled windows.
    pub max_run_windows: u64,
    /// Shard leases left at their worker across a window boundary (counted
    /// per pooled window at merge end).
    pub leases_retained: u64,
    /// Nodes pulled home from workers — mid-merge demands, between-window
    /// single-node demands, and run-ending all-nodes barriers alike.
    pub recalls: u64,
    /// Pooled windows whose merge did replay work while at least one shard
    /// transcript was still in flight — merge/shard pipelining actually
    /// overlapped (wall-clock-dependent, unlike every other counter).
    pub pipelined: u64,
    /// Single-group certification checks executed on pool workers (sharded
    /// certification only; the decide half always replays on the
    /// coordinator).
    pub certifier_sharded: u64,
    /// Certifier sends replayed inline by the merge: cross-group
    /// commitment rounds, sends into unavailable or already-inline-touched
    /// groups, every send of a non-pooled window, and all sends under
    /// unified certification.
    pub certifier_inline: u64,
    /// Per pooled window, nanoseconds the coordinator spent blocked on the
    /// pool (transcript or recall waits), log₂-bucketed; see
    /// [`HANDOFF_HIST_BUCKETS`].
    pub handoff_ns_hist: [u64; HANDOFF_HIST_BUCKETS],
    /// Wall nanoseconds workers spent executing shard jobs this run.
    pub worker_busy_ns: u64,
    /// Wall nanoseconds workers spent parked this run (idle, ~0 CPU).
    pub worker_parked_ns: u64,
    /// Park episodes across all workers this run.
    pub worker_parks: u64,
    /// Spin-loop iterations across all workers this run; bounded by
    /// [`sync::SPIN_LIMIT`] per message or park (the old `mpsc` path spun
    /// ~2000 iterations per worker per window regardless).
    pub worker_spins: u64,
}

impl DriverStats {
    /// Mean events per formed window (the main parallelism gauge; excludes
    /// lone steps, which never reach the window machinery).
    pub fn mean_window_items(&self) -> f64 {
        self.items as f64 / self.windows.max(1) as f64
    }

    /// Mean events per window counting lone steps as windows of one — the
    /// conservative gauge the CI floor asserts on.
    pub fn mean_window_incl_singles(&self) -> f64 {
        (self.items + self.singles) as f64 / (self.windows + self.singles).max(1) as f64
    }

    /// Fraction of accounted worker time spent parked rather than running
    /// shard jobs. Idle workers park in the scheduler, so a mostly-idle
    /// pool pushes this toward 1.0 while costing ~0 CPU.
    pub fn worker_idle_fraction(&self) -> f64 {
        let total = self.worker_parked_ns + self.worker_busy_ns;
        if total == 0 {
            0.0
        } else {
            self.worker_parked_ns as f64 / total as f64
        }
    }

    /// One-line human summary of the run — the `TASHKENT_DRIVER_STATS`
    /// output, factored out so tests can pin its contents without touching
    /// the environment.
    pub fn summary(&self) -> String {
        format!(
            "parallel driver: {} windows ({} pooled, {} pipelined), {} single-step, \
             {:.2} items/window ({:.2} incl. singles), {:.2} shards/window, \
             {} deferred stoppers, {} cert checks sharded / {} cert inline, \
             {} runs (max {} windows, {} leases retained, \
             {} recalls), workers busy {:.3}ms / parked {:.3}ms (idle {:.1}%, \
             {} parks, {} spins), handoff hist {:?}, size hist {:?}",
            self.windows,
            self.pooled,
            self.pipelined,
            self.singles,
            self.mean_window_items(),
            self.mean_window_incl_singles(),
            self.shards as f64 / self.windows.max(1) as f64,
            self.deferred,
            self.certifier_sharded,
            self.certifier_inline,
            self.runs,
            self.max_run_windows,
            self.leases_retained,
            self.recalls,
            self.worker_busy_ns as f64 / 1e6,
            self.worker_parked_ns as f64 / 1e6,
            self.worker_idle_fraction() * 100.0,
            self.worker_parks,
            self.worker_spins,
            self.handoff_ns_hist,
            self.size_hist,
        )
    }

    fn observe_single(&mut self) {
        self.singles += 1;
        self.size_hist[0] += 1;
    }

    fn observe_handoff(&mut self, stall_ns: u64) {
        let bucket = if stall_ns < 256 {
            0
        } else {
            ((63 - stall_ns.leading_zeros() as usize) - 8).min(HANDOFF_HIST_BUCKETS - 1)
        };
        self.handoff_ns_hist[bucket] += 1;
    }

    fn observe_window(&mut self, steps: u64, deferred: u64, shards: u64, pooled: bool) {
        let size = steps + deferred;
        self.windows += 1;
        self.items += size;
        self.steps += steps;
        self.deferred += deferred;
        self.shards += shards;
        self.pooled += u64::from(pooled);
        let bucket = (63 - size.max(1).leading_zeros() as usize).min(WINDOW_HIST_BUCKETS - 1);
        self.size_hist[bucket] += 1;
    }
}

/// Orders window items exactly as the sequential driver would pop them:
/// by timestamp, ties broken by insertion rank. Batch events (steps and
/// deferred stoppers) carry their pop rank (`0..batch_len`); events
/// generated during the window rank after every batch event, in generation
/// order — mirroring the queue's monotone sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    rank: u64,
}

/// One popped window event, in pop order.
#[derive(Debug)]
enum WinItem {
    /// A `StepTxn`, sharded to its replica's worker.
    Step { replica: usize, txn: TxnId },
    /// A deferred stopper: executed inline by the merge at its exact slot
    /// in the sequential pop order.
    Deferred(Ev),
    /// A single-group `CertifySend` eligible for worker-side checking
    /// (see the module docs, "Sharded certification in the window").
    /// Carried as its own variant so job-building can either ship it to
    /// its group's cert job (pooled windows, becoming [`WinItem::CertCheck`])
    /// or demote it to a deferred stopper (inline windows).
    CertSend {
        replica: usize,
        txn: TxnId,
        ws: Writeset,
        groups: u64,
    },
    /// A dispatched certification check: the worker reserves the group's
    /// check service time; the merge consumes the check record at this
    /// exact pop rank and replays the decision inline.
    CertCheck { group: usize },
}

/// One certification check shipped to a cert group's worker, in pop order
/// within the group.
struct CertCheckItem {
    /// The send's pop key; the check runs at `key.at`.
    key: Key,
    /// Origin replica (the response returns there).
    replica: usize,
    txn: TxnId,
    ws: Writeset,
}

/// One certifier group's share of a pooled window, leased to its worker
/// like a replica [`Job`]. `checks` and `recs` are recycled buffers.
struct CertJob {
    group: usize,
    /// The group's service queue — or `None` when the assigned worker
    /// already racks it under a lease from the previous pooled window.
    shard: Option<Box<CertShard>>,
    /// This group's checks, key-ascending (= pop order).
    checks: Vec<CertCheckItem>,
    /// Recycled record buffer (empty on entry).
    recs: Vec<Option<CertRec>>,
}

/// The worker-side outcome of one certification check; the merge feeds it
/// to [`ClusterState::certify_decide`] at the send's pop rank. `Option`
/// wrapping lets the merge move the writeset out in consumption order.
struct CertRec {
    replica: usize,
    txn: TxnId,
    ws: Writeset,
    check: ShardCheck,
}

/// A worker's answer to a [`CertJob`]: the check records in order (the
/// shard stays racked at the worker, keeping the lease until recalled),
/// plus the drained `checks` buffer for recycling.
struct CertResult {
    group: usize,
    recs: Vec<Option<CertRec>>,
    checks: Vec<CertCheckItem>,
}

/// One cert group's check records under replay, cursor-consumed.
struct CertCursor {
    recs: Vec<Option<CertRec>>,
    rec_i: usize,
}

/// What a processed step produced.
enum ChildOut {
    /// A same-replica `StepTxn` the worker consumed inside the window; its
    /// own record follows later in the transcript.
    Local(TxnId),
    /// An event handed back to the coordinator for the deterministic merge.
    Emit(Ev),
    /// A stale step: its transaction was dropped by a crash before the
    /// already-queued step event fired. The sequential driver schedules
    /// nothing for it, so the merge emits nothing either.
    Stale,
}

/// Transcript record for one processed window item, in processing order.
struct StepRec {
    child_at: SimTime,
    child: ChildOut,
    /// Step trace events the node buffered while executing this item
    /// (empty when tracing is off). The merge replays them into the
    /// coordinator's tracer at the item's exact sequential pop slot, so
    /// the trace stream is byte-identical to the sequential driver's.
    trace: Vec<crate::trace::TraceEvent>,
}

/// One replica's work for a window, leased to a worker. The `items`,
/// `steps`, and `unprocessed` vectors are recycled scratch buffers: handed
/// out empty-with-capacity, returned through [`ShardResult`].
struct Job {
    replica: usize,
    /// The replica's node — or `None` when the assigned worker already
    /// holds it under a lease from the previous pooled window (the worker
    /// resolves it from its rack before running).
    node: Option<Box<ClusterNode>>,
    /// `(key, txn)` of this replica's batch steps, key-ascending.
    items: Vec<(Key, TxnId)>,
    /// Latest timestamp the window may touch (`t0 + 4·lan_hop_us`).
    horizon: SimTime,
    /// Timestamp of the first event still queued behind the window; the
    /// worker must not execute *generated* events at or past it.
    stop_ts: SimTime,
    /// Earliest key at which a deferred stopper touches this replica (its
    /// own key for node-touching stoppers, one hop later for certifier
    /// sends); nothing on this shard may run at or past it.
    defer_barrier: Option<Key>,
    /// Ranks at and above this mark generated children (== batch length,
    /// deferred stoppers included).
    child_rank_base: u64,
    /// One-way LAN latency: the minimum delay before a `CertifySend` can
    /// come back to this replica.
    lan_hop_us: u64,
    /// Recycled transcript buffer (empty on entry).
    steps: Vec<StepRec>,
    /// Recycled skipped-batch buffer (empty on entry).
    unprocessed: Vec<(u64, TxnId)>,
}

/// A worker's answer: the node back, plus everything needed to replay its
/// shard of the window into the global insertion order (and the drained
/// `items` buffer, returned for recycling).
struct ShardResult {
    replica: usize,
    /// The node — `Some` from inline execution, `None` from a pool worker
    /// (which racks the node locally, keeping the lease until recalled).
    node: Option<Box<ClusterNode>>,
    /// The job's batch buffer, drained — returned to the coordinator pool.
    items: Vec<(Key, TxnId)>,
    /// One record per processed item, in processing order.
    steps: Vec<StepRec>,
    /// Ranks of batch events the barriers prevented the worker from
    /// processing, ascending; the merge executes them inline.
    unprocessed_batch: Vec<(u64, TxnId)>,
}

/// Executes one replica's share of a lookahead window.
///
/// The agenda is a mini event queue over this replica only (`agenda` is a
/// recycled heap, empty on entry and exit). Batch steps were popped ahead
/// of every other queued event, so they may run up to the window limits;
/// generated `StepTxn` children join the agenda while they stay *strictly*
/// inside them (at a limit they could tie with an event the window defers,
/// and a generated event loses every tie), everything else is emitted for
/// the merge. The shard's barrier starts at the job's deferred-stopper
/// barrier and is lowered further by its own emissions:
///
/// * a `TxnComplete` touches this replica the moment the merge handles it
///   (slot recycling, retries), so nothing on this replica may run at or
///   past its key;
/// * a `CertifySend` at `t` comes back as a `CertifyReturn` no earlier than
///   `t + lan_hop_us` (conflicts return immediately; commits after
///   durability), which applies remote writesets on this replica — so
///   nothing may run past that time either.
fn run_shard(mut job: Job, agenda: &mut BinaryHeap<Reverse<(Key, u64, usize)>>) -> ShardResult {
    // Agenda entries: (key, raw txn id, transcript index of the generating
    // step for children, or usize::MAX for batch events).
    debug_assert!(agenda.is_empty(), "agenda scratch not drained");
    let mut node = job.node.take().expect("job node resolved before execution");
    for (key, txn) in job.items.drain(..) {
        agenda.push(Reverse((key, txn.0, usize::MAX)));
    }
    let mut steps = std::mem::take(&mut job.steps);
    let mut unprocessed_batch = std::mem::take(&mut job.unprocessed);
    let mut next_rank = job.child_rank_base;
    let mut barrier: Option<Key> = job.defer_barrier;

    while let Some(&Reverse((key, txn, _))) = agenda.peek() {
        let is_batch = key.rank < job.child_rank_base;
        let runnable = key.at <= job.horizon
            && (is_batch || key.at < job.stop_ts)
            && barrier.is_none_or(|b| key < b);
        if !runnable {
            break;
        }
        agenda.pop();
        let Some((child_at, child_ev)) = node.step_child(key.at, TxnId(txn)) else {
            // Stale step (transaction dropped by a crash): sequentially it
            // schedules nothing, so it consumes no generation rank and
            // raises no barrier.
            steps.push(StepRec {
                child_at: key.at,
                child: ChildOut::Stale,
                trace: Vec::new(),
            });
            continue;
        };
        let trace = node.take_trace();
        let ckey = Key {
            at: child_at,
            rank: next_rank,
        };
        next_rank += 1;
        let local = matches!(child_ev, Ev::StepTxn { .. })
            && child_at < job.horizon
            && child_at < job.stop_ts
            && barrier.is_none_or(|b| ckey < b);
        if local {
            let Ev::StepTxn { txn: ctxn, .. } = child_ev else {
                unreachable!()
            };
            agenda.push(Reverse((ckey, ctxn.0, steps.len())));
            steps.push(StepRec {
                child_at,
                child: ChildOut::Local(ctxn),
                trace,
            });
        } else {
            let consequence = match child_ev {
                Ev::TxnComplete { .. } => Some(ckey),
                // The certifier's answer reaches this replica one hop after
                // the send at the earliest; rank ordering at that instant
                // follows the send's own rank.
                Ev::CertifySend { .. } => Some(Key {
                    at: child_at + job.lan_hop_us,
                    rank: ckey.rank,
                }),
                _ => None,
            };
            if let Some(ck) = consequence {
                barrier = Some(barrier.map_or(ck, |b| b.min(ck)));
            }
            steps.push(StepRec {
                child_at,
                child: ChildOut::Emit(child_ev),
                trace,
            });
        }
    }

    // Unreached agenda items go back through the merge. A child queued
    // before the barrier dropped is retroactively an emission: patch its
    // generator's record.
    while let Some(Reverse((key, txn, gen_idx))) = agenda.pop() {
        if key.rank < job.child_rank_base {
            unprocessed_batch.push((key.rank, TxnId(txn)));
        } else {
            steps[gen_idx].child = ChildOut::Emit(Ev::StepTxn {
                replica: job.replica,
                txn: TxnId(txn),
            });
        }
    }
    unprocessed_batch.sort_unstable_by_key(|(rank, _)| *rank);

    ShardResult {
        replica: job.replica,
        node: Some(node),
        items: job.items,
        steps,
        unprocessed_batch,
    }
}

/// What a replay entry does when its turn in the sequential order comes.
enum Replay {
    /// A window step (batch event or in-window generated child): consume
    /// its shard's next transcript record — or, when the shard's barriers
    /// skipped it (batch events only), execute it inline.
    Item(TxnId),
    /// A deferred stopper or an emission senior to the true stopper: handle
    /// it inline at its exact sequential pop position.
    Handle(Ev),
    /// A dispatched certification check: consume the group's next check
    /// record and replay the decision inline.
    Cert(usize),
}

/// One pending element of the window replay.
///
/// `key` orders entries exactly as the sequential pop would (timestamp,
/// then pop/generation rank). `stamp` is the queue's sequence counter at
/// the entry's *generation* instant — where sequential execution would have
/// inserted it — so a same-instant tie against an event scheduled during
/// the replay resolves exactly as the sequential FIFO would: the entry is
/// senior to every event scheduled at or after its stamp. Batch events and
/// deferred stoppers predate the whole replay and carry `i64::MIN`.
struct ReplayEntry {
    key: Key,
    stamp: i64,
    replica: usize,
    action: Replay,
}

impl PartialEq for ReplayEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for ReplayEntry {}

impl PartialOrd for ReplayEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReplayEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key) // Ranks are unique, so keys are total.
    }
}

/// Recycled merge-side allocations, reused across windows: the replay heap,
/// the replica → shard-slot map, and the pools shard buffers return to.
#[derive(Default)]
struct MergeScratch {
    heap: BinaryHeap<Reverse<ReplayEntry>>,
    slot_of: Vec<usize>,
    cert_slot_of: Vec<usize>,
    items_pool: Vec<Vec<(Key, TxnId)>>,
    steps_pool: Vec<Vec<StepRec>>,
    unproc_pool: Vec<Vec<(u64, TxnId)>>,
    checks_pool: Vec<Vec<CertCheckItem>>,
    recs_pool: Vec<Vec<Option<CertRec>>>,
}

impl MergeScratch {
    /// Returns an unconsumed shard result's buffers to the pools (used for
    /// transcripts orphaned when an `End` cuts a merge short).
    fn recycle(&mut self, res: ShardResult) {
        debug_assert!(res.node.is_none(), "orphaned results leave nodes racked");
        let ShardResult {
            mut items,
            mut steps,
            mut unprocessed_batch,
            ..
        } = res;
        items.clear();
        self.items_pool.push(items);
        steps.clear();
        self.steps_pool.push(steps);
        unprocessed_batch.clear();
        self.unproc_pool.push(unprocessed_batch);
    }

    /// Same, for a cert job's buffers.
    fn recycle_cert(&mut self, res: CertResult) {
        let CertResult {
            mut recs,
            mut checks,
            ..
        } = res;
        recs.clear();
        self.recs_pool.push(recs);
        checks.clear();
        self.checks_pool.push(checks);
    }
}

/// One shard's transcript under replay: cursor-consumed so the buffers can
/// be recycled afterwards.
struct ShardCursor {
    steps: Vec<StepRec>,
    step_i: usize,
    unprocessed: Vec<(u64, TxnId)>,
    unproc_i: usize,
}

/// Where a replica's node physically lives right now. `Home` means it sits
/// in [`ClusterState`] (every handler may touch it); `AtWorker(w)` means it
/// is leased to pool worker `w`'s rack and must be recalled before any
/// coordinator handler that demands it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeLoc {
    Home,
    AtWorker(usize),
}

/// Coordinator → worker messages, one FIFO lane per worker. The FIFO order
/// is load-bearing: a `Recall` enqueued after a `Job` is only seen after
/// the job completed and its node is racked, so a recall can never race
/// the shard execution that holds the lease.
enum ToWorker {
    Job(Job),
    /// Return this replica's racked node to the coordinator.
    Recall(usize),
    /// A certifier group's window checks (sharded certification).
    CertJob(CertJob),
    /// Return this group's racked cert shard to the coordinator.
    RecallCert(usize),
}

/// Worker → coordinator messages, one FIFO lane per worker.
enum FromWorker {
    /// A finished shard (`node` is `None`: the worker racked it).
    Shard(ShardResult),
    /// A recalled node coming home.
    Node {
        replica: usize,
        node: Box<ClusterNode>,
    },
    /// A finished cert job (the worker racked the shard).
    CertDone(CertResult),
    /// A recalled cert shard coming home.
    CertHome { group: usize, shard: Box<CertShard> },
    /// The worker panicked; the coordinator re-raises the payload.
    Panic(Box<dyn std::any::Any + Send>),
}

/// The merge's view of in-flight shard work: pool lanes to drain, the
/// lease map to keep honest, and stall/recall accounting. With `pool:
/// None` (inline windows, unit tests) it degenerates to "everything is
/// already here".
struct ShardFeed<'a> {
    pool: Option<&'a WorkerPool>,
    /// Lease slots: replicas `0..replicas`, cert groups `replicas..`.
    lease: &'a mut [NodeLoc],
    /// Replica count — the base of the cert-group lease slots.
    replicas: usize,
    /// Transcripts (shard + cert) dispatched but not yet absorbed.
    pending: usize,
    /// Nanoseconds the merge spent blocked on the pool.
    stall_ns: u64,
    /// Nodes and cert shards recalled mid-merge.
    recalls: u64,
    /// Whether any replay work happened while a transcript was in flight.
    overlapped: bool,
}

impl<'a> ShardFeed<'a> {
    fn new(
        pool: Option<&'a WorkerPool>,
        lease: &'a mut [NodeLoc],
        replicas: usize,
        pending: usize,
    ) -> Self {
        ShardFeed {
            pool,
            lease,
            replicas,
            pending,
            stall_ns: 0,
            recalls: 0,
            overlapped: false,
        }
    }

    /// Installs one shard result as a replay cursor (and puts its node
    /// home if it travelled with the result — the inline path).
    fn install(
        &mut self,
        mut res: ShardResult,
        state: &mut ClusterState,
        sc: &mut MergeScratch,
        shards: &mut Vec<ShardCursor>,
    ) {
        if let Some(node) = res.node.take() {
            state.put_node(res.replica, node);
            self.lease[res.replica] = NodeLoc::Home;
        }
        sc.slot_of[res.replica] = shards.len();
        shards.push(ShardCursor {
            steps: res.steps,
            step_i: 0,
            unprocessed: res.unprocessed_batch,
            unproc_i: 0,
        });
        sc.items_pool.push(res.items);
    }

    /// Installs one cert result as a check-record cursor (the shard stays
    /// racked at the worker).
    fn install_cert(
        &mut self,
        res: CertResult,
        sc: &mut MergeScratch,
        certs: &mut Vec<CertCursor>,
    ) {
        sc.cert_slot_of[res.group] = certs.len();
        certs.push(CertCursor {
            recs: res.recs,
            rec_i: 0,
        });
        let mut checks = res.checks;
        checks.clear();
        sc.checks_pool.push(checks);
    }

    fn absorb(
        &mut self,
        msg: FromWorker,
        state: &mut ClusterState,
        sc: &mut MergeScratch,
        shards: &mut Vec<ShardCursor>,
        certs: &mut Vec<CertCursor>,
    ) {
        match msg {
            FromWorker::Shard(res) => {
                debug_assert!(self.pending > 0, "transcript nobody dispatched");
                self.pending -= 1;
                self.install(res, state, sc, shards);
            }
            FromWorker::Node { replica, node } => {
                state.put_node(replica, node);
                self.lease[replica] = NodeLoc::Home;
            }
            FromWorker::CertDone(res) => {
                debug_assert!(self.pending > 0, "cert records nobody dispatched");
                self.pending -= 1;
                self.install_cert(res, sc, certs);
            }
            FromWorker::CertHome { group, shard } => {
                state.put_cert_shard(group, shard);
                self.lease[self.replicas + group] = NodeLoc::Home;
            }
            FromWorker::Panic(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Blocks on the pool for the next message, accounting the stall.
    fn blocking_next(&mut self) -> FromWorker {
        let pool = self.pool.expect("blocked on shard results without a pool");
        let start = Instant::now();
        let msg = pool.recv_any();
        self.stall_ns += start.elapsed().as_nanos() as u64;
        msg
    }

    /// Opportunistically absorbs transcripts that already landed, keeping
    /// lanes shallow while the replay works.
    fn poll(
        &mut self,
        state: &mut ClusterState,
        sc: &mut MergeScratch,
        shards: &mut Vec<ShardCursor>,
        certs: &mut Vec<CertCursor>,
    ) {
        if self.pending == 0 {
            return;
        }
        let Some(pool) = self.pool else { return };
        while let Some(msg) = pool.try_recv_any() {
            self.absorb(msg, state, sc, shards, certs);
            if self.pending == 0 {
                break;
            }
        }
    }

    /// Waits until shard `replica`'s transcript has been installed.
    fn ensure_transcript(
        &mut self,
        replica: usize,
        state: &mut ClusterState,
        sc: &mut MergeScratch,
        shards: &mut Vec<ShardCursor>,
        certs: &mut Vec<CertCursor>,
    ) {
        while sc.slot_of[replica] == usize::MAX {
            assert!(self.pending > 0, "window item for an absent shard");
            let msg = self.blocking_next();
            self.absorb(msg, state, sc, shards, certs);
        }
    }

    /// Waits until cert group `group`'s check records have been installed.
    fn ensure_cert_records(
        &mut self,
        group: usize,
        state: &mut ClusterState,
        sc: &mut MergeScratch,
        shards: &mut Vec<ShardCursor>,
        certs: &mut Vec<CertCursor>,
    ) {
        while sc.cert_slot_of[group] == usize::MAX {
            assert!(self.pending > 0, "cert check for an absent cert job");
            let msg = self.blocking_next();
            self.absorb(msg, state, sc, shards, certs);
        }
    }

    /// Recalls whatever nodes (or cert shards) `demand` requires and waits
    /// until they are home. Transcripts arriving in the meantime are
    /// absorbed (each worker's lanes are FIFO, so a recalled node follows
    /// any transcript the same worker produced first).
    fn ensure(
        &mut self,
        demand: NodeDemand,
        state: &mut ClusterState,
        sc: &mut MergeScratch,
        shards: &mut Vec<ShardCursor>,
        certs: &mut Vec<CertCursor>,
    ) {
        match demand {
            NodeDemand::NoNode => {}
            NodeDemand::Node(replica) => {
                let NodeLoc::AtWorker(w) = self.lease[replica] else {
                    return;
                };
                let pool = self.pool.expect("lease without a pool");
                pool.recall(w, replica);
                self.recalls += 1;
                while self.lease[replica] != NodeLoc::Home {
                    let msg = self.blocking_next();
                    self.absorb(msg, state, sc, shards, certs);
                }
            }
            NodeDemand::CertGroups(mask) => {
                let mut m = mask;
                while m != 0 {
                    let g = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let slot = self.replicas + g;
                    let Some(NodeLoc::AtWorker(w)) = self.lease.get(slot).copied() else {
                        continue; // Home, or no cert leases (unified mode).
                    };
                    let pool = self.pool.expect("lease without a pool");
                    pool.recall_cert(w, g);
                    self.recalls += 1;
                    while self.lease[slot] != NodeLoc::Home {
                        let msg = self.blocking_next();
                        self.absorb(msg, state, sc, shards, certs);
                    }
                }
            }
            NodeDemand::AllNodes => {
                let Some(pool) = self.pool else {
                    debug_assert!(self.lease.iter().all(|l| *l == NodeLoc::Home));
                    return;
                };
                let mut any = false;
                for (slot, loc) in self.lease.iter().enumerate() {
                    if let NodeLoc::AtWorker(w) = *loc {
                        if slot < self.replicas {
                            pool.recall(w, slot);
                        } else {
                            pool.recall_cert(w, slot - self.replicas);
                        }
                        self.recalls += 1;
                        any = true;
                    }
                }
                while any && self.lease.iter().any(|l| *l != NodeLoc::Home) {
                    let msg = self.blocking_next();
                    self.absorb(msg, state, sc, shards, certs);
                }
            }
        }
    }
}

/// Replays per-shard transcripts and deferred stoppers in the exact global
/// sequential order.
///
/// The sequential driver would have interleaved the window's events across
/// replicas by `(timestamp, queue sequence)`; sequence numbers are assigned
/// at insertion. The replay walks a heap of window entries keyed like the
/// sequential pop order: every batch event (step or deferred stopper) at
/// its pop rank, every generated event at its generation rank. Everything
/// the *true stopper* — the first event still queued behind the window —
/// is junior to goes back to the queue: emissions at or past its timestamp
/// re-enter via [`EventQueue::merge`] at their generation position (every
/// window item pops sequentially *before* the stopper, so their insertions
/// all precede any post-stopper processing — the relative order is exact).
/// Everything *senior* to the stopper executes inline right here, at its
/// precise slot in the sequential order:
///
/// * a deferred stopper runs through [`ClusterState::handle`] at its pop
///   rank — its shard was barred from that key onward, so the node state
///   it touches is exactly the sequential state;
/// * a batch step the shard's barriers skipped runs through
///   [`ClusterState::handle`] at its own key — by then every deferred
///   stopper and emission that raised the barrier has itself been handled;
/// * a pre-stopper emission (completion, certification send, overflow step)
///   is handled at its key, after its shard's transcript is necessarily
///   exhausted (each shard stops at its consequence barriers, so no
///   in-window work on that replica follows the emission's key).
///
/// Inline handling *schedules* events; those may land before later replay
/// entries, and sequentially they would pop in between. The loop therefore
/// interleaves the two streams: before each replay entry, any queue event
/// that sequentially precedes it — earlier timestamp, or an equal
/// timestamp with a sequence number below the entry's generation stamp —
/// is popped and handled first. Pre-existing queue events never qualify
/// (every replay entry is senior to the true stopper by construction), so
/// the interleave only ever runs events the replay itself produced. This
/// is what closes the same-microsecond tie corner: follow-ups of
/// inline-handled stoppers and emissions receive their sequence numbers at
/// the handler's pop position, exactly as sequential insertion would.
/// Streaming addition for the pipelined pool: the replay does not wait for
/// the shards. Inline results arrive via `ready`; pool transcripts stream
/// in through `feed` — awaited lazily at the first replay entry that needs
/// them ([`ShardFeed::ensure_transcript`]), so the merge of early shards
/// overlaps execution of late ones. Node presence is equally lazy: every
/// inline [`ClusterState::handle`] call is preceded by a
/// [`ShardFeed::ensure`] on the event's [`NodeDemand`], which recalls
/// leased nodes exactly when a handler would touch them. Neither changes
/// the order of handler invocations — only *when the coordinator waits*.
fn merge_window(
    batch: &mut Vec<(SimTime, WinItem)>,
    ready: Vec<ShardResult>,
    feed: &mut ShardFeed<'_>,
    state: &mut ClusterState,
    queue: &mut EventQueue<Ev>,
    sc: &mut MergeScratch,
) {
    let child_rank_base = batch.len() as u64;
    // The true stopper: the first event still queued behind the window.
    // Batch events are senior to it by FIFO even at equal timestamps;
    // generated children are strictly earlier; emissions may land at or
    // past it.
    let stop_ts = queue.peek_time();
    let pre_stopper = |at: SimTime| stop_ts.is_none_or(|s| at < s);
    // Index transcripts by replica (and cert records by group) as they
    // arrive.
    sc.slot_of.clear();
    sc.slot_of.resize(state.config.replicas, usize::MAX);
    sc.cert_slot_of.clear();
    sc.cert_slot_of.resize(state.cert_group_count(), usize::MAX);
    let mut shards: Vec<ShardCursor> = Vec::with_capacity(ready.len() + feed.pending);
    let mut certs: Vec<CertCursor> = Vec::new();
    for r in ready {
        feed.install(r, state, sc, &mut shards);
    }

    // Seed the replay with every batch event at its pop rank. Batch events
    // predate everything the replay can schedule, hence the MIN stamp.
    sc.heap.clear();
    for (rank, (at, item)) in batch.drain(..).enumerate() {
        let key = Key {
            at,
            rank: rank as u64,
        };
        let entry = match item {
            WinItem::Step { replica, txn } => ReplayEntry {
                key,
                stamp: i64::MIN,
                replica,
                action: Replay::Item(txn),
            },
            WinItem::Deferred(ev) => ReplayEntry {
                key,
                stamp: i64::MIN,
                replica: usize::MAX,
                action: Replay::Handle(ev),
            },
            WinItem::CertCheck { group } => ReplayEntry {
                key,
                stamp: i64::MIN,
                replica: usize::MAX,
                action: Replay::Cert(group),
            },
            WinItem::CertSend { .. } => {
                unreachable!("cert sends resolve to CertCheck or Deferred before the merge")
            }
        };
        sc.heap.push(Reverse(entry));
    }
    let mut next_rank = child_rank_base;
    while let Some((top_at, top_stamp)) = sc.heap.peek().map(|Reverse(e)| (e.key.at, e.stamp)) {
        // Keep lanes shallow: absorb transcripts that already landed.
        feed.poll(state, sc, &mut shards, &mut certs);
        // Interleave: events the inline handling scheduled that
        // sequentially precede the next replay entry pop first.
        if queue
            .peek_key()
            .is_some_and(|(at, seq)| at < top_at || (at == top_at && seq < top_stamp))
        {
            let (at, ev) = queue.pop().expect("peeked event vanished");
            feed.ensure(ev.footprint().demand(), state, sc, &mut shards, &mut certs);
            state.handle(at, ev, queue);
            feed.overlapped |= feed.pending > 0;
            if state.ended() {
                return;
            }
            continue;
        }
        let Reverse(entry) = sc.heap.pop().expect("peeked entry vanished");
        match entry.action {
            Replay::Item(txn) => {
                feed.ensure_transcript(entry.replica, state, sc, &mut shards, &mut certs);
                let slot = sc.slot_of[entry.replica];
                debug_assert_ne!(slot, usize::MAX, "window item for an absent shard");
                let take_unprocessed = {
                    let shard = &shards[slot];
                    entry.key.rank < child_rank_base
                        && shard
                            .unprocessed
                            .get(shard.unproc_i)
                            .is_some_and(|(rank, _)| *rank == entry.key.rank)
                };
                if take_unprocessed {
                    // A batch step the shard's barriers skipped: its
                    // sequential turn is exactly now — execute it inline
                    // (which touches the node, so pull it home first).
                    shards[slot].unproc_i += 1;
                    feed.ensure(
                        NodeDemand::Node(entry.replica),
                        state,
                        sc,
                        &mut shards,
                        &mut certs,
                    );
                    state.handle(
                        entry.key.at,
                        Ev::StepTxn {
                            replica: entry.replica,
                            txn,
                        },
                        queue,
                    );
                } else {
                    let shard = &mut shards[slot];
                    assert!(
                        shard.step_i < shard.steps.len(),
                        "transcript shorter than replayed items"
                    );
                    let rec = std::mem::replace(
                        &mut shard.steps[shard.step_i],
                        StepRec {
                            child_at: SimTime::ZERO,
                            child: ChildOut::Stale,
                            trace: Vec::new(),
                        },
                    );
                    shard.step_i += 1;
                    // This is the step's sequential pop slot: replay its
                    // buffered trace events before anything it scheduled.
                    state.tracer.replay(rec.trace);
                    match rec.child {
                        ChildOut::Local(ctxn) => {
                            let key = Key {
                                at: rec.child_at,
                                rank: next_rank,
                            };
                            next_rank += 1;
                            sc.heap.push(Reverse(ReplayEntry {
                                key,
                                stamp: queue.next_seq(),
                                replica: entry.replica,
                                action: Replay::Item(ctxn),
                            }));
                        }
                        ChildOut::Emit(ev) => {
                            let key = Key {
                                at: rec.child_at,
                                rank: next_rank,
                            };
                            next_rank += 1;
                            if pre_stopper(rec.child_at) {
                                sc.heap.push(Reverse(ReplayEntry {
                                    key,
                                    stamp: queue.next_seq(),
                                    replica: entry.replica,
                                    action: Replay::Handle(ev),
                                }));
                            } else {
                                queue.merge(rec.child_at, ev);
                            }
                        }
                        // A stale step scheduled nothing sequentially: no
                        // emission, nothing to replay.
                        ChildOut::Stale => {}
                    }
                }
            }
            Replay::Handle(ev) => {
                feed.ensure(ev.footprint().demand(), state, sc, &mut shards, &mut certs);
                state.handle(entry.key.at, ev, queue);
            }
            Replay::Cert(group) => {
                feed.ensure_cert_records(group, state, sc, &mut shards, &mut certs);
                let slot = sc.cert_slot_of[group];
                let cur = &mut certs[slot];
                let rec = cur.recs[cur.rec_i]
                    .take()
                    .expect("cert record consumed twice");
                cur.rec_i += 1;
                state.certify_decide(group, rec.replica, rec.txn, rec.ws, rec.check, queue);
            }
        }
        feed.overlapped |= feed.pending > 0;
        if state.ended() {
            // Nothing past an End would have executed sequentially either.
            return;
        }
    }
    debug_assert_eq!(feed.pending, 0, "transcripts outlived the replay");
    for mut shard in shards {
        debug_assert_eq!(
            shard.step_i,
            shard.steps.len(),
            "transcript longer than replayed items"
        );
        debug_assert_eq!(
            shard.unproc_i,
            shard.unprocessed.len(),
            "unprocessed batch events never replayed"
        );
        shard.steps.clear();
        sc.steps_pool.push(shard.steps);
        shard.unprocessed.clear();
        sc.unproc_pool.push(shard.unprocessed);
    }
    for mut cur in certs {
        debug_assert_eq!(
            cur.rec_i,
            cur.recs.len(),
            "cert records longer than replayed checks"
        );
        cur.recs.clear();
        sc.recs_pool.push(cur.recs);
    }
}

/// Persistent worker threads over dedicated SPSC lanes ([`crate::sync`]).
///
/// Each replica has a *stable affinity* — [`WorkerPool::worker_of`] maps
/// replica `r` to worker `r % workers` — so a worker that keeps a shard
/// lease across windows always receives that replica's next job on its own
/// lane, in FIFO order with any recall for the same node. That FIFO-per-lane
/// property is what makes leases race-free: a `Recall(r)` enqueued after a
/// `Job` for `r` cannot overtake it.
///
/// Workers rack leased nodes locally (`held`), run jobs with a
/// thread-local agenda heap, and send results (or the leased node, on
/// recall) back on their own result lane. Panics inside `run_shard` are
/// caught and forwarded as [`FromWorker::Panic`] so the coordinator
/// re-raises them instead of deadlocking on a result that never comes.
///
/// Windows are tens of microseconds of work, so both ends spin briefly
/// ([`sync::SPIN_LIMIT`]) before parking: a park/unpark wake-up costs
/// microseconds of futex latency per hop, which would swamp the overlapped
/// step work. Spinning is bounded, so idle stretches (long sequential runs
/// between windows) park the workers at ~zero CPU; [`WaitCounters`] records
/// the split so [`DriverStats::worker_idle_fraction`] can prove it.
struct WorkerPool {
    jobs: Vec<sync::Sender<ToWorker>>,
    results: Vec<sync::Receiver<FromWorker>>,
    /// Shared spin/park/busy accounting across all workers (cumulative for
    /// the pool's lifetime; the driver snapshots deltas per run).
    counters: Arc<WaitCounters>,
    /// Replica count — cert group `g`'s stable affinity is offset past the
    /// replicas' so cert work spreads over different workers.
    replicas: usize,
    handles: Vec<JoinHandle<()>>,
}

/// Per-lane ring capacity. A window dispatches at most one job per shard
/// and shards per worker are small, but recalls and jobs can stack several
/// deep during long runs; 64 slots make producer-full yields vanishingly
/// rare without measurable footprint.
const LANE_CAP: usize = 64;

impl WorkerPool {
    fn new(workers: usize, replicas: usize, cert_groups: usize) -> Self {
        let counters = Arc::new(WaitCounters::default());
        let mut jobs = Vec::with_capacity(workers);
        let mut results = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (job_tx, job_rx) = sync::channel::<ToWorker>(LANE_CAP);
            let (res_tx, res_rx) = sync::channel::<FromWorker>(LANE_CAP);
            let counters = Arc::clone(&counters);
            jobs.push(job_tx);
            results.push(res_rx);
            handles.push(
                thread::Builder::new()
                    .name(format!("tashkent-worker-{i}"))
                    .spawn(move || {
                        worker_main(job_rx, res_tx, counters, replicas, cert_groups);
                    })
                    .expect("spawn worker thread"),
            );
        }
        // Register the coordinator thread on every result lane up front so
        // workers can unpark it; `recv_any` relies on this.
        for rx in &results {
            rx.register();
        }
        WorkerPool {
            jobs,
            results,
            counters,
            replicas,
            handles,
        }
    }

    /// Stable shard affinity: replica `r` always runs on this worker.
    fn worker_of(&self, replica: usize) -> usize {
        replica % self.jobs.len()
    }

    /// Stable cert-group affinity: group `g` always runs on this worker,
    /// offset past the replica slots so certification overlaps execution.
    fn worker_of_cert(&self, group: usize) -> usize {
        (self.replicas + group) % self.jobs.len()
    }

    fn send_job(&self, job: Job) {
        let w = self.worker_of(job.replica);
        if self.jobs[w].send(ToWorker::Job(job)).is_err() {
            self.surface_death();
        }
    }

    fn send_cert_job(&self, job: CertJob) {
        let w = self.worker_of_cert(job.group);
        if self.jobs[w].send(ToWorker::CertJob(job)).is_err() {
            self.surface_death();
        }
    }

    /// Asks worker `w` (the lease holder) to send `replica`'s node home.
    fn recall(&self, w: usize, replica: usize) {
        if self.jobs[w].send(ToWorker::Recall(replica)).is_err() {
            self.surface_death();
        }
    }

    /// Asks worker `w` (the lease holder) to send group `g`'s cert shard
    /// home.
    fn recall_cert(&self, w: usize, group: usize) {
        if self.jobs[w].send(ToWorker::RecallCert(group)).is_err() {
            self.surface_death();
        }
    }

    /// Receives one message from any worker, spinning briefly before
    /// parking (workers unpark the registered coordinator on every push).
    fn recv_any(&self) -> FromWorker {
        let mut spins: u32 = 0;
        loop {
            let mut open = false;
            for rx in &self.results {
                if let Some(msg) = rx.try_recv() {
                    return msg;
                }
                open |= !rx.is_closed();
            }
            assert!(open, "worker threads died without reporting a result");
            if spins < sync::SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                // Re-scan after every wake-up: any lane may have filled.
                thread::park();
            }
        }
    }

    /// Non-blocking: one pending message, if any worker has one ready.
    fn try_recv_any(&self) -> Option<FromWorker> {
        self.results.iter().find_map(|rx| rx.try_recv())
    }

    /// A send failed because a worker hung up — the only way that happens
    /// is a panic mid-job, so drain the lanes for the payload and re-raise.
    #[cold]
    fn surface_death(&self) -> ! {
        while let Some(msg) = self.try_recv_any() {
            if let FromWorker::Panic(payload) = msg {
                std::panic::resume_unwind(payload);
            }
        }
        panic!("worker thread died without reporting a result");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.jobs.clear(); // Hang up; workers drain their lanes and exit.
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Reserves one cert group's window checks in pop order on the group's
/// service queue, recording when each ran (the verdict and the rest of the
/// decide replay on the coordinator).
fn run_cert_job(shard: &mut CertShard, job: &mut CertJob) {
    for item in job.checks.drain(..) {
        let check = shard.reserve_check(item.key.at);
        job.recs.push(Some(CertRec {
            replica: item.replica,
            txn: item.txn,
            ws: item.ws,
            check,
        }));
    }
}

/// Body of each pool worker: drain the job lane, racking leased nodes in
/// `held` (and cert shards in `held_certs`) between jobs, until the
/// coordinator hangs up.
fn worker_main(
    job_rx: sync::Receiver<ToWorker>,
    res_tx: sync::Sender<FromWorker>,
    counters: Arc<WaitCounters>,
    replicas: usize,
    cert_groups: usize,
) {
    let mut agenda = BinaryHeap::new();
    let mut held: Vec<Option<Box<ClusterNode>>> = (0..replicas).map(|_| None).collect();
    let mut held_certs: Vec<Option<Box<CertShard>>> = (0..cert_groups).map(|_| None).collect();
    loop {
        let msg = match job_rx.recv(&counters) {
            Some(msg) => msg,
            None => return, // Coordinator hung up; leased nodes drop with us.
        };
        let t0 = Instant::now();
        let out = match msg {
            ToWorker::Job(mut job) => {
                if job.node.is_none() {
                    // Leased from a previous window in this run.
                    job.node = Some(
                        held[job.replica]
                            .take()
                            .expect("job for a node neither sent nor leased"),
                    );
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_shard(job, &mut agenda)
                })) {
                    Ok(mut res) => {
                        // Keep the node racked here; the coordinator recalls
                        // it when the merge (or a stopper) needs it.
                        held[res.replica] = Some(res.node.take().expect("run_shard returns node"));
                        FromWorker::Shard(res)
                    }
                    Err(payload) => FromWorker::Panic(payload),
                }
            }
            ToWorker::Recall(replica) => match held[replica].take() {
                Some(node) => FromWorker::Node { replica, node },
                None => FromWorker::Panic(Box::new(format!(
                    "recall for replica {replica} but no node is held"
                ))),
            },
            ToWorker::CertJob(mut job) => {
                let mut shard = match job.shard.take() {
                    Some(shard) => shard,
                    // Leased from a previous window in this run.
                    None => held_certs[job.group]
                        .take()
                        .expect("cert job for a shard neither sent nor leased"),
                };
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_cert_job(&mut shard, &mut job);
                    job
                })) {
                    Ok(job) => {
                        held_certs[job.group] = Some(shard);
                        FromWorker::CertDone(CertResult {
                            group: job.group,
                            recs: job.recs,
                            checks: job.checks,
                        })
                    }
                    Err(payload) => FromWorker::Panic(payload),
                }
            }
            ToWorker::RecallCert(group) => match held_certs[group].take() {
                Some(shard) => FromWorker::CertHome { group, shard },
                None => FromWorker::Panic(Box::new(format!(
                    "recall for cert group {group} but no shard is held"
                ))),
            },
        };
        counters.add_busy_ns(t0.elapsed().as_nanos() as u64);
        let poisoned = matches!(out, FromWorker::Panic(_));
        if res_tx.send(out).is_err() || poisoned {
            return;
        }
    }
}

/// The windowed multi-threaded driver. See the module docs for the window
/// lifecycle and the exactness argument; [`ParallelDriver::new`] with `0`
/// threads sizes the pool to the host.
pub struct ParallelDriver {
    /// Requested worker count (`available_parallelism` is queried once; it
    /// is a syscall, far too slow for the per-window hot path).
    workers: usize,
    /// Workers the dispatch decision credits: `workers` clamped to the
    /// host's parallelism. Oversubscribed workers cannot overlap, so on a
    /// small host the pooled path would pay handoffs for nothing — windows
    /// run inline instead. [`ParallelDriver::with_min_dispatch`] lifts the
    /// clamp so stress tests exercise the pool anywhere.
    effective: usize,
    /// Smallest window (step events + cert checks) worth a channel
    /// round-trip per shard; smaller windows run inline on the
    /// coordinator. Purely a performance knob — both paths run the
    /// identical algorithm.
    min_dispatch: usize,
    /// Whether `min_dispatch` retunes itself from the measured
    /// handoff-stall histogram ([`DriverKind::Parallel`]; explicit
    /// [`ParallelDriver::with_min_dispatch`] turns it off). Wall-clock
    /// only: the threshold never changes simulation results.
    auto_tune: bool,
    /// Pooled windows observed since the run started (auto-tune sample).
    tune_windows: u64,
    /// Coordinator stall nanoseconds across those windows.
    tune_stall_ns: u64,
    /// Step events dispatched across those windows.
    tune_steps: u64,
    /// Pool busy-ns counter at run start (the pool counter is cumulative).
    tune_busy0: u64,
    pool: Option<WorkerPool>,
    stats: DriverStats,
    /// Print the stats summary at the end of the run
    /// (`TASHKENT_DRIVER_STATS`).
    print_stats: bool,
    /// Where each replica's node (slots `0..replicas`) and each certifier
    /// group's shard (slots `replicas..`) lives right now. Leases persist
    /// across pooled windows; anything that demands one recalls it first.
    lease: Vec<NodeLoc>,
    /// Pooled windows since the last run-ending recall (see module docs).
    run_len: u64,
    // Recycled window-formation scratch: the size-proportional buffers
    // (batch, per-shard item/transcript vectors, replay heap, worker
    // agendas) are pooled across windows; only the few-elements-long
    // `jobs` vector still allocates per window.
    batch: Vec<(SimTime, WinItem)>,
    job_of: Vec<usize>,
    cert_job_of: Vec<usize>,
    defer_barrier: Vec<Option<Key>>,
    agenda: BinaryHeap<Reverse<(Key, u64, usize)>>,
    merge: MergeScratch,
}

/// The auto-tuned dispatch threshold: the measured mean coordinator stall
/// per pooled window, divided by the mean worker-busy nanoseconds per
/// dispatched step, estimates how many step events a window must carry
/// before overlapped execution amortizes the handoff; clamping keeps the
/// threshold inside the productive band even on noisy samples.
fn tuned_min_dispatch(
    stall_ns: u64,
    pooled_windows: u64,
    busy_ns: u64,
    steps: u64,
    fallback: usize,
) -> usize {
    if pooled_windows == 0 || steps == 0 || busy_ns == 0 {
        return fallback;
    }
    let stall_per_window = stall_ns / pooled_windows;
    let busy_per_step = (busy_ns / steps).max(1);
    (stall_per_window / busy_per_step).clamp(2, 64) as usize
}

impl ParallelDriver {
    /// Smallest window dispatched to worker threads by default: below this
    /// the per-shard channel round-trip costs more than the overlapped step
    /// work buys (steps are sub-microsecond; even an SPSC hop is not).
    const MIN_DISPATCH: usize = 8;

    /// Creates the driver with `threads` workers (`0` = host parallelism).
    pub fn new(threads: usize) -> Self {
        let host = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = if threads > 0 { threads } else { host };
        ParallelDriver {
            workers,
            effective: workers.min(host),
            min_dispatch: Self::MIN_DISPATCH,
            auto_tune: true,
            tune_windows: 0,
            tune_stall_ns: 0,
            tune_steps: 0,
            tune_busy0: 0,
            pool: None,
            stats: DriverStats::default(),
            print_stats: std::env::var_os("TASHKENT_DRIVER_STATS").is_some(),
            lease: Vec::new(),
            run_len: 0,
            batch: Vec::new(),
            job_of: Vec::new(),
            cert_job_of: Vec::new(),
            defer_barrier: Vec::new(),
            agenda: BinaryHeap::new(),
            merge: MergeScratch::default(),
        }
    }

    /// Overrides the smallest step count dispatched to worker threads
    /// (stress/testing; `0` forces every multi-shard window through the
    /// pool). Also lifts the host-parallelism clamp, so the pooled path is
    /// exercised even on single-core machines, and disables the
    /// handoff-stall auto-tuner — an explicit threshold always wins.
    pub fn with_min_dispatch(mut self, min_dispatch: usize) -> Self {
        self.min_dispatch = min_dispatch;
        self.effective = self.workers;
        self.auto_tune = false;
        self
    }

    /// Drains one pool message during a between-window recall, returning
    /// whether it was a homecoming (node or cert shard). Transcripts that
    /// arrive in the meantime are recycled — between windows every merge
    /// has completed, so any stray transcript was orphaned by an `End`.
    fn drain_recall_msg(
        msg: FromWorker,
        state: &mut ClusterState,
        lease: &mut [NodeLoc],
        merge: &mut MergeScratch,
    ) -> bool {
        match msg {
            FromWorker::Node { replica, node } => {
                state.put_node(replica, node);
                lease[replica] = NodeLoc::Home;
                true
            }
            FromWorker::CertHome { group, shard } => {
                state.put_cert_shard(group, shard);
                lease[state.config.replicas + group] = NodeLoc::Home;
                true
            }
            FromWorker::Shard(res) => {
                merge.recycle(res);
                false
            }
            FromWorker::CertDone(res) => {
                merge.recycle_cert(res);
                false
            }
            FromWorker::Panic(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Pulls one replica's node home if it is leased to a worker. Used for
    /// between-window events that demand a single node — the run (and every
    /// other lease) stays alive.
    fn recall_node(&mut self, state: &mut ClusterState, replica: usize) {
        let NodeLoc::AtWorker(w) = self.lease[replica] else {
            return;
        };
        let ParallelDriver {
            pool,
            lease,
            merge,
            stats,
            ..
        } = self;
        let pool = pool.as_ref().expect("lease without a pool");
        pool.recall(w, replica);
        stats.recalls += 1;
        while lease[replica] != NodeLoc::Home {
            let msg = pool.recv_any();
            Self::drain_recall_msg(msg, state, lease, merge);
        }
    }

    /// Pulls the touched cert groups' shards home if leased. Used for
    /// between-window certification events under sharding — the run (and
    /// every other lease) stays alive.
    fn recall_cert_groups(&mut self, state: &mut ClusterState, mask: u64) {
        let replicas = state.config.replicas;
        let ParallelDriver {
            pool,
            lease,
            merge,
            stats,
            ..
        } = self;
        let mut m = mask;
        while m != 0 {
            let g = m.trailing_zeros() as usize;
            m &= m - 1;
            let slot = replicas + g;
            let Some(NodeLoc::AtWorker(w)) = lease.get(slot).copied() else {
                continue;
            };
            let pool = pool.as_ref().expect("lease without a pool");
            pool.recall_cert(w, g);
            stats.recalls += 1;
            while lease[slot] != NodeLoc::Home {
                let msg = pool.recv_any();
                Self::drain_recall_msg(msg, state, lease, merge);
            }
        }
    }

    /// Pulls every leased node and cert shard home and ends the current
    /// lease run. Called for events that demand all nodes (true barriers)
    /// and at end of run.
    fn recall_all(&mut self, state: &mut ClusterState) {
        self.run_len = 0;
        let replicas = state.config.replicas;
        let ParallelDriver {
            pool,
            lease,
            merge,
            stats,
            ..
        } = self;
        let Some(pool) = pool.as_ref() else {
            return;
        };
        let mut outstanding = 0u64;
        for (slot, loc) in lease.iter().enumerate() {
            if let NodeLoc::AtWorker(w) = *loc {
                if slot < replicas {
                    pool.recall(w, slot);
                } else {
                    pool.recall_cert(w, slot - replicas);
                }
                stats.recalls += 1;
                outstanding += 1;
            }
        }
        while outstanding > 0 {
            let msg = pool.recv_any();
            if Self::drain_recall_msg(msg, state, lease, merge) {
                outstanding -= 1;
            }
        }
    }

    /// Executes one lookahead window starting from the already-popped
    /// window-starter (`StepTxn`, or `CertifySend` under sharded
    /// certification) at `t0`.
    fn run_window(
        &mut self,
        state: &mut ClusterState,
        queue: &mut EventQueue<Ev>,
        t0: SimTime,
        first: Ev,
    ) {
        let lan_hop_us = state.lan_hop_us();
        let horizon = t0 + 4 * lan_hop_us;
        // A window-compatible event: inside the horizon and not
        // cross-cutting. Steps shard out; other non-global stoppers defer.
        let windowable =
            |t: SimTime, ev: &Ev| t <= horizon && !matches!(ev.footprint(), Footprint::Global);
        // Lone starters dominate sparse phases; peek before paying for
        // window formation on the hottest event types.
        if !matches!(queue.peek(), Some((t, ev)) if windowable(t, ev)) {
            self.stats.observe_single();
            // A lone starter touches only its own node (or cert groups);
            // pull just those home — the other leases (and the run)
            // survive.
            match first.footprint().demand() {
                NodeDemand::NoNode => {}
                NodeDemand::Node(r) => self.recall_node(state, r),
                NodeDemand::CertGroups(mask) => self.recall_cert_groups(state, mask),
                NodeDemand::AllNodes => self.recall_all(state),
            }
            state.handle(t0, first, queue);
            return;
        }
        let replicas = state.config.replicas;
        self.batch.clear();
        self.defer_barrier.clear();
        self.defer_barrier.resize(replicas, None);
        // Barrier every shard observes (deferred dispatch events: the
        // submitted transaction's first step may land on any replica two
        // hops out).
        let mut all_barrier: Option<Key> = None;
        let mut n_steps: u64 = 0;
        // Sharded certification: groups touched by sends destined for
        // inline handling (cross-group, late, unavailable) — later sends
        // into them must stay inline too — plus the candidate checks and
        // groups for worker dispatch.
        let mut cert_inline_mask: u64 = 0;
        let mut n_cert_inline: u64 = 0;
        let mut cand_mask: u64 = 0;
        let mut n_checks: u64 = 0;
        // The starter runs through the same classification as every popped
        // event — it is simply the window's rank-0 item.
        let mut next = Some((t0, first));
        while let Some((t, ev)) = next.take().or_else(|| queue.pop_if(windowable)) {
            let rank = self.batch.len() as u64;
            match ev {
                Ev::StepTxn { replica, txn } => {
                    n_steps += 1;
                    self.batch.push((t, WinItem::Step { replica, txn }));
                }
                Ev::CertifySend {
                    replica: origin,
                    txn,
                    ws,
                    groups,
                } if groups.count_ones() == 1
                    && t <= t0 + lan_hop_us
                    && groups & cert_inline_mask == 0
                    && !state.origin_partitioned(origin)
                    && state
                        .cert_link()
                        .group_of(groups.trailing_zeros() as usize)
                        .is_available() =>
                {
                    // Worker-checkable (see the module docs, "Sharded
                    // certification in the window"): the group's shard
                    // reserves the check's service time on its pool worker;
                    // the decision replays inline at this exact rank. The
                    // certifier's answer still reaches the origin no earlier
                    // than one hop out, so the origin's barrier is the same
                    // as for a deferred send.
                    let key = Key {
                        at: t + lan_hop_us,
                        rank,
                    };
                    let slot = &mut self.defer_barrier[origin];
                    *slot = Some(slot.map_or(key, |b| b.min(key)));
                    cand_mask |= groups;
                    n_checks += 1;
                    self.batch.push((
                        t,
                        WinItem::CertSend {
                            replica: origin,
                            txn,
                            ws,
                            groups,
                        },
                    ));
                }
                ev => {
                    if let Ev::CertifySend { groups, .. } = &ev {
                        cert_inline_mask |= *groups;
                        n_cert_inline += 1;
                    }
                    // A deferred stopper: the merge will handle it inline at
                    // this exact pop rank; bar the shard(s) it can reach
                    // from the first key its handling can touch them at.
                    match ev.footprint() {
                        Footprint::Replica(r) => {
                            let key = Key { at: t, rank };
                            let slot = &mut self.defer_barrier[r];
                            *slot = Some(slot.map_or(key, |b| b.min(key)));
                        }
                        Footprint::Certifier { groups: _, origin } => {
                            let key = Key {
                                at: t + lan_hop_us,
                                rank,
                            };
                            let slot = &mut self.defer_barrier[origin];
                            *slot = Some(slot.map_or(key, |b| b.min(key)));
                        }
                        Footprint::Dispatch => {
                            let key = Key {
                                at: t + 2 * lan_hop_us,
                                rank,
                            };
                            all_barrier = Some(all_barrier.map_or(key, |b| b.min(key)));
                        }
                        Footprint::Global => unreachable!("windowable excludes global events"),
                    }
                    self.batch.push((t, WinItem::Deferred(ev)));
                }
            }
        }
        let stop_ts = queue.peek_time().unwrap_or(SimTime::from_micros(u64::MAX));
        let child_rank_base = self.batch.len() as u64;

        // Shard the steps by replica, preserving pop order within each.
        let mut jobs: Vec<Job> = Vec::new();
        self.job_of.clear();
        self.job_of.resize(replicas, usize::MAX);
        for (rank, (at, item)) in self.batch.iter().enumerate() {
            let WinItem::Step { replica, txn } = item else {
                continue;
            };
            let key = Key {
                at: *at,
                rank: rank as u64,
            };
            if self.job_of[*replica] == usize::MAX {
                self.job_of[*replica] = jobs.len();
                jobs.push(Job {
                    replica: *replica,
                    // Resolved at dispatch: taken from state, or already
                    // racked at the leased worker.
                    node: None,
                    items: self.merge.items_pool.pop().unwrap_or_default(),
                    horizon,
                    stop_ts,
                    defer_barrier: match (self.defer_barrier[*replica], all_barrier) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    },
                    child_rank_base,
                    lan_hop_us,
                    steps: self.merge.steps_pool.pop().unwrap_or_default(),
                    unprocessed: self.merge.unproc_pool.pop().unwrap_or_default(),
                });
            }
            jobs[self.job_of[*replica]].items.push((key, *txn));
        }

        // Certification checks count toward the dispatch economics like
        // steps: a window with one replica job and one cert job still
        // overlaps (checks run while the merge replays steps).
        let n_cert_jobs = cand_mask.count_ones() as usize;
        let pooled = jobs.len() + n_cert_jobs >= 2
            && self.effective >= 2
            && (n_steps + n_checks) as usize >= self.min_dispatch;
        self.stats.observe_window(
            n_steps,
            child_rank_base - n_steps,
            jobs.len() as u64,
            pooled,
        );
        let mut cert_jobs: Vec<CertJob> = Vec::new();
        if pooled {
            // Resolve each eligible send into its group's cert job, in pop
            // order; the batch slot becomes the check's replay marker.
            self.stats.certifier_sharded += n_checks;
            self.stats.certifier_inline += n_cert_inline;
            if n_cert_jobs > 0 {
                self.cert_job_of.clear();
                self.cert_job_of
                    .resize(state.cert_group_count(), usize::MAX);
                cert_jobs.reserve(n_cert_jobs);
                for (rank, (at, item)) in self.batch.iter_mut().enumerate() {
                    if !matches!(item, WinItem::CertSend { .. }) {
                        continue;
                    }
                    let WinItem::CertSend {
                        replica,
                        txn,
                        ws,
                        groups,
                    } = std::mem::replace(item, WinItem::CertCheck { group: 0 })
                    else {
                        unreachable!()
                    };
                    let g = groups.trailing_zeros() as usize;
                    *item = WinItem::CertCheck { group: g };
                    if self.cert_job_of[g] == usize::MAX {
                        self.cert_job_of[g] = cert_jobs.len();
                        cert_jobs.push(CertJob {
                            group: g,
                            shard: None, // Resolved at dispatch.
                            checks: self.merge.checks_pool.pop().unwrap_or_default(),
                            recs: self.merge.recs_pool.pop().unwrap_or_default(),
                        });
                    }
                    cert_jobs[self.cert_job_of[g]].checks.push(CertCheckItem {
                        key: Key {
                            at: *at,
                            rank: rank as u64,
                        },
                        replica,
                        txn,
                        ws,
                    });
                }
            }
        } else {
            // Inline windows never form cert jobs: demote every eligible
            // send back to a deferred stopper.
            self.stats.certifier_inline += n_cert_inline + n_checks;
            for (_, item) in self.batch.iter_mut() {
                if !matches!(item, WinItem::CertSend { .. }) {
                    continue;
                }
                let WinItem::CertSend {
                    replica,
                    txn,
                    ws,
                    groups,
                } = std::mem::replace(item, WinItem::CertCheck { group: 0 })
                else {
                    unreachable!()
                };
                *item = WinItem::Deferred(Ev::CertifySend {
                    replica,
                    txn,
                    ws,
                    groups,
                });
            }
        }
        if pooled {
            if self.run_len == 0 {
                self.stats.runs += 1;
            }
            self.run_len += 1;
            self.stats.max_run_windows = self.stats.max_run_windows.max(self.run_len);
            let workers = self.workers;
            let replicas = state.config.replicas;
            let cert_groups = state.cert_group_count();
            let ParallelDriver {
                pool,
                lease,
                merge,
                stats,
                batch,
                min_dispatch,
                auto_tune,
                tune_windows,
                tune_stall_ns,
                tune_steps,
                tune_busy0,
                ..
            } = self;
            let pool = pool.get_or_insert_with(|| WorkerPool::new(workers, replicas, cert_groups));
            let pending = jobs.len() + cert_jobs.len();
            for mut job in jobs {
                match lease[job.replica] {
                    NodeLoc::Home => {
                        job.node = Some(state.take_node(job.replica));
                        lease[job.replica] = NodeLoc::AtWorker(pool.worker_of(job.replica));
                    }
                    NodeLoc::AtWorker(_) => {
                        // The worker still racks it from the previous
                        // window of this run; the job travels light.
                        stats.leases_retained += 1;
                    }
                }
                pool.send_job(job);
            }
            for mut cj in cert_jobs {
                match lease[replicas + cj.group] {
                    NodeLoc::Home => {
                        cj.shard = Some(state.take_cert_shard(cj.group));
                        lease[replicas + cj.group] =
                            NodeLoc::AtWorker(pool.worker_of_cert(cj.group));
                    }
                    NodeLoc::AtWorker(_) => {
                        stats.leases_retained += 1;
                    }
                }
                pool.send_cert_job(cj);
            }
            let mut feed = ShardFeed::new(Some(&*pool), lease, replicas, pending);
            merge_window(batch, Vec::new(), &mut feed, state, queue, merge);
            stats.observe_handoff(feed.stall_ns);
            stats.recalls += feed.recalls;
            if feed.overlapped {
                stats.pipelined += 1;
            }
            if *auto_tune {
                // Satellite: retune the dispatch threshold from the
                // measured handoff stalls — seeded after the first few
                // pooled windows, refreshed periodically. Wall-clock only;
                // simulation results never depend on the threshold.
                *tune_windows += 1;
                *tune_stall_ns += feed.stall_ns;
                *tune_steps += n_steps;
                if *tune_windows == 8 || *tune_windows % 32 == 0 {
                    let (_, _, _, busy) = pool.counters.snapshot();
                    *min_dispatch = tuned_min_dispatch(
                        *tune_stall_ns,
                        *tune_windows,
                        busy.saturating_sub(*tune_busy0),
                        *tune_steps,
                        Self::MIN_DISPATCH,
                    );
                }
            }
        } else {
            let mut ready = Vec::with_capacity(jobs.len());
            for mut job in jobs {
                // Inline execution touches the node on this thread: any
                // lease from an earlier pooled window must come home first.
                self.recall_node(state, job.replica);
                job.node = Some(state.take_node(job.replica));
                ready.push(run_shard(job, &mut self.agenda));
            }
            let replicas = state.config.replicas;
            let ParallelDriver {
                pool,
                lease,
                merge,
                stats,
                batch,
                ..
            } = self;
            let mut feed = ShardFeed::new(pool.as_ref(), lease, replicas, 0);
            merge_window(batch, ready, &mut feed, state, queue, merge);
            stats.recalls += feed.recalls;
        }
    }
}

impl Driver for ParallelDriver {
    fn run_to_end(
        &mut self,
        state: &mut ClusterState,
        queue: &mut EventQueue<Ev>,
    ) -> Result<(), RunError> {
        // Per-run accounting: a reused driver must not blend runs. The
        // pool's wait counters are cumulative for its lifetime, so worker
        // numbers are reported as deltas from this snapshot.
        self.stats = DriverStats::default();
        self.lease.clear();
        self.lease.resize(
            state.config.replicas + state.cert_group_count(),
            NodeLoc::Home,
        );
        self.run_len = 0;
        let counters0 = self
            .pool
            .as_ref()
            .map(|p| p.counters.snapshot())
            .unwrap_or_default();
        self.tune_windows = 0;
        self.tune_stall_ns = 0;
        self.tune_steps = 0;
        self.tune_busy0 = counters0.3;
        let result = loop {
            if state.ended() {
                break Ok(());
            }
            let Some((now, ev)) = queue.pop() else {
                break Err(RunError::QueueDrained { at: queue.now() });
            };
            match ev {
                Ev::StepTxn { .. } => self.run_window(state, queue, now, ev),
                // Under sharded certification, a certify send is a window
                // starter too: bursts of near-simultaneous sends form
                // cert-heavy windows whose per-group checks run on the pool.
                Ev::CertifySend { .. } if state.cert_group_count() > 0 => {
                    self.run_window(state, queue, now, ev)
                }
                ev => {
                    // A between-window stopper: pull home exactly the nodes
                    // its handler can touch. An all-nodes demand is a true
                    // barrier — it ends the current lease run.
                    match ev.footprint().demand() {
                        NodeDemand::NoNode => {}
                        NodeDemand::Node(r) => self.recall_node(state, r),
                        NodeDemand::CertGroups(mask) => self.recall_cert_groups(state, mask),
                        NodeDemand::AllNodes => self.recall_all(state),
                    }
                    state.handle(now, ev, queue);
                }
            }
        };
        // Leave every node home: callers inspect state after the run.
        self.recall_all(state);
        if let Some(pool) = self.pool.as_ref() {
            let (spins, parks, parked_ns, busy_ns) = pool.counters.snapshot();
            self.stats.worker_spins = spins - counters0.0;
            self.stats.worker_parks = parks - counters0.1;
            self.stats.worker_parked_ns = parked_ns - counters0.2;
            self.stats.worker_busy_ns = busy_ns - counters0.3;
        }
        state.driver_stats = Some(self.stats);
        if self.print_stats {
            eprintln!("{}", self.stats.summary());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, PolicySpec};
    use tashkent_workloads::tpcw::{self, TpcwScale};

    /// Drives a tiny cluster to completion under `driver`, returning the
    /// result fingerprint and the driver's window stats (`None` for the
    /// sequential reference).
    fn drive(mut driver: Box<dyn Driver>) -> ((u64, u64, u64, u64), Option<DriverStats>) {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let config = ClusterConfig {
            replicas: 3,
            clients: 9,
            think_mean_us: 200_000,
            ..ClusterConfig::paper_default()
        };
        let mut state = ClusterState::new(config, workload, vec![mix]);
        let mut queue = EventQueue::new();
        state.prime(&mut queue);
        queue.schedule(SimTime::from_secs(2), Ev::EndWarmup);
        queue.schedule(SimTime::from_secs(12), Ev::End);
        driver
            .run_to_end(&mut state, &mut queue)
            .expect("End event scheduled");
        let (read, write) = state.disk_bytes();
        let r = state.metrics.finish(queue.now(), read, write, Vec::new());
        ((r.committed, r.aborts, read, write), state.driver_stats)
    }

    fn fingerprint(driver: Box<dyn Driver>) -> (u64, u64, u64, u64) {
        drive(driver).0
    }

    #[test]
    fn forced_pooled_windows_match_sequential() {
        // `min_dispatch = 0` forces every multi-shard window through the
        // mpsc worker pool, even the tiny ones the production threshold
        // keeps inline — the channel path must be just as exact.
        let pooled = ParallelDriver::new(2).with_min_dispatch(0);
        assert_eq!(
            fingerprint(Box::new(SequentialDriver)),
            fingerprint(Box::new(pooled)),
        );
    }

    #[test]
    fn deferral_produces_larger_windows_than_step_only_stops() {
        // With deferral, certifier round-trips and completions no longer
        // terminate windows: the same run must both match the sequential
        // fingerprint and actually defer stoppers.
        let (seq, _) = drive(Box::new(SequentialDriver));
        let (par, stats) = drive(Box::new(ParallelDriver::new(2)));
        let stats = stats.expect("parallel driver records stats");
        assert!(stats.deferred > 0, "run must defer stoppers: {stats:?}");
        assert!(stats.windows > 0);
        assert_eq!(seq, par);
    }

    /// A 3-replica state + queue pair for merge-order tests.
    fn tiny_state_with(policy: PolicySpec) -> (ClusterState, EventQueue<Ev>) {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let config = ClusterConfig {
            replicas: 3,
            clients: 3,
            ..ClusterConfig::paper_default()
        }
        .with_policy(policy);
        (
            ClusterState::new(config, workload, vec![mix]),
            EventQueue::new(),
        )
    }

    fn tiny_state() -> (ClusterState, EventQueue<Ev>) {
        tiny_state_with(PolicySpec::LeastConnections)
    }

    /// Marker for `LbTick` in drained-queue assertions.
    const TICK: u64 = u64::MAX;
    /// Marker for `TxnRetry` in drained-queue assertions.
    const RETRY: u64 = u64::MAX - 1;

    /// Drains the queue into `(time, txn-or-marker)` pairs: `TxnComplete`
    /// and `StepTxn` map to their transaction id, `LbTick` to [`TICK`],
    /// `TxnRetry` to [`RETRY`].
    fn drain(queue: &mut EventQueue<Ev>) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| queue.pop())
            .map(|(at, ev)| match ev {
                Ev::TxnComplete { txn, .. } | Ev::StepTxn { txn, .. } => (at, txn.0),
                Ev::LbTick => (at, TICK),
                Ev::TxnRetry { .. } => (at, RETRY),
                other => panic!("unexpected event in merge test: {other:?}"),
            })
            .collect()
    }

    fn emit_complete(replica: usize, txn: u64, at: SimTime) -> StepRec {
        StepRec {
            child_at: at,
            trace: Vec::new(),
            child: ChildOut::Emit(Ev::TxnComplete {
                replica,
                txn: TxnId(txn),
                committed: true,
            }),
        }
    }

    fn step_item(at: SimTime, replica: usize, txn: u64) -> (SimTime, WinItem) {
        (
            at,
            WinItem::Step {
                replica,
                txn: TxnId(txn),
            },
        )
    }

    fn shard_result(
        state: &mut ClusterState,
        replica: usize,
        steps: Vec<StepRec>,
        unprocessed_batch: Vec<(u64, TxnId)>,
    ) -> ShardResult {
        ShardResult {
            replica,
            node: Some(state.take_node(replica)),
            items: Vec::new(),
            steps,
            unprocessed_batch,
        }
    }

    fn run_merge(
        batch: Vec<(SimTime, WinItem)>,
        results: Vec<ShardResult>,
        state: &mut ClusterState,
        queue: &mut EventQueue<Ev>,
    ) {
        let mut batch = batch;
        let mut lease = vec![NodeLoc::Home; state.config.replicas];
        let mut feed = ShardFeed::new(None, &mut lease, state.config.replicas, 0);
        merge_window(
            &mut batch,
            results,
            &mut feed,
            state,
            queue,
            &mut MergeScratch::default(),
        );
    }

    /// Regression for the `merge_window` same-microsecond tie corner: two
    /// shards emitting at an *identical* timestamp must replay in batch pop
    /// order, and both must stay junior to an event that was already queued
    /// at that instant (the true stopper) — exactly the sequential
    /// insertion order.
    #[test]
    fn same_instant_cross_shard_emissions_replay_in_pop_order() {
        let (mut state, mut queue) = tiny_state();
        let t = SimTime::from_micros(100);
        // Sequential schedule order: step(0), step(1), then the stopper.
        for (replica, txn) in [(0usize, 7000u64), (1, 7001)] {
            queue.schedule(
                t,
                Ev::StepTxn {
                    replica,
                    txn: TxnId(txn),
                },
            );
        }
        queue.schedule(t, Ev::LbTick);
        // The window pops both steps (they are senior to the stopper).
        let batch = vec![step_item(t, 0, 7000), step_item(t, 1, 7001)];
        queue
            .pop_if(|_, ev| matches!(ev, Ev::StepTxn { .. }))
            .unwrap();
        queue
            .pop_if(|_, ev| matches!(ev, Ev::StepTxn { .. }))
            .unwrap();
        let results = vec![
            shard_result(&mut state, 0, vec![emit_complete(0, 7000, t)], Vec::new()),
            shard_result(&mut state, 1, vec![emit_complete(1, 7001, t)], Vec::new()),
        ];
        run_merge(batch, results, &mut state, &mut queue);
        // Sequentially: the stopper's seq predates both emissions.
        assert_eq!(drain(&mut queue), vec![(t, u64::MAX), (t, 7000), (t, 7001)]);
    }

    /// Same-instant emissions from shards whose batch events *interleave*
    /// (replica 0, replica 1, replica 0 again at one timestamp) must merge
    /// in global batch-rank order, not per-shard order. The stopper bounds
    /// the window at the same instant, so the emissions take the queue
    /// path; being junior, they pop after it.
    #[test]
    fn same_instant_interleaved_shards_keep_global_rank_order() {
        let (mut state, mut queue) = tiny_state();
        let t = SimTime::from_micros(250);
        queue.schedule(t, Ev::LbTick); // The stopper, bounding the window.
        let batch = vec![
            step_item(t, 0, 10),
            step_item(t, 1, 11),
            step_item(t, 0, 12),
        ];
        let results = vec![
            shard_result(
                &mut state,
                0,
                vec![emit_complete(0, 10, t), emit_complete(0, 12, t)],
                Vec::new(),
            ),
            shard_result(&mut state, 1, vec![emit_complete(1, 11, t)], Vec::new()),
        ];
        run_merge(batch, results, &mut state, &mut queue);
        assert_eq!(
            drain(&mut queue),
            vec![(t, u64::MAX), (t, 10), (t, 11), (t, 12)]
        );
    }

    /// Batch events a shard's barriers skipped execute *inline* during the
    /// replay, at their exact sequential slot — senior to the stopper even
    /// at a same-microsecond tie. Here the skipped transactions no longer
    /// exist (the crash-dropped shape), so their inline execution is a
    /// stale no-op and only the stopper remains queued; with live
    /// transactions the inline path is exercised end-to-end by the
    /// cross-driver equivalence suite.
    #[test]
    fn skipped_batch_events_execute_inline_during_the_replay() {
        let (mut state, mut queue) = tiny_state();
        let t = SimTime::from_micros(400);
        queue.schedule(t, Ev::LbTick); // The stopper, queued behind the batch.
        let batch = vec![step_item(t, 0, 1), step_item(t, 0, 2)];
        let results = vec![shard_result(
            &mut state,
            0,
            Vec::new(),
            vec![(0, TxnId(1)), (1, TxnId(2))],
        )];
        run_merge(batch, results, &mut state, &mut queue);
        assert_eq!(drain(&mut queue), vec![(t, u64::MAX)]);
    }

    /// An emission strictly senior to the stopper is handled inline during
    /// the replay (so its follow-ups get their sequence numbers at its pop
    /// position — the closed tie corner), never merged into the queue.
    /// Here the completion refers to a transaction the state does not know
    /// (the orphaned shape), so the inline handling is a no-op and only the
    /// stopper remains.
    #[test]
    fn pre_stopper_emissions_are_handled_inline_not_queued() {
        let (mut state, mut queue) = tiny_state();
        let t = SimTime::from_micros(100);
        let stop = SimTime::from_micros(500);
        queue.schedule(stop, Ev::LbTick); // Stopper well past the emission.
        let batch = vec![step_item(t, 0, 7)];
        let results = vec![shard_result(
            &mut state,
            0,
            vec![emit_complete(0, 7, t)],
            Vec::new(),
        )];
        run_merge(batch, results, &mut state, &mut queue);
        assert_eq!(drain(&mut queue), vec![(stop, u64::MAX)]);
    }

    /// Stale steps (crash-dropped transactions) consume their transcript
    /// record without emitting anything; later emissions still land in
    /// order behind the same-instant stopper.
    #[test]
    fn stale_steps_merge_to_nothing() {
        let (mut state, mut queue) = tiny_state();
        let t = SimTime::from_micros(50);
        queue.schedule(t, Ev::LbTick); // The stopper, bounding the window.
        let batch = vec![step_item(t, 0, 3), step_item(t, 0, 4)];
        let results = vec![shard_result(
            &mut state,
            0,
            vec![
                StepRec {
                    child_at: t,
                    child: ChildOut::Stale,
                    trace: Vec::new(),
                },
                emit_complete(0, 4, t),
            ],
            Vec::new(),
        )];
        run_merge(batch, results, &mut state, &mut queue);
        assert_eq!(drain(&mut queue), vec![(t, u64::MAX), (t, 4)]);
    }

    /// A deferred stopper executes inline at its exact pop rank: senior to
    /// everything the replay schedules, junior to batch events popped
    /// before it — even when every key shares one microsecond.
    #[test]
    fn deferred_stoppers_replay_at_their_pop_rank() {
        let (mut state, mut queue) = tiny_state();
        let t = SimTime::from_micros(90);
        queue.schedule(t, Ev::LbTick); // The true stopper.
                                       // Pop order: step(0), deferred completion for an unknown txn (a
                                       // no-op on handle), step(0) again. The deferred entry must slot
                                       // between the two steps' emissions.
        let batch = vec![
            step_item(t, 0, 20),
            (
                t,
                WinItem::Deferred(Ev::TxnComplete {
                    replica: 2,
                    txn: TxnId(9999),
                    committed: true,
                }),
            ),
            step_item(t, 0, 21),
        ];
        let results = vec![shard_result(
            &mut state,
            0,
            vec![emit_complete(0, 20, t), emit_complete(0, 21, t)],
            Vec::new(),
        )];
        run_merge(batch, results, &mut state, &mut queue);
        // The deferred no-op leaves no trace; the emissions stay in pop
        // order behind the same-instant stopper.
        assert_eq!(drain(&mut queue), vec![(t, u64::MAX), (t, 20), (t, 21)]);
    }

    /// The regression the deferral design hinges on: a deferred
    /// `CertifyReturn` whose inline handling schedules same-microsecond
    /// work that must interleave exactly with *another* shard's replay at
    /// that very microsecond. The aborted return schedules a completion at
    /// its own instant; sequentially that completion pops *between* shard
    /// 1's two same-instant emissions (its sequence number falls between
    /// their insertion points), so the merge must handle it mid-replay —
    /// freeing replica 0's slot and sending the retry back to the client
    /// two hops out — not before or after the shard's entries.
    #[test]
    fn deferred_certify_return_interleaves_same_instant_work_across_shards() {
        let (mut state, mut queue) = tiny_state_with(PolicySpec::RoundRobin);
        // A real in-flight transaction on replica 0 (round-robin starts
        // there), so the certifier's abort response finds its metadata.
        state.handle(SimTime::ZERO, Ev::ClientArrive { client: 0 }, &mut queue);
        let (at, ev) = queue.pop().expect("arrival schedules the first step");
        assert!(matches!(ev, Ev::StepTxn { replica: 0, .. }), "{ev:?}");
        assert_eq!(at, SimTime::from_micros(300), "two LAN hops out");
        let t = SimTime::from_micros(400);
        queue.schedule(t + 1, Ev::LbTick); // True stopper, one µs later.
                                           // Window pop order: step on shard 1, the deferred abort return for
                                           // replica 0's transaction, another step on shard 1.
        let batch = vec![
            step_item(t, 1, 77),
            (
                t,
                WinItem::Deferred(Ev::CertifyReturn {
                    replica: 0,
                    txn: TxnId(0),
                    version: None,
                }),
            ),
            step_item(t, 1, 78),
        ];
        // Shard 1's transcript: both steps emit same-instant completions
        // for transactions the state does not know (inline no-ops standing
        // in for real window work at time `t`).
        let results = vec![shard_result(
            &mut state,
            1,
            vec![emit_complete(1, 77, t), emit_complete(1, 78, t)],
            Vec::new(),
        )];
        run_merge(batch, results, &mut state, &mut queue);
        // Sequential order inside the merge: step 77 (emission 77 stamped),
        // the deferred return (schedules TxnComplete{replica 0} at `t`),
        // step 78 (emission 78 stamped later), emission 77 (stamped before
        // the return's follow-up — handled first), the interleaved
        // TxnComplete{0} — which frees replica 0's slot and schedules the
        // client's retry two hops out — then emission 78. Left behind: the
        // stopper and the retry.
        assert_eq!(drain(&mut queue), vec![(t + 1, TICK), (t + 300, RETRY)],);
    }

    /// A job's deferred barrier stops the shard exactly at the barrier key:
    /// senior batch steps run, junior ones return as unprocessed for the
    /// merge to execute inline.
    #[test]
    fn defer_barrier_splits_a_shard_at_the_key() {
        let (mut state, _queue) = tiny_state();
        let t = SimTime::from_micros(100);
        let job = Job {
            replica: 0,
            node: Some(state.take_node(0)),
            // Two same-instant steps for transactions the node does not
            // run (stale): ranks 0 and 2 straddle the barrier at rank 1.
            items: vec![
                (Key { at: t, rank: 0 }, TxnId(50)),
                (Key { at: t, rank: 2 }, TxnId(51)),
            ],
            horizon: t + 300,
            stop_ts: t + 1000,
            defer_barrier: Some(Key { at: t, rank: 1 }),
            child_rank_base: 3,
            lan_hop_us: 150,
            steps: Vec::new(),
            unprocessed: Vec::new(),
        };
        let mut agenda = BinaryHeap::new();
        let result = run_shard(job, &mut agenda);
        assert_eq!(result.steps.len(), 1, "only the senior step ran");
        assert!(matches!(result.steps[0].child, ChildOut::Stale));
        assert_eq!(result.unprocessed_batch, vec![(2, TxnId(51))]);
        state.put_node(0, result.node.expect("inline results carry the node"));
    }

    #[test]
    fn keys_order_like_the_sequential_pop() {
        let t = SimTime::from_micros;
        let a = Key { at: t(5), rank: 3 };
        let b = Key { at: t(5), rank: 7 };
        let c = Key { at: t(6), rank: 0 };
        assert!(a < b, "same instant: earlier insertion pops first");
        assert!(b < c, "time dominates rank");
    }

    #[test]
    fn stats_histogram_buckets_by_log2() {
        let mut stats = DriverStats::default();
        stats.observe_single();
        stats.observe_window(2, 1, 1, false); // size 3 -> bucket 1
        stats.observe_window(6, 2, 2, true); // size 8 -> bucket 3
        assert_eq!(stats.size_hist[0], 1);
        assert_eq!(stats.size_hist[1], 1);
        assert_eq!(stats.size_hist[3], 1);
        assert_eq!(stats.items, 11);
        assert_eq!(stats.deferred, 3);
        assert!((stats.mean_window_items() - 5.5).abs() < 1e-9);
        assert!((stats.mean_window_incl_singles() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn driver_kind_builds_all_drivers() {
        let _ = DriverKind::Sequential.build();
        let _ = DriverKind::parallel().build();
        let _ = DriverKind::ParallelTuned {
            threads: 2,
            min_dispatch: 0,
        }
        .build();
        assert_eq!(DriverKind::default(), DriverKind::Sequential);
    }

    #[test]
    fn queue_drained_is_an_error_value() {
        let err = RunError::QueueDrained {
            at: SimTime::from_secs(2),
        };
        assert!(err.to_string().contains("2.000"));
    }

    /// A job whose generated-rank item survives to the drain loop with no
    /// generator record indexes out of bounds inside the worker; the pool
    /// must forward the payload instead of deadlocking the coordinator.
    #[test]
    fn worker_panics_propagate_from_the_persistent_pool() {
        let (mut state, _queue) = tiny_state();
        let t = SimTime::from_micros(100);
        let pool = WorkerPool::new(2, state.config.replicas, 0);
        pool.send_job(Job {
            replica: 0,
            node: Some(state.take_node(0)),
            // Rank 5 with `child_rank_base: 0` claims a generated child
            // whose generator record does not exist; `stop_ts: ZERO` keeps
            // it unrunnable, so the drain loop hits `steps[usize::MAX]`.
            items: vec![(Key { at: t, rank: 5 }, TxnId(1))],
            horizon: t + 300,
            stop_ts: SimTime::ZERO,
            defer_barrier: None,
            child_rank_base: 0,
            lan_hop_us: 150,
            steps: Vec::new(),
            unprocessed: Vec::new(),
        });
        let msg = pool.recv_any();
        let FromWorker::Panic(payload) = msg else {
            panic!("expected the worker's panic to come back, got a result");
        };
        let rethrown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::panic::resume_unwind(payload)
        }));
        assert!(
            rethrown.is_err(),
            "payload must re-raise on the coordinator"
        );
    }

    /// Pooled windows must chain into lease runs (nodes staying racked at
    /// their workers across windows) and still hand every node home by the
    /// end of the run.
    #[test]
    fn pooled_windows_form_lease_runs_and_recall_on_demand() {
        let (_, stats) = drive(Box::new(ParallelDriver::new(2).with_min_dispatch(0)));
        let stats = stats.expect("parallel driver records stats");
        assert!(
            stats.pooled > 0,
            "min_dispatch 0 must pool windows: {stats:?}"
        );
        assert!(stats.runs > 0, "pooled windows must open lease runs");
        assert!(
            stats.max_run_windows >= 1 && stats.max_run_windows <= stats.pooled,
            "run length is bounded by the pooled-window count: {stats:?}"
        );
        assert!(
            stats.recalls > 0,
            "stoppers between windows must recall leased nodes: {stats:?}"
        );
    }

    /// The satellite fix for the old spin-recv pathology: an idle pool
    /// costs ~0 CPU. Park the workers for a while with nothing to do and
    /// check the accounting says "parked", not "spinning".
    #[test]
    fn idle_workers_park_instead_of_spinning() {
        let pool = WorkerPool::new(2, 1, 0);
        let counters = Arc::clone(&pool.counters);
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(pool); // Unparks and joins; parked time is banked on wake-up.
        let (spins, parks, parked_ns, busy_ns) = counters.snapshot();
        assert!(parks >= 2, "both idle workers must park: {parks} parks");
        assert!(
            counters.idle_fraction() > 0.5,
            "idle time must be parked, not busy: parked {parked_ns}ns busy {busy_ns}ns"
        );
        assert!(
            spins <= (parks + 4) * u64::from(sync::SPIN_LIMIT),
            "spinning must stay bounded per wait episode: {spins} spins, {parks} parks"
        );
    }

    #[test]
    fn stats_summary_reports_the_pipeline_counters() {
        let mut stats = DriverStats::default();
        stats.observe_window(6, 2, 2, true);
        stats.runs = 3;
        stats.max_run_windows = 4;
        stats.leases_retained = 5;
        stats.recalls = 6;
        stats.pipelined = 1;
        stats.worker_busy_ns = 1_000_000;
        stats.worker_parked_ns = 3_000_000;
        stats.worker_parks = 7;
        stats.worker_spins = 640;
        let s = stats.summary();
        for needle in [
            "1 pipelined",
            "3 runs",
            "max 4 windows",
            "5 leases retained",
            "6 recalls",
            "idle 75.0%",
            "7 parks",
            "640 spins",
        ] {
            assert!(s.contains(needle), "summary missing {needle:?}: {s}");
        }
    }

    #[test]
    fn handoff_histogram_buckets_by_log2_ns() {
        let mut stats = DriverStats::default();
        stats.observe_handoff(0); // sub-spin handoff
        stats.observe_handoff(300); // still bucket 0 (< 512ns)
        stats.observe_handoff(600); // 512..1024
        stats.observe_handoff(5_000); // 4096..8192
        stats.observe_handoff(u64::MAX); // clamps to the last bucket
        assert_eq!(stats.handoff_ns_hist[0], 2);
        assert_eq!(stats.handoff_ns_hist[1], 1);
        assert_eq!(stats.handoff_ns_hist[4], 1);
        assert_eq!(stats.handoff_ns_hist[HANDOFF_HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn tuned_min_dispatch_follows_the_stall_to_step_ratio() {
        // No samples yet (or degenerate counters): keep the fallback.
        assert_eq!(tuned_min_dispatch(0, 0, 0, 0, 8), 8);
        assert_eq!(tuned_min_dispatch(1_000, 4, 0, 100, 8), 8);
        assert_eq!(tuned_min_dispatch(1_000, 4, 100, 0, 8), 8);
        // 1000 ns stall per window over 100 ns busy per step: a window
        // needs ~10 steps before dispatch amortizes its handoff.
        assert_eq!(tuned_min_dispatch(4_000, 4, 10_000, 100, 8), 10);
        // Cheap handoffs clamp up to 2 (never dispatch singletons)...
        assert_eq!(tuned_min_dispatch(1, 1, 1_000_000, 1_000, 8), 2);
        // ...and pathological stalls clamp down to 64 (never give up on
        // dispatch entirely).
        assert_eq!(tuned_min_dispatch(u64::MAX / 2, 1, 1_000, 1_000, 8), 64);
    }

    #[test]
    fn auto_tune_is_on_by_default_and_off_under_an_explicit_threshold() {
        assert!(ParallelDriver::new(2).auto_tune);
        assert!(!ParallelDriver::new(2).with_min_dispatch(5).auto_tune);
    }
}
