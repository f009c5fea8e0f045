//! The replica node: database + proxy state machine.
//!
//! A [`ReplicaNode`] owns one replica's storage (buffer pool, disk channel,
//! background writer), its CPU server, the Gatekeeper, the update filter,
//! its liveness, and the table of transactions its proxy holds. The cluster
//! event loop drives it:
//!
//! 1. [`ReplicaNode::submit`] hands it a client's transaction executor
//!    (admission may queue it); the proxy holds it from then on,
//! 2. [`ReplicaNode::step`] advances one transaction by a CPU quantum or one
//!    disk read and reports when to call again,
//! 3. on [`StepOutcome::ReadyToCommit`] the cluster certifies the writeset,
//!    applies remote writesets via [`ReplicaNode::apply_writesets`], and
//!    frees the Gatekeeper slot with [`ReplicaNode::release`], which
//!    returns the client.
//!
//! Modelling note: a missed page is installed in the buffer pool at submit
//! time while its read completes later on the simulated disk; concurrent
//! transactions touching the page during the read window observe a hit.
//! This slightly favours concurrency but keeps the pool a pure state
//! machine, and the error is far below the effects being measured.

use std::collections::HashMap;

use tashkent_engine::{Snapshot, TxnExecutor, TxnId, TxnTypeId, Version, Writeset};
use tashkent_sim::{SimRng, SimTime};
use tashkent_storage::{
    BackgroundWriter, BufferPool, Catalog, DiskModel, DiskParams, DiskRequest, RelationSet,
    ReqKind, Touch, WriterConfig,
};

use tashkent_certifier::LogView;

use crate::cpu::CpuServer;
use crate::daemon::{LoadDaemon, LoadReport};
use crate::filter::UpdateFilter;
use crate::gatekeeper::Gatekeeper;

/// Configuration of one replica: its buffer pool budget and Gatekeeper
/// MPL. The rest of the node is the paper's testbed: a 2007-era disk
/// ([`DiskParams::default`]), the default background writer
/// ([`WriterConfig::default`]), a 5 ms CPU quantum, and 600 µs per item
/// plus 100 µs per writeset to apply remote writesets.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Buffer pool budget in bytes (already net of the paper's 70 MB system
    /// overhead — see the cluster builder).
    pub mem_bytes: u64,
    /// Gatekeeper multiprogramming limit.
    pub mpl: usize,
}

impl Default for ReplicaConfig {
    /// Paper-shaped defaults: 512 MB pool, MPL 8.
    fn default() -> Self {
        ReplicaConfig {
            mem_bytes: 512 * 1024 * 1024,
            mpl: 8,
        }
    }
}

/// CPU time slice per scheduling step, in µs.
const CPU_QUANTUM_US: u64 = 5_000;

/// CPU cost of applying one writeset item, in µs.
const APPLY_ITEM_US: u64 = 600;

/// Fixed CPU cost of applying one writeset, in µs.
const APPLY_BASE_US: u64 = 100;

/// What happened when a transaction was stepped.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// The transaction is waiting on CPU and/or disk until the given time;
    /// step it again then.
    Busy(SimTime),
    /// A read-only transaction finished at the given time.
    Done(SimTime),
    /// An update transaction finished executing at the given time; its
    /// writeset must now be certified.
    ReadyToCommit(SimTime, Writeset),
}

/// Cumulative per-replica counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaStats {
    /// Local transactions completed (read-only + committed updates).
    pub local_completed: u64,
    /// Remote writesets applied.
    pub writesets_applied: u64,
    /// Writeset items applied.
    pub items_applied: u64,
    /// Writeset items dropped by the update filter.
    pub items_filtered: u64,
    /// Writesets fully dropped by the update filter.
    pub writesets_filtered: u64,
}

/// A transaction the proxy holds, from [`ReplicaNode::submit`] until
/// [`ReplicaNode::release`].
struct Held {
    client: usize,
    txn_type: TxnTypeId,
    /// The executor while the plan runs (or waits for admission); `None`
    /// once it has ended and the outcome is pending.
    exec: Option<TxnExecutor>,
}

/// One replica: storage, CPU, proxy, and the transactions it holds.
pub struct ReplicaNode {
    id: usize,
    up: bool,
    catalog: Catalog,
    pool: BufferPool,
    disk: DiskModel,
    cpu: CpuServer,
    writer: BackgroundWriter,
    gatekeeper: Gatekeeper,
    filter: UpdateFilter,
    daemon: LoadDaemon,
    rng: SimRng,
    config: ReplicaConfig,
    applied: Version,
    /// Every transaction the proxy has admitted or queued. A crash clears
    /// it.
    held: HashMap<TxnId, Held>,
    stats: ReplicaStats,
}

impl ReplicaNode {
    /// Creates cold, live replica `id` over `catalog`.
    pub fn new(id: usize, catalog: Catalog, config: ReplicaConfig, rng: SimRng) -> Self {
        ReplicaNode {
            id,
            up: true,
            pool: BufferPool::with_capacity_bytes(config.mem_bytes, catalog.clone()),
            disk: DiskModel::new(DiskParams::default()),
            cpu: CpuServer::new(),
            writer: BackgroundWriter::new(WriterConfig::default()),
            gatekeeper: Gatekeeper::new(config.mpl),
            filter: UpdateFilter::all(),
            daemon: LoadDaemon::paper_default(),
            rng,
            catalog,
            config,
            applied: Version::ZERO,
            held: HashMap::new(),
            stats: ReplicaStats::default(),
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

    /// The replica's applied database version.
    pub fn applied(&self) -> Version {
        self.applied
    }

    /// A snapshot for a transaction starting now (GSI: the replica-local
    /// version).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::at(self.applied)
    }

    /// The schema catalog (immutable over a run).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Outstanding transactions (running + queued) — the "connections"
    /// signal LeastConnections and LARD use.
    pub fn outstanding(&self) -> usize {
        self.gatekeeper.outstanding()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// Disk statistics (reads/writes for the paper's I/O tables).
    pub fn disk_stats(&self) -> tashkent_storage::DiskStats {
        self.disk.stats()
    }

    /// Buffer-pool statistics.
    pub fn pool_stats(&self) -> tashkent_storage::BufferStats {
        self.pool.stats()
    }

    /// Resident buffer-pool bytes — the working-set/memory estimate the
    /// utilization timeline samples.
    pub fn resident_bytes(&self) -> u64 {
        self.pool.resident() as u64 * tashkent_storage::PAGE_SIZE
    }

    /// Total CPU busy time, in µs.
    pub fn cpu_busy_us(&self) -> u64 {
        self.cpu.total_busy_us()
    }

    /// Whether a page is cached (metrics and tests; does not count as a
    /// reference).
    pub fn is_page_resident(&self, page: tashkent_storage::GlobalPageId) -> bool {
        self.pool.is_resident(page)
    }

    /// Current update filter.
    pub fn filter(&self) -> &UpdateFilter {
        &self.filter
    }

    /// Installs a new update filter; dropped tables are evicted from the
    /// pool (the replica stops maintaining them, §3).
    pub fn set_filter(&mut self, filter: UpdateFilter) {
        let ids = self.catalog.relations().iter().map(|r| r.id);
        self.pool
            .evict_relations(ids.filter(|&rel| !filter.accepts(rel)).collect());
        self.filter = filter;
    }

    /// Whether `txn`'s plan is executing (or queued) on this replica. A
    /// crash drops every held transaction, so step events scheduled before
    /// the crash may refer to transactions that no longer exist.
    pub fn is_running(&self, txn: TxnId) -> bool {
        self.held.get(&txn).is_some_and(|h| h.exec.is_some())
    }

    /// The oldest snapshot among the transactions executing or queued here,
    /// if any: the certifier may still check their writesets against the
    /// log entries after it.
    pub fn oldest_snapshot(&self) -> Option<Version> {
        self.held
            .values()
            .filter_map(|h| h.exec.as_ref())
            .map(|e| e.snapshot().version)
            .min()
    }

    /// The type of `txn` while the proxy holds it.
    pub fn held(&self, txn: TxnId) -> Option<TxnTypeId> {
        self.held.get(&txn).map(|h| h.txn_type)
    }

    /// Holds `client`'s transaction until its release; returns `true` when
    /// admitted (step it now) or `false` when queued behind the Gatekeeper.
    pub fn submit(&mut self, client: usize, executor: TxnExecutor) -> bool {
        let txn = executor.txn();
        let held = Held {
            client,
            txn_type: executor.txn_type(),
            exec: Some(executor),
        };
        self.held.insert(txn, held);
        self.gatekeeper.admit(txn)
    }

    /// Advances transaction `txn` from time `now`, or returns `None` when its
    /// plan is not running here: it has ended, or a crash dropped it while
    /// its step was queued.
    ///
    /// Consumes up to one CPU quantum of page touches; a buffer-pool miss
    /// submits the disk read (plus a write-back when the victim was dirty)
    /// and yields.
    pub fn step(&mut self, txn: TxnId, now: SimTime) -> Option<StepOutcome> {
        let slot = &mut self.held.get_mut(&txn)?.exec;
        let executor = slot.as_mut()?;
        let mut cpu_accum: u64 = 0;
        loop {
            match executor.next_touch(&self.catalog, &mut self.rng) {
                None => {
                    let done = self.cpu.run(now, cpu_accum);
                    let ws = slot.take().expect("stepped above").into_writeset();
                    return Some(if ws.is_empty() {
                        StepOutcome::Done(done)
                    } else {
                        StepOutcome::ReadyToCommit(done, ws)
                    });
                }
                Some(touch) => {
                    cpu_accum += touch.cpu_us;
                    match self.pool.touch(touch.page) {
                        Touch::Hit => {
                            if touch.write.is_some() {
                                self.pool.mark_dirty(touch.page);
                            }
                            if cpu_accum >= CPU_QUANTUM_US {
                                return Some(StepOutcome::Busy(self.cpu.run(now, cpu_accum)));
                            }
                        }
                        Touch::Miss { evicted } => {
                            if touch.write.is_some() {
                                self.pool.mark_dirty(touch.page);
                            }
                            let t_cpu = self.cpu.run(now, cpu_accum);
                            if let Some((victim, true)) = evicted {
                                self.disk.submit(
                                    t_cpu,
                                    DiskRequest {
                                        page: victim,
                                        kind: ReqKind::Write,
                                    },
                                );
                            }
                            let t_read = self.disk.submit(
                                t_cpu,
                                DiskRequest {
                                    page: touch.page,
                                    kind: ReqKind::Read,
                                },
                            );
                            return Some(StepOutcome::Busy(t_read));
                        }
                    }
                }
            }
        }
    }

    /// Frees `txn`'s Gatekeeper slot after its outcome (commit, read-only
    /// completion, abort, or a lost certifier connection) and returns its
    /// client with the queued transaction now admitted, if any. A
    /// transaction the proxy does not hold (a crash dropped it) frees
    /// nothing.
    pub fn release(&mut self, txn: TxnId, committed: bool) -> Option<(usize, Option<TxnId>)> {
        let held = self.held.remove(&txn)?;
        if committed {
            self.stats.local_completed += 1;
        }
        Some((held.client, self.gatekeeper.release()))
    }

    /// Marks a committed local update as applied: the replica's own writes
    /// are already in its pool, so only the version advances.
    ///
    /// # Panics
    ///
    /// Panics if the commit is not the next version (remote writesets must
    /// be applied first — the GSI ordering rule).
    pub fn commit_local(&mut self, version: Version) {
        assert_eq!(
            version,
            self.applied.next(),
            "local commit out of order: applying {version} over {}",
            self.applied
        );
        self.applied = version;
    }

    /// Applies remote writesets in commit order; returns when the
    /// application work completes.
    ///
    /// Filtered items are dropped at the proxy: no CPU, no page touches, no
    /// disk. The version still advances — the replica stays a consistent
    /// prefix *for the tables it maintains*.
    pub fn apply_writesets(&mut self, now: SimTime, writesets: LogView<'_>) -> SimTime {
        let mut cpu_us: u64 = 0;
        let mut last_io = now;
        for (version, items) in writesets {
            if version <= self.applied {
                continue; // Already applied (duplicate delivery).
            }
            assert_eq!(
                version,
                self.applied.next(),
                "writeset gap: applying {version} over {}",
                self.applied
            );
            self.applied = version;
            let mut any = false;
            for &item in items {
                if !self.filter.accepts(item.rel()) {
                    self.stats.items_filtered += 1;
                    continue;
                }
                any = true;
                self.stats.items_applied += 1;
                cpu_us += APPLY_ITEM_US;
                self.apply_item_pages(now, item, &mut last_io);
            }
            if any {
                cpu_us += APPLY_BASE_US;
                self.stats.writesets_applied += 1;
            } else {
                self.stats.writesets_filtered += 1;
            }
        }
        let t_cpu = self.cpu.run(now, cpu_us);
        t_cpu.max(last_io)
    }

    /// Touches (and dirties) the pages one writeset item writes — the row's
    /// heap page plus index maintenance, the same pages the origin replica
    /// dirtied — paying a disk read per pool miss (and a write-back for a
    /// dirty victim). Shared by normal application and backfill so both
    /// charge the identical cost model.
    fn apply_item_pages(
        &mut self,
        now: SimTime,
        item: tashkent_engine::WritesetItem,
        last_io: &mut SimTime,
    ) {
        let (rel, row) = (item.rel(), item.row());
        let heap = self.catalog.get(rel).page_of_row(row);
        let index_pages = self.catalog.indices_of(rel).map(|idx| idx.page_of_row(row));
        for page in std::iter::once(heap).chain(index_pages) {
            match self.pool.touch(page) {
                Touch::Hit => {}
                Touch::Miss { evicted } => {
                    if let Some((victim, true)) = evicted {
                        self.disk.submit(
                            now,
                            DiskRequest {
                                page: victim,
                                kind: ReqKind::Write,
                            },
                        );
                    }
                    *last_io = self.disk.submit(
                        now,
                        DiskRequest {
                            page,
                            kind: ReqKind::Read,
                        },
                    );
                }
            }
            self.pool.mark_dirty(page);
        }
    }

    /// Re-replication backfill (partial replication): re-applies the items
    /// of `writesets` that touch `rels`, bringing this replica's pages for
    /// those relations current so it can join their holder set.
    ///
    /// Unlike [`ReplicaNode::apply_writesets`] this neither advances the
    /// applied version (the caller only replays versions at or below it;
    /// later versions arrive through normal propagation once the filter
    /// widens) nor consults the update filter (the explicit relation set
    /// *is* the filter — the node's own filter has not been widened yet).
    /// Costs are charged through the same CPU and disk models as a normal
    /// apply. Returns when the backfill work completes.
    pub fn backfill_writesets(
        &mut self,
        now: SimTime,
        writesets: LogView<'_>,
        rels: RelationSet,
    ) -> SimTime {
        let mut cpu_us: u64 = 0;
        let mut last_io = now;
        for (_, items) in writesets {
            let mut any = false;
            for &item in items {
                if !rels.contains(item.rel()) {
                    continue;
                }
                any = true;
                cpu_us += APPLY_ITEM_US;
                self.apply_item_pages(now, item, &mut last_io);
            }
            if any {
                cpu_us += APPLY_BASE_US;
            }
        }
        let t_cpu = self.cpu.run(now, cpu_us);
        t_cpu.max(last_io)
    }

    /// Runs background-writer rounds that are due at `now`.
    pub fn maintenance(&mut self, now: SimTime) -> usize {
        self.writer.run_due(now, &mut self.pool, &mut self.disk)
    }

    /// Takes a load-daemon sample at `now`.
    pub fn sample_load(&mut self, now: SimTime) -> LoadReport {
        self.daemon.sample(now, &mut self.cpu, &mut self.disk)
    }

    /// Crashes the replica: marked down, cold cache, admission queue
    /// drained, and every held transaction forgotten, so their late events
    /// free no slot. Their clients still wait on them until the cluster
    /// answers (suspicion sweep or timeout).
    pub fn crash(&mut self) {
        self.up = false;
        self.pool = BufferPool::with_capacity_bytes(self.config.mem_bytes, self.catalog.clone());
        self.held.clear();
        self.gatekeeper.clear();
    }

    /// Brings the replica up at `version`, its durable prefix (standard
    /// recovery from the certifier's persistent log or a peer copy, §3);
    /// the cache stays cold.
    pub fn recover(&mut self, version: Version) {
        self.up = true;
        self.applied = version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_certifier::CommitLog;
    use tashkent_engine::{
        Access, PlanStep, TxnId, TxnPlan, TxnTypeId, WriteKind, WriteSpec, WritesetItem,
    };
    use tashkent_storage::RelationId;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let orders = c.add_table("orders", 64, 6_400);
        c.add_index("orders_pk", orders, 8, 6_400);
        c.add_table("item", 16, 1_600);
        c
    }

    fn node_with_mem(pages: u64) -> ReplicaNode {
        let config = ReplicaConfig {
            mem_bytes: pages * tashkent_storage::PAGE_SIZE,
            ..ReplicaConfig::default()
        };
        ReplicaNode::new(0, catalog(), config, SimRng::seed_from(7))
    }

    fn scan_plan(c: &Catalog, rel: &str) -> TxnPlan {
        TxnPlan::new(vec![PlanStep::Read {
            rel: c.by_name(rel).unwrap().id,
            access: Access::SeqScan,
        }])
    }

    fn run_to_completion(node: &mut ReplicaNode, txn: TxnId, mut now: SimTime) -> StepOutcome {
        loop {
            match node.step(txn, now).expect("the plan runs") {
                StepOutcome::Busy(t) => now = t,
                done => return done,
            }
        }
    }

    #[test]
    fn read_only_scan_completes_and_reads_pages() {
        let mut node = node_with_mem(128);
        let c = node.catalog().clone();
        let ex = TxnExecutor::new(
            TxnId(1),
            TxnTypeId(0),
            scan_plan(&c, "item"),
            node.snapshot(),
        );
        assert!(node.submit(0, ex));
        let out = run_to_completion(&mut node, TxnId(1), SimTime::ZERO);
        match out {
            StepOutcome::Done(t) => assert!(t > SimTime::ZERO),
            other => panic!("unexpected {other:?}"),
        }
        // Cold cache: all 16 pages read from disk.
        assert_eq!(node.disk_stats().read_pages, 16);
        assert_eq!(node.release(TxnId(1), true), Some((0, None)));
        assert_eq!(node.stats().local_completed, 1);
    }

    #[test]
    fn warm_cache_scan_is_cpu_only() {
        let mut node = node_with_mem(128);
        let c = node.catalog().clone();
        for i in 0..2 {
            let ex = TxnExecutor::new(
                TxnId(i),
                TxnTypeId(0),
                scan_plan(&c, "item"),
                node.snapshot(),
            );
            node.submit(0, ex);
            run_to_completion(&mut node, TxnId(i), SimTime::ZERO);
            node.release(TxnId(i), true);
        }
        // Second scan hit entirely in memory.
        assert_eq!(node.disk_stats().read_pages, 16);
        assert_eq!(node.pool_stats().hits, 16);
    }

    #[test]
    fn thrashing_scan_keeps_reading() {
        // Pool of 32 pages, relation of 64: cyclic scans always miss.
        let mut node = node_with_mem(32);
        let c = node.catalog().clone();
        for i in 0..2 {
            let ex = TxnExecutor::new(
                TxnId(i),
                TxnTypeId(0),
                scan_plan(&c, "orders"),
                node.snapshot(),
            );
            node.submit(0, ex);
            run_to_completion(&mut node, TxnId(i), SimTime::ZERO);
            node.release(TxnId(i), true);
        }
        assert_eq!(node.disk_stats().read_pages, 128, "no reuse when thrashing");
    }

    #[test]
    fn update_txn_reaches_ready_to_commit() {
        let mut node = node_with_mem(128);
        let c = node.catalog().clone();
        let plan = TxnPlan::new(vec![PlanStep::Write(WriteSpec {
            rel: c.by_name("item").unwrap().id,
            rows: 2,
            kind: WriteKind::Update,
            theta: 0.0,
        })]);
        let ex = TxnExecutor::new(TxnId(5), TxnTypeId(1), plan, node.snapshot());
        node.submit(0, ex);
        match run_to_completion(&mut node, TxnId(5), SimTime::ZERO) {
            StepOutcome::ReadyToCommit(_, ws) => {
                assert!(!ws.is_empty());
                assert_eq!(ws.txn, TxnId(5));
            }
            other => panic!("unexpected {other:?}"),
        }
        node.commit_local(Version(1));
        assert_eq!(node.applied(), Version(1));
        node.release(TxnId(5), true);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_local_commit_panics() {
        let mut node = node_with_mem(128);
        node.commit_local(Version(3));
    }

    /// A commit log whose entry `i` (version `i + 1`) writes `entries[i]`.
    fn log_of(entries: &[&[(u32, u64)]]) -> CommitLog {
        let mut log = CommitLog::default();
        for items in entries {
            let mut items: Vec<WritesetItem> = items
                .iter()
                .map(|&(r, row)| WritesetItem::new(RelationId(r), row))
                .collect();
            items.sort_unstable();
            log.append(&items);
        }
        log
    }

    #[test]
    fn apply_writesets_advances_version_and_dirties() {
        let mut node = node_with_mem(128);
        let log = log_of(&[&[(0, 10)], &[(2, 5)]]);
        let done = node.apply_writesets(SimTime::ZERO, log.since(Version(0)));
        assert!(done > SimTime::ZERO);
        assert_eq!(node.applied(), Version(2));
        assert_eq!(node.stats().writesets_applied, 2);
        assert_eq!(node.stats().items_applied, 2);
        // Applying a missed page reads it from disk; the orders row also
        // maintains orders_pk (item has no index): 2 + 1 pages.
        assert_eq!(node.disk_stats().read_pages, 3);
    }

    #[test]
    fn duplicate_writesets_are_skipped() {
        let mut node = node_with_mem(128);
        let log = log_of(&[&[(0, 10)]]);
        node.apply_writesets(SimTime::ZERO, log.since(Version(0)));
        node.apply_writesets(SimTime::ZERO, log.since(Version(0)));
        assert_eq!(node.applied(), Version(1));
        assert_eq!(node.stats().writesets_applied, 1);
    }

    #[test]
    #[should_panic(expected = "writeset gap")]
    fn writeset_gap_panics() {
        let mut node = node_with_mem(128);
        let log = log_of(&[&[(0, 1)], &[(0, 2)], &[(0, 3)]]);
        node.apply_writesets(SimTime::ZERO, log.since(Version(2)));
    }

    #[test]
    fn filter_drops_items_without_cost() {
        let mut node = node_with_mem(128);
        let item_rel = node.catalog().by_name("item").unwrap().id;
        node.set_filter(UpdateFilter::only([item_rel]));
        // Version 1 writes orders (filtered), version 2 writes item (applied).
        let log = log_of(&[&[(0, 10)], &[(2, 5)]]);
        node.apply_writesets(SimTime::ZERO, log.since(Version(0)));
        assert_eq!(node.applied(), Version(2), "version advances regardless");
        assert_eq!(node.stats().items_filtered, 1);
        assert_eq!(node.stats().items_applied, 1);
        assert_eq!(node.stats().writesets_filtered, 1);
        assert_eq!(node.disk_stats().read_pages, 1, "filtered item did no I/O");
    }

    #[test]
    fn set_filter_evicts_dropped_tables() {
        let mut node = node_with_mem(128);
        let c = node.catalog().clone();
        let orders = c.by_name("orders").unwrap().id;
        let item = c.by_name("item").unwrap().id;
        // Warm both tables.
        for (i, rel) in ["orders", "item"].iter().enumerate() {
            let ex = TxnExecutor::new(
                TxnId(i as u64),
                TxnTypeId(0),
                scan_plan(&c, rel),
                node.snapshot(),
            );
            node.submit(0, ex);
            run_to_completion(&mut node, TxnId(i as u64), SimTime::ZERO);
            node.release(TxnId(i as u64), true);
        }
        node.set_filter(UpdateFilter::only([item]));
        // Orders (and its index) evicted; item stays warm.
        let pool_orders = (0..64)
            .filter(|&page| {
                node.is_page_resident(tashkent_storage::GlobalPageId::new(orders, page))
            })
            .count();
        assert_eq!(pool_orders, 0);
    }

    #[test]
    fn backfill_reapplies_only_requested_relations() {
        let mut node = node_with_mem(128);
        // Apply with a filter dropping orders: items ticked past, pages cold.
        let item_rel = node.catalog().by_name("item").unwrap().id;
        let orders_rel = node.catalog().by_name("orders").unwrap().id;
        node.set_filter(UpdateFilter::only([item_rel]));
        let log = log_of(&[&[(0, 10)], &[(2, 5)]]);
        node.apply_writesets(SimTime::ZERO, log.since(Version(0)));
        assert_eq!(node.stats().items_filtered, 1);
        let reads_before = node.disk_stats().read_pages;
        let cpu_before = node.cpu_busy_us();
        // Backfill the orders group from the log: re-applies only its items.
        let rels: RelationSet = [orders_rel].into_iter().collect();
        let done = node.backfill_writesets(SimTime::from_secs(1), log.since(Version(0)), rels);
        assert!(done > SimTime::from_secs(1));
        // One writeset with one item re-applied.
        assert_eq!(
            node.cpu_busy_us() - cpu_before,
            APPLY_BASE_US + APPLY_ITEM_US
        );
        // Orders heap page + orders_pk page read; version unchanged.
        assert_eq!(node.disk_stats().read_pages, reads_before + 2);
        assert_eq!(
            node.applied(),
            Version(2),
            "backfill never moves the version"
        );
    }

    #[test]
    fn gatekeeper_queues_beyond_mpl() {
        let config = ReplicaConfig {
            mpl: 1,
            ..ReplicaConfig::default()
        };
        let mut node = ReplicaNode::new(0, catalog(), config, SimRng::seed_from(1));
        let c = node.catalog().clone();
        let ex1 = TxnExecutor::new(
            TxnId(1),
            TxnTypeId(0),
            scan_plan(&c, "item"),
            node.snapshot(),
        );
        let ex2 = TxnExecutor::new(
            TxnId(2),
            TxnTypeId(0),
            scan_plan(&c, "item"),
            node.snapshot(),
        );
        assert!(node.submit(0, ex1));
        assert!(!node.submit(1, ex2));
        assert_eq!(node.outstanding(), 2);
        run_to_completion(&mut node, TxnId(1), SimTime::ZERO);
        assert_eq!(node.release(TxnId(1), true), Some((0, Some(TxnId(2)))));
    }

    #[test]
    fn crash_drops_state_and_recovery_restores_version() {
        let mut node = node_with_mem(128);
        let c = node.catalog().clone();
        node.apply_writesets(SimTime::ZERO, log_of(&[&[(0, 1)]]).since(Version(0)));
        let ex = TxnExecutor::new(
            TxnId(9),
            TxnTypeId(0),
            scan_plan(&c, "item"),
            node.snapshot(),
        );
        node.submit(0, ex);
        node.crash();
        assert_eq!(node.outstanding(), 0);
        node.recover(Version(5));
        assert_eq!(node.applied(), Version(5));
    }

    #[test]
    fn maintenance_flushes_dirty_pages_to_disk() {
        let mut node = node_with_mem(128);
        let log = log_of(&[&[(0, 10), (2, 3)]]);
        node.apply_writesets(SimTime::ZERO, log.since(Version(0)));
        let period = tashkent_storage::WriterConfig::default().period;
        let flushed = node.maintenance(period);
        // Heap pages of both rows plus the orders_pk maintenance page.
        assert_eq!(flushed, 3);
        assert_eq!(node.disk_stats().write_pages, 3);
    }

    /// Node with MPL 1 holding `scan`s of `item` as transactions `txns`,
    /// client `10 + id` each, all at the node's current snapshot.
    fn mpl1_node_holding(txns: &[u64]) -> ReplicaNode {
        let config = ReplicaConfig {
            mpl: 1,
            ..ReplicaConfig::default()
        };
        let mut node = ReplicaNode::new(0, catalog(), config, SimRng::seed_from(1));
        let c = node.catalog().clone();
        for &id in txns {
            let ex = TxnExecutor::new(
                TxnId(id),
                TxnTypeId(3),
                scan_plan(&c, "item"),
                node.snapshot(),
            );
            node.submit(10 + id as usize, ex);
        }
        node
    }

    #[test]
    fn held_until_release_returns_client_and_admits_next() {
        let mut node = mpl1_node_holding(&[1, 2]);
        run_to_completion(&mut node, TxnId(1), SimTime::ZERO);
        // The plan has ended; the proxy still holds the outcome's slot.
        assert!(!node.is_running(TxnId(1)));
        assert!(
            node.step(TxnId(1), SimTime::ZERO).is_none(),
            "no step after the plan"
        );
        assert_eq!(node.held(TxnId(1)), Some(TxnTypeId(3)));
        assert_eq!(node.outstanding(), 2);
        assert_eq!(
            node.release(TxnId(1), true),
            Some((11, Some(TxnId(2)))),
            "client of txn 1 answered, queued txn 2 admitted"
        );
        assert_eq!(node.held(TxnId(1)), None);
        assert_eq!(node.release(TxnId(1), true), None, "released once");
        assert!(node.is_running(TxnId(2)));
        assert_eq!(node.stats().local_completed, 1);
    }

    #[test]
    fn crash_forgets_held_transactions_and_stays_down_until_recover() {
        let mut node = mpl1_node_holding(&[1, 2]);
        run_to_completion(&mut node, TxnId(1), SimTime::ZERO);
        node.crash();
        assert!(!node.is_up());
        assert_eq!(node.held(TxnId(1)), None);
        assert!(!node.is_running(TxnId(2)));
        assert!(node.step(TxnId(2), SimTime::ZERO).is_none(), "a stale step");
        assert_eq!(node.outstanding(), 0);
        // A late outcome frees nothing: an empty Gatekeeper would panic.
        assert_eq!(node.release(TxnId(1), true), None);
        assert!(!node.is_up(), "a late release does not revive the node");
        node.recover(node.applied());
        assert!(node.is_up());
        let c = node.catalog().clone();
        let ex = TxnExecutor::new(
            TxnId(3),
            TxnTypeId(0),
            scan_plan(&c, "item"),
            node.snapshot(),
        );
        assert!(node.submit(13, ex));
        // Neither dropped transaction touches the new one's slot.
        assert_eq!(node.release(TxnId(2), false), None);
        assert_eq!(node.outstanding(), 1);
        assert_eq!(node.stats().local_completed, 0);
    }

    #[test]
    fn running_and_oldest_snapshot_count_only_running_plans() {
        let mut node = node_with_mem(128);
        let c = node.catalog().clone();
        let old = TxnExecutor::new(
            TxnId(1),
            TxnTypeId(0),
            scan_plan(&c, "item"),
            node.snapshot(),
        );
        node.submit(0, old);
        node.apply_writesets(SimTime::ZERO, log_of(&[&[(2, 1)]]).since(Version(0)));
        let new = TxnExecutor::new(
            TxnId(2),
            TxnTypeId(0),
            scan_plan(&c, "item"),
            node.snapshot(),
        );
        node.submit(1, new);
        assert_eq!(node.oldest_snapshot(), Some(Version(0)));
        run_to_completion(&mut node, TxnId(1), SimTime::ZERO);
        // Txn 1 is held until its release but no longer counts.
        assert!(node.held(TxnId(1)).is_some());
        assert!(!node.is_running(TxnId(1)));
        assert_eq!(node.oldest_snapshot(), Some(Version(1)));
        run_to_completion(&mut node, TxnId(2), SimTime::ZERO);
        assert!(!node.is_running(TxnId(2)));
        assert_eq!(node.oldest_snapshot(), None);
    }
}
