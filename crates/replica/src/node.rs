//! The replica node: database + proxy state machine.
//!
//! A [`ReplicaNode`] owns one replica's storage (buffer pool, disk channel,
//! background writer), its CPU server, the Gatekeeper, the update filter,
//! and the set of running transactions. The cluster event loop drives it:
//!
//! 1. [`ReplicaNode::submit`] hands it a transaction executor (admission may
//!    queue it),
//! 2. [`ReplicaNode::step`] advances one transaction by a CPU quantum or one
//!    disk read and reports when to call again,
//! 3. on [`StepOutcome::ReadyToCommit`] the cluster certifies the writeset,
//!    applies remote writesets via [`ReplicaNode::apply_writesets`], and
//!    finishes with [`ReplicaNode::finish`].
//!
//! Modelling note: a missed page is installed in the buffer pool at submit
//! time while its read completes later on the simulated disk; concurrent
//! transactions touching the page during the read window observe a hit.
//! This slightly favours concurrency but keeps the pool a pure state
//! machine, and the error is far below the effects being measured.

use std::collections::HashMap;

use tashkent_engine::{Snapshot, TxnExecutor, TxnId, Version, Writeset};
use tashkent_sim::{SimRng, SimTime};
use tashkent_storage::{
    BackgroundWriter, BufferPool, Catalog, DiskModel, DiskParams, DiskRequest, ReqKind, Touch,
    WriterConfig,
};

use tashkent_certifier::LogView;

use crate::cpu::CpuServer;
use crate::daemon::{LoadDaemon, LoadReport};
use crate::filter::UpdateFilter;
use crate::gatekeeper::Gatekeeper;

/// Configuration of one replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Buffer pool budget in bytes (already net of the paper's 70 MB system
    /// overhead — see the cluster builder).
    pub mem_bytes: u64,
    /// Disk timing parameters.
    pub disk: DiskParams,
    /// CPU time slice per scheduling step, in µs.
    pub cpu_quantum_us: u64,
    /// Gatekeeper multiprogramming limit.
    pub mpl: usize,
    /// Background writer policy.
    pub writer: WriterConfig,
    /// CPU cost applying one writeset item, in µs.
    pub apply_item_us: u64,
    /// Fixed CPU cost applying one writeset, in µs.
    pub apply_base_us: u64,
}

impl Default for ReplicaConfig {
    /// Paper-shaped defaults: 512 MB pool, 2007-era disk, 5 ms quantum,
    /// MPL 8.
    fn default() -> Self {
        ReplicaConfig {
            mem_bytes: 512 * 1024 * 1024,
            disk: DiskParams::default(),
            cpu_quantum_us: 5_000,
            mpl: 8,
            writer: WriterConfig::default(),
            apply_item_us: 600,
            apply_base_us: 100,
        }
    }
}

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
    /// Writesets touched by re-replication backfill (partial replication).
    pub writesets_backfilled: u64,
    /// Writeset items re-applied by re-replication backfill.
    pub items_backfilled: u64,
}

/// One replica: storage, CPU, proxy, and running transactions.
pub struct ReplicaNode {
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
    running: HashMap<TxnId, TxnExecutor>,
    stats: ReplicaStats,
}

impl ReplicaNode {
    /// Creates a cold replica over `catalog`.
    pub fn new(catalog: Catalog, config: ReplicaConfig, rng: SimRng) -> Self {
        ReplicaNode {
            pool: BufferPool::with_capacity_bytes(config.mem_bytes),
            disk: DiskModel::new(config.disk),
            cpu: CpuServer::new(),
            writer: BackgroundWriter::new(config.writer),
            gatekeeper: Gatekeeper::new(config.mpl),
            filter: UpdateFilter::all(),
            daemon: LoadDaemon::paper_default(),
            rng,
            catalog,
            config,
            applied: Version::ZERO,
            running: HashMap::new(),
            stats: ReplicaStats::default(),
        }
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
        let universe: Vec<_> = self.catalog.relations().iter().map(|r| r.id).collect();
        for rel in filter.dropped_from(universe) {
            self.pool.evict_relation(rel);
        }
        self.filter = filter;
    }

    /// Whether `txn` is executing (or queued) on this replica. A crash
    /// drops all running transactions, so step events scheduled before the
    /// crash may refer to transactions that no longer exist.
    pub fn is_running(&self, txn: TxnId) -> bool {
        self.running.contains_key(&txn)
    }

    /// Submits a transaction; returns `true` when admitted (step it now) or
    /// `false` when queued behind the Gatekeeper.
    pub fn submit(&mut self, executor: TxnExecutor) -> bool {
        let id = executor.txn();
        let admitted = self.gatekeeper.admit(id);
        self.running.insert(id, executor);
        admitted
    }

    /// Advances transaction `txn` from time `now`.
    ///
    /// Consumes up to one CPU quantum of page touches; a buffer-pool miss
    /// submits the disk read (plus a write-back when the victim was dirty)
    /// and yields.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is not running on this replica.
    pub fn step(&mut self, txn: TxnId, now: SimTime) -> StepOutcome {
        let mut executor = self
            .running
            .remove(&txn)
            .unwrap_or_else(|| panic!("step of unknown transaction {txn}"));
        let mut cpu_accum: u64 = 0;
        loop {
            match executor.next_touch(&self.catalog, &mut self.rng) {
                None => {
                    let done = self.cpu.run(now, cpu_accum);
                    let ws = executor.into_writeset();
                    return if ws.is_empty() {
                        StepOutcome::Done(done)
                    } else {
                        StepOutcome::ReadyToCommit(done, ws)
                    };
                }
                Some(touch) => {
                    cpu_accum += touch.cpu_us;
                    match self.pool.touch(touch.page) {
                        Touch::Hit => {
                            if touch.write.is_some() {
                                self.pool.mark_dirty(touch.page);
                            }
                            if cpu_accum >= self.config.cpu_quantum_us {
                                let t = self.cpu.run(now, cpu_accum);
                                self.running.insert(txn, executor);
                                return StepOutcome::Busy(t);
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
                            self.running.insert(txn, executor);
                            return StepOutcome::Busy(t_read);
                        }
                    }
                }
            }
        }
    }

    /// Completes a transaction (after commit, read-only completion, or
    /// abort); returns the next Gatekeeper-admitted transaction, if any.
    pub fn finish(&mut self, committed: bool) -> Option<TxnId> {
        if committed {
            self.stats.local_completed += 1;
        }
        self.gatekeeper.release()
    }

    /// Discards a queued-or-running transaction on abort (its executor state
    /// is dropped; the client will retry with a fresh snapshot).
    pub fn discard(&mut self, txn: TxnId) {
        self.running.remove(&txn);
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
                cpu_us += self.config.apply_item_us;
                self.apply_item_pages(now, item, &mut last_io);
            }
            if any {
                cpu_us += self.config.apply_base_us;
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
        rels: &std::collections::BTreeSet<tashkent_storage::RelationId>,
    ) -> SimTime {
        let mut cpu_us: u64 = 0;
        let mut last_io = now;
        for (_, items) in writesets {
            let mut any = false;
            for &item in items {
                if !rels.contains(&item.rel()) {
                    continue;
                }
                any = true;
                self.stats.items_backfilled += 1;
                cpu_us += self.config.apply_item_us;
                self.apply_item_pages(now, item, &mut last_io);
            }
            if any {
                cpu_us += self.config.apply_base_us;
                self.stats.writesets_backfilled += 1;
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

    /// The most recent smoothed load report.
    pub fn load_report(&self) -> LoadReport {
        self.daemon.report()
    }

    /// Crashes the replica: cold cache, all in-flight work lost. Returns the
    /// transactions that were dropped (clients must retry elsewhere).
    pub fn crash(&mut self) -> Vec<TxnId> {
        self.pool = BufferPool::with_capacity_bytes(self.config.mem_bytes);
        let mut dropped: Vec<TxnId> = self.running.drain().map(|(id, _)| id).collect();
        dropped.sort_unstable(); // Deterministic order (HashMap drain is not).
        self.gatekeeper.drain();
        dropped
    }

    /// Recovers the replica to `version` (standard recovery from the
    /// certifier's persistent log or a peer copy, §3); the cache stays cold.
    pub fn recover(&mut self, version: Version) {
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
        ReplicaNode::new(catalog(), config, SimRng::seed_from(7))
    }

    fn scan_plan(c: &Catalog, rel: &str) -> TxnPlan {
        TxnPlan::new(vec![PlanStep::Read {
            rel: c.by_name(rel).unwrap().id,
            access: Access::SeqScan,
        }])
    }

    fn run_to_completion(node: &mut ReplicaNode, txn: TxnId, mut now: SimTime) -> StepOutcome {
        loop {
            match node.step(txn, now) {
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
        assert!(node.submit(ex));
        let out = run_to_completion(&mut node, TxnId(1), SimTime::ZERO);
        match out {
            StepOutcome::Done(t) => assert!(t > SimTime::ZERO),
            other => panic!("unexpected {other:?}"),
        }
        // Cold cache: all 16 pages read from disk.
        assert_eq!(node.disk_stats().read_pages, 16);
        assert_eq!(node.finish(true), None);
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
            node.submit(ex);
            run_to_completion(&mut node, TxnId(i), SimTime::ZERO);
            node.finish(true);
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
            node.submit(ex);
            run_to_completion(&mut node, TxnId(i), SimTime::ZERO);
            node.finish(true);
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
        node.submit(ex);
        match run_to_completion(&mut node, TxnId(5), SimTime::ZERO) {
            StepOutcome::ReadyToCommit(_, ws) => {
                assert!(!ws.is_empty());
                assert_eq!(ws.txn, TxnId(5));
            }
            other => panic!("unexpected {other:?}"),
        }
        node.commit_local(Version(1));
        assert_eq!(node.applied(), Version(1));
        node.finish(true);
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
            node.submit(ex);
            run_to_completion(&mut node, TxnId(i as u64), SimTime::ZERO);
            node.finish(true);
        }
        node.set_filter(UpdateFilter::only([item]));
        // Orders (and its index) evicted; item stays warm.
        let pool_orders = {
            let mut count = 0;
            for page in 0..64 {
                if node.pool_stats().hits.checked_add(0).is_some() {
                    // Residency probe via touch-free API:
                    count += usize::from(
                        node.is_page_resident(tashkent_storage::GlobalPageId::new(orders, page)),
                    );
                }
            }
            count
        };
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
        // Backfill the orders group from the log: re-applies only its items.
        let rels: std::collections::BTreeSet<_> = [orders_rel].into_iter().collect();
        let done = node.backfill_writesets(SimTime::from_secs(1), log.since(Version(0)), &rels);
        assert!(done > SimTime::from_secs(1));
        assert_eq!(node.stats().items_backfilled, 1);
        assert_eq!(node.stats().writesets_backfilled, 1);
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
        let mut node = ReplicaNode::new(catalog(), config, SimRng::seed_from(1));
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
        assert!(node.submit(ex1));
        assert!(!node.submit(ex2));
        assert_eq!(node.outstanding(), 2);
        run_to_completion(&mut node, TxnId(1), SimTime::ZERO);
        assert_eq!(node.finish(true), Some(TxnId(2)));
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
        node.submit(ex);
        let dropped = node.crash();
        assert_eq!(dropped, vec![TxnId(9)]);
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
}
