//! Run metrics: throughput, response times, disk I/O per transaction.

use tashkent_certifier::GroupCommits;
use tashkent_core::DispatchStats;
use tashkent_sim::{fnv1a_fold, Histogram, OnlineStats, SimTime, FNV1A_BASIS};

use crate::trace::TraceSummary;

/// One group → replica-count line, for the paper's Tables 2 and 4.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSnapshot {
    /// Names of the transaction types in the group.
    pub types: Vec<String>,
    /// Number of replicas allocated.
    pub replicas: usize,
    /// Mean bottleneck load over the group's replicas at run end.
    pub load: f64,
}

/// What failed (or healed) at a [`FaultEvent`]'s instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A replica crashed (index).
    ReplicaCrash(usize),
    /// A replica finished log-replay recovery and rejoined dispatch (index).
    ReplicaRecover(usize),
    /// A certifier group elected a new leader after a kill (or after a
    /// revival drained its wait queue).
    CertifierFailover {
        /// Certifier-group index (0 in the paper's one-group deployment).
        group: usize,
        /// Index of the newly elected leader within the group.
        leader: usize,
    },
    /// Partial replication: relation group `group` was re-replicated onto
    /// replica `to` via certifier-log backfill (a crash dropped it below
    /// `min_copies` live holders, or an explicit `Rereplicate` event fired).
    /// Recorded at backfill *completion* time, carrying the traffic volume,
    /// so the determinism fingerprint covers migration timing and bytes.
    Rereplicate {
        /// Relation-group index in the run's placement map.
        group: usize,
        /// The replica that became a holder.
        to: usize,
        /// Bytes the backfill shipped onto the new holder.
        bytes: u64,
    },
    /// Skew-driven migration: relation group `group` moved from holder
    /// `from` to replica `to` (capped backfill onto the target, then the
    /// donor dropped). Recorded at backfill completion with the traffic
    /// volume, like [`FaultKind::Rereplicate`].
    Migrate {
        /// Relation-group index in the run's placement map.
        group: usize,
        /// The donor holder dropped once the copy completed.
        from: usize,
        /// The replica that became a holder.
        to: usize,
        /// Bytes the backfill shipped onto the new holder.
        bytes: u64,
    },
    /// Post-recovery shrink: replica `from` was dropped from relation group
    /// `group`'s holder set because the group was over-replicated (a
    /// crash-triggered widening plus the crashed holder's recovery left it
    /// above `min_copies`).
    ShrinkHolder {
        /// Relation-group index in the run's placement map.
        group: usize,
        /// The holder dropped from the group.
        from: usize,
    },
    /// The failure detector suspected a replica (index): missed heartbeats
    /// reached the detector's suspect threshold (2). Dispatch eligibility drops
    /// and in-flight transactions are retried on survivors, but
    /// re-replication waits for [`FaultKind::ReplicaDead`]. The event's
    /// `injected_at` carries the underlying fault's injection time, so
    /// `at − injected_at` is the detection latency.
    ReplicaSuspected(usize),
    /// The failure detector confirmed a suspected replica dead (index):
    /// missed heartbeats reached the detector's dead threshold (5).
    /// Re-replication of under-copied groups begins here.
    ReplicaDead(usize),
    /// A previously suspected (or dead-declared) replica answered a
    /// heartbeat again (index): a false suspicion, or a recovery finishing
    /// its redo replay. The replica rejoins dispatch via a cheap
    /// filter-widen; if it had been declared dead, over-replicated groups
    /// shrink back.
    ReplicaTrusted(usize),
    /// A link partition took effect between `a` and `b` (either may be
    /// [`crate::events::CONTROL_NODE`]): messages between the pair are
    /// dropped until the heal.
    Partition {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// The partitioned link between `a` and `b` healed.
    PartitionHealed {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
}

/// One failure-injection event, as it actually took effect during the run.
///
/// The fault log is part of the run's observable result: the determinism
/// fingerprint includes crash/recover timing, so a run that reordered
/// failure handling would be caught.
///
/// `at` is when the cluster *acted on* the fault; `injected_at` is when the
/// underlying physical fault happened. With the omniscient oracle the two
/// coincide; with the heartbeat detector a [`FaultKind::ReplicaSuspected`]
/// records `at > injected_at` and the gap is the detection latency —
/// first-class in the determinism fingerprint via `PartialEq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault took effect (the cluster reacted).
    pub at: SimTime,
    /// When the underlying fault was physically injected (equals `at` for
    /// oracle-observed faults).
    pub injected_at: SimTime,
    /// What happened.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Detection latency: how long the fault went unnoticed before the
    /// cluster reacted (zero for oracle-observed faults).
    pub fn detection_latency_us(&self) -> u64 {
        self.at.saturating_since(self.injected_at)
    }
}

/// The completions of a measurement window: how many fell in each whole
/// second since the window opened (what [`RunResult::timeseries`] reads),
/// their count, and a digest of their exact timestamps. Equality compares
/// all three, so two runs' completions are equal exactly when their
/// timestamps are, short of a 64-bit hash collision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completions {
    per_sec: Vec<u64>,
    count: u64,
    /// 64-bit FNV-1a fold ([`fnv1a_fold`]) of each completion's timestamp
    /// in µs, in record order.
    digest: u64,
}

impl Completions {
    fn new() -> Self {
        Completions {
            per_sec: Vec::new(),
            count: 0,
            digest: FNV1A_BASIS,
        }
    }

    /// Records a completion at `now` in the window opened at `window_start`.
    fn record(&mut self, window_start: SimTime, now: SimTime) {
        let sec = (now.saturating_since(window_start) / 1_000_000) as usize;
        if self.per_sec.len() <= sec {
            self.per_sec.resize(sec + 1, 0);
        }
        self.per_sec[sec] += 1;
        self.count += 1;
        self.digest = fnv1a_fold(self.digest, now.as_micros());
    }

    /// Completions recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether none were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The cluster's cumulative counters, summed over replicas: what a
/// measurement window differences between its open and its close.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Disk bytes read.
    pub read_bytes: u64,
    /// Disk bytes written.
    pub write_bytes: u64,
    /// CPU busy µs.
    pub cpu_busy_us: u64,
    /// Disk busy µs.
    pub disk_busy_us: u64,
    /// Writeset bytes the certifier link shipped to replicas.
    pub propagated_ws_bytes: u64,
    /// Writeset bytes the link withheld from non-holders.
    pub filtered_ws_bytes: u64,
}

/// Live accounting during a run; it owns the measurement window.
#[derive(Debug, Clone)]
pub struct Metrics {
    window_start: SimTime,
    committed: u64,
    updates: u64,
    aborts: u64,
    retries_exhausted: u64,
    resp: OnlineStats,
    resp_hist: Histogram,
    /// Response-histogram bounds, kept so window resets preserve them.
    hist_bucket_s: f64,
    hist_buckets: usize,
    /// Completions in the window, per second (for time-series output).
    completions: Completions,
    /// Per-transaction-type response statistics, indexed by type id.
    per_type: Vec<OnlineStats>,
    /// Per-transaction-type certification-abort counts, indexed by type id.
    per_type_aborts: Vec<u64>,
    /// The cluster's counters when the window opened.
    at_open: Counters,
    /// Injected faults as they took effect (whole run, not just the
    /// measurement window).
    faults: Vec<FaultEvent>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates empty metrics with the window starting at time zero and the
    /// historical response-histogram bounds (50 ms buckets to 20 s).
    pub fn new() -> Self {
        Self::with_hist(0.050, 400)
    }

    /// Creates empty metrics with configurable response-histogram bounds
    /// ([`crate::config::ClusterConfig::resp_hist_bucket_s`] /
    /// [`crate::config::ClusterConfig::resp_hist_buckets`]).
    pub fn with_hist(bucket_s: f64, buckets: usize) -> Self {
        Metrics {
            window_start: SimTime::ZERO,
            committed: 0,
            updates: 0,
            aborts: 0,
            retries_exhausted: 0,
            resp: OnlineStats::new(),
            resp_hist: Histogram::new(bucket_s, buckets),
            hist_bucket_s: bucket_s,
            hist_buckets: buckets,
            completions: Completions::new(),
            per_type: Vec::new(),
            per_type_aborts: Vec::new(),
            at_open: Counters::default(),
            faults: Vec::new(),
        }
    }

    /// Restarts the measurement window (end of warm-up): clears counts and
    /// snapshots the cluster's `counters`. The fault log spans the whole
    /// run, so it survives the reset.
    pub fn start_window(&mut self, now: SimTime, counters: Counters) {
        let faults = std::mem::take(&mut self.faults);
        *self = Metrics::with_hist(self.hist_bucket_s, self.hist_buckets);
        self.faults = faults;
        self.window_start = now;
        self.at_open = counters;
    }

    /// Records a fault the cluster acted on at `at`, physically injected at
    /// `injected_at`: the two coincide for an oracle-observed fault, and
    /// the gap is the detection latency for a detected one (suspicions,
    /// dead declarations, trust restorations).
    pub fn record_fault(&mut self, at: SimTime, injected_at: SimTime, kind: FaultKind) {
        self.faults.push(FaultEvent {
            at,
            injected_at,
            kind,
        });
    }

    /// Injected faults so far, in effect order.
    pub fn faults(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// Records a committed (or read-only completed) transaction.
    pub fn record_completion(&mut self, now: SimTime, started: SimTime, is_update: bool) {
        self.record_completion_typed(now, started, is_update, 0);
    }

    /// Records a committed transaction with its type id (for per-type
    /// response breakdowns).
    pub fn record_completion_typed(
        &mut self,
        now: SimTime,
        started: SimTime,
        is_update: bool,
        txn_type: u32,
    ) {
        self.committed += 1;
        if is_update {
            self.updates += 1;
        }
        let resp_s = (now.saturating_since(started)) as f64 / 1e6;
        self.resp.observe(resp_s);
        self.resp_hist.observe(resp_s);
        self.completions.record(self.window_start, now);
        let idx = txn_type as usize;
        if self.per_type.len() <= idx {
            self.per_type.resize_with(idx + 1, OnlineStats::new);
        }
        self.per_type[idx].observe(resp_s);
    }

    /// Records a certification abort of the given transaction type (the
    /// client will retry).
    pub fn record_abort(&mut self, txn_type: u32) {
        self.aborts += 1;
        let idx = txn_type as usize;
        if self.per_type_aborts.len() <= idx {
            self.per_type_aborts.resize(idx + 1, 0);
        }
        self.per_type_aborts[idx] += 1;
    }

    /// Records a transaction whose retries were exhausted.
    pub fn record_gave_up(&mut self) {
        self.retries_exhausted += 1;
    }

    /// Committed transactions so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Aborts so far.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Closes the window at `now` into a [`RunResult`]: the cluster's
    /// `counters` less those at the window's open give the disk KB per
    /// transaction, the mean utilizations of its `replicas` and the
    /// writeset bytes shipped and withheld. The balancer, certifier, copy,
    /// redo and trace fields are left at their defaults for the caller.
    pub fn finish(
        &self,
        now: SimTime,
        counters: Counters,
        replicas: usize,
        assignments: Vec<GroupSnapshot>,
    ) -> RunResult {
        let window_s = (now.saturating_since(self.window_start) as f64 / 1e6).max(1e-9);
        let committed = self.committed;
        let per_txn = |bytes: u64| {
            if committed == 0 {
                0.0
            } else {
                bytes as f64 / 1024.0 / committed as f64
            }
        };
        let (c, c0) = (counters, self.at_open);
        let window_us = (now.saturating_since(self.window_start) as f64).max(1.0) * replicas as f64;
        RunResult {
            tps: committed as f64 / window_s,
            committed,
            updates: self.updates,
            aborts: self.aborts,
            retries_exhausted: self.retries_exhausted,
            mean_response_s: self.resp.mean(),
            p95_response_s: self.resp_hist.percentile(95.0),
            p99_response_s: self.resp_hist.percentile(99.0),
            read_kb_per_txn: per_txn(c.read_bytes.saturating_sub(c0.read_bytes)),
            write_kb_per_txn: per_txn(c.write_bytes.saturating_sub(c0.write_bytes)),
            window_s,
            window_start: self.window_start,
            completions: self.completions.clone(),
            assignments,
            cpu_util: c.cpu_busy_us.saturating_sub(c0.cpu_busy_us) as f64 / window_us,
            disk_util: c.disk_busy_us.saturating_sub(c0.disk_busy_us) as f64 / window_us,
            lb: DispatchStats::default(),
            propagated_ws_bytes: c.propagated_ws_bytes.saturating_sub(c0.propagated_ws_bytes),
            filtered_ws_bytes: c.filtered_ws_bytes.saturating_sub(c0.filtered_ws_bytes),
            migration_bytes: 0,
            migration_us: 0,
            redo_bytes: 0,
            redo_us: 0,
            trace_summary: None,
            cert_group_commits: Vec::new(),
            faults: self.faults.clone(),
            per_type: {
                let n = self.per_type.len().max(self.per_type_aborts.len());
                (0..n)
                    .map(|i| {
                        let (count, mean, max) = self
                            .per_type
                            .get(i)
                            .map_or((0, 0.0, 0.0), |s| (s.count(), s.mean(), s.max()));
                        let aborts = self.per_type_aborts.get(i).copied().unwrap_or(0);
                        (count, mean, max, aborts)
                    })
                    .collect()
            },
        }
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Committed transactions per second over the measurement window — the
    /// paper's primary metric.
    pub tps: f64,
    /// Committed transactions in the window.
    pub committed: u64,
    /// Committed update transactions.
    pub updates: u64,
    /// Certification aborts.
    pub aborts: u64,
    /// Transactions abandoned after exhausting retries.
    pub retries_exhausted: u64,
    /// Mean client-perceived response time, in seconds.
    pub mean_response_s: f64,
    /// 95th-percentile response time, in seconds.
    pub p95_response_s: f64,
    /// 99th-percentile response time, in seconds (same histogram; its
    /// bounds are configurable via `ClusterConfig::resp_hist_bucket_s` /
    /// `resp_hist_buckets`).
    pub p99_response_s: f64,
    /// Cluster-wide disk read KB per committed transaction (Tables 1/3/5).
    pub read_kb_per_txn: f64,
    /// Cluster-wide disk write KB per committed transaction (Tables 1/3/5).
    pub write_kb_per_txn: f64,
    /// Measurement window length, in seconds.
    pub window_s: f64,
    /// Window start (for time-series bucketing).
    pub window_start: SimTime,
    /// Completions within the window: per-second counts from the window
    /// start, their number and a digest of their timestamps.
    pub completions: Completions,
    /// Final MALB groupings (empty for other policies).
    pub assignments: Vec<GroupSnapshot>,
    /// Mean CPU utilization across replicas over the window.
    pub cpu_util: f64,
    /// Mean disk utilization across replicas over the window.
    pub disk_util: f64,
    /// Load-balancer activity over the whole run (filled by
    /// `ClusterState::finish_result`).
    pub lb: DispatchStats,
    /// Writeset bytes actually shipped to replicas over the measurement
    /// window: pages to holders, version ticks to non-holders. Under full
    /// replication this equals the full propagation volume.
    pub propagated_ws_bytes: u64,
    /// Writeset bytes partial replication withheld from non-holders over
    /// the window — propagation traffic saved vs full replication (zero
    /// under full replication).
    pub filtered_ws_bytes: u64,
    /// Bytes shipped by placement backfills (crash re-replication and
    /// skew-driven migration) over the whole run (filled by
    /// `ClusterState::finish_result`; zero under full replication).
    pub migration_bytes: u64,
    /// Total simulated time backfills were in flight, in µs, summed over
    /// tasks (filled by `ClusterState::finish_result`). Under a bandwidth
    /// cap this scales inversely with the cap — the observable cost of
    /// migration.
    pub migration_us: u64,
    /// Bytes replayed from the certifier log by recovering replicas over
    /// the whole run (filled by `ClusterState::finish_result`). With
    /// `ClusterConfig::checkpoint_lag = 0` this covers only the writesets
    /// missed while down; a non-zero lag adds the `applied − k` redo window
    /// on top, competing with foreground propagation.
    pub redo_bytes: u64,
    /// Total simulated time recovering replicas spent replaying redo
    /// windows, in µs, summed over recoveries (filled by
    /// `ClusterState::finish_result`).
    pub redo_us: u64,
    /// Trace event accounting when tracing was enabled (`None` otherwise;
    /// filled by `ClusterState::finish_result`). It describes the
    /// observation of the run, not its outcome, and is excluded from the
    /// determinism fingerprints — the trace *bytes* have their own,
    /// stricter, equality test axis.
    pub trace_summary: Option<TraceSummary>,
    /// Per-certifier-group commit accounting, indexed by group: how many
    /// global versions touched the group, the last of them and a digest of
    /// them in order, kept by the certifier as it commits (empty with one
    /// group, whose accounting would be the log head's). Part of the
    /// observable result: the determinism fingerprint includes every
    /// group's, so a run that reordered or split a cross-group commit would
    /// be caught.
    pub cert_group_commits: Vec<GroupCommits>,
    /// Injected faults as they took effect, in order, over the whole run
    /// (crashes, recoveries, certifier failovers).
    pub faults: Vec<FaultEvent>,
    /// Per-type `(count, mean response s, max response s, aborts)` indexed
    /// by type id (types never completed nor aborted may be missing from
    /// the tail).
    pub per_type: Vec<(u64, f64, f64, u64)>,
}

impl RunResult {
    /// Buckets completions into `bucket_secs`-second intervals and returns
    /// `(bucket_start_s, tps)` pairs — the Figure 6 time series. The window
    /// splits into `ceil(window_s / bucket_secs)` buckets, at least one;
    /// completions at or past the last bucket's end count in the last.
    ///
    /// Each bucket sums the per-second bins counted from the window start.
    /// Every experiment opens its window on a whole second (`EndWarmup` is
    /// scheduled with `SimTime::from_secs`), where that equals dividing each
    /// completion's time in seconds by the bucket width; in a window opened
    /// mid-second the float division could differ at a bucket edge.
    pub fn timeseries(&self, bucket_secs: u64) -> Vec<(f64, f64)> {
        if self.completions.is_empty() {
            return Vec::new();
        }
        let bucket_s = bucket_secs as f64;
        let start = self.window_start.as_secs_f64();
        let end = start + self.window_s;
        let nbuckets = ((end - start) / bucket_s).ceil() as usize;
        let mut counts = vec![0u64; nbuckets.max(1)];
        for (sec, n) in self.completions.per_sec.iter().enumerate() {
            let idx = (sec / bucket_secs as usize).min(counts.len() - 1);
            counts[idx] += n;
        }
        counts
            .iter()
            .enumerate()
            .map(|(i, c)| (start + i as f64 * bucket_s, *c as f64 / bucket_s))
            .collect()
    }

    /// Mean throughput over the `bucket_secs`-second buckets starting in
    /// `[from_s, to_s)` — the plateau readings the failover/reconfiguration
    /// figures and tests compare. Returns 0 when no bucket starts in the
    /// window.
    pub fn plateau(&self, bucket_secs: u64, from_s: f64, to_s: f64) -> f64 {
        let vals: Vec<f64> = self
            .timeseries(bucket_secs)
            .into_iter()
            .filter(|(t, _)| *t >= from_s && *t < to_s)
            .map(|(_, tps)| tps)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Abort rate relative to commit attempts.
    pub fn abort_fraction(&self) -> f64 {
        let attempts = self.committed + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tps_is_committed_over_window() {
        let mut m = Metrics::new();
        m.start_window(SimTime::from_secs(10), Counters::default());
        for i in 0..50 {
            m.record_completion(
                SimTime::from_secs(10 + i % 20),
                SimTime::from_secs(9),
                false,
            );
        }
        let r = m.finish(SimTime::from_secs(35), Counters::default(), 1, Vec::new());
        assert_eq!(r.committed, 50);
        assert!((r.tps - 2.0).abs() < 1e-9, "tps {}", r.tps);
    }

    #[test]
    fn disk_kb_per_txn_uses_window_delta() {
        let mut m = Metrics::new();
        let disk = |read: u64, write: u64| Counters {
            read_bytes: read,
            write_bytes: write,
            ..Counters::default()
        };
        m.start_window(SimTime::ZERO, disk(1024 * 100, 1024 * 10));
        for _ in 0..10 {
            m.record_completion(SimTime::from_secs(1), SimTime::ZERO, true);
        }
        let r = m.finish(
            SimTime::from_secs(10),
            disk(1024 * 820, 1024 * 130),
            1,
            Vec::new(),
        );
        assert!((r.read_kb_per_txn - 72.0).abs() < 1e-9);
        assert!((r.write_kb_per_txn - 12.0).abs() < 1e-9);
    }

    #[test]
    fn window_counters_difference_open_and_close() {
        let at_open = Counters {
            read_bytes: 1024 * 100,
            write_bytes: 1024 * 10,
            cpu_busy_us: 1_000_000,
            disk_busy_us: 3_000_000,
            propagated_ws_bytes: 5_000,
            filtered_ws_bytes: 700,
        };
        // 10 s on 4 replicas: 40 s of replica time, half of it CPU-busy
        // and a quarter disk-busy.
        let at_close = Counters {
            read_bytes: 1024 * 820,
            write_bytes: 1024 * 130,
            cpu_busy_us: 21_000_000,
            disk_busy_us: 13_000_000,
            propagated_ws_bytes: 9_096,
            filtered_ws_bytes: 1_000,
        };
        let mut m = Metrics::new();
        m.start_window(SimTime::from_secs(10), at_open);
        for _ in 0..10 {
            m.record_completion(SimTime::from_secs(11), SimTime::from_secs(10), true);
        }
        let r = m.finish(SimTime::from_secs(20), at_close, 4, Vec::new());
        assert_eq!(r.read_kb_per_txn, 72.0);
        assert_eq!(r.write_kb_per_txn, 12.0);
        assert_eq!(r.cpu_util, 0.5);
        assert_eq!(r.disk_util, 0.25);
        assert_eq!(r.propagated_ws_bytes, 4_096);
        assert_eq!(r.filtered_ws_bytes, 300);
    }

    #[test]
    fn response_stats_accumulate() {
        let mut m = Metrics::new();
        m.start_window(SimTime::ZERO, Counters::default());
        m.record_completion(SimTime::from_millis(1500), SimTime::from_millis(500), false);
        m.record_completion(SimTime::from_millis(2500), SimTime::from_millis(500), false);
        let r = m.finish(SimTime::from_secs(10), Counters::default(), 1, Vec::new());
        assert!((r.mean_response_s - 1.5).abs() < 1e-9);
        assert!(r.p95_response_s >= 1.9);
    }

    #[test]
    fn start_window_resets_counts() {
        let mut m = Metrics::new();
        m.record_completion(SimTime::from_secs(1), SimTime::ZERO, false);
        m.record_abort(0);
        m.start_window(SimTime::from_secs(60), Counters::default());
        assert_eq!(m.committed(), 0);
        assert_eq!(m.aborts(), 0);
    }

    #[test]
    fn start_window_keeps_configured_histogram_bounds() {
        // 1 ms buckets up to 10 ms: a 5 ms response lands mid-histogram,
        // which the default 50 ms buckets could not resolve.
        let mut m = Metrics::with_hist(0.001, 10);
        m.start_window(SimTime::from_secs(1), Counters::default());
        for _ in 0..100 {
            m.record_completion(SimTime::from_millis(1005), SimTime::from_secs(1), false);
        }
        let r = m.finish(SimTime::from_secs(2), Counters::default(), 1, Vec::new());
        assert!(
            r.p95_response_s > 0.004 && r.p95_response_s < 0.007,
            "p95 {} must resolve at 1 ms granularity",
            r.p95_response_s
        );
        assert!(r.p99_response_s >= r.p95_response_s);
    }

    #[test]
    fn per_type_aborts_are_counted() {
        let mut m = Metrics::new();
        m.start_window(SimTime::ZERO, Counters::default());
        m.record_completion_typed(SimTime::from_secs(1), SimTime::ZERO, true, 0);
        m.record_abort(2);
        m.record_abort(2);
        m.record_abort(0);
        let r = m.finish(SimTime::from_secs(2), Counters::default(), 1, Vec::new());
        assert_eq!(r.aborts, 3);
        assert_eq!(r.per_type.len(), 3, "padded to the aborting type");
        assert_eq!(r.per_type[0].0, 1);
        assert_eq!(r.per_type[0].3, 1);
        assert_eq!(r.per_type[1].3, 0);
        assert_eq!(r.per_type[2], (0, 0.0, 0.0, 2), "abort-only type");
    }

    #[test]
    fn timeseries_buckets_completions() {
        let mut m = Metrics::new();
        m.start_window(SimTime::ZERO, Counters::default());
        // 30 completions in the first 30 s, none after.
        for i in 0..30 {
            m.record_completion(SimTime::from_secs(i), SimTime::ZERO, false);
        }
        let r = m.finish(SimTime::from_secs(60), Counters::default(), 1, Vec::new());
        let ts = r.timeseries(30);
        assert_eq!(ts.len(), 2);
        assert!((ts[0].1 - 1.0).abs() < 1e-9, "first bucket {:?}", ts[0]);
        assert_eq!(ts[1].1, 0.0);
    }

    #[test]
    fn plateau_averages_buckets_in_window() {
        let mut m = Metrics::new();
        m.start_window(SimTime::ZERO, Counters::default());
        // 2 tps for 10 s, then 4 tps for 10 s.
        for i in 0..20 {
            m.record_completion(SimTime::from_millis(i * 500), SimTime::ZERO, false);
        }
        for i in 0..40 {
            m.record_completion(SimTime::from_millis(10_000 + i * 250), SimTime::ZERO, false);
        }
        let r = m.finish(SimTime::from_secs(20), Counters::default(), 1, Vec::new());
        assert!((r.plateau(5, 0.0, 10.0) - 2.0).abs() < 1e-9);
        assert!((r.plateau(5, 10.0, 20.0) - 4.0).abs() < 1e-9);
        assert_eq!(r.plateau(5, 50.0, 60.0), 0.0, "empty window is 0");
    }

    #[test]
    fn abort_fraction_bounds() {
        let mut m = Metrics::new();
        m.start_window(SimTime::ZERO, Counters::default());
        m.record_completion(SimTime::from_secs(1), SimTime::ZERO, true);
        m.record_abort(0);
        let r = m.finish(SimTime::from_secs(2), Counters::default(), 1, Vec::new());
        assert!((r.abort_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn detected_faults_carry_injection_time() {
        let mut m = Metrics::new();
        let crash_at = SimTime::from_secs(1);
        m.record_fault(crash_at, crash_at, FaultKind::ReplicaCrash(2));
        m.record_fault(
            SimTime::from_secs(3),
            SimTime::from_secs(1),
            FaultKind::ReplicaSuspected(2),
        );
        // Oracle faults have zero detection latency; detected faults carry
        // the inject → react gap.
        assert_eq!(m.faults()[0].detection_latency_us(), 0);
        assert_eq!(m.faults()[1].detection_latency_us(), 2_000_000);
        // The window reset preserves injection times along with the log.
        m.start_window(SimTime::from_secs(10), Counters::default());
        let r = m.finish(SimTime::from_secs(20), Counters::default(), 1, Vec::new());
        assert_eq!(r.faults.len(), 2);
        assert_eq!(r.faults[1].injected_at, SimTime::from_secs(1));
        assert_eq!(r.faults[1].at, SimTime::from_secs(3));
    }

    #[test]
    fn empty_run_is_safe() {
        let m = Metrics::new();
        let counters = Counters {
            read_bytes: 100,
            write_bytes: 100,
            ..Counters::default()
        };
        let r = m.finish(SimTime::from_secs(1), counters, 1, Vec::new());
        assert_eq!(r.tps, 0.0);
        assert_eq!(r.read_kb_per_txn, 0.0);
        assert!(r.timeseries(10).is_empty());
        assert_eq!(r.abort_fraction(), 0.0);
    }
}
