//! Disk-channel model.
//!
//! Every replica in the paper has a single 120 GB, 7200 rpm drive; reads
//! (buffer-pool misses) and writes (dirty-page write-back from update
//! propagation) share that one channel, and the competition between the two
//! is the mechanism behind both MALB's and update filtering's gains (§5.5).
//!
//! The model is a FIFO channel with a positional head: a request for the
//! page immediately following the previously-served page of the same
//! relation costs only the transfer time; any other request additionally
//! pays an average seek + rotational delay. The channel keeps a
//! `busy_until` horizon — submitting work returns the completion time, so
//! the discrete-event simulation needs no events inside the disk itself.

use tashkent_sim::SimTime;

use crate::ids::{GlobalPageId, PAGE_SIZE};

/// Whether a request reads a page in or writes one back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Page read caused by a buffer-pool miss.
    Read,
    /// Dirty-page write-back.
    Write,
}

/// One page-granularity disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequest {
    /// The page being transferred.
    pub page: GlobalPageId,
    /// Read or write.
    pub kind: ReqKind,
}

/// Timing parameters of the simulated drive.
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Average positioning cost (seek + rotational latency) in microseconds
    /// paid whenever the head does not continue a sequential run.
    pub seek_us: u64,
    /// Per-page transfer time in microseconds.
    pub transfer_us: u64,
    /// Forward window (in pages, same relation) within which a request
    /// still counts as sequential — models drive/OS read-ahead riding over
    /// already-cached pages that were skipped in a scan.
    pub seq_window: u32,
}

impl Default for DiskParams {
    /// A 2007-era 7200 rpm desktop drive: ~6.5 ms positioning, ~60 MB/s
    /// sequential transfer (≈ 133 µs per 8 KB page), 32-page read-ahead.
    fn default() -> Self {
        DiskParams {
            seek_us: 8_000,
            transfer_us: 160,
            seq_window: 32,
        }
    }
}

/// Cumulative disk activity counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Pages read.
    pub read_pages: u64,
    /// Pages written.
    pub write_pages: u64,
    /// Requests that paid a seek.
    pub seeks: u64,
    /// Requests served sequentially.
    pub sequential: u64,
    /// Total busy time in microseconds.
    pub busy_us: u64,
}

impl DiskStats {
    /// Bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.read_pages * PAGE_SIZE
    }

    /// Bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.write_pages * PAGE_SIZE
    }
}

/// A single shared disk channel with FIFO service and a positional head.
///
/// # Examples
///
/// ```
/// use tashkent_sim::SimTime;
/// use tashkent_storage::{DiskModel, DiskParams, DiskRequest, GlobalPageId, RelationId, ReqKind};
///
/// let mut disk = DiskModel::new(DiskParams { seek_us: 1_000, transfer_us: 100, seq_window: 1 });
/// let r = |page| DiskRequest { page: GlobalPageId::new(RelationId(0), page), kind: ReqKind::Read };
/// let t1 = disk.submit(SimTime::ZERO, r(10));      // seek + transfer
/// let t2 = disk.submit(SimTime::ZERO, r(11));      // sequential: transfer only
/// assert_eq!(t1.as_micros(), 1_100);
/// assert_eq!(t2.as_micros(), 1_200);
/// ```
#[derive(Debug, Clone)]
pub struct DiskModel {
    params: DiskParams,
    busy_until: SimTime,
    head: Option<GlobalPageId>,
    stats: DiskStats,
    /// Busy time accumulated since the last utilization sample.
    window_busy_us: u64,
}

impl DiskModel {
    /// Creates a disk with the given timing parameters.
    pub fn new(params: DiskParams) -> Self {
        DiskModel {
            params,
            busy_until: SimTime::ZERO,
            head: None,
            stats: DiskStats::default(),
            window_busy_us: 0,
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Submits a request at time `now`; returns its completion time.
    ///
    /// Requests queue FIFO: service begins at `max(now, busy_until)`.
    pub fn submit(&mut self, now: SimTime, req: DiskRequest) -> SimTime {
        let window = self.params.seq_window.max(1);
        let sequential = self.head.is_some_and(|h| {
            req.page.rel == h.rel && req.page.page > h.page && req.page.page - h.page <= window
        });
        let service = if sequential {
            self.stats.sequential += 1;
            self.params.transfer_us
        } else {
            self.stats.seeks += 1;
            self.params.seek_us + self.params.transfer_us
        };
        match req.kind {
            ReqKind::Read => self.stats.read_pages += 1,
            ReqKind::Write => self.stats.write_pages += 1,
        }
        let start = self.busy_until.max(now);
        let done = start + service;
        self.busy_until = done;
        self.head = Some(req.page);
        self.stats.busy_us += service;
        self.window_busy_us += service;
        done
    }

    /// Microseconds of already-queued work ahead of a request arriving now.
    pub fn backlog_us(&self, now: SimTime) -> u64 {
        self.busy_until.saturating_since(now)
    }

    /// Returns and resets the busy time accumulated since the previous call.
    ///
    /// The per-replica load daemon divides this by its sampling interval to
    /// report disk utilization. Because service time is charged at submit
    /// time, a deeply queued disk can report utilization above 1.0 for a
    /// window; callers clamp as needed (overload is still overload).
    pub fn take_window_busy_us(&mut self) -> u64 {
        std::mem::take(&mut self.window_busy_us)
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::new(DiskParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelationId;

    const P: DiskParams = DiskParams {
        seek_us: 1_000,
        transfer_us: 100,
        seq_window: 1,
    };

    fn read(rel: u32, page: u32) -> DiskRequest {
        DiskRequest {
            page: GlobalPageId::new(RelationId(rel), page),
            kind: ReqKind::Read,
        }
    }

    fn write(rel: u32, page: u32) -> DiskRequest {
        DiskRequest {
            page: GlobalPageId::new(RelationId(rel), page),
            kind: ReqKind::Write,
        }
    }

    #[test]
    fn first_access_pays_seek() {
        let mut d = DiskModel::new(P);
        let done = d.submit(SimTime::ZERO, read(0, 5));
        assert_eq!(done.as_micros(), 1_100);
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn sequential_run_transfers_only() {
        let mut d = DiskModel::new(P);
        d.submit(SimTime::ZERO, read(0, 5));
        let done = d.submit(SimTime::ZERO, read(0, 6));
        assert_eq!(done.as_micros(), 1_200);
        assert_eq!(d.stats().sequential, 1);
    }

    #[test]
    fn interleaved_relations_break_sequentiality() {
        let mut d = DiskModel::new(P);
        d.submit(SimTime::ZERO, read(0, 5));
        d.submit(SimTime::ZERO, read(1, 0));
        let done = d.submit(SimTime::ZERO, read(0, 6));
        // Three seeks: the interleaved access destroyed the run.
        assert_eq!(d.stats().seeks, 3);
        assert_eq!(done.as_micros(), 3 * 1_100);
    }

    #[test]
    fn fifo_queueing_delays_later_requests() {
        let mut d = DiskModel::new(P);
        let t1 = d.submit(SimTime::ZERO, read(0, 0));
        // Arrives while the first is still in service.
        let t2 = d.submit(SimTime::from_micros(50), read(9, 0));
        assert_eq!(t1.as_micros(), 1_100);
        assert_eq!(t2.as_micros(), 2_200);
    }

    #[test]
    fn idle_gap_resets_start_time_not_head() {
        let mut d = DiskModel::new(P);
        d.submit(SimTime::ZERO, read(0, 0));
        // Long idle gap; head is still after page 0, so page 1 is sequential.
        let done = d.submit(SimTime::from_secs(10), read(0, 1));
        assert_eq!(done.as_micros(), 10_000_000 + 100);
    }

    #[test]
    fn reads_and_writes_share_the_channel() {
        let mut d = DiskModel::new(P);
        d.submit(SimTime::ZERO, write(3, 7));
        let done = d.submit(SimTime::ZERO, read(0, 0));
        assert_eq!(done.as_micros(), 2_200);
        assert_eq!(d.stats().write_pages, 1);
        assert_eq!(d.stats().read_pages, 1);
        assert_eq!(d.stats().write_bytes(), PAGE_SIZE);
    }

    #[test]
    fn backlog_reflects_queued_work() {
        let mut d = DiskModel::new(P);
        d.submit(SimTime::ZERO, read(0, 0));
        d.submit(SimTime::ZERO, read(1, 0));
        assert_eq!(d.backlog_us(SimTime::ZERO), 2_200);
        assert_eq!(d.backlog_us(SimTime::from_micros(2_200)), 0);
    }

    #[test]
    fn window_busy_resets_on_take() {
        let mut d = DiskModel::new(P);
        d.submit(SimTime::ZERO, read(0, 0));
        assert_eq!(d.take_window_busy_us(), 1_100);
        assert_eq!(d.take_window_busy_us(), 0);
        d.submit(SimTime::from_secs(1), read(0, 1));
        assert_eq!(d.take_window_busy_us(), 100);
        // Cumulative stats keep the full history.
        assert_eq!(d.stats().busy_us, 1_200);
    }

    #[test]
    fn default_params_are_2007_era() {
        let p = DiskParams::default();
        // Random page: ~6.5 ms → ~150 IOPS; sequential: ~60 MB/s.
        assert!((5_000..9_000).contains(&p.seek_us));
        let mb_per_s = PAGE_SIZE as f64 / (p.transfer_us as f64 / 1e6) / 1e6;
        assert!((40.0..80.0).contains(&mb_per_s), "{mb_per_s} MB/s");
    }
}
