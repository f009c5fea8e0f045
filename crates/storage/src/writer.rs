//! Background writer: periodic write-back of dirty pages.
//!
//! Tashkent replicas never `fsync` (durability lives in the middleware,
//! §4.1), but dirty pages still have to reach disk eventually and those
//! writes compete with reads for the single disk channel. The paper's
//! update-filtering result (§5.5) hinges on exactly this traffic: ~275-byte
//! writesets dirty whole 8 KB pages scattered across the database, and the
//! resulting write-back stream saturates the channel.
//!
//! The writer runs a round every `period`; each round collects up to
//! `max_pages_per_round` dirty pages from the buffer pool and issues them as
//! disk writes. The batches arrive in page order, so the writer submits
//! them as they come. Collecting clears dirty bits, so updates that
//! re-dirty a hot page between rounds are coalesced into a single write —
//! matching the paper's observed ~12 KB of writes per transaction rather
//! than one write per writeset application.

use tashkent_sim::SimTime;

use crate::buffer::BufferPool;
use crate::disk::{DiskModel, DiskRequest, ReqKind};

/// Tuning knobs for the background writer.
#[derive(Debug, Clone, Copy)]
pub struct WriterConfig {
    /// Time between write-back rounds.
    pub period: SimTime,
    /// Maximum pages flushed per round (bounds write bursts).
    pub max_pages_per_round: usize,
}

impl Default for WriterConfig {
    /// A paced trickle: up to 16 pages every 250 ms (≤ 64 pages/s
    /// sustained).
    ///
    /// This mirrors PostgreSQL's background writer plus a spread-out
    /// checkpoint: small bursts bound the read latency behind the shared
    /// FIFO channel, while coalescing stays strong because a page stays
    /// dirty (absorbing repeated updates) until a round collects it. Each
    /// round scans from the pool's clock hand, which only evictions move,
    /// so it takes the dirty pages nearest after the hand first — with a
    /// steady dirty population the effective coalescing window is tens of
    /// seconds, matching checkpoint-scale behaviour.
    fn default() -> Self {
        WriterConfig {
            period: SimTime::from_millis(250),
            max_pages_per_round: 16,
        }
    }
}

/// Periodic dirty-page flusher for one replica.
#[derive(Debug, Clone)]
pub struct BackgroundWriter {
    config: WriterConfig,
    next_round: SimTime,
    pages_written: u64,
}

impl BackgroundWriter {
    /// Creates a writer; the first round fires one period after time zero.
    pub fn new(config: WriterConfig) -> Self {
        BackgroundWriter {
            next_round: config.period,
            config,
            pages_written: 0,
        }
    }

    /// Time of the next scheduled round.
    pub fn next_round(&self) -> SimTime {
        self.next_round
    }

    /// Total pages this writer has flushed.
    pub fn pages_written(&self) -> u64 {
        self.pages_written
    }

    /// Runs rounds that are due at `now`; returns the number of pages
    /// submitted to the disk.
    ///
    /// The caller (the replica's event loop) invokes this from a periodic
    /// tick; the writer tracks its own schedule so the tick granularity does
    /// not matter.
    pub fn run_due(&mut self, now: SimTime, pool: &mut BufferPool, disk: &mut DiskModel) -> usize {
        let mut flushed = 0;
        while self.next_round <= now {
            // The pool hands the batch over in page order. That is elevator
            // ordering: the OS sorts write-back by disk position, so
            // scattered dirty pages of one relation often ride the
            // sequential window instead of each paying a seek.
            let batch = pool.collect_dirty(self.config.max_pages_per_round);
            for page in &batch {
                disk.submit(
                    now,
                    DiskRequest {
                        page: *page,
                        kind: ReqKind::Write,
                    },
                );
            }
            flushed += batch.len();
            self.pages_written += batch.len() as u64;
            self.next_round += self.config.period.as_micros();
        }
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::ids::{GlobalPageId, RelationId};

    /// A 16-frame pool of a one-table catalog: relation 0, of 64 pages.
    fn pool() -> BufferPool {
        let mut catalog = Catalog::new();
        catalog.add_table("t", 64, 640);
        BufferPool::new(16, catalog)
    }

    fn dirty_n(pool: &mut BufferPool, n: u32) {
        for i in 0..n {
            let page = GlobalPageId::new(RelationId(0), i);
            pool.touch(page);
            pool.mark_dirty(page);
        }
    }

    #[test]
    fn no_flush_before_first_period() {
        let mut w = BackgroundWriter::new(WriterConfig::default());
        let period = WriterConfig::default().period;
        let mut pool = pool();
        let mut disk = DiskModel::default();
        dirty_n(&mut pool, 4);
        let just_before = SimTime::from_micros(period.as_micros() - 1);
        assert_eq!(w.run_due(just_before, &mut pool, &mut disk), 0);
        assert_eq!(pool.dirty_count(), 4);
    }

    #[test]
    fn flushes_all_dirty_on_round() {
        let mut w = BackgroundWriter::new(WriterConfig::default());
        let period = WriterConfig::default().period;
        let mut pool = pool();
        let mut disk = DiskModel::default();
        dirty_n(&mut pool, 4);
        assert_eq!(w.run_due(period, &mut pool, &mut disk), 4);
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(disk.stats().write_pages, 4);
        assert_eq!(w.pages_written(), 4);
    }

    #[test]
    fn coalesces_redirty_between_rounds() {
        let mut w = BackgroundWriter::new(WriterConfig::default());
        let period = WriterConfig::default().period;
        let mut pool = pool();
        let mut disk = DiskModel::default();
        // Dirty the same page many times before the round: one write.
        for _ in 0..10 {
            let page = GlobalPageId::new(RelationId(0), 0);
            pool.touch(page);
            pool.mark_dirty(page);
        }
        assert_eq!(w.run_due(period, &mut pool, &mut disk), 1);
    }

    #[test]
    fn respects_per_round_budget() {
        let cfg = WriterConfig {
            period: SimTime::from_secs(1),
            max_pages_per_round: 2,
        };
        let mut w = BackgroundWriter::new(cfg);
        let mut pool = pool();
        let mut disk = DiskModel::default();
        dirty_n(&mut pool, 5);
        assert_eq!(w.run_due(SimTime::from_secs(1), &mut pool, &mut disk), 2);
        assert_eq!(pool.dirty_count(), 3);
        // Next round picks up the remainder (budget again).
        assert_eq!(w.run_due(SimTime::from_secs(2), &mut pool, &mut disk), 2);
        assert_eq!(w.run_due(SimTime::from_secs(3), &mut pool, &mut disk), 1);
    }

    #[test]
    fn catches_up_multiple_missed_rounds() {
        let cfg = WriterConfig {
            period: SimTime::from_secs(1),
            max_pages_per_round: 1,
        };
        let mut w = BackgroundWriter::new(cfg);
        let mut pool = pool();
        let mut disk = DiskModel::default();
        dirty_n(&mut pool, 3);
        // Three periods elapsed at once: three rounds run.
        assert_eq!(w.run_due(SimTime::from_secs(3), &mut pool, &mut disk), 3);
        assert_eq!(w.next_round(), SimTime::from_secs(4));
    }
}
