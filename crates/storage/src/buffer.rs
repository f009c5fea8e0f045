//! Clock-sweep buffer pool.
//!
//! PostgreSQL manages its shared buffers with a clock-sweep (second chance)
//! replacement policy over 8 KB pages; this is a faithful functional model of
//! that behaviour. The pool tracks residency, reference bits, and dirty bits.
//! It never holds page *contents* — the simulation only needs to know *which*
//! pages are resident and what that costs.
//!
//! # Representation
//!
//! The frames are a `Vec<u32>` in clock order (4 B per frame): each packs a
//! page's relation id into its top 8 bits and its page number into the low
//! 24, the widths [`MAX_RELATIONS`] and [`MAX_RELATION_PAGES`] that the
//! [`Catalog`](crate::Catalog) enforces. A frame emptied by
//! [`BufferPool::evict_relation`] holds relation 255, which names no page,
//! and in its low 24 bits the index of the next free frame: the free list
//! lives in the free frames themselves, and the pool keeps only its head
//! and length. Each page's resident, referenced and dirty bits live in a
//! per-relation `Vec` of 64-page blocks, one `u64` per bit, so page `p`
//! owns bit `p % 64` of block `p / 64`. A relation's blocks grow to cover
//! the highest page touched and are released when the relation is evicted
//! as a whole. A 512 MB pool of 65,536 frames therefore costs 256 KB of
//! host memory plus 3 bits per page of every relation it has touched, and
//! a page lookup is two array indexes and a mask rather than a hash probe.

use crate::ids::{GlobalPageId, RelationId, MAX_RELATIONS, MAX_RELATION_PAGES};

/// Result of touching a page in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// The page was resident; no disk activity needed.
    Hit,
    /// The page was absent and has been installed. If installing it evicted
    /// a victim, the victim and its dirty flag are reported so the caller
    /// can issue the write-back.
    Miss {
        /// Evicted victim page and whether it was dirty, if any.
        evicted: Option<(GlobalPageId, bool)>,
    },
}

/// Counters describing pool behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Touches that found the page resident.
    pub hits: u64,
    /// Touches that had to install the page.
    pub misses: u64,
    /// Evictions performed to make room.
    pub evictions: u64,
    /// Evictions whose victim was dirty (forcing a write-back).
    pub dirty_evictions: u64,
    /// Pages handed to the background writer for flushing.
    pub flushed: u64,
}

impl BufferStats {
    /// Hit fraction in `[0, 1]`; zero when no touches happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Bits of a frame word that hold the page number.
const PAGE_BITS: u32 = MAX_RELATION_PAGES.trailing_zeros();

/// Tags a frame emptied by [`BufferPool::evict_relation`]: relation 255,
/// which [`pack`] rejects, so a free frame never names a page (see
/// [`page_of`]). Its low 24 bits hold the index of the next free frame, or
/// [`END`].
const FREE: u32 = MAX_RELATIONS << PAGE_BITS;

/// Ends the free list: the link in its last frame, and its head when empty.
/// No frame has this index, because [`BufferPool::new`] caps the capacity
/// below it.
const END: u32 = MAX_RELATION_PAGES - 1;

const _: () =
    assert!(MAX_RELATION_PAGES == 1 << PAGE_BITS && MAX_RELATIONS == u32::MAX >> PAGE_BITS);

/// Packs `page` into a frame word.
///
/// # Panics
///
/// Panics if the relation id or page number does not fit its field. The
/// check runs on every miss before any frame or state bit changes, so a
/// page it cannot index never becomes resident.
fn pack(page: GlobalPageId) -> u32 {
    assert!(
        page.rel.0 < MAX_RELATIONS && page.page < MAX_RELATION_PAGES,
        "page {page} is outside the buffer pool's index: relation ids must be \
         below {MAX_RELATIONS} and page numbers below {MAX_RELATION_PAGES}"
    );
    page.rel.0 << PAGE_BITS | page.page
}

/// The page a frame word names.
fn unpack(frame: u32) -> GlobalPageId {
    GlobalPageId::new(
        RelationId(frame >> PAGE_BITS),
        frame & (MAX_RELATION_PAGES - 1),
    )
}

/// The page a frame word names, or `None` for a free frame.
fn page_of(frame: u32) -> Option<GlobalPageId> {
    let page = unpack(frame);
    (page.rel.0 != MAX_RELATIONS).then_some(page)
}

/// The state bits of 64 consecutive pages of one relation; page `p` owns
/// bit `p % 64` of block `p / 64`. A page's three bits are all clear
/// exactly when it is not resident.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    resident: u64,
    referenced: u64,
    dirty: u64,
}

/// Pages per [`Block`].
const BLOCK_PAGES: u32 = u64::BITS;

/// `page`'s block index within its relation, and its bit in that block.
fn locate(page: GlobalPageId) -> (usize, u64) {
    (
        (page.page / BLOCK_PAGES) as usize,
        1 << (page.page % BLOCK_PAGES),
    )
}

/// A fixed-capacity page cache with clock-sweep replacement.
///
/// # Examples
///
/// ```
/// use tashkent_storage::{BufferPool, GlobalPageId, RelationId, Touch};
///
/// let mut pool = BufferPool::new(2);
/// let p = |n| GlobalPageId::new(RelationId(0), n);
/// assert_eq!(pool.touch(p(0)), Touch::Miss { evicted: None });
/// assert_eq!(pool.touch(p(0)), Touch::Hit);
/// pool.touch(p(1));
/// // Pool is full; a third page evicts a victim.
/// match pool.touch(p(2)) {
///     Touch::Miss { evicted: Some(_) } => {}
///     other => panic!("expected eviction, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    /// Frames in clock order: resident pages packed by [`pack`], and free
    /// frames tagged [`FREE`] and linked into a list.
    frames: Vec<u32>,
    /// The free frame the next miss fills, or [`END`].
    free_head: u32,
    /// Frames on the free list.
    free_len: usize,
    /// State blocks indexed by relation id, then block index.
    state: Vec<Vec<Block>>,
    hand: usize,
    dirty_count: usize,
    stats: BufferStats,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or not below 2^24 - 1 frames (128 GB).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(
            capacity < END as usize,
            "buffer pool capacity {capacity} is not below {END} frames"
        );
        BufferPool {
            capacity,
            frames: Vec::new(),
            free_head: END,
            free_len: 0,
            state: Vec::new(),
            hand: 0,
            dirty_count: 0,
            stats: BufferStats::default(),
        }
    }

    /// Creates a pool sized for `bytes` of memory (rounded down to pages).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` covers 2^24 - 1 pages (128 GB) or more.
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(((bytes / crate::ids::PAGE_SIZE) as usize).max(1))
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len() - self.free_len
    }

    /// Current number of dirty resident pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Behaviour counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Whether `page` is resident.
    pub fn is_resident(&self, page: GlobalPageId) -> bool {
        let (block, bit) = locate(page);
        self.state
            .get(page.rel.0 as usize)
            .and_then(|s| s.get(block))
            .is_some_and(|b| b.resident & bit != 0)
    }

    /// The block holding `page`'s bits, if its relation's blocks reach it,
    /// and the page's bit in it.
    fn slot(&mut self, page: GlobalPageId) -> Option<(&mut Block, u64)> {
        let (block, bit) = locate(page);
        let b = self.state.get_mut(page.rel.0 as usize)?.get_mut(block)?;
        Some((b, bit))
    }

    /// The block and bit of a page that has been touched before.
    fn state_mut(&mut self, page: GlobalPageId) -> (&mut Block, u64) {
        let (block, bit) = locate(page);
        (&mut self.state[page.rel.0 as usize][block], bit)
    }

    /// Clears all three bits of a resident page and counts it out of
    /// `dirty_count`, returning whether it was dirty. A stale dirty bit
    /// would make the page dirty when reinstalled.
    fn clear(&mut self, page: GlobalPageId) -> bool {
        let (b, bit) = self.state_mut(page);
        let dirty = b.dirty & bit != 0;
        b.resident &= !bit;
        b.referenced &= !bit;
        b.dirty &= !bit;
        if dirty {
            self.dirty_count -= 1;
        }
        dirty
    }

    /// References `page`, installing it on a miss and evicting if full.
    ///
    /// # Panics
    ///
    /// Panics on a miss if the page's relation id is [`MAX_RELATIONS`] or
    /// more, or its page number [`MAX_RELATION_PAGES`] or more.
    pub fn touch(&mut self, page: GlobalPageId) -> Touch {
        if let Some((b, bit)) = self.slot(page) {
            if b.resident & bit != 0 {
                b.referenced |= bit;
                self.stats.hits += 1;
                return Touch::Hit;
            }
        }
        self.stats.misses += 1;
        let evicted = self.install(page);
        Touch::Miss { evicted }
    }

    /// Marks a resident page dirty; returns `false` when the page is absent.
    pub fn mark_dirty(&mut self, page: GlobalPageId) -> bool {
        match self.slot(page) {
            Some((b, bit)) if b.resident & bit != 0 => {
                if b.dirty & bit == 0 {
                    b.dirty |= bit;
                    self.dirty_count += 1;
                }
                true
            }
            _ => false,
        }
    }

    fn install(&mut self, page: GlobalPageId) -> Option<(GlobalPageId, bool)> {
        let frame = pack(page);
        let evicted = if self.free_head != END {
            // Pop the list's head; the low bits of its old word link to the
            // next free frame.
            let idx = self.free_head as usize;
            self.free_head = std::mem::replace(&mut self.frames[idx], frame) & END;
            self.free_len -= 1;
            None
        } else if self.frames.len() < self.capacity {
            self.frames.push(frame);
            None
        } else {
            let victim_idx = self.sweep();
            let victim = unpack(std::mem::replace(&mut self.frames[victim_idx], frame));
            let dirty = self.clear(victim);
            self.stats.evictions += 1;
            if dirty {
                self.stats.dirty_evictions += 1;
            }
            Some((victim, dirty))
        };
        // Grow the relation's blocks to cover `page` on first touch.
        let rel = page.rel.0 as usize;
        if self.state.len() <= rel {
            self.state.resize_with(rel + 1, Vec::new);
        }
        let blocks = &mut self.state[rel];
        let (block, bit) = locate(page);
        if blocks.len() <= block {
            blocks.resize(block + 1, Block::default());
        }
        blocks[block].resident |= bit;
        blocks[block].referenced |= bit;
        evicted
    }

    /// Clock-sweep: advance the hand, clearing reference bits, until an
    /// unreferenced occupied frame is found.
    fn sweep(&mut self) -> usize {
        // The pool is full (no free slots), so every frame is occupied and
        // the sweep terminates within two passes.
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let (b, bit) = self.state_mut(unpack(self.frames[idx]));
            if b.referenced & bit != 0 {
                b.referenced &= !bit;
            } else {
                return idx;
            }
        }
    }

    /// Hands up to `max` dirty pages to the caller for write-back, clearing
    /// their dirty bits. Every call scans frames in clock order from the
    /// clock hand, which only evictions move, so calls between two
    /// evictions start at the same frame.
    ///
    /// Clearing at collection time models write coalescing: a page updated
    /// many times between two writer rounds is written once.
    pub fn collect_dirty(&mut self, max: usize) -> Vec<GlobalPageId> {
        let mut out = Vec::new();
        if self.dirty_count == 0 || max == 0 || self.frames.is_empty() {
            return out;
        }
        let start = self.hand % self.frames.len();
        let (before, after) = self.frames.split_at(start);
        // One plain loop per half of the clock. A loop over a `Chain`
        // re-checks which half it is in on every frame, and a closure passed
        // to `try_for_each` is left out of line in one of the two loops
        // unless the optimizer happens to inline it.
        'scan: for half in [after, before] {
            for &frame in half {
                let Some(page) = page_of(frame) else {
                    continue;
                };
                let (block, bit) = locate(page);
                let b = &mut self.state[page.rel.0 as usize][block];
                if b.dirty & bit != 0 {
                    b.dirty &= !bit;
                    self.dirty_count -= 1;
                    out.push(page);
                    // Once the last dirty page is out, the rest of the scan
                    // finds nothing; stopping keeps a sparse round cheap.
                    if out.len() == max || self.dirty_count == 0 {
                        break 'scan;
                    }
                }
            }
        }
        self.stats.flushed += out.len() as u64;
        out
    }

    /// Evicts every resident page of `rel`, returning `(clean, dirty)`
    /// eviction counts. Used when update filtering lets a replica drop a
    /// table it no longer serves (§3).
    pub fn evict_relation(&mut self, rel: RelationId) -> (usize, usize) {
        let mut clean = 0;
        let mut dirty = 0;
        for idx in 0..self.frames.len() {
            if let Some(page) = page_of(self.frames[idx]).filter(|p| p.rel == rel) {
                // Push the frame on the free list; `install` pops the frame
                // freed last first.
                self.frames[idx] = FREE | self.free_head;
                self.free_head = idx as u32;
                self.free_len += 1;
                if self.clear(page) {
                    dirty += 1;
                } else {
                    clean += 1;
                }
            }
        }
        // Every bit of `rel` is now clear. A replica that stops serving a
        // table may never touch it again, so release its blocks.
        if let Some(blocks) = self.state.get_mut(rel.0 as usize) {
            *blocks = Vec::new();
        }
        (clean, dirty)
    }

    /// Number of resident pages belonging to `rel` (metrics only; O(frames)).
    pub fn resident_of(&self, rel: RelationId) -> usize {
        self.frames
            .iter()
            .filter(|&&f| page_of(f).is_some_and(|p| p.rel == rel))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelationId;

    fn p(rel: u32, page: u32) -> GlobalPageId {
        GlobalPageId::new(RelationId(rel), page)
    }

    #[test]
    fn hit_after_install() {
        let mut pool = BufferPool::new(4);
        assert_eq!(pool.touch(p(0, 1)), Touch::Miss { evicted: None });
        assert_eq!(pool.touch(p(0, 1)), Touch::Hit);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn fills_before_evicting() {
        let mut pool = BufferPool::new(3);
        for i in 0..3 {
            assert_eq!(pool.touch(p(0, i)), Touch::Miss { evicted: None });
        }
        assert_eq!(pool.resident(), 3);
        match pool.touch(p(0, 3)) {
            Touch::Miss { evicted: Some(_) } => {}
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn second_chance_protects_referenced_pages() {
        let mut pool = BufferPool::new(2);
        pool.touch(p(0, 0));
        pool.touch(p(0, 1));
        // Re-reference page 0 so its bit is set; page 1's bit is also set
        // from installation, so the sweep clears both and evicts the first
        // unreferenced frame it reaches on the second pass (frame 0).
        pool.touch(p(0, 0));
        pool.touch(p(0, 2));
        // One of the original pages is gone, the other survives.
        let survivors = [p(0, 0), p(0, 1)]
            .iter()
            .filter(|q| pool.is_resident(**q))
            .count();
        assert_eq!(survivors, 1);
        assert!(pool.is_resident(p(0, 2)));
    }

    #[test]
    fn scan_resistance_of_rereferenced_page() {
        // A page touched on every round should survive a long scan of
        // never-reused pages.
        let mut pool = BufferPool::new(8);
        let hot = p(9, 0);
        pool.touch(hot);
        for i in 0..100 {
            pool.touch(p(0, i));
            pool.touch(hot);
        }
        assert!(pool.is_resident(hot));
    }

    #[test]
    fn dirty_marking_and_eviction_reporting() {
        let mut pool = BufferPool::new(1);
        pool.touch(p(0, 0));
        assert!(pool.mark_dirty(p(0, 0)));
        assert_eq!(pool.dirty_count(), 1);
        // Marking twice does not double count.
        assert!(pool.mark_dirty(p(0, 0)));
        assert_eq!(pool.dirty_count(), 1);
        match pool.touch(p(0, 1)) {
            Touch::Miss {
                evicted: Some((victim, dirty)),
            } => {
                assert_eq!(victim, p(0, 0));
                assert!(dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(pool.stats().dirty_evictions, 1);
        // Page 0 comes back clean: eviction left no stale dirty bit.
        pool.touch(p(0, 0));
        assert_eq!(
            pool.touch(p(0, 1)),
            Touch::Miss {
                evicted: Some((p(0, 0), false))
            }
        );
    }

    #[test]
    fn mark_dirty_on_absent_page_fails() {
        let mut pool = BufferPool::new(1);
        assert!(!pool.mark_dirty(p(0, 0)));
        assert_eq!(pool.dirty_count(), 0);
    }

    #[test]
    fn collect_dirty_clears_bits_and_respects_budget() {
        let mut pool = BufferPool::new(8);
        for i in 0..6 {
            pool.touch(p(0, i));
            pool.mark_dirty(p(0, i));
        }
        let first = pool.collect_dirty(4);
        assert_eq!(first.len(), 4);
        assert_eq!(pool.dirty_count(), 2);
        let rest = pool.collect_dirty(100);
        assert_eq!(rest.len(), 2);
        assert_eq!(pool.dirty_count(), 0);
        assert!(pool.collect_dirty(100).is_empty());
        assert_eq!(pool.stats().flushed, 6);
        // No page was collected twice.
        let mut all: Vec<_> = first.into_iter().chain(rest).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn evict_relation_frees_frames_for_reuse() {
        let mut pool = BufferPool::new(4);
        pool.touch(p(1, 0));
        pool.touch(p(1, 1));
        pool.touch(p(2, 0));
        pool.mark_dirty(p(1, 0));
        let (clean, dirty) = pool.evict_relation(RelationId(1));
        assert_eq!((clean, dirty), (1, 1));
        assert_eq!(pool.resident(), 1);
        assert!(!pool.is_resident(p(1, 0)));
        assert!(pool.is_resident(p(2, 0)));
        // Freed frames are reused without eviction.
        assert_eq!(pool.touch(p(3, 0)), Touch::Miss { evicted: None });
        assert_eq!(pool.touch(p(3, 1)), Touch::Miss { evicted: None });
        assert_eq!(pool.resident(), 3);
    }

    #[test]
    fn resident_of_counts_per_relation() {
        let mut pool = BufferPool::new(4);
        pool.touch(p(1, 0));
        pool.touch(p(1, 1));
        pool.touch(p(2, 0));
        assert_eq!(pool.resident_of(RelationId(1)), 2);
        assert_eq!(pool.resident_of(RelationId(2)), 1);
        assert_eq!(pool.resident_of(RelationId(3)), 0);
    }

    #[test]
    fn hit_ratio_computation() {
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.stats().hit_ratio(), 0.0);
        pool.touch(p(0, 0));
        pool.touch(p(0, 0));
        pool.touch(p(0, 0));
        pool.touch(p(0, 1));
        assert!((pool.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pack_round_trips_at_both_ends() {
        for page in [p(0, 0), p(MAX_RELATIONS - 1, MAX_RELATION_PAGES - 1)] {
            assert!(pack(page) < FREE);
            assert_eq!(unpack(pack(page)), page);
        }
    }

    /// Touches `page` on a fresh pool, checks that the pool allocated
    /// nothing before panicking, and passes the panic on.
    fn touch_unindexable(page: GlobalPageId) {
        let mut pool = BufferPool::new(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.touch(page)))
            .expect_err("an unindexable page must be rejected");
        assert!(pool.frames.is_empty() && pool.state.is_empty());
        std::panic::resume_unwind(err);
    }

    #[test]
    #[should_panic(expected = "outside the buffer pool's index")]
    fn relation_255_rejected_before_state_grows() {
        touch_unindexable(p(MAX_RELATIONS, 0));
    }

    #[test]
    #[should_panic(expected = "outside the buffer pool's index")]
    fn page_2_pow_24_rejected_before_state_grows() {
        touch_unindexable(p(0, MAX_RELATION_PAGES));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        BufferPool::new(0);
    }

    #[test]
    #[should_panic(expected = "is not below")]
    fn capacity_2_pow_24_minus_1_rejected() {
        // Frame index 2^24 - 1 is the free list's end marker.
        BufferPool::new((1 << 24) - 1);
    }

    #[test]
    fn with_capacity_bytes_rounds_down() {
        let pool = BufferPool::with_capacity_bytes(crate::ids::PAGE_SIZE * 3 + 100);
        assert_eq!(pool.capacity(), 3);
        // Tiny budgets still get one frame.
        assert_eq!(BufferPool::with_capacity_bytes(1).capacity(), 1);
    }
}
