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
//! The frames are words in clock order, packed back to back in one byte
//! array. Each word holds a page's relation id above its page number, in
//! fields only as wide as the pool's [`Catalog`] and capacity need: the
//! relation field holds every id up to the catalog's relation count, and
//! the page field holds every page number below the largest relation's size
//! (`relpages`) and every frame index up to the capacity plus one. On TPC-W
//! MidDB (23 relations, the largest of 70,354 pages) and RUBiS (16
//! relations, the largest of 74,679 pages) a word is 22 bits, 5 for the
//! relation and 17 for the page, so the 56,576 frames of a 442 MB pool take
//! 152 KB. The catalog's limits, [`MAX_RELATIONS`] relations of at most
//! [`MAX_RELATION_PAGES`] pages, and the capacity's keep a word within 32
//! bits. A page whose relation is outside the catalog, or whose number does
//! not fit the page field, panics at its miss.
//!
//! A frame emptied by [`BufferPool::evict_relations`] holds the relation id
//! equal to the catalog's relation count, which names no relation, and in
//! its page field the index of the next free frame: the free list lives in
//! the free frames themselves, and the pool keeps only its head and length.
//! Each page's resident, referenced and dirty bits live in 64-page blocks,
//! one `u64` per bit, eight to a 512-page chunk: page `p` owns bit `p % 64`
//! of block `p / 64 % 8` of its relation's chunk `p / 512`. Each relation
//! has a directory of its chunks, and a chunk is allocated at the first
//! install of a page in its range. A page lookup is three array indexes
//! and a mask rather than a hash probe, and a writer round that takes
//! every dirty page reads them off the dirty words without walking the
//! frames. A round that takes fewer walks the frames from the clock hand,
//! one word at a time.
//!
//! Each array is allocated once, at its final size, so a filling pool
//! leaves no outgrown copies behind in the allocator. The frames reserve
//! the whole capacity at the first install, and the relation-indexed table
//! reserves the catalog's relation count. A relation's directory reserves
//! one entry per 512 pages of its catalog size on its first touch, and
//! grows only for pages past that size. A chunk that empties is kept; the
//! directory and its chunks are released when the relation is evicted as a
//! whole. A 512 MB pool of 65,536 frames on MidDB therefore costs 176 KB of
//! host memory, plus 3 bits per page of each 512-page range installed into
//! since its relation was last evicted, plus 8 B per 512 pages of each
//! touched relation's directory.

use crate::catalog::Catalog;
use crate::ids::{GlobalPageId, RelationId, RelationSet, MAX_RELATIONS, MAX_RELATION_PAGES};

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

/// Frames one pool may hold: fewer than 2^24 - 1, so that every frame index
/// and the free list's end marker fit a page field of at most 24 bits.
const MAX_FRAMES: usize = MAX_RELATION_PAGES as usize - 1;

/// Bits needed to write `x` in binary.
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Where a frame word's fields lie: the relation id above the page number,
/// both only as wide as the pool's catalog and capacity need.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Bits per word.
    width: usize,
    /// The low `width` bits.
    mask: u32,
    /// Bits of a word below the relation id: the page number, or a free
    /// frame's link.
    page_bits: u32,
    /// The lowest free-frame word: the catalog's relation count in the
    /// relation field. Every word naming a page is below it.
    free: u32,
    /// The page field's all-ones value. In a free frame's link, and as the
    /// list's head, it ends the free list; no frame has this index.
    end: u32,
}

impl Layout {
    /// The narrowest words that hold `catalog`'s pages and, in the page
    /// field, the indices of `capacity` frames and the free list's end.
    fn new(catalog: &Catalog, capacity: usize) -> Self {
        let largest = catalog.relations().iter().map(|r| r.pages).max();
        let last_page = largest.unwrap_or(0).saturating_sub(1);
        let page_bits = bits(last_page.into()).max(bits(capacity as u64 + 1));
        let width = bits(catalog.len() as u64) + page_bits;
        debug_assert!(
            width <= u32::BITS,
            "the catalog and capacity limits bound the width"
        );
        Layout {
            width: width as usize,
            mask: u32::MAX >> (u32::BITS - width),
            page_bits,
            free: (catalog.len() as u32) << page_bits,
            end: (1 << page_bits) - 1,
        }
    }

    /// The word for `page`.
    ///
    /// # Panics
    ///
    /// Panics if the page's relation is not below the catalog's relation
    /// count, or its page number does not fit the page field. The check runs
    /// on every miss before any frame or state bit changes, so a page the
    /// frames cannot hold never becomes resident.
    fn pack(self, page: GlobalPageId) -> u32 {
        let rels = self.free >> self.page_bits;
        assert!(
            page.rel.0 < rels && page.page <= self.end,
            "page {page} is outside the buffer pool's index: relation ids must be \
             below {rels} and page numbers below {}",
            u64::from(self.end) + 1
        );
        page.rel.0 << self.page_bits | page.page
    }

    /// The page a word names; the word must not be a free frame's.
    fn unpack(self, word: u32) -> GlobalPageId {
        GlobalPageId::new(RelationId(word >> self.page_bits), word & self.end)
    }

    /// The word from bit `bit` of `bytes`.
    #[inline]
    fn read(self, bytes: &[u8], bit: usize) -> u32 {
        let at = bit / 8;
        let chunk: [u8; 8] = bytes[at..at + 8].try_into().expect("8 bytes");
        (u64::from_le_bytes(chunk) >> (bit % 8)) as u32 & self.mask
    }

    /// Bytes that hold every word up to `idx`: the last is read as the 8
    /// bytes from the one holding its first bit.
    fn span(self, idx: usize) -> usize {
        idx * self.width / 8 + 8
    }
}

/// The frame words, in clock order, packed back to back: word `i` is the
/// `width` bits from bit `i * width` of `bytes`, read little-endian.
///
/// A word is read and written as the 8 bytes from the one holding its first
/// bit: a word is at most 32 bits and starts at most 7 bits into its first
/// byte, so those 8 bytes always hold it.
#[derive(Debug, Clone)]
struct Frames {
    bytes: Vec<u8>,
    /// Words stored.
    len: usize,
    layout: Layout,
}

/// Bytes a filling pool's frames zero at a time: host memory is touched
/// only as the frames fill, as a `Vec` of words pushed one by one would.
const FILL_BYTES: usize = 4_096;

impl Frames {
    /// Word `idx`.
    #[inline]
    fn get(&self, idx: usize) -> u32 {
        self.layout.read(&self.bytes, idx * self.layout.width)
    }

    /// Overwrites word `idx`.
    #[inline]
    fn set(&mut self, idx: usize, word: u32) {
        let bit = idx * self.layout.width;
        let (at, shift) = (bit / 8, bit % 8);
        let slot: &mut [u8; 8] = (&mut self.bytes[at..at + 8]).try_into().expect("8 bytes");
        let kept = u64::from_le_bytes(*slot) & !(u64::from(self.layout.mask) << shift);
        *slot = (kept | u64::from(word) << shift).to_le_bytes();
    }

    /// Appends `word`, reserving the bytes of `capacity` words at the first.
    fn push(&mut self, word: u32, capacity: usize) {
        let span = self.layout.span(self.len);
        if self.bytes.len() < span {
            let full = self.layout.span(capacity - 1);
            if self.bytes.capacity() == 0 {
                self.bytes.reserve_exact(full);
            }
            self.bytes.resize((span + FILL_BYTES).min(full), 0);
        }
        // Past the last word every byte is still zero, so only the first
        // byte holds another word's bits. Reading that byte alone, rather
        // than the 8 the last push wrote, lets the read take its value from
        // that pending write instead of waiting for it to land.
        let bit = self.len * self.layout.width;
        let (at, shift) = (bit / 8, bit % 8);
        let chunk = u64::from(self.bytes[at]) | u64::from(word) << shift;
        self.bytes[at..at + 8].copy_from_slice(&chunk.to_le_bytes());
        self.len += 1;
    }
}

/// The state bits of 64 consecutive pages of one relation; page `p` owns
/// bit `p % 64` of its block. A page's three bits are all clear exactly
/// when it is not resident.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    resident: u64,
    referenced: u64,
    dirty: u64,
}

/// Pages per [`Block`].
const BLOCK_PAGES: u32 = u64::BITS;

/// Blocks per [`Chunk`].
const CHUNK_BLOCKS: usize = 8;

/// Pages per [`Chunk`].
const CHUNK_PAGES: u32 = BLOCK_PAGES * CHUNK_BLOCKS as u32;

/// The state bits of 512 consecutive pages of one relation, 192 B.
type Chunk = [Block; CHUNK_BLOCKS];

/// One relation's chunks by index: `None` for a range no page of which
/// has been installed since the relation was last evicted.
type Directory = Vec<Option<Box<Chunk>>>;

/// Where `page`'s bits lie: its chunk's index within its relation, its
/// block within the chunk, and its bit in that block.
fn locate(page: GlobalPageId) -> (usize, usize, u64) {
    (
        (page.page / CHUNK_PAGES) as usize,
        (page.page / BLOCK_PAGES) as usize % CHUNK_BLOCKS,
        1 << (page.page % BLOCK_PAGES),
    )
}

/// The block and bit of `page`, a resident page of the relation whose
/// directory is `dir`.
fn resident_block(dir: &mut Directory, page: GlobalPageId) -> (&mut Block, u64) {
    let (chunk, block, bit) = locate(page);
    let chunk = dir[chunk].as_deref_mut().expect("a resident page's chunk");
    (&mut chunk[block], bit)
}

/// Pages of `dir` whose bit `bits` picks is set.
fn count(dir: &Directory, bits: fn(&Block) -> u64) -> usize {
    let mut n = 0;
    for chunk in dir.iter().flatten() {
        for b in chunk.iter() {
            n += bits(b).count_ones() as usize;
        }
    }
    n
}

/// A fixed-capacity page cache with clock-sweep replacement.
///
/// # Examples
///
/// ```
/// use tashkent_storage::{BufferPool, Catalog, GlobalPageId, Touch};
///
/// let mut catalog = Catalog::new();
/// let item = catalog.add_table("item", 100, 1_000);
/// let mut pool = BufferPool::new(2, catalog);
/// let p = |n| GlobalPageId::new(item, n);
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
    /// The schema the pool caches: it fixes the frame width and each
    /// relation's directory size.
    catalog: Catalog,
    /// Frames in clock order: resident pages' words, and free frames linked
    /// into a list.
    frames: Frames,
    /// The free frame the next miss fills, or the frames' end marker.
    free_head: u32,
    /// Frames on the free list.
    free_len: usize,
    /// Chunk directories indexed by relation id.
    state: Vec<Directory>,
    hand: usize,
    dirty_count: usize,
    stats: BufferStats,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages of `catalog`'s
    /// relations. A page past its relation's catalog size whose number
    /// still fits the frame word is cached; its relation's directory then
    /// grows as a `Vec` does.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or not below 2^24 - 1 frames (128 GB).
    pub fn new(capacity: usize, catalog: Catalog) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(
            capacity < MAX_FRAMES,
            "buffer pool capacity {capacity} is not below {MAX_FRAMES} frames"
        );
        let layout = Layout::new(&catalog, capacity);
        BufferPool {
            capacity,
            catalog,
            frames: Frames {
                bytes: Vec::new(),
                len: 0,
                layout,
            },
            free_head: layout.end,
            free_len: 0,
            state: Vec::new(),
            hand: 0,
            dirty_count: 0,
            stats: BufferStats::default(),
        }
    }

    /// Creates a pool of `catalog`'s relations sized for `bytes` of memory
    /// (rounded down to pages).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` covers 2^24 - 1 pages (128 GB) or more.
    pub fn with_capacity_bytes(bytes: u64, catalog: Catalog) -> Self {
        Self::new(((bytes / crate::ids::PAGE_SIZE) as usize).max(1), catalog)
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len - self.free_len
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
        let (chunk, block, bit) = locate(page);
        self.state
            .get(page.rel.0 as usize)
            .and_then(|dir| dir.get(chunk)?.as_deref())
            .is_some_and(|c| c[block].resident & bit != 0)
    }

    /// The block holding `page`'s bits, if its chunk is allocated, and the
    /// page's bit in it.
    fn slot(&mut self, page: GlobalPageId) -> Option<(&mut Block, u64)> {
        let (chunk, block, bit) = locate(page);
        let c = self.state.get_mut(page.rel.0 as usize)?.get_mut(chunk)?;
        Some((&mut c.as_deref_mut()?[block], bit))
    }

    /// Clears all three bits of a resident page and counts it out of
    /// `dirty_count`, returning whether it was dirty. A stale dirty bit
    /// would make the page dirty when reinstalled.
    fn clear(&mut self, page: GlobalPageId) -> bool {
        let (b, bit) = resident_block(&mut self.state[page.rel.0 as usize], page);
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
    /// Panics on a miss if the page's relation is not in the catalog, or
    /// its page number needs more bits than both the largest relation's
    /// last page number and the capacity plus one.
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
        let layout = self.frames.layout;
        let word = layout.pack(page);
        let evicted = if self.free_head != layout.end {
            // Pop the list's head; the page field of its old word links to
            // the next free frame.
            let idx = self.free_head as usize;
            self.free_head = self.frames.get(idx) & layout.end;
            self.frames.set(idx, word);
            self.free_len -= 1;
            None
        } else if self.frames.len < self.capacity {
            self.frames.push(word, self.capacity);
            None
        } else {
            let (idx, victim) = self.sweep();
            self.frames.set(idx, word);
            let dirty = self.clear(victim);
            self.stats.evictions += 1;
            if dirty {
                self.stats.dirty_evictions += 1;
            }
            Some((victim, dirty))
        };
        // Grow the relation's directory to cover `page`, reserving one entry
        // per chunk of the relation's catalog size on its first touch, and
        // allocate the page's chunk at the first install in its range.
        let rel = page.rel.0 as usize;
        if self.state.len() <= rel {
            if self.state.is_empty() {
                self.state.reserve_exact(self.catalog.len());
            }
            self.state.resize_with(rel + 1, Vec::new);
        }
        let dir = &mut self.state[rel];
        let (chunk, block, bit) = locate(page);
        if dir.len() <= chunk {
            if dir.capacity() == 0 {
                let pages = self.catalog.relations()[rel].pages;
                dir.reserve_exact(pages.div_ceil(CHUNK_PAGES) as usize);
            }
            dir.resize_with(chunk + 1, || None);
        }
        let b = &mut dir[chunk].get_or_insert_with(Default::default)[block];
        b.resident |= bit;
        b.referenced |= bit;
        evicted
    }

    /// Clock-sweep: advance the hand, clearing reference bits, until an
    /// unreferenced frame is found; returns its index and page.
    fn sweep(&mut self) -> (usize, GlobalPageId) {
        // The pool is full (no free slots), so every frame is occupied and
        // the sweep terminates within two passes.
        let n = self.frames.len;
        loop {
            let idx = self.hand;
            self.hand = if idx + 1 == n { 0 } else { idx + 1 };
            let page = self.frames.layout.unpack(self.frames.get(idx));
            let (b, bit) = resident_block(&mut self.state[page.rel.0 as usize], page);
            if b.referenced & bit == 0 {
                return (idx, page);
            }
            b.referenced &= !bit;
        }
    }

    /// Hands up to `max` dirty pages to the caller for write-back, in page
    /// order, clearing their dirty bits.
    ///
    /// When `max` covers every dirty page, the call reads them off the
    /// chunks' dirty words. Otherwise it takes the first `max` it
    /// meets in clock order from the clock hand, which only evictions move,
    /// so such calls between two evictions start at the same frame.
    ///
    /// Clearing at collection time models write coalescing: a page updated
    /// many times between two writer rounds is written once.
    pub fn collect_dirty(&mut self, max: usize) -> Vec<GlobalPageId> {
        if self.dirty_count == 0 || max == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(max.min(self.dirty_count));
        if max >= self.dirty_count {
            self.take_every_dirty(&mut out);
        } else {
            self.take_dirty_from_hand(max, &mut out);
            out.sort_unstable();
        }
        self.dirty_count -= out.len();
        self.stats.flushed += out.len() as u64;
        out
    }

    /// Takes every dirty page, in page order, from the dirty words.
    fn take_every_dirty(&mut self, out: &mut Vec<GlobalPageId>) {
        let all = self.dirty_count;
        for (rel, dir) in self.state.iter_mut().enumerate() {
            for (chunk, c) in (0u32..).zip(dir.iter_mut()) {
                let Some(c) = c else {
                    continue;
                };
                let first = chunk * CHUNK_BLOCKS as u32;
                for (block, b) in (first..).zip(c.iter_mut()) {
                    let mut dirty = std::mem::take(&mut b.dirty);
                    while dirty != 0 {
                        let page = block * BLOCK_PAGES + dirty.trailing_zeros();
                        out.push(GlobalPageId::new(RelationId(rel as u32), page));
                        dirty &= dirty - 1;
                    }
                }
                if out.len() == all {
                    return;
                }
            }
        }
    }

    /// Takes the first `max` dirty pages in clock order from the hand;
    /// more than `max` are dirty.
    fn take_dirty_from_hand(&mut self, max: usize, out: &mut Vec<GlobalPageId>) {
        let n = self.frames.len;
        let start = self.hand % n;
        let layout = self.frames.layout;
        // One plain loop per half of the clock: a loop over a `Chain`
        // re-checks which half it is in on every frame.
        for half in [start..n, 0..start] {
            for idx in half {
                let word = self.frames.get(idx);
                // A free frame's relation id is the catalog's relation count,
                // past every relation with a directory.
                let Some(dir) = self.state.get_mut((word >> layout.page_bits) as usize) else {
                    continue;
                };
                let page = layout.unpack(word);
                let (b, bit) = resident_block(dir, page);
                if b.dirty & bit != 0 {
                    b.dirty &= !bit;
                    out.push(page);
                    if out.len() == max {
                        return;
                    }
                }
            }
        }
    }

    /// Evicts every resident page of the relations in `rels`, returning
    /// the `(clean, dirty)` eviction counts summed over them. Used when
    /// update filtering lets a replica drop the tables it no longer serves
    /// (§3).
    ///
    /// The counts come from the relations' chunks; the frames are walked
    /// once, up to the last that holds a page of one of them, so relations
    /// with none resident cost no walk. The free list comes out as
    /// evicting the relations one at a time in ascending id order leaves
    /// it: each relation's frames pushed in frame order, so the next
    /// `install` pops the last frame of the highest id.
    pub fn evict_relations(&mut self, rels: RelationSet) -> (usize, usize) {
        // A replica that stops serving a table may never touch it again, so
        // its directory and chunks are released, and every bit of it with
        // them. Only relations of the catalog have directories.
        let (mut resident, mut dirty) = (0, 0);
        let mut evicted = RelationSet::new();
        for rel in rels.iter() {
            if let Some(dir) = self.state.get_mut(rel.0 as usize).map(std::mem::take) {
                resident += count(&dir, |b| b.resident);
                dirty += count(&dir, |b| b.dirty);
                evicted.insert(rel);
            }
        }
        self.dirty_count -= dirty;
        self.free_len += resident;
        // Link each relation's frames into its own list, `(head, tail)`, in
        // frame order, stopping at the last of them. A free frame's
        // relation id is the catalog's relation count, never evicted.
        let layout = self.frames.layout;
        let mut lists = [(layout.end, layout.end); MAX_RELATIONS as usize];
        let (mut left, mut idx) = (resident, 0);
        while left > 0 {
            let rel = self.frames.get(idx) >> layout.page_bits;
            if evicted.contains(RelationId(rel)) {
                let (head, tail) = &mut lists[rel as usize];
                if *head == layout.end {
                    *tail = idx as u32;
                }
                self.frames.set(idx, layout.free | *head);
                *head = idx as u32;
                left -= 1;
            }
            idx += 1;
        }
        // Splice the lists onto the pool's in ascending id order.
        for rel in evicted.iter() {
            let (head, tail) = lists[rel.0 as usize];
            if head != layout.end {
                self.frames.set(tail as usize, layout.free | self.free_head);
                self.free_head = head;
            }
        }
        (resident - dirty, dirty)
    }

    /// Evicts every resident page of `rel`, as
    /// [`evict_relations`](Self::evict_relations) does for a set.
    ///
    /// # Panics
    ///
    /// Panics if `rel` is at or above [`MAX_RELATIONS`].
    pub fn evict_relation(&mut self, rel: RelationId) -> (usize, usize) {
        self.evict_relations([rel].into_iter().collect())
    }

    /// Number of resident pages belonging to `rel`, counted off its chunks.
    pub fn resident_of(&self, rel: RelationId) -> usize {
        self.state
            .get(rel.0 as usize)
            .map_or(0, |dir| count(dir, |b| b.resident))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RelationId, MAX_RELATIONS};

    fn p(rel: u32, page: u32) -> GlobalPageId {
        GlobalPageId::new(RelationId(rel), page)
    }

    /// Ten tables, relations 0 to 9, of 200 pages each.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for r in 0..10 {
            c.add_table(&format!("t{r}"), 200, 2_000);
        }
        c
    }

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(capacity, catalog())
    }

    #[test]
    fn hit_after_install() {
        let mut pool = pool(4);
        assert_eq!(pool.touch(p(0, 1)), Touch::Miss { evicted: None });
        assert_eq!(pool.touch(p(0, 1)), Touch::Hit);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn fills_before_evicting() {
        let mut pool = pool(3);
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
        let mut pool = pool(2);
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
        let mut pool = pool(8);
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
        let mut pool = pool(1);
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
        let mut pool = pool(1);
        assert!(!pool.mark_dirty(p(0, 0)));
        assert_eq!(pool.dirty_count(), 0);
    }

    #[test]
    fn collect_dirty_clears_bits_and_respects_budget() {
        let mut pool = pool(8);
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
        let mut pool = pool(4);
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
    fn evict_relations_frees_as_one_relation_at_a_time() {
        // Frames 0 to 5 hold relations 2, 1, 2, 3, 1 and 2.
        let filled = || {
            let mut pool = pool(6);
            for (i, r) in (0..).zip([2, 1, 2, 3, 1, 2]) {
                pool.touch(p(r, i));
            }
            pool.mark_dirty(p(1, 4));
            pool
        };
        let (mut one, mut set) = (filled(), filled());
        one.evict_relation(RelationId(1));
        one.evict_relation(RelationId(2));
        let both = [RelationId(2), RelationId(1)].into_iter().collect();
        assert_eq!(set.evict_relations(both), (4, 1));
        // Both pools refill their free frames in the same order.
        for n in 0..5 {
            assert_eq!(one.touch(p(4, n)), set.touch(p(4, n)));
        }
        let words = |pool: &BufferPool| (0..6).map(|i| pool.frames.get(i)).collect::<Vec<_>>();
        assert_eq!(words(&one), words(&set));
        assert_eq!(set.resident_of(RelationId(4)), 5);
    }

    #[test]
    fn resident_of_counts_per_relation() {
        let mut pool = pool(4);
        pool.touch(p(1, 0));
        pool.touch(p(1, 1));
        pool.touch(p(2, 0));
        assert_eq!(pool.resident_of(RelationId(1)), 2);
        assert_eq!(pool.resident_of(RelationId(2)), 1);
        assert_eq!(pool.resident_of(RelationId(3)), 0);
    }

    #[test]
    fn hit_ratio_computation() {
        let mut pool = pool(2);
        assert_eq!(pool.stats().hit_ratio(), 0.0);
        pool.touch(p(0, 0));
        pool.touch(p(0, 0));
        pool.touch(p(0, 0));
        pool.touch(p(0, 1));
        assert!((pool.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    /// Chunks allocated in relation `rel`'s directory.
    fn chunks(pool: &BufferPool, rel: usize) -> usize {
        pool.state[rel].iter().flatten().count()
    }

    #[test]
    fn arrays_are_sized_once_from_the_capacity_and_the_catalog() {
        // TPC-W MidDB's largest relation, 70,354 pages, in 300 frames.
        let mut c = Catalog::new();
        let largest = c.add_table("largest", 70_354, 703_540);
        let mut pool = BufferPool::new(300, c);
        let page = |n| GlobalPageId::new(largest, n);
        assert_eq!(
            pool.frames.bytes.capacity(),
            0,
            "construction allocates nothing"
        );
        // 18-bit words: 1 bit for ids up to 1, 17 for page numbers up to
        // 70,353. The last of the 300 words starts in byte 672 and is read
        // as the 8 bytes from there.
        assert_eq!(pool.frames.layout.width, 18);
        pool.touch(page(1_000));
        assert_eq!(pool.frames.bytes.capacity(), 672 + 8);
        assert_eq!(pool.state.capacity(), 1);
        // One install reserves the relation's directory, an entry per 512
        // pages, and allocates one chunk: pages 512 to 1,023.
        assert_eq!((pool.state[0].capacity(), chunks(&pool, 0)), (138, 1));
        // A page 512 on lies in the next chunk; another page of the first
        // chunk's range allocates nothing.
        pool.touch(page(1_512));
        pool.touch(page(600));
        assert_eq!((pool.state[0].capacity(), chunks(&pool, 0)), (138, 2));
        assert_eq!(pool.frames.bytes.capacity(), 672 + 8);
        // Evicting the relation releases its directory and chunks; the next
        // touch reserves the directory again.
        pool.evict_relation(largest);
        assert_eq!(pool.state[0].capacity(), 0);
        pool.touch(page(70_353));
        assert_eq!(pool.state[0].len(), 138);
        assert_eq!((pool.state[0].capacity(), chunks(&pool, 0)), (138, 1));
    }

    #[test]
    fn frame_width_follows_the_catalog() {
        // TPC-W MidDB's shape: 23 relations, the largest of 70,354 pages,
        // in a 442 MB pool of 56,576 frames. The last word starts in byte
        // 155,581 and is read as the 8 bytes from there.
        let mut c = Catalog::new();
        for r in 0..22 {
            c.add_table(&format!("t{r}"), 1_000, 10_000);
        }
        c.add_table("largest", 70_354, 703_540);
        let mut pool = BufferPool::with_capacity_bytes(442 << 20, c);
        assert_eq!(pool.capacity(), 56_576);
        assert_eq!(pool.frames.layout.width, 22);
        pool.touch(p(22, 70_353));
        assert_eq!(pool.frames.bytes.capacity(), 155_581 + 8);
    }

    #[test]
    fn pack_round_trips_at_both_ends() {
        // The widest words: 255 relations, one of 2^24 pages.
        let mut widest = Catalog::new();
        widest.add_table("largest", MAX_RELATION_PAGES, 1);
        for r in 1..MAX_RELATIONS {
            widest.add_table(&format!("t{r}"), 1, 1);
        }
        for (layout, last) in [
            (Layout::new(&catalog(), 4), p(9, 255)),
            (
                Layout::new(&widest, MAX_FRAMES - 1),
                p(254, MAX_RELATION_PAGES - 1),
            ),
        ] {
            for page in [p(0, 0), last] {
                assert!(layout.pack(page) < layout.free);
                assert_eq!(layout.unpack(layout.pack(page)), page);
            }
        }
        assert_eq!(Layout::new(&widest, MAX_FRAMES - 1).width, 32);
    }

    /// Touches `page` on a fresh pool, checks that the pool allocated
    /// nothing before panicking, and passes the panic on.
    fn touch_unindexable(page: GlobalPageId) {
        let mut pool = pool(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.touch(page)))
            .expect_err("an unindexable page must be rejected");
        assert!(pool.frames.bytes.capacity() == 0 && pool.state.is_empty());
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
    #[should_panic(expected = "relation ids must be below 10")]
    fn relation_past_the_catalog_rejected() {
        // Relation 10 is the free frames' tag in this catalog of ten.
        touch_unindexable(p(10, 0));
    }

    #[test]
    #[should_panic(expected = "page numbers below 256")]
    fn page_past_the_frame_width_rejected() {
        // 200-page relations and 4 frames take an 8-bit page field: page
        // 255 is past relation 0's catalog size but fits, and 256 does not.
        let mut pool = pool(4);
        assert_eq!(pool.touch(p(0, 255)), Touch::Miss { evicted: None });
        assert_eq!(pool.touch(p(0, 255)), Touch::Hit);
        pool.touch(p(0, 256));
    }

    #[test]
    fn page_past_its_relation_grows_its_directory() {
        // A 10-page relation reserves one directory entry; a 70,354-page one
        // makes the page field 17 bits wide, so the small one's page 1,000
        // still fits, in its chunk 1.
        let mut c = Catalog::new();
        let small = c.add_table("small", 10, 100);
        c.add_table("large", 70_354, 703_540);
        let mut pool = BufferPool::new(1, c);
        let first = GlobalPageId::new(small, 0);
        pool.touch(first);
        assert_eq!((pool.state[0].len(), pool.state[0].capacity()), (1, 1));
        let past = GlobalPageId::new(small, 1_000);
        assert_eq!(
            pool.touch(past),
            Touch::Miss {
                evicted: Some((first, false))
            }
        );
        assert_eq!(pool.touch(past), Touch::Hit);
        assert_eq!(pool.state[0].len(), 2);
        assert!(pool.state[0].capacity() >= 2);
        // The chunk that `first`'s eviction emptied is kept.
        assert_eq!(chunks(&pool, 0), 2);
        assert!(!pool.is_resident(first));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        BufferPool::new(0, Catalog::new());
    }

    #[test]
    #[should_panic(expected = "is not below")]
    fn capacity_2_pow_24_minus_1_rejected() {
        // Frame index 2^24 - 1 would need a 25-bit page field.
        BufferPool::new((1 << 24) - 1, Catalog::new());
    }

    #[test]
    fn with_capacity_bytes_rounds_down() {
        let pool = BufferPool::with_capacity_bytes(crate::ids::PAGE_SIZE * 3 + 100, catalog());
        assert_eq!(pool.capacity(), 3);
        // Tiny budgets still get one frame.
        assert_eq!(BufferPool::with_capacity_bytes(1, catalog()).capacity(), 1);
    }
}
