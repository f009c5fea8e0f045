//! Property-based tests for buffer-pool invariants, and a reference model
//! the pool's clock-sweep decisions must match bit for bit.

use proptest::prelude::*;
use tashkent_storage::{BufferPool, GlobalPageId, RelationId, Touch};

/// A clock-sweep pool kept as simple as possible: a hashed page table over
/// `Option<Frame>` slots. [`BufferPool`] stores the same state in per-page
/// bytes; every observable result of the two must agree.
mod reference {
    use std::collections::HashMap;
    use tashkent_storage::{BufferStats, GlobalPageId, RelationId, Touch};

    #[derive(Debug, Clone)]
    struct Frame {
        page: GlobalPageId,
        referenced: bool,
        dirty: bool,
    }

    #[derive(Debug, Clone)]
    pub struct RefPool {
        capacity: usize,
        frames: Vec<Option<Frame>>,
        free: Vec<u32>,
        page_table: HashMap<GlobalPageId, u32>,
        hand: usize,
        dirty_count: usize,
        stats: BufferStats,
    }

    impl RefPool {
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0);
            RefPool {
                capacity,
                frames: Vec::new(),
                free: Vec::new(),
                page_table: HashMap::new(),
                hand: 0,
                dirty_count: 0,
                stats: BufferStats::default(),
            }
        }

        pub fn resident(&self) -> usize {
            self.page_table.len()
        }

        pub fn dirty_count(&self) -> usize {
            self.dirty_count
        }

        pub fn stats(&self) -> BufferStats {
            self.stats
        }

        pub fn is_resident(&self, page: GlobalPageId) -> bool {
            self.page_table.contains_key(&page)
        }

        pub fn touch(&mut self, page: GlobalPageId) -> Touch {
            if let Some(&idx) = self.page_table.get(&page) {
                let frame = self.frames[idx as usize].as_mut().expect("occupied");
                frame.referenced = true;
                self.stats.hits += 1;
                return Touch::Hit;
            }
            self.stats.misses += 1;
            let evicted = self.install(page);
            Touch::Miss { evicted }
        }

        pub fn mark_dirty(&mut self, page: GlobalPageId) -> bool {
            match self.page_table.get(&page) {
                Some(&idx) => {
                    let frame = self.frames[idx as usize].as_mut().expect("occupied");
                    if !frame.dirty {
                        frame.dirty = true;
                        self.dirty_count += 1;
                    }
                    true
                }
                None => false,
            }
        }

        fn install(&mut self, page: GlobalPageId) -> Option<(GlobalPageId, bool)> {
            let fresh = Frame {
                page,
                referenced: true,
                dirty: false,
            };
            if let Some(idx) = self.free.pop() {
                self.frames[idx as usize] = Some(fresh);
                self.page_table.insert(page, idx);
                return None;
            }
            if self.frames.len() < self.capacity {
                self.page_table.insert(page, self.frames.len() as u32);
                self.frames.push(Some(fresh));
                return None;
            }
            let victim_idx = self.sweep();
            let victim = self.frames[victim_idx].replace(fresh).expect("full");
            self.page_table.remove(&victim.page);
            self.page_table.insert(page, victim_idx as u32);
            self.stats.evictions += 1;
            if victim.dirty {
                self.dirty_count -= 1;
                self.stats.dirty_evictions += 1;
            }
            Some((victim.page, victim.dirty))
        }

        fn sweep(&mut self) -> usize {
            loop {
                let idx = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                let frame = self.frames[idx].as_mut().expect("pool is full");
                if frame.referenced {
                    frame.referenced = false;
                } else {
                    return idx;
                }
            }
        }

        pub fn collect_dirty(&mut self, max: usize) -> Vec<GlobalPageId> {
            let mut out = Vec::new();
            if self.dirty_count == 0 || max == 0 || self.frames.is_empty() {
                return out;
            }
            let n = self.frames.len();
            let start = self.hand % n;
            for off in 0..n {
                if out.len() >= max {
                    break;
                }
                if let Some(frame) = self.frames[(start + off) % n].as_mut() {
                    if frame.dirty {
                        frame.dirty = false;
                        self.dirty_count -= 1;
                        self.stats.flushed += 1;
                        out.push(frame.page);
                    }
                }
            }
            out
        }

        pub fn evict_relation(&mut self, rel: RelationId) -> (usize, usize) {
            let (mut clean, mut dirty) = (0, 0);
            for idx in 0..self.frames.len() {
                if self.frames[idx].as_ref().is_some_and(|f| f.page.rel == rel) {
                    let frame = self.frames[idx].take().expect("checked above");
                    self.page_table.remove(&frame.page);
                    self.free.push(idx as u32);
                    if frame.dirty {
                        self.dirty_count -= 1;
                        dirty += 1;
                    } else {
                        clean += 1;
                    }
                }
            }
            (clean, dirty)
        }

        pub fn resident_of(&self, rel: RelationId) -> usize {
            self.frames
                .iter()
                .filter(|f| f.as_ref().is_some_and(|f| f.page.rel == rel))
                .count()
        }
    }
}

/// An abstract operation against the pool.
#[derive(Debug, Clone)]
enum Op {
    Touch(u32, u32),
    MarkDirty(u32, u32),
    CollectDirty(usize),
    EvictRelation(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..4, 0u32..64).prop_map(|(r, p)| Op::Touch(r, p)),
        2 => (0u32..4, 0u32..64).prop_map(|(r, p)| Op::MarkDirty(r, p)),
        1 => (0usize..16).prop_map(Op::CollectDirty),
        1 => (0u32..4).prop_map(Op::EvictRelation),
    ]
}

/// Relation ids with gaps between them, as a pool serving a subset of a
/// catalog sees.
const SPARSE_RELS: [u32; 5] = [0, 2, 3, 7, 12];

fn sparse_rel() -> impl Strategy<Value = u32> {
    (0usize..SPARSE_RELS.len()).prop_map(|i| SPARSE_RELS[i])
}

/// Mostly a small page range (so the pool both hits and evicts), sometimes a
/// page far past any touched before (so per-relation state must grow).
fn spread_page() -> impl Strategy<Value = u32> {
    prop_oneof![
        8 => 0u32..48,
        1 => 1_000u32..200_000,
    ]
}

fn model_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (sparse_rel(), spread_page()).prop_map(|(r, p)| Op::Touch(r, p)),
        3 => (sparse_rel(), spread_page()).prop_map(|(r, p)| Op::MarkDirty(r, p)),
        1 => (0usize..12).prop_map(Op::CollectDirty),
        1 => sparse_rel().prop_map(Op::EvictRelation),
    ]
}

fn page(r: u32, p: u32) -> GlobalPageId {
    GlobalPageId::new(RelationId(r), p)
}

proptest! {
    /// The pool makes every decision the reference model makes: the same
    /// hit or victim (with its dirty flag), the same write-back batches in
    /// the same order, the same relation evictions, and the same counters.
    #[test]
    fn matches_reference_model(ops in proptest::collection::vec(model_op_strategy(), 1..600),
                               cap in 1usize..33) {
        let mut pool = BufferPool::new(cap);
        let mut model = reference::RefPool::new(cap);
        for op in ops {
            match op {
                Op::Touch(r, p) => {
                    prop_assert_eq!(pool.touch(page(r, p)), model.touch(page(r, p)));
                }
                Op::MarkDirty(r, p) => {
                    prop_assert_eq!(pool.mark_dirty(page(r, p)), model.mark_dirty(page(r, p)));
                }
                Op::CollectDirty(n) => {
                    prop_assert_eq!(pool.collect_dirty(n), model.collect_dirty(n));
                }
                Op::EvictRelation(r) => {
                    prop_assert_eq!(pool.evict_relation(RelationId(r)),
                                    model.evict_relation(RelationId(r)));
                }
            }
            if let Op::Touch(r, p) | Op::MarkDirty(r, p) = op {
                prop_assert_eq!(pool.is_resident(page(r, p)), model.is_resident(page(r, p)));
            }
            prop_assert_eq!(pool.stats(), model.stats());
            prop_assert_eq!(pool.resident(), model.resident());
            prop_assert_eq!(pool.dirty_count(), model.dirty_count());
            for r in SPARSE_RELS.iter().copied().chain([1, 13]) {
                prop_assert_eq!(pool.resident_of(RelationId(r)),
                                model.resident_of(RelationId(r)));
            }
        }
    }

    /// Residency never exceeds capacity, and dirty pages are always a subset
    /// of resident pages, across arbitrary operation sequences.
    #[test]
    fn pool_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..400),
                            cap in 1usize..32) {
        let mut pool = BufferPool::new(cap);
        let mut flushed_total = 0u64;
        for op in ops {
            match op {
                Op::Touch(r, p) => { pool.touch(page(r, p)); }
                Op::MarkDirty(r, p) => { pool.mark_dirty(page(r, p)); }
                Op::CollectDirty(n) => { flushed_total += pool.collect_dirty(n).len() as u64; }
                Op::EvictRelation(r) => { pool.evict_relation(RelationId(r)); }
            }
            prop_assert!(pool.resident() <= cap);
            prop_assert!(pool.dirty_count() <= pool.resident());
        }
        prop_assert_eq!(pool.stats().flushed, flushed_total);
    }

    /// After touching a page it is resident, and touching it again is a hit.
    #[test]
    fn touch_installs_and_hits(r in 0u32..8, p in 0u32..1000, cap in 1usize..64) {
        let mut pool = BufferPool::new(cap);
        pool.touch(page(r, p));
        prop_assert!(pool.is_resident(page(r, p)));
        prop_assert_eq!(pool.touch(page(r, p)), Touch::Hit);
    }

    /// Hits plus misses equals total touches; evictions only happen at
    /// capacity.
    #[test]
    fn accounting_balances(pages in proptest::collection::vec((0u32..2, 0u32..128), 1..300),
                           cap in 1usize..64) {
        let mut pool = BufferPool::new(cap);
        for (r, p) in &pages {
            pool.touch(page(*r, *p));
        }
        let s = pool.stats();
        prop_assert_eq!(s.hits + s.misses, pages.len() as u64);
        // Installed = misses; installed - evicted = resident.
        prop_assert_eq!(s.misses - s.evictions, pool.resident() as u64);
    }

    /// A working set no larger than capacity never evicts after warm-up.
    #[test]
    fn fitting_working_set_stops_missing(cap in 4usize..64) {
        let mut pool = BufferPool::new(cap);
        let ws: Vec<GlobalPageId> = (0..cap as u32).map(|p| page(0, p)).collect();
        // Two warm-up passes, then measure.
        for _ in 0..2 {
            for p in &ws { pool.touch(*p); }
        }
        let before = pool.stats();
        for _ in 0..3 {
            for p in &ws { pool.touch(*p); }
        }
        let after = pool.stats();
        prop_assert_eq!(before.misses, after.misses);
        prop_assert_eq!(after.hits - before.hits, 3 * cap as u64);
    }

    /// A working set larger than capacity keeps missing under cyclic access
    /// (clock-sweep degrades like LRU on sequential floods).
    #[test]
    fn oversized_working_set_keeps_missing(cap in 4usize..32) {
        let mut pool = BufferPool::new(cap);
        let n = (cap * 2) as u32;
        for _ in 0..3 {
            for p in 0..n { pool.touch(page(0, p)); }
        }
        let before = pool.stats().misses;
        for p in 0..n { pool.touch(page(0, p)); }
        let after = pool.stats().misses;
        prop_assert!(after > before, "cyclic overflow must keep missing");
    }

    /// collect_dirty returns each dirty page at most once and leaves the
    /// pool clean when unbounded.
    #[test]
    fn collect_dirty_is_exact(dirt in proptest::collection::btree_set((0u32..4, 0u32..32), 0..40)) {
        let mut pool = BufferPool::new(256);
        for (r, p) in &dirt {
            pool.touch(page(*r, *p));
            pool.mark_dirty(page(*r, *p));
        }
        let mut got = pool.collect_dirty(usize::MAX);
        got.sort();
        got.dedup();
        prop_assert_eq!(got.len(), dirt.len());
        prop_assert_eq!(pool.dirty_count(), 0);
    }

    /// Evicting a relation removes exactly its pages.
    #[test]
    fn evict_relation_is_selective(pages in proptest::collection::btree_set((0u32..3, 0u32..32), 1..60)) {
        let mut pool = BufferPool::new(256);
        for (r, p) in &pages {
            pool.touch(page(*r, *p));
        }
        let target = RelationId(1);
        let of_target = pages.iter().filter(|(r, _)| *r == 1).count();
        let (clean, dirty) = pool.evict_relation(target);
        prop_assert_eq!(clean + dirty, of_target);
        prop_assert_eq!(pool.resident(), pages.len() - of_target);
        for (r, p) in &pages {
            prop_assert_eq!(pool.is_resident(page(*r, *p)), *r != 1);
        }
    }
}
