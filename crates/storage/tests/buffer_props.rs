//! Property-based tests for buffer-pool invariants, and a reference model
//! the pool's clock-sweep decisions must match bit for bit, over drawn
//! catalogs whose frame words run from the narrowest width to 32 bits.

use proptest::prelude::*;
use tashkent_storage::{BufferPool, Catalog, GlobalPageId, RelationId, RelationSet, Touch};

/// A clock-sweep pool kept as simple as possible: a hashed page table over
/// `Option<Frame>` slots. [`BufferPool`] stores the same state in frame
/// words packed at the catalog's width and per-page state bits in 512-page
/// chunks; every observable result of the two must agree.
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

        /// Takes the first `max` dirty pages in clock order from the hand,
        /// then sorts them into page order, the order the pool hands a batch
        /// over in.
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
            out.sort();
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

/// Pages the model test touches in one relation: its first `TOUCH_SPAN`
/// at most, so a relation of up to 2^24 pages reserves its chunk directory
/// at its first touch but allocates at most its first 32 chunks.
const TOUCH_SPAN: u32 = 1 << 14;

/// A drawn schema: `sizes[r]` pages for relation `r`, the largest of them
/// at `largest`, and the relations the operations touch.
#[derive(Debug, Clone)]
struct Schema {
    sizes: Vec<u32>,
    /// The largest relation first, then four drawn from the catalog, so the
    /// touched ids have gaps between them, as a pool serving a subset of a
    /// catalog sees.
    touched: [u32; 5],
}

/// Raw draws [`Schema::new`] reads.
const SCHEMA_DRAWS: usize = 7 + 255;

impl Schema {
    /// A schema of 2^(`rel_bits` - 1) to 2^`rel_bits` - 1 relations whose
    /// largest relation's last page number needs `page_bits` bits: a
    /// relation field of `rel_bits` bits, and a page field of at least
    /// `page_bits`. Every other size comes from `raw`.
    fn new(rel_bits: u32, page_bits: u32, raw: &[u32]) -> Self {
        let half = |bits: u32| 1u32 << bits.saturating_sub(1);
        let rels = half(rel_bits) + raw[0] % half(rel_bits);
        let largest_pages = match page_bits {
            0 => 1,
            b => half(b) + 1 + raw[1] % half(b),
        };
        let largest = raw[2] % rels;
        let sizes = (0..rels)
            .map(|r| {
                if r == largest {
                    largest_pages
                } else {
                    raw[7 + r as usize] % (largest_pages.min(TOUCH_SPAN) + 1)
                }
            })
            .collect();
        let touched = [
            largest,
            raw[3] % rels,
            raw[4] % rels,
            raw[5] % rels,
            raw[6] % rels,
        ];
        Schema { sizes, touched }
    }

    fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for (r, &pages) in self.sizes.iter().enumerate() {
            c.add_table(&format!("t{r}"), pages, u64::from(pages) * 10);
        }
        c
    }

    /// The page `draw` names in touched relation `i`.
    fn page(&self, i: usize, draw: PageDraw) -> GlobalPageId {
        let rel = self.touched[i];
        let span = self.sizes[rel as usize].clamp(1, TOUCH_SPAN);
        let p = match draw {
            PageDraw::Low(p) => p % span,
            PageDraw::Tail(k) => span - 1 - k % span,
            PageDraw::Any(p) => p % span,
        };
        page(rel, p)
    }
}

/// Schemas over every relation-field width (1 to 8 bits) and every page
/// count of the largest relation's last page (0 to 24 bits).
fn schema_strategy() -> impl Strategy<Value = Schema> {
    (
        1u32..9,
        0u32..25,
        proptest::collection::vec(any::<u32>(), SCHEMA_DRAWS..SCHEMA_DRAWS + 1),
    )
        .prop_map(|(rel_bits, page_bits, raw)| Schema::new(rel_bits, page_bits, &raw))
}

/// Where in a relation's touched span a page falls.
#[derive(Debug, Clone, Copy)]
enum PageDraw {
    /// Mostly a small page range, so the pool both hits and evicts.
    Low(u32),
    /// Near the span's end, across block and chunk edges and high page
    /// bits.
    Tail(u32),
    /// Anywhere in the span, mostly in chunks not yet allocated.
    Any(u32),
}

/// An operation against a pool of a drawn [`Schema`]; relations are
/// indices into its touched relations.
#[derive(Debug, Clone)]
enum ModelOp {
    Touch(usize, PageDraw),
    MarkDirty(usize, PageDraw),
    CollectDirty(usize),
    /// A write-back whose budget is the dirty count less 0 or 1: one round
    /// that takes every dirty page, and one that leaves exactly one.
    CollectNearAll(usize),
    EvictRelation(usize),
    /// Evicts the touched relations whose indices are the mask's set bits
    /// in one call.
    EvictRelations(u8),
}

fn page_draw() -> impl Strategy<Value = PageDraw> {
    prop_oneof![
        8 => (0u32..48).prop_map(PageDraw::Low),
        2 => (0u32..200).prop_map(PageDraw::Tail),
        1 => any::<u32>().prop_map(PageDraw::Any),
    ]
}

fn model_op_strategy() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        6 => (0usize..5, page_draw()).prop_map(|(r, p)| ModelOp::Touch(r, p)),
        3 => (0usize..5, page_draw()).prop_map(|(r, p)| ModelOp::MarkDirty(r, p)),
        1 => (0usize..12).prop_map(ModelOp::CollectDirty),
        1 => (0usize..2).prop_map(ModelOp::CollectNearAll),
        1 => (0usize..5).prop_map(ModelOp::EvictRelation),
        1 => (0u8..32).prop_map(ModelOp::EvictRelations),
    ]
}

/// Runs `ops` on a pool of `schema` with `cap` frames and on the reference
/// model, requiring every decision to agree: the same residency before
/// each touch or mark, the same hit or victim (with its dirty flag), the
/// same write-back batches in page order, the same relation evictions (a
/// set's summed over the model's evictions of its members one at a time,
/// in ascending id order), and the same counters.
fn check_against_model(schema: &Schema, cap: usize, ops: &[ModelOp]) {
    let mut pool = BufferPool::new(cap, schema.catalog());
    let mut model = reference::RefPool::new(cap);
    let last = schema.sizes.len() as u32 - 1;
    for op in ops {
        match *op {
            ModelOp::Touch(i, d) => {
                let p = schema.page(i, d);
                prop_assert_eq!(pool.is_resident(p), model.is_resident(p));
                prop_assert_eq!(pool.touch(p), model.touch(p));
                prop_assert_eq!(pool.is_resident(p), model.is_resident(p));
            }
            ModelOp::MarkDirty(i, d) => {
                let p = schema.page(i, d);
                prop_assert_eq!(pool.is_resident(p), model.is_resident(p));
                prop_assert_eq!(pool.mark_dirty(p), model.mark_dirty(p));
                prop_assert_eq!(pool.is_resident(p), model.is_resident(p));
            }
            ModelOp::CollectDirty(n) => {
                prop_assert_eq!(pool.collect_dirty(n), model.collect_dirty(n));
            }
            ModelOp::CollectNearAll(slack) => {
                let n = model.dirty_count().saturating_sub(slack);
                prop_assert_eq!(pool.collect_dirty(n), model.collect_dirty(n));
            }
            ModelOp::EvictRelation(i) => {
                let rel = RelationId(schema.touched[i]);
                prop_assert_eq!(pool.evict_relation(rel), model.evict_relation(rel));
            }
            ModelOp::EvictRelations(mask) => {
                let rels: RelationSet = (0..5)
                    .filter(|i| mask >> i & 1 != 0)
                    .map(|i| RelationId(schema.touched[i]))
                    .collect();
                let (mut clean, mut dirty) = (0, 0);
                for rel in rels.iter() {
                    let (c, d) = model.evict_relation(rel);
                    (clean, dirty) = (clean + c, dirty + d);
                }
                prop_assert_eq!(pool.evict_relations(rels), (clean, dirty));
            }
        }
        prop_assert_eq!(pool.stats(), model.stats());
        prop_assert_eq!(pool.resident(), model.resident());
        prop_assert_eq!(pool.dirty_count(), model.dirty_count());
        for r in schema.touched.into_iter().chain([0, last]) {
            prop_assert_eq!(
                pool.resident_of(RelationId(r)),
                model.resident_of(RelationId(r))
            );
        }
    }
}

fn page(r: u32, p: u32) -> GlobalPageId {
    GlobalPageId::new(RelationId(r), p)
}

/// A catalog covering every page the strategies draw: relations 0 to 13,
/// each of 200,000 pages.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for r in 0..14 {
        c.add_table(&format!("t{r}"), 200_000, 2_000_000);
    }
    c
}

fn pool(capacity: usize) -> BufferPool {
    BufferPool::new(capacity, catalog())
}

proptest! {
    /// The pool makes every decision the reference model makes, on a drawn
    /// catalog and capacity.
    #[test]
    fn matches_reference_model(schema in schema_strategy(),
                               ops in proptest::collection::vec(model_op_strategy(), 1..600),
                               cap in 1usize..33) {
        check_against_model(&schema, cap, &ops);
    }

    /// Residency never exceeds capacity, and dirty pages are always a subset
    /// of resident pages, across arbitrary operation sequences.
    #[test]
    fn pool_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..400),
                            cap in 1usize..32) {
        let mut pool = pool(cap);
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
        let mut pool = pool(cap);
        pool.touch(page(r, p));
        prop_assert!(pool.is_resident(page(r, p)));
        prop_assert_eq!(pool.touch(page(r, p)), Touch::Hit);
    }

    /// Hits plus misses equals total touches; evictions only happen at
    /// capacity.
    #[test]
    fn accounting_balances(pages in proptest::collection::vec((0u32..2, 0u32..128), 1..300),
                           cap in 1usize..64) {
        let mut pool = pool(cap);
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
        let mut pool = pool(cap);
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
        let mut pool = pool(cap);
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
        let mut pool = pool(256);
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
        let mut pool = pool(256);
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

/// Every pair of field widths meets the reference model once: relation
/// fields of 1 to 8 bits over page fields of 2 to 24 (the capacity sets the
/// floor), so frame words run from 3 to 32 bits and start at every bit
/// offset of a byte.
#[test]
fn matches_reference_model_at_every_width() {
    let mut rng = TestRng::from_name("matches_reference_model_at_every_width");
    let raw = proptest::collection::vec(any::<u32>(), SCHEMA_DRAWS..SCHEMA_DRAWS + 1);
    let ops = proptest::collection::vec(model_op_strategy(), 200..201);
    for rel_bits in 1..=8 {
        for page_bits in 0..=24 {
            let schema = Schema::new(rel_bits, page_bits, &raw.generate(&mut rng));
            let cap = (1usize..33).generate(&mut rng);
            check_against_model(&schema, cap, &ops.generate(&mut rng));
        }
    }
}
