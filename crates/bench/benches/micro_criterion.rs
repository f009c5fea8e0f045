//! Criterion microbenchmarks for the core algorithmic components: bin
//! packing, buffer-pool touches, certification, and dispatch decisions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use tashkent_core::{
    pack_groups, EstimationMode, Lard, LardConfig, WorkingSet, WorkingSetEstimator,
};
use tashkent_engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent_sim::{SimRng, SimTime};
use tashkent_storage::{BufferPool, Catalog, GlobalPageId, RelationId};
use tashkent_workloads::tpcw::{self, TpcwScale};

fn synth_working_sets(n: u32) -> Vec<WorkingSet> {
    (0..n)
        .map(|i| WorkingSet {
            txn_type: TxnTypeId(i),
            relations: (0..4)
                .map(|k| {
                    (
                        RelationId((i * 3 + k) % 40),
                        1_000 + (i as u64 * 37) % 9_000,
                    )
                })
                .collect(),
            scanned: [(RelationId(i % 40))].into_iter().collect(),
        })
        .collect()
}

fn bench_packing(c: &mut Criterion) {
    let sets = synth_working_sets(64);
    c.bench_function("bfd_pack_64_types_sc", |b| {
        b.iter(|| pack_groups(&sets, EstimationMode::SizeContent, 50_000))
    });
    c.bench_function("bfd_pack_64_types_s", |b| {
        b.iter(|| pack_groups(&sets, EstimationMode::Size, 50_000))
    });
}

fn bench_buffer_pool(c: &mut Criterion) {
    c.bench_function("bufferpool_touch_hit", |b| {
        let mut pool = BufferPool::new(4_096);
        for p in 0..4_096u32 {
            pool.touch(GlobalPageId::new(RelationId(0), p));
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 4_096;
            pool.touch(GlobalPageId::new(RelationId(0), i))
        })
    });
    c.bench_function("bufferpool_touch_evict", |b| {
        let mut pool = BufferPool::new(1_024);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            pool.touch(GlobalPageId::new(RelationId(0), i % 100_000))
        })
    });

    // A 512 MB replica pool over the 1.8 GB MidDB database: every relation,
    // picked in proportion to its size, with Zipf-skewed pages inside it.
    // About 70% of touches hit once the pool is warm.
    let catalog = tpcw::workload(TpcwScale::Mid).catalog;
    let rels = catalog.relations();
    let weights: Vec<f64> = rels.iter().map(|r| r.pages as f64).collect();
    let mut rng = SimRng::seed_from(13);
    let stream: Vec<GlobalPageId> = (0..1 << 20)
        .map(|_| {
            let r = &rels[rng.weighted_index(&weights)];
            GlobalPageId::new(r.id, rng.zipf_rank(r.pages as u64, 0.8) as u32)
        })
        .collect();
    let warm_pool = || {
        let mut pool = BufferPool::with_capacity_bytes(512 << 20);
        for p in &stream {
            pool.touch(*p);
        }
        pool
    };
    c.bench_function("bufferpool_touch_middb_mix", |b| {
        let mut pool = warm_pool();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % stream.len();
            pool.touch(stream[i])
        })
    });
    // The background writer's round on a full pool holding a few dirty
    // pages scattered through it: the scan reads every frame's state until
    // the last dirty page is out.
    c.bench_function("bufferpool_collect_dirty_sparse", |b| {
        let mut pool = warm_pool();
        let resident: Vec<GlobalPageId> = stream
            .iter()
            .step_by(4_099)
            .copied()
            .filter(|p| pool.is_resident(*p))
            .take(8)
            .collect();
        b.iter(|| {
            for p in &resident {
                pool.mark_dirty(*p);
            }
            pool.collect_dirty(16)
        })
    });
}

fn bench_certifier(c: &mut Criterion) {
    c.bench_function("certify_commit", |b| {
        b.iter_batched(
            tashkent_certifier::Certifier::default,
            |mut cert| {
                for i in 0..100u64 {
                    let ws = Writeset::new(
                        TxnId(i),
                        TxnTypeId(0),
                        Snapshot::at(Version(i)),
                        vec![WritesetItem {
                            rel: RelationId((i % 7) as u32),
                            row: i * 13,
                        }],
                    );
                    cert.certify(SimTime::from_micros(i), ws);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_dispatch(c: &mut Criterion) {
    c.bench_function("lard_dispatch", |b| {
        let mut lard = Lard::new(16, LardConfig::default());
        let conns = [3usize; 16];
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 13;
            lard.dispatch(TxnTypeId(i), &conns)
        })
    });
}

fn bench_estimation(c: &mut Criterion) {
    let workload = tpcw::workload(TpcwScale::Mid);
    c.bench_function("estimate_tpcw_working_sets", |b| {
        b.iter(|| {
            let est = WorkingSetEstimator::new(&workload.catalog);
            let sets: Vec<WorkingSet> = workload
                .types
                .iter()
                .map(|t| est.estimate(t.id, &workload.explain(t.id)))
                .collect();
            sets
        })
    });
    let mut catalog = Catalog::new();
    for i in 0..100 {
        catalog.add_table(&format!("t{i}"), 100 + i, 10_000);
    }
    c.bench_function("catalog_relpages_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % 100;
            catalog.relpages(&format!("t{i}"))
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_packing, bench_buffer_pool, bench_certifier, bench_dispatch, bench_estimation
);
criterion_main!(micro);
