//! Criterion microbenchmarks for the core algorithmic components: bin
//! packing, buffer-pool touches and fills, certification, the commit log's
//! append and trim, completion accounting, dispatch decisions, and the
//! partial-replication and certifier-group set-up.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use tashkent_certifier::CommitLog;
use tashkent_cluster::{
    ClusterConfig, Counters, Metrics, PartialReplication, PolicySpec, ReplicationPlanner, Scenario,
    ScenarioKnobs, TypeGroups,
};
use tashkent_core::{pack_groups, EstimationMode, Lard, LardConfig, PageTable, WorkingSet};
use tashkent_engine::{Snapshot, TxnId, TxnTypeId, Version, Writeset, WritesetItem};
use tashkent_sim::{SimRng, SimTime};
use tashkent_storage::{BufferPool, Catalog, GlobalPageId, RelationId, RelationSet};
use tashkent_workloads::tpcw::{self, TpcwScale};

/// `n` synthetic types over a 40-relation schema: type `i` references
/// relations `3i .. 3i + 4` (mod 40) and scans relation `i` (mod 40);
/// relation `r` holds `1_000 + 37r mod 9_000` pages.
fn synth_working_sets(n: u32) -> (Vec<WorkingSet>, PageTable) {
    let sets = (0..n)
        .map(|i| WorkingSet {
            txn_type: TxnTypeId(i),
            relations: (0..4).map(|k| RelationId((i * 3 + k) % 40)).collect(),
            scanned: [RelationId(i % 40)].into_iter().collect(),
        })
        .collect();
    let pages = (0..40u64)
        .map(|r| 1_000 + (r * 37) % 9_000)
        .collect::<Vec<_>>();
    (sets, PageTable::from(pages))
}

fn bench_packing(c: &mut Criterion) {
    let (sets, pages) = synth_working_sets(64);
    c.bench_function("bfd_pack_64_types_sc", |b| {
        b.iter(|| pack_groups(&sets, &pages, EstimationMode::SizeContent, 50_000))
    });
    c.bench_function("bfd_pack_64_types_s", |b| {
        b.iter(|| pack_groups(&sets, &pages, EstimationMode::Size, 50_000))
    });
}

/// A one-table catalog of `pages` pages: relation 0.
fn one_table(pages: u32) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_table("t", pages, u64::from(pages) * 10);
    catalog
}

fn bench_buffer_pool(c: &mut Criterion) {
    c.bench_function("bufferpool_touch_hit", |b| {
        let mut pool = BufferPool::new(4_096, one_table(4_096));
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
        let mut pool = BufferPool::new(1_024, one_table(100_000));
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
        let mut pool = BufferPool::with_capacity_bytes(512 << 20, catalog.clone());
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
    // A replica's pool filling from cold: 56,576 distinct pages of the
    // stream into an empty 442 MB pool (512 MB less the 70 MB system
    // overhead), which it then holds exactly. Every touch installs, so the
    // case times the frames' and state blocks' growth.
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<GlobalPageId> = stream
        .iter()
        .copied()
        .filter(|p| seen.insert(*p))
        .take(56_576)
        .collect();
    assert_eq!(distinct.len(), 56_576, "the stream holds enough pages");
    c.bench_function("bufferpool_fill_mid_pool", |b| {
        b.iter_batched(
            || BufferPool::with_capacity_bytes(442 << 20, catalog.clone()),
            |mut pool| {
                for p in &distinct {
                    pool.touch(*p);
                }
                pool
            },
            BatchSize::LargeInput,
        )
    });
    // The background writer's round on a full pool holding a few dirty
    // pages scattered through it, fewer than the round's budget of 16: the
    // round takes every dirty page, reading them off the state blocks'
    // dirty words.
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
    // The writer's round when more pages are dirty than it takes: 32 dirty
    // pages spread evenly over the full 442 MB pool that
    // `bufferpool_fill_mid_pool` builds (page `i` of `distinct` sits in
    // frame `i`). The round walks the frames from the clock hand, about
    // 26,500 of them, until it has 16; they are dirtied again after each
    // round, so every round walks as far.
    c.bench_function("bufferpool_collect_dirty_dense", |b| {
        let mut pool = BufferPool::with_capacity_bytes(442 << 20, catalog.clone());
        for p in &distinct {
            pool.touch(*p);
        }
        for p in distinct.iter().step_by(distinct.len() / 32) {
            pool.mark_dirty(*p);
        }
        b.iter(|| {
            let batch = pool.collect_dirty(16);
            for p in &batch {
                pool.mark_dirty(*p);
            }
            batch
        })
    });
    // A replica installing its update filter on the full 442 MB pool that
    // `bufferpool_fill_mid_pool` builds, as `ReplicaNode::set_filter`
    // does: it keeps the item and author tables and their indexes, and
    // evicts the other 17 relations. Dropping the pool afterwards is timed
    // too, as in every `iter_batched` case of the stand-in criterion.
    c.bench_function("bufferpool_evict_filtered", |b| {
        let mut full = BufferPool::with_capacity_bytes(442 << 20, catalog.clone());
        for p in &distinct {
            full.touch(*p);
        }
        let kept = |name: &str| name.starts_with("item") || name.starts_with("author");
        let dropped: RelationSet = rels
            .iter()
            .filter(|r| !kept(&r.name))
            .map(|r| r.id)
            .collect();
        assert_eq!(dropped.len(), 17);
        b.iter_batched(
            || full.clone(),
            |mut pool| {
                pool.evict_relations(dropped);
                pool
            },
            BatchSize::LargeInput,
        )
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
                        vec![WritesetItem::new(RelationId((i % 7) as u32), i * 13)],
                    );
                    cert.certify(SimTime::from_micros(i), ws);
                }
            },
            BatchSize::SmallInput,
        )
    });

    // A log shaped like ordering-malb-uf's at the end of a run: 41.5k
    // entries, 79% of 2 items, 20% of 6 and 1% of 4, every row distinct.
    // The probe conflicts only with the newest entry, so the check walks
    // the whole suffix after its snapshot: 28 entries (the mean on
    // ordering-malb-uf) or 869 (its maximum). Its second item holds the
    // largest row an item can, so it sorts after every logged row of
    // relation 0. A conflict appends nothing, so the log stays the same
    // size across iterations.
    let item = |i: u64, k: u64| WritesetItem::new(RelationId(((i + k) % 10) as u32), i * 8 + k);
    let mut cert = tashkent_certifier::Certifier::default();
    for i in 0..41_500u64 {
        let ws = Writeset::new(
            TxnId(i),
            TxnTypeId(0),
            Snapshot::at(cert.version()),
            ordering_items(i).collect(),
        );
        cert.certify(SimTime::ZERO, ws);
    }
    let head = cert.version().0;
    for lag in [28, 869] {
        let probe = Writeset::new(
            TxnId(head),
            TxnTypeId(0),
            Snapshot::at(Version(head - lag)),
            vec![
                item(head - 1, 0),
                WritesetItem::new(RelationId(0), (1 << 56) - 1),
            ],
        );
        c.bench_function(&format!("certify_ordering_log_lag_{lag}"), |b| {
            b.iter(|| cert.certify(SimTime::ZERO, probe.clone()))
        });
    }
}

/// The items of ordering-sized writeset `i`: 79% of 2 items, 20% of 6 and
/// 1% of 4, every row distinct.
fn ordering_items(i: u64) -> impl Iterator<Item = WritesetItem> {
    let n = match i % 100 {
        0..=78 => 2,
        79..=98 => 6,
        _ => 4,
    };
    (0..n).map(move |k| WritesetItem::new(RelationId(((i + k) % 10) as u32), i * 8 + k))
}

fn bench_commit_log(c: &mut Criterion) {
    // 100k commits of ordering-sized writesets, trimmed every 1,024 appends
    // to 28 entries below the head (the mean conflict-check suffix on
    // ordering-malb-uf), as the cluster trims it.
    let writesets: Vec<Vec<WritesetItem>> =
        (0..100_000).map(|i| ordering_items(i).collect()).collect();
    c.bench_function("commit_log_append_trim", |b| {
        b.iter_batched(
            CommitLog::default,
            |mut log| {
                for (i, ws) in writesets.iter().enumerate() {
                    log.append(ws);
                    if i % 1_024 == 1_023 {
                        log.trim(Version(log.head().0 - 28));
                    }
                }
                log
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_metrics(c: &mut Criterion) {
    // ordering-malb-uf's 62,758 completions at seed 401, spread evenly over
    // its 300 s window after 150 s of warm-up, then the run's result and
    // Fig 6's 30 s buckets.
    const COMPLETIONS: u64 = 62_758;
    let start = SimTime::from_secs(150);
    c.bench_function("metrics_record_completions", |b| {
        b.iter(|| {
            let mut m = Metrics::new();
            m.start_window(start, Counters::default());
            for i in 0..COMPLETIONS {
                let now = start + i * 300_000_000 / COMPLETIONS;
                m.record_completion_typed(now, start, i % 2 == 0, (i % 14) as u32);
            }
            m.finish(SimTime::from_secs(450), Counters::default(), 1, Vec::new())
                .timeseries(30)
        })
    });
}

fn bench_dispatch(c: &mut Criterion) {
    c.bench_function("lard_dispatch", |b| {
        let mut lard = Lard::new(16, LardConfig::default());
        let conns = [3usize; 16];
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 13;
            lard.dispatch(TxnTypeId(i), &conns, |_| true)
        })
    });
}

fn bench_estimation(c: &mut Criterion) {
    let workload = tpcw::workload(TpcwScale::Mid);
    c.bench_function("estimate_tpcw_working_sets", |b| {
        b.iter(|| workload.estimates())
    });
    // What a cluster build spends on MALB at the `ordering-malb-uf`
    // configuration (16 replicas of 512 MB, MALB-SC with update
    // filtering): estimating every type once, then packing the ordering
    // mix and spreading the replicas.
    let (ordering, mix) = tpcw::workload_with_mix(TpcwScale::Mid, "ordering");
    let config = ClusterConfig::paper_default()
        .with_ram_mb(512)
        .with_policy(PolicySpec::malb_sc_uf());
    c.bench_function("malb_build_tpcw_mid_ordering", |b| {
        b.iter(|| config.balancer(Some(&ordering.estimates()), &mix))
    });
}

/// What a cluster build spends on partial placement and certifier sharding
/// for the `partial-faults` configuration: TPC-W MidDB on 16 replicas at
/// two copies, with four certifier groups asked, which `CertMap::build`
/// folds MidDB's relation sets into three. `experiment_tpcw_mid_partial` is
/// the scenario's own build before the cluster's: schema, transaction
/// types, mix, config and fault schedule.
fn bench_placement(c: &mut Criterion) {
    let scenario = PartialReplication {
        scale: TpcwScale::Mid,
        min_copies: 2,
        faults: true,
    };
    let knobs = ScenarioKnobs {
        replicas: 16,
        clients_per_replica: 8,
        think_mean_us: 500_000,
        ram_mb: 512,
        warmup_secs: 60,
        measured_secs: 240,
        ..ScenarioKnobs::default()
    }
    .with_cert_groups(Some(4))
    .with_heartbeat(Some(500_000))
    .with_checkpoint_lag(Some(32))
    .with_backfill_cap(Some(8 << 20));
    c.bench_function("experiment_tpcw_mid_partial", |b| {
        b.iter(|| scenario.experiment(&knobs))
    });
    let workload = tpcw::workload(TpcwScale::Mid);
    c.bench_function("placement_tpcw_mid_16x2", |b| {
        b.iter(|| {
            let groups = TypeGroups::derive(&workload);
            let map = ReplicationPlanner::new(2).plan(&workload.catalog, &groups, 16);
            let filters: Vec<_> = (0..16).map(|r| map.filter_for(r)).collect();
            (map, filters)
        })
    });
    let groups = TypeGroups::derive(&workload);
    c.bench_function("cert_map_tpcw_mid_4", |b| b.iter(|| groups.cert_map(4)));
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_packing, bench_buffer_pool, bench_certifier, bench_commit_log, bench_metrics, bench_dispatch, bench_estimation, bench_placement
);
criterion_main!(micro);
