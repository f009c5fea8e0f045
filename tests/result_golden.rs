//! Result golden: every registered scenario reproduces results recorded
//! from an earlier build.
//!
//! `driver_equivalence` and `trace_equivalence` compare two runs of the same
//! build, so a change that moves every run the same way passes them both.
//! This test compares against recorded values instead. Each registered
//! scenario at 4-replica smoke knobs, seed 42, must reproduce its pinned
//! [`Fingerprint`] (the fields `driver_equivalence` judges a run by, the
//! fault log included), and four traced runs (failover, detection, partial
//! replication and a certifier outage) must reproduce their JSONL traces'
//! line counts and 64-bit FNV-1a hashes. A change meant to move results
//! re-records the values here, so the re-baseline shows in the diff.
//!
//! Five longer fault runs pin the faults that hold back the certifier
//! log's trim floor: a crash with checkpoint-lag recovery (detector off and
//! on), a control-link partition, and a certifier group losing every
//! member, with one group and with several. The first four were recorded
//! before the log was trimmed, and the fifth before runs with several
//! groups trimmed it and kept per-group commit counts in place of lists,
//! so they show that trimming moves no result; each must end with a
//! trimmed log.

use tashkent::certifier::GroupCommits;
use tashkent::cluster::detection::{
    DEFAULT_CHECKPOINT_LAG, DEFAULT_CLIENT_TIMEOUT_US, DEFAULT_HEARTBEAT_US,
};
use tashkent::cluster::{
    registry, run_sweep, scenario, ClusterState, Ev, Experiment, FaultKind, PolicySpec, RunResult,
    ScenarioKnobs, CONTROL_NODE,
};
use tashkent::engine::Version;
use tashkent::sim::SimTime;
use tashkent::workloads::tpcw::{self, TpcwScale};

/// The fields a run is judged by, exact to the bit. Floats are pinned by
/// their bit patterns; each fault is `(at_us, injected_at_us, kind)`.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    committed: u64,
    updates: u64,
    aborts: u64,
    retries_exhausted: u64,
    read_kb_per_txn: u64,
    write_kb_per_txn: u64,
    mean_response_us: u64,
    completions: usize,
    faults: Vec<(u64, u64, FaultKind)>,
    propagated_ws_bytes: u64,
    filtered_ws_bytes: u64,
    migration_bytes: u64,
    cert_group_commits: Vec<GroupCommits>,
    redo_bytes: u64,
    redo_us: u64,
}

impl Fingerprint {
    fn of(r: &RunResult) -> Self {
        Fingerprint {
            committed: r.committed,
            updates: r.updates,
            aborts: r.aborts,
            retries_exhausted: r.retries_exhausted,
            read_kb_per_txn: r.read_kb_per_txn.to_bits(),
            write_kb_per_txn: r.write_kb_per_txn.to_bits(),
            mean_response_us: (r.mean_response_s * 1e6).round() as u64,
            completions: r.completions.len(),
            faults: r
                .faults
                .iter()
                .map(|f| (f.at.as_micros(), f.injected_at.as_micros(), f.kind))
                .collect(),
            propagated_ws_bytes: r.propagated_ws_bytes,
            filtered_ws_bytes: r.filtered_ws_bytes,
            migration_bytes: r.migration_bytes,
            cert_group_commits: r.cert_group_commits.clone(),
            redo_bytes: r.redo_bytes,
            redo_us: r.redo_us,
        }
    }
}

/// The knobs every pinned run uses: smoke scale on four replicas, seed 42.
fn knobs() -> ScenarioKnobs {
    ScenarioKnobs {
        replicas: 4,
        ..ScenarioKnobs::smoke()
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The recorded fingerprint of every registered scenario, in registry
/// order.
fn golden() -> Vec<(&'static str, Fingerprint)> {
    vec![
        (
            "tpcw-steady-state",
            Fingerprint {
                committed: 320,
                updates: 155,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x4081000000000000,
                write_kb_per_txn: 0x4053ae6666666666,
                mean_response_us: 529218,
                completions: 320,
                faults: vec![],
                propagated_ws_bytes: 128606,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 0,
                redo_us: 0,
            },
        ),
        (
            "rubis-auction",
            Fingerprint {
                committed: 112,
                updates: 22,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x406b9db6db6db6db,
                write_kb_per_txn: 0x4037249249249249,
                mean_response_us: 1504254,
                completions: 112,
                faults: vec![],
                propagated_ws_bytes: 11208,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 0,
                redo_us: 0,
            },
        ),
        (
            "dynamic-reconfig",
            Fingerprint {
                committed: 382,
                updates: 47,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x408f8dbcfbfaa385,
                write_kb_per_txn: 0x4032de7dfd51c258,
                mean_response_us: 430597,
                completions: 382,
                faults: vec![],
                propagated_ws_bytes: 34032,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 0,
                redo_us: 0,
            },
        ),
        (
            "failover",
            Fingerprint {
                committed: 279,
                updates: 140,
                aborts: 1,
                retries_exhausted: 0,
                read_kb_per_txn: 0x408cf833622de0ce,
                write_kb_per_txn: 0x4055ab95900eae56,
                mean_response_us: 608157,
                completions: 279,
                faults: vec![
                    (10000000, 10000000, FaultKind::ReplicaCrash(3)),
                    (12000000, 12000000, FaultKind::ReplicaRecover(3)),
                    (
                        17000000,
                        17000000,
                        FaultKind::CertifierFailover {
                            group: 0,
                            leader: 1,
                        },
                    ),
                ],
                propagated_ws_bytes: 114060,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 3364,
                redo_us: 432480,
            },
        ),
        (
            "detection",
            Fingerprint {
                committed: 326,
                updates: 155,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x40698a356615fcdc,
                write_kb_per_txn: 0x405320fb49d0e229,
                mean_response_us: 478338,
                completions: 326,
                faults: vec![
                    (
                        7000000,
                        7000000,
                        FaultKind::Partition {
                            a: 3,
                            b: CONTROL_NODE,
                        },
                    ),
                    (7500300, 7000000, FaultKind::ReplicaSuspected(3)),
                    (
                        9000000,
                        9000000,
                        FaultKind::PartitionHealed {
                            a: 3,
                            b: CONTROL_NODE,
                        },
                    ),
                    (9000300, 7000000, FaultKind::ReplicaTrusted(3)),
                    (15000000, 15000000, FaultKind::ReplicaCrash(0)),
                    (15500300, 15000000, FaultKind::ReplicaSuspected(0)),
                    (17000000, 17000000, FaultKind::ReplicaRecover(0)),
                    (17000300, 15000000, FaultKind::ReplicaDead(0)),
                    (18500300, 15000000, FaultKind::ReplicaTrusted(0)),
                ],
                propagated_ws_bytes: 130712,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 14504,
                redo_us: 1191680,
            },
        ),
        (
            "partial-replication",
            Fingerprint {
                committed: 284,
                updates: 140,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x4084bd4bb7e327a9,
                write_kb_per_txn: 0x40544d85689039b1,
                mean_response_us: 262374,
                completions: 284,
                faults: vec![
                    (10000000, 10000000, FaultKind::ReplicaCrash(3)),
                    (
                        10000000,
                        10000000,
                        FaultKind::Rereplicate {
                            group: 0,
                            to: 0,
                            bytes: 0,
                        },
                    ),
                    (
                        10000000,
                        10000000,
                        FaultKind::Rereplicate {
                            group: 1,
                            to: 0,
                            bytes: 0,
                        },
                    ),
                    (
                        10000000,
                        10000000,
                        FaultKind::Rereplicate {
                            group: 2,
                            to: 1,
                            bytes: 0,
                        },
                    ),
                    (
                        10000000,
                        10000000,
                        FaultKind::Rereplicate {
                            group: 3,
                            to: 0,
                            bytes: 0,
                        },
                    ),
                    (
                        10016320,
                        10016320,
                        FaultKind::Rereplicate {
                            group: 4,
                            to: 0,
                            bytes: 2948,
                        },
                    ),
                    (
                        10016320,
                        10016320,
                        FaultKind::Rereplicate {
                            group: 6,
                            to: 1,
                            bytes: 2948,
                        },
                    ),
                    (
                        10015400,
                        10015400,
                        FaultKind::Rereplicate {
                            group: 7,
                            to: 0,
                            bytes: 0,
                        },
                    ),
                    (
                        10015400,
                        10015400,
                        FaultKind::Rereplicate {
                            group: 9,
                            to: 0,
                            bytes: 0,
                        },
                    ),
                    (12000000, 12000000, FaultKind::ReplicaRecover(3)),
                    (
                        12000000,
                        12000000,
                        FaultKind::ShrinkHolder { group: 0, from: 0 },
                    ),
                    (
                        12000000,
                        12000000,
                        FaultKind::ShrinkHolder { group: 1, from: 0 },
                    ),
                    (
                        12000000,
                        12000000,
                        FaultKind::ShrinkHolder { group: 2, from: 1 },
                    ),
                    (
                        12000000,
                        12000000,
                        FaultKind::ShrinkHolder { group: 3, from: 0 },
                    ),
                    (
                        12000000,
                        12000000,
                        FaultKind::ShrinkHolder { group: 4, from: 0 },
                    ),
                    (
                        12000000,
                        12000000,
                        FaultKind::ShrinkHolder { group: 6, from: 1 },
                    ),
                    (
                        12000000,
                        12000000,
                        FaultKind::ShrinkHolder { group: 7, from: 0 },
                    ),
                    (
                        12000000,
                        12000000,
                        FaultKind::ShrinkHolder { group: 9, from: 0 },
                    ),
                ],
                propagated_ws_bytes: 107740,
                filtered_ws_bytes: 13790,
                migration_bytes: 5896,
                cert_group_commits: vec![],
                redo_bytes: 3398,
                redo_us: 432480,
            },
        ),
        (
            "rebalance",
            Fingerprint {
                committed: 405,
                updates: 92,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x408efc0ca4587e6b,
                write_kb_per_txn: 0x40425ed097b425ed,
                mean_response_us: 260272,
                completions: 405,
                faults: vec![
                    (
                        4000151,
                        4000151,
                        FaultKind::Migrate {
                            group: 1,
                            from: 2,
                            to: 1,
                            bytes: 0,
                        },
                    ),
                    (
                        8000151,
                        8000151,
                        FaultKind::Migrate {
                            group: 1,
                            from: 3,
                            to: 0,
                            bytes: 0,
                        },
                    ),
                    (
                        10001172,
                        10001172,
                        FaultKind::Rereplicate {
                            group: 4,
                            to: 0,
                            bytes: 2144,
                        },
                    ),
                    (
                        18002784,
                        18002784,
                        FaultKind::Migrate {
                            group: 1,
                            from: 0,
                            to: 2,
                            bytes: 0,
                        },
                    ),
                ],
                propagated_ws_bytes: 64252,
                filtered_ws_bytes: 9240,
                migration_bytes: 2144,
                cert_group_commits: vec![],
                redo_bytes: 0,
                redo_us: 0,
            },
        ),
    ]
}

/// Knobs of the pinned fault runs: `knobs()`'s four smoke-scale replicas,
/// 5 s of warm-up and 265 s measured.
///
/// The cluster scans for the trim floor once per 1,024 commits, and these
/// knobs commit about 15 versions a second, so the first scan falls at
/// 91-97 s. Every fault therefore starts at 100 s, after a trim. The
/// crashes and the partition last 70 s, so the second scan (159-166 s)
/// falls while the fault holds the floor back; the certifier outage stops
/// commits, and with them the scans, for its 30 s. The 270 s length
/// carries every run past at least one more scan after its fault is over
/// (197-267 s).
fn fault_knobs() -> ScenarioKnobs {
    ScenarioKnobs {
        warmup_secs: 5,
        measured_secs: 265,
        ..knobs()
    }
}

/// The fault runs that move the commit log's trim floor, each on full
/// replication, in the order pinned below. The last runs the ordering mix
/// on up to four certifier groups (the map folds it to three); every
/// member of group 1 dies at 100 s, so requests touching it park until a
/// member restarts at 130 s.
fn fault_runs() -> Vec<(&'static str, Experiment)> {
    let fault = SimTime::from_secs(100);
    let base = |knobs: ScenarioKnobs| {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        Experiment::new(knobs.config(PolicySpec::malb_sc()), workload, mix)
            .with_window(knobs.warmup_secs, knobs.measured_secs)
    };
    let lagged = fault_knobs().with_checkpoint_lag(Some(DEFAULT_CHECKPOINT_LAG));
    let detected = |knobs: ScenarioKnobs| {
        knobs
            .with_heartbeat(Some(DEFAULT_HEARTBEAT_US))
            .with_client_timeout(Some(DEFAULT_CLIENT_TIMEOUT_US))
    };
    let crash = |exp: Experiment| {
        exp.with_injection(fault, Ev::ReplicaCrash { replica: 3 })
            .with_injection(SimTime::from_secs(170), Ev::ReplicaRecover { replica: 3 })
    };
    let outage = |knobs: ScenarioKnobs, group: usize| {
        let mut exp = base(knobs);
        for member in 0..3 {
            exp = exp.with_injection(fault, Ev::CertifierKill { group, member });
        }
        exp.with_injection(
            SimTime::from_secs(130),
            Ev::CertifierRestart { group, member: 0 },
        )
    };
    vec![
        ("crash-lagged", crash(base(lagged.clone()))),
        ("crash-lagged-detected", crash(base(detected(lagged)))),
        (
            "control-partition",
            base(detected(fault_knobs())).with_injection(
                fault,
                Ev::LinkPartition {
                    a: CONTROL_NODE,
                    b: 3,
                    heal_at: SimTime::from_secs(170),
                },
            ),
        ),
        ("certifier-outage", outage(fault_knobs(), 0)),
        (
            "sharded-certifier-outage",
            outage(fault_knobs().with_cert_groups(Some(4)), 1),
        ),
    ]
}

/// Runs an experiment as `run` does, keeping the state so the test can
/// read its commit log.
fn run_keeping_state(exp: Experiment) -> (RunResult, ClusterState) {
    let (mut state, mut queue) = exp.build();
    state.run_to_end(&mut queue).expect("End event scheduled");
    (state.finish_result(queue.now()), state)
}

/// The recorded fingerprint of every run of [`fault_runs`], in order.
fn fault_golden() -> Vec<(&'static str, Fingerprint)> {
    vec![
        (
            "crash-lagged",
            Fingerprint {
                committed: 7295,
                updates: 3586,
                aborts: 1,
                retries_exhausted: 0,
                read_kb_per_txn: 0x404793a25f8598e6,
                write_kb_per_txn: 0x404ff74c0ba69590,
                mean_response_us: 139104,
                completions: 7295,
                faults: vec![
                    (100000000, 100000000, FaultKind::ReplicaCrash(3)),
                    (170000000, 170000000, FaultKind::ReplicaRecover(3)),
                ],
                propagated_ws_bytes: 2786082,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 281742,
                redo_us: 5746720,
            },
        ),
        (
            "crash-lagged-detected",
            Fingerprint {
                committed: 7105,
                updates: 3510,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x40470bdaac0306cf,
                write_kb_per_txn: 0x40506c8677b1e287,
                mean_response_us: 148574,
                completions: 7105,
                faults: vec![
                    (100000000, 100000000, FaultKind::ReplicaCrash(3)),
                    (100500300, 100000000, FaultKind::ReplicaSuspected(3)),
                    (102000300, 100000000, FaultKind::ReplicaDead(3)),
                    (170000000, 170000000, FaultKind::ReplicaRecover(3)),
                    (176000300, 100000000, FaultKind::ReplicaTrusted(3)),
                ],
                propagated_ws_bytes: 2779562,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 283138,
                redo_us: 5901600,
            },
        ),
        (
            "control-partition",
            Fingerprint {
                committed: 7361,
                updates: 3651,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x40456d722d00a929,
                write_kb_per_txn: 0x404ff7ee78d18081,
                mean_response_us: 131816,
                completions: 7361,
                faults: vec![
                    (
                        100000000,
                        100000000,
                        FaultKind::Partition {
                            a: 3,
                            b: CONTROL_NODE,
                        },
                    ),
                    (100500300, 100000000, FaultKind::ReplicaSuspected(3)),
                    (102000300, 100000000, FaultKind::ReplicaDead(3)),
                    (
                        170000000,
                        170000000,
                        FaultKind::PartitionHealed {
                            a: 3,
                            b: CONTROL_NODE,
                        },
                    ),
                    (170000300, 100000000, FaultKind::ReplicaTrusted(3)),
                ],
                propagated_ws_bytes: 2872888,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 0,
                redo_us: 0,
            },
        ),
        (
            "certifier-outage",
            Fingerprint {
                committed: 6221,
                updates: 3084,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x405795956b47cef3,
                write_kb_per_txn: 0x4051e20ac8136c5a,
                mean_response_us: 212325,
                completions: 6221,
                faults: vec![
                    (
                        100000000,
                        100000000,
                        FaultKind::CertifierFailover {
                            group: 0,
                            leader: 1,
                        },
                    ),
                    (
                        100000000,
                        100000000,
                        FaultKind::CertifierFailover {
                            group: 0,
                            leader: 2,
                        },
                    ),
                    (
                        130000000,
                        130000000,
                        FaultKind::CertifierFailover {
                            group: 0,
                            leader: 0,
                        },
                    ),
                ],
                propagated_ws_bytes: 2406344,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![],
                redo_bytes: 0,
                redo_us: 0,
            },
        ),
        (
            "sharded-certifier-outage",
            Fingerprint {
                committed: 6316,
                updates: 3117,
                aborts: 1,
                retries_exhausted: 0,
                read_kb_per_txn: 0x40573e03911ac049,
                write_kb_per_txn: 0x4051fedd777d002a,
                mean_response_us: 203447,
                completions: 6316,
                faults: vec![
                    (
                        100000000,
                        100000000,
                        FaultKind::CertifierFailover {
                            group: 1,
                            leader: 1,
                        },
                    ),
                    (
                        100000000,
                        100000000,
                        FaultKind::CertifierFailover {
                            group: 1,
                            leader: 2,
                        },
                    ),
                    (
                        130000000,
                        130000000,
                        FaultKind::CertifierFailover {
                            group: 1,
                            leader: 0,
                        },
                    ),
                ],
                propagated_ws_bytes: 2438404,
                filtered_ws_bytes: 0,
                migration_bytes: 0,
                cert_group_commits: vec![
                    GroupCommits {
                        commits: 3143,
                        last: Version(3143),
                        digest: 0xafe05088194ef1f5,
                    },
                    GroupCommits {
                        commits: 1685,
                        last: Version(3142),
                        digest: 0xcb9a58f3324ad041,
                    },
                    GroupCommits {
                        commits: 640,
                        last: Version(3138),
                        digest: 0x1824b2b20f41183e,
                    },
                ],
                redo_bytes: 0,
                redo_us: 0,
            },
        ),
    ]
}

#[test]
fn registered_scenarios_reproduce_their_recorded_results() {
    let golden = golden();
    let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
    let pinned: Vec<&str> = golden.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "every registered scenario is pinned");
    let exps = registry().iter().map(|s| s.experiment(&knobs())).collect();
    for ((name, want), got) in golden.iter().zip(run_sweep(exps)) {
        let got = got.unwrap_or_else(|e| panic!("{name}: run failed: {e:?}"));
        assert_eq!(&Fingerprint::of(&got), want, "{name}: result moved");
    }
}

/// Traced runs, each with its JSONL trace's recorded line count and 64-bit
/// FNV-1a hash. Between them they write
/// every fault description the cluster traces: the failover scenario a
/// crash, a recovery and a certifier failover; detection a partition, a
/// crash, a death, a heal and a recovery; partial replication a crash, a
/// recovery and holder shrinks; the certifier outage a restart-failover.
fn traced_runs() -> Vec<(&'static str, Experiment, usize, u64)> {
    let registered = |name: &str| {
        scenario(name)
            .unwrap_or_else(|| panic!("no scenario named {name:?}"))
            .experiment(&knobs())
    };
    let (_, outage) = fault_runs()
        .into_iter()
        .find(|(name, _)| *name == "certifier-outage")
        .expect("the certifier outage is a fault run");
    vec![
        (
            "failover",
            registered("failover"),
            34_516,
            0x449b_0dfd_bece_f46a,
        ),
        (
            "detection",
            registered("detection"),
            10_691,
            0x3824_0d9c_3727_ca94,
        ),
        (
            "partial-replication",
            registered("partial-replication"),
            27_564,
            0x7dda_581c_2a2a_b67f,
        ),
        ("certifier-outage", outage, 112_719, 0xa52a_028a_05e9_55d4),
    ]
}

#[test]
fn traced_runs_reproduce_their_recorded_bytes() {
    let path = |name: &str| {
        std::env::temp_dir().join(format!(
            "tashkent-result-golden-{}-{name}.jsonl",
            std::process::id()
        ))
    };
    let (pinned, exps): (Vec<_>, Vec<_>) = traced_runs()
        .into_iter()
        .map(|(name, mut exp, lines, hash)| {
            let jsonl = path(name)
                .to_str()
                .expect("temp path is valid UTF-8")
                .into();
            exp.config.trace.jsonl_path = Some(jsonl);
            ((name, lines, hash), exp)
        })
        .unzip();
    for ((name, lines, hash), got) in pinned.into_iter().zip(run_sweep(exps)) {
        got.unwrap_or_else(|e| panic!("{name}: traced run failed: {e:?}"));
        let bytes = std::fs::read(path(name)).expect("trace file was written");
        let _ = std::fs::remove_file(path(name));
        let got_lines = bytes.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(
            (got_lines, fnv1a(&bytes)),
            (lines, hash),
            "{name}: trace moved"
        );
    }
}

#[test]
fn fault_runs_reproduce_their_recorded_results_on_a_trimmed_log() {
    let golden = fault_golden();
    let runs = fault_runs();
    let names: Vec<&str> = runs.iter().map(|(name, _)| *name).collect();
    let pinned: Vec<&str> = golden.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "every fault run is pinned");
    for ((name, want), (_, exp)) in golden.iter().zip(runs) {
        let (got, state) = run_keeping_state(exp);
        assert_eq!(&Fingerprint::of(&got), want, "{name}: result moved");
        assert!(
            state.certifier().log().base() > Version(0),
            "{name}: the commit log was never trimmed"
        );
    }
}
