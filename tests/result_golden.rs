//! Result golden: every registered scenario reproduces results recorded
//! from an earlier build.
//!
//! `driver_equivalence` and `trace_equivalence` compare two runs of the same
//! build, so a change that moves every run the same way passes them both.
//! This test compares against recorded values instead. Each registered
//! scenario at 4-replica smoke knobs, seed 42, must reproduce its pinned
//! [`Fingerprint`] (the fields `driver_equivalence` judges a run by, the
//! fault log included), and the traced failover run must reproduce its
//! JSONL trace's line count and 64-bit FNV-1a hash. A change meant to move
//! results re-records the values here, so the re-baseline shows in the
//! diff.

use tashkent::cluster::{
    registry, run_scenario, run_sweep, FaultKind, RunResult, ScenarioKnobs, CONTROL_NODE,
};

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
    cert_group_commits: Vec<Vec<u64>>,
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
                committed: 370,
                updates: 103,
                aborts: 0,
                retries_exhausted: 0,
                read_kb_per_txn: 0x40901ee02c47f4ee,
                write_kb_per_txn: 0x404772daa349572e,
                mean_response_us: 275226,
                completions: 370,
                faults: vec![
                    (
                        2000151,
                        2000151,
                        FaultKind::Migrate {
                            group: 1,
                            from: 2,
                            to: 1,
                            bytes: 0,
                        },
                    ),
                    (
                        4000788,
                        4000788,
                        FaultKind::Migrate {
                            group: 6,
                            from: 2,
                            to: 1,
                            bytes: 1340,
                        },
                    ),
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
                        10002833,
                        10002833,
                        FaultKind::Migrate {
                            group: 5,
                            from: 0,
                            to: 2,
                            bytes: 5628,
                        },
                    ),
                    (
                        12000000,
                        12000000,
                        FaultKind::Migrate {
                            group: 1,
                            from: 3,
                            to: 2,
                            bytes: 0,
                        },
                    ),
                    (
                        14002066,
                        14002066,
                        FaultKind::Migrate {
                            group: 5,
                            from: 1,
                            to: 0,
                            bytes: 4020,
                        },
                    ),
                    (
                        16000151,
                        16000151,
                        FaultKind::Migrate {
                            group: 1,
                            from: 1,
                            to: 0,
                            bytes: 0,
                        },
                    ),
                    (
                        22000973,
                        22000973,
                        FaultKind::Migrate {
                            group: 1,
                            from: 0,
                            to: 3,
                            bytes: 0,
                        },
                    ),
                    (
                        24000151,
                        24000151,
                        FaultKind::Migrate {
                            group: 1,
                            from: 2,
                            to: 1,
                            bytes: 0,
                        },
                    ),
                ],
                propagated_ws_bytes: 84250,
                filtered_ws_bytes: 10582,
                migration_bytes: 10988,
                cert_group_commits: vec![],
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

#[test]
fn failover_trace_reproduces_its_recorded_bytes() {
    let path = std::env::temp_dir().join(format!(
        "tashkent-result-golden-{}.jsonl",
        std::process::id()
    ));
    let base = path.to_str().expect("temp path is valid UTF-8").to_string();
    run_scenario("failover", &knobs().with_trace(base.clone())).expect("traced run completes");
    let bytes = std::fs::read(&path).expect("trace file was written");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(format!("{base}.chrome.json"));
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(
        (lines, fnv1a(&bytes)),
        (34_516, 0x449b_0dfd_bece_f46a),
        "failover trace moved"
    );
}
