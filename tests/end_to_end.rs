//! End-to-end integration tests: whole clusters under every policy.

use tashkent::prelude::*;
use tashkent_cluster::Experiment;

fn small_config(policy: PolicySpec) -> ClusterConfig {
    ClusterConfig {
        replicas: 4,
        clients: 24,
        think_mean_us: 300_000,
        ..ClusterConfig::paper_default()
    }
    .with_policy(policy)
}

#[test]
fn every_policy_completes_transactions() {
    let (workload, mix) = tpcw::workload_with_mix(tpcw::TpcwScale::Small, "shopping");
    for policy in [
        PolicySpec::LeastConnections,
        PolicySpec::Lard,
        PolicySpec::malb_sc(),
        PolicySpec::malb_sc_uf(),
    ] {
        let r = run(
            Experiment::new(small_config(policy), workload.clone(), mix.clone())
                .with_window(10, 30),
        )
        .expect("experiment runs to its End event");
        assert!(r.tps > 1.0, "{}: tps {}", policy.label(), r.tps);
        assert!(
            r.mean_response_s > 0.0 && r.mean_response_s < 30.0,
            "{}: response {}",
            policy.label(),
            r.mean_response_s
        );
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let (workload, mix) = tpcw::workload_with_mix(tpcw::TpcwScale::Small, "ordering");
    let go = |seed| {
        let mut config = small_config(PolicySpec::malb_sc());
        config.seed = seed;
        let r = run(Experiment::new(config, workload.clone(), mix.clone()).with_window(10, 30))
            .expect("experiment runs to its End event");
        (r.committed, r.aborts, r.updates)
    };
    assert_eq!(go(1), go(1), "same seed, same run");
    assert_ne!(go(1), go(2), "different seeds diverge");
}

#[test]
fn updates_commit_and_propagate_consistently() {
    let (workload, mix) = tpcw::workload_with_mix(tpcw::TpcwScale::Small, "ordering");
    let r = run(
        Experiment::new(small_config(PolicySpec::LeastConnections), workload, mix)
            .with_window(10, 40),
    )
    .expect("experiment runs to its End event");
    // Ordering mix is ~50 % updates.
    let frac = r.updates as f64 / r.committed.max(1) as f64;
    assert!(
        (0.40..0.60).contains(&frac),
        "update fraction {frac} should be ~0.5"
    );
    // Conflicts exist but are rare under session-local write patterns.
    assert!(r.abort_fraction() < 0.05, "aborts {}", r.abort_fraction());
}

#[test]
fn malb_beats_least_connections_on_contrived_thrash() {
    // Two transaction types whose working sets each fit a replica but
    // thrash when colocated: the textbook MALB case. Both types carry heavy
    // scans of disjoint tables sized just over half of memory.
    use tashkent_engine::{Access, PlanStep, TxnPlan, TxnType};
    use tashkent_storage::Catalog;
    use tashkent_workloads::{Mix, Workload};

    let mut catalog = Catalog::new();
    // Two ~250 MB tables; pool is 442 MB → one fits, two overflow it.
    let a = catalog.add_table("table_a", 31_500, 3_150_000);
    let b = catalog.add_table("table_b", 31_500, 3_150_000);
    let scan = |rel| {
        TxnPlan::new(vec![PlanStep::Read {
            rel,
            access: Access::RangeScan {
                fraction: 0.95,
                recent: true,
            },
        }])
    };
    let workload = Workload {
        name: "thrash".into(),
        catalog,
        types: vec![
            TxnType::new(tashkent_engine::TxnTypeId(0), "ScanA", scan(a)),
            TxnType::new(tashkent_engine::TxnTypeId(1), "ScanB", scan(b)),
        ],
    };
    let mix = Mix {
        name: "even".into(),
        weights: vec![1.0, 1.0],
    };

    let mk = |policy| {
        ClusterConfig {
            replicas: 2,
            clients: 6,
            think_mean_us: 500_000,
            ..ClusterConfig::paper_default()
        }
        .with_policy(policy)
    };

    let lc = run(Experiment::new(
        mk(PolicySpec::LeastConnections),
        workload.clone(),
        mix.clone(),
    )
    .with_window(30, 90))
    .expect("experiment runs to its End event");
    let malb = run(Experiment::new(mk(PolicySpec::malb_sc()), workload, mix).with_window(30, 90))
        .expect("experiment runs to its End event");
    assert!(
        malb.tps > 1.5 * lc.tps,
        "MALB {} vs LC {}: separation must beat colocation",
        malb.tps,
        lc.tps
    );
    // And the mechanism: MALB's separation runs from memory while LC's
    // colocation thrashes — in the extreme, LC completes (almost) nothing.
    assert!(malb.committed > 50, "MALB committed {}", malb.committed);
    assert!(
        malb.read_kb_per_txn < 50.0,
        "MALB must run from memory, reads {}",
        malb.read_kb_per_txn
    );
    assert!(
        lc.committed == 0 || lc.read_kb_per_txn > 2.0 * malb.read_kb_per_txn.max(1.0),
        "LC committed {} with reads {}",
        lc.committed,
        lc.read_kb_per_txn
    );
}

#[test]
fn update_filtering_reduces_applied_items() {
    // Two disjoint update types; with filtering each replica only applies
    // its own group's tables.
    use tashkent_engine::{PlanStep, TxnPlan, TxnType, WriteKind, WriteSpec};
    use tashkent_storage::Catalog;
    use tashkent_workloads::{Mix, Workload};

    let mut catalog = Catalog::new();
    let a = catalog.add_table("upd_a", 20_000, 2_000_000);
    let b = catalog.add_table("upd_b", 20_000, 2_000_000);
    let upd = |rel| {
        TxnPlan::new(vec![PlanStep::Write(WriteSpec {
            rel,
            rows: 2,
            kind: WriteKind::UpdateTail { window: 50_000 },
            theta: 0.0,
        })])
    };
    let workload = Workload {
        name: "updates".into(),
        catalog,
        types: vec![
            TxnType::new(tashkent_engine::TxnTypeId(0), "UpdA", upd(a)),
            TxnType::new(tashkent_engine::TxnTypeId(1), "UpdB", upd(b)),
        ],
    };
    let mix = Mix {
        name: "even".into(),
        weights: vec![1.0, 1.0],
    };
    let mut config = ClusterConfig {
        replicas: 4,
        clients: 16,
        think_mean_us: 300_000,
        ..ClusterConfig::paper_default()
    }
    .with_policy(PolicySpec::malb_sc_uf());
    config.seed = 9;
    let r = run(Experiment::new(config, workload, mix).with_window(60, 60))
        .expect("experiment runs to its End event");
    assert!(r.lb.filters_installed, "filters must install once stable");
    assert!(r.tps > 1.0);
}

#[test]
fn rubis_bidding_runs_under_malb() {
    let (workload, mix) = rubis::workload_with_mix("bidding");
    let config = ClusterConfig {
        replicas: 4,
        clients: 20,
        think_mean_us: 300_000,
        ..ClusterConfig::paper_default()
    }
    .with_policy(PolicySpec::malb_sc());
    let r = run(Experiment::new(config, workload, mix).with_window(15, 45))
        .expect("experiment runs to its End event");
    assert!(r.tps > 1.0, "tps {}", r.tps);
    // AboutMe exists in some group.
    assert!(r
        .assignments
        .iter()
        .any(|g| g.types.iter().any(|t| t == "AboutMe")));
}

#[test]
fn standalone_calibration_produces_85_percent_point() {
    let (workload, mix) = tpcw::workload_with_mix(tpcw::TpcwScale::Small, "browsing");
    let base = ClusterConfig {
        think_mean_us: 300_000,
        ..ClusterConfig::paper_default()
    };
    let cal = calibrate_standalone(&base, &workload, &mix, &[2, 6, 12], 5, 15);
    assert_eq!(cal.sweep.len(), 3);
    assert!(cal.peak_tps > 0.0);
    let target = 0.85 * cal.peak_tps;
    let (_, tps_at) = cal
        .sweep
        .iter()
        .find(|(n, _)| *n == cal.clients_at_85)
        .unwrap();
    assert!(*tps_at >= target * 0.99);
}
