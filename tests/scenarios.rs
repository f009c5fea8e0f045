//! The scenario registry as the single shared harness: every built-in
//! scenario runs end-to-end, deterministically, at smoke scale.

use tashkent::prelude::*;

/// The fields a run's `Metrics` summary boils down to for comparison.
fn summary(r: &RunResult) -> (u64, u64, u64, u64, String, String) {
    (
        r.committed,
        r.updates,
        r.aborts,
        r.retries_exhausted,
        format!("{:.6}/{:.6}", r.tps, r.mean_response_s),
        format!("{:.3}/{:.3}", r.read_kb_per_txn, r.write_kb_per_txn),
    )
}

#[test]
fn every_registered_scenario_runs_at_smoke_scale() {
    let knobs = ScenarioKnobs::smoke();
    let scenarios = registry();
    assert!(
        scenarios.len() >= 5,
        "registry must hold the three paper scenarios plus failover and partial replication"
    );
    for s in &scenarios {
        let r = s.run(&knobs).expect("scenario runs to its End event");
        assert!(r.committed > 0, "{}: nothing committed", s.name());
        assert!(r.tps > 0.1, "{}: tps {}", s.name(), r.tps);
        assert!(
            r.mean_response_s > 0.0 && r.mean_response_s < 60.0,
            "{}: response {}",
            s.name(),
            r.mean_response_s
        );
    }
}

#[test]
fn registry_covers_the_built_in_scenarios() {
    for name in [
        "tpcw-steady-state",
        "rubis-auction",
        "dynamic-reconfig",
        "failover",
        "partial-replication",
    ] {
        let s = scenario(name).unwrap_or_else(|| panic!("{name} missing from registry"));
        assert_eq!(s.name(), name);
        assert!(!s.summary().is_empty());
    }
}

#[test]
fn same_seed_same_metrics_summary() {
    // The deterministic-seed smoke test: two runs of the same scenario with
    // the same knobs must produce identical Metrics summaries.
    for name in [
        "tpcw-steady-state",
        "rubis-auction",
        "dynamic-reconfig",
        "failover",
        "partial-replication",
    ] {
        let knobs = ScenarioKnobs::smoke().with_seed(1234);
        let a = run_scenario(name, &knobs).expect("scenario runs to its End event");
        let b = run_scenario(name, &knobs).expect("scenario runs to its End event");
        assert_eq!(summary(&a), summary(&b), "{name}: runs diverged");
        assert_eq!(
            a.completions, b.completions,
            "{name}: completion timestamps diverged"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run_scenario("tpcw-steady-state", &ScenarioKnobs::smoke().with_seed(1))
        .expect("scenario runs to its End event");
    let b = run_scenario("tpcw-steady-state", &ScenarioKnobs::smoke().with_seed(2))
        .expect("scenario runs to its End event");
    assert_ne!(
        summary(&a),
        summary(&b),
        "different seeds must produce different runs"
    );
}

#[test]
fn policy_knob_reaches_the_cluster() {
    let knobs = ScenarioKnobs::smoke().with_policy(PolicySpec::LeastConnections);
    let r = run_scenario("tpcw-steady-state", &knobs).expect("scenario runs to its End event");
    // LeastConnections has no MALB groups; the MALB default would produce
    // some.
    assert!(r.assignments.is_empty());
    let malb = run_scenario("tpcw-steady-state", &ScenarioKnobs::smoke())
        .expect("scenario runs to its End event");
    assert!(!malb.assignments.is_empty());
}

#[test]
fn dynamic_reconfig_switches_mixes() {
    // With browsing (5 % updates) as the middle phase, update fraction over
    // the whole window sits well under the shopping mix's steady share.
    let knobs = ScenarioKnobs {
        measured_secs: 45,
        ..ScenarioKnobs::smoke()
    };
    let r = run_scenario("dynamic-reconfig", &knobs).expect("scenario runs to its End event");
    assert!(r.committed > 0);
    let frac = r.updates as f64 / r.committed.max(1) as f64;
    assert!(
        frac < 0.35,
        "update fraction {frac} should reflect the browsing phase"
    );
}
