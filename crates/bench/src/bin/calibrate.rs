//! Calibration driver: reproduces the §4.4 client-sizing procedure per
//! workload/mix, prints the `CLIENTS_PER_REPLICA` table for
//! `crates/bench/src/lib.rs`, and prints the standalone sweep behind the
//! TPC-W ordering entry.
//!
//! Usage: `cargo run --release -p tashkent-bench --bin calibrate [quick]`

use tashkent_bench::{parse_window, ScenarioKnobs};
use tashkent_cluster::{
    calibrate_standalone, PolicySpec, RubisAuctionMix, Scenario, TpcwSteadyState,
};
use tashkent_workloads::tpcw::TpcwScale;

/// Client counts the §4.4 sweep considers, per replica.
const CANDIDATES: [usize; 8] = [2, 4, 6, 8, 10, 14, 20, 28];

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let (warmup, measured) = parse_window(Some(if quick { "quick" } else { "full" }));

    // 0. Per-workload client sizing: the CLIENTS_PER_REPLICA table every
    // figure reads. Paste the printed block into crates/bench/src/lib.rs
    // after model changes. Each candidate replaces the knobs' client count,
    // so the base is the scenario on one replica at 512 MB.
    let knobs = ScenarioKnobs {
        replicas: 1,
        ..ScenarioKnobs::default()
    }
    .with_policy(PolicySpec::LeastConnections);
    println!("const CLIENTS_PER_REPLICA: &[(&str, &str, usize)] = &[");
    let mut ordering_cal = None;
    for (i, (workload, mix)) in [
        ("tpcw", "ordering"),
        ("tpcw", "shopping"),
        ("tpcw", "browsing"),
        ("rubis", "bidding"),
        ("rubis", "browsing"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut exp = if workload == "tpcw" {
            let scale = TpcwScale::Mid;
            TpcwSteadyState { scale, mix }.experiment(&knobs)
        } else {
            RubisAuctionMix { mix }.experiment(&knobs)
        };
        // Traced, candidate `c` of mix `i` writes `<stem>.<c>.<i>.<ext>`.
        exp.config.trace = exp.config.trace.for_run(i);
        let cal = calibrate_standalone(
            &exp.config,
            &exp.workload,
            &exp.phases[0].1,
            &CANDIDATES,
            warmup,
            measured,
        );
        println!(
            "    (\"{workload}\", \"{mix}\", {}), // peak {:.2} tps",
            cal.clients_at_85, cal.peak_tps
        );
        if mix == "ordering" {
            ordering_cal = Some(cal);
        }
    }
    println!("];");

    // 1. Standalone sweep detail (MidDB, 512 MB, ordering) — reuses the
    // ordering calibration section 0 already ran.
    println!("standalone sweep (MidDB 1.8GB, 512MB RAM, ordering mix):");
    let cal = ordering_cal.expect("section 0 calibrated tpcw/ordering");
    for (n, tps) in &cal.sweep {
        println!("  clients={n:<3} tps={tps:.2}");
    }
    println!(
        "  peak={:.2} tps; 85% point at {} clients (paper: peak 3 tps)",
        cal.peak_tps, cal.clients_at_85
    );
}
