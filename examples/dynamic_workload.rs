//! Dynamic reconfiguration: switch the workload mix mid-run and watch MALB
//! re-allocate replicas (the Figure 6 experiment at example scale), via the
//! `dynamic-reconfig` scenario from the shared registry.
//!
//! ```sh
//! cargo run --release --example dynamic_workload
//! ```

use tashkent::prelude::*;

fn main() {
    let scenario = scenario("dynamic-reconfig").expect("registered scenario");
    println!("scenario: {} — {}\n", scenario.name(), scenario.summary());

    // Three phases: shopping → browsing → shopping, 80 s each, on an
    // 8-replica cluster.
    let knobs = ScenarioKnobs {
        replicas: 8,
        clients_per_replica: 7,
        warmup_secs: 20,
        measured_secs: 240,
        ..ScenarioKnobs::default()
    };
    let result = scenario
        .run(&knobs)
        .expect("scenario runs to its End event");

    println!("throughput over time (10 s buckets):");
    for (t, tps) in result.timeseries(10) {
        let bar = "#".repeat(tps.round() as usize / 2);
        println!("{t:>6.0}s {tps:>7.1} {bar}");
    }
    println!("\nfinal groups:");
    for g in &result.assignments {
        println!("  {:?} x{} (load {:.2})", g.types, g.replicas, g.load);
    }
    println!(
        "\nlb activity: {} moves, {} merges, {} splits, {} fast re-allocations",
        result.lb.moves, result.lb.merges, result.lb.splits, result.lb.fast_reallocs
    );
}
