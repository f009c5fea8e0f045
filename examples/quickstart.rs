//! Quickstart: run a small replicated cluster under each load-balancing
//! policy and compare throughput, all through the scenario registry.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tashkent::prelude::*;

fn main() {
    // The TPC-W steady-state scenario from the shared registry: a small
    // bookstore database with the ordering mix (50 % updates).
    let tpcw = scenario("tpcw-steady-state").expect("registered scenario");
    println!("scenario: {} — {}\n", tpcw.name(), tpcw.summary());

    for policy in [
        PolicySpec::LeastConnections,
        PolicySpec::Lard,
        PolicySpec::malb_sc(),
        PolicySpec::malb_sc_uf(),
    ] {
        // An 8-replica cluster at 512 MB per replica.
        let knobs = ScenarioKnobs {
            replicas: 8,
            clients_per_replica: 8,
            warmup_secs: 20,
            measured_secs: 60,
            ..ScenarioKnobs::default()
        }
        .with_policy(policy);
        let result = tpcw.run(&knobs).expect("scenario runs to its End event");
        println!(
            "{:<18} {:>7.1} tps  {:>6.0} ms mean response  {:>5.1} KB read/txn",
            policy.label(),
            result.tps,
            result.mean_response_s * 1e3,
            result.read_kb_per_txn,
        );
        for g in &result.assignments {
            println!("    group {:?} on {} replica(s)", g.types, g.replicas);
        }
    }
}
