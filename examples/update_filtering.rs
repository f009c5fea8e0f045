//! Update filtering: each replica only receives writesets for the tables
//! its transaction group uses (§3).
//!
//! Runs MALB-SC with and without filtering and reports the filtered
//! writeset volume and disk-write reduction.
//!
//! ```sh
//! cargo run --release --example update_filtering
//! ```

use tashkent::cluster::{run, ClusterConfig, Experiment, PolicySpec};
use tashkent::workloads::tpcw::{self, TpcwScale};

fn main() {
    let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");

    let mut results = Vec::new();
    for policy in [PolicySpec::malb_sc(), PolicySpec::malb_sc_uf()] {
        let config = ClusterConfig {
            replicas: 8,
            clients: 56,
            ..ClusterConfig::paper_default()
        }
        .with_policy(policy);
        let r = run(Experiment::new(config, workload.clone(), mix.clone()).with_window(40, 120))
            .expect("scenario runs to its End event");
        println!(
            "{:<14} {:>7.1} tps  write/txn {:>5.1} KB  read/txn {:>5.1} KB  filters installed: {}",
            policy.label(),
            r.tps,
            r.write_kb_per_txn,
            r.read_kb_per_txn,
            r.lb.filters_installed
        );
        results.push(r);
    }
    let (base, filtered) = (&results[0], &results[1]);
    println!(
        "\nfiltering changed writes by {:+.0}% and reads by {:+.0}% \
         (paper at MidDB/512MB: writes −25%, reads −10%)",
        100.0 * (filtered.write_kb_per_txn / base.write_kb_per_txn.max(1e-9) - 1.0),
        100.0 * (filtered.read_kb_per_txn / base.read_kb_per_txn.max(1e-9) - 1.0),
    );
}
