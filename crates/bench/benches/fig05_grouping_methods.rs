//! Figure 5: throughput of the grouping methods (§5.3).
//!
//! MidDB 1.8 GB, RAM 512 MB, 16 replicas, ordering mix. The paper reports
//! LeastConnections 37 / LARD 50 / MALB-SCAP 57 / MALB-S 73 / MALB-SC 76:
//! all MALB variants beat the baselines, the lower-bound SCAP estimate
//! over-packs and trails the conservative estimators.

use tashkent_bench::{print_table, run_exps, save_csv, tpcw_config, window, Row};
use tashkent_cluster::{Experiment, PolicySpec};
use tashkent_core::EstimationMode;
use tashkent_workloads::tpcw::TpcwScale;

fn main() {
    let (warmup, measured) = window();
    let policies = [
        (PolicySpec::LeastConnections, 37.0),
        (PolicySpec::Lard, 50.0),
        (
            PolicySpec::Malb {
                mode: EstimationMode::SizeContentAccessPattern,
                update_filtering: false,
            },
            57.0,
        ),
        (
            PolicySpec::Malb {
                mode: EstimationMode::Size,
                update_filtering: false,
            },
            73.0,
        ),
        (PolicySpec::malb_sc(), 76.0),
    ];
    let exps = policies
        .iter()
        .map(|(policy, _)| {
            let (config, workload, mix) = tpcw_config(*policy, 512, TpcwScale::Mid, "ordering");
            Experiment::new(config, workload, mix).with_window(warmup, measured)
        })
        .collect();
    let mut rows = Vec::new();
    for ((policy, paper_tps), r) in policies.into_iter().zip(run_exps(exps)) {
        println!(
            "  {:<12} groups={} read/txn={:.0}KB",
            policy.label(),
            r.assignments.len().max(1),
            r.read_kb_per_txn
        );
        rows.push(Row {
            label: policy.label(),
            paper: paper_tps,
            measured: r.tps,
        });
    }
    let csv = print_table(
        "Figure 5: grouping methods (MidDB, 512MB, 16 replicas, ordering)",
        "tps",
        &rows,
    );
    save_csv("fig05_grouping_methods", &csv);
}
