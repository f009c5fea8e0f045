//! Figure 8: RUBiS bidding mix across memory sizes (§5.6).
//!
//! 2.2 GB database, RAM 256 / 512 / 1024 MB, 16 replicas. Paper values
//! (LC / MALB-SC / MALB-SC+UF): 18/23/24 at 256 MB, 31/43/44 at 512 MB,
//! 42/44/44 at 1024 MB — MALB helps below 1 GB; at 1 GB the working sets
//! fit everywhere and the methods converge.

use tashkent_bench::{print_table, rubis_config, run_exps, save_csv, window, Row};
use tashkent_cluster::{Experiment, PolicySpec};

fn main() {
    let (warmup, measured) = window();
    let paper: [(u64, [f64; 3]); 3] = [
        (256, [18.0, 23.0, 24.0]),
        (512, [31.0, 43.0, 44.0]),
        (1024, [42.0, 44.0, 44.0]),
    ];
    let policies = [
        PolicySpec::LeastConnections,
        PolicySpec::malb_sc(),
        PolicySpec::malb_sc_uf(),
    ];
    let cells: Vec<(u64, PolicySpec, f64)> = paper
        .iter()
        .flat_map(|(ram, paper_vals)| {
            policies
                .iter()
                .zip(paper_vals)
                .map(|(policy, paper_tps)| (*ram, *policy, *paper_tps))
        })
        .collect();
    let exps = cells
        .iter()
        .map(|(ram, policy, _)| {
            let (config, workload, mix) = rubis_config(*policy, *ram, "bidding");
            Experiment::new(config, workload, mix).with_window(warmup, measured)
        })
        .collect();
    let rows: Vec<Row> = cells
        .iter()
        .zip(run_exps(exps))
        .map(|((ram, policy, paper_tps), r)| Row {
            label: format!("{}MB {}", ram, policy.label()),
            paper: *paper_tps,
            measured: r.tps,
        })
        .collect();
    let csv = print_table(
        "Figure 8: RUBiS bidding across memory sizes (16 replicas)",
        "tps",
        &rows,
    );
    save_csv("fig08_rubis_sweep", &csv);

    // Shape check: the MALB advantage over LC shrinks as memory grows.
    let advantage = |ram: &str| {
        let lc = rows
            .iter()
            .find(|r| r.label == format!("{ram}MB LeastConnections"))
            .unwrap()
            .measured;
        let malb = rows
            .iter()
            .find(|r| r.label == format!("{ram}MB MALB-SC"))
            .unwrap()
            .measured;
        malb / lc.max(1e-9)
    };
    println!(
        "  MALB/LC ratio: 256MB {:.2}x, 512MB {:.2}x, 1024MB {:.2}x (paper: 1.28, 1.39, 1.05)",
        advantage("256"),
        advantage("512"),
        advantage("1024")
    );
}
