//! Figure 7 + Table 5: effectiveness of update filtering (§5.5).
//!
//! MidDB 1.8 GB, RAM 512 MB, 16 replicas, ordering mix (50 % updates). The
//! paper reports Single 3 / LC 37 / LARD 50 / MALB-SC 76 / MALB-SC+UF 113
//! tps, with filtering cutting writes from 12 to 9 KB/txn and reads from 20
//! to 18 KB/txn (Table 5).

use tashkent_bench::{print_table, run_exps, run_standalone, save_csv, tpcw_config, window, Row};
use tashkent_cluster::{Experiment, PolicySpec};
use tashkent_workloads::tpcw::TpcwScale;

fn main() {
    let (warmup, measured) = window();
    let mut rows = Vec::new();
    let mut io_rows = Vec::new();

    let (config, workload, mix) = tpcw_config(
        PolicySpec::LeastConnections,
        512,
        TpcwScale::Mid,
        "ordering",
    );
    let single = run_standalone(config, workload, mix);
    rows.push(Row {
        label: "Single".into(),
        paper: 3.0,
        measured: single.tps,
    });

    let policies = [
        (PolicySpec::LeastConnections, 37.0, (12.0, 72.0)),
        (PolicySpec::Lard, 50.0, (12.0, 57.0)),
        (PolicySpec::malb_sc(), 76.0, (12.0, 20.0)),
        (PolicySpec::malb_sc_uf(), 113.0, (9.0, 18.0)),
    ];
    let exps = policies
        .iter()
        .map(|(policy, _, _)| {
            let (config, workload, mix) = tpcw_config(*policy, 512, TpcwScale::Mid, "ordering");
            Experiment::new(config, workload, mix).with_window(warmup, measured)
        })
        .collect();
    let mut uf_tps = 0.0;
    for ((policy, paper_tps, (paper_w, paper_r)), r) in policies.into_iter().zip(run_exps(exps)) {
        if matches!(
            policy,
            PolicySpec::Malb {
                update_filtering: true,
                ..
            }
        ) {
            uf_tps = r.tps;
            println!(
                "  update filtering installed: {} (lb: moves={} filters={})",
                r.lb.filters_installed, r.lb.moves, r.lb.filters_installed
            );
        }
        rows.push(Row {
            label: policy.label(),
            paper: paper_tps,
            measured: r.tps,
        });
        io_rows.push(Row {
            label: format!("{} write KB/txn", policy.label()),
            paper: paper_w,
            measured: r.write_kb_per_txn,
        });
        io_rows.push(Row {
            label: format!("{} read KB/txn", policy.label()),
            paper: paper_r,
            measured: r.read_kb_per_txn,
        });
    }

    let csv = print_table(
        "Figure 7: update filtering (MidDB, 512MB, 16 replicas, ordering)",
        "tps",
        &rows,
    );
    save_csv("fig07_update_filtering", &csv);
    println!(
        "  MALB-SC+UF speedup over Single: {:.1}x (paper: 37x super-linear)",
        uf_tps / rows[0].measured.max(1e-9)
    );

    let csv = print_table(
        "Table 5: TPC-W disk I/O per transaction with filtering",
        "KB",
        &io_rows,
    );
    save_csv("table5_uf_diskio", &csv);
}
