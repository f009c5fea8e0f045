//! Figure 9: the database-size × memory-size space (§5.6).
//!
//! The paper's Figure 9 is a conceptual sketch: partitioning and filtering
//! improve performance in a diagonal band where per-group working sets fit
//! memory but their combined sum does not; above the band the working set
//! is too big for memory (disk-bound either way), below it everything fits
//! (memory-rich either way). This bench *measures* that map on the TPC-W
//! ordering mix and renders it from data.

use tashkent_bench::{run_exps, save_csv, tpcw_config, window};
use tashkent_cluster::{Experiment, PolicySpec};
use tashkent_workloads::tpcw::TpcwScale;

fn main() {
    let (warmup, measured) = window();
    let measured = measured.min(120);
    let scales = [TpcwScale::Small, TpcwScale::Mid, TpcwScale::Large];
    let rams = [256u64, 512, 1024];

    println!("== Figure 9: measured phase map (TPC-W ordering; MALB-SC tps / LC tps) ==");
    println!("rows: database size (small → large); columns: memory (small → large)");
    let mut exps = Vec::new();
    for scale in scales {
        for ram in rams {
            for policy in [PolicySpec::LeastConnections, PolicySpec::malb_sc()] {
                let (config, workload, mix) = tpcw_config(policy, ram, scale, "ordering");
                exps.push(Experiment::new(config, workload, mix).with_window(warmup, measured));
            }
        }
    }
    let mut results = run_exps(exps).into_iter();
    let mut csv = String::from("db,ram_mb,lc_tps,malb_tps,gain\n");
    let mut grid = Vec::new();
    for scale in scales {
        let mut row = Vec::new();
        for ram in rams {
            let lc = results.next().expect("one LC run per cell");
            let malb = results.next().expect("one MALB-SC run per cell");
            let gain = malb.tps / lc.tps.max(1e-9);
            csv.push_str(&format!(
                "{},{},{:.2},{:.2},{:.2}\n",
                scale.label(),
                ram,
                lc.tps,
                malb.tps,
                gain
            ));
            row.push(gain);
        }
        grid.push((scale, row));
    }
    println!("{:<9} {:>8} {:>8} {:>8}", "", "256MB", "512MB", "1024MB");
    for (scale, row) in &grid {
        let cells: Vec<String> = row
            .iter()
            .map(|g| {
                let tag = if *g >= 1.2 {
                    "GAIN"
                } else if *g >= 0.9 {
                    "even"
                } else {
                    "LOSS"
                };
                format!("{g:.2}({tag})")
            })
            .collect();
        println!(
            "{:<9} {:>10} {:>10} {:>10}",
            scale.label(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    println!(
        "paper's band: gains where group working sets fit but the sum does not;\n\
         'even' in the too-big (LargeDB@256MB) and fits-entirely (SmallDB@1GB) corners"
    );
    save_csv("fig09_phase_map", &csv);
}
