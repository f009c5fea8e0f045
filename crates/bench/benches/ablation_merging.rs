//! §5.3 merging ablation: MALB with group merging disabled.
//!
//! The paper: disabling the merging of under-utilized single-replica groups
//! drops MALB-S from 73 to 66 tps and MALB-SC from 76 to 70 tps — merging
//! compensates for conservative estimates creating many small groups.

use tashkent_bench::{print_table, run_exps, save_csv, tpcw_config, window, Row};
use tashkent_cluster::{Experiment, PolicySpec};
use tashkent_core::EstimationMode;
use tashkent_workloads::tpcw::TpcwScale;

fn main() {
    let (warmup, measured) = window();
    let mut labels = Vec::new();
    let mut exps = Vec::new();
    for (mode, label, paper_on, paper_off) in [
        (EstimationMode::Size, "MALB-S", 73.0, 66.0),
        (EstimationMode::SizeContent, "MALB-SC", 76.0, 70.0),
    ] {
        let policy = PolicySpec::Malb {
            mode,
            update_filtering: false,
        };
        for (merging, paper) in [(true, paper_on), (false, paper_off)] {
            let (mut config, workload, mix) = tpcw_config(policy, 512, TpcwScale::Mid, "ordering");
            if !merging {
                // A zero threshold disqualifies every merge candidate.
                config.merge_threshold_override = Some(0.0);
            }
            exps.push(Experiment::new(config, workload, mix).with_window(warmup, measured));
            let variant = if merging {
                "with merging"
            } else {
                "without merging"
            };
            labels.push((format!("{label} {variant}"), paper));
        }
    }
    let rows: Vec<Row> = labels
        .into_iter()
        .zip(run_exps(exps))
        .map(|((label, paper), r)| Row {
            label,
            paper,
            measured: r.tps,
        })
        .collect();
    let csv = print_table(
        "§5.3 ablation: merging of under-utilized groups",
        "tps",
        &rows,
    );
    save_csv("ablation_merging", &csv);
}
