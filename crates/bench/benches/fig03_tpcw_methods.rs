//! The paper's TPC-W configuration: MidDB 1.8 GB, RAM 512 MB, 16 replicas,
//! ordering mix. Prints every figure and table the paper measures on it:
//!
//! - Figure 3: Single 3 / LeastConnections 37 / LARD 50 / MALB-SC 76 tps.
//! - Table 1: each method's disk I/O per transaction.
//! - Table 2: MALB-SC's transaction groupings with replica counts.
//! - Figure 5 (§5.3): the grouping methods, LeastConnections 37 / LARD 50 /
//!   MALB-SCAP 57 / MALB-S 73 / MALB-SC 76 tps. Every MALB variant beats
//!   the baselines; the lower-bound SCAP estimate over-packs and trails
//!   the conservative estimators.
//! - Figure 7 and Table 5 (§5.5): update filtering lifts MALB-SC to 113
//!   tps, cutting writes from 12 to 9 KB/txn and reads from 20 to 18.
//! - The §5.3 merging ablation: without merging under-utilized
//!   single-replica groups, MALB-S drops from 73 to 66 tps and MALB-SC from
//!   76 to 70.
//!
//! The figures share their runs: each of the nine distinct configurations
//! runs once, in one sweep through the `tpcw-steady-state` scenario.

use tashkent_bench::{
    io_rows, paper_knobs, print_groupings, print_table, run_exps, save_csv, standalone_knobs, Row,
};
use tashkent_cluster::{PolicySpec, Scenario, TpcwSteadyState};
use tashkent_core::EstimationMode;
use tashkent_workloads::tpcw::TpcwScale;

fn main() {
    let scenario = TpcwSteadyState {
        scale: TpcwScale::Mid,
        mix: "ordering",
    };
    let malb = |mode| PolicySpec::Malb {
        mode,
        update_filtering: false,
    };
    let lc = PolicySpec::LeastConnections;
    let lard = PolicySpec::Lard;
    let sc = PolicySpec::malb_sc();
    let s = malb(EstimationMode::Size);
    let scap = malb(EstimationMode::SizeContentAccessPattern);
    let sc_uf = PolicySpec::malb_sc_uf();

    // Every replicated configuration once, as (policy, merging).
    let configs = [
        (lc, true),
        (lard, true),
        (sc, true),
        (s, true),
        (scap, true),
        (sc_uf, true),
        (s, false),
        (sc, false),
    ];
    let mut exps = vec![scenario.experiment(&standalone_knobs(lc, 512, "tpcw", "ordering"))];
    exps.extend(configs.iter().map(|&(policy, merging)| {
        let mut exp = scenario.experiment(&paper_knobs(policy, 512, "tpcw", "ordering"));
        if !merging {
            // A zero threshold disqualifies every merge candidate.
            exp.config.merge_threshold_override = Some(0.0);
        }
        exp
    }));
    let mut results = run_exps(exps);
    let single = results.remove(0);
    let run = |policy, merging| {
        let i = configs.iter().position(|&c| c == (policy, merging));
        &results[i.expect("every configuration is listed once")]
    };
    let tps = |policy: PolicySpec, paper| Row::new(policy.label(), paper, run(policy, true).tps);
    let single_row = Row::new("Single", 3.0, single.tps);
    let io = |policies: &[(PolicySpec, (f64, f64))]| {
        io_rows(
            policies
                .iter()
                .map(|&(p, paper)| (p.label(), paper, run(p, true))),
        )
    };

    let csv = print_table(
        "Figure 3: TPC-W methods (MidDB 1.8GB, 512MB, 16 replicas, ordering)",
        "tps",
        &[
            single_row.clone(),
            tps(lc, 37.0),
            tps(lard, 50.0),
            tps(sc, 76.0),
        ],
    );
    save_csv("fig03_tpcw_methods", &csv);
    println!(
        "  MALB-SC speedup over Single: {:.1}x (paper: 25x super-linear)",
        run(sc, true).tps / single.tps.max(1e-9)
    );

    let table1 = [(lc, (12.0, 72.0)), (lard, (12.0, 57.0)), (sc, (12.0, 20.0))];
    let csv = print_table(
        "Table 1: TPC-W average disk I/O per transaction",
        "KB",
        &io(&table1),
    );
    save_csv("table1_tpcw_diskio", &csv);

    println!("\n== Table 2: TPC-W MALB-SC groupings (paper groups in brackets) ==");
    println!("paper: [BestSeller]x2 [AdminRespo]x4 [BuyConfirm]x7 [BuyRequest,ShopinCart]x1");
    println!("       [ExecSearch,OrderDispl,OrderInqur,ProducDet]x1 [HomeAction,NewProduct,SearchRequ,AdmiRqust]x1");
    save_csv(
        "table2_tpcw_groupings",
        &print_groupings(&run(sc, true).assignments),
    );

    let fig5 = [
        (lc, 37.0),
        (lard, 50.0),
        (scap, 57.0),
        (s, 73.0),
        (sc, 76.0),
    ];
    for (policy, _) in fig5 {
        let r = run(policy, true);
        println!(
            "  {:<12} groups={} read/txn={:.0}KB",
            policy.label(),
            r.assignments.len().max(1),
            r.read_kb_per_txn
        );
    }
    let rows: Vec<Row> = fig5.iter().map(|&(p, paper)| tps(p, paper)).collect();
    let csv = print_table(
        "Figure 5: grouping methods (MidDB, 512MB, 16 replicas, ordering)",
        "tps",
        &rows,
    );
    save_csv("fig05_grouping_methods", &csv);

    let uf = run(sc_uf, true);
    println!(
        "  update filtering installed: {} (lb: moves={} filters={})",
        uf.lb.filters_installed, uf.lb.moves, uf.lb.filters_installed
    );
    let csv = print_table(
        "Figure 7: update filtering (MidDB, 512MB, 16 replicas, ordering)",
        "tps",
        &[
            single_row,
            tps(lc, 37.0),
            tps(lard, 50.0),
            tps(sc, 76.0),
            tps(sc_uf, 113.0),
        ],
    );
    save_csv("fig07_update_filtering", &csv);
    println!(
        "  MALB-SC+UF speedup over Single: {:.1}x (paper: 37x super-linear)",
        uf.tps / single.tps.max(1e-9)
    );
    let csv = print_table(
        "Table 5: TPC-W disk I/O per transaction with filtering",
        "KB",
        &io(&[&table1[..], &[(sc_uf, (9.0, 18.0))]].concat()),
    );
    save_csv("table5_uf_diskio", &csv);

    let ablation = [
        (s, true, 73.0),
        (s, false, 66.0),
        (sc, true, 76.0),
        (sc, false, 70.0),
    ];
    let label = |policy: PolicySpec, merging| {
        let variant = if merging { "with" } else { "without" };
        format!("{} {variant} merging", policy.label())
    };
    let rows: Vec<Row> = ablation
        .iter()
        .map(|&(p, merging, paper)| Row::new(label(p, merging), paper, run(p, merging).tps))
        .collect();
    let csv = print_table(
        "§5.3 ablation: merging of under-utilized groups",
        "tps",
        &rows,
    );
    save_csv("ablation_merging", &csv);
    for (p, merging, _) in ablation {
        println!(
            "  {:<26} lb.merges={}",
            label(p, merging),
            run(p, merging).lb.merges
        );
    }
}
