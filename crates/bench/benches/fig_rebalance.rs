//! Live rebalancing: migration cost vs the backfill bandwidth cap.
//!
//! Sweeps `backfill_bytes_per_sec` through the `rebalance` scenario —
//! TPC-W partially replicated with the skew-driven rebalancer ticking and
//! the hot set shifting mid-run — and reports how much migration traffic
//! the run ships and how long the copies stay in flight. The `instant`
//! row (cap 0) is the pre-fix behaviour: the whole copy is dumped on the
//! target in one unpaced burst and the holder is dispatch-eligible the
//! moment it is added, with no in-flight window. Capped rows stage the
//! copy in chunks that compete with foreground propagation, so copy time
//! scales inversely with the cap.

use tashkent_bench::{paper_knobs, run_exps, save_csv, window, ScenarioKnobs};
use tashkent_cluster::{FaultKind, PolicySpec, Rebalance, Scenario};

fn main() {
    let base: ScenarioKnobs = paper_knobs(PolicySpec::LeastConnections, 512, "tpcw", "ordering");
    let n = base.replicas;
    let scenario = Rebalance::default();
    let (warmup, measured) = window();
    println!(
        "== Live rebalancing: migration cost vs backfill cap ({n} replicas, {warmup}+{measured}s) =="
    );
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>10} {:>8}",
        "cap", "tps", "migr KB", "copy ms", "migrations", "aborts"
    );

    let sweep: &[(&str, u64)] = &[
        ("instant", 0),
        ("256K/s", 256 * 1024),
        ("1M/s", 1024 * 1024),
        ("4M/s", 4 * 1024 * 1024),
    ];
    let mut csv = String::from("cap_bytes_per_sec,tps,migration_kb,copy_ms,migrations\n");
    let mut rows = Vec::new();
    let exps = sweep
        .iter()
        .map(|&(_, cap)| scenario.experiment(&base.clone().with_backfill_cap(Some(cap))))
        .collect();
    for (&(label, cap), r) in sweep.iter().zip(run_exps(exps)) {
        let migrations = r
            .faults
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    FaultKind::Migrate { .. } | FaultKind::Rereplicate { .. }
                )
            })
            .count();
        let kb = r.migration_bytes as f64 / 1024.0;
        let ms = r.migration_us as f64 / 1000.0;
        println!(
            "{:>10} {:>10.1} {:>12.1} {:>10.1} {:>10} {:>8}",
            label, r.tps, kb, ms, migrations, r.aborts
        );
        csv.push_str(&format!("{cap},{},{kb},{ms},{migrations}\n", r.tps));
        rows.push((cap, r.migration_bytes, r.migration_us));
    }
    save_csv("fig_rebalance", &csv);

    // Shape checks: capped copies take real time, and more bandwidth
    // means faster copies — in total and per shipped byte.
    let capped_pay = rows[1..].iter().all(|(_, _, us)| *us > 0);
    println!("\n  shape check: every capped run pays copy time: {capped_pay}");
    let faster = rows[1..].windows(2).all(|w| w[0].2 >= w[1].2);
    println!("  shape check: copy time falls as the cap grows: {faster}");
    let per_byte: Vec<f64> = rows[1..]
        .iter()
        .map(|(_, bytes, us)| *us as f64 / (*bytes).max(1) as f64)
        .collect();
    let cheaper = per_byte.windows(2).all(|w| w[0] >= w[1]);
    println!("  shape check: copy time per byte falls as the cap grows: {cheaper}");
}
