//! Partial replication: propagation traffic and throughput vs the
//! `min_copies` durability constraint (Sutra & Shapiro 2008 direction).
//!
//! Sweeps `min_copies` from 1 to the cluster size on the update-heavy
//! TPC-W ordering mix through the `partial-replication` scenario: each
//! relation group lives on `min_copies` holder replicas, dispatch routes
//! transactions only to holders, and the certifier ships writeset pages
//! only to holders (non-holders get version ticks). Mid-run a replica
//! crashes and its groups are re-replicated onto survivors via
//! certifier-log backfill, so every point also exercises the durability
//! invariant. `min_copies = n` is the full-replication baseline — its
//! shipped bytes equal today's propagation volume and its savings are zero.

use tashkent_bench::{paper_knobs, run_exps, save_csv, window, ScenarioKnobs};
use tashkent_cluster::{FaultKind, PartialReplication, PolicySpec, Scenario};

fn main() {
    let base: ScenarioKnobs = paper_knobs(PolicySpec::LeastConnections, 512, "tpcw", "ordering");
    let n = base.replicas;
    let scenario = PartialReplication::default();
    let (warmup, measured) = window();
    println!(
        "== Partial replication: propagation traffic vs min_copies ({n} replicas, {warmup}+{measured}s) =="
    );
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "min_copies", "tps", "shipped MB", "saved MB", "rerepl", "aborts"
    );

    let mut csv = String::from("min_copies,tps,propagated_mb,filtered_mb,rereplications\n");
    let mut shipped = Vec::new();
    let mut sweep: Vec<usize> = [1usize, 2, 4, 8, n]
        .into_iter()
        .filter(|m| *m <= n)
        .collect();
    sweep.dedup(); // `n` may itself be a power of two.
    let exps = sweep
        .iter()
        .map(|&min_copies| scenario.experiment(&base.clone().with_min_copies(Some(min_copies))))
        .collect();
    for (&min_copies, r) in sweep.iter().zip(run_exps(exps)) {
        let rereplications = r
            .faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Rereplicate { .. }))
            .count();
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        println!(
            "{:>10} {:>10.1} {:>12.2} {:>12.2} {:>10} {:>8}",
            min_copies,
            r.tps,
            mb(r.propagated_ws_bytes),
            mb(r.filtered_ws_bytes),
            rereplications,
            r.aborts
        );
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            min_copies,
            r.tps,
            mb(r.propagated_ws_bytes),
            mb(r.filtered_ws_bytes),
            rereplications
        ));
        shipped.push((min_copies, r.propagated_ws_bytes, r.filtered_ws_bytes));
    }
    save_csv("fig_partial", &csv);

    // Shape checks: traffic grows with copies; full replication saves
    // nothing.
    let monotone = shipped.windows(2).all(|w| w[0].1 <= w[1].1);
    println!("\n  shape check: shipped bytes nondecreasing in min_copies: {monotone}");
    if let Some((_, _, saved)) = shipped.iter().find(|(m, _, _)| *m == n) {
        println!(
            "  shape check: full replication withholds nothing: {}",
            *saved == 0
        );
    }
}
