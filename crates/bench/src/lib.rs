//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every bench target (one per table/figure, `harness = false`) uses these
//! helpers to build the paper's configurations, run experiments, and print
//! paper-vs-measured rows. CSV copies land in `bench_results/`. A figure
//! that runs several independent configurations builds them all first and
//! hands the list to [`run_exps`], which runs one experiment per core.

use std::fs;
use std::path::PathBuf;

pub use tashkent_cluster::ScenarioKnobs;
use tashkent_cluster::{
    run, run_sweep, ClusterConfig, Experiment, PolicySpec, RunError, RunResult,
};
use tashkent_workloads::tpcw::TpcwScale;
use tashkent_workloads::{rubis, tpcw, Mix, Workload};

/// Measurement window used by the bench targets (seconds).
pub const WARMUP_SECS: u64 = 120;
/// Measured portion of each run (seconds).
pub const MEASURED_SECS: u64 = 180;

/// The simulated `(warmup, measured)` window, in seconds, read from
/// `TASHKENT_BENCH_WINDOW` (see [`parse_window`]).
///
/// # Panics
///
/// Panics on a value other than `full`, `quick` or `smoke`.
pub fn window() -> (u64, u64) {
    parse_window(std::env::var("TASHKENT_BENCH_WINDOW").ok().as_deref())
}

/// The `(warmup, measured)` window a `TASHKENT_BENCH_WINDOW` value names:
/// unset gives 90 s + 150 s; `full` 120 s + 180 s; `quick` 60 s + 120 s,
/// for the wide parameter sweeps; `smoke` 10 s + 20 s, for the CI
/// bench-smoke job that only guards against bit-rot.
///
/// # Panics
///
/// Panics on any other value: a typo such as `Quick` silently running the
/// default window would cost minutes and mislabel the results.
pub fn parse_window(value: Option<&str>) -> (u64, u64) {
    match value {
        None => (90, 150),
        Some("full") => (WARMUP_SECS, MEASURED_SECS),
        Some("quick") => (60, 120),
        Some("smoke") => (10, 20),
        Some(other) => panic!(
            "TASHKENT_BENCH_WINDOW must be `full`, `quick` or `smoke` (or unset), got {other:?}"
        ),
    }
}

/// Clients per replica driving ~85 % of standalone peak, per workload
/// configuration — the paper's §4.4 client-sizing procedure applied to each
/// workload/mix we reproduce. Regenerate with
/// `cargo run --release -p tashkent-bench --bin calibrate`, which re-runs
/// the sweeps and prints this table for pasting; fixed here so every figure
/// uses the same calibrated load.
const CLIENTS_PER_REPLICA: &[(&str, &str, usize)] = &[
    ("tpcw", "ordering", 8),  // peak 12.56 tps standalone
    ("tpcw", "shopping", 14), // peak 15.04 tps standalone
    ("tpcw", "browsing", 8),  // peak 8.23 tps standalone
    ("rubis", "bidding", 6),  // peak 4.67 tps standalone
    ("rubis", "browsing", 6), // peak 7.10 tps standalone
];

/// Looks up the calibrated client count for a workload/mix pair.
///
/// # Panics
///
/// Panics on a pair missing from the table: a silent fallback would run a
/// figure at an uncalibrated load, which is exactly the bug the table
/// exists to prevent. Run the `calibrate` bin and add the entry instead.
pub fn clients_per_replica(workload: &str, mix: &str) -> usize {
    CLIENTS_PER_REPLICA
        .iter()
        .find(|(w, m, _)| *w == workload && *m == mix)
        .map(|(_, _, n)| *n)
        .unwrap_or_else(|| {
            panic!("no calibrated client count for {workload}/{mix}; run the calibrate bin")
        })
}

/// Paper-scale scenario knobs for a figure run: 16 replicas, the client
/// load calibrated for `workload`/`mix`, and the window from [`window`].
/// Figures hand these to a [`tashkent_cluster::Scenario`] from the shared
/// registry.
pub fn paper_knobs(policy: PolicySpec, ram_mb: u64, workload: &str, mix: &str) -> ScenarioKnobs {
    let (warmup, measured) = window();
    ScenarioKnobs {
        replicas: 16,
        clients_per_replica: clients_per_replica(workload, mix),
        ram_mb,
        warmup_secs: warmup,
        measured_secs: measured,
        ..ScenarioKnobs::default()
    }
    .with_policy(policy)
}

/// Standalone (single-replica) variant of [`paper_knobs`] — the paper's
/// `Single` reference bar.
pub fn standalone_knobs(
    policy: PolicySpec,
    ram_mb: u64,
    workload: &str,
    mix: &str,
) -> ScenarioKnobs {
    ScenarioKnobs {
        replicas: 1,
        ..paper_knobs(policy, ram_mb, workload, mix)
    }
}

/// The paper's cluster for a TPC-W configuration.
pub fn tpcw_config(
    policy: PolicySpec,
    ram_mb: u64,
    scale: TpcwScale,
    mix: &str,
) -> (ClusterConfig, Workload, Mix) {
    let (workload, m) = tpcw::workload_with_mix(scale, mix);
    let clients = 16 * clients_per_replica("tpcw", mix);
    let config = ClusterConfig::paper_default()
        .with_ram_mb(ram_mb)
        .with_policy(policy)
        .with_clients(clients);
    (config, workload, m)
}

/// The paper's cluster for a RUBiS configuration.
pub fn rubis_config(policy: PolicySpec, ram_mb: u64, mix: &str) -> (ClusterConfig, Workload, Mix) {
    let (workload, m) = rubis::workload_with_mix(mix);
    let clients = 16 * clients_per_replica("rubis", mix);
    let config = ClusterConfig::paper_default()
        .with_ram_mb(ram_mb)
        .with_policy(policy)
        .with_clients(clients);
    (config, workload, m)
}

/// Runs one experiment to completion, bailing out with a readable message
/// on a mis-scheduled run (drained event queue) instead of a panic trace.
pub fn run_exp(exp: Experiment) -> RunResult {
    run(exp).unwrap_or_else(|e| bail(e))
}

/// Runs independent experiments one per core ([`run_sweep`]) and returns
/// their results in input order, bailing out as [`run_exp`] does if any
/// run drains its event queue.
pub fn run_exps(exps: Vec<Experiment>) -> Vec<RunResult> {
    run_sweep(exps)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| bail(e)))
        .collect()
}

fn bail(e: RunError) -> ! {
    eprintln!("bench experiment failed: {e}");
    std::process::exit(1);
}

/// Runs a standalone (single-replica) experiment with the standard window.
pub fn run_standalone(mut config: ClusterConfig, workload: Workload, mix: Mix) -> RunResult {
    let per_replica = config.clients / config.replicas.max(1);
    config = config.standalone(per_replica.max(1));
    run_exp(Experiment::new(config, workload, mix).with_window(WARMUP_SECS, MEASURED_SECS))
}

/// A comparison row: label, the paper's value, and ours.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (policy or configuration).
    pub label: String,
    /// Value reported in the paper.
    pub paper: f64,
    /// Value measured here.
    pub measured: f64,
}

/// Prints a `paper vs measured` table and returns the CSV body.
pub fn print_table(title: &str, unit: &str, rows: &[Row]) -> String {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>12} {:>12} {:>8}",
        "config",
        format!("paper ({unit})"),
        "measured",
        "ratio"
    );
    let mut csv = String::from("config,paper,measured\n");
    for r in rows {
        let ratio = if r.paper != 0.0 {
            r.measured / r.paper
        } else {
            0.0
        };
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>7.2}x",
            r.label, r.paper, r.measured, ratio
        );
        csv.push_str(&format!("{},{},{}\n", r.label, r.paper, r.measured));
    }
    csv
}

/// Writes CSV results under `bench_results/`.
pub fn save_csv(name: &str, body: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(format!("{name}.csv")), body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_window_is_90_plus_150_and_names_pick_theirs() {
        assert_eq!(parse_window(None), (90, 150));
        assert_eq!(parse_window(Some("full")), (WARMUP_SECS, MEASURED_SECS));
        assert_eq!(parse_window(Some("quick")), (60, 120));
        assert_eq!(parse_window(Some("smoke")), (10, 20));
    }

    #[test]
    #[should_panic(expected = "must be `full`, `quick` or `smoke`")]
    fn unknown_window_panics_instead_of_falling_back() {
        parse_window(Some("Quick"));
    }
}
