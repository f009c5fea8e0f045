//! §5.3 experimental working-set measurement.
//!
//! The paper measures the true working set of a transaction type by
//! dedicating it to a single machine and shrinking memory until disk I/O
//! spikes, then compares against the MALB-SCAP (lower) and MALB-SC (upper)
//! estimates. Reported examples: BestSeller estimated 608–610 MB with a
//! measured 600–650 MB; OrderDisplay estimated 1 MB (SCAP) vs 1600 MB (SC)
//! with a true size of 400–450 MB — the lower bound can be catastrophically
//! optimistic.

use tashkent_bench::{run_exp, save_csv, window};
use tashkent_cluster::{ClusterConfig, Experiment, PolicySpec};
use tashkent_core::{EstimationMode, WorkingSetEstimator};
use tashkent_storage::PAGE_SIZE;
use tashkent_workloads::tpcw::{self, TpcwScale};
use tashkent_workloads::{Mix, Workload};

/// Dedicates one transaction type to a standalone replica at the given RAM
/// and reports the read I/O per transaction.
fn dedicated_read_kb(
    workload: &Workload,
    type_name: &str,
    ram_mb: u64,
    warmup: u64,
    measured: u64,
) -> f64 {
    let mut weights = vec![0.0; workload.types.len()];
    let t = workload.type_by_name(type_name).unwrap();
    weights[t.id.0 as usize] = 1.0;
    let mix = Mix {
        name: format!("only-{type_name}"),
        weights,
    };
    let config = ClusterConfig::paper_default()
        .with_ram_mb(ram_mb)
        .with_policy(PolicySpec::LeastConnections)
        .standalone(4);
    let r = run_exp(Experiment::new(config, workload.clone(), mix).with_window(warmup, measured));
    r.read_kb_per_txn
}

fn main() {
    let (warmup, measured) = window();
    let measured = measured.min(120);
    let workload = tpcw::workload(TpcwScale::Mid);
    let est = WorkingSetEstimator::new(&workload.catalog);

    println!("== §5.3 working-set measurement (MidDB) ==");
    println!(
        "{:<12} {:>12} {:>12} {:>28}",
        "type", "SCAP est MB", "SC est MB", "read KB/txn at 256/512/1024MB"
    );
    let mut csv = String::from("type,scap_mb,sc_mb,read256,read512,read1024\n");
    for name in ["BestSeller", "OrderDispl", "ExecSearch", "BuyConfirm"] {
        let t = workload.type_by_name(name).unwrap();
        let ws = est.estimate(t.id, &workload.explain(t.id));
        let mb = |mode| ws.pages_for(mode, est.pages()) * PAGE_SIZE / (1 << 20);
        let scap_mb = mb(EstimationMode::SizeContentAccessPattern);
        let sc_mb = mb(EstimationMode::SizeContent);
        let reads: Vec<f64> = [256u64, 512, 1024]
            .iter()
            .map(|ram| dedicated_read_kb(&workload, name, *ram, warmup, measured))
            .collect();
        println!(
            "{name:<12} {scap_mb:>12} {sc_mb:>12} {:>8.0} {:>8.0} {:>8.0}",
            reads[0], reads[1], reads[2]
        );
        csv.push_str(&format!(
            "{name},{scap_mb},{sc_mb},{:.1},{:.1},{:.1}\n",
            reads[0], reads[1], reads[2]
        ));
    }
    println!(
        "\npaper: BestSeller SC/SCAP estimates 608/610 MB ≈ measured 600-650 MB;\n\
         OrderDisplay SCAP 1 MB vs SC 1600 MB vs true 400-450 MB.\n\
         Shape check: a type's read I/O spikes once memory shrinks below its\n\
         true working set, and OrderDisplay's SCAP estimate is uselessly low."
    );
    save_csv("ws_measurement", &csv);
}
