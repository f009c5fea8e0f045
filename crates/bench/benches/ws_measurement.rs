//! §5.3 experimental working-set measurement.
//!
//! The paper measures the true working set of a transaction type by
//! dedicating it to a single machine and shrinking memory until disk I/O
//! spikes, then compares against the MALB-SCAP (lower) and MALB-SC (upper)
//! estimates. Reported examples: BestSeller estimated 608–610 MB with a
//! measured 600–650 MB; OrderDisplay estimated 1 MB (SCAP) vs 1600 MB (SC)
//! with a true size of 400–450 MB — the lower bound can be catastrophically
//! optimistic.
//!
//! Runs its twelve experiments (four types at three RAM sizes) in one sweep
//! through the `tpcw-steady-state` scenario, each with a one-type mix.

use tashkent_bench::{run_exps, save_csv, window, ScenarioKnobs};
use tashkent_cluster::{PolicySpec, Scenario, TpcwSteadyState};
use tashkent_core::{EstimationMode, WorkingSetEstimator};
use tashkent_storage::PAGE_SIZE;
use tashkent_workloads::tpcw::{self, TpcwScale};
use tashkent_workloads::Mix;

const TYPES: [&str; 4] = ["BestSeller", "OrderDispl", "ExecSearch", "BuyConfirm"];
const RAMS_MB: [u64; 3] = [256, 512, 1024];

fn main() {
    let (warmup, measured) = window();
    let workload = tpcw::workload(TpcwScale::Mid);
    let est = WorkingSetEstimator::new(&workload.catalog);

    // Each type dedicated to a standalone replica with 4 clients, at each
    // RAM size: the scenario's ordering mix is replaced by a one-type mix.
    let scenario = TpcwSteadyState {
        scale: TpcwScale::Mid,
        mix: "ordering",
    };
    let mut exps = Vec::new();
    for name in TYPES {
        let mut weights = vec![0.0; workload.types.len()];
        weights[workload.type_by_name(name).unwrap().id.0 as usize] = 1.0;
        let mix = Mix {
            name: format!("only-{name}"),
            weights,
        };
        for ram_mb in RAMS_MB {
            let knobs = ScenarioKnobs {
                replicas: 1,
                clients_per_replica: 4,
                ram_mb,
                warmup_secs: warmup,
                measured_secs: measured.min(120),
                ..ScenarioKnobs::default()
            }
            .with_policy(PolicySpec::LeastConnections);
            let mut exp = scenario.experiment(&knobs);
            exp.phases[0].1 = mix.clone();
            exps.push(exp);
        }
    }
    let mut results = run_exps(exps).into_iter();

    println!("== §5.3 working-set measurement (MidDB) ==");
    println!(
        "{:<12} {:>12} {:>12} {:>28}",
        "type", "SCAP est MB", "SC est MB", "read KB/txn at 256/512/1024MB"
    );
    let mut csv = String::from("type,scap_mb,sc_mb,read256,read512,read1024\n");
    for name in TYPES {
        let t = workload.type_by_name(name).unwrap();
        let ws = est.estimate(t.id, &workload.explain(t.id));
        let mb = |mode| ws.pages_for(mode, est.pages()) * PAGE_SIZE / (1 << 20);
        let scap_mb = mb(EstimationMode::SizeContentAccessPattern);
        let sc_mb = mb(EstimationMode::SizeContent);
        let reads: Vec<f64> = results
            .by_ref()
            .take(RAMS_MB.len())
            .map(|r| r.read_kb_per_txn)
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
