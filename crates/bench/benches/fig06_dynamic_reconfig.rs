//! Figure 6: dynamic reconfiguration under a workload-mix switch (§5.4).
//!
//! The TPC-W mix switches shopping → browsing → shopping (2000 s phases in
//! the paper; scaled down here). MALB re-allocates replicas after each
//! switch and throughput converges to each mix's baseline (paper: 76 tps
//! shopping, 45 browsing). The bottom line is the *static* configuration
//! baseline: browsing served by the frozen shopping allocation (paper:
//! 19 tps, worse than LeastConnections' 37).
//!
//! Runs through the `dynamic-reconfig` and `tpcw-steady-state` scenarios
//! from the shared harness.

use tashkent_bench::{paper_knobs, run_exp, save_csv, window, ScenarioKnobs};
use tashkent_cluster::{DynamicReconfig, PolicySpec, Scenario, TpcwSteadyState};
use tashkent_workloads::tpcw::TpcwScale;

fn main() {
    let (warmup, _) = window();
    let phase = 150u64; // Scaled-down stand-in for the paper's 2000 s phases.
    let knobs = ScenarioKnobs {
        warmup_secs: warmup,
        measured_secs: 3 * phase,
        ..paper_knobs(PolicySpec::malb_sc(), 512, "tpcw", "shopping")
    };

    // Dynamic MALB through the two switches.
    let dynamic = DynamicReconfig {
        scale: TpcwScale::Mid,
        freeze: false,
    }
    .run(&knobs)
    .expect("scenario runs to its End event");

    // Static baseline: converge on shopping, freeze, then serve browsing.
    // Only the browsing plateau is read, so drop the return-to-shopping
    // phase instead of simulating 150 s that would be discarded.
    let mut frozen_exp = DynamicReconfig {
        scale: TpcwScale::Mid,
        freeze: true,
    }
    .experiment(&knobs);
    frozen_exp.phases.truncate(2);
    let frozen = run_exp(frozen_exp);

    // LeastConnections on browsing (the paper's reference: 37 tps).
    let lc = TpcwSteadyState {
        scale: TpcwScale::Mid,
        mix: "browsing",
    }
    .run(&ScenarioKnobs {
        measured_secs: phase,
        ..paper_knobs(PolicySpec::LeastConnections, 512, "tpcw", "browsing")
    })
    .expect("scenario runs to its End event");

    println!("== Figure 6: dynamic reconfiguration (shopping -> browsing -> shopping) ==");
    println!("paper: shopping plateau 76 tps, browsing plateau 45 tps,");
    println!("       static-config browsing 19 tps < LeastConnections browsing 37 tps");
    println!("\n  time series (30 s buckets, tps):");
    let ts = dynamic.timeseries(30);
    let mut csv = String::from("t_s,tps\n");
    for (t, tps) in &ts {
        let bar = "#".repeat((tps / 4.0).round() as usize);
        println!("  {t:>6.0}s {tps:>7.1} {bar}");
        csv.push_str(&format!("{t},{tps}\n"));
    }
    save_csv("fig06_dynamic_timeseries", &csv);

    // Plateau summary: mean tps in the middle of each phase.
    let w = warmup as f64;
    let p = phase as f64;
    let shop1 = dynamic.plateau(30, w + p * 0.3, w + p);
    let browse = dynamic.plateau(30, w + p * 1.3, w + 2.0 * p);
    let shop2 = dynamic.plateau(30, w + p * 2.3, w + 3.0 * p);
    let frozen_browse = frozen.plateau(30, w + p * 1.3, w + 2.0 * p);

    println!("\n  plateaus (ours):");
    println!(
        "    shopping #1 {shop1:.1} tps, browsing {browse:.1} tps, shopping #2 {shop2:.1} tps"
    );
    println!(
        "    static-config browsing {frozen_browse:.1} tps, LeastConnections browsing {:.1} tps",
        lc.tps
    );
    println!(
        "  shape checks: dynamic adapts (browsing within phases), static < LC: {}",
        frozen_browse < lc.tps
    );
    let mut csv = String::from("metric,value\n");
    for (k, v) in [
        ("shopping1", shop1),
        ("browsing", browse),
        ("shopping2", shop2),
        ("static_browsing", frozen_browse),
        ("lc_browsing", lc.tps),
    ] {
        csv.push_str(&format!("{k},{v}\n"));
    }
    save_csv("fig06_plateaus", &csv);
}
