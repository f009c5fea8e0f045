//! Figure 10: the full TPC-W configuration grid (§5.6).
//!
//! 3 database sizes × 3 mixes × 3 memory sizes × {LeastConnections,
//! MALB-SC, MALB-SC+UF} = 81 experiments. The paper's 9 charts show: MALB
//! and filtering pay off when per-group working sets fit memory but the
//! combined sum does not; with memory too small (LargeDB at 256 MB) or too
//! large (SmallDB at 1 GB) the methods converge — and MALB never loses to
//! LeastConnections.
//!
//! Set `TASHKENT_BENCH_WINDOW=quick` to shorten the sweep.

use tashkent_bench::{paper_knobs, run_exps, save_csv, ScenarioKnobs};
use tashkent_cluster::{PolicySpec, Scenario, TpcwSteadyState};
use tashkent_workloads::tpcw::TpcwScale;

/// Paper values: [db][mix][ram][policy] with policies LC / MALB-SC / +UF.
const PAPER: [[[[f64; 3]; 3]; 3]; 3] = [
    // LargeDB: ordering, shopping, browsing × (256, 512, 1024).
    [
        [[17., 19., 21.], [24., 42., 56.], [39., 110., 147.]],
        [[10., 15., 15.], [22., 35., 36.], [51., 60., 61.]],
        [[5., 7., 7.], [16., 19., 19.], [27., 27., 27.]],
    ],
    // MidDB.
    [
        [[20., 29., 30.], [37., 76., 113.], [114., 169., 194.]],
        [[16., 26., 26.], [54., 76., 79.], [93., 93., 93.]],
        [[11., 19., 19.], [37., 45., 46.], [51., 51., 51.]],
    ],
    // SmallDB.
    [
        [[101., 130., 156.], [212., 211., 217.], [247., 257., 257.]],
        [[267., 278., 311.], [339., 340., 342.], [341., 343., 343.]],
        [[295., 300., 300.], [299., 299., 299.], [295., 305., 305.]],
    ],
];

fn main() {
    let scales = [TpcwScale::Large, TpcwScale::Mid, TpcwScale::Small];
    let mixes = ["ordering", "shopping", "browsing"];
    let rams = [256u64, 512, 1024];
    let policies = [
        PolicySpec::LeastConnections,
        PolicySpec::malb_sc(),
        PolicySpec::malb_sc_uf(),
    ];

    // The grid is 81 runs; trim each a little to keep the sweep tractable.
    let mut exps = Vec::new();
    for scale in &scales {
        for mix_name in &mixes {
            for ram in &rams {
                for policy in &policies {
                    let knobs = paper_knobs(*policy, *ram, "tpcw", mix_name);
                    let scenario = TpcwSteadyState {
                        scale: *scale,
                        mix: mix_name,
                    };
                    exps.push(scenario.experiment(&ScenarioKnobs {
                        warmup_secs: knobs.warmup_secs.min(60),
                        measured_secs: knobs.measured_secs.min(120),
                        ..knobs
                    }));
                }
            }
        }
    }
    let mut results = run_exps(exps).into_iter();

    let mut csv = String::from("db,mix,ram_mb,policy,paper_tps,measured_tps\n");
    let mut wins = 0usize;
    let mut cells = 0usize;
    for (di, scale) in scales.iter().enumerate() {
        for (mi, mix_name) in mixes.iter().enumerate() {
            println!("\n== Figure 10: {}-{} ==", scale.label(), mix_name);
            println!(
                "{:<6} {:>22} {:>22} {:>22}",
                "RAM", "LeastConnections", "MALB-SC", "MALB-SC+UF"
            );
            for (ri, ram) in rams.iter().enumerate() {
                let mut line = format!("{:<6}", format!("{ram}MB"));
                let mut cell = [0.0f64; 3];
                for (pi, policy) in policies.iter().enumerate() {
                    let r = results.next().expect("one run per grid cell");
                    cell[pi] = r.tps;
                    let paper = PAPER[di][mi][ri][pi];
                    line.push_str(&format!(" {:>10.1} (p {:>5.0})", r.tps, paper));
                    csv.push_str(&format!(
                        "{},{},{},{},{},{:.2}\n",
                        scale.label(),
                        mix_name,
                        ram,
                        policy.label(),
                        paper,
                        r.tps
                    ));
                }
                // Shape check: MALB never loses to LC (paper's summary).
                cells += 1;
                if cell[1] >= 0.9 * cell[0] {
                    wins += 1;
                }
                println!("{line}");
            }
        }
    }
    println!(
        "\nMALB-SC ≥ ~LeastConnections in {wins}/{cells} cells (paper: all; \
         \"MALB-SC still generates configurations whose performance is at \
         least as high as LeastConnections\")"
    );
    save_csv("fig10_grid", &csv);
}
