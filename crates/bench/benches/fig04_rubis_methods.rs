//! The paper's RUBiS configuration: 2.2 GB database, 16 replicas, bidding
//! mix. Prints every figure and table the paper measures on it:
//!
//! - Figure 4: at 512 MB, Single 3 / LeastConnections 31 / LARD 34 /
//!   MALB-SC 43 tps.
//! - Table 3: each method's disk I/O per transaction.
//! - Table 4: MALB-SC's groupings, with AboutMe dominating the allocation.
//! - Figure 8 (§5.6): LeastConnections / MALB-SC / MALB-SC+UF at 256, 512
//!   and 1024 MB: 18/23/24, 31/43/44 and 42/44/44 tps. MALB helps below
//!   1 GB; at 1 GB the working sets fit everywhere and the methods
//!   converge.
//!
//! The figures share their runs: each of the eleven distinct
//! configurations runs once, in one sweep through the `rubis-auction`
//! scenario.

use tashkent_bench::{
    io_rows, paper_knobs, print_groupings, print_table, run_exps, save_csv, standalone_knobs, Row,
};
use tashkent_cluster::{PolicySpec, RubisAuctionMix, Scenario};

fn main() {
    let scenario = RubisAuctionMix { mix: "bidding" };
    let lc = PolicySpec::LeastConnections;
    let lard = PolicySpec::Lard;
    let sc = PolicySpec::malb_sc();
    let sc_uf = PolicySpec::malb_sc_uf();
    let fig8: [(u64, [f64; 3]); 3] = [
        (256, [18.0, 23.0, 24.0]),
        (512, [31.0, 43.0, 44.0]),
        (1024, [42.0, 44.0, 44.0]),
    ];

    // Every replicated configuration once, as (policy, RAM in MB): Figure
    // 4's, then Figure 8's grid less the two runs Figure 4 already has.
    let configs = [
        (lc, 512),
        (lard, 512),
        (sc, 512),
        (lc, 256),
        (sc, 256),
        (sc_uf, 256),
        (sc_uf, 512),
        (lc, 1024),
        (sc, 1024),
        (sc_uf, 1024),
    ];
    let mut exps = vec![scenario.experiment(&standalone_knobs(lc, 512, "rubis", "bidding"))];
    exps.extend(
        configs.iter().map(|&(policy, ram)| {
            scenario.experiment(&paper_knobs(policy, ram, "rubis", "bidding"))
        }),
    );
    let mut results = run_exps(exps);
    let single = results.remove(0);
    let run = |policy, ram| {
        let i = configs.iter().position(|&c| c == (policy, ram));
        &results[i.expect("every configuration is listed once")]
    };

    let mut rows = vec![Row::new("Single", 3.0, single.tps)];
    rows.extend(
        [(lc, 31.0), (lard, 34.0), (sc, 43.0)]
            .map(|(policy, paper)| Row::new(policy.label(), paper, run(policy, 512).tps)),
    );
    let csv = print_table(
        "Figure 4: RUBiS methods (2.2GB DB, 512MB, 16 replicas, bidding)",
        "tps",
        &rows,
    );
    save_csv("fig04_rubis_methods", &csv);

    let table3 = [
        (lc, (11.0, 162.0)),
        (lard, (11.0, 149.0)),
        (sc, (11.0, 111.0)),
    ];
    let csv = print_table(
        "Table 3: RUBiS average disk I/O per transaction",
        "KB",
        &io_rows(table3.map(|(policy, paper)| (policy.label(), paper, run(policy, 512)))),
    );
    save_csv("table3_rubis_diskio", &csv);

    println!("\n== Table 4: RUBiS MALB-SC groupings ==");
    println!("paper: [AboutMe]x9 [PutBid,StoreComment,ViewBidHistory,ViewUserInfo]x4");
    println!("       [Auth,BrowseCategories,BrowseRegions,BuyNow,PutComment,RegisterUser,SearchItemsByRegion,StoreBuyNow]x1");
    println!("       [RegisterItem,SearchItemsByCategory,StoreBid,ViewItem]x2");
    let groups = &run(sc, 512).assignments;
    let csv = print_groupings(groups);
    let aboutme_replicas = groups
        .iter()
        .rev()
        .find(|g| g.types.iter().any(|t| t == "AboutMe"))
        .map_or(0, |g| g.replicas);
    let max_replicas = groups.iter().map(|g| g.replicas).max().unwrap_or(0);
    println!(
        "  AboutMe group holds {aboutme_replicas} replicas (cluster max per group: {max_replicas}; paper: AboutMe gets the most, 9)"
    );
    save_csv("table4_rubis_groupings", &csv);

    let rows: Vec<Row> = fig8
        .iter()
        .flat_map(|&(ram, paper)| {
            [lc, sc, sc_uf]
                .into_iter()
                .zip(paper)
                .map(move |(policy, paper)| {
                    Row::new(
                        format!("{ram}MB {}", policy.label()),
                        paper,
                        run(policy, ram).tps,
                    )
                })
        })
        .collect();
    let csv = print_table(
        "Figure 8: RUBiS bidding across memory sizes (16 replicas)",
        "tps",
        &rows,
    );
    save_csv("fig08_rubis_sweep", &csv);
    // Shape check: the MALB advantage over LC shrinks as memory grows.
    let advantage = |ram| run(sc, ram).tps / run(lc, ram).tps.max(1e-9);
    println!(
        "  MALB/LC ratio: 256MB {:.2}x, 512MB {:.2}x, 1024MB {:.2}x (paper: 1.28, 1.39, 1.05)",
        advantage(256),
        advantage(512),
        advantage(1024)
    );
}
