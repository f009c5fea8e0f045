//! Working-set estimation walkthrough: the exact §2.2/§4.2.2 pipeline.
//!
//! For every TPC-W transaction type this prints the `EXPLAIN` output the
//! load balancer sees, the relation sizes it reads from the catalog, and
//! the resulting working-set estimates under the three MALB modes —
//! then packs the types into groups for a 512 MB replica.
//!
//! ```sh
//! cargo run --release --example estimate_working_sets
//! ```

use tashkent::core::{pack_groups, EstimationMode, WorkingSetEstimator};
use tashkent::storage::PAGE_SIZE;
use tashkent::workloads::tpcw::{self, TpcwScale};

fn main() {
    let workload = tpcw::workload(TpcwScale::Mid);
    let estimator = WorkingSetEstimator::new(&workload.catalog);
    let mb = |pages: u64| pages * PAGE_SIZE / (1 << 20);

    println!(
        "TPC-W MidDB: {} relations, {} total MB\n",
        workload.catalog.len(),
        mb(workload.catalog.total_pages())
    );
    println!("{:<12} {:>8} {:>8}  explain", "type", "SC MB", "SCAP MB");

    let mut sets = Vec::new();
    for t in &workload.types {
        let explain = workload.explain(t.id);
        let ws = estimator.estimate(t.id, &explain);
        println!(
            "{:<12} {:>8} {:>8}  {}",
            t.name,
            mb(ws.pages_for(EstimationMode::SizeContent, estimator.pages())),
            mb(ws.pages_for(EstimationMode::SizeContentAccessPattern, estimator.pages())),
            explain
                .referenced()
                .map(|rel| workload.catalog.get(rel).name.as_str())
                .collect::<Vec<_>>()
                .join(","),
        );
        sets.push(ws);
    }

    // Pack for a 512 MB replica with the paper's 70 MB overhead.
    let capacity = (512 - 70) * (1 << 20) / PAGE_SIZE;
    println!("\nbin packing at {} MB capacity:", mb(capacity));
    for mode in [
        EstimationMode::Size,
        EstimationMode::SizeContent,
        EstimationMode::SizeContentAccessPattern,
    ] {
        let groups = pack_groups(&sets, estimator.pages(), mode, capacity);
        println!("\n  {mode:?}: {} groups", groups.len());
        for g in &groups {
            let names: Vec<&str> = g.types.iter().map(|t| workload.type_name(*t)).collect();
            println!(
                "    [{}] {} MB{}",
                names.join(", "),
                mb(g.estimate_pages),
                if g.overflow { " (overflow)" } else { "" }
            );
        }
    }
}
