//! Partial replication walkthrough through the shared scenario harness.
//!
//! Runs the `partial-replication` scenario at smoke scale: each relation
//! group (the relation set one transaction type touches) lives on only
//! `min_copies` holder replicas, dispatch routes transactions only to
//! holders, and the certifier ships writeset pages only to holders —
//! non-holders receive bare version ticks. Mid-run a replica crashes; every
//! group it held drops below the durability constraint and is immediately
//! re-replicated onto a survivor via certifier-log backfill. The run prints
//! the placement map, the fault log, and the propagation bytes saved
//! against the full-replication (`min_copies = n`) baseline.
//!
//! ```sh
//! cargo run --release --example partial_replication
//! ```

use tashkent::cluster::{ClusterState, FaultKind, PartialReplication, Scenario, ScenarioKnobs};

fn main() {
    let knobs = ScenarioKnobs {
        replicas: 4,
        clients_per_replica: 4,
        measured_secs: 40,
        ..ScenarioKnobs::smoke()
    };
    let scenario = PartialReplication::default();
    let min_copies = scenario.effective_min_copies(&knobs);
    println!(
        "partial replication: {} replicas, min_copies = {min_copies}",
        knobs.replicas
    );

    // Peek at the placement the planner computes before running: build the
    // cluster the scenario describes and print group → holders.
    let exp = scenario.experiment(&knobs);
    let state = ClusterState::new(exp.config, exp.workload, vec![exp.phases[0].1.clone()]);
    let p = state.placement();
    println!("\nplacement map ({} relation groups):", p.group_count());
    for (g, group) in p.groups().iter().enumerate() {
        let types: Vec<String> = group
            .types
            .iter()
            .map(|t| state.workload.type_name(*t).to_string())
            .collect();
        println!(
            "  group {g:>2}: {:>6} pages on replicas {:?}  ({})",
            group.pages,
            p.holders(g),
            types.join(", ")
        );
    }
    for r in 0..knobs.replicas {
        println!(
            "  replica {r}: holds {:>6} pages across {} relations",
            p.held_pages(r),
            p.held_relations(r).len()
        );
    }

    // Run the scenario (crash + re-replication + recovery included).
    let result = scenario
        .run(&knobs)
        .expect("partial-replication scenario runs to its End event");
    println!("\nfault log:");
    for f in &result.faults {
        let label = match f.kind {
            FaultKind::ReplicaCrash(r) => format!("replica {r} crashed (cold cache)"),
            FaultKind::ReplicaRecover(r) => {
                format!("replica {r} replayed its held groups and rejoined")
            }
            FaultKind::CertifierFailover { group, leader } => {
                format!("certifier group {group} failed over to member {leader}")
            }
            FaultKind::Rereplicate { group, to, bytes } => format!(
                "group {group} dropped below {min_copies} live holders -> backfilled onto replica {to} ({bytes} B)"
            ),
            FaultKind::Migrate { group, from, to, bytes } => {
                format!("group {group} migrated from replica {from} to {to} ({bytes} B)")
            }
            FaultKind::ShrinkHolder { group, from } => {
                format!("group {group} shed surplus holder {from} after recovery")
            }
            FaultKind::ReplicaSuspected(r) => format!("replica {r} suspected by the detector"),
            FaultKind::ReplicaDead(r) => format!("replica {r} declared dead by the detector"),
            FaultKind::ReplicaTrusted(r) => format!("replica {r} trusted again"),
            FaultKind::Partition { a, b } => format!("link {a}<->{b} partitioned"),
            FaultKind::PartitionHealed { a, b } => format!("link {a}<->{b} healed"),
        };
        println!("  {:>5.1}s  {label}", f.at.as_secs_f64());
    }

    // Propagation traffic vs the full-replication degenerate case.
    let full = scenario
        .run(&knobs.clone().with_min_copies(Some(knobs.replicas)))
        .expect("full-replication baseline runs to its End event");
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    println!("\npropagation traffic over the measured window:");
    println!(
        "  min_copies = {min_copies}: {:>8.2} MB shipped, {:>8.2} MB withheld from non-holders",
        mb(result.propagated_ws_bytes),
        mb(result.filtered_ws_bytes)
    );
    println!(
        "  min_copies = {} (full): {:>8.2} MB shipped, {:>8.2} MB withheld",
        knobs.replicas,
        mb(full.propagated_ws_bytes),
        mb(full.filtered_ws_bytes)
    );
    println!(
        "\n{} committed, {} aborted; mean response {:.0} ms; throughput {:.1} tps",
        result.committed,
        result.aborts,
        result.mean_response_s * 1e3,
        result.tps
    );
    assert!(
        result.propagated_ws_bytes < full.propagated_ws_bytes,
        "partial replication must ship strictly fewer bytes than full"
    );
    println!("check: partial shipped strictly fewer bytes than full replication ✓");
}
