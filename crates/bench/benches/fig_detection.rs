//! Detection: suspicion latency and false-positive cost vs the heartbeat
//! period (no fault oracle).
//!
//! Runs the `detection` scenario at paper scale across a heartbeat-period
//! sweep, one run per period in one sweep. Each run injects a transient control-link partition (healed
//! before the dead threshold — the false-suspicion case) and a real crash
//! (walked through *Suspected* to *Dead* on missed heartbeats, then
//! recovered via checkpoint-lag redo replay). For each period the figure
//! reports the suspect and dead detection latencies for the real crash,
//! the spurious-suspicion count (replicas suspected that never crashed),
//! the redo window replayed at recovery, and committed throughput — the
//! trade-off the period knob buys: shorter periods detect faster but pay
//! more heartbeat traffic and suspect innocent replicas sooner.

use tashkent_bench::{paper_knobs, run_exps, save_csv, Row};
use tashkent_cluster::{Detection, FaultKind, PolicySpec, Scenario, ScenarioKnobs};

fn main() {
    let periods_us: [u64; 4] = [200_000, 500_000, 1_000_000, 2_000_000];
    let base: ScenarioKnobs = paper_knobs(PolicySpec::malb_sc(), 512, "tpcw", "ordering");
    let sched = Detection::schedule(&base);
    let cv = Detection::crash_victim();
    let pv = Detection::partition_victim(base.replicas);

    println!("== Detection: suspicion latency vs heartbeat period ==");
    println!(
        "cluster: {} replicas; link to replica {pv} partitioned at t={}s (heals at {} ms), \
         replica {cv} crashes at t={}s, recovers at t={}s",
        base.replicas,
        sched.partition_at_secs,
        sched.heal_at_ms,
        sched.crash_at_secs,
        sched.recover_at_secs
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut csv = String::from(
        "heartbeat_ms,suspect_latency_ms,dead_latency_ms,spurious_suspects,redo_kb,tps\n",
    );
    println!("\n  period    suspect      dead  spurious     redo      tps");
    let exps = periods_us
        .iter()
        .map(|&period| Detection::default().experiment(&base.clone().with_heartbeat(Some(period))))
        .collect();
    for (period, r) in periods_us.into_iter().zip(run_exps(exps)) {
        let latency_ms = |kind: FaultKind| {
            r.faults
                .iter()
                .find(|f| f.kind == kind)
                .map(|f| f.detection_latency_us() as f64 / 1_000.0)
        };
        // Latency to suspect / declare dead the genuinely crashed replica,
        // measured from the crash instant itself.
        let suspect = latency_ms(FaultKind::ReplicaSuspected(cv)).unwrap_or(f64::NAN);
        let dead = latency_ms(FaultKind::ReplicaDead(cv)).unwrap_or(f64::NAN);
        // Suspicions of replicas that never crashed (the partition victim,
        // plus anything load alone fooled the detector about).
        let spurious = r
            .faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::ReplicaSuspected(s) if s != cv))
            .count();
        let redo_kb = r.redo_bytes as f64 / 1024.0;
        println!(
            "  {:>4} ms {:>7.0} ms {:>6.0} ms  {:>8}  {:>5.0} KB  {:>7.1}",
            period / 1_000,
            suspect,
            dead,
            spurious,
            redo_kb,
            r.tps,
        );
        csv.push_str(&format!(
            "{},{suspect},{dead},{spurious},{redo_kb},{}\n",
            period / 1_000,
            r.tps
        ));
        rows.push(Row {
            label: format!("suspect latency @ {} ms heartbeat", period / 1_000),
            paper: 0.0,
            measured: suspect,
        });
    }
    save_csv("fig_detection", &csv);

    println!("\n  shape checks:");
    let first = rows.first().expect("sweep ran");
    let last = rows.last().expect("sweep ran");
    println!(
        "    latency grows with the period: {}",
        last.measured > first.measured
    );
    println!(
        "    every latency is bounded by the dead threshold's 5 periods: {}",
        rows.iter()
            .zip(periods_us)
            .all(|(row, p)| row.measured <= (5 * p / 1_000) as f64 + 1.0)
    );
}
