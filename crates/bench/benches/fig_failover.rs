//! Failover: throughput under replica crash, log-replay recovery, and a
//! certifier leader kill (§3 recovery, §4.2.1 fault tolerance).
//!
//! Runs the `failover` scenario from the shared harness at paper scale:
//! a quarter into the measured window a slice of the cluster crashes (cold
//! caches, in-flight work dropped, clients retrying on the survivors); one
//! downtime-eighth later the victims replay the certifier log and rejoin
//! dispatch; past the midpoint the certifier leader is killed and a backup
//! takes over. The output is the Figure-6-style throughput time series with
//! the fault instants marked, plus plateau means before the crash, during
//! the outage, and after recovery — the recovery plateau should return to
//! the pre-crash level.

use tashkent_bench::{paper_knobs, run_exps, save_csv, Row};
use tashkent_cluster::{Failover, FaultKind, PolicySpec, Scenario, ScenarioKnobs};
use tashkent_workloads::tpcw::TpcwScale;

fn main() {
    let knobs: ScenarioKnobs = paper_knobs(PolicySpec::malb_sc(), 512, "tpcw", "ordering");
    let sched = Failover::schedule(&knobs);
    let scenario = Failover {
        scale: TpcwScale::Small,
        // A quarter of the cluster fails at once.
        crashes: (knobs.replicas / 4).max(1),
        kill_certifier_leader: true,
    };
    let result = run_exps(vec![scenario.experiment(&knobs)])
        .pop()
        .expect("one result per experiment");

    println!("== Failover: crash, log-replay recovery, certifier leader kill ==");
    println!(
        "cluster: {} replicas, {} crash at t={}s, recover at t={}s, leader killed at t={}s",
        knobs.replicas,
        scenario.crashes,
        sched.crash_at_secs,
        sched.recover_at_secs,
        sched.leader_kill_at_secs
    );

    println!("\n  fault log (as applied):");
    for f in &result.faults {
        let label = match f.kind {
            FaultKind::ReplicaCrash(r) => format!("replica {r} crashed"),
            FaultKind::ReplicaRecover(r) => format!("replica {r} recovered (log replayed)"),
            FaultKind::CertifierFailover { group, leader } => {
                format!("certifier group {group} failed over to member {leader}")
            }
            FaultKind::Rereplicate { group, to, bytes } => {
                format!("relation group {group} re-replicated onto replica {to} ({bytes} B)")
            }
            FaultKind::Migrate {
                group,
                from,
                to,
                bytes,
            } => {
                format!("relation group {group} migrated {from} -> {to} ({bytes} B)")
            }
            FaultKind::ShrinkHolder { group, from } => {
                format!("relation group {group} shed surplus holder {from}")
            }
            FaultKind::ReplicaSuspected(r) => format!("replica {r} suspected by the detector"),
            FaultKind::ReplicaDead(r) => format!("replica {r} declared dead by the detector"),
            FaultKind::ReplicaTrusted(r) => format!("replica {r} trusted again"),
            FaultKind::Partition { a, b } => format!("link {a}<->{b} partitioned"),
            FaultKind::PartitionHealed { a, b } => format!("link {a}<->{b} healed"),
        };
        println!("  {:>6.0}s {label}", f.at.as_secs_f64());
    }

    println!("\n  time series (10 s buckets, tps):");
    let ts = result.timeseries(10);
    let mut csv = String::from("t_s,tps\n");
    for (t, tps) in &ts {
        let mark = if (*t..*t + 10.0).contains(&(sched.crash_at_secs as f64)) {
            "  <- crash"
        } else if (*t..*t + 10.0).contains(&(sched.recover_at_secs as f64)) {
            "  <- recover"
        } else if (*t..*t + 10.0).contains(&(sched.leader_kill_at_secs as f64)) {
            "  <- leader kill"
        } else {
            ""
        };
        let bar = "#".repeat((tps / 4.0).round() as usize);
        println!("  {t:>6.0}s {tps:>7.1} {bar}{mark}");
        csv.push_str(&format!("{t},{tps}\n"));
    }
    save_csv("fig_failover_timeseries", &csv);

    // Plateau means: steady state before the crash, the outage window, and
    // the post-recovery tail (leaving a settle bucket after recovery).
    let warmup = knobs.warmup_secs as f64;
    let end = (knobs.warmup_secs + knobs.measured_secs) as f64;
    let pre = result.plateau(10, warmup, sched.crash_at_secs as f64);
    let outage = result.plateau(10, sched.crash_at_secs as f64, sched.recover_at_secs as f64);
    let post_from = sched.recover_at_secs as f64 + 10.0;
    let post = result.plateau(10, post_from, end);
    let rows = [
        Row {
            label: "pre-crash steady state".into(),
            paper: 0.0,
            measured: pre,
        },
        Row {
            label: "outage plateau".into(),
            paper: 0.0,
            measured: outage,
        },
        Row {
            label: "post-recovery plateau".into(),
            paper: 0.0,
            measured: post,
        },
    ];
    println!("\n  plateaus (tps):");
    let mut csv = String::from("plateau,tps\n");
    for r in &rows {
        println!("    {:<24} {:>7.1}", r.label, r.measured);
        csv.push_str(&format!("{},{}\n", r.label, r.measured));
    }
    save_csv("fig_failover_plateaus", &csv);
    // Only judge the recovery shape when the tail holds a full bucket
    // (smoke windows end before one fits).
    if post_from + 10.0 <= end {
        println!(
            "  shape check: post-recovery within 10% of pre-crash: {}",
            post >= 0.9 * pre
        );
    } else {
        println!("  (window too short for a post-recovery plateau — smoke run; use a larger TASHKENT_BENCH_WINDOW)");
    }
}
