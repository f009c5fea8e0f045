//! Runs one workload of the benchmark and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ordering-malb-uf --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last line,
//! one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Exits non-zero when a check fails.

use std::process::ExitCode;

use perfbench::measure;
use perfbench::report::{self, Tier};
use perfbench::workloads::{Workload, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    tier: Tier,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        tier: Tier::EndToEnd,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.tier = match value.as_str() {
                    "0" => Tier::EndToEnd,
                    "1" => Tier::PerLayer,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let usage = format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        NAMES.join("|")
    );
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::new(&args.workload, args.seed) else {
        eprintln!("unknown workload {:?}\n{usage}", args.workload);
        return ExitCode::from(2);
    };
    // Tracing must stay off in the untraced and profiled passes.
    std::env::remove_var("TASHKENT_TRACE");

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let out = measure(&w, args.seconds);
    println!(
        "workload={} seed={} host_cores={cores} sim_window={}s warmup + {}s measured \
         untraced_passes={} setups={}",
        w.name,
        args.seed,
        w.knobs.warmup_secs,
        w.knobs.measured_secs,
        out.untraced_reps,
        out.setups,
    );
    print!("{}", report::table(&out.values));
    print!("{}", report::shares(&out.values));
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    if let Some(line) = report::json(
        &out.values,
        args.tier,
        out.correct(),
        out.attempted,
        out.failed,
    ) {
        println!("{line}");
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
