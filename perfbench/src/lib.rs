//! Benchmark of the Tashkent+ simulator: host cost and modeled latency, end
//! to end and layer by layer, on three TPC-W workloads.
//!
//! One run measures one workload at one seed through three passes (see
//! [`passes`]), checks that they computed the same thing, and reports the
//! metrics of [`report::registry`].

mod passes;
mod reduce;
pub mod report;
pub mod workloads;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use passes::{Fingerprint, KINDS};
use reduce::percentile;
use tashkent_cluster::{FaultKind, RunResult};
use workloads::Workload;

/// Standalone set-ups timed before each untraced pass; `setup_s` is the
/// median of all of them. Spreading them over the run keeps a burst of
/// load on the host from landing on every sample.
const SETUP_BATCH: usize = 51;

/// Untraced passes run at least this often, so the same seed is always run
/// twice and compared.
const MIN_UNTRACED_REPS: usize = 2;

/// What one benchmark run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by registry name.
    pub values: BTreeMap<String, f64>,
    /// Simulation passes attempted (untraced repeats, profiled, traced).
    pub attempted: u64,
    /// Passes that failed to run or disagreed with the first untraced pass.
    pub failed: u64,
    /// Every correctness problem found; empty when the run is correct.
    pub problems: Vec<String>,
    /// Untraced passes run.
    pub untraced_reps: usize,
    /// Set-ups timed.
    pub setups: usize,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Counts one pass, comparing its fingerprint with the reference.
    fn check(&mut self, pass: &str, r: &RunResult, reference: &Fingerprint) {
        self.attempted += 1;
        let fp = Fingerprint::of(r);
        if fp != *reference {
            self.failed += 1;
            self.problems.push(format!(
                "{pass} pass disagrees with the first untraced pass: {fp:?} vs {reference:?}"
            ));
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where the traced pass writes its JSONL: next to the running executable,
/// inside the build directory.
fn trace_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .unwrap_or(Path::new("."))
        .join("perfbench-trace")
}

/// Removes the trace file when dropped, whatever happened in between.
struct TraceFile(PathBuf);

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs every pass of `w`: untraced passes, each after a batch of set-ups,
/// until `seconds` of host time have gone (at least [`MIN_UNTRACED_REPS`]),
/// then one profiled pass and one traced pass writing its JSONL under
/// [`trace_dir`].
pub fn measure(w: &Workload, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    match measure_into(w, seconds, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.problems.push(e);
        }
    }
    out
}

fn measure_into(w: &Workload, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let secs = |d: Duration| d.as_secs_f64();

    // Untraced passes: the end-to-end host numbers, and the same-seed check.
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    setups.extend((0..SETUP_BATCH).map(|_| passes::setup(w)));
    let (reference, wall) = passes::untraced(w).map_err(|e| format!("untraced pass: {e:?}"))?;
    out.attempted += 1;
    walls.push(secs(wall));
    // Before any repeat, so the peak is that of one set-up plus one run.
    out.set("peak_rss_mb", peak_rss_mb()?);
    let fp = Fingerprint::of(&reference);
    while walls.len() < MIN_UNTRACED_REPS || secs(start.elapsed()) < seconds {
        setups.extend((0..SETUP_BATCH).map(|_| passes::setup(w)));
        match passes::untraced(w) {
            Ok((r, wall)) => {
                out.check("repeated untraced", &r, &fp);
                walls.push(secs(wall));
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problems.push(format!("untraced pass: {e:?}"));
                break;
            }
        }
    }
    out.untraced_reps = walls.len();
    out.setups = setups.len();
    out.set(
        "setup.workload_s",
        median(setups.iter().map(|s| secs(s.workload)).collect()),
    );
    out.set(
        "setup.state_s",
        median(setups.iter().map(|s| secs(s.state)).collect()),
    );
    out.set(
        "setup_s",
        median(setups.iter().map(|s| secs(s.workload + s.state)).collect()),
    );
    // Load from other tenants of a shared host only ever adds time, in
    // bursts lasting seconds, so the fastest pass is the steadiest estimate
    // of what a pass costs; the traced pass is compared with a typical one.
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let typical = median(walls);
    let r = &reference;
    if r.committed == 0 {
        out.problems.push("the workload committed nothing".into());
    }
    out.set("host.ms_per_sim_s", fastest * 1e3 / w.sim_secs() as f64);
    out.set(
        "host.us_per_commit",
        fastest * 1e6 / r.committed.max(1) as f64,
    );
    out.set("tps", r.tps);
    record_model(out, r);

    // Profiled pass: per-layer host time.
    let (pr, profile) = passes::profiled(w).map_err(|e| format!("profiled pass: {e:?}"))?;
    out.check("profiled", &pr, &fp);
    for (i, kind) in KINDS.iter().enumerate() {
        out.set(
            &format!("cluster.handle.{kind}.calls"),
            profile.calls[i] as f64,
        );
        out.set(&format!("cluster.handle.{kind}.ns"), profile.ns[i] as f64);
    }
    out.set("sim.queue.pops", profile.pops as f64);
    out.set("sim.queue.pushes", profile.pushes as f64);
    out.set("sim.queue.pop_ns", profile.pop_ns as f64);
    out.set("sim.queue.peak_depth", profile.peak_depth as f64);

    // Traced pass: the per-transaction split of simulated time.
    let trace_dir = trace_dir();
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("creating {trace_dir:?}: {e}"))?;
    let file = TraceFile(trace_dir.join(format!(
        "{}-{}-{}.jsonl",
        w.name,
        w.knobs.seed,
        std::process::id()
    )));
    let path = file.0.to_str().ok_or("trace path is not UTF-8")?;
    let (tr, traced_wall) = passes::traced(w, path).map_err(|e| format!("traced pass: {e:?}"))?;
    out.check("traced", &tr, &fp);
    let reader = BufReader::new(File::open(&file.0).map_err(|e| format!("opening trace: {e}"))?);
    let window_start_us = tr.window_start.as_micros();
    let mut split = reduce::reduce(reader, window_start_us)?;
    drop(file);
    out.set("trace.overhead_ratio", secs(traced_wall) / typical);
    out.set("trace.events", split.events as f64);
    out.set("trace.dropped", split.dropped as f64);
    if split.dropped > 0 {
        out.problems
            .push(format!("the trace ring dropped {} events", split.dropped));
    }
    if split.resp.len() as u64 != tr.committed {
        out.problems.push(format!(
            "trace holds {} window commits, the run counted {}",
            split.resp.len(),
            tr.committed
        ));
    }
    let mean = split.resp.iter().sum::<u64>() as f64 / split.resp.len().max(1) as f64 / 1e6;
    if (mean - tr.mean_response_s).abs() > 1e-9 * mean.max(1.0) {
        out.problems.push(format!(
            "trace mean response {mean} s differs from the run's {} s",
            tr.mean_response_s
        ));
    }
    let p50 = percentile(&mut split.resp, 50.0) as f64 / 1e3;
    let p99 = percentile(&mut split.resp, 99.0) as f64 / 1e6;
    // The run's p99 is the upper edge of its histogram bucket.
    let bucket = w.experiment().config.resp_hist_bucket_s;
    if !(p99 <= tr.p99_response_s + 1e-9 && p99 > tr.p99_response_s - bucket - 1e-9) {
        out.problems.push(format!(
            "trace p99 {p99} s lies outside the run's p99 bucket ending at {} s",
            tr.p99_response_s
        ));
    }
    out.set("resp_mean_s", r.mean_response_s);
    out.set("resp_p99_s", p99);
    out.set("txn.resp_ms.p50", p50);
    for (name, samples) in [
        ("admit", &mut split.admit),
        ("exec", &mut split.exec),
        ("cert_rtt", &mut split.cert_rtt),
        ("apply", &mut split.apply),
    ] {
        for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
            let ms = percentile(samples, p) as f64 / 1e3;
            out.set(&format!("txn.{name}_ms.{tag}"), ms);
        }
    }
    Ok(())
}

/// The modeled cluster's per-layer numbers, straight from the result.
fn record_model(out: &mut Outcome, r: &RunResult) {
    const MB: f64 = (1u64 << 20) as f64;
    let failures = r.aborts + r.retries_exhausted;
    out.set(
        "model.fail_ratio",
        failures as f64 / (r.committed + failures).max(1) as f64,
    );
    out.set("model.cpu_util", r.cpu_util);
    out.set("model.disk_util", r.disk_util);
    out.set("model.read_kb_per_txn", r.read_kb_per_txn);
    out.set("model.write_kb_per_txn", r.write_kb_per_txn);
    out.set("model.propagated_ws_mb", r.propagated_ws_bytes as f64 / MB);
    out.set("model.filtered_ws_mb", r.filtered_ws_bytes as f64 / MB);
    out.set("model.lb_moves", r.lb.moves as f64);
    out.set("model.migration_mb", r.migration_bytes as f64 / MB);
    out.set("model.redo_kb", r.redo_bytes as f64 / 1024.0);
    let detected: Vec<f64> = r
        .faults
        .iter()
        .filter(|f| matches!(f.kind, FaultKind::ReplicaSuspected(_)))
        .map(|f| f.detection_latency_us() as f64 / 1e3)
        .collect();
    let mean = if detected.is_empty() {
        0.0
    } else {
        detected.iter().sum::<f64>() / detected.len() as f64
    };
    out.set("model.detect_latency_ms", mean);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// All three passes on a shrunken workload agree and yield every metric.
    #[test]
    fn smoke_run_of_all_three_passes() {
        let w = Workload::smoke("partial-faults", 7).unwrap();
        let out = measure(&w, 0.0);
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!((out.attempted, out.failed), (4, 0));
        assert_eq!(out.untraced_reps, MIN_UNTRACED_REPS);
        for m in report::registry() {
            let v = out.values.get(&m.name).copied();
            assert!(v.is_some_and(f64::is_finite), "{} = {v:?}", m.name);
        }
        assert!(out.values["tps"] > 0.0);
        assert!(out.values["cluster.handle.step_txn.calls"] > 0.0);
        assert_eq!(out.values["trace.dropped"], 0.0);
    }

    #[test]
    fn unknown_workload_is_rejected() {
        assert!(Workload::new("no-such-workload", 1).is_none());
        for name in workloads::NAMES {
            assert_eq!(Workload::new(name, 1).unwrap().name, name);
        }
    }
}
