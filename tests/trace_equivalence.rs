//! Trace determinism: with tracing enabled, the JSONL artifact must be
//! byte-identical across two runs of the same seed, one driven by `run` and
//! one by `run_sweep`, and tracing must not change the result it observes.
//!
//! This is a strictly stronger check than the result fingerprints in
//! `driver_equivalence`: it pins not just the outcome of every transaction
//! but the full interleaving of lifecycle events — arrivals, dispatches,
//! execution steps, certification decisions, completions, faults,
//! utilization samples — at their exact simulated timestamps. The second
//! run of each pair goes through `run_sweep`, on another thread with fresh
//! hash seeds, so an emission order that leaked hash-map iteration order
//! shows up as a byte diff here.

use std::path::PathBuf;

use tashkent::cluster::{
    run, run_scenario, run_sweep, scenario, Experiment, RunResult, ScenarioKnobs, TraceConfig,
};

/// A unique temp path per (test, label) so concurrent test binaries and
/// threads never collide.
fn tmp(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tashkent-trace-{}-{label}.jsonl",
        std::process::id()
    ))
}

/// The registered scenario's experiment at `knobs`, traced to `label`'s
/// temp path when a label is given.
fn experiment(name: &str, knobs: &ScenarioKnobs, label: Option<&str>) -> Experiment {
    let knobs = match label {
        Some(label) => knobs
            .clone()
            .with_trace(tmp(label).to_str().expect("temp path is valid UTF-8")),
        None => knobs.clone(),
    };
    scenario(name)
        .unwrap_or_else(|| panic!("no scenario named {name:?}"))
        .experiment(&knobs)
}

/// Reads back and removes the artifacts a traced run wrote to `label`'s
/// temp path, returning the raw JSONL bytes.
fn take_jsonl(result: &RunResult, label: &str) -> Vec<u8> {
    let summary = result
        .trace_summary
        .as_ref()
        .expect("tracing was enabled, so the result carries a summary");
    assert_eq!(summary.dropped, 0, "smoke-scale runs fit the ring buffer");
    assert!(summary.recorded > 0, "a traced run records events");
    let path = tmp(label);
    let bytes = std::fs::read(&path).expect("trace file was written");
    let chrome = path.with_extension("jsonl.chrome.json");
    assert!(chrome.exists(), "Chrome export written alongside JSONL");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&chrome);
    bytes
}

/// Runs `scenario` traced twice at `knobs` — once serially, once through
/// `run_sweep` — and asserts the two JSONL artifacts are byte-equal.
fn assert_traces_byte_equal(scenario: &str, knobs: ScenarioKnobs) {
    let seed = knobs.seed;
    let (first, second) = (
        format!("{scenario}-{seed}-a"),
        format!("{scenario}-{seed}-b"),
    );
    let a = run(experiment(scenario, &knobs, Some(&first))).expect("traced run completes");
    let b = run_sweep(vec![experiment(scenario, &knobs, Some(&second))])
        .pop()
        .expect("one result")
        .expect("traced run completes");
    let (a, b) = (take_jsonl(&a, &first), take_jsonl(&b, &second));
    assert!(a.ends_with(b"\n"), "JSONL artifact is newline-terminated");
    assert!(
        a == b,
        "trace diverged on {scenario} seed {seed}: {} vs {} bytes, first differing line {}",
        a.len(),
        b.len(),
        first_diff_line(&a, &b),
    );
}

/// 1-based line number of the first differing JSONL line (diagnostics).
fn first_diff_line(a: &[u8], b: &[u8]) -> usize {
    let la = a.split(|&c| c == b'\n');
    let lb = b.split(|&c| c == b'\n');
    la.zip(lb).take_while(|(x, y)| x == y).count() + 1
}

#[test]
fn failover_traces_are_byte_equal_across_drivers_and_seeds() {
    // Replica crash + recovery + certifier leader kill: the trace carries
    // fault instants, gave-up clients, and retry arrivals.
    for seed in [42, 7] {
        assert_traces_byte_equal("failover", ScenarioKnobs::smoke().with_seed(seed));
    }
}

#[test]
fn rebalance_traces_are_byte_equal_across_drivers_and_seeds() {
    // Partial replication with capped backfill and rebalancer ticks: the
    // trace carries backfill chunks, rebalance decisions, and migrations.
    for seed in [42, 7] {
        assert_traces_byte_equal("rebalance", ScenarioKnobs::smoke().with_seed(seed));
    }
}

#[test]
fn detection_traces_are_byte_equal_across_drivers_and_seeds() {
    // Suspicion-based detection: heartbeat misses, suspect/unsuspect
    // verdicts, redo-replay spans, and timeout-retry arrivals all land in
    // the trace.
    for seed in [42, 7] {
        assert_traces_byte_equal("detection", ScenarioKnobs::smoke().with_seed(seed));
    }
}

#[test]
fn tracing_changes_no_result() {
    // Every emission site only records; none may feed back into the run.
    // Compared field by field through `Debug` (which prints every f64
    // exactly), so this covers the whole result — completions included —
    // except the trace summary only a traced run carries.
    for name in ["failover", "rebalance", "detection"] {
        let knobs = ScenarioKnobs::smoke();
        let label = format!("{name}-observer");
        let mut traced = run(experiment(name, &knobs, Some(&label))).expect("traced run completes");
        take_jsonl(&traced, &label);
        traced.trace_summary = None;
        let untraced = run(experiment(name, &knobs, None)).expect("untraced run completes");
        assert!(
            untraced.trace_summary.is_none(),
            "tracing is off by default"
        );
        assert_eq!(
            format!("{traced:?}"),
            format!("{untraced:?}"),
            "tracing changed the result of {name}"
        );
    }
}

#[test]
fn oracle_mode_traces_carry_no_detection_kinds() {
    // With the detector off (every non-detection scenario), none of the
    // detector's trace kinds may appear: default runs stay byte-compatible
    // with the pre-detector tracer.
    let path = tmp("oracle-kinds");
    let knobs = ScenarioKnobs::smoke().with_trace(path.to_str().expect("temp path is valid UTF-8"));
    run_scenario("failover", &knobs).expect("traced oracle-mode run completes");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    for kind in [
        "\"k\":\"suspect\"",
        "\"k\":\"unsuspect\"",
        "\"k\":\"heartbeat_miss\"",
        "\"k\":\"redo_start\"",
        "\"k\":\"redo_done\"",
    ] {
        assert!(
            !text.contains(kind),
            "oracle-mode trace leaked a detector event: {kind}"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("jsonl.chrome.json"));
}

#[test]
fn untraced_runs_carry_no_summary() {
    let r = run_scenario("failover", &ScenarioKnobs::smoke()).expect("untraced run completes");
    assert!(r.trace_summary.is_none(), "tracing is off by default");
}

#[test]
fn ring_buffer_cap_is_honored_and_drops_are_accounted() {
    use tashkent::cluster::{run, Failover, Scenario};
    let path = tmp("capped");
    let mut exp = Failover::default().experiment(&ScenarioKnobs::smoke());
    exp.config.trace = TraceConfig {
        jsonl_path: Some(path.to_str().expect("temp path is valid UTF-8").to_string()),
        chrome_path: None,
        max_events: 100,
    };
    let r = run(exp).expect("capped traced run completes");
    let summary = r.trace_summary.expect("tracing enabled");
    assert!(summary.emitted > 100, "the run emits more than the cap");
    assert_eq!(summary.recorded, 100, "ring buffer keeps exactly the cap");
    assert_eq!(
        summary.dropped,
        summary.emitted - 100,
        "every overflow is accounted"
    );
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let trailer = text.lines().last().expect("summary trailer present");
    assert!(
        trailer.contains("\"k\":\"summary\"") && trailer.contains("\"dropped\":"),
        "trailer surfaces the drop count: {trailer}"
    );
    assert_eq!(
        text.lines().count(),
        101,
        "100 recorded events + the summary trailer"
    );
    let _ = std::fs::remove_file(&path);
}
