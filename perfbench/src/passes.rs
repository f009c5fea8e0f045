//! The benchmark's three passes over one workload, plus set-up timing.
//!
//! * [`untraced`] runs `Scenario::run` and gives the end-to-end numbers.
//! * [`profiled`] is the benchmark's own copy of the sequential event loop:
//!   it builds the cluster exactly as `experiment::run` does, then times
//!   every `EventQueue::pop` and every `ClusterState::handle` call, filing
//!   the handle time under the layer the event's handler delegates to.
//! * [`traced`] runs with `ScenarioKnobs::with_trace` and leaves a JSONL
//!   trace for [`crate::reduce`].
//!
//! All three must produce the same [`Fingerprint`].

use std::time::{Duration, Instant};

use tashkent_cluster::{run, ClusterState, Ev, Experiment, FaultEvent, RunError, RunResult};
use tashkent_sim::{EventQueue, SimTime};

use crate::workloads::Workload;

/// What a run computed, compared across passes and repeats. Observation
/// records (trace summary, driver stats) are deliberately left out.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    committed: u64,
    aborts: u64,
    gave_up: u64,
    updates: u64,
    /// Disk read and write KB per committed transaction, as bits: both are
    /// exact functions of the byte counters and the commit count.
    disk_kb_bits: (u64, u64),
    propagated_ws_bytes: u64,
    filtered_ws_bytes: u64,
    faults: Vec<FaultEvent>,
}

impl Fingerprint {
    /// The fingerprint of one result.
    pub fn of(r: &RunResult) -> Self {
        Fingerprint {
            committed: r.committed,
            aborts: r.aborts,
            gave_up: r.retries_exhausted,
            updates: r.updates,
            disk_kb_bits: (r.read_kb_per_txn.to_bits(), r.write_kb_per_txn.to_bits()),
            propagated_ws_bytes: r.propagated_ws_bytes,
            filtered_ws_bytes: r.filtered_ws_bytes,
            faults: r.faults.clone(),
        }
    }
}

/// Event kinds the profile files handle time under, by the layer each
/// handler delegates to.
pub const KINDS: [&str; 11] = [
    "step_txn",
    "certify_send",
    "certify_return",
    "maintenance",
    "client_arrive",
    "txn_retry",
    "txn_complete",
    "lb_tick",
    "heartbeat_tick",
    "backfill",
    "other",
];

fn kind_of(ev: &Ev) -> usize {
    match ev {
        Ev::StepTxn { .. } => 0,
        Ev::CertifySend { .. } => 1,
        Ev::CertifyReturn { .. } => 2,
        Ev::Maintenance { .. } => 3,
        Ev::ClientArrive { .. } => 4,
        Ev::TxnRetry { .. } => 5,
        Ev::TxnComplete { .. } => 6,
        Ev::LbTick => 7,
        Ev::HeartbeatTick => 8,
        Ev::BackfillChunk { .. } | Ev::BackfillDone { .. } => 9,
        _ => 10,
    }
}

/// Builds the cluster and its primed queue exactly as `experiment::run`
/// does: prime, phase switches, balancer freeze, warm-up end, run end,
/// then the injections (last, so ties resolve in favour of run control).
pub fn build(exp: Experiment) -> (ClusterState, EventQueue<Ev>) {
    let mixes = exp.phases.iter().map(|(_, m)| m.clone()).collect();
    let mut state = ClusterState::new(exp.config, exp.workload, mixes);
    let mut queue = EventQueue::new();
    state.prime(&mut queue);
    let mut t = 0u64;
    for (i, (dur, _)) in exp.phases.iter().enumerate() {
        if i > 0 {
            queue.schedule(SimTime::from_secs(t), Ev::MixSwitch { mix: i });
        }
        t += dur;
    }
    if let Some(f) = exp.freeze_at_secs {
        queue.schedule(SimTime::from_secs(f), Ev::FreezeLb);
    }
    queue.schedule(SimTime::from_secs(exp.warmup_secs), Ev::EndWarmup);
    queue.schedule(SimTime::from_secs(t), Ev::End);
    for (at, ev) in exp.injections {
        queue.schedule(at, ev);
    }
    (state, queue)
}

/// Host time of one set-up: building the experiment, then the cluster.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// `Scenario::experiment`: workload catalog, mixes, configuration.
    pub workload: Duration,
    /// `ClusterState::new`, `prime` and the run-control schedule.
    pub state: Duration,
}

/// Times one set-up of `w` and drops what it built.
pub fn setup(w: &Workload) -> Setup {
    let t0 = Instant::now();
    let exp = std::hint::black_box(w.experiment());
    let t1 = Instant::now();
    let built = std::hint::black_box(build(exp));
    let t2 = Instant::now();
    drop(built);
    Setup {
        workload: t1 - t0,
        state: t2 - t1,
    }
}

/// One untraced `Scenario::run` and its host time.
pub fn untraced(w: &Workload) -> Result<(RunResult, Duration), RunError> {
    let t0 = Instant::now();
    let r = w.scenario.run(&w.knobs)?;
    Ok((r, t0.elapsed()))
}

/// Per-layer host time of the profiled pass.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// `ClusterState::handle` calls per [`KINDS`] entry.
    pub calls: [u64; KINDS.len()],
    /// Host nanoseconds inside `ClusterState::handle` per [`KINDS`] entry.
    pub ns: [u64; KINDS.len()],
    /// `EventQueue::pop` calls.
    pub pops: u64,
    /// Events scheduled over the run, priming included.
    pub pushes: u64,
    /// Host nanoseconds inside `EventQueue::pop`.
    pub pop_ns: u64,
    /// Largest number of pending events seen before a pop.
    pub peak_depth: usize,
}

/// The profiled pass: the sequential driver's loop with a timer around
/// every pop and every handle.
pub fn profiled(w: &Workload) -> Result<(RunResult, Profile), RunError> {
    let (mut state, mut queue) = build(w.experiment());
    let mut p = Profile::default();
    let mut t = Instant::now();
    while !state.ended() {
        p.peak_depth = p.peak_depth.max(queue.len());
        let popped = queue.pop();
        let t_pop = Instant::now();
        p.pop_ns += (t_pop - t).as_nanos() as u64;
        p.pops += 1;
        let Some((now, ev)) = popped else {
            return Err(RunError::QueueDrained { at: queue.now() });
        };
        let k = kind_of(&ev);
        state.handle(now, ev, &mut queue);
        t = Instant::now();
        p.ns[k] += (t - t_pop).as_nanos() as u64;
        p.calls[k] += 1;
    }
    p.pushes = u64::try_from(queue.next_seq()).expect("sequence numbers start at zero");
    Ok((state.finish_result(queue.now()), p))
}

/// Ring capacity for the traced pass: far above any benchmark run's event
/// count, so a drop means the run grew, and the benchmark fails on it.
pub const TRACE_MAX_EVENTS: usize = 50_000_000;

/// The traced pass: JSONL to `path` (no Chrome export), and its host time.
pub fn traced(w: &Workload, path: &str) -> Result<(RunResult, Duration), RunError> {
    let knobs = w.knobs.clone().with_trace(path);
    let mut exp = w.scenario.experiment(&knobs);
    exp.config.trace.chrome_path = None;
    exp.config.trace.max_events = TRACE_MAX_EVENTS;
    let t0 = Instant::now();
    let r = run(exp)?;
    Ok((r, t0.elapsed()))
}
