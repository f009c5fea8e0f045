//! Experiment descriptions, scenarios, the runner, and standalone
//! calibration.
//!
//! An [`Experiment`] is the raw unit of execution: a cluster configuration
//! plus workload-mix phases. A [`Scenario`] is a named, reusable recipe that
//! *builds* experiments — workload mix + cluster config + phase schedule —
//! parameterized by [`ScenarioKnobs`] so the same scenario serves paper-scale
//! figure runs, example walkthroughs, and fast smoke tests. The
//! [`registry`] lists every built-in scenario; examples, integration tests,
//! and the bench figures all pull their setups from it instead of
//! hand-rolling configuration.
//!
//! One run is one single-threaded event loop ([`World::run_to_end`]); the
//! parallelism a figure needs is across its independent experiments, which
//! [`run_sweep`] spreads over the host's cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use tashkent_sim::SimTime;
use tashkent_workloads::tpcw::TpcwScale;
use tashkent_workloads::{rubis, tpcw, Mix, Workload};

use crate::config::{ClusterConfig, PlacementSpec, PolicySpec};
use crate::metrics::RunResult;
use crate::world::{Ev, RunError, World};

pub use crate::detection::{Detection, DetectionSchedule};
pub use crate::failover::{Failover, FailoverSchedule};
pub use crate::partial::PartialReplication;
pub use crate::rebalance::Rebalance;

/// One experiment: a cluster configuration plus one or more workload-mix
/// phases (multiple phases reproduce the Figure 6 mix switches).
#[derive(Clone)]
pub struct Experiment {
    /// Cluster configuration.
    pub config: ClusterConfig,
    /// The workload.
    pub workload: Workload,
    /// Phases: `(duration in seconds, mix)`. The first phase's mix also
    /// seeds MALB's grouping.
    pub phases: Vec<(u64, Mix)>,
    /// Warm-up excluded from measurement, in seconds.
    pub warmup_secs: u64,
    /// Freeze the balancer at this offset (static-configuration baseline),
    /// if set.
    pub freeze_at_secs: Option<u64>,
    /// Fault injections (and any other extra events), scheduled verbatim at
    /// absolute simulated times when the run starts. Ties with the phase /
    /// warm-up / end events resolve in favour of the latter (injections are
    /// scheduled last).
    pub injections: Vec<(SimTime, Ev)>,
}

impl Experiment {
    /// Single-phase experiment with the paper-shaped default measurement
    /// window (90 s warm-up + 180 s measured).
    pub fn new(config: ClusterConfig, workload: Workload, mix: Mix) -> Self {
        Experiment {
            config,
            workload,
            phases: vec![(270, mix)],
            warmup_secs: 90,
            freeze_at_secs: None,
            injections: Vec::new(),
        }
    }

    /// Overrides warm-up and measured duration.
    pub fn with_window(mut self, warmup_secs: u64, measured_secs: u64) -> Self {
        self.warmup_secs = warmup_secs;
        if let Some(first) = self.phases.first_mut() {
            first.0 = warmup_secs + measured_secs;
        }
        self
    }

    /// Appends a fault injection (or any extra event) at an absolute
    /// simulated time.
    pub fn with_injection(mut self, at: SimTime, ev: Ev) -> Self {
        self.injections.push((at, ev));
        self
    }

    /// Total simulated duration.
    pub fn total_secs(&self) -> u64 {
        self.phases.iter().map(|(d, _)| d).sum()
    }
}

/// Runs an experiment to completion and returns its result.
///
/// # Errors
///
/// Returns [`RunError::QueueDrained`] when the simulation's event queue
/// empties before the scheduled `End` — a mis-built experiment (for
/// example, zero clients and no periodic events). The error carries the
/// drain time so harnesses can report it instead of crashing the process.
pub fn run(exp: Experiment) -> Result<RunResult, RunError> {
    let mixes: Vec<Mix> = exp.phases.iter().map(|(_, m)| m.clone()).collect();
    let mut world = World::new(exp.config, exp.workload, mixes);
    world.prime();
    // Phase switches.
    let mut t = 0u64;
    for (i, (dur, _)) in exp.phases.iter().enumerate() {
        if i > 0 {
            world.schedule(SimTime::from_secs(t), Ev::MixSwitch { mix: i });
        }
        t += dur;
    }
    if let Some(f) = exp.freeze_at_secs {
        world.schedule(SimTime::from_secs(f), Ev::FreezeLb);
    }
    world.schedule(SimTime::from_secs(exp.warmup_secs), Ev::EndWarmup);
    world.schedule(SimTime::from_secs(t), Ev::End);
    for (at, ev) in exp.injections {
        world.schedule(at, ev);
    }
    world.run_to_end()?;
    world.export_traces().expect("trace export failed");
    Ok(world.finish_result())
}

/// Runs independent experiments on the host's cores and returns their
/// results in input order.
///
/// Each experiment is one [`run`] on one scoped thread; the thread count is
/// `available_parallelism()`, capped at the number of experiments. A run's
/// result depends only on its experiment, never on which thread ran it or
/// what ran beside it, so the returned vector equals running the list
/// serially.
pub fn run_sweep(exps: Vec<Experiment>) -> Vec<Result<RunResult, RunError>> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(exps.len());
    let jobs: Vec<Mutex<Option<Experiment>>> =
        exps.into_iter().map(|e| Mutex::new(Some(e))).collect();
    let slots: Vec<OnceLock<Result<RunResult, RunError>>> =
        jobs.iter().map(|_| OnceLock::new()).collect();
    // The next unclaimed job. Relaxed suffices: the counter publishes no
    // data, since each job travels under its own lock.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let exp = job
                    .lock()
                    .expect("no thread panics while holding a job's lock")
                    .take()
                    .expect("each job index is claimed once");
                let _ = slots[i].set(run(exp));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every job ran"))
        .collect()
}

/// Scale and tuning knobs a [`Scenario`] combines with its own recipe.
///
/// Every knob has a sensible paper-shaped default; [`ScenarioKnobs::smoke`]
/// shrinks the cluster and window for fast deterministic tests.
#[derive(Debug, Clone)]
pub struct ScenarioKnobs {
    /// Number of replicas.
    pub replicas: usize,
    /// Closed-loop clients per replica.
    pub clients_per_replica: usize,
    /// Mean client think time, µs.
    pub think_mean_us: u64,
    /// RAM per replica, MB.
    pub ram_mb: u64,
    /// Overrides the scenario's default policy when set.
    pub policy: Option<PolicySpec>,
    /// Warm-up excluded from measurement, seconds.
    pub warmup_secs: u64,
    /// Measured window, seconds. Multi-phase scenarios split this across
    /// their phases.
    pub measured_secs: u64,
    /// RNG seed (runs are bit-reproducible per seed).
    pub seed: u64,
    /// Partial replication: holder copies per relation group. `None` keeps
    /// full replication; `Some(n)` with `n >= replicas` is the degenerate
    /// full-replication case and reproduces `None` results bit for bit.
    pub min_copies: Option<usize>,
    /// Upper bound on certifier groups. `None` keeps the paper's one
    /// group, the same as `Some(1)`.
    pub cert_groups: Option<usize>,
    /// Bandwidth cap for placement backfills (re-replication and
    /// migration), bytes per simulated second. `None` keeps the
    /// instantaneous copy (the historical behaviour); `Some(b)` stages
    /// copies through `Ev::BackfillChunk` at that rate.
    pub backfill_bytes_per_sec: Option<u64>,
    /// Trace output base path: when set (or when the `TASHKENT_TRACE`
    /// environment variable is set), the run records lifecycle spans and
    /// writes `<path>` (JSONL) plus `<path>.chrome.json` (Chrome
    /// `trace_event` format). `None` (the default) keeps tracing off.
    pub trace: Option<String>,
    /// Heartbeat failure detection period, µs. `None` keeps the omniscient
    /// oracle fault model (crash events notify the balancer directly);
    /// `Some(p)` runs the suspicion state machine off heartbeat rounds
    /// every `p` µs.
    pub heartbeat_period_us: Option<u64>,
    /// Checkpoint lag `k`: crashed replicas recover at `applied − k` and
    /// replay the redo window from the certifier log. `None` keeps the
    /// historical exact-prefix recovery (`k = 0`).
    pub checkpoint_lag: Option<u64>,
    /// Per-request client timeout, µs. `None` keeps clients waiting
    /// indefinitely (the historical behaviour); `Some(t)` abandons and
    /// retries a request `t` µs after submission, with capped exponential
    /// backoff.
    pub client_timeout_us: Option<u64>,
}

impl Default for ScenarioKnobs {
    fn default() -> Self {
        ScenarioKnobs {
            replicas: 16,
            clients_per_replica: 7,
            think_mean_us: 500_000,
            ram_mb: 512,
            policy: None,
            warmup_secs: 90,
            measured_secs: 180,
            seed: 42,
            min_copies: None,
            cert_groups: None,
            backfill_bytes_per_sec: None,
            trace: None,
            heartbeat_period_us: None,
            checkpoint_lag: None,
            client_timeout_us: None,
        }
    }
}

impl ScenarioKnobs {
    /// Small cluster, short window: for tests and example walkthroughs.
    pub fn smoke() -> Self {
        ScenarioKnobs {
            replicas: 2,
            clients_per_replica: 3,
            think_mean_us: 300_000,
            warmup_secs: 5,
            measured_secs: 20,
            ..ScenarioKnobs::default()
        }
    }

    /// Sets the policy override.
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets (or clears) the partial-replication durability constraint.
    pub fn with_min_copies(mut self, min_copies: Option<usize>) -> Self {
        self.min_copies = min_copies;
        self
    }

    /// Sets (or clears) the upper bound on certifier groups.
    pub fn with_cert_groups(mut self, cert_groups: Option<usize>) -> Self {
        self.cert_groups = cert_groups;
        self
    }

    /// Sets (or clears) the placement-backfill bandwidth cap.
    pub fn with_backfill_cap(mut self, bytes_per_sec: Option<u64>) -> Self {
        self.backfill_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Enables run tracing, writing `<path>` (JSONL) and
    /// `<path>.chrome.json` (Chrome `trace_event`) when the run finishes.
    pub fn with_trace(mut self, path: impl Into<String>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Sets (or clears) the heartbeat failure-detection period.
    pub fn with_heartbeat(mut self, period_us: Option<u64>) -> Self {
        self.heartbeat_period_us = period_us;
        self
    }

    /// Sets (or clears) the checkpoint-lag recovery depth.
    pub fn with_checkpoint_lag(mut self, k: Option<u64>) -> Self {
        self.checkpoint_lag = k;
        self
    }

    /// Sets (or clears) the per-request client timeout.
    pub fn with_client_timeout(mut self, timeout_us: Option<u64>) -> Self {
        self.client_timeout_us = timeout_us;
        self
    }

    /// The cluster configuration these knobs describe, under `default`
    /// policy when no override is set.
    pub fn config(&self, default_policy: PolicySpec) -> ClusterConfig {
        let mut config = ClusterConfig::paper_default()
            .with_ram_mb(self.ram_mb)
            .with_policy(self.policy.unwrap_or(default_policy))
            .with_clients(self.replicas * self.clients_per_replica);
        config.replicas = self.replicas;
        config.think_mean_us = self.think_mean_us;
        config.seed = self.seed;
        config.placement = match self.min_copies {
            Some(min_copies) => PlacementSpec::Partial { min_copies },
            None => PlacementSpec::Full,
        };
        config.cert_groups = self.cert_groups.unwrap_or(1);
        config.backfill_bytes_per_sec = self.backfill_bytes_per_sec.unwrap_or(0);
        if let Some(p) = self.heartbeat_period_us {
            config.heartbeat_period_us = p;
        }
        if let Some(k) = self.checkpoint_lag {
            config.checkpoint_lag = k;
        }
        if let Some(t) = self.client_timeout_us {
            config.client_timeout_us = t;
        }
        // The knob wins over the environment; either enables both exporters.
        let trace_base = self
            .trace
            .clone()
            .or_else(|| std::env::var("TASHKENT_TRACE").ok());
        if let Some(base) = trace_base {
            config.trace.jsonl_path = Some(base.clone());
            config.trace.chrome_path = Some(format!("{base}.chrome.json"));
        }
        config
    }
}

/// A named experiment recipe: workload mix + cluster config + phase
/// schedule.
///
/// Implementations are registered in [`registry`] so every entry point
/// (examples, integration tests, bench figures) builds its runs from one
/// shared catalog.
pub trait Scenario {
    /// Registry key, e.g. `"tpcw-steady-state"`.
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn summary(&self) -> &'static str;

    /// Builds the experiment this scenario describes at the given scale.
    fn experiment(&self, knobs: &ScenarioKnobs) -> Experiment;

    /// Builds and runs the scenario.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from [`run`] (drained event queue) instead
    /// of crashing the process, so scenario sweeps can report and continue.
    fn run(&self, knobs: &ScenarioKnobs) -> Result<RunResult, RunError> {
        run(self.experiment(knobs))
    }
}

/// TPC-W steady state: one mix for the whole run (Figures 3/5 shape).
pub struct TpcwSteadyState {
    /// Database scale.
    pub scale: TpcwScale,
    /// Mix name: `"ordering"`, `"shopping"`, or `"browsing"`.
    pub mix: &'static str,
}

impl Default for TpcwSteadyState {
    fn default() -> Self {
        TpcwSteadyState {
            scale: TpcwScale::Small,
            mix: "ordering",
        }
    }
}

impl Scenario for TpcwSteadyState {
    fn name(&self) -> &'static str {
        "tpcw-steady-state"
    }

    fn summary(&self) -> &'static str {
        "TPC-W bookstore, one fixed mix, MALB-SC by default"
    }

    fn experiment(&self, knobs: &ScenarioKnobs) -> Experiment {
        let (workload, mix) = tpcw::workload_with_mix(self.scale, self.mix);
        let config = knobs.config(PolicySpec::malb_sc());
        Experiment::new(config, workload, mix).with_window(knobs.warmup_secs, knobs.measured_secs)
    }
}

/// RUBiS auction site on the bidding mix, with the `AboutMe` whale that
/// motivates working-set isolation (Figure 4 shape).
pub struct RubisAuctionMix {
    /// Mix name: `"bidding"` or `"browsing"`.
    pub mix: &'static str,
}

impl Default for RubisAuctionMix {
    fn default() -> Self {
        RubisAuctionMix { mix: "bidding" }
    }
}

impl Scenario for RubisAuctionMix {
    fn name(&self) -> &'static str {
        "rubis-auction"
    }

    fn summary(&self) -> &'static str {
        "RUBiS auction site, bidding mix with the AboutMe whale"
    }

    fn experiment(&self, knobs: &ScenarioKnobs) -> Experiment {
        let (workload, mix) = rubis::workload_with_mix(self.mix);
        let config = knobs.config(PolicySpec::malb_sc());
        Experiment::new(config, workload, mix).with_window(knobs.warmup_secs, knobs.measured_secs)
    }
}

/// Dynamic reconfiguration: the TPC-W mix switches shopping → browsing →
/// shopping and MALB re-allocates replicas after each switch (Figure 6
/// shape). The measured window is split evenly across the three phases.
pub struct DynamicReconfig {
    /// Database scale.
    pub scale: TpcwScale,
    /// Freeze the balancer mid-first-phase (static-configuration baseline).
    pub freeze: bool,
}

impl Default for DynamicReconfig {
    fn default() -> Self {
        DynamicReconfig {
            scale: TpcwScale::Small,
            freeze: false,
        }
    }
}

impl Scenario for DynamicReconfig {
    fn name(&self) -> &'static str {
        "dynamic-reconfig"
    }

    fn summary(&self) -> &'static str {
        "TPC-W mix switches shopping -> browsing -> shopping; MALB re-allocates"
    }

    fn experiment(&self, knobs: &ScenarioKnobs) -> Experiment {
        let workload = tpcw::workload(self.scale);
        let shopping = tpcw::mix(&workload, "shopping");
        let browsing = tpcw::mix(&workload, "browsing");
        let config = knobs.config(PolicySpec::malb_sc());
        // Split the measured window across the three phases; the last phase
        // absorbs the division remainder so the window totals measured_secs.
        let phase = (knobs.measured_secs / 3).max(1);
        let last = knobs.measured_secs.saturating_sub(2 * phase).max(1);
        Experiment {
            config,
            workload,
            phases: vec![
                (knobs.warmup_secs + phase, shopping.clone()),
                (phase, browsing),
                (last, shopping),
            ],
            warmup_secs: knobs.warmup_secs,
            freeze_at_secs: self
                .freeze
                .then_some(knobs.warmup_secs + (phase / 2).max(1)),
            injections: Vec::new(),
        }
    }
}

/// Every built-in scenario, in registry order.
pub fn registry() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(TpcwSteadyState::default()),
        Box::new(RubisAuctionMix::default()),
        Box::new(DynamicReconfig::default()),
        Box::new(Failover::default()),
        Box::new(Detection::default()),
        Box::new(PartialReplication::default()),
        Box::new(Rebalance::default()),
    ]
}

/// Looks a scenario up by its registry name.
pub fn scenario(name: &str) -> Option<Box<dyn Scenario>> {
    registry().into_iter().find(|s| s.name() == name)
}

/// Runs a registered scenario by name.
///
/// # Errors
///
/// Propagates [`RunError`] from the underlying [`run`].
///
/// # Panics
///
/// Panics if no scenario is registered under `name` (programming error at
/// every call site; the registry is static).
pub fn run_scenario(name: &str, knobs: &ScenarioKnobs) -> Result<RunResult, RunError> {
    scenario(name)
        .unwrap_or_else(|| panic!("no scenario named {name:?} in the registry"))
        .run(knobs)
}

/// Result of the §4.4 client-sizing procedure.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Peak standalone throughput observed.
    pub peak_tps: f64,
    /// Client count per replica that produced ~85 % of the peak.
    pub clients_at_85: usize,
    /// The sweep: `(clients, tps)` pairs.
    pub sweep: Vec<(usize, f64)>,
}

/// Measures a standalone (single-replica) database across client counts and
/// returns the count that yields 85 % of peak throughput — the paper's
/// method for sizing the client population (§4.4). The candidates run in
/// one [`run_sweep`]; a traced `base` gives candidate `i` the files of
/// [`TraceConfig::for_run`]`(i)`.
///
/// [`TraceConfig::for_run`]: crate::trace::TraceConfig::for_run
pub fn calibrate_standalone(
    base: &ClusterConfig,
    workload: &Workload,
    mix: &Mix,
    candidates: &[usize],
    warmup_secs: u64,
    measured_secs: u64,
) -> Calibration {
    let exps = candidates
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut config = base.clone().standalone(n);
            config.trace = base.trace.for_run(i);
            Experiment::new(config, workload.clone(), mix.clone())
                .with_window(warmup_secs, measured_secs)
        })
        .collect();
    let sweep: Vec<(usize, f64)> = candidates
        .iter()
        .zip(run_sweep(exps))
        .map(|(&n, r)| (n, r.expect("calibration runs schedule an End event").tps))
        .collect();
    let peak_tps = sweep.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    let target = 0.85 * peak_tps;
    let clients_at_85 = sweep
        .iter()
        .find(|(_, t)| *t >= target)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| sweep.last().map(|(n, _)| *n).unwrap_or(1));
    Calibration {
        peak_tps,
        clients_at_85,
        sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicySpec;
    use tashkent_workloads::tpcw::{self, TpcwScale};

    #[test]
    fn run_produces_throughput() {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "shopping");
        let config = ClusterConfig {
            replicas: 2,
            clients: 8,
            think_mean_us: 300_000,
            ..ClusterConfig::paper_default()
        };
        let r = run(Experiment::new(config, workload, mix).with_window(5, 20)).unwrap();
        assert!(r.tps > 0.5, "tps {}", r.tps);
        assert!((r.window_s - 20.0).abs() < 0.5);
    }

    #[test]
    fn phases_switch_mixes() {
        let (workload, ordering) = tpcw::workload_with_mix(TpcwScale::Small, "ordering");
        let (_, browsing) = tpcw::workload_with_mix(TpcwScale::Small, "browsing");
        let config = ClusterConfig {
            replicas: 2,
            clients: 6,
            think_mean_us: 300_000,
            ..ClusterConfig::paper_default()
        }
        .with_policy(PolicySpec::malb_sc());
        let exp = Experiment {
            config,
            workload,
            phases: vec![(15, ordering), (15, browsing)],
            warmup_secs: 5,
            freeze_at_secs: None,
            injections: Vec::new(),
        };
        assert_eq!(exp.total_secs(), 30);
        let r = run(exp).unwrap();
        assert!(r.committed > 0);
    }

    #[test]
    fn empty_sweep_spawns_nothing_and_returns_nothing() {
        assert!(run_sweep(Vec::new()).is_empty());
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate scenario names");
        for name in names {
            assert!(scenario(name).is_some(), "scenario {name} not findable");
        }
        assert!(scenario("no-such-scenario").is_none());
    }

    #[test]
    fn knobs_shape_the_experiment() {
        let knobs = ScenarioKnobs {
            replicas: 3,
            clients_per_replica: 4,
            ..ScenarioKnobs::smoke()
        }
        .with_policy(PolicySpec::Lard)
        .with_seed(7);
        let exp = TpcwSteadyState::default().experiment(&knobs);
        assert_eq!(exp.config.replicas, 3);
        assert_eq!(exp.config.clients, 12);
        assert_eq!(exp.config.policy, PolicySpec::Lard);
        assert_eq!(exp.config.seed, 7);
        assert_eq!(exp.total_secs(), knobs.warmup_secs + knobs.measured_secs);
    }

    #[test]
    fn dynamic_reconfig_splits_measured_window() {
        let knobs = ScenarioKnobs::smoke();
        let exp = DynamicReconfig::default().experiment(&knobs);
        assert_eq!(exp.phases.len(), 3);
        let phase = (knobs.measured_secs / 3).max(1);
        assert_eq!(exp.phases[0].0, knobs.warmup_secs + phase);
        assert_eq!(exp.phases[1].0, phase);
        // The last phase absorbs the remainder: the whole window is honored
        // even when measured_secs is not divisible by 3.
        assert_eq!(exp.total_secs(), knobs.warmup_secs + knobs.measured_secs);
        assert!(exp.freeze_at_secs.is_none());
        let frozen = DynamicReconfig {
            freeze: true,
            ..DynamicReconfig::default()
        }
        .experiment(&knobs);
        assert!(frozen.freeze_at_secs.is_some());
    }

    #[test]
    fn calibration_finds_85_percent_point() {
        let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Small, "browsing");
        let base = ClusterConfig {
            think_mean_us: 300_000,
            ..ClusterConfig::paper_default()
        };
        let cal = calibrate_standalone(&base, &workload, &mix, &[2, 8], 3, 12);
        assert_eq!(cal.sweep.len(), 2);
        assert!(cal.peak_tps > 0.0);
        assert!(cal.clients_at_85 == 2 || cal.clients_at_85 == 8);
    }
}
