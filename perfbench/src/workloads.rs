//! The three benchmark workloads, each a registered scenario at fixed knobs.
//!
//! All three run TPC-W MidDB (1.8 GB) on 16 replicas of 512 MB with
//! closed-loop clients (8 per replica, 0.5 s mean think time); only the
//! seed comes from the command line.

use tashkent_cluster::{
    Experiment, PartialReplication, PolicySpec, Scenario, ScenarioKnobs, TpcwSteadyState,
};
use tashkent_workloads::tpcw::TpcwScale;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ordering-malb-uf", "browsing-lc", "partial-faults"];

/// One benchmark workload: a scenario plus the knobs it runs at.
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The registered scenario that builds the experiment.
    pub scenario: Box<dyn Scenario>,
    /// Scale, window, seed and subsystem knobs.
    pub knobs: ScenarioKnobs,
}

impl Workload {
    /// The named workload at benchmark scale, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        Self::build(name, seed, false)
    }

    /// The named workload shrunk to a few replicas and seconds, for tests.
    pub fn smoke(name: &str, seed: u64) -> Option<Self> {
        Self::build(name, seed, true)
    }

    fn build(name: &str, seed: u64, smoke: bool) -> Option<Self> {
        // Warm-up is long because response-time tails and MALB's grouping
        // differ from seed to seed until the buffer pools are full (about a
        // minute for least-connections, two for MALB); MALB's mean response
        // needs 300 s of measurement to vary by about 12% across seeds
        // rather than 18%. Browsing costs about 8x more host time per
        // simulated second than ordering (scan-heavy steps), so it gets the
        // shortest measured window.
        let (warmup_secs, measured_secs) = match name {
            "ordering-malb-uf" => (150, 300),
            "browsing-lc" => (60, 60),
            _ => (60, 240),
        };
        let mut knobs = ScenarioKnobs {
            replicas: 16,
            clients_per_replica: 8,
            think_mean_us: 500_000,
            ram_mb: 512,
            warmup_secs,
            measured_secs,
            ..ScenarioKnobs::default()
        }
        .with_seed(seed);
        if smoke {
            knobs.replicas = 4;
            knobs.clients_per_replica = 3;
            knobs.warmup_secs = 5;
            knobs.measured_secs = 20;
        }
        let (name, scenario, knobs): (&'static str, Box<dyn Scenario>, _) = match name {
            "ordering-malb-uf" => (
                "ordering-malb-uf",
                Box::new(TpcwSteadyState {
                    scale: TpcwScale::Mid,
                    mix: "ordering",
                }),
                knobs.with_policy(PolicySpec::malb_sc_uf()),
            ),
            "browsing-lc" => (
                "browsing-lc",
                Box::new(TpcwSteadyState {
                    scale: TpcwScale::Mid,
                    mix: "browsing",
                }),
                knobs.with_policy(PolicySpec::LeastConnections),
            ),
            // Client timeouts stay off: a 3 s timeout turns this config
            // into a retry storm that measures backoff, not the layers.
            "partial-faults" => (
                "partial-faults",
                Box::new(PartialReplication {
                    scale: TpcwScale::Mid,
                    min_copies: 2,
                    faults: true,
                }),
                knobs
                    .with_cert_groups(Some(4))
                    .with_heartbeat(Some(500_000))
                    .with_checkpoint_lag(Some(32))
                    .with_backfill_cap(Some(8 << 20)),
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            scenario,
            knobs,
        })
    }

    /// Builds the experiment (workload catalog, mixes, config, injections).
    pub fn experiment(&self) -> Experiment {
        self.scenario.experiment(&self.knobs)
    }

    /// Simulated seconds one run covers (warm-up plus measured window).
    pub fn sim_secs(&self) -> u64 {
        self.knobs.warmup_secs + self.knobs.measured_secs
    }
}
