//! The per-replica load daemon.
//!
//! "The load balancer continuously receives replica load information on the
//! CPU and the disk I/O channel utilization from lightweight daemons running
//! on each of the replicas" (§2.4). Each time its owner samples (every
//! second in the cluster), the daemon reads both servers' busy time,
//! smooths the utilizations with an EWMA, and emits a [`LoadReport`].

use tashkent_sim::{Ewma, SimTime};

use crate::cpu::CpuServer;
use tashkent_storage::DiskModel;

/// One smoothed utilization report, in `[0, 1]` per resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Smoothed CPU utilization.
    pub cpu: f64,
    /// Smoothed disk-channel utilization.
    pub disk: f64,
}

impl LoadReport {
    /// The paper's load function: the bottleneck resource, `MAX(cpu, disk)`
    /// (§2.4).
    pub fn bottleneck(&self) -> f64 {
        self.cpu.max(self.disk)
    }
}

/// Samples and smooths CPU/disk utilization for one replica; its owner
/// decides when to sample.
#[derive(Debug, Clone)]
pub struct LoadDaemon {
    last_sample: SimTime,
    cpu: Ewma,
    disk: Ewma,
}

impl LoadDaemon {
    /// Creates a daemon smoothing with EWMA weight `alpha`.
    pub fn new(alpha: f64) -> Self {
        LoadDaemon {
            last_sample: SimTime::ZERO,
            cpu: Ewma::new(alpha),
            disk: Ewma::new(alpha),
        }
    }

    /// Paper-shaped default: α = 0.3 (the cluster samples every 1 s).
    pub fn paper_default() -> Self {
        Self::new(0.3)
    }

    /// Takes a sample at `now`, draining the servers' busy-time windows.
    ///
    /// Utilizations are clamped to `[0, 2.5]`: because service time is
    /// charged at submit time, a backlogged server reports above 1.0 for a
    /// window — a useful overload signal for the balancer's allocation
    /// decisions (a saturated *and backlogged* group needs replicas more
    /// than a merely saturated one).
    pub fn sample(
        &mut self,
        now: SimTime,
        cpu: &mut CpuServer,
        disk: &mut DiskModel,
    ) -> LoadReport {
        let interval = now.saturating_since(self.last_sample).max(1);
        self.last_sample = now;
        let cpu_util = (cpu.take_window_busy_us() as f64 / interval as f64).min(2.5);
        let disk_util = (disk.take_window_busy_us() as f64 / interval as f64).min(2.5);
        self.cpu.observe(cpu_util);
        self.disk.observe(disk_util);
        self.report()
    }

    /// The current smoothed report without taking a new sample.
    pub fn report(&self) -> LoadReport {
        LoadReport {
            cpu: self.cpu.value(),
            disk: self.disk.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_storage::{DiskParams, DiskRequest, GlobalPageId, RelationId, ReqKind};

    fn busy_disk(disk: &mut DiskModel, now: SimTime, pages: u32) {
        for i in 0..pages {
            disk.submit(
                now,
                DiskRequest {
                    page: GlobalPageId::new(RelationId(0), i * 100),
                    kind: ReqKind::Read,
                },
            );
        }
    }

    #[test]
    fn idle_servers_report_zero() {
        let mut d = LoadDaemon::paper_default();
        let mut cpu = CpuServer::new();
        let mut disk = DiskModel::default();
        let r = d.sample(SimTime::from_secs(1), &mut cpu, &mut disk);
        assert_eq!(r.cpu, 0.0);
        assert_eq!(r.disk, 0.0);
        assert_eq!(r.bottleneck(), 0.0);
    }

    #[test]
    fn utilization_is_busy_over_interval() {
        let mut d = LoadDaemon::new(1.0);
        let mut cpu = CpuServer::new();
        let mut disk = DiskModel::default();
        cpu.run(SimTime::ZERO, 250_000); // 0.25 s of work in a 1 s window
        let r = d.sample(SimTime::from_secs(1), &mut cpu, &mut disk);
        assert!((r.cpu - 0.25).abs() < 1e-9, "cpu {}", r.cpu);
    }

    #[test]
    fn saturated_server_clamps_to_one() {
        let mut d = LoadDaemon::new(1.0);
        let mut cpu = CpuServer::new();
        let mut disk = DiskModel::new(DiskParams {
            seek_us: 10_000,
            transfer_us: 0,
            seq_window: 1,
        });
        busy_disk(&mut disk, SimTime::ZERO, 500); // 5 s of work submitted
        let r = d.sample(SimTime::from_secs(1), &mut cpu, &mut disk);
        assert_eq!(r.disk, 2.5, "backlog clamps at 2.5");
        assert_eq!(r.bottleneck(), 2.5);
    }

    #[test]
    fn ewma_smooths_between_samples() {
        let mut d = LoadDaemon::new(0.5);
        let mut cpu = CpuServer::new();
        let mut disk = DiskModel::default();
        cpu.run(SimTime::ZERO, 1_000_000);
        d.sample(SimTime::from_secs(1), &mut cpu, &mut disk); // util 1.0
        let r = d.sample(SimTime::from_secs(2), &mut cpu, &mut disk); // util 0.0
        assert!((r.cpu - 0.5).abs() < 1e-9, "cpu {}", r.cpu);
    }

    #[test]
    fn bottleneck_is_max_of_resources() {
        let r = LoadReport {
            cpu: 0.3,
            disk: 0.8,
        };
        assert_eq!(r.bottleneck(), 0.8);
        let r2 = LoadReport {
            cpu: 0.9,
            disk: 0.1,
        };
        assert_eq!(r2.bottleneck(), 0.9);
    }
}
