//! Dynamic replica allocation (§2.4).
//!
//! The load balancer summarizes each group's load as the mean over its
//! replicas of `MAX(cpu, disk)` (the bottleneck resource), then:
//!
//! * moves one replica from the least *future-loaded* group to the most
//!   loaded group — the future load of a group is what its average load
//!   would become if one replica were removed (`load × n / (n − 1)`), which
//!   naturally protects small groups;
//! * applies hysteresis: a move requires the most loaded group to be at
//!   least 1.25× the donor's future load;
//! * on drastic workload change, solves the balance equations on total
//!   resource needs (`utilization × replicas`) and re-allocates wholesale;
//! * merges groups that each under-utilize a single replica, and splits a
//!   merged group first if it becomes the most loaded (§2.4 "Merging Low
//!   Utilization Transaction Groups").

use crate::grouping::GroupId;

/// Per-group load summary fed to allocation decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupLoads {
    /// The group.
    pub group: GroupId,
    /// Mean bottleneck utilization over the group's replicas, in `[0, 1]`.
    pub load: f64,
    /// Replicas currently allocated.
    pub replicas: usize,
}

impl GroupLoads {
    /// Projected mean load if one replica were removed: `load × n/(n−1)`.
    ///
    /// Groups with a single replica report infinite future load — they can
    /// never donate their last replica.
    pub fn future_load(&self) -> f64 {
        if self.replicas <= 1 {
            f64::INFINITY
        } else {
            self.load * self.replicas as f64 / (self.replicas as f64 - 1.0)
        }
    }

    /// Total resource need: `utilization × replicas` (balance-equation
    /// input).
    pub fn total_need(&self) -> f64 {
        self.load * self.replicas as f64
    }
}

/// One replica move decided by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Donor group.
    pub from: GroupId,
    /// Receiving group.
    pub to: GroupId,
}

/// Allocation tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct AllocationConfig {
    /// Required ratio of receiver load to donor future load (paper: 1.25).
    pub hysteresis: f64,
    /// Mean load below which a single-replica group counts as substantially
    /// under-utilized and may be merged with another such group.
    pub merge_threshold: f64,
    /// Imbalance ratio (max future need per replica / min) that triggers
    /// wholesale re-allocation by balance equations.
    pub fast_realloc_ratio: f64,
}

impl Default for AllocationConfig {
    fn default() -> Self {
        AllocationConfig {
            hysteresis: 1.25,
            merge_threshold: 0.30,
            fast_realloc_ratio: 3.0,
        }
    }
}

/// Pure allocation decision procedures.
#[derive(Debug, Clone, Default)]
pub struct Allocator {
    config: AllocationConfig,
}

impl Allocator {
    /// Creates an allocator with the given knobs.
    pub fn new(config: AllocationConfig) -> Self {
        Allocator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> AllocationConfig {
        self.config
    }

    /// Decides at most one replica move given current group loads.
    ///
    /// The receiver is the most loaded group; the donor is the group with
    /// the lowest *future* load. The move happens when `receiver.load ≥
    /// hysteresis × donor.future_load()` — or, bypassing hysteresis, when
    /// the receiver is *saturated* (≥ 0.98) and the donor would stay below
    /// the receiver's load: hysteresis exists to damp measurement noise,
    /// and a pegged group is not noise.
    pub fn decide_move(&self, loads: &[GroupLoads]) -> Option<Move> {
        if loads.len() < 2 {
            return None;
        }
        let receiver = loads
            .iter()
            .max_by(|a, b| a.load.total_cmp(&b.load).then(b.group.cmp(&a.group)))?;
        let donor = loads
            .iter()
            .filter(|g| g.group != receiver.group)
            .min_by(|a, b| {
                a.future_load()
                    .total_cmp(&b.future_load())
                    .then(a.group.cmp(&b.group))
            })?;
        if donor.replicas <= 1 {
            return None;
        }
        let hysteresis_ok = receiver.load >= self.config.hysteresis * donor.future_load();
        let saturated_ok = receiver.load >= 0.98 && donor.future_load() < receiver.load;
        if hysteresis_ok || saturated_ok {
            Some(Move {
                from: donor.group,
                to: receiver.group,
            })
        } else {
            None
        }
    }

    /// Whether the imbalance is drastic enough for wholesale re-allocation.
    pub fn needs_fast_realloc(&self, loads: &[GroupLoads]) -> bool {
        if loads.len() < 2 {
            return false;
        }
        // Compare per-replica need if each group kept its allocation.
        let mut max_need = f64::MIN;
        let mut min_need = f64::MAX;
        for g in loads {
            let per_replica = g.total_need() / g.replicas.max(1) as f64;
            max_need = max_need.max(per_replica);
            min_need = min_need.min(per_replica);
        }
        min_need > 0.0 && max_need / min_need >= self.config.fast_realloc_ratio
    }

    /// Solves the balance equations: allocate `total` replicas to groups in
    /// proportion to their total resource needs (§2.4 "Fast Re-allocation").
    ///
    /// Rounding is conservative — every group keeps at least one replica,
    /// fractions round down, and leftover replicas go to the groups with the
    /// largest fractional parts (ties favour the *less* needy group, matching
    /// the paper's worked example where (7.5, 2.5) rounds to (7, 3)).
    ///
    /// # Panics
    ///
    /// Panics if `total` is smaller than the number of groups.
    pub fn solve_balance(&self, loads: &[GroupLoads], total: usize) -> Vec<(GroupId, usize)> {
        assert!(
            total >= loads.len(),
            "cannot allocate {total} replicas to {} groups",
            loads.len()
        );
        if loads.is_empty() {
            return Vec::new();
        }
        let needs: Vec<f64> = loads.iter().map(|g| g.total_need().max(1e-9)).collect();
        let sum: f64 = needs.iter().sum();
        // Ideal shares, floored with a minimum of one replica each.
        let mut alloc: Vec<usize> = Vec::with_capacity(loads.len());
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(loads.len());
        for (i, need) in needs.iter().enumerate() {
            let ideal = total as f64 * need / sum;
            let floor = (ideal.floor() as usize).max(1);
            alloc.push(floor);
            fracs.push((i, ideal - ideal.floor()));
        }
        let mut used: usize = alloc.iter().sum();
        // Distribute any remaining replicas by largest fractional part;
        // ties favour the smaller total need (conservative rounding).
        fracs.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then(needs[a.0].total_cmp(&needs[b.0]))
                .then(a.0.cmp(&b.0))
        });
        let mut k = 0;
        while used < total {
            alloc[fracs[k % fracs.len()].0] += 1;
            used += 1;
            k += 1;
        }
        // If minimums pushed us over, reclaim from the largest allocations.
        while used > total {
            let (idx, _) = alloc
                .iter()
                .enumerate()
                .filter(|(_, a)| **a > 1)
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .expect("some group must hold more than one replica");
            alloc[idx] -= 1;
            used -= 1;
        }
        loads.iter().zip(alloc).map(|(g, n)| (g.group, n)).collect()
    }

    /// The groups that could share a replica (§2.4): single-replica groups
    /// under the merge threshold, least loaded first. The caller picks the
    /// first *pair whose combined working set fits a replica* — sharing a
    /// replica between groups whose union exceeds memory would create
    /// exactly the contention MALB exists to avoid.
    pub fn merge_candidates(&self, loads: &[GroupLoads]) -> Vec<GroupId> {
        let mut candidates: Vec<&GroupLoads> = loads
            .iter()
            .filter(|g| g.replicas == 1 && g.load < self.config.merge_threshold)
            .collect();
        candidates.sort_by(|a, b| a.load.total_cmp(&b.load).then(a.group.cmp(&b.group)));
        candidates.iter().map(|g| g.group).collect()
    }

    /// Whether a previously merged group should be split instead of being
    /// given another replica (§2.4: "instead of allocating another replica,
    /// the two transaction groups are split"): true when the merged group is
    /// among the most loaded — within 5 % of the maximum (the sharing is the
    /// contention source either way) — and its load is well past the
    /// merge threshold.
    pub fn should_split(&self, merged: GroupId, loads: &[GroupLoads]) -> bool {
        let Some(merged_load) = loads.iter().find(|g| g.group == merged).map(|g| g.load) else {
            return false;
        };
        let max_load = loads.iter().map(|g| g.load).fold(0.0, f64::max);
        merged_load >= self.config.merge_threshold * 2.0 && merged_load >= max_load - 0.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gl(id: usize, load: f64, replicas: usize) -> GroupLoads {
        GroupLoads {
            group: GroupId(id),
            load,
            replicas,
        }
    }

    #[test]
    fn future_load_matches_paper_example() {
        // §2.4: three replicas averaging 46 → removing one projects 69.
        let g = gl(0, 0.46, 3);
        assert!((g.future_load() - 0.69).abs() < 1e-9);
    }

    #[test]
    fn future_load_protects_small_groups() {
        // §2.4: two replicas at 20 project 40; six at 25 project 30 — the
        // six-replica group donates despite its higher current load.
        let small = gl(0, 0.20, 2);
        let big = gl(1, 0.25, 6);
        assert!(small.future_load() > big.future_load());
        let a = Allocator::default();
        let receiver = gl(2, 0.90, 3);
        let mv = a.decide_move(&[small, big, receiver]).unwrap();
        assert_eq!(mv.from, GroupId(1));
        assert_eq!(mv.to, GroupId(2));
    }

    #[test]
    fn single_replica_group_never_donates() {
        let a = Allocator::default();
        let loads = [gl(0, 0.01, 1), gl(1, 0.99, 1)];
        assert_eq!(a.decide_move(&loads), None);
    }

    #[test]
    fn hysteresis_blocks_marginal_moves() {
        let a = Allocator::default();
        // Donor future load = 0.4 × 4/3 ≈ 0.533; receiver at 0.6 < 1.25×0.533.
        let loads = [gl(0, 0.40, 4), gl(1, 0.60, 2)];
        assert_eq!(a.decide_move(&loads), None);
        // Receiver at 0.70 ≥ 1.25 × 0.533 ≈ 0.667 → move.
        let loads = [gl(0, 0.40, 4), gl(1, 0.70, 2)];
        assert_eq!(
            a.decide_move(&loads),
            Some(Move {
                from: GroupId(0),
                to: GroupId(1)
            })
        );
    }

    #[test]
    fn balance_equations_match_paper_example() {
        // §2.4: M = 3 replicas at 70%, N = 7 replicas at 10%, 10 total →
        // ideal m = 7.5, n = 2.5 → conservatively 7 and 3.
        let a = Allocator::default();
        let result = a.solve_balance(&[gl(0, 0.70, 3), gl(1, 0.10, 7)], 10);
        assert_eq!(result, vec![(GroupId(0), 7), (GroupId(1), 3)]);
    }

    #[test]
    fn balance_preserves_total_and_minimums() {
        let a = Allocator::default();
        let loads = [gl(0, 0.9, 2), gl(1, 0.001, 5), gl(2, 0.5, 3), gl(3, 0.0, 6)];
        let result = a.solve_balance(&loads, 16);
        let total: usize = result.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 16);
        assert!(result.iter().all(|(_, n)| *n >= 1));
        // The heaviest group's allocation matches the maximum.
        let max_alloc = result.iter().map(|(_, n)| *n).max().unwrap();
        let g0 = result.iter().find(|(g, _)| *g == GroupId(0)).unwrap();
        assert_eq!(g0.1, max_alloc);
    }

    #[test]
    #[should_panic(expected = "cannot allocate")]
    fn balance_rejects_too_few_replicas() {
        Allocator::default().solve_balance(&[gl(0, 0.5, 1), gl(1, 0.5, 1)], 1);
    }

    #[test]
    fn fast_realloc_triggers_on_drastic_imbalance() {
        let a = Allocator::default();
        assert!(a.needs_fast_realloc(&[gl(0, 0.70, 3), gl(1, 0.10, 7)]));
        assert!(!a.needs_fast_realloc(&[gl(0, 0.50, 5), gl(1, 0.45, 5)]));
        assert!(!a.needs_fast_realloc(&[gl(0, 0.5, 5)]));
    }

    #[test]
    fn merge_picks_two_least_loaded_singletons() {
        let a = Allocator::default();
        let loads = [
            gl(0, 0.05, 1),
            gl(1, 0.50, 1),
            gl(2, 0.10, 1),
            gl(3, 0.02, 2), // not a singleton
        ];
        assert_eq!(a.merge_candidates(&loads), vec![GroupId(0), GroupId(2)]);
    }

    #[test]
    fn no_merge_without_two_candidates() {
        let a = Allocator::default();
        assert_eq!(
            a.merge_candidates(&[gl(0, 0.05, 1), gl(1, 0.50, 1)]),
            vec![GroupId(0)]
        );
        assert!(a.merge_candidates(&[]).is_empty());
    }

    #[test]
    fn split_when_merged_group_is_hottest() {
        let a = Allocator::default();
        let loads = [gl(0, 0.80, 1), gl(1, 0.40, 3)];
        assert!(a.should_split(GroupId(0), &loads));
        assert!(!a.should_split(GroupId(1), &loads));
        // A merged group that is cool stays merged even if nothing is hotter.
        let cool = [gl(0, 0.10, 1), gl(1, 0.05, 3)];
        assert!(!a.should_split(GroupId(0), &cool));
    }

    #[test]
    fn repro_stuck_allocation() {
        // End-state observed in calibration: light group saturated on 4
        // replicas while BestSeller/AdminRespo idle on 2 each.
        let a = Allocator::default();
        let loads = [
            gl(0, 0.84, 3), // BuyConfirm
            gl(1, 0.62, 2), // OrderDispl
            gl(2, 0.13, 2), // BestSeller
            gl(3, 0.12, 2), // AdminRespo
            gl(4, 0.99, 4), // light
            gl(5, 0.39, 3), // ShopinCart
        ];
        assert!(
            a.needs_fast_realloc(&loads),
            "ratio 8x must trigger fast realloc"
        );
        let target = a.solve_balance(&loads, 16);
        let light = target.iter().find(|(g, _)| *g == GroupId(4)).unwrap();
        assert!(light.1 >= 6, "light group should get >=6, got {}", light.1);
        let mv = a.decide_move(&loads).unwrap();
        assert_eq!(mv.to, GroupId(4));
    }
}
