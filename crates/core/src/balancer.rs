//! The load balancer: dispatch policies and the MALB composite.
//!
//! The balancer fronts the replica cluster (it is a JDBC driver in the
//! paper, §4.2.1): clients request a connection per transaction, supplying
//! the transaction type; the balancer picks a replica. It tracks outstanding
//! connections per replica (the only signal LeastConnections and LARD get)
//! and consumes smoothed load reports from the replica daemons (the signal
//! MALB's allocation uses).
//!
//! Which replicas may serve a type is not the balancer's to keep: the
//! cluster passes its placement's test as an `eligible(type, replica)`
//! predicate to every [`LoadBalancer::dispatch`] and
//! [`LoadBalancer::tick`]. One servability test — alive and eligible —
//! then serves every policy: least-connections and LARD choose among the
//! servable replicas, MALB among its unit's, and MALB's allocation weighs
//! and moves only replicas servable for every type of a unit.

use tashkent_engine::TxnTypeId;
use tashkent_sim::SimTime;
use tashkent_storage::RelationSet;

use crate::allocation::{AllocationConfig, Allocator, GroupLoads};
use crate::estimator::{EstimationMode, PageTable, WorkingSet};
use crate::filtering::filter_lists;
use crate::grouping::{pack_groups, GroupId, TxnGroup};
use crate::lard::{least_loaded, Lard, LardConfig};
use crate::types::ReplicaId;

/// A replica load report as seen by the balancer (mirrors the daemon's
/// CPU/disk utilizations; kept separate so the balancer layer does not
/// depend on the replica implementation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceLoad {
    /// Smoothed CPU utilization in `[0, 1]`.
    pub cpu: f64,
    /// Smoothed disk utilization in `[0, 1]`.
    pub disk: f64,
}

impl ResourceLoad {
    /// The paper's load function, `MAX(cpu, disk)` (§2.4).
    pub fn bottleneck(&self) -> f64 {
        self.cpu.max(self.disk)
    }
}

/// MALB configuration.
#[derive(Debug, Clone)]
pub struct MalbConfig {
    /// Which working-set information the packing uses.
    pub mode: EstimationMode,
    /// Per-replica memory available for working sets, in pages (already net
    /// of the paper's 70 MB system overhead).
    pub capacity_pages: u64,
    /// Allocation knobs (hysteresis, merging, fast re-allocation).
    pub allocation: AllocationConfig,
    /// How often allocation decisions run.
    pub rebalance_period: SimTime,
    /// Whether replica allocation adapts at runtime (the Figure 6 "static
    /// configuration" baseline sets this to `false` after convergence).
    pub dynamic: bool,
    /// Whether update filtering is enabled (§3).
    pub update_filtering: bool,
    /// Availability: minimum up-to-date replicas per transaction group when
    /// filtering.
    pub min_copies: usize,
    /// Rebalance rounds without movement before filters are installed
    /// ("after the system stabilizes", §5.5).
    pub stable_rounds_for_filter: u32,
}

impl MalbConfig {
    /// A paper-shaped configuration for the given estimation mode and
    /// per-replica capacity.
    pub fn paper_default(mode: EstimationMode, capacity_pages: u64) -> Self {
        MalbConfig {
            mode,
            capacity_pages,
            allocation: AllocationConfig::default(),
            rebalance_period: SimTime::from_secs(5),
            dynamic: true,
            update_filtering: false,
            min_copies: 2,
            stable_rounds_for_filter: 10,
        }
    }
}

/// Reconfiguration produced by a rebalance round, applied by the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigAction {
    /// Install an update filter at a replica. `None` disables filtering.
    SetFilter {
        /// Target replica.
        replica: ReplicaId,
        /// Tables to keep current; `None` = all.
        tables: Option<RelationSet>,
    },
    /// A replica changed groups (informational; caches migrate implicitly).
    Moved {
        /// The replica that changed assignment.
        replica: ReplicaId,
    },
}

/// The balancer's activity over a run: dispatch fallbacks, MALB's
/// reconfigurations, and whether it installed update filters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchStats {
    /// Dispatches that fell back to least-connections because the type had
    /// no group, or its unit no servable replica.
    pub fallback: u64,
    /// Replica moves performed by MALB allocation.
    pub moves: u64,
    /// Group merges performed.
    pub merges: u64,
    /// Group splits performed.
    pub splits: u64,
    /// Fast re-allocations performed.
    pub fast_reallocs: u64,
    /// Whether MALB has installed update filters (§3; always `false` for
    /// other policies).
    pub filters_installed: bool,
}

/// An allocation unit: one or more groups sharing a replica set.
///
/// Units usually hold a single group; merging two under-utilized groups
/// (§2.4) yields a unit with two groups on one replica. Every member is
/// alive: [`LoadBalancer::replica_failed`] removes a replica from every
/// unit, and only [`LoadBalancer::replica_recovered`] adds it back.
#[derive(Debug, Clone)]
struct Unit {
    groups: Vec<usize>,
    replicas: Vec<ReplicaId>,
}

/// MALB dispatcher state.
#[derive(Debug, Clone)]
struct MalbState {
    config: MalbConfig,
    /// Sizes every relation the working sets and groups name.
    pages: PageTable,
    working_sets: Vec<WorkingSet>,
    groups: Vec<TxnGroup>,
    /// Group index per transaction type id (`None` for types outside the
    /// packed mix).
    group_of_type: Vec<Option<usize>>,
    units: Vec<Unit>,
    allocator: Allocator,
    next_rebalance: SimTime,
    stable_rounds: u32,
    /// Rebalance round counter.
    round: u32,
    /// No merges before this round (set after a split to damp
    /// merge/split oscillation).
    merge_cooldown_until: u32,
}

/// The policy state machine.
#[derive(Debug, Clone)]
enum Policy {
    /// Least outstanding connections.
    LeastConnections,
    /// LARD state.
    Lard(Lard),
    /// MALB state.
    Malb(Box<MalbState>),
}

/// The load balancer fronting the cluster.
pub struct LoadBalancer {
    conns: Vec<usize>,
    loads: Vec<ResourceLoad>,
    alive: Vec<bool>,
    policy: Policy,
    stats: DispatchStats,
}

/// The one servability test every policy routes by: replica `r` may take a
/// transaction of type `t` when it is alive and `eligible(t, r)` holds.
fn servable<'a>(
    alive: &'a [bool],
    eligible: impl Fn(TxnTypeId, usize) -> bool + 'a,
) -> impl Fn(TxnTypeId, usize) -> bool + 'a {
    move |t, r| alive[r] && eligible(t, r)
}

/// What a rebalance round reads of the cluster: per-replica loads and the
/// servability test.
struct ClusterView<'a> {
    loads: &'a [ResourceLoad],
    servable: &'a dyn Fn(TxnTypeId, usize) -> bool,
}

impl LoadBalancer {
    /// Creates a least-connections balancer (§4.3).
    pub fn least_connections(n_replicas: usize) -> Self {
        Self::with_policy(n_replicas, Policy::LeastConnections)
    }

    /// Creates a LARD balancer (§4.3).
    pub fn lard(n_replicas: usize, config: LardConfig) -> Self {
        Self::with_policy(n_replicas, Policy::Lard(Lard::new(n_replicas, config)))
    }

    /// Creates a MALB balancer: packs `working_sets`, sized through
    /// `pages`, into groups under `config.mode` and spreads replicas over
    /// the groups; allocation then adapts from load reports.
    pub fn malb(
        n_replicas: usize,
        working_sets: Vec<WorkingSet>,
        pages: PageTable,
        config: MalbConfig,
    ) -> Self {
        let groups = pack_groups(&working_sets, &pages, config.mode, config.capacity_pages);
        let n_types = working_sets
            .iter()
            .map(|ws| ws.txn_type.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut group_of_type = vec![None; n_types];
        for (gi, g) in groups.iter().enumerate() {
            for t in &g.types {
                group_of_type[t.0 as usize] = Some(gi);
            }
        }
        // Seed units: one per group, merging the smallest groups if there
        // are more groups than replicas.
        let mut units: Vec<Unit> = groups
            .iter()
            .enumerate()
            .map(|(gi, _)| Unit {
                groups: vec![gi],
                replicas: Vec::new(),
            })
            .collect();
        while units.len() > n_replicas {
            // Merge the two units with the smallest combined estimates.
            units.sort_by_key(|u| {
                u.groups
                    .iter()
                    .map(|g| groups[*g].estimate_pages)
                    .sum::<u64>()
            });
            let mut absorbed = units.remove(0);
            units[0].groups.append(&mut absorbed.groups);
            units.sort_by_key(|u| u.groups.iter().min().copied().unwrap_or(usize::MAX));
        }
        // Spread replicas over units: overflow groups get two replicas
        // first when the cluster is big enough (they are both the heaviest
        // candidates and the ones §3's availability constraint wants at two
        // copies), then round-robin.
        let mut rid = 0;
        if n_replicas >= 2 * units.len() {
            for unit in units.iter_mut() {
                let is_overflow = unit.groups.iter().any(|g| groups[*g].overflow);
                if is_overflow && rid < n_replicas {
                    unit.replicas.push(ReplicaId(rid));
                    rid += 1;
                }
            }
        }
        let mut cursor = 0;
        while rid < n_replicas {
            let ulen = units.len();
            units[cursor % ulen].replicas.push(ReplicaId(rid));
            rid += 1;
            cursor += 1;
        }
        let allocator = Allocator::new(config.allocation);
        let next_rebalance = config.rebalance_period;
        let state = MalbState {
            config,
            pages,
            working_sets,
            groups,
            group_of_type,
            units,
            allocator,
            next_rebalance,
            stable_rounds: 0,
            round: 0,
            merge_cooldown_until: 0,
        };
        Self::with_policy(n_replicas, Policy::Malb(Box::new(state)))
    }

    fn with_policy(n: usize, policy: Policy) -> Self {
        assert!(n > 0, "balancer needs at least one replica");
        LoadBalancer {
            conns: vec![0; n],
            loads: vec![ResourceLoad::default(); n],
            alive: vec![true; n],
            policy,
            stats: DispatchStats::default(),
        }
    }

    /// The balancer's activity so far.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }

    /// Balancer-side outstanding connections per replica.
    pub fn connections(&self) -> &[usize] {
        &self.conns
    }

    /// Latest load reports per replica.
    pub fn loads(&self) -> &[ResourceLoad] {
        &self.loads
    }

    /// Records a load report from a replica daemon.
    pub fn report(&mut self, replica: ReplicaId, load: ResourceLoad) {
        self.loads[replica.0] = load;
    }

    /// Chooses a replica for a transaction of `txn_type` and opens a
    /// connection to it. Every policy chooses among the live replicas
    /// `eligible` accepts for the type; the cluster passes its placement's
    /// test (under partial replication, the replicas holding the type's
    /// whole relation group with none of it still pending).
    ///
    /// # Panics
    ///
    /// Panics if no live replica is eligible for `txn_type`.
    pub fn dispatch(
        &mut self,
        txn_type: TxnTypeId,
        eligible: impl Fn(TxnTypeId, usize) -> bool,
    ) -> ReplicaId {
        let servable = servable(&self.alive, eligible);
        let servable = |r: usize| servable(txn_type, r);
        let conns = &self.conns;
        let choice = match &mut self.policy {
            Policy::LeastConnections => least_loaded(conns, servable),
            Policy::Lard(lard) => lard.dispatch(txn_type, conns, servable),
            Policy::Malb(state) => {
                let group = state
                    .group_of_type
                    .get(txn_type.0 as usize)
                    .copied()
                    .flatten();
                let home = group.and_then(|gi| {
                    state
                        .units
                        .iter()
                        .find(|u| u.groups.contains(&gi))
                        .expect("every group belongs to a unit")
                        .replicas
                        .iter()
                        .copied()
                        .filter(|r| servable(r.0))
                        .min_by_key(|r| (conns[r.0], r.0))
                });
                home.unwrap_or_else(|| {
                    self.stats.fallback += 1;
                    least_loaded(conns, servable)
                })
            }
        };
        self.conns[choice.0] += 1;
        choice
    }

    /// Closes the connection a transaction held on `replica`.
    ///
    /// # Panics
    ///
    /// Panics if the replica had no open connections (caller bookkeeping
    /// bug).
    pub fn complete(&mut self, replica: ReplicaId) {
        assert!(self.conns[replica.0] > 0, "no open connection on {replica}");
        self.conns[replica.0] -= 1;
    }

    /// Marks a replica dead (failure injection); MALB units and LARD sets
    /// drop it.
    pub fn replica_failed(&mut self, replica: ReplicaId) {
        self.alive[replica.0] = false;
        match &mut self.policy {
            Policy::Lard(l) => l.remove_replica(replica),
            Policy::Malb(state) => {
                for unit in &mut state.units {
                    unit.replicas.retain(|r| *r != replica);
                }
            }
            _ => {}
        }
    }

    /// Marks a replica alive again after recovery. For MALB the replica
    /// joins the least-replicated unit.
    pub fn replica_recovered(&mut self, replica: ReplicaId) {
        self.alive[replica.0] = true;
        if let Policy::Malb(state) = &mut self.policy {
            if let Some(unit) = state.units.iter_mut().min_by_key(|u| u.replicas.len()) {
                if !unit.replicas.contains(&replica) {
                    unit.replicas.push(replica);
                }
            }
        }
    }

    /// Stops MALB's dynamic re-allocation (Figure 6's static baseline; also
    /// used when freezing before enabling filters manually).
    pub fn freeze(&mut self) {
        if let Policy::Malb(state) = &mut self.policy {
            state.config.dynamic = false;
        }
    }

    /// Current MALB assignment: for each unit, its member types and its
    /// replicas (Table 2 / Table 4 output). Empty for non-MALB policies.
    pub fn assignments(&self) -> Vec<(Vec<TxnTypeId>, Vec<ReplicaId>)> {
        match &self.policy {
            Policy::Malb(s) => s
                .units
                .iter()
                .map(|u| {
                    let mut types: Vec<TxnTypeId> = u
                        .groups
                        .iter()
                        .flat_map(|g| s.groups[*g].types.iter().copied())
                        .collect();
                    types.sort();
                    (types, u.replicas.clone())
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The packed groups (for inspection/benches). Empty for non-MALB.
    pub fn groups(&self) -> Vec<TxnGroup> {
        match &self.policy {
            Policy::Malb(state) => state.groups.clone(),
            _ => Vec::new(),
        }
    }

    /// Runs one balancer tick at `now`: MALB rebalances (moves, merges,
    /// splits, fast re-allocation) and, once stable, installs update
    /// filters. Other policies do nothing. MALB weighs a unit's load over
    /// its *resident* replicas, the ones servable for every type the unit
    /// serves under `eligible` (see [`LoadBalancer::dispatch`]), and moves
    /// only resident replicas into a unit.
    pub fn tick(
        &mut self,
        now: SimTime,
        eligible: impl Fn(TxnTypeId, usize) -> bool,
    ) -> Vec<ReconfigAction> {
        let servable = servable(&self.alive, eligible);
        let view = ClusterView {
            loads: &self.loads,
            servable: &servable,
        };
        match &mut self.policy {
            Policy::Malb(state) => state.tick(now, &view, &mut self.stats),
            _ => Vec::new(),
        }
    }
}

impl MalbState {
    fn tick(
        &mut self,
        now: SimTime,
        view: &ClusterView,
        stats: &mut DispatchStats,
    ) -> Vec<ReconfigAction> {
        let mut actions = Vec::new();
        if now < self.next_rebalance {
            return actions;
        }
        self.next_rebalance = now + self.config.rebalance_period.as_micros();
        if !self.config.dynamic && stats.filters_installed {
            return actions;
        }

        let mut changed = false;
        if self.config.dynamic {
            changed = self.rebalance(view, stats, &mut actions);
        }

        if changed {
            self.stable_rounds = 0;
        } else {
            self.stable_rounds += 1;
        }

        // Install filters once the configuration has been stable long
        // enough; dynamic allocation is disabled from then on (§4.2.3).
        if self.config.update_filtering
            && !stats.filters_installed
            && self.stable_rounds >= self.config.stable_rounds_for_filter
        {
            stats.filters_installed = true;
            self.config.dynamic = false;
            let assignment: Vec<Vec<ReplicaId>> = {
                // Per *group* replica lists, in group order.
                let mut per_group: Vec<Vec<ReplicaId>> = vec![Vec::new(); self.groups.len()];
                for unit in &self.units {
                    for g in &unit.groups {
                        per_group[*g] = unit.replicas.clone();
                    }
                }
                per_group
            };
            let all: Vec<ReplicaId> = (0..view.loads.len()).map(ReplicaId).collect();
            let plans = filter_lists(
                &self.groups,
                &self.working_sets,
                &assignment,
                &all,
                self.config.min_copies.min(all.len()),
            );
            for p in plans {
                actions.push(ReconfigAction::SetFilter {
                    replica: p.replica,
                    tables: p.tables,
                });
            }
        }
        actions
    }

    /// One allocation round: merge, split, then move or fast-realloc.
    /// Returns whether anything changed.
    fn rebalance(
        &mut self,
        view: &ClusterView,
        stats: &mut DispatchStats,
        actions: &mut Vec<ReconfigAction>,
    ) -> bool {
        let unit_loads = self.unit_loads(view);
        if unit_loads.is_empty() {
            return false;
        }

        self.round += 1;

        // 1. Split a merged unit that became the hottest (§2.4: undo merging
        //    before allocating more replicas). A split starts a merge
        //    cooldown so the pair is not immediately re-merged while its
        //    load estimate is still settling.
        for (ui, unit) in self.units.iter().enumerate() {
            if unit.groups.len() > 1 && self.allocator.should_split(GroupId(ui), &unit_loads) {
                self.merge_cooldown_until = self.round + 12;
                return self.split_unit(ui, view, stats, actions);
            }
        }

        // 2. Merge two substantially under-utilized singleton units.
        //    Pairs whose combined working sets fit one replica merge freely;
        //    a non-fitting pair merges only when both are nearly idle (the
        //    paper accepts that merged groups may contend — the split above
        //    undoes it in a controlled fashion).
        if self.round >= self.merge_cooldown_until {
            let candidates = self.allocator.merge_candidates(&unit_loads);
            let idle = self.allocator.config().merge_threshold / 2.0;
            let load_of = |g: GroupId| {
                unit_loads
                    .iter()
                    .find(|l| l.group == g)
                    .map(|l| l.load)
                    .unwrap_or(0.0)
            };
            let mut choice: Option<(usize, usize)> = None;
            'pairs: for (i, a) in candidates.iter().enumerate() {
                for b in candidates.iter().skip(i + 1) {
                    let fits = self.units_fit_together(a.0, b.0);
                    let both_idle = load_of(*a) < idle && load_of(*b) < idle;
                    if fits || both_idle {
                        choice = Some((a.0, b.0));
                        break 'pairs;
                    }
                }
            }
            if let Some((a, b)) = choice {
                self.merge_units(a, b, view, stats, actions);
                return true;
            }
        }

        // 3. Fast re-allocation on drastic imbalance, else a single move.
        if self.allocator.needs_fast_realloc(&unit_loads) {
            let total: usize = self.units.iter().map(|u| u.replicas.len()).sum();
            if total >= self.units.len() {
                let target = self.allocator.solve_balance(&unit_loads, total);
                let changed = self.apply_target(&target, view, actions);
                if changed {
                    stats.fast_reallocs += 1;
                    return true;
                }
            }
        }
        if let Some(mv) = self.allocator.decide_move(&unit_loads) {
            let moved = self.move_one(mv.from.0, mv.to.0, view, actions);
            if moved {
                stats.moves += 1;
                return true;
            }
        }
        false
    }

    /// Whether replica `r` is servable for every transaction type `unit`
    /// serves — i.e. whether parking `r` in the unit lets it actually serve
    /// the unit's traffic. Under full replication, whether it is alive.
    fn unit_resident(&self, unit: &Unit, r: usize, view: &ClusterView) -> bool {
        unit.groups
            .iter()
            .flat_map(|g| self.groups[*g].types.iter())
            .all(|t| (view.servable)(*t, r))
    }

    /// Whether two units' combined working-set estimate fits one replica.
    fn units_fit_together(&self, a: usize, b: usize) -> bool {
        let union = [a, b]
            .iter()
            .flat_map(|ui| &self.units[*ui].groups)
            .fold(RelationSet::new(), |u, gi| {
                u.union(self.groups[*gi].relations)
            });
        self.pages.sum(union) <= self.config.capacity_pages
    }

    /// Per-unit load estimates. A unit is weighed over its *resident*
    /// replicas only — the ones servable for every transaction type the
    /// unit serves; a non-resident replica parked in the unit (under
    /// partial replication, one not holding the unit's relations) neither
    /// serves its traffic nor should count toward its capacity. When no
    /// resident exists the whole unit is used as a fallback so the
    /// allocator still sees it.
    fn unit_loads(&self, view: &ClusterView) -> Vec<GroupLoads> {
        self.units
            .iter()
            .enumerate()
            .map(|(ui, unit)| {
                let serving: Vec<ReplicaId> = unit
                    .replicas
                    .iter()
                    .copied()
                    .filter(|r| self.unit_resident(unit, r.0, view))
                    .collect();
                let pool = if serving.is_empty() {
                    &unit.replicas
                } else {
                    &serving
                };
                let load = if pool.is_empty() {
                    0.0
                } else {
                    pool.iter()
                        .map(|r| view.loads[r.0].bottleneck())
                        .sum::<f64>()
                        / pool.len() as f64
                };
                GroupLoads {
                    group: GroupId(ui),
                    load,
                    replicas: pool.len(),
                }
            })
            .collect()
    }

    /// Moves one replica from unit `from` to unit `to`. Placement-aware:
    /// under partial replication only replicas *resident* for the target
    /// unit (holding every relation its types touch) are proposed — a
    /// non-holder parked in the unit would serve none of its traffic, and
    /// dispatch would fall back outside the group on every request. When
    /// the donor has no resident replica the move is skipped (the allocator
    /// re-evaluates next round). Under full replication this is exactly the
    /// historical lowest-id choice. Returns whether a move happened.
    fn move_one(
        &mut self,
        from: usize,
        to: usize,
        view: &ClusterView,
        actions: &mut Vec<ReconfigAction>,
    ) -> bool {
        if from == to || self.units[from].replicas.len() <= 1 {
            return false;
        }
        let Some(rid) = self.units[from]
            .replicas
            .iter()
            .filter(|r| self.unit_resident(&self.units[to], r.0, view))
            .min_by_key(|r| r.0)
            .copied()
        else {
            return false;
        };
        self.units[from].replicas.retain(|r| *r != rid);
        self.units[to].replicas.push(rid);
        actions.push(ReconfigAction::Moved { replica: rid });
        true
    }

    /// Applies a wholesale target allocation, minimizing replica movement.
    /// Placement-aware like [`MalbState::move_one`]: a growing unit only
    /// receives spares resident for it; spares no receiver can use stay
    /// inside the unit partition. `changed` reports *effective* movement —
    /// a spare shrunk out of a donor and parked straight back is a no-op,
    /// so a placement that blocks every growth cannot reset MALB's
    /// stability counter (which would permanently hold off §3 filter
    /// installation) or inflate the fast-realloc stat round after round.
    fn apply_target(
        &mut self,
        target: &[(GroupId, usize)],
        view: &ClusterView,
        actions: &mut Vec<ReconfigAction>,
    ) -> bool {
        let mut changed = false;
        // Shrink donors first, collecting spares with their donor unit.
        let mut spares: Vec<(ReplicaId, usize)> = Vec::new();
        for (g, want) in target {
            let unit = &mut self.units[g.0];
            while unit.replicas.len() > *want {
                let rid = unit.replicas.pop().expect("non-empty");
                spares.push((rid, g.0));
            }
        }
        spares.sort_unstable();
        // Then grow receivers. Under full replication every spare is
        // resident everywhere and this pops from the end exactly as the
        // historical code did (a donor never re-grows within one target,
        // so every placement is a real move there).
        for (g, want) in target {
            while self.units[g.0].replicas.len() < *want {
                let Some(pos) = spares
                    .iter()
                    .rposition(|(r, _)| self.unit_resident(&self.units[g.0], r.0, view))
                else {
                    break;
                };
                let (rid, donor) = spares.remove(pos);
                self.units[g.0].replicas.push(rid);
                if donor != g.0 {
                    changed = true;
                    actions.push(ReconfigAction::Moved { replica: rid });
                }
            }
        }
        // Leftover spares no receiver could use must stay inside the unit
        // partition: park each in the emptiest unit it is resident for
        // (emptiest overall when it is resident nowhere). Unreachable under
        // full replication — the balance targets sum to the replica count.
        for (rid, donor) in spares {
            let emptiest = |resident_only: bool| {
                (0..self.units.len())
                    .filter(|ui| {
                        !resident_only || self.unit_resident(&self.units[*ui], rid.0, view)
                    })
                    .min_by_key(|ui| (self.units[*ui].replicas.len(), *ui))
            };
            let home = emptiest(true)
                .or_else(|| emptiest(false))
                .expect("allocation targets imply at least one unit");
            self.units[home].replicas.push(rid);
            if home != donor {
                changed = true;
                actions.push(ReconfigAction::Moved { replica: rid });
            }
        }
        changed
    }

    /// Merges unit `b` into unit `a`: the pair shares `a`'s single replica;
    /// `b`'s replica goes to the most loaded other unit.
    fn merge_units(
        &mut self,
        a: usize,
        b: usize,
        view: &ClusterView,
        stats: &mut DispatchStats,
        actions: &mut Vec<ReconfigAction>,
    ) {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        let mut unit_b = self.units.remove(b);
        let freed: Vec<ReplicaId> = std::mem::take(&mut unit_b.replicas);
        self.units[a].groups.append(&mut unit_b.groups);
        stats.merges += 1;
        // Freed replica(s) reinforce the most loaded unit they are
        // *resident* for (placement-aware: a non-holder would reinforce
        // nothing); the overall most loaded unit when resident nowhere.
        let unit_loads = self.unit_loads(view);
        let mut by_load: Vec<&GroupLoads> = unit_loads.iter().collect();
        by_load.sort_by(|x, y| y.load.total_cmp(&x.load).then(x.group.cmp(&y.group)));
        for rid in freed {
            let most = by_load
                .iter()
                .find(|g| self.unit_resident(&self.units[g.group.0], rid.0, view))
                .or_else(|| by_load.first())
                .map(|g| g.group.0);
            if let Some(most) = most {
                self.units[most].replicas.push(rid);
                actions.push(ReconfigAction::Moved { replica: rid });
            }
        }
    }

    /// Splits a merged unit into its first group and the rest; the new unit
    /// takes one replica from the least future-loaded other unit.
    /// Placement-aware: the donated replica must be *resident* for the
    /// split-off group (under partial replication a non-holder could not
    /// serve it and dispatch would fall back); donor units with no such
    /// replica are passed over, and the split waits when none exists.
    fn split_unit(
        &mut self,
        ui: usize,
        view: &ClusterView,
        stats: &mut DispatchStats,
        actions: &mut Vec<ReconfigAction>,
    ) -> bool {
        let moved_group = *self.units[ui].groups.last().expect("merged unit");
        let split_off = Unit {
            groups: vec![moved_group],
            replicas: Vec::new(),
        };
        let unit_loads = self.unit_loads(view);
        let mut donors: Vec<&GroupLoads> = unit_loads
            .iter()
            .filter(|g| g.group.0 != ui && g.replicas > 1)
            .collect();
        donors.sort_by(|x, y| {
            x.future_load()
                .total_cmp(&y.future_load())
                .then(x.group.cmp(&y.group))
        });
        let rid = donors.iter().find_map(|donor| {
            self.units[donor.group.0]
                .replicas
                .iter()
                .filter(|r| self.unit_resident(&split_off, r.0, view))
                .min_by_key(|r| r.0)
                .copied()
                .map(|rid| (donor.group.0, rid))
        });
        let Some((donor_idx, rid)) = rid else {
            return false;
        };
        self.units[donor_idx].replicas.retain(|r| *r != rid);
        let moved_group = self.units[ui].groups.pop().expect("merged unit");
        self.units.push(Unit {
            groups: vec![moved_group],
            replicas: vec![rid],
        });
        stats.splits += 1;
        actions.push(ReconfigAction::Moved { replica: rid });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_storage::RelationId;

    /// A MALB balancer over types `0..sizes.len()`, where type `i` scans
    /// relation `i` of `sizes[i]` pages.
    fn malb(n_replicas: usize, sizes: &[u64], config: MalbConfig) -> LoadBalancer {
        let sets = (0..sizes.len() as u32)
            .map(|i| {
                let rels: RelationSet = [RelationId(i)].into_iter().collect();
                WorkingSet {
                    txn_type: TxnTypeId(i),
                    relations: rels,
                    scanned: rels,
                }
            })
            .collect();
        LoadBalancer::malb(n_replicas, sets, PageTable::from(sizes.to_vec()), config)
    }

    fn malb_config(capacity: u64) -> MalbConfig {
        MalbConfig::paper_default(EstimationMode::SizeContent, capacity)
    }

    /// Full replication's eligibility: every type anywhere.
    fn anywhere(_: TxnTypeId, _: usize) -> bool {
        true
    }

    /// An eligibility table: `rows[t][r]` is whether replica `r` may serve
    /// type `t`.
    fn table<'a>(rows: &'a [&'a [bool]]) -> impl Fn(TxnTypeId, usize) -> bool + 'a {
        move |t, r| rows[t.0 as usize][r]
    }

    #[test]
    fn least_connections_picks_min() {
        let mut lb = LoadBalancer::least_connections(3);
        let a = lb.dispatch(TxnTypeId(0), anywhere);
        let b = lb.dispatch(TxnTypeId(1), anywhere);
        let c = lb.dispatch(TxnTypeId(2), anywhere);
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        lb.complete(ReplicaId(1));
        assert_eq!(lb.dispatch(TxnTypeId(3), anywhere).0, 1);
    }

    #[test]
    #[should_panic(expected = "no open connection")]
    fn complete_without_dispatch_panics() {
        LoadBalancer::least_connections(2).complete(ReplicaId(0));
    }

    #[test]
    fn malb_routes_types_to_their_groups() {
        // Two disjoint 80-page types on a 100-page capacity → 2 groups.
        let mut lb = malb(4, &[80, 80], malb_config(100));
        let r0 = lb.dispatch(TxnTypeId(0), anywhere);
        let r1 = lb.dispatch(TxnTypeId(1), anywhere);
        // Same type always lands in the same unit's replica set.
        let a = lb.assignments();
        assert_eq!(a.len(), 2);
        let unit_of = |t: TxnTypeId| {
            a.iter()
                .find(|(types, _)| types.contains(&t))
                .unwrap()
                .1
                .clone()
        };
        assert!(unit_of(TxnTypeId(0)).contains(&r0));
        assert!(unit_of(TxnTypeId(1)).contains(&r1));
        // The two groups' replica sets are disjoint.
        assert!(unit_of(TxnTypeId(0))
            .iter()
            .all(|r| !unit_of(TxnTypeId(1)).contains(r)));
    }

    #[test]
    fn malb_all_replicas_assigned() {
        let lb = malb(16, &[80, 80, 30], malb_config(100));
        let total: usize = lb.assignments().iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn malb_more_groups_than_replicas_merges_seeds() {
        let lb = malb(3, &[90; 6], malb_config(100));
        let a = lb.assignments();
        assert!(a.len() <= 3, "units bounded by replicas: {}", a.len());
        let types: usize = a.iter().map(|(t, _)| t.len()).sum();
        assert_eq!(types, 6, "every type served");
        assert!(a.iter().all(|(_, r)| !r.is_empty()));
    }

    #[test]
    fn malb_rebalances_toward_loaded_group() {
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        let mut lb = malb(8, &[80, 80], cfg);
        // Unit of type 0 is hot; unit of type 1 idle.
        let hot: Vec<ReplicaId> = lb.assignments()[0].1.clone();
        for r in 0..8 {
            let load = if hot.contains(&ReplicaId(r)) {
                ResourceLoad {
                    cpu: 0.95,
                    disk: 0.2,
                }
            } else {
                ResourceLoad {
                    cpu: 0.05,
                    disk: 0.01,
                }
            };
            lb.report(ReplicaId(r), load);
        }
        let mut moved = 0;
        for s in 1..20 {
            let actions = lb.tick(SimTime::from_secs(s), anywhere);
            moved += actions
                .iter()
                .filter(|a| matches!(a, ReconfigAction::Moved { .. }))
                .count();
        }
        assert!(moved > 0, "allocation must shift replicas to the hot group");
        let a = lb.assignments();
        let hot_now = a.iter().find(|(t, _)| t.contains(&TxnTypeId(0))).unwrap();
        let cold_now = a.iter().find(|(t, _)| t.contains(&TxnTypeId(1))).unwrap();
        assert!(hot_now.1.len() > cold_now.1.len());
        assert!(!cold_now.1.is_empty(), "donor keeps at least one replica");
    }

    #[test]
    fn malb_merges_underutilized_singletons() {
        // Three disjoint 80-page types: none pack together at 100 pages, so
        // all start as singleton units. Units 0 and 1 are nearly idle (below
        // the both-idle bar), so they merge even though their union exceeds
        // memory — the paper accepts that risk and undoes it by splitting.
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        let mut lb = malb(3, &[80, 80, 80], cfg);
        // All three units singleton; two are nearly idle, one moderately hot.
        let a = lb.assignments();
        let unit_replica = |t: u32| {
            a.iter()
                .find(|(ts, _)| ts.contains(&TxnTypeId(t)))
                .unwrap()
                .1[0]
        };
        lb.report(
            unit_replica(0),
            ResourceLoad {
                cpu: 0.05,
                disk: 0.0,
            },
        );
        lb.report(
            unit_replica(1),
            ResourceLoad {
                cpu: 0.08,
                disk: 0.0,
            },
        );
        lb.report(
            unit_replica(2),
            ResourceLoad {
                cpu: 0.70,
                disk: 0.1,
            },
        );
        lb.tick(SimTime::from_secs(1), anywhere);
        assert_eq!(lb.stats().merges, 1);
        let after = lb.assignments();
        // Two units remain; the merged one serves two types on one replica.
        assert_eq!(after.len(), 2);
        let merged = after.iter().find(|(t, _)| t.len() == 2).unwrap();
        assert_eq!(merged.1.len(), 1);
        // The freed replica reinforced the hot unit.
        let hot = after
            .iter()
            .find(|(t, _)| t.contains(&TxnTypeId(2)))
            .unwrap();
        assert_eq!(hot.1.len(), 2);
    }

    #[test]
    fn malb_splits_contended_merge() {
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        let mut lb = malb(3, &[80, 80, 80], cfg);
        let a = lb.assignments();
        let unit_replica = |t: u32| {
            a.iter()
                .find(|(ts, _)| ts.contains(&TxnTypeId(t)))
                .unwrap()
                .1[0]
        };
        let merged_replica = unit_replica(0);
        lb.report(
            unit_replica(0),
            ResourceLoad {
                cpu: 0.05,
                disk: 0.0,
            },
        );
        lb.report(
            unit_replica(1),
            ResourceLoad {
                cpu: 0.08,
                disk: 0.0,
            },
        );
        lb.report(
            unit_replica(2),
            ResourceLoad {
                cpu: 0.70,
                disk: 0.1,
            },
        );
        lb.tick(SimTime::from_secs(1), anywhere);
        assert_eq!(lb.stats().merges, 1);
        // Now the merged replica becomes the hottest: memory contention.
        lb.report(
            merged_replica,
            ResourceLoad {
                cpu: 0.2,
                disk: 0.98,
            },
        );
        lb.report(
            unit_replica(2),
            ResourceLoad {
                cpu: 0.3,
                disk: 0.1,
            },
        );
        lb.tick(SimTime::from_secs(2), anywhere);
        assert_eq!(lb.stats().splits, 1, "contended merge must split");
        let after = lb.assignments();
        assert!(after.iter().all(|(t, _)| t.len() == 1));
    }

    #[test]
    fn malb_fast_realloc_on_drastic_change() {
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        let mut lb = malb(10, &[80, 80], cfg);
        // 5/5 split; group 0 at 70%, group 1 at 10%: needs 3.5 vs 0.5 →
        // ideal 8.75 / 1.25 → 9 / 1 after rounding.
        let a = lb.assignments();
        for (types, replicas) in &a {
            let load = if types.contains(&TxnTypeId(0)) {
                ResourceLoad {
                    cpu: 0.70,
                    disk: 0.0,
                }
            } else {
                ResourceLoad {
                    cpu: 0.10,
                    disk: 0.0,
                }
            };
            for r in replicas {
                lb.report(*r, load);
            }
        }
        lb.tick(SimTime::from_secs(1), anywhere);
        assert!(lb.stats().fast_reallocs >= 1);
        let after = lb.assignments();
        let hot = after
            .iter()
            .find(|(t, _)| t.contains(&TxnTypeId(0)))
            .unwrap();
        assert_eq!(hot.1.len(), 9, "balance equations give the hot group 9");
    }

    #[test]
    fn filters_install_after_stability() {
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        cfg.update_filtering = true;
        cfg.stable_rounds_for_filter = 3;
        cfg.min_copies = 1;
        let mut lb = malb(4, &[80, 80], cfg);
        // Balanced loads → no moves → stability accrues.
        for r in 0..4 {
            lb.report(
                ReplicaId(r),
                ResourceLoad {
                    cpu: 0.5,
                    disk: 0.4,
                },
            );
        }
        let mut filter_actions = Vec::new();
        for s in 1..10 {
            for act in lb.tick(SimTime::from_secs(s), anywhere) {
                if matches!(act, ReconfigAction::SetFilter { .. }) {
                    filter_actions.push(act);
                }
            }
        }
        assert_eq!(filter_actions.len(), 4, "one filter per replica");
        // Filters partition tables: replicas of group 0 keep table 0 only.
        let a = lb.assignments();
        let g0_replicas = &a.iter().find(|(t, _)| t.contains(&TxnTypeId(0))).unwrap().1;
        for act in &filter_actions {
            if let ReconfigAction::SetFilter { replica, tables } = act {
                let tables = tables.unwrap();
                if g0_replicas.contains(replica) {
                    assert!(tables.contains(RelationId(0)));
                    assert!(!tables.contains(RelationId(1)));
                }
            }
        }
        // Once filtered, allocation is frozen: further ticks do nothing.
        for r in 0..4 {
            lb.report(
                ReplicaId(r),
                ResourceLoad {
                    cpu: 0.9,
                    disk: 0.1,
                },
            );
        }
        let acts = lb.tick(SimTime::from_secs(30), anywhere);
        assert!(acts.is_empty());
    }

    #[test]
    fn failed_replica_excluded_from_dispatch() {
        let mut lb = LoadBalancer::least_connections(3);
        lb.replica_failed(ReplicaId(0));
        for _ in 0..10 {
            assert_ne!(lb.dispatch(TxnTypeId(0), anywhere).0, 0);
        }
        lb.replica_recovered(ReplicaId(0));
        let hits = (0..10)
            .filter(|_| lb.dispatch(TxnTypeId(0), anywhere).0 == 0)
            .count();
        assert!(hits > 0, "recovered replica serves again");
    }

    #[test]
    fn malb_survives_replica_failure() {
        let mut lb = malb(2, &[80, 80], malb_config(100));
        // Kill the replica of type 0's unit; dispatch falls back.
        let a = lb.assignments();
        let victim = a.iter().find(|(t, _)| t.contains(&TxnTypeId(0))).unwrap().1[0];
        lb.replica_failed(victim);
        let r = lb.dispatch(TxnTypeId(0), anywhere);
        assert_ne!(r, victim);
        assert_eq!(lb.stats().fallback, 1);
    }

    #[test]
    fn freeze_stops_rebalancing() {
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        let mut lb = malb(8, &[80, 80], cfg);
        lb.freeze();
        let hot: Vec<ReplicaId> = lb.assignments()[0].1.clone();
        for r in 0..8 {
            let load = if hot.contains(&ReplicaId(r)) {
                ResourceLoad {
                    cpu: 0.95,
                    disk: 0.2,
                }
            } else {
                ResourceLoad {
                    cpu: 0.05,
                    disk: 0.01,
                }
            };
            lb.report(ReplicaId(r), load);
        }
        for s in 1..10 {
            assert!(lb.tick(SimTime::from_secs(s), anywhere).is_empty());
        }
        assert_eq!(lb.stats().moves, 0);
    }

    #[test]
    fn eligibility_masks_restrict_every_policy() {
        // Replica 0 holds type 0's group; replica 2 holds type 1's.
        let masks: &[&[bool]] = &[&[true, false, false], &[false, false, true]];
        let make = |which: u8| -> LoadBalancer {
            match which {
                0 => LoadBalancer::least_connections(3),
                1 => LoadBalancer::lard(3, LardConfig::default()),
                _ => malb(3, &[40, 40], malb_config(100)),
            }
        };
        for which in 0..3 {
            let mut lb = make(which);
            for i in 0..12 {
                let t = TxnTypeId(i % 2);
                let choice = lb.dispatch(t, table(masks));
                let expect = if t.0 == 0 { 0 } else { 2 };
                assert_eq!(
                    choice.0, expect,
                    "policy {which} routed type {} to non-holder {}",
                    t.0, choice.0
                );
            }
        }
        // Clearing the masks restores unrestricted dispatch.
        let mut lb = make(0);
        lb.dispatch(TxnTypeId(0), anywhere);
        lb.dispatch(TxnTypeId(0), anywhere);
        assert!(lb.connections()[1] > 0, "replica 1 serves again");
    }

    #[test]
    fn every_policy_follows_the_predicate_at_once() {
        // Type 0 may run only on replica `r`. The predicate changes between
        // two dispatches and between two ticks with nothing installed in
        // between, and the next dispatch follows.
        let only = |r: usize| move |t: TxnTypeId, x: usize| t.0 != 0 || x == r;
        for which in 0..3 {
            let mut lb = match which {
                0 => LoadBalancer::least_connections(3),
                1 => LoadBalancer::lard(3, LardConfig::default()),
                _ => malb(3, &[40, 40], malb_config(100)),
            };
            for (s, r) in [0, 2, 0, 1].into_iter().enumerate() {
                assert_eq!(
                    lb.dispatch(TxnTypeId(0), only(r)).0,
                    r,
                    "policy {which}: dispatch {s}"
                );
                assert!(lb
                    .tick(SimTime::from_secs(s as u64 + 1), only(r))
                    .is_empty());
                assert_eq!(
                    lb.dispatch(TxnTypeId(0), only(r)).0,
                    r,
                    "policy {which}: dispatch after tick {s}"
                );
            }
            assert_eq!(lb.stats().fallback, 0, "policy {which}");
        }
    }

    #[test]
    fn malb_moves_follow_the_predicate_at_once() {
        // The hot/cold shape below, one tick at a time: while type 0 may
        // run only on its seed replicas {0, 2}, no donor replica is
        // resident and the tick moves nothing; the very next tick after
        // replica 3 becomes eligible moves it into type 0's unit.
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        let mut lb = malb(4, &[80, 80], cfg);
        let seeded: &[&[bool]] = &[&[true, false, true, false], &[true; 4]];
        let widened: &[&[bool]] = &[&[true, false, true, true], &[true; 4]];
        report_hot_cold(&mut lb);
        let before = lb.assignments();
        assert!(lb.tick(SimTime::from_secs(1), table(seeded)).is_empty());
        assert_eq!(lb.assignments(), before, "no resident donor: no move");
        let actions = lb.tick(SimTime::from_secs(2), table(widened));
        assert!(
            actions.contains(&ReconfigAction::Moved {
                replica: ReplicaId(3)
            }),
            "replica 3 moves once eligible: {actions:?}"
        );
        assert!(unit_of(&lb, TxnTypeId(0)).contains(&ReplicaId(3)));
    }

    /// The replica set of the unit serving type `t`.
    fn unit_of(lb: &LoadBalancer, t: TxnTypeId) -> Vec<ReplicaId> {
        lb.assignments()
            .iter()
            .find(|(types, _)| types.contains(&t))
            .expect("type has a unit")
            .1
            .clone()
    }

    /// Reports type 0's unit hot and every other replica cold.
    fn report_hot_cold(lb: &mut LoadBalancer) {
        let hot = unit_of(lb, TxnTypeId(0));
        for r in 0..lb.connections().len() {
            let load = if hot.contains(&ReplicaId(r)) {
                ResourceLoad {
                    cpu: 0.95,
                    disk: 0.2,
                }
            } else {
                ResourceLoad {
                    cpu: 0.05,
                    disk: 0.01,
                }
            };
            lb.report(ReplicaId(r), load);
        }
    }

    /// Drives the hot/cold load shape until the allocator reconfigures
    /// under the eligibility table `masks`, returning the replica sets of
    /// type 0's and type 1's units.
    fn tick_hot_cold(lb: &mut LoadBalancer, masks: &[&[bool]]) -> (Vec<ReplicaId>, Vec<ReplicaId>) {
        for s in 1..20 {
            report_hot_cold(lb);
            lb.tick(SimTime::from_secs(s), table(masks));
        }
        (unit_of(lb, TxnTypeId(0)), unit_of(lb, TxnTypeId(1)))
    }

    #[test]
    fn malb_moves_propose_only_holder_replicas_under_placement() {
        // Two disjoint groups on 4 replicas: the seed parks {0, 2} on type
        // 0's unit and {1, 3} on type 1's. Placement allows type 0 only on
        // replicas {0, 3}: when type 0's unit runs hot, the donor's
        // lowest-id replica (1) is *not* a holder — the placement-aware
        // chooser must hand over replica 3 instead, and replica 1 must
        // never enter the unit.
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        let mut lb = malb(4, &[80, 80], cfg);
        let masks: &[&[bool]] = &[&[true, false, false, true], &[false, true, true, true]];
        let (hot_unit, cold_unit) = tick_hot_cold(&mut lb, masks);
        assert!(
            hot_unit.contains(&ReplicaId(3)),
            "the holder replica must reinforce the hot unit: {hot_unit:?}"
        );
        assert!(
            !hot_unit.contains(&ReplicaId(1)),
            "a non-holder must never be parked in the unit: {hot_unit:?}"
        );
        assert!(
            cold_unit.contains(&ReplicaId(1)),
            "the non-holder stays with its own unit: {cold_unit:?}"
        );
    }

    #[test]
    fn malb_moves_wait_when_no_holder_donor_exists() {
        // Type 0 lives only on replica 0: no donor replica can serve the
        // hot unit, so the chooser proposes nothing — membership is stable
        // instead of parking useless non-holders (the dispatch-intersection
        // fallback shape this chooser exists to cut).
        let mut cfg = malb_config(100);
        cfg.rebalance_period = SimTime::from_secs(1);
        let mut lb = malb(4, &[80, 80], cfg);
        let masks: &[&[bool]] = &[&[true, false, false, false], &[false, true, true, true]];
        let before = lb.assignments();
        let (hot_unit, _) = tick_hot_cold(&mut lb, masks);
        assert_eq!(
            hot_unit,
            before
                .iter()
                .find(|(t, _)| t.contains(&TxnTypeId(0)))
                .unwrap()
                .1,
            "no holder donor: the unit must keep its seed membership"
        );
    }
}
