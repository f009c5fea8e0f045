//! Copies of relation groups: re-replication, skew-driven migration, the
//! capped backfill that carries both, and the shrink back to `min_copies`.
//!
//! A copy is one [`BackfillTask`]. Only [`ClusterState::start_copy`],
//! [`ClusterState::cancel_copy`] and [`ClusterState::land_copy`] mark a
//! copy's relations pending or clear them, so after every event a
//! replica's pending relations are those of the copies still running onto
//! it, and each running copy's target holds its group.

use tashkent_storage::RelationSet;

use super::*;

/// Bytes shipped per [`Ev::BackfillChunk`] under a bandwidth cap. Small
/// enough that foreground propagation interleaves with a long copy, large
/// enough that the event count stays negligible next to transaction traffic.
const BACKFILL_CHUNK_BYTES: u64 = 64 * 1024;

/// One copy onto a target replica: a durability re-replication (crash or
/// explicit [`Ev::Rereplicate`]) or, when `drop_source` is set, a
/// skew-driven migration that sheds the donor once the copy lands. Tasks
/// are append-only for the run — `Ev::BackfillChunk { task }` indexes into
/// [`ClusterState::backfills`] — and a copy that lands or is cancelled
/// stays in place, ended.
pub(super) struct BackfillTask {
    group: usize,
    target: usize,
    /// Relations being copied (the ones the target did not already hold).
    rels: RelationSet,
    /// Last certifier-log version shipped.
    next: Version,
    /// Log version the copy must reach — fixed at task creation; later
    /// versions arrive through normal propagation (the filter is already
    /// widened), so a busy cluster cannot push completion out forever.
    upto: Version,
    /// Bytes shipped so far.
    bytes: u64,
    started: SimTime,
    /// Landed or cancelled: its relations are no longer pending.
    ended: bool,
    /// Migration donor: dropped from the holder set at completion (unless
    /// that would leave the group under-replicated).
    drop_source: Option<usize>,
}

impl ClusterState {
    /// Installs the placement's update filter on each replica in `changed`.
    /// Dispatch needs nothing installed: the balancer asks
    /// [`PlacementMap::eligible`] at every dispatch and tick.
    pub(super) fn apply_placement(&mut self, changed: impl IntoIterator<Item = usize>) {
        for r in changed {
            let filter = self.placement.filter_for(r);
            self.nodes[r].set_filter(filter);
        }
    }

    /// Whether `replica` is a sane re-replication participant: physically
    /// up *and* believed live by the detector. With the detector off the
    /// belief is always `Live`, so this reduces to `is_up()` — bit-exact
    /// with the oracle semantics.
    fn believed_live(&self, replica: usize) -> bool {
        self.nodes[replica].is_up() && self.detector.health(replica) == ReplicaHealth::Live
    }

    /// Starts a copy of `group` onto `target`, which does not hold it. The
    /// target becomes a holder *now* — its update filter widens, so the
    /// copy converges through foreground propagation while it backfills —
    /// and the relations it lacked go pending, which keeps it out of
    /// dispatch for the group's types until the copy lands. With no
    /// bandwidth cap (or nothing to ship) the whole log prefix is charged
    /// through the target's CPU/disk models at `now` and the copy lands at
    /// once, at the backfill's completion time. Under a cap the copy is
    /// staged through [`Ev::BackfillChunk`]s paced at
    /// `backfill_bytes_per_sec`, so the shipped pages compete with
    /// foreground propagation for the target's disk and the copy takes
    /// simulated time proportional to its volume. A migration names the
    /// donor to shed at landing as `drop_source`.
    fn start_copy(
        &mut self,
        now: SimTime,
        group: usize,
        target: usize,
        drop_source: Option<usize>,
        queue: &mut EventQueue<Ev>,
    ) {
        // Only the relations the target does not already hold through other
        // groups need backfilling — overlap makes close standbys cheap,
        // exactly like §3's standby choice — so they are read before the
        // target holds the group.
        let rels = self.placement.missing_relations(target, group);
        self.placement.add_holder(group, target);
        self.placement.mark_pending(target, rels);
        self.apply_placement([target]);
        let upto = self.certifier.backfill_upto(&self.nodes[target]);
        let task = self.backfills.len();
        self.backfills.push(BackfillTask {
            group,
            target,
            rels,
            next: Version::ZERO,
            upto,
            bytes: 0,
            started: now,
            ended: false,
            drop_source,
        });
        if self.config.backfill_bytes_per_sec == 0 || upto == Version::ZERO || rels.is_empty() {
            // Uncapped (or empty) copy: it lands *synchronously*, so a
            // crash-triggered re-replication leaves the new holder
            // dispatch-eligible before the orphan sweep retries its clients.
            let node = &mut self.nodes[target];
            let (done, bytes, next) =
                self.certifier
                    .backfill_chunk(now, node, rels, Version::ZERO, upto, u64::MAX);
            let t = &mut self.backfills[task];
            t.bytes = bytes;
            t.next = next;
            self.land_copy(done, task);
        } else {
            // The first chunk pays the request's LAN hop; each chunk then
            // paces itself by the bytes it actually shipped.
            queue.schedule(now + LAN_HOP_US, Ev::BackfillChunk { task });
        }
    }

    /// Cancels running copy `task`: its relations stop being pending and its
    /// target stops holding the group, so durability scans see the true
    /// copy counts. Returns the target; the caller applies the placement.
    fn cancel_copy(&mut self, task: usize) -> usize {
        let t = &mut self.backfills[task];
        t.ended = true;
        self.placement.complete_backfill(t.target, t.rels);
        self.placement.remove_holder(t.group, t.target);
        t.target
    }

    /// Cancels every running copy onto `replica`. Shared by the crash path,
    /// the detector's *Dead* transition, and the chunk handler's dead-target
    /// guard.
    pub(super) fn cancel_copies_onto(&mut self, replica: usize) {
        let mut cancelled = false;
        for task in 0..self.backfills.len() {
            let t = &self.backfills[task];
            if t.target == replica && !t.ended {
                self.cancel_copy(task);
                cancelled = true;
            }
        }
        if cancelled {
            self.apply_placement([replica]);
        }
    }

    /// Lands copy `task`: the target's relations stop being pending (it
    /// becomes dispatch-eligible at the next dispatch), the migration donor
    /// is shed when safe and its filter narrowed, and the fault is recorded
    /// with the shipped volume. A copy that already ended does nothing.
    pub(super) fn land_copy(&mut self, now: SimTime, task: usize) {
        let t = &mut self.backfills[task];
        if t.ended {
            return;
        }
        t.ended = true;
        let (group, target, rels, bytes, started, drop_source) =
            (t.group, t.target, t.rels, t.bytes, t.started, t.drop_source);
        self.migration_us += now.saturating_since(started);
        self.migration_bytes += bytes;
        // Migration: drop the donor now that the copy is complete — never
        // below `min_copies` holders (a concurrent crash may have shed
        // other copies since the migration started).
        let p = &mut self.placement;
        p.complete_backfill(target, rels);
        let dropped = drop_source
            .filter(|&src| p.holds_group(src, group) && p.holders(group).len() > p.min_copies());
        if let Some(src) = dropped {
            p.remove_holder(group, src);
        }
        self.apply_placement(dropped);
        let kind = match dropped {
            Some(from) => FaultKind::Migrate {
                group,
                from,
                to: target,
                bytes,
            },
            None => FaultKind::Rereplicate {
                group,
                to: target,
                bytes,
            },
        };
        self.metrics.record_fault(now, now, kind);
        self.tracer.emit(
            now,
            TraceData::BackfillDone {
                task,
                group,
                to: target,
                bytes,
            },
        );
    }

    /// Bytes shipped so far by the copies still running onto `replica`.
    pub(super) fn running_copy_bytes(&self, replica: usize) -> u64 {
        self.backfills
            .iter()
            .filter(|t| t.target == replica && !t.ended)
            .map(|t| t.bytes)
            .sum()
    }

    /// Ships one bandwidth-capped slice of copy `task` and schedules the
    /// next chunk (or the landing) paced by the cap.
    pub(super) fn on_backfill_chunk(
        &mut self,
        now: SimTime,
        task: usize,
        queue: &mut EventQueue<Ev>,
    ) {
        let t = &self.backfills[task];
        if t.ended {
            return;
        }
        let (target, rels, from, upto) = (t.target, t.rels, t.next, t.upto);
        // Detection mode: the oracle no longer cancels copies at crash time,
        // so a chunk may land on a target that died since the last one.
        // The copy died with the cache — cancel here rather than apply
        // pages to a corpse. (Unreachable with the detector off.)
        if !self.nodes[target].is_up() {
            self.cancel_copies_onto(target);
            return;
        }
        let node = &mut self.nodes[target];
        let (_applied_at, bytes, next) =
            self.certifier
                .backfill_chunk(now, node, rels, from, upto, BACKFILL_CHUNK_BYTES);
        let t = &mut self.backfills[task];
        t.bytes += bytes;
        t.next = next;
        self.tracer
            .emit(now, TraceData::BackfillChunk { task, bytes });
        let cap = self.config.backfill_bytes_per_sec.max(1);
        let delay = (bytes.saturating_mul(1_000_000) / cap).max(1);
        if next >= upto {
            // Completion pays the last chunk's transfer time too, so the
            // total copy duration scales inversely with the cap.
            queue.schedule(now + delay, Ev::BackfillDone { task });
        } else {
            queue.schedule(now + delay, Ev::BackfillChunk { task });
        }
    }

    /// Copies relation group `group` onto one more live replica; the fault
    /// is recorded when the copy lands, carrying the shipped bytes.
    ///
    /// The target is the live non-holder with the fewest placed pages (ties
    /// to the lowest id) — deterministic, so every run of a seed
    /// re-replicates identically. Returns the new holder, or `None` when there
    /// is no such group (full replication has none) or every believed-live
    /// replica already holds it.
    pub(super) fn rereplicate_group(
        &mut self,
        now: SimTime,
        group: usize,
        queue: &mut EventQueue<Ev>,
    ) -> Option<usize> {
        let p = &self.placement;
        if group >= p.group_count() {
            return None;
        }
        // Targets must be believed live — with the detector on, a
        // suspected-but-up replica is unreachable from the control side
        // and would receive a copy nobody can use; with it off this is
        // exactly the `is_up()` filter.
        let target = (0..self.config.replicas)
            .filter(|r| self.believed_live(*r) && !p.holds_group(*r, group))
            .min_by_key(|r| (p.held_pages(*r), *r))?;
        self.start_copy(now, group, target, None, queue);
        Some(target)
    }

    /// Re-replicates every group the dead `replica` holds that has fallen
    /// below `min_copies` believed-live holders (clamped by the number of
    /// believed-live replicas) — at its *Dead* transition, deferred from
    /// suspicion so a false suspicion never ships a byte, or at its crash
    /// with the detector off.
    pub(super) fn rereplicate_under_copied(
        &mut self,
        now: SimTime,
        replica: usize,
        queue: &mut EventQueue<Ev>,
    ) {
        let affected: Vec<usize> = (0..self.placement.group_count())
            .filter(|g| self.placement.holds_group(replica, *g))
            .collect();
        let live = (0..self.config.replicas)
            .filter(|r| self.believed_live(*r))
            .count();
        let target = self.placement.min_copies().min(live);
        for g in affected {
            loop {
                let live_holders = self
                    .placement
                    .holders(g)
                    .iter()
                    .filter(|r| self.believed_live(**r))
                    .count();
                if live_holders >= target || self.rereplicate_group(now, g, queue).is_none() {
                    break;
                }
            }
        }
    }

    /// Periodic skew check: when moving the hottest group off its busiest
    /// holder onto the idlest live non-holder lowers the holder's load
    /// ([`migration_lowers_donor`]), migrate it there — capped backfill
    /// onto the target, donor dropped at completion. Single-flight: no
    /// migration starts while any copy runs, so copy traffic stays bounded
    /// by the cap.
    pub(super) fn on_rebalance_tick(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        if !self.config.migration {
            return;
        }
        queue.schedule(now + MIGRATION_PERIOD.as_micros(), Ev::RebalanceTick);
        let migration = if self.backfills.iter().any(|t| !t.ended) {
            None
        } else {
            self.pick_migration()
        };
        self.tracer.emit(now, TraceData::Rebalance { migration });
        if let Some((hot, src, dst)) = migration {
            self.start_copy(now, hot, dst, Some(src), queue);
            // Restart the skew window so the next tick judges
            // post-migration traffic, not the history that triggered this
            // move.
            self.group_dispatches.fill(0);
            self.replica_dispatches.fill(0);
        }
    }

    /// Chooses the migration for this rebalance round as `(group, donor,
    /// target)`: hottest group by dispatch count, donor = its busiest live
    /// holder, target = idlest live non-holder, all ties to the lowest id.
    /// Returns `None` when there is no skew signal, no candidate pair (a
    /// full map has no non-holder), or the move would not lower the donor's
    /// load.
    fn pick_migration(&self) -> Option<(usize, usize, usize)> {
        let p = &self.placement;
        let n = self.config.replicas;
        let (hot, load) = self
            .group_dispatches
            .chunks(n)
            .map(|per_replica| per_replica.iter().sum::<u64>())
            .enumerate()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
        if load == 0 {
            return None;
        }
        let loads = self.lb.loads();
        let live = |r: &usize| self.nodes[*r].is_up();
        let src = p.holders(hot).iter().copied().filter(live).max_by(|a, b| {
            loads[*a]
                .bottleneck()
                .total_cmp(&loads[*b].bottleneck())
                .then(b.cmp(a))
        })?;
        let dst = (0..n)
            .filter(|r| live(r) && !p.holds_group(*r, hot))
            .min_by(|a, b| {
                loads[*a]
                    .bottleneck()
                    .total_cmp(&loads[*b].bottleneck())
                    .then(a.cmp(b))
            })?;
        migration_lowers_donor(
            loads[src].bottleneck(),
            loads[dst].bottleneck(),
            self.group_dispatches[hot * n + src],
            self.replica_dispatches[src],
        )
        .then_some((hot, src, dst))
    }

    /// Drops surplus holders until every group is back at exactly
    /// `min_copies` copies. Victims are chosen deterministically: first the
    /// target of a copy still running (the copy is cancelled — cheaper to
    /// abandon than to finish), then crashed holders (their pages are stale
    /// until replay anyway), then the live holder with the most placed
    /// pages; ties to the highest id. Dropping a holder only narrows its
    /// update filter — no transaction state is touched, so the shrink can
    /// never abort anything.
    pub(super) fn shrink_over_replicated(&mut self, now: SimTime) {
        if self.placement.is_full() {
            return;
        }
        let min_copies = self.placement.min_copies();
        for g in 0..self.placement.group_count() {
            while self.placement.holders(g).len() > min_copies {
                let running = self.backfills.iter().position(|t| t.group == g && !t.ended);
                let victim = match running {
                    Some(task) => self.cancel_copy(task),
                    None => {
                        let p = &self.placement;
                        let live_holders = p
                            .holders(g)
                            .iter()
                            .filter(|r| self.nodes[**r].is_up())
                            .count();
                        let victim = p
                            .holders(g)
                            .iter()
                            .copied()
                            .filter(|r| {
                                let up = self.nodes[*r].is_up();
                                // Never shed a live copy if that would
                                // leave fewer than `min_copies` live.
                                !up || live_holders > min_copies
                            })
                            .max_by_key(|r| {
                                let up = self.nodes[*r].is_up();
                                (!up, p.held_pages(*r), *r)
                            })
                            .expect("over-replicated group has a droppable holder");
                        self.placement.remove_holder(g, victim);
                        victim
                    }
                };
                self.apply_placement([victim]);
                self.record_fault(
                    now,
                    now,
                    FaultKind::ShrinkHolder {
                        group: g,
                        from: victim,
                    },
                    || format!("shrink group={g} holder={victim}"),
                );
            }
        }
    }
}

/// Whether migrating a group off a donor at bottleneck load `donor` onto a
/// target at `target` lowers the donor's load: the donor's share of the
/// group is its load times the group's fraction of its dispatches
/// (`donor_group` of `donor_all`), and the move pays only when the target
/// carrying that share stays below the donor's load now. A donor whose load
/// is all the group's never moves — the move would carry the hotspot
/// whole onto a colder cache.
fn migration_lowers_donor(donor: f64, target: f64, donor_group: u64, donor_all: u64) -> bool {
    let share = if donor_all == 0 {
        0.0
    } else {
        donor * donor_group as f64 / donor_all as f64
    };
    target + share < donor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{scenario, ScenarioKnobs};

    #[test]
    fn migration_moves_only_a_donor_carrying_other_load() {
        // All of the donor's dispatches were the hot group's: the target
        // would end up as loaded as the donor is now, even idle.
        assert!(!migration_lowers_donor(0.9, 0.0, 40, 40));
        assert!(!migration_lowers_donor(0.9, 0.5, 40, 40));
        // A quarter of them: the donor sheds 0.225, which an idle target
        // takes on and a target already at 0.7 cannot.
        assert!(migration_lowers_donor(0.9, 0.0, 10, 40));
        assert!(migration_lowers_donor(0.9, 0.6, 10, 40));
        assert!(!migration_lowers_donor(0.9, 0.7, 10, 40));
    }

    #[test]
    fn pending_relations_are_those_of_the_running_copies() {
        // A 512 B/s cap keeps copies running across the crash and the
        // recovery, which cancel some of them.
        let knobs = ScenarioKnobs {
            replicas: 4,
            clients_per_replica: 3,
            ..ScenarioKnobs::smoke()
        }
        .with_backfill_cap(Some(512));
        let exp = scenario("rebalance")
            .expect("registered")
            .experiment(&knobs)
            .with_injection(SimTime::from_secs(9), Ev::ReplicaCrash { replica: 1 })
            .with_injection(SimTime::from_secs(15), Ev::ReplicaRecover { replica: 1 });
        let (mut state, mut queue) = exp.build();
        while !state.ended() {
            let (now, ev) = queue.pop().expect("End event scheduled");
            state.handle(now, ev, &mut queue);
            for r in 0..state.config.replicas {
                let running = state
                    .backfills
                    .iter()
                    .filter(|t| t.target == r && !t.ended)
                    .fold(RelationSet::new(), |rels, t| rels.union(t.rels));
                assert_eq!(
                    state.placement.pending_relations(r),
                    running,
                    "replica {r} at {now:?}"
                );
            }
            for t in state.backfills.iter().filter(|t| !t.ended) {
                assert!(
                    state.placement.holds_group(t.target, t.group),
                    "copy of group {} onto {} runs on a non-holder at {now:?}",
                    t.group,
                    t.target
                );
            }
        }
        let landed = state
            .metrics
            .faults()
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    FaultKind::Rereplicate { .. } | FaultKind::Migrate { .. }
                )
            })
            .count();
        assert!(
            landed < state.backfills.len(),
            "some copy must be cancelled: {landed} of {} landed",
            state.backfills.len()
        );
    }
}
