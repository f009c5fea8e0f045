//! Faults: replica crashes and recoveries, the heartbeat detector's rounds
//! and transitions, the suspicion sweep, and link partitions.

use super::*;
use crate::components::HealthTransition;

impl ClusterState {
    /// Whether a partition currently severs the `a`–`b` link.
    pub(super) fn partitioned(&self, a: usize, b: usize) -> bool {
        self.partitions.contains(&(a.min(b), a.max(b)))
    }

    /// Records a fault that took effect at `now`, physically injected at
    /// `injected_at`, and traces it as `desc()`, which runs only when
    /// tracing is on.
    pub(super) fn record_fault(
        &mut self,
        now: SimTime,
        injected_at: SimTime,
        kind: FaultKind,
        desc: impl FnOnce() -> String,
    ) {
        self.metrics.record_fault(now, injected_at, kind);
        if self.tracer.on() {
            self.tracer.emit(now, TraceData::Fault { desc: desc() });
        }
    }

    /// Crashes a replica: cold cache, admission queue drained, every
    /// in-flight transaction lost with it. With the detector on that is
    /// all: the balancer learns of the crash only when heartbeats miss, and
    /// the requests open on it wait for the suspicion sweep, or for the
    /// recovery if that comes first. With it off,
    /// the crash instant applies what the detector's *Dead* and *Suspected*
    /// transitions apply, durability first: dispatch routes around the
    /// replica, any group left below `min_copies` live holders is
    /// re-replicated onto a survivor, and only then do the clients of its
    /// in-flight transactions retry — so dispatch always has a live holder.
    ///
    /// # Panics
    ///
    /// Panics when `replica` is the last live replica: dispatch needs a
    /// target, so a fault plan that kills the whole cluster is a mis-built
    /// experiment — failing here beats garbage metrics later.
    pub(super) fn on_replica_crash(
        &mut self,
        now: SimTime,
        replica: usize,
        queue: &mut EventQueue<Ev>,
    ) {
        if !self.nodes[replica].is_up() {
            return;
        }
        let survivors = self
            .nodes
            .iter()
            .filter(|n| n.is_up() && n.id() != replica)
            .count();
        assert!(
            survivors > 0,
            "cannot crash replica {replica}: it is the last live replica \
             (at least one must stay up for dispatch)"
        );
        self.nodes[replica].crash();
        if self.fault_started[replica].is_none() {
            self.fault_started[replica] = Some(now);
        }
        self.record_fault(now, now, FaultKind::ReplicaCrash(replica), || {
            format!("crash replica={replica}")
        });
        if self.detection_on() {
            // The detector's transitions apply the rest once heartbeats miss.
            return;
        }
        self.lb.replica_failed(ReplicaId(replica));
        // *Dead*'s durability work before *Suspected*'s retries.
        self.cancel_copies_onto(replica);
        self.rereplicate_under_copied(now, replica, queue);
        self.sweep_suspected(now, replica, queue);
    }

    /// Recovers a crashed replica: the durable prefix (its applied version)
    /// survived, so §3 standard recovery replays only the writesets it
    /// missed from the certifier's persistent log — paying cold-cache page
    /// reads — then the replica rejoins dispatch.
    pub(super) fn on_replica_recover(
        &mut self,
        now: SimTime,
        replica: usize,
        queue: &mut EventQueue<Ev>,
    ) {
        if self.nodes[replica].is_up() {
            return;
        }
        if self.detection_on() {
            // The restarted proxy resets the connections its crash lost. A
            // replica suspected before it recovered was swept then and has
            // none left; one that recovers first would otherwise strand
            // those clients, since the suspicion sweep never comes.
            self.sweep_suspected(now, replica, queue);
        }
        // Checkpoint-lag crash model: the durable on-disk state is a
        // checkpoint `k` versions behind what the replica had applied when
        // it died, so the replay window covers that redo prefix *plus*
        // whatever committed while it was down.
        let k = self.config.checkpoint_lag;
        let node = &mut self.nodes[replica];
        let from = Version(node.applied().0.saturating_sub(k));
        node.recover(from);
        if k > 0 {
            let head = self.certifier.version();
            self.tracer.emit(
                now,
                TraceData::RedoStart {
                    replica,
                    from: from.0,
                    head: head.0,
                },
            );
        }
        // The replay's CPU and disk work is charged through the node's
        // queueing models at `now`, so transactions dispatched to the
        // rejoining replica queue behind it — the completion time itself
        // needs no separate event. Under partial replication the replay
        // carries pages only for held groups (the rest are version ticks).
        let (sent0, _) = self.certifier.propagation_bytes();
        let replay_done = {
            let node = &mut self.nodes[replica];
            self.certifier.catch_up(now, node, &self.placement)
        };
        let (sent1, _) = self.certifier.propagation_bytes();
        let bytes = sent1.saturating_sub(sent0);
        let us = replay_done.saturating_since(now);
        self.redo_bytes += bytes;
        self.redo_us += us;
        if k > 0 {
            self.tracer
                .emit(now, TraceData::RedoDone { replica, bytes, us });
        }
        self.record_fault(now, now, FaultKind::ReplicaRecover(replica), || {
            format!("recover replica={replica}")
        });
        if self.detection_on() {
            // The replica does not answer heartbeats until the replay
            // drains; dispatch eligibility and the over-replication shrink
            // follow at the detector's *Trusted* transition, never from
            // oracle knowledge.
            self.recovering_until[replica] = replay_done;
            return;
        }
        self.lb.replica_recovered(ReplicaId(replica));
        // The crash-time re-replication widened holder sets to keep
        // `min_copies` *live* copies; this recovery may leave groups
        // over-replicated. Shrink back so placement converges instead of
        // ratcheting wider with every crash/recover cycle.
        self.shrink_over_replicated(now);
    }

    /// One heartbeat round: the balancer pings every replica, the probe
    /// pairs occupy the control-side NIC, and the answers feed the
    /// per-replica accrual counters. The resulting transitions — and only
    /// they — change dispatch eligibility, retry in-flight work, trigger
    /// re-replication, or restore trust.
    pub(super) fn on_heartbeat_tick(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        let period = self.config.heartbeat_period_us;
        if period == 0 {
            return;
        }
        let n = self.config.replicas;
        // The round's ping/ack pairs serialize on the control-side NIC:
        // certification requests arriving behind them wait, in every group
        // — detection is cheap, not free. They are not propagation traffic,
        // so the link's byte counters are untouched.
        self.certifier.engine.occupy(now, n as u64);
        let reachable: Vec<bool> = (0..n)
            .map(|r| {
                self.nodes[r].is_up()
                    && !self.partitioned(CONTROL_NODE, r)
                    && now >= self.recovering_until[r]
            })
            .collect();
        for tr in self.detector.observe_heartbeats(&reachable) {
            self.apply_health_transition(now, tr, queue);
        }
        queue.schedule(now + period, Ev::HeartbeatTick);
    }

    /// Applies one detector transition's cluster-side consequences.
    fn apply_health_transition(
        &mut self,
        now: SimTime,
        tr: HealthTransition,
        queue: &mut EventQueue<Ev>,
    ) {
        match tr {
            HealthTransition::Miss { replica, misses } => {
                self.tracer
                    .emit(now, TraceData::HeartbeatMiss { replica, misses });
            }
            HealthTransition::Suspected { replica, misses } => {
                let injected = self.fault_started[replica].unwrap_or(now);
                self.metrics
                    .record_fault(now, injected, FaultKind::ReplicaSuspected(replica));
                self.tracer
                    .emit(now, TraceData::Suspect { replica, misses });
                // Out of dispatch and MALB eligibility; in-flight work
                // retries on survivors. Re-replication waits for *Dead* —
                // a false suspicion must cost a filter-widen, not a copy.
                self.lb.replica_failed(ReplicaId(replica));
                self.sweep_suspected(now, replica, queue);
            }
            HealthTransition::Dead { replica } => {
                let injected = self.fault_started[replica].unwrap_or(now);
                self.record_fault(now, injected, FaultKind::ReplicaDead(replica), || {
                    format!("dead replica={replica}")
                });
                self.cancel_copies_onto(replica);
                self.rereplicate_under_copied(now, replica, queue);
            }
            HealthTransition::Trusted { replica, was_dead } => {
                let injected = self.fault_started[replica].unwrap_or(now);
                self.fault_started[replica] = None;
                self.metrics
                    .record_fault(now, injected, FaultKind::ReplicaTrusted(replica));
                self.tracer.emit(now, TraceData::Unsuspect { replica });
                // The cheap rejoin: dispatch eligibility back on. Only a
                // wrongly-declared death needs placement work — shrinking
                // whatever re-replication over-copied.
                self.lb.replica_recovered(ReplicaId(replica));
                if was_dead {
                    self.shrink_over_replicated(now);
                }
            }
        }
    }

    /// Retries the requests open on `replica` on survivors, in `TxnId`
    /// order, at its *Suspected* transition (or at its recovery, when that
    /// comes first) or, with the detector off, at its crash. A request a
    /// client timeout already took was retried then and keeps its one
    /// retry. A merely unreachable (still up) replica may still be running
    /// the swept attempts: their completions free only the Gatekeeper
    /// slots the node holds.
    fn sweep_suspected(&mut self, now: SimTime, replica: usize, queue: &mut EventQueue<Ev>) {
        let mut orphans: Vec<(TxnId, usize)> = self
            .txns
            .iter()
            .flatten()
            .filter(|meta| meta.replica == replica)
            .map(|meta| (meta.txn, meta.client))
            .collect();
        orphans.sort_unstable();
        for (txn, client) in orphans {
            let meta = self
                .take_request(client, txn)
                .expect("a swept client still waits on its attempt");
            if meta.retries < MAX_RETRIES {
                let retries = meta.retries + 1;
                self.submit_txn(now, client, meta.txn_type, meta.arrived, retries, queue);
            } else {
                self.give_up(now, &meta, now, queue);
            }
        }
    }

    /// Installs a partition between `a` and `b`: messages between them drop
    /// until `heal_at`. Partitioning a replica against [`CONTROL_NODE`]
    /// severs it from heartbeats, certification, and propagation without
    /// killing it — the false-suspicion injection.
    pub(super) fn on_link_partition(
        &mut self,
        now: SimTime,
        a: usize,
        b: usize,
        heal_at: SimTime,
        queue: &mut EventQueue<Ev>,
    ) {
        let pair = (a.min(b), a.max(b));
        if !self.partitions.contains(&pair) {
            self.partitions.push(pair);
            // The fault clock detection latency is measured from starts
            // the moment a replica loses its control link (`CONTROL_NODE`
            // is `usize::MAX`, so it always normalizes to `pair.1`).
            if pair.1 == CONTROL_NODE
                && pair.0 < self.config.replicas
                && self.fault_started[pair.0].is_none()
            {
                self.fault_started[pair.0] = Some(now);
            }
            self.record_fault(
                now,
                now,
                FaultKind::Partition {
                    a: pair.0,
                    b: pair.1,
                },
                || {
                    format!(
                        "partition {}<->{}",
                        endpoint_name(pair.0),
                        endpoint_name(pair.1)
                    )
                },
            );
        }
        queue.schedule(heal_at, Ev::LinkHeal { a, b });
    }

    /// Removes a partition; traffic between the pair flows again. Trust is
    /// *not* restored here — the detector re-trusts the replica only once
    /// heartbeats actually answer again.
    pub(super) fn on_link_heal(&mut self, now: SimTime, a: usize, b: usize) {
        let pair = (a.min(b), a.max(b));
        if let Some(i) = self.partitions.iter().position(|p| *p == pair) {
            self.partitions.remove(i);
            self.record_fault(
                now,
                now,
                FaultKind::PartitionHealed {
                    a: pair.0,
                    b: pair.1,
                },
                || format!("heal {}<->{}", endpoint_name(pair.0), endpoint_name(pair.1)),
            );
        }
    }
}

/// Human-readable partition endpoint for trace descriptions.
fn endpoint_name(n: usize) -> String {
    if n == CONTROL_NODE {
        "ctl".to_string()
    } else {
        n.to_string()
    }
}
