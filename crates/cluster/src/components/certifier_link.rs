//! The replicas' round-trip to the certifier.

use std::collections::VecDeque;

use tashkent_certifier::{
    CertMap, Certifier, CertifierGroup, CertifierParams, GroupEvent, LogView, PropagationAction,
    PropagationPolicy,
};
use tashkent_engine::{TxnId, Version, Writeset, WS_HEADER_BYTES, WS_ITEM_BYTES};
use tashkent_replica::ReplicaNode;
use tashkent_sim::{EventQueue, SimTime};
use tashkent_storage::RelationSet;

use crate::config::LAN_HOP_US;
use crate::events::Ev;
use crate::placement::{PlacementMap, WS_TICK_BYTES};
use crate::trace::{TraceData, Tracer};

/// A certification request parked while every member of a touched group is
/// dead — back-pressure instead of a spurious abort. Drained in arrival
/// order when a member restarts.
#[derive(Debug, Clone)]
struct WaitingCert {
    arrived: SimTime,
    replica: usize,
    txn: TxnId,
    ws: Writeset,
}

/// Fronts the [`Certifier`] engine with the leader/backup
/// [`CertifierGroup`] of each certifier group (§4.4 fault tolerance), the
/// propagation policy, and the per-replica contact bookkeeping, handling
/// both halves of the certification round-trip plus the periodic
/// propagation pulls.
///
/// Under partial replication the link is also the traffic gate: a committed
/// writeset's pages ship only to its holders; a non-holder receives a bare
/// version tick. The `sent`/`saved` byte counters measure exactly that
/// split (the node-side [`tashkent_replica::UpdateFilter`] then skips the
/// withheld items at zero cost, so behaviour and accounting agree).
///
/// When *every* member of a certifier group is dead, requests touching the
/// group park in a FIFO wait queue and drain — in arrival order — when a
/// member restarts ([`Ev::CertifierRestart`]): back-pressure, never
/// spurious aborts.
pub struct CertifierLink {
    /// The certification engine; the cluster state reads it for tests and
    /// metrics.
    pub(crate) engine: Certifier,
    /// Leader/backups membership, one per certifier group.
    members: Vec<CertifierGroup>,
    /// Queue-and-wait parking lot per certifier group (all members dead).
    parked: Vec<VecDeque<WaitingCert>>,
    propagation: PropagationPolicy,
    last_contact: Vec<SimTime>,
    traffic: Traffic,
}

impl CertifierLink {
    /// Builds the link for `replicas` nodes, [`LAN_HOP_US`] away, certifying
    /// with one group per group of `map`, each fronted by the paper's
    /// leader-plus-two-backups membership.
    pub fn new(params: CertifierParams, map: CertMap, replicas: usize) -> Self {
        let groups = map.group_count();
        CertifierLink {
            engine: Certifier::grouped(params, map, LAN_HOP_US),
            members: vec![CertifierGroup::paper_default(); groups],
            parked: vec![VecDeque::new(); groups],
            propagation: PropagationPolicy::default(),
            last_contact: vec![SimTime::ZERO; replicas],
            traffic: Traffic::default(),
        }
    }

    /// Cumulative propagation traffic `(shipped, saved)` in bytes: what was
    /// actually sent to replicas, and what partial replication withheld
    /// from non-holders. Saved is zero under full replication.
    pub fn propagation_bytes(&self) -> (u64, u64) {
        (self.traffic.sent, self.traffic.saved)
    }

    /// Membership and leadership of certifier group `g`.
    pub fn group_of(&self, g: usize) -> &CertifierGroup {
        &self.members[g]
    }

    /// Requests currently parked in queue-and-wait.
    pub fn waiting_certs(&self) -> usize {
        self.parked.iter().map(VecDeque::len).sum()
    }

    /// Kills member `member` of certifier group `group` (an index past the
    /// group count is ignored). A leader kill elects a backup and delays
    /// the group's responses until the new leader serves; the log — and
    /// thus every commit — survives (it is replicated to the backups).
    pub fn on_kill(&mut self, now: SimTime, group: usize, member: usize) -> Option<GroupEvent> {
        let ev = self.members.get_mut(group)?.kill(now, member);
        if let Some(GroupEvent::FailedOver { available_at, .. }) = ev {
            self.engine.defer(group, available_at);
        }
        ev
    }

    /// Restarts member `member` of certifier group `group` (an index past
    /// the group count is ignored). If the group had no live members, the
    /// restarted member is elected leader after the failover delay and the
    /// requests parked during the outage drain through it in arrival order.
    pub fn on_restart(
        &mut self,
        now: SimTime,
        group: usize,
        member: usize,
        tracer: &mut Tracer,
        queue: &mut EventQueue<Ev>,
    ) -> Option<GroupEvent> {
        let ev = self.members.get_mut(group)?.revive(now, member);
        if let Some(GroupEvent::FailedOver { available_at, .. }) = ev {
            self.engine.defer(group, available_at);
        }
        if self.members[group].is_available() {
            for w in std::mem::take(&mut self.parked[group]) {
                // Re-certify at the original arrival time: the failover gap
                // defers the service start, so drained requests serve after
                // the election in their original FIFO order.
                self.on_send(w.arrived, w.replica, w.txn, w.ws, tracer, queue);
            }
        }
        ev
    }

    /// Head of the global commit order.
    pub fn version(&self) -> Version {
        self.engine.version()
    }

    /// The snapshots of the requests parked in queue-and-wait, which the
    /// certifier still has to check against the log.
    pub(crate) fn parked_snapshots(&self) -> impl Iterator<Item = Version> + '_ {
        self.parked.iter().flatten().map(|w| w.ws.snapshot.version)
    }

    /// Certifies an arriving writeset and schedules the response back to the
    /// origin replica: the commit version once durable, or a conflict. The
    /// `certify` trace event is stamped when the answer leaves the
    /// certifier, one LAN hop before the response arrives. A request
    /// touching a fully-dead group parks in its wait queue instead.
    pub fn on_send(
        &mut self,
        now: SimTime,
        replica: usize,
        txn: TxnId,
        ws: Writeset,
        tracer: &mut Tracer,
        queue: &mut EventQueue<Ev>,
    ) {
        let groups = self.engine.groups_of(&ws);
        let dead = (0..self.members.len())
            .find(|&g| groups >> g & 1 == 1 && !self.members[g].is_available());
        if let Some(g) = dead {
            self.parked[g].push_back(WaitingCert {
                arrived: now,
                replica,
                txn,
                ws,
            });
            return;
        }
        let answer = self.engine.answer(now, &ws, groups);
        tracer.emit(
            answer.at,
            TraceData::Certify {
                txn: txn.0,
                groups,
                committed: answer.version.is_some(),
                version: answer.version.map(|v| v.0),
            },
        );
        queue.schedule(
            answer.at + LAN_HOP_US,
            Ev::CertifyReturn {
                replica,
                txn,
                version: answer.version,
            },
        );
        self.last_contact[replica] = answer.arrived;
    }

    /// The commit half of the response path: applies the intervening remote
    /// writesets on the origin replica, commits locally, and returns when
    /// the replica is done.
    ///
    /// A propagation pull may already have advanced the replica past this
    /// version (applying our own writeset as if remote — harmless, the pages
    /// are identical); the local commit only happens when the version is
    /// still ahead.
    pub fn on_return_commit(
        &mut self,
        now: SimTime,
        node: &mut ReplicaNode,
        version: Version,
        placement: &PlacementMap,
    ) -> SimTime {
        if node.applied() >= version {
            return now;
        }
        let pending = self.engine.log().since(node.applied()).before(version);
        let done = self.traffic.deliver(now, node, pending, placement);
        node.commit_local(version);
        done
    }

    /// Recovery catch-up (§3 standard recovery): replays onto `node` every
    /// writeset it missed from the certifier's persistent log, in commit
    /// order, and returns when the replay work completes. The node's cold
    /// cache pays the page reads back through its disk model. Under partial
    /// replication only held groups travel as pages — the rest of the log
    /// reaches the node as version ticks its filter skips for free.
    pub fn catch_up(
        &mut self,
        now: SimTime,
        node: &mut ReplicaNode,
        placement: &PlacementMap,
    ) -> SimTime {
        let pending = self.engine.log().since(node.applied());
        // An empty log tail skips the node: applying it would still queue
        // behind the node's CPU.
        let done = if pending.is_empty() {
            now
        } else {
            self.traffic.deliver(now, node, pending, placement)
        };
        self.last_contact[node.id()] = now;
        done
    }

    /// The version a backfill onto `node` must reach: its applied version
    /// (later entries arrive through normal propagation once its filter
    /// widens). Fixed when a backfill starts, so the chunks have a stable
    /// target.
    pub fn backfill_upto(&self, node: &ReplicaNode) -> Version {
        node.applied().min(self.version())
    }

    /// One slice of a backfill (partial replication): re-applies the log
    /// entries with versions in `(from, upto]` whose items touch `rels`, so
    /// the node's pages for those relations are current, stopping once the
    /// shipped bytes reach `max_bytes` (always making progress past at
    /// least one shipping entry, so a tiny cap cannot stall the copy
    /// forever; `u64::MAX` ships the whole range). Returns
    /// `(done, shipped_bytes, next)` — the last version the slice covered;
    /// the backfill is finished when `next == upto`.
    pub fn backfill_chunk(
        &mut self,
        now: SimTime,
        node: &mut ReplicaNode,
        rels: RelationSet,
        from: Version,
        upto: Version,
        max_bytes: u64,
    ) -> (SimTime, u64, Version) {
        let log = self.engine.log().since(from).before(upto.next());
        // Header + per-item bytes for the entries that ship anything;
        // entries touching none of `rels` are free to skip.
        let mut end = 0;
        let mut bytes = 0u64;
        let mut shipped_any = false;
        while end < log.len() {
            let items = log
                .get(end)
                .1
                .iter()
                .filter(|i| rels.contains(i.rel()))
                .count() as u64;
            let cost = if items > 0 {
                WS_HEADER_BYTES + items * WS_ITEM_BYTES
            } else {
                0
            };
            if shipped_any && bytes.saturating_add(cost) > max_bytes {
                break;
            }
            bytes = bytes.saturating_add(cost);
            shipped_any |= cost > 0;
            end += 1;
            if bytes >= max_bytes {
                break;
            }
        }
        let done = node.backfill_writesets(now, log.slice(0..end), rels);
        let next = Version(from.0 + end as u64);
        self.traffic.sent += bytes;
        self.last_contact[node.id()] = now;
        (done, bytes, next)
    }

    /// Periodic propagation: pulls (or prods) pending writesets onto a
    /// replica per the paper's 500 ms / 25-commit rules. The trigger reads
    /// the *global* log head — certifier groups share one propagation
    /// stream, since replicas apply the global order.
    pub fn maintenance_pull(
        &mut self,
        now: SimTime,
        node: &mut ReplicaNode,
        placement: &PlacementMap,
    ) {
        let action = self.propagation.decide(
            now,
            self.last_contact[node.id()],
            node.applied(),
            self.version(),
        );
        if action == PropagationAction::None {
            return;
        }
        let pending = self.engine.log().since(node.applied());
        if !pending.is_empty() {
            self.traffic.deliver(now, node, pending, placement);
            self.last_contact[node.id()] = now;
        }
    }
}

/// Writeset bytes on the link.
#[derive(Default)]
struct Traffic {
    /// Bytes actually shipped to replicas (holder items, headers, version
    /// ticks, backfill traffic).
    sent: u64,
    /// Bytes withheld from non-holders — traffic saved vs full replication.
    saved: u64,
}

impl Traffic {
    /// Delivers `pending` writesets to `node`, counts the bytes, and returns
    /// when the node has applied them. A replica holding at least one of a
    /// writeset's relations receives the held items (header + per-item
    /// bytes); one holding none of them receives only a version tick. Under
    /// full replication every relation is held everywhere, so everything
    /// ships and nothing is saved.
    fn deliver(
        &mut self,
        now: SimTime,
        node: &mut ReplicaNode,
        pending: LogView<'_>,
        placement: &PlacementMap,
    ) -> SimTime {
        for (_, items) in pending {
            let total = items.len() as u64;
            let held = items
                .iter()
                .filter(|i| placement.holds(node.id(), i.rel()))
                .count() as u64;
            if total > 0 && held == 0 {
                self.sent += WS_TICK_BYTES;
                self.saved += WS_HEADER_BYTES + total * WS_ITEM_BYTES - WS_TICK_BYTES;
            } else {
                self.sent += WS_HEADER_BYTES + held * WS_ITEM_BYTES;
                self.saved += (total - held) * WS_ITEM_BYTES;
            }
        }
        node.apply_writesets(now, pending)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use tashkent_engine::{Snapshot, TxnTypeId, WritesetItem};
    use tashkent_storage::RelationId;

    use super::*;

    /// A one-replica link with `groups` certifier groups, relation `r`
    /// owned by group `r`.
    fn link(groups: u32, params: CertifierParams) -> CertifierLink {
        let sets: Vec<RelationSet> = (0..groups)
            .map(|r| [RelationId(r)].into_iter().collect())
            .collect();
        CertifierLink::new(params, CertMap::build(&sets, groups as usize), 1)
    }

    /// A writeset at snapshot 0 writing row 1 of each of `rels`.
    fn ws(txn: u64, rels: &[u32]) -> Writeset {
        let items = rels
            .iter()
            .map(|&r| WritesetItem::new(RelationId(r), 1))
            .collect();
        Writeset::new(TxnId(txn), TxnTypeId(0), Snapshot::at(Version(0)), items)
    }

    #[test]
    fn heartbeat_nic_time_delays_every_group() {
        // A one-microsecond group-commit window keeps the commit's
        // durability from rounding the delay away.
        let params = CertifierParams {
            group_window_us: 1,
            ..CertifierParams::default()
        };
        let t = SimTime::from_millis(5);
        let answered = |charge: bool| {
            let mut link = link(4, params);
            if charge {
                link.engine.occupy(t, 16);
            }
            let mut queue = EventQueue::new();
            link.on_send(
                t,
                0,
                TxnId(1),
                ws(1, &[3]),
                &mut Tracer::disabled(),
                &mut queue,
            );
            queue.pop().expect("the answer is scheduled").0
        };
        assert_eq!(answered(true), answered(false) + 16);
    }

    #[test]
    fn certify_is_stamped_when_the_answer_leaves() {
        let mut link = link(4, CertifierParams::default());
        let mut tracer = Tracer::in_memory(64);
        let mut queue = EventQueue::new();
        let t = SimTime::from_micros(300);
        // A single-group commit, a cross-group commit, and a conflict with
        // the first (same row, stale snapshot).
        for (txn, rels) in [(1, &[0][..]), (2, &[1, 2]), (3, &[0])] {
            link.on_send(t, 0, TxnId(txn), ws(txn, rels), &mut tracer, &mut queue);
        }
        let mut returns = HashMap::new();
        while let Some((at, ev)) = queue.pop() {
            if let Ev::CertifyReturn { txn, version, .. } = ev {
                returns.insert(txn.0, (at, version));
            }
        }
        let stamps: Vec<(u64, u64, bool)> = tracer
            .events()
            .map(|e| match e.data {
                TraceData::Certify {
                    txn,
                    groups,
                    committed,
                    ..
                } => {
                    let (at, version) = returns[&txn];
                    assert_eq!(
                        e.at + LAN_HOP_US,
                        at,
                        "txn {txn}: stamp is not one hop before"
                    );
                    assert_eq!(committed, version.is_some());
                    (txn, groups, committed)
                }
                ref other => panic!("unexpected trace event {other:?}"),
            })
            .collect();
        assert_eq!(
            stamps,
            vec![(1, 0b1, true), (2, 0b110, true), (3, 0b1, false)]
        );
    }
}
