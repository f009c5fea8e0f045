//! The replicas' round-trip to the certifier.

use std::collections::VecDeque;

use tashkent_certifier::{
    CertShard, Certifier, CertifierGroup, CertifierParams, CertifyOutcome, CommitLog, GroupEvent,
    LogView, PropagationAction, PropagationPolicy, ShardCheck,
};
use tashkent_engine::{TxnId, Version, Writeset, WS_HEADER_BYTES, WS_ITEM_BYTES};
use tashkent_sim::{EventQueue, SimTime};
use tashkent_storage::RelationSet;

use crate::components::ClusterNode;
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
    groups: u64,
}

/// The sharded-certification engine: per-relation-group [`CertShard`]
/// service queues, per-group leader+backups membership, and the decide
/// state — the *global* total-order log, the conflict verdict, version
/// assignment, and each group's ascending list of global commit versions.
///
/// A single-group request first reserves its group's service time
/// ([`CertShard::reserve_check`]), then decides against the global log.
pub struct ShardedCert {
    params: CertifierParams,
    /// The global commit order. Conflict checks, propagation, recovery
    /// replay, and backfill all read this log, exactly as they read the
    /// unified certifier's.
    log: CommitLog,
    /// Per-group ascending global commit versions.
    group_commits: Vec<Vec<u64>>,
    /// Per-group check service queues.
    shards: Vec<CertShard>,
    /// Per-group leader/backups membership.
    groups: Vec<CertifierGroup>,
    /// Per-group queue-and-wait parking lot (all members dead).
    wait: Vec<VecDeque<WaitingCert>>,
    committed: u64,
    conflicts: u64,
    log_bytes: u64,
}

impl ShardedCert {
    fn new(params: CertifierParams, n: usize) -> Self {
        ShardedCert {
            params,
            log: CommitLog::default(),
            group_commits: vec![Vec::new(); n],
            shards: (0..n).map(|_| CertShard::new(params)).collect(),
            groups: (0..n).map(|_| CertifierGroup::paper_default()).collect(),
            wait: vec![VecDeque::new(); n],
            committed: 0,
            conflicts: 0,
            log_bytes: 0,
        }
    }

    /// The decide half of a single-group certification: the conflict
    /// verdict, global version assignment, log append, group-commit
    /// durability, and the response back to the origin replica. Returns the
    /// request's effective arrival time (for `last_contact`).
    #[allow(clippy::too_many_arguments)]
    fn decide_single(
        &mut self,
        g: usize,
        replica: usize,
        txn: TxnId,
        ws: Writeset,
        check: ShardCheck,
        lan_hop_us: u64,
        tracer: &mut Tracer,
        queue: &mut EventQueue<Ev>,
    ) -> SimTime {
        if self.log.conflicts(ws.snapshot.version, &ws.items) {
            self.conflicts += 1;
            tracer.emit(
                check.eff_now,
                TraceData::Certify {
                    txn: txn.0,
                    groups: 1 << g,
                    committed: false,
                    version: None,
                },
            );
            queue.schedule(
                check.eff_now + lan_hop_us,
                Ev::CertifyReturn {
                    replica,
                    txn,
                    version: None,
                },
            );
            return check.eff_now;
        }
        if ws.is_empty() {
            // Mirrors the unified certifier: an empty writeset commits at
            // the current global head, durable as soon as checked.
            tracer.emit(
                check.checked_at,
                TraceData::Certify {
                    txn: txn.0,
                    groups: 1 << g,
                    committed: true,
                    version: Some(self.log.head().0),
                },
            );
            queue.schedule(
                check.checked_at + lan_hop_us,
                Ev::CertifyReturn {
                    replica,
                    txn,
                    version: Some(self.log.head()),
                },
            );
            return check.eff_now;
        }
        let version = self.log.head().next();
        tracer.emit(
            check.checked_at,
            TraceData::Certify {
                txn: txn.0,
                groups: 1 << g,
                committed: true,
                version: Some(version.0),
            },
        );
        self.commit(&[g], &ws, check.checked_at, replica, txn, lan_hop_us, queue);
        check.eff_now
    }

    /// The cross-group atomic-commitment round: every touched group charges
    /// a vote (a conflict check on the items it owns) on its own queue, the
    /// decide waits for the slowest vote plus two LAN hops (vote collection
    /// and decision broadcast), and a commit lands in every touched group
    /// under one global version. The votes' OR is one scan of the log
    /// suffix (see `tashkent_certifier::sharded`). Returns the effective
    /// arrival time.
    #[allow(clippy::too_many_arguments)]
    fn decide_cross(
        &mut self,
        mask: u64,
        replica: usize,
        txn: TxnId,
        ws: Writeset,
        now: SimTime,
        lan_hop_us: u64,
        tracer: &mut Tracer,
        queue: &mut EventQueue<Ev>,
    ) -> SimTime {
        let touched: Vec<usize> = group_bits(mask).collect();
        let eff_now = touched
            .iter()
            .fold(now, |t, g| t.max(self.shards[*g].available_at()));
        // Votes: each group's check runs on its own shard queue, started at
        // the coordinated arrival time.
        let vote_done = touched.iter().fold(SimTime::ZERO, |t, g| {
            t.max(self.shards[*g].reserve_check(eff_now).checked_at)
        });
        let decide_at = vote_done + 2 * lan_hop_us;
        if self.log.conflicts(ws.snapshot.version, &ws.items) {
            self.conflicts += 1;
            tracer.emit(
                decide_at,
                TraceData::Certify {
                    txn: txn.0,
                    groups: mask,
                    committed: false,
                    version: None,
                },
            );
            queue.schedule(
                decide_at + lan_hop_us,
                Ev::CertifyReturn {
                    replica,
                    txn,
                    version: None,
                },
            );
            return eff_now;
        }
        tracer.emit(
            decide_at,
            TraceData::Certify {
                txn: txn.0,
                groups: mask,
                committed: true,
                version: Some(self.log.head().next().0),
            },
        );
        self.commit(&touched, &ws, decide_at, replica, txn, lan_hop_us, queue);
        eff_now
    }

    /// Shared commit tail: appends one entry to the global log and each
    /// touched group's version list, and schedules the durable response.
    #[allow(clippy::too_many_arguments)]
    fn commit(
        &mut self,
        touched: &[usize],
        ws: &Writeset,
        commit_point: SimTime,
        replica: usize,
        txn: TxnId,
        lan_hop_us: u64,
        queue: &mut EventQueue<Ev>,
    ) {
        let version = self.log.append(&ws.items);
        for &g in touched {
            self.group_commits[g].push(version.0);
        }
        self.committed += 1;
        self.log_bytes += ws.bytes();
        let w = self.params.group_window_us.max(1);
        let durable_at = SimTime::from_micros(
            commit_point.as_micros().div_ceil(w) * w + self.params.log_write_us,
        );
        queue.schedule(
            durable_at + lan_hop_us,
            Ev::CertifyReturn {
                replica,
                txn,
                version: Some(version),
            },
        );
    }
}

/// Iterator over the group indices set in a touched-groups bitmask.
fn group_bits(mask: u64) -> impl Iterator<Item = usize> {
    (0..64usize).filter(move |g| mask & (1 << g) != 0)
}

/// Wraps the certification engine — the unified [`Certifier`] or the
/// sharded per-group engine — together with the propagation policy, the
/// leader/backup [`CertifierGroup`]s (§4.4 fault tolerance), and the
/// per-replica contact bookkeeping, handling both halves of the
/// certification round-trip plus the periodic propagation pulls.
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
    certifier: Certifier,
    group: CertifierGroup,
    /// Certification requests arriving before this instant wait for the
    /// newly-elected leader (set by a leader kill's failover delay).
    available_at: SimTime,
    /// Unified-mode queue-and-wait parking lot (all members dead).
    wait: VecDeque<WaitingCert>,
    /// The sharded engine, when the cluster runs sharded certification.
    sharded: Option<ShardedCert>,
    propagation: PropagationPolicy,
    last_contact: Vec<SimTime>,
    lan_hop_us: u64,
    /// Writeset bytes actually shipped to replicas (holder items, headers,
    /// version ticks, backfill traffic).
    sent_bytes: u64,
    /// Writeset bytes withheld from non-holders — traffic saved vs full
    /// replication.
    saved_bytes: u64,
}

impl CertifierLink {
    /// Builds the link for `replicas` nodes, `lan_hop_us` away, fronted by
    /// the paper's leader-plus-two-backups certifier group.
    pub fn new(params: CertifierParams, replicas: usize, lan_hop_us: u64) -> Self {
        CertifierLink {
            certifier: Certifier::new(params),
            group: CertifierGroup::paper_default(),
            available_at: SimTime::ZERO,
            wait: VecDeque::new(),
            sharded: None,
            propagation: PropagationPolicy::default(),
            last_contact: vec![SimTime::ZERO; replicas],
            lan_hop_us,
            sent_bytes: 0,
            saved_bytes: 0,
        }
    }

    /// Builds the sharded-certification link: one leader+backups group and
    /// one [`CertShard`] per relation group (`groups` of them), each group's
    /// commit-version list, and the global log.
    pub fn new_sharded(
        params: CertifierParams,
        replicas: usize,
        lan_hop_us: u64,
        groups: usize,
    ) -> Self {
        let mut link = Self::new(params, replicas, lan_hop_us);
        link.sharded = Some(ShardedCert::new(params, groups));
        link
    }

    /// Cumulative propagation traffic `(shipped, saved)` in bytes: what was
    /// actually sent to replicas, and what partial replication withheld
    /// from non-holders. Saved is zero under full replication.
    pub fn propagation_bytes(&self) -> (u64, u64) {
        (self.sent_bytes, self.saved_bytes)
    }

    /// Charges `us` of control-plane occupancy (a heartbeat round's
    /// ping/ack pairs) against the link's shared NIC: certification
    /// requests arriving before the probes drain wait behind them. Not
    /// propagation traffic, so the fingerprinted byte counters are
    /// untouched.
    pub fn occupy_nic(&mut self, now: SimTime, us: u64) {
        self.available_at = self.available_at.max(now) + us;
    }

    /// The wrapped unified certifier (tests and metrics; meaningful only
    /// under unified certification — the sharded engine keeps its own log).
    pub fn inner(&self) -> &Certifier {
        &self.certifier
    }

    /// Membership and leadership of certifier group `g` (group 0 under
    /// unified certification).
    pub fn group_of(&self, g: usize) -> &CertifierGroup {
        match &self.sharded {
            Some(s) => &s.groups[g],
            None => &self.group,
        }
    }

    /// The (first) certifier group's membership and leadership.
    pub fn group(&self) -> &CertifierGroup {
        self.group_of(0)
    }

    /// Per-group ascending global commit versions (empty under unified
    /// certification) — part of the run's observable result.
    pub fn cert_group_commits(&self) -> Vec<Vec<u64>> {
        self.sharded
            .as_ref()
            .map_or_else(Vec::new, |s| s.group_commits.clone())
    }

    /// Sharded-certification activity counters `(committed, conflicts)`.
    pub fn cert_counts(&self) -> (u64, u64) {
        self.sharded
            .as_ref()
            .map_or((0, 0), |s| (s.committed, s.conflicts))
    }

    /// Requests currently parked in queue-and-wait (all modes).
    pub fn waiting_certs(&self) -> usize {
        self.wait.len()
            + self
                .sharded
                .as_ref()
                .map_or(0, |s| s.wait.iter().map(VecDeque::len).sum())
    }

    /// Kills member `member` of certifier group `group`. A leader kill
    /// elects a backup and delays the group's responses until the new
    /// leader serves; the log — and thus every commit — survives (it is
    /// replicated to the backups).
    pub fn on_kill(&mut self, now: SimTime, group: usize, member: usize) -> Option<GroupEvent> {
        match &mut self.sharded {
            Some(s) => {
                if group >= s.groups.len() {
                    return None;
                }
                let ev = s.groups[group].kill(now, member);
                if let Some(GroupEvent::FailedOver { available_at, .. }) = ev {
                    s.shards[group].set_available_at(available_at);
                }
                ev
            }
            None => {
                let ev = self.group.kill(now, member);
                if let Some(GroupEvent::FailedOver { available_at, .. }) = ev {
                    self.available_at = self.available_at.max(available_at);
                }
                ev
            }
        }
    }

    /// Restarts member `member` of certifier group `group`. If the group
    /// had no live members, the restarted member is elected leader after
    /// the failover delay and the requests parked during the outage drain
    /// through it in arrival order.
    pub fn on_restart(
        &mut self,
        now: SimTime,
        group: usize,
        member: usize,
        tracer: &mut Tracer,
        queue: &mut EventQueue<Ev>,
    ) -> Option<GroupEvent> {
        let (ev, drained) = match &mut self.sharded {
            Some(s) => {
                if group >= s.groups.len() {
                    return None;
                }
                let ev = s.groups[group].revive(now, member);
                if let Some(GroupEvent::FailedOver { available_at, .. }) = ev {
                    s.shards[group].set_available_at(available_at);
                }
                let drained = if s.groups[group].is_available() {
                    std::mem::take(&mut s.wait[group])
                } else {
                    VecDeque::new()
                };
                (ev, drained)
            }
            None => {
                let ev = self.group.revive(now, member);
                if let Some(GroupEvent::FailedOver { available_at, .. }) = ev {
                    self.available_at = self.available_at.max(available_at);
                }
                let drained = if self.group.is_available() {
                    std::mem::take(&mut self.wait)
                } else {
                    VecDeque::new()
                };
                (ev, drained)
            }
        };
        for w in drained {
            // Re-certify at the original arrival time: the failover gap
            // (`available_at`) defers the service start, so drained requests
            // serve after the election in their original FIFO order.
            self.on_send(w.arrived, w.replica, w.txn, w.ws, w.groups, tracer, queue);
        }
        ev
    }

    /// Head of the global commit order.
    pub fn version(&self) -> Version {
        self.log().head()
    }

    /// The global commit log.
    fn log(&self) -> &CommitLog {
        match &self.sharded {
            Some(s) => &s.log,
            None => self.certifier.log(),
        }
    }

    /// Certifies an arriving writeset and schedules the response back to the
    /// origin replica: the commit version once durable, or a conflict. A
    /// request touching a fully-dead group parks in its wait queue instead.
    ///
    /// `groups` is the touched-group bitmask stamped at send time (`0`
    /// under unified certification; nonzero masks require the sharded
    /// engine).
    #[allow(clippy::too_many_arguments)]
    pub fn on_send(
        &mut self,
        now: SimTime,
        replica: usize,
        txn: TxnId,
        ws: Writeset,
        groups: u64,
        tracer: &mut Tracer,
        queue: &mut EventQueue<Ev>,
    ) {
        if groups != 0 {
            self.on_send_sharded(now, replica, txn, ws, groups, tracer, queue);
            return;
        }
        if !self.group.is_available() {
            // Every member is dead: queue-and-wait — the request parks and
            // drains when a member restarts. Back-pressure, not an abort.
            self.wait.push_back(WaitingCert {
                arrived: now,
                replica,
                txn,
                ws,
                groups,
            });
            return;
        }
        // A request landing in a failover gap waits for the new leader.
        let now = now.max(self.available_at);
        match self.certifier.certify(now, ws) {
            CertifyOutcome::Committed {
                version,
                durable_at,
            } => {
                tracer.emit(
                    durable_at,
                    TraceData::Certify {
                        txn: txn.0,
                        groups: 0,
                        committed: true,
                        version: Some(version.0),
                    },
                );
                queue.schedule(
                    durable_at + self.lan_hop_us,
                    Ev::CertifyReturn {
                        replica,
                        txn,
                        version: Some(version),
                    },
                );
            }
            CertifyOutcome::Conflict => {
                tracer.emit(
                    now,
                    TraceData::Certify {
                        txn: txn.0,
                        groups: 0,
                        committed: false,
                        version: None,
                    },
                );
                queue.schedule(
                    now + self.lan_hop_us,
                    Ev::CertifyReturn {
                        replica,
                        txn,
                        version: None,
                    },
                );
            }
        }
        self.last_contact[replica] = now;
    }

    /// Sharded certification: a single-group request reserves the group's
    /// shard check then decides against the global log; a cross-group request
    /// runs the atomic-commitment round across the touched groups.
    #[allow(clippy::too_many_arguments)]
    fn on_send_sharded(
        &mut self,
        now: SimTime,
        replica: usize,
        txn: TxnId,
        ws: Writeset,
        groups: u64,
        tracer: &mut Tracer,
        queue: &mut EventQueue<Ev>,
    ) {
        let lan = self.lan_hop_us;
        let s = self
            .sharded
            .as_mut()
            .expect("nonzero group mask under unified certification");
        if let Some(g) = group_bits(groups).find(|g| !s.groups[*g].is_available()) {
            s.wait[g].push_back(WaitingCert {
                arrived: now,
                replica,
                txn,
                ws,
                groups,
            });
            return;
        }
        let eff_now = if groups.count_ones() == 1 {
            let g = groups.trailing_zeros() as usize;
            let check = s.shards[g].reserve_check(now);
            s.decide_single(g, replica, txn, ws, check, lan, tracer, queue)
        } else {
            s.decide_cross(groups, replica, txn, ws, now, lan, tracer, queue)
        };
        self.last_contact[replica] = eff_now;
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
        node: &mut ClusterNode,
        version: Version,
        placement: Option<&PlacementMap>,
    ) -> SimTime {
        if node.applied() >= version {
            return now;
        }
        let (done, sent, saved) = {
            let pending = self.log().since(node.applied()).before(version);
            let (sent, saved) = delivery_bytes(node.id(), pending, placement);
            (node.apply_writesets(now, pending), sent, saved)
        };
        self.sent_bytes += sent;
        self.saved_bytes += saved;
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
        node: &mut ClusterNode,
        placement: Option<&PlacementMap>,
    ) -> SimTime {
        let (done, sent, saved) = {
            let pending = self.log().since(node.applied());
            if pending.is_empty() {
                (now, 0, 0)
            } else {
                let (sent, saved) = delivery_bytes(node.id(), pending, placement);
                (node.apply_writesets(now, pending), sent, saved)
            }
        };
        self.sent_bytes += sent;
        self.saved_bytes += saved;
        self.last_contact[node.id()] = now;
        done
    }

    /// Re-replication backfill (partial replication): ships the log's items
    /// for `rels` — versions up to the node's applied version; later ones
    /// arrive through normal propagation once its filter widens — and
    /// re-applies them so the node's pages for those relations are current.
    /// Returns when the backfill work completes and the bytes it shipped.
    pub fn backfill(
        &mut self,
        now: SimTime,
        node: &mut ClusterNode,
        rels: RelationSet,
    ) -> (SimTime, u64) {
        let upto = self.backfill_upto(node);
        let (done, bytes, _) = self.backfill_chunk(now, node, rels, 0, upto, u64::MAX);
        (done, bytes)
    }

    /// The log index a backfill onto `node` must reach: its applied version
    /// (later entries arrive through normal propagation once its filter
    /// widens). Fixed when a staged backfill starts, so the chunks have a
    /// stable target.
    pub fn backfill_upto(&self, node: &ClusterNode) -> usize {
        (node.applied().0 as usize).min(self.log().len())
    }

    /// One bandwidth-capped slice of a backfill: re-applies log entries
    /// `[from, upto)` whose items touch `rels`, stopping once the shipped
    /// bytes reach `max_bytes` (always making progress past at least one
    /// shipping entry, so a tiny cap cannot stall the copy forever).
    /// Returns `(done, shipped_bytes, next_index)` — the chunk is finished
    /// when `next_index == upto`.
    pub fn backfill_chunk(
        &mut self,
        now: SimTime,
        node: &mut ClusterNode,
        rels: RelationSet,
        from: usize,
        upto: usize,
        max_bytes: u64,
    ) -> (SimTime, u64, usize) {
        let before = node.replica().stats();
        let (done, next) = {
            let log = self.log().since(Version(0));
            let upto = upto.min(log.len());
            let from = from.min(upto);
            // Pick the chunk end by the same byte formula the accounting
            // below uses: header + per-item bytes for the entries that ship
            // anything; entries touching none of `rels` are free to skip.
            let mut end = from;
            let mut used = 0u64;
            let mut shipped_any = false;
            while end < upto {
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
                if shipped_any && used.saturating_add(cost) > max_bytes {
                    break;
                }
                used = used.saturating_add(cost);
                shipped_any |= cost > 0;
                end += 1;
                if used >= max_bytes {
                    break;
                }
            }
            (
                node.backfill_writesets(now, log.slice(from..end), rels),
                end,
            )
        };
        // The node's backfill counters are the single source of truth for
        // what was actually re-applied; the shipped bytes derive from them.
        let after = node.replica().stats();
        let shipped_ws = after.writesets_backfilled - before.writesets_backfilled;
        let shipped_items = after.items_backfilled - before.items_backfilled;
        let bytes = shipped_ws * WS_HEADER_BYTES + shipped_items * WS_ITEM_BYTES;
        self.sent_bytes += bytes;
        self.last_contact[node.id()] = now;
        (done, bytes, next)
    }

    /// Periodic propagation: pulls (or prods) pending writesets onto a
    /// replica per the paper's 500 ms / 25-commit rules. The trigger reads
    /// the *global* log head in both certification modes — sharded groups
    /// share one propagation stream, since replicas apply the global order.
    pub fn maintenance_pull(
        &mut self,
        now: SimTime,
        node: &mut ClusterNode,
        placement: Option<&PlacementMap>,
    ) {
        let action = self.propagation.decide(
            now,
            self.last_contact[node.id()],
            node.applied(),
            self.version(),
        );
        if action != PropagationAction::None {
            let (applied, sent, saved) = {
                let pending = self.log().since(node.applied());
                if pending.is_empty() {
                    (false, 0, 0)
                } else {
                    let (sent, saved) = delivery_bytes(node.id(), pending, placement);
                    node.apply_writesets(now, pending);
                    (true, sent, saved)
                }
            };
            if applied {
                self.sent_bytes += sent;
                self.saved_bytes += saved;
                self.last_contact[node.id()] = now;
            }
        }
    }
}

/// The bytes delivering `pending` writesets to `replica` puts on the wire
/// `(shipped, saved)`: a replica holding at least one of a writeset's
/// relations receives the held items (header + per-item bytes); one holding
/// none of them receives only a version tick. Under full replication
/// (`placement` absent) everything ships and nothing is saved.
fn delivery_bytes(
    replica: usize,
    pending: LogView<'_>,
    placement: Option<&PlacementMap>,
) -> (u64, u64) {
    let (mut sent, mut saved) = (0u64, 0u64);
    for (_, items) in pending {
        let total = items.len() as u64;
        let held = match placement {
            None => total,
            Some(p) => items.iter().filter(|i| p.holds(replica, i.rel())).count() as u64,
        };
        if total > 0 && held == 0 {
            sent += WS_TICK_BYTES;
            saved += WS_HEADER_BYTES + total * WS_ITEM_BYTES - WS_TICK_BYTES;
        } else {
            sent += WS_HEADER_BYTES + held * WS_ITEM_BYTES;
            saved += (total - held) * WS_ITEM_BYTES;
        }
    }
    (sent, saved)
}
