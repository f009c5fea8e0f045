//! Deterministic run tracing: transaction lifecycle spans, per-replica
//! utilization timelines, and exportable trace artifacts.
//!
//! The [`Tracer`] records structured, simulated-time-stamped [`TraceEvent`]s
//! for every transaction's lifecycle (arrive → dispatch → execute steps →
//! certify → complete/abort/retry), periodic per-replica utilization
//! samples, and instant events for faults, balancer reconfigurations,
//! rebalance ticks, and backfill progress. Every emission site is a handler
//! invoked through [`crate::state::ClusterState::handle`], so events are
//! recorded in the deterministic event order. The full trace is therefore
//! **byte-equal across runs** of the same seed: a far finer-grained
//! determinism oracle than the [`crate::metrics::RunResult`] fingerprint,
//! and `tests/trace_equivalence.rs` enforces it as its own test axis.
//!
//! Two exporters serialize the ring buffer: [`Tracer::export_jsonl`]
//! (schema-stable JSON Lines, one event per line, closed by a `summary`
//! trailer) and [`Tracer::export_chrome`] (Chrome `trace_event` JSON —
//! lifecycle slices per replica/cert-group track, utilization counters,
//! instant markers — viewable in `chrome://tracing` or Perfetto). The
//! buffer is capped at [`TraceConfig::max_events`]; overflow drops the
//! *oldest* events and the drop count is surfaced in the summary trailer
//! and [`TraceSummary`] — never silent truncation. Tracing is disabled by
//! default and every emission is gated on [`Tracer::on`], so an untraced
//! run pays only a branch per site.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use tashkent_sim::SimTime;

/// Number of distinct [`TraceData`] kinds (indexes [`KIND_NAMES`]).
pub const NKINDS: usize = 17;

/// JSONL `"k"` tag per [`TraceData`] kind, indexed by [`TraceData::kind`].
pub const KIND_NAMES: [&str; NKINDS] = [
    "arrive",
    "dispatch",
    "step",
    "certify",
    "complete",
    "gaveup",
    "util",
    "fault",
    "lb",
    "rebalance",
    "backfill_chunk",
    "backfill_done",
    "suspect",
    "unsuspect",
    "heartbeat_miss",
    "redo_start",
    "redo_done",
];

/// What to trace and where to write it. Carried on
/// [`crate::config::ClusterConfig::trace`]; tracing is enabled exactly when
/// at least one output path is set.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// JSON Lines output path (one event object per line plus a `summary`
    /// trailer). `None` disables the JSONL exporter.
    pub jsonl_path: Option<String>,
    /// Chrome `trace_event` JSON output path (open in `chrome://tracing` or
    /// Perfetto). `None` disables the Chrome exporter.
    pub chrome_path: Option<String>,
    /// Ring-buffer capacity: when the run emits more events, the oldest are
    /// dropped and the drop count is surfaced in the summary trailer.
    pub max_events: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            jsonl_path: None,
            chrome_path: None,
            max_events: 1_000_000,
        }
    }
}

impl TraceConfig {
    /// Whether any exporter is configured (tracing records only then).
    pub fn enabled(&self) -> bool {
        self.jsonl_path.is_some() || self.chrome_path.is_some()
    }

    /// The same exporters, writing run `index` of a sweep: the index goes
    /// before the first extension of each file name (`fig.jsonl` becomes
    /// `fig.3.jsonl`, `fig.jsonl.chrome.json` becomes
    /// `fig.3.jsonl.chrome.json`, and `fig` becomes `fig.3`), so no two
    /// runs of the sweep write the same file.
    pub fn for_run(&self, index: usize) -> TraceConfig {
        let tag = |path: &String| {
            let name = path.rfind(std::path::is_separator).map_or(0, |i| i + 1);
            // A leading dot names a hidden file, not an extension.
            match path[name..].char_indices().skip(1).find(|&(_, c)| c == '.') {
                Some((dot, _)) => format!("{}.{index}{}", &path[..name + dot], &path[name + dot..]),
                None => format!("{path}.{index}"),
            }
        };
        TraceConfig {
            jsonl_path: self.jsonl_path.as_ref().map(tag),
            chrome_path: self.chrome_path.as_ref().map(tag),
            max_events: self.max_events,
        }
    }
}

/// One structured trace event payload. The variants mirror the JSONL
/// schema (see the README's Observability section for the field table).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceData {
    /// A transaction instance was submitted (fresh arrival, client retry
    /// after an abort, or re-dispatch after a crash orphaned it).
    Arrive {
        /// Transaction id (fresh per submission — retries get new ids).
        txn: u64,
        /// Closed-loop client index.
        client: usize,
        /// Workload transaction-type id.
        txn_type: u32,
        /// Human-readable type name (escaped by the exporters).
        type_name: String,
        /// Retry count so far (0 for a fresh arrival).
        retries: u32,
    },
    /// The balancer routed the transaction to a replica.
    Dispatch {
        /// Transaction id.
        txn: u64,
        /// Chosen replica.
        replica: usize,
    },
    /// One execution quantum on a replica.
    Step {
        /// Transaction id.
        txn: u64,
        /// Executing replica.
        replica: usize,
        /// `"exec"` (more quanta follow), `"done"` (read-only completion),
        /// or `"cert"` (writeset ready, certification request sent).
        outcome: &'static str,
        /// Timestamp (µs) of the follow-up event this step scheduled.
        next_at: u64,
        /// Writeset bytes when `outcome == "cert"`, else 0.
        ws_bytes: u64,
    },
    /// The certifier's answer to one request, stamped when it leaves the
    /// certifier (one LAN hop before the replica receives it).
    Certify {
        /// Transaction id.
        txn: u64,
        /// Bitmask of the certifier groups the writeset touches; never 0.
        groups: u64,
        /// Committed (`version` set) or conflict-aborted.
        committed: bool,
        /// Global commit version when committed.
        version: Option<u64>,
    },
    /// The transaction left the cluster: committed or abort-returned.
    Complete {
        /// Transaction id.
        txn: u64,
        /// Origin replica.
        replica: usize,
        /// Whether it committed (aborts go back to the client for retry).
        committed: bool,
        /// Client-perceived response time, µs (arrival → response).
        response_us: u64,
    },
    /// A transaction exhausted its retries and was abandoned.
    GaveUp {
        /// Transaction id of the final failed attempt.
        txn: u64,
        /// The abandoning client.
        client: usize,
    },
    /// Periodic per-replica utilization sample (1 s cadence).
    Util {
        /// Sampled replica.
        replica: usize,
        /// Smoothed CPU busy fraction from the load daemon.
        cpu: f64,
        /// Smoothed disk busy fraction from the load daemon.
        disk: f64,
        /// Admission (Gatekeeper) queue depth, running + queued.
        queue: usize,
        /// Resident buffer-pool bytes (working-set / memory estimate).
        resident_bytes: u64,
        /// Bytes shipped so far by in-flight backfills onto this replica.
        backfill_bytes: u64,
    },
    /// A fault took effect (crash, recovery, certifier failover, holder
    /// shrink).
    Fault {
        /// Human-readable description (escaped by the exporters).
        desc: String,
    },
    /// A balancer reconfiguration tick ran.
    Lb {
        /// Update filters the tick asked to install.
        filters: usize,
        /// MALB replica moves the tick performed.
        moves: usize,
    },
    /// A skew-driven rebalance tick ran.
    Rebalance {
        /// `Some((group, from, to))` when the tick started a migration.
        migration: Option<(usize, usize, usize)>,
    },
    /// One bandwidth-capped backfill chunk shipped.
    BackfillChunk {
        /// Backfill task index.
        task: usize,
        /// Bytes this chunk shipped.
        bytes: u64,
    },
    /// A backfill completed; its target became dispatch-eligible.
    BackfillDone {
        /// Backfill task index.
        task: usize,
        /// Relation group copied.
        group: usize,
        /// The replica that became a holder.
        to: usize,
        /// Total bytes the task shipped.
        bytes: u64,
    },
    /// The failure detector suspected a replica: it leaves dispatch and its
    /// in-flight transactions are retried on survivors.
    Suspect {
        /// The suspected replica.
        replica: usize,
        /// Consecutive missed heartbeats at the transition.
        misses: u32,
    },
    /// A suspected (or dead-declared) replica answered a heartbeat again
    /// and was restored to dispatch via a filter-widen.
    Unsuspect {
        /// The re-trusted replica.
        replica: usize,
    },
    /// A heartbeat went unanswered without (yet) changing the replica's
    /// detector state.
    HeartbeatMiss {
        /// The unresponsive replica.
        replica: usize,
        /// Consecutive misses so far.
        misses: u32,
    },
    /// A recovering replica started replaying its redo window from the
    /// certifier log (checkpoint-lag recovery).
    RedoStart {
        /// The recovering replica.
        replica: usize,
        /// Version the replica rewound to (`applied − k`).
        from: u64,
        /// Certifier log head it must replay up to.
        head: u64,
    },
    /// A recovering replica finished its redo replay.
    RedoDone {
        /// The recovered replica.
        replica: usize,
        /// Bytes the replay shipped.
        bytes: u64,
        /// Simulated replay duration, µs.
        us: u64,
    },
}

impl TraceData {
    /// Kind index into [`KIND_NAMES`] and the per-kind counters.
    pub fn kind(&self) -> usize {
        match self {
            TraceData::Arrive { .. } => 0,
            TraceData::Dispatch { .. } => 1,
            TraceData::Step { .. } => 2,
            TraceData::Certify { .. } => 3,
            TraceData::Complete { .. } => 4,
            TraceData::GaveUp { .. } => 5,
            TraceData::Util { .. } => 6,
            TraceData::Fault { .. } => 7,
            TraceData::Lb { .. } => 8,
            TraceData::Rebalance { .. } => 9,
            TraceData::BackfillChunk { .. } => 10,
            TraceData::BackfillDone { .. } => 11,
            TraceData::Suspect { .. } => 12,
            TraceData::Unsuspect { .. } => 13,
            TraceData::HeartbeatMiss { .. } => 14,
            TraceData::RedoStart { .. } => 15,
            TraceData::RedoDone { .. } => 16,
        }
    }

    /// The kind's JSONL `"k"` tag.
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind()]
    }
}

/// One recorded event: a simulated timestamp plus the structured payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Structured payload.
    pub data: TraceData,
}

/// Event counts for a run, attached to
/// [`crate::metrics::RunResult::trace_summary`]. It describes the
/// observation of the run rather than its outcome and is excluded from the
/// determinism fingerprints (the trace *bytes* have their own, stricter,
/// equality axis).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Total events emitted, including any later dropped by the ring cap.
    pub emitted: u64,
    /// Events retained in the buffer at run end.
    pub recorded: u64,
    /// Events the ring cap dropped (oldest first); 0 means the trace is
    /// complete.
    pub dropped: u64,
    /// Per-kind emission counts, `(kind name, count)`, nonzero kinds only.
    pub by_kind: Vec<(&'static str, u64)>,
}

/// Records trace events into a bounded ring buffer and serializes them.
///
/// Owned by [`crate::state::ClusterState`]; disabled tracers reject every
/// emission at a single branch ([`Tracer::on`]), so instrumentation sites
/// cost nothing measurable on untraced runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    max_events: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    counts: [u64; NKINDS],
}

impl Tracer {
    /// Builds a tracer for the given config (enabled exactly when an
    /// exporter path is configured).
    pub fn new(config: &TraceConfig) -> Self {
        Tracer {
            enabled: config.enabled(),
            max_events: config.max_events.max(1),
            events: VecDeque::new(),
            dropped: 0,
            counts: [0; NKINDS],
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::new(&TraceConfig::default())
    }

    /// Whether the tracer records events. Instrumentation sites guard any
    /// non-trivial payload construction on this.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op when disabled). When the ring is full the
    /// oldest event is dropped and counted.
    #[inline]
    pub fn emit(&mut self, at: SimTime, data: TraceData) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent { at, data });
    }

    fn push(&mut self, ev: TraceEvent) {
        self.counts[ev.data.kind()] += 1;
        if self.events.len() >= self.max_events {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events the ring cap has dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Summarizes emission counts and drops, for
    /// [`crate::metrics::RunResult::trace_summary`]. `None` when disabled.
    pub fn summary(&self) -> Option<TraceSummary> {
        if !self.enabled {
            return None;
        }
        Some(TraceSummary {
            emitted: self.counts.iter().sum(),
            recorded: self.events.len() as u64,
            dropped: self.dropped,
            by_kind: KIND_NAMES
                .iter()
                .zip(self.counts.iter())
                .filter(|(_, c)| **c > 0)
                .map(|(n, c)| (*n, *c))
                .collect(),
        })
    }

    /// Serializes the buffer as JSON Lines: one event object per line in
    /// recording order, closed by a `{"k":"summary",...}` trailer carrying
    /// the emitted/recorded/dropped counts (so consumers can detect ring
    /// truncation without counting lines).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64 + 128);
        for ev in &self.events {
            write_jsonl(ev, &mut out);
        }
        let _ = writeln!(
            out,
            "{{\"k\":\"summary\",\"events\":{},\"recorded\":{},\"dropped\":{}}}",
            self.counts.iter().sum::<u64>(),
            self.events.len(),
            self.dropped
        );
        out
    }

    /// Serializes the buffer as Chrome `trace_event` JSON (the object
    /// format, `{"traceEvents":[...]}`): transaction lifecycle slices
    /// (`ph:"X"`) on one track per replica (pid 1) and per certifier group
    /// (pid 2), utilization counters (`ph:"C"`), and instant markers
    /// (`ph:"i"`). Timestamps are simulated microseconds. Spans whose
    /// start fell off the ring are dropped from the view (the JSONL
    /// trailer still accounts for them).
    pub fn export_chrome(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, line: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(line);
        };
        push(
            &mut out,
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"replicas\"}}",
        );
        push(
            &mut out,
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"certifier groups\"}}",
        );
        // Pair lifecycle endpoints at export time: dispatch → complete makes
        // the replica-track slice; the certify-send step → certify decision
        // makes the certifier-track slice.
        let mut names: HashMap<u64, String> = HashMap::new();
        let mut dispatched: HashMap<u64, (SimTime, usize)> = HashMap::new();
        let mut cert_sent: HashMap<u64, SimTime> = HashMap::new();
        for ev in &self.events {
            let ts = ev.at.as_micros();
            match &ev.data {
                TraceData::Arrive { txn, type_name, .. } => {
                    names.insert(*txn, json_escape(type_name));
                }
                TraceData::Dispatch { txn, replica } => {
                    dispatched.insert(*txn, (ev.at, *replica));
                }
                TraceData::Step { txn, outcome, .. } if *outcome == "cert" => {
                    cert_sent.insert(*txn, ev.at);
                }
                TraceData::Certify {
                    txn,
                    groups,
                    committed,
                    ..
                } => {
                    if let Some(sent) = cert_sent.remove(txn) {
                        let tid = groups.trailing_zeros();
                        let name = names.get(txn).map_or("txn", String::as_str);
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"X\",\"name\":\"certify {name}\",\"cat\":\"certify\",\
                                 \"pid\":2,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                                 \"args\":{{\"txn\":{txn},\"committed\":{committed}}}}}",
                                sent.as_micros(),
                                ts.saturating_sub(sent.as_micros()).max(1),
                            ),
                        );
                    }
                }
                TraceData::Complete {
                    txn,
                    replica,
                    committed,
                    ..
                } => {
                    if let Some((start, _)) = dispatched.remove(txn) {
                        let name = names.get(txn).map_or("txn", String::as_str);
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"txn\",\
                                 \"pid\":1,\"tid\":{replica},\"ts\":{},\"dur\":{},\
                                 \"args\":{{\"txn\":{txn},\"committed\":{committed}}}}}",
                                start.as_micros(),
                                ts.saturating_sub(start.as_micros()).max(1),
                            ),
                        );
                    }
                }
                TraceData::Util {
                    replica,
                    cpu,
                    disk,
                    queue,
                    resident_bytes,
                    backfill_bytes,
                } => {
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"C\",\"name\":\"util r{replica}\",\"pid\":1,\
                             \"tid\":{replica},\"ts\":{ts},\
                             \"args\":{{\"cpu\":{cpu:.6},\"disk\":{disk:.6}}}}}"
                        ),
                    );
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"C\",\"name\":\"mem r{replica}\",\"pid\":1,\
                             \"tid\":{replica},\"ts\":{ts},\
                             \"args\":{{\"resident\":{resident_bytes},\
                             \"backfill\":{backfill_bytes},\"queue\":{queue}}}}}"
                        ),
                    );
                }
                TraceData::Fault { desc } => {
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"{}\",\"cat\":\"fault\",\
                             \"pid\":1,\"tid\":0,\"ts\":{ts}}}",
                            json_escape(desc)
                        ),
                    );
                }
                TraceData::Lb { filters, moves } => {
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"lb tick \
                             ({filters} filters, {moves} moves)\",\"cat\":\"lb\",\
                             \"pid\":1,\"tid\":0,\"ts\":{ts}}}"
                        ),
                    );
                }
                TraceData::Rebalance { migration } => {
                    let name = match migration {
                        Some((g, from, to)) => {
                            format!("migrate g{g} r{from}->r{to}")
                        }
                        None => "rebalance tick".to_string(),
                    };
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"{name}\",\
                             \"cat\":\"rebalance\",\"pid\":1,\"tid\":0,\"ts\":{ts}}}"
                        ),
                    );
                }
                TraceData::BackfillDone {
                    task,
                    group,
                    to,
                    bytes,
                } => {
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"backfill {task} done \
                             (g{group} -> r{to}, {bytes} B)\",\"cat\":\"backfill\",\
                             \"pid\":1,\"tid\":0,\"ts\":{ts}}}"
                        ),
                    );
                }
                TraceData::Suspect { replica, misses } => {
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"suspect r{replica} \
                             ({misses} misses)\",\"cat\":\"detector\",\
                             \"pid\":1,\"tid\":{replica},\"ts\":{ts}}}"
                        ),
                    );
                }
                TraceData::Unsuspect { replica } => {
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"trust r{replica}\",\
                             \"cat\":\"detector\",\"pid\":1,\"tid\":{replica},\"ts\":{ts}}}"
                        ),
                    );
                }
                TraceData::RedoStart {
                    replica,
                    from,
                    head,
                } => {
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"redo r{replica} \
                             v{from}->v{head}\",\"cat\":\"redo\",\
                             \"pid\":1,\"tid\":{replica},\"ts\":{ts}}}"
                        ),
                    );
                }
                TraceData::RedoDone { replica, bytes, us } => {
                    push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"redo r{replica} done \
                             ({bytes} B, {us} us)\",\"cat\":\"redo\",\
                             \"pid\":1,\"tid\":{replica},\"ts\":{ts}}}"
                        ),
                    );
                }
                // Per-quantum steps, per-chunk shipping, abandoned clients,
                // per-round heartbeat misses: visible in the JSONL stream,
                // too dense for the slice view.
                TraceData::Step { .. }
                | TraceData::BackfillChunk { .. }
                | TraceData::GaveUp { .. }
                | TraceData::HeartbeatMiss { .. } => {}
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Serializes one event as a JSONL line into `out`.
fn write_jsonl(ev: &TraceEvent, out: &mut String) {
    let t = ev.at.as_micros();
    let k = ev.data.kind_name();
    let _ = match &ev.data {
        TraceData::Arrive {
            txn,
            client,
            txn_type,
            type_name,
            retries,
        } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"txn\":{txn},\"client\":{client},\
             \"ty\":{txn_type},\"name\":\"{}\",\"retries\":{retries}}}",
            json_escape(type_name)
        ),
        TraceData::Dispatch { txn, replica } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"txn\":{txn},\"replica\":{replica}}}"
        ),
        TraceData::Step {
            txn,
            replica,
            outcome,
            next_at,
            ws_bytes,
        } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"txn\":{txn},\"replica\":{replica},\
             \"outcome\":\"{outcome}\",\"next\":{next_at},\"ws\":{ws_bytes}}}"
        ),
        TraceData::Certify {
            txn,
            groups,
            committed,
            version,
        } => match version {
            Some(v) => writeln!(
                out,
                "{{\"k\":\"{k}\",\"t\":{t},\"txn\":{txn},\"groups\":{groups},\
                 \"committed\":{committed},\"version\":{v}}}"
            ),
            None => writeln!(
                out,
                "{{\"k\":\"{k}\",\"t\":{t},\"txn\":{txn},\"groups\":{groups},\
                 \"committed\":{committed}}}"
            ),
        },
        TraceData::Complete {
            txn,
            replica,
            committed,
            response_us,
        } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"txn\":{txn},\"replica\":{replica},\
             \"committed\":{committed},\"resp_us\":{response_us}}}"
        ),
        TraceData::GaveUp { txn, client } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"txn\":{txn},\"client\":{client}}}"
        ),
        TraceData::Util {
            replica,
            cpu,
            disk,
            queue,
            resident_bytes,
            backfill_bytes,
        } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"replica\":{replica},\"cpu\":{cpu:.6},\
             \"disk\":{disk:.6},\"queue\":{queue},\"resident\":{resident_bytes},\
             \"backfill\":{backfill_bytes}}}"
        ),
        TraceData::Fault { desc } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"desc\":\"{}\"}}",
            json_escape(desc)
        ),
        TraceData::Lb { filters, moves } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"filters\":{filters},\"moves\":{moves}}}"
        ),
        TraceData::Rebalance { migration } => match migration {
            Some((group, from, to)) => writeln!(
                out,
                "{{\"k\":\"{k}\",\"t\":{t},\"migrated\":true,\"group\":{group},\
                 \"from\":{from},\"to\":{to}}}"
            ),
            None => writeln!(out, "{{\"k\":\"{k}\",\"t\":{t},\"migrated\":false}}"),
        },
        TraceData::BackfillChunk { task, bytes } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"task\":{task},\"bytes\":{bytes}}}"
        ),
        TraceData::BackfillDone {
            task,
            group,
            to,
            bytes,
        } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"task\":{task},\"group\":{group},\
             \"to\":{to},\"bytes\":{bytes}}}"
        ),
        TraceData::Suspect { replica, misses } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"replica\":{replica},\"misses\":{misses}}}"
        ),
        TraceData::Unsuspect { replica } => {
            writeln!(out, "{{\"k\":\"{k}\",\"t\":{t},\"replica\":{replica}}}")
        }
        TraceData::HeartbeatMiss { replica, misses } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"replica\":{replica},\"misses\":{misses}}}"
        ),
        TraceData::RedoStart {
            replica,
            from,
            head,
        } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"replica\":{replica},\"from\":{from},\"head\":{head}}}"
        ),
        TraceData::RedoDone { replica, bytes, us } => writeln!(
            out,
            "{{\"k\":\"{k}\",\"t\":{t},\"replica\":{replica},\"bytes\":{bytes},\"us\":{us}}}"
        ),
    };
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_config(max_events: usize) -> TraceConfig {
        TraceConfig {
            jsonl_path: Some("/tmp/unused.jsonl".into()),
            chrome_path: None,
            max_events,
        }
    }

    fn step(txn: u64) -> TraceData {
        TraceData::Step {
            txn,
            replica: 0,
            outcome: "exec",
            next_at: 10,
            ws_bytes: 0,
        }
    }

    #[test]
    fn each_run_of_a_sweep_gets_its_own_files() {
        let base = TraceConfig {
            jsonl_path: Some("out/fig.v2/run.jsonl".into()),
            chrome_path: Some("out/fig.v2/run.jsonl.chrome.json".into()),
            max_events: 7,
        };
        let run = base.for_run(3);
        assert_eq!(run.jsonl_path.as_deref(), Some("out/fig.v2/run.3.jsonl"));
        assert_eq!(
            run.chrome_path.as_deref(),
            Some("out/fig.v2/run.3.jsonl.chrome.json")
        );
        assert_eq!(run.max_events, 7);
        let bare = TraceConfig {
            jsonl_path: Some("trace".into()),
            chrome_path: Some(".trace".into()),
            ..TraceConfig::default()
        };
        let bare = bare.for_run(0);
        assert_eq!(bare.jsonl_path.as_deref(), Some("trace.0"));
        assert_eq!(bare.chrome_path.as_deref(), Some(".trace.0"));
        assert!(!TraceConfig::default().for_run(1).enabled());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.on());
        t.emit(SimTime::from_micros(1), step(0));
        assert_eq!(t.events().count(), 0);
        assert!(t.summary().is_none());
    }

    #[test]
    fn ring_buffer_drops_oldest_and_accounts() {
        let mut t = Tracer::new(&enabled_config(3));
        for i in 0..5 {
            t.emit(SimTime::from_micros(i), step(i));
        }
        assert_eq!(t.events().count(), 3);
        assert_eq!(t.dropped(), 2);
        // The survivors are the newest three.
        let first = t.events().next().unwrap();
        assert_eq!(first.at, SimTime::from_micros(2));
        let s = t.summary().unwrap();
        assert_eq!(s.emitted, 5);
        assert_eq!(s.recorded, 3);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.by_kind, vec![("step", 5)]);
        // The JSONL trailer carries the same accounting.
        let jsonl = t.export_jsonl();
        let trailer = jsonl.lines().last().unwrap();
        assert_eq!(
            trailer,
            "{\"k\":\"summary\",\"events\":5,\"recorded\":3,\"dropped\":2}"
        );
        assert_eq!(jsonl.lines().count(), 4, "3 events + trailer");
    }

    #[test]
    fn jsonl_escapes_type_names_and_descs() {
        let mut t = Tracer::new(&enabled_config(16));
        t.emit(
            SimTime::from_micros(5),
            TraceData::Arrive {
                txn: 1,
                client: 2,
                txn_type: 3,
                type_name: "odd \"name\"\\with\n controls \u{1}".into(),
                retries: 0,
            },
        );
        t.emit(
            SimTime::from_micros(6),
            TraceData::Fault {
                desc: "crash \"r1\"".into(),
            },
        );
        let jsonl = t.export_jsonl();
        assert!(
            jsonl.contains("odd \\\"name\\\"\\\\with\\n controls \\u0001"),
            "escaped name missing: {jsonl}"
        );
        assert!(jsonl.contains("crash \\\"r1\\\""));
        // No raw control characters survive in the output.
        assert!(jsonl.chars().all(|c| c == '\n' || (c as u32) >= 0x20));
    }

    #[test]
    fn json_escape_passes_plain_text_through() {
        assert_eq!(json_escape("OrderStatus"), "OrderStatus");
        assert_eq!(json_escape("a\tb"), "a\\tb");
    }

    #[test]
    fn chrome_export_pairs_lifecycle_slices() {
        let mut t = Tracer::new(&enabled_config(64));
        t.emit(
            SimTime::from_micros(100),
            TraceData::Arrive {
                txn: 7,
                client: 0,
                txn_type: 2,
                type_name: "BuyConfirm".into(),
                retries: 0,
            },
        );
        t.emit(
            SimTime::from_micros(100),
            TraceData::Dispatch { txn: 7, replica: 1 },
        );
        t.emit(SimTime::from_micros(400), {
            TraceData::Step {
                txn: 7,
                replica: 1,
                outcome: "cert",
                next_at: 550,
                ws_bytes: 96,
            }
        });
        t.emit(
            SimTime::from_micros(900),
            TraceData::Certify {
                txn: 7,
                groups: 0b100,
                committed: true,
                version: Some(3),
            },
        );
        t.emit(
            SimTime::from_micros(1200),
            TraceData::Complete {
                txn: 7,
                replica: 1,
                committed: true,
                response_us: 1100,
            },
        );
        let chrome = t.export_chrome();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"name\":\"BuyConfirm\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"certify BuyConfirm\""));
        assert!(chrome.contains("\"pid\":2,\"tid\":2"), "cert group track");
        assert!(chrome.contains("\"dur\":1100"), "dispatch->complete slice");
        assert!(chrome.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn detector_kinds_export_and_count() {
        let mut t = Tracer::new(&enabled_config(64));
        t.emit(
            SimTime::from_micros(10),
            TraceData::HeartbeatMiss {
                replica: 2,
                misses: 1,
            },
        );
        t.emit(
            SimTime::from_micros(20),
            TraceData::Suspect {
                replica: 2,
                misses: 2,
            },
        );
        t.emit(
            SimTime::from_micros(30),
            TraceData::Unsuspect { replica: 2 },
        );
        t.emit(
            SimTime::from_micros(40),
            TraceData::RedoStart {
                replica: 2,
                from: 10,
                head: 42,
            },
        );
        t.emit(
            SimTime::from_micros(50),
            TraceData::RedoDone {
                replica: 2,
                bytes: 4096,
                us: 700,
            },
        );
        let jsonl = t.export_jsonl();
        assert!(jsonl.contains("{\"k\":\"heartbeat_miss\",\"t\":10,\"replica\":2,\"misses\":1}"));
        assert!(jsonl.contains("{\"k\":\"suspect\",\"t\":20,\"replica\":2,\"misses\":2}"));
        assert!(jsonl.contains("{\"k\":\"unsuspect\",\"t\":30,\"replica\":2}"));
        assert!(
            jsonl.contains("{\"k\":\"redo_start\",\"t\":40,\"replica\":2,\"from\":10,\"head\":42}")
        );
        assert!(jsonl
            .contains("{\"k\":\"redo_done\",\"t\":50,\"replica\":2,\"bytes\":4096,\"us\":700}"));
        let s = t.summary().unwrap();
        assert_eq!(
            s.by_kind,
            vec![
                ("suspect", 1),
                ("unsuspect", 1),
                ("heartbeat_miss", 1),
                ("redo_start", 1),
                ("redo_done", 1)
            ]
        );
        // Suspicion/redo instants show on the Chrome timeline; per-round
        // misses stay JSONL-only.
        let chrome = t.export_chrome();
        assert!(chrome.contains("suspect r2 (2 misses)"), "{chrome}");
        assert!(chrome.contains("trust r2"));
        assert!(chrome.contains("redo r2 v10->v42"));
        assert!(!chrome.contains("heartbeat_miss"));
    }

    #[test]
    fn summary_counts_every_kind() {
        let mut t = Tracer::new(&enabled_config(64));
        t.emit(
            SimTime::ZERO,
            TraceData::Lb {
                filters: 1,
                moves: 0,
            },
        );
        t.emit(SimTime::ZERO, TraceData::Rebalance { migration: None });
        t.emit(
            SimTime::ZERO,
            TraceData::BackfillChunk { task: 0, bytes: 64 },
        );
        let s = t.summary().unwrap();
        assert_eq!(s.emitted, 3);
        assert_eq!(
            s.by_kind,
            vec![("lb", 1), ("rebalance", 1), ("backfill_chunk", 1)]
        );
    }
}
