//! The replicated certifier: GSI certification, global commit order, and
//! update propagation.
//!
//! In Tashkent (§4.1), replicas execute update transactions locally and send
//! the writeset to a certifier at commit time. The certifier detects
//! write-write conflicts against writesets committed since the transaction's
//! snapshot, appends successful writesets to a persistent log (establishing
//! the global commit order), and ships remote writesets back to replicas so
//! every copy converges. Durability lives here — replicas never `fsync` —
//! which is what makes the replicas' disk channels efficient and the paper's
//! techniques all the more interesting when they still pay off.
//!
//! Modules:
//! * [`certifier`] — the certification engine: one serial check queue per
//!   certifier group (one by default, the paper's deployment), the verdict,
//!   version assignment, group commit, and the cross-group vote/decide
//!   round,
//! * [`map`] — the relation → certifier-group map,
//! * [`log`] — the persistent commit log, one flat item arena whose suffix
//!   after a snapshot is what a conflict check scans, trimmed below the
//!   oldest version a reader can still ask for,
//! * [`propagation`] — the pull/prod trigger policy (500 ms pull, 25-commit
//!   prod),
//! * [`group`] — the leader/backup membership of one certifier group, used
//!   for fault tolerance.

pub mod certifier;
pub mod group;
pub mod log;
pub mod map;
pub mod propagation;

pub use certifier::{
    Answer, Certifier, CertifierParams, CertifierStats, CertifyOutcome, GroupCommits,
};
pub use group::{CertifierGroup, GroupEvent};
pub use log::{CommitLog, Entries, LogView};
pub use map::{CertMap, MAX_CERT_GROUPS};
pub use propagation::{PropagationAction, PropagationPolicy};
