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
//! * [`certifier`] — the certification state machine,
//! * [`log`] — the persistent commit log, one flat item arena whose suffix
//!   after a snapshot is what a conflict check scans,
//! * [`sharded`] — per-relation-group certification shards (per-group
//!   service queues; the verdict and decide stay with the caller),
//! * [`propagation`] — the pull/prod trigger policy (500 ms pull, 25-commit
//!   prod),
//! * [`group`] — the leader/backup certifier group used for fault tolerance.

pub mod certifier;
pub mod group;
pub mod log;
pub mod propagation;
pub mod sharded;

pub use certifier::{Certifier, CertifierParams, CertifierStats, CertifyOutcome};
pub use group::{CertifierGroup, GroupEvent};
pub use log::{CommitLog, Entries, LogView};
pub use propagation::{PropagationAction, PropagationPolicy};
pub use sharded::{CertShard, ShardCheck};
