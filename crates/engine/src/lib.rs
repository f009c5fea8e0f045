//! Plan-driven transaction execution engine.
//!
//! The paper's transactions are parameterized SQL against PostgreSQL; their
//! memory behaviour is "dominated by the tables and indices needed for
//! processing" (§1). This crate models exactly that level: a transaction
//! type carries a [`TxnPlan`] — an ordered list of relation accesses
//! (sequential scans, index lookups, range scans) and row writes — and a
//! [`TxnExecutor`] turns one transaction instance into a stream of page
//! touches with CPU costs. The replica layer feeds those touches through its
//! buffer pool and disk.
//!
//! The engine also produces [`ExplainPlan`]s — the `EXPLAIN` output the load
//! balancer is allowed to inspect (§4.2.2) — and [`Writeset`]s, the unit of
//! update propagation and certification under generalized snapshot isolation.

pub mod executor;
pub mod explain;
pub mod plan;
pub mod types;
pub mod writeset;

pub use executor::{PageTouch, TxnExecutor};
pub use explain::{ExplainAccess, ExplainPlan, ExplainStep};
pub use plan::{Access, CpuCosts, PlanStep, TxnPlan, TxnType, WriteKind, WriteSpec};
pub use types::{Snapshot, TxnId, TxnTypeId, Version};
pub use writeset::{items_intersect, Writeset, WritesetItem, WS_HEADER_BYTES, WS_ITEM_BYTES};
