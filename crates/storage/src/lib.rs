//! Simulated storage substrate for the Tashkent+ reproduction.
//!
//! The paper's replicas are PostgreSQL 8.0.3 instances on machines with 1 GB
//! of RAM and a single 7200 rpm disk. This crate models the parts of that
//! stack that Tashkent+'s techniques interact with:
//!
//! * a **catalog** of relations (tables and indices) with `relpages`-style
//!   size metadata — the information the load balancer queries (§4.2.2),
//! * a **clock-sweep buffer pool** over 8 KB pages with dirty-page tracking —
//!   the memory whose contention MALB avoids,
//! * a **disk-channel model** shared by reads and write-backs, with a
//!   positional head model so sequential scans are cheap and random access
//!   pays a seek — the resource whose saturation explains every result in
//!   the paper's evaluation,
//! * a **background writer** policy that flushes dirty pages, coalescing
//!   repeated updates to hot pages the way a real checkpointing engine does.

pub mod buffer;
pub mod catalog;
pub mod disk;
pub mod ids;
pub mod writer;

pub use buffer::{BufferPool, BufferStats, Touch};
pub use catalog::{Catalog, Relation, RelationKind};
pub use disk::{DiskModel, DiskParams, DiskRequest, DiskStats, ReqKind};
pub use ids::{
    GlobalPageId, PageId, RelationId, RelationSet, RowId, MAX_RELATIONS, MAX_RELATION_PAGES,
    PAGE_SIZE,
};
pub use writer::{BackgroundWriter, WriterConfig};
