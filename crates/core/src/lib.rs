//! Memory-aware load balancing (MALB) and update filtering — the Tashkent+
//! contribution (Elnikety, Dropsho, Zwaenepoel, EuroSys 2007).
//!
//! A memory-aware load balancer dispatches transactions to replicas such
//! that their working sets fit together in main memory, avoiding the memory
//! contention that connection-counting balancers (and even locality-aware
//! ones like LARD) cannot prevent when frequent transactions have large
//! working sets.
//!
//! The pipeline, module by module:
//!
//! * [`estimator`] — estimate each transaction type's working set (size,
//!   contents, access pattern) from its `EXPLAIN` plan and the catalog's
//!   `relpages` metadata (§2.2), as relation bitmaps sized through one page
//!   table;
//! * [`grouping`] — pack transaction types into groups whose combined
//!   working sets fit a replica's memory, using Best-Fit-Decreasing bin
//!   packing with optional overlap credit (MALB-S / MALB-SC / MALB-SCAP,
//!   §2.3);
//! * [`allocation`] — dynamically allocate replicas to groups from smoothed
//!   `MAX(cpu, disk)` loads, with future-load extrapolation, 1.25×
//!   hysteresis, fast re-allocation via balance equations, and merging of
//!   under-utilized groups (§2.4);
//! * [`filtering`] — once the partition is stable, compute per-replica table
//!   lists so each replica only receives writesets for tables it serves,
//!   subject to availability constraints (§3);
//! * [`balancer`] — the dispatchers: LeastConnections and LARD (§4.3
//!   baselines) and the composite MALB balancer.

pub mod allocation;
pub mod balancer;
pub mod estimator;
pub mod filtering;
pub mod grouping;
pub mod lard;
pub mod types;

pub use allocation::{AllocationConfig, Allocator, GroupLoads, Move};
pub use balancer::{DispatchStats, LoadBalancer, MalbConfig, ReconfigAction, ResourceLoad};
pub use estimator::{
    combined_pages, Estimates, EstimationMode, PageTable, WorkingSet, WorkingSetEstimator,
};
pub use filtering::{filter_lists, FilterPlan};
pub use grouping::{pack_groups, GroupId, TxnGroup};
pub use lard::{Lard, LardConfig};
pub use types::ReplicaId;
