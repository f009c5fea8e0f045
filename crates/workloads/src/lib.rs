//! Workload models: TPC-W and RUBiS (§4.4).
//!
//! The paper evaluates Tashkent+ with two e-commerce benchmarks:
//!
//! * **TPC-W** — an online bookstore with three mixes (ordering 50 %
//!   updates, shopping 20 %, browsing 5 %), scaled by its EBS parameter to
//!   0.7 / 1.8 / 2.9 GB databases;
//! * **RUBiS** — an eBay-style auction site (2.2 GB; browsing mix read-only,
//!   bidding mix 15 % updates).
//!
//! Each workload contributes a schema ([`tashkent_storage::Catalog`]), a set
//! of transaction types with execution plans ([`tashkent_engine::TxnPlan`]),
//! and mixes (type frequency vectors) from which [`Mix::pick`] draws each
//! request's type. The closed-loop clients themselves — think time, retries
//! and backoff — are the cluster's (`tashkent-cluster`'s `ClusterState`).

pub mod rubis;
pub mod spec;
pub mod tpcw;

pub use spec::{Mix, Workload};
pub use tpcw::{TpcwScale, TPCW_MIXES};
