//! Deterministic discrete-event simulation kernel for the Tashkent+ reproduction.
//!
//! The paper evaluates Tashkent+ on a 16-machine cluster. This workspace
//! replaces the physical testbed with a deterministic discrete-event
//! simulation: every component (clients, load balancer, replicas, certifier)
//! exchanges timestamped events drawn from an [`EventQueue`], time is a
//! microsecond counter ([`SimTime`]), and all randomness flows through a
//! seeded [`SimRng`] so that every experiment is exactly reproducible.
//!
//! This crate holds only the simulation primitives; domain logic lives in the
//! higher crates (`tashkent-storage`, `tashkent-engine`, ...).

pub mod ewma;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use ewma::Ewma;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{fnv1a_fold, Histogram, OnlineStats, FNV1A_BASIS};
pub use time::SimTime;
