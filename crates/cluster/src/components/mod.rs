//! The cluster's own components, beside the models it drives directly
//! ([`tashkent_replica::ReplicaNode`], [`tashkent_core::LoadBalancer`]):
//!
//! * [`CertifierLink`] — the round-trip to the certifier: certification,
//!   the commit/abort response path, and propagation pulls;
//! * [`Detector`] — the balancer's heartbeat failure detector, the
//!   `Live → Suspected → Dead` accrual state machine.
//!
//! Each owns its state; [`crate::state::ClusterState`] turns their outcomes
//! into scheduled events.

mod certifier_link;
mod detector;

pub use certifier_link::CertifierLink;
pub use detector::{Detector, HealthTransition, ReplicaHealth};
