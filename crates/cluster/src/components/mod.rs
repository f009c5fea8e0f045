//! Per-component event handlers.
//!
//! The cluster state ([`crate::state::ClusterState`]) owns three component
//! handlers and reduces every [`crate::events::Ev`] arm to a thin delegate:
//!
//! * [`ClusterNode`] — a replica node inside the cluster: admission,
//!   execution stepping, and the Gatekeeper slots it holds until each
//!   transaction's release;
//! * [`CertifierLink`] — the round-trip to the certifier: certification,
//!   the commit/abort response path, and propagation pulls;
//! * [`BalancerCtl`] — dispatch plus the `LbTick` reconfiguration loop that
//!   applies re-allocations and installs update filters.
//!
//! Components own their state and translate outcomes into scheduled events;
//! [`crate::state::ClusterState`] keeps only cross-cutting bookkeeping
//! (clients with their one open request each, metrics).

mod balancer_ctl;
mod certifier_link;
mod node;

pub use balancer_ctl::{BalancerCtl, HealthTransition, ReplicaHealth};
pub use certifier_link::CertifierLink;
pub use node::ClusterNode;
