//! The balancer's heartbeat failure detector.

/// Consecutive missed heartbeats before a replica is *Suspected*: out of
/// dispatch, in-flight transactions retried on survivors, no
/// re-replication yet. Read by [`Detector::observe_heartbeats`].
const SUSPECT_MISSES: u32 = 2;

/// Consecutive missed heartbeats before a suspected replica is declared
/// *Dead* and re-replication of its under-copied groups begins.
const DEAD_MISSES: u32 = 5;

// The deferral window between suspicion and re-replication exists only if
// death takes more misses than suspicion.
const _: () = assert!(SUSPECT_MISSES >= 1 && DEAD_MISSES > SUSPECT_MISSES);

/// What the balancer's failure detector currently believes about a replica.
///
/// Driven purely by heartbeat responses — never by oracle crash knowledge:
///
/// ```text
///        misses ≥ SUSPECT_MISSES          misses ≥ DEAD_MISSES
///  Live ───────────────────────▶ Suspected ─────────────────▶ Dead
///   ▲                               │                          │
///   └───────── heartbeat answered ──┴──────────────────────────┘
/// ```
///
/// `Suspected` removes the replica from dispatch and retries its in-flight
/// transactions on survivors, but defers re-replication; only `Dead`
/// triggers backfill. A replica that answers again from either state
/// returns to `Live` (a *trust* transition) — a false suspicion costs a
/// filter-widen, not a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaHealth {
    /// Answering heartbeats; eligible for dispatch.
    #[default]
    Live,
    /// Missed `SUSPECT_MISSES` consecutive heartbeats: out of dispatch,
    /// in-flight work retried elsewhere, re-replication deferred.
    Suspected,
    /// Missed `DEAD_MISSES` consecutive heartbeats: confirmed dead,
    /// re-replication of under-copied groups proceeds.
    Dead,
}

/// One state-machine transition produced by a heartbeat round, in replica
/// order (deterministic: the round probes replicas 0..n).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// A heartbeat went unanswered but the replica is not (yet) suspected.
    Miss {
        /// The unresponsive replica.
        replica: usize,
        /// Consecutive misses so far.
        misses: u32,
    },
    /// The replica crossed the suspicion threshold this round.
    Suspected {
        /// The newly suspected replica.
        replica: usize,
        /// Consecutive misses at the transition.
        misses: u32,
    },
    /// The replica crossed the dead threshold this round.
    Dead {
        /// The replica confirmed dead.
        replica: usize,
    },
    /// A non-`Live` replica answered again.
    Trusted {
        /// The replica restored to `Live`.
        replica: usize,
        /// Whether it had been declared `Dead` (the caller then shrinks
        /// over-replicated groups; a mere suspicion needs no placement
        /// work at all).
        was_dead: bool,
    },
}

/// The per-replica `Live → Suspected → Dead` accrual state machine the
/// balancer runs when heartbeat detection is on.
pub struct Detector {
    /// Belief per replica (all `Live` until heartbeats miss).
    health: Vec<ReplicaHealth>,
    /// Consecutive missed heartbeats per replica.
    misses: Vec<u32>,
}

impl Detector {
    /// A detector believing all `replicas` live.
    pub fn new(replicas: usize) -> Self {
        Detector {
            health: vec![ReplicaHealth::Live; replicas],
            misses: vec![0; replicas],
        }
    }

    /// The detector's current belief about `replica` (always `Live` when
    /// the detector is disabled — no heartbeat rounds ever run).
    pub fn health(&self, replica: usize) -> ReplicaHealth {
        self.health[replica]
    }

    /// Feeds one heartbeat round into the accrual counters: `reachable[r]`
    /// is whether replica `r`'s ping was answered (physically up, no
    /// partition on the control link, not mid-replay). Returns the state
    /// transitions in replica order; the caller applies their cluster-side
    /// consequences (the balancer's liveness, orphan sweeps,
    /// re-replication) so that — with the detector on — those change *only*
    /// through here.
    pub fn observe_heartbeats(&mut self, reachable: &[bool]) -> Vec<HealthTransition> {
        let mut out = Vec::new();
        for (r, &ok) in reachable.iter().enumerate() {
            if ok {
                self.misses[r] = 0;
                if self.health[r] != ReplicaHealth::Live {
                    out.push(HealthTransition::Trusted {
                        replica: r,
                        was_dead: self.health[r] == ReplicaHealth::Dead,
                    });
                    self.health[r] = ReplicaHealth::Live;
                }
            } else {
                self.misses[r] = self.misses[r].saturating_add(1);
                let m = self.misses[r];
                match self.health[r] {
                    ReplicaHealth::Live if m >= SUSPECT_MISSES => {
                        self.health[r] = ReplicaHealth::Suspected;
                        out.push(HealthTransition::Suspected {
                            replica: r,
                            misses: m,
                        });
                    }
                    ReplicaHealth::Suspected if m >= DEAD_MISSES => {
                        self.health[r] = ReplicaHealth::Dead;
                        out.push(HealthTransition::Dead { replica: r });
                    }
                    ReplicaHealth::Dead => {}
                    _ => out.push(HealthTransition::Miss {
                        replica: r,
                        misses: m,
                    }),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accrual_walks_live_suspected_dead() {
        // Both tests walk the thresholds the detector runs with.
        assert_eq!((SUSPECT_MISSES, DEAD_MISSES), (2, 5));
        let mut d = Detector::new(2);
        let down = [false, true];
        assert_eq!(
            d.observe_heartbeats(&down),
            vec![HealthTransition::Miss {
                replica: 0,
                misses: 1
            }]
        );
        assert_eq!(
            d.observe_heartbeats(&down),
            vec![HealthTransition::Suspected {
                replica: 0,
                misses: 2
            }]
        );
        assert_eq!(d.health(0), ReplicaHealth::Suspected);
        // Below the dead threshold a suspected replica keeps missing.
        for misses in 3..5 {
            assert_eq!(
                d.observe_heartbeats(&down),
                vec![HealthTransition::Miss { replica: 0, misses }]
            );
        }
        assert_eq!(
            d.observe_heartbeats(&down),
            vec![HealthTransition::Dead { replica: 0 }]
        );
        assert_eq!(d.health(0), ReplicaHealth::Dead);
        // Dead stays dead quietly until it answers again.
        assert_eq!(d.observe_heartbeats(&down), vec![]);
        assert_eq!(d.health(1), ReplicaHealth::Live, "bystander untouched");
    }

    #[test]
    fn answering_restores_trust_from_either_state() {
        let mut d = Detector::new(1);
        for _ in 0..2 {
            d.observe_heartbeats(&[false]);
        }
        assert_eq!(d.health(0), ReplicaHealth::Suspected);
        // A false suspicion: one answered ping restores Live and reports
        // that no re-replication ever started (was_dead = false).
        assert_eq!(
            d.observe_heartbeats(&[true]),
            vec![HealthTransition::Trusted {
                replica: 0,
                was_dead: false
            }]
        );
        for _ in 0..5 {
            d.observe_heartbeats(&[false]);
        }
        assert_eq!(d.health(0), ReplicaHealth::Dead);
        assert_eq!(
            d.observe_heartbeats(&[true]),
            vec![HealthTransition::Trusted {
                replica: 0,
                was_dead: true
            }]
        );
        assert_eq!(d.health(0), ReplicaHealth::Live);
        // Counters reset: the next miss starts the accrual from scratch.
        assert_eq!(
            d.observe_heartbeats(&[false]),
            vec![HealthTransition::Miss {
                replica: 0,
                misses: 1
            }]
        );
    }
}
