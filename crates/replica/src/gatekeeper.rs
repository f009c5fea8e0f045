//! Gatekeeper admission control.
//!
//! The proxy "performs admission control to prevent bursts from overloading
//! the database using the Gatekeeper algorithm" (§4.1, citing ENTZ04): at
//! most a configured multiprogramming level (MPL) of transactions runs in
//! the database concurrently; the rest wait in an external FIFO queue at the
//! proxy, which is far cheaper than queueing inside the database.

use std::collections::VecDeque;

use tashkent_engine::TxnId;

/// FIFO admission control with a fixed multiprogramming limit.
///
/// # Examples
///
/// ```
/// use tashkent_engine::TxnId;
/// use tashkent_replica::Gatekeeper;
///
/// let mut gk = Gatekeeper::new(1);
/// assert!(gk.admit(TxnId(1)));        // runs immediately
/// assert!(!gk.admit(TxnId(2)));       // queued
/// assert_eq!(gk.release(), Some(TxnId(2))); // txn 1 done → txn 2 admitted
/// ```
#[derive(Debug, Clone)]
pub struct Gatekeeper {
    mpl: usize,
    in_flight: usize,
    queue: VecDeque<TxnId>,
}

impl Gatekeeper {
    /// Creates a gatekeeper admitting at most `mpl` concurrent transactions.
    ///
    /// # Panics
    ///
    /// Panics if `mpl` is zero.
    pub fn new(mpl: usize) -> Self {
        assert!(mpl > 0, "gatekeeper MPL must be positive");
        Gatekeeper {
            mpl,
            in_flight: 0,
            queue: VecDeque::new(),
        }
    }

    /// Transactions currently inside the database.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total load visible to connection-counting balancers: running + queued.
    pub fn outstanding(&self) -> usize {
        self.in_flight + self.queue.len()
    }

    /// Requests admission for `txn`; returns `true` when it may run now,
    /// `false` when it was queued.
    pub fn admit(&mut self, txn: TxnId) -> bool {
        if self.in_flight < self.mpl {
            self.in_flight += 1;
            true
        } else {
            self.queue.push_back(txn);
            false
        }
    }

    /// Reports a running transaction finished (commit or abort); returns the
    /// next queued transaction now admitted, if any.
    ///
    /// # Panics
    ///
    /// Panics if nothing was in flight (a bookkeeping bug in the caller).
    pub fn release(&mut self) -> Option<TxnId> {
        assert!(self.in_flight > 0, "release without a running transaction");
        match self.queue.pop_front() {
            Some(next) => Some(next), // Slot transfers to `next`.
            None => {
                self.in_flight -= 1;
                None
            }
        }
    }

    /// Drops every running and queued transaction (used on crash).
    pub fn clear(&mut self) {
        self.in_flight = 0;
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_mpl() {
        let mut gk = Gatekeeper::new(3);
        assert!(gk.admit(TxnId(1)));
        assert!(gk.admit(TxnId(2)));
        assert!(gk.admit(TxnId(3)));
        assert!(!gk.admit(TxnId(4)));
        assert_eq!(gk.in_flight(), 3);
        assert_eq!(gk.outstanding(), 4);
    }

    #[test]
    fn release_hands_slot_to_fifo_head() {
        let mut gk = Gatekeeper::new(1);
        gk.admit(TxnId(1));
        gk.admit(TxnId(2));
        gk.admit(TxnId(3));
        assert_eq!(gk.release(), Some(TxnId(2)));
        assert_eq!(gk.release(), Some(TxnId(3)));
        assert_eq!(gk.release(), None);
        assert_eq!(gk.in_flight(), 0);
    }

    #[test]
    fn in_flight_constant_while_queue_nonempty() {
        let mut gk = Gatekeeper::new(2);
        for i in 0..5 {
            gk.admit(TxnId(i));
        }
        assert_eq!(gk.in_flight(), 2);
        gk.release();
        assert_eq!(gk.in_flight(), 2, "slot transferred, not freed");
    }

    #[test]
    #[should_panic(expected = "release without")]
    fn release_on_idle_panics() {
        Gatekeeper::new(1).release();
    }

    #[test]
    fn drain_clears_state() {
        let mut gk = Gatekeeper::new(1);
        gk.admit(TxnId(1));
        gk.admit(TxnId(2));
        gk.clear();
        assert_eq!(gk.in_flight(), 0);
        assert_eq!(gk.outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "MPL must be positive")]
    fn zero_mpl_rejected() {
        Gatekeeper::new(0);
    }
}
