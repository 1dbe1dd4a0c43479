//! One rank's inbox and its one way to block on it.
//!
//! A [`Mailbox`] is a mutex around a FIFO of delivered [`Wire`] envelopes
//! plus, while the owning node is blocked, that node's `Waiter`. Both
//! backends deliver into it — in-process senders directly, socket reader
//! threads after decoding — and `Mailbox::park` is the machine's single
//! blocking receive, shared by both transports and both execution
//! backends.
//!
//! The wait is signalled, not polled. A node that finds the queue empty
//! publishes its waiter and parks once; whoever ends the wait takes the
//! waiter out under the lock (so exactly one party does) and wakes it
//! outside the lock. Three things end a wait:
//!
//! * a delivery (`Mailbox::push`),
//! * a peer failure (the `FailBoard` calls
//!   `Mailbox::poke` on every mailbox when the first failure lands),
//! * the caller's deadline, when the node withdraws its own waiter.
//!
//! Wake-ups per blocking episode is therefore 1 — the invariant
//! `NodeStats::parks` / `park_timeouts` let a test count.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::envelope::Wire;
use crate::sched::{Parker, Waiter};
use crate::transport::WaitWireError;

struct Inner<M> {
    queue: VecDeque<Wire<M>>,
    /// The owner's waiter, present exactly while the owner is (about to
    /// be) parked and nobody has claimed the right to wake it yet.
    waiting: Option<Arc<Waiter>>,
}

/// A rank's delivered-envelope queue (see module docs). Any thread may
/// `push`/`poke`; only the owning node thread pops or parks.
pub struct Mailbox<M> {
    inner: Mutex<Inner<M>>,
}

impl<M> Mailbox<M> {
    pub(crate) fn new() -> Self {
        Mailbox { inner: Mutex::new(Inner { queue: VecDeque::new(), waiting: None }) }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<M>> {
        // No code path panics with the lock held: the critical sections
        // are queue pushes/pops and an `Option::take`.
        self.inner.lock().expect("mailbox mutex poisoned")
    }

    /// Deliver one wire envelope (FIFO) and wake the owner if it is
    /// parked.
    pub(crate) fn push(&self, wire: Wire<M>) {
        let waiter = {
            let mut g = self.lock();
            g.queue.push_back(wire);
            g.waiting.take()
        };
        if let Some(w) = waiter {
            w.wake();
        }
    }

    /// Wake the owner without delivering anything: a peer failed.
    pub(crate) fn poke(&self) {
        let waiter = self.lock().waiting.take();
        if let Some(w) = waiter {
            w.wake();
        }
    }

    /// Non-blocking receive.
    pub(crate) fn try_pop(&self) -> Option<Wire<M>> {
        self.lock().queue.pop_front()
    }

    /// Withdraw the published waiter. `false` means a waker already took
    /// it, so a grant is coming and must be waited for.
    fn cancel(&self) -> bool {
        self.lock().waiting.take().is_some()
    }

    /// The blocking receive: return the next envelope, parking the
    /// calling node (through `parker`: its thread, or its fiber, which
    /// hands the executor's thread on) until one is delivered. It pops a
    /// queued envelope or publishes the waiter in one lock acquisition, and
    /// takes one more to pop what the wake-up delivered: with the sender's
    /// `push`, three a hop.
    ///
    /// `failed` reads the machine's failure flag. It is re-checked after
    /// the waiter is published, which closes the window where a failure
    /// recorded between "queue is empty" and "parked" would poke a
    /// mailbox nobody waits on yet. Returns [`WaitWireError::Dead`] when
    /// the wait ended with nothing delivered (a failure woke it) and
    /// [`WaitWireError::Timeout`] when `deadline` passed first.
    pub(crate) fn park(
        &self,
        parker: &Parker,
        deadline: Instant,
        failed: impl Fn() -> bool,
    ) -> Result<Wire<M>, WaitWireError> {
        {
            let mut g = self.lock();
            if let Some(w) = g.queue.pop_front() {
                return Ok(w);
            }
            g.waiting = Some(parker.arm());
        }
        if failed() && self.cancel() {
            return Err(WaitWireError::Dead);
        }
        if !parker.park_until(deadline, || self.cancel()) {
            return Err(WaitWireError::Timeout);
        }
        self.try_pop().ok_or(WaitWireError::Dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::tests::one_part as env;
    use std::time::Duration;

    fn msg_of(w: Wire<u64>) -> u64 {
        w.msg[0].0
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn queued_envelopes_return_without_parking() {
        let mb = Mailbox::new();
        let parker = Parker::thread();
        mb.push(env(0, 1));
        mb.push(env(0, 2));
        assert_eq!(mb.park(&parker, soon(), || false).map(msg_of), Ok(1));
        assert_eq!(mb.try_pop().map(msg_of), Some(2));
        assert!(mb.try_pop().is_none());
        assert_eq!(parker.park_counts(), (0, 0));
    }

    #[test]
    fn a_push_wakes_the_parked_owner_once() {
        let mb = Arc::new(Mailbox::new());
        let parker = Parker::thread();
        let tx = Arc::clone(&mb);
        // The sender waits until the owner has published itself, so the
        // push below is the wake-up and not a pre-park delivery.
        let sender = std::thread::spawn(move || {
            while tx.lock().waiting.is_none() {
                std::thread::yield_now();
            }
            tx.push(env(1, 7));
        });
        assert_eq!(mb.park(&parker, soon(), || false).map(msg_of), Ok(7));
        sender.join().unwrap();
        assert_eq!(parker.park_counts(), (1, 0));
        assert!(mb.lock().waiting.is_none(), "the waker took the waiter");
    }

    #[test]
    fn deadline_withdraws_the_waiter() {
        let mb = Mailbox::<u64>::new();
        let parker = Parker::thread();
        let t0 = Instant::now();
        let r = mb.park(&parker, t0 + Duration::from_millis(20), || false);
        assert_eq!(r.err(), Some(WaitWireError::Timeout));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(parker.park_counts(), (1, 1));
        assert!(mb.lock().waiting.is_none());
    }

    #[test]
    fn a_recorded_failure_is_a_dead_wire() {
        // Once a peer has failed nothing more can be relied on to arrive:
        // waiting reports `Dead` instead of sleeping — after draining
        // what was already delivered.
        let mb = Mailbox::new();
        let parker = Parker::thread();
        mb.push(env(0, 1));
        assert_eq!(mb.park(&parker, soon(), || true).map(msg_of), Ok(1));
        assert_eq!(mb.park(&parker, soon(), || true).err(), Some(WaitWireError::Dead));
        assert_eq!(parker.park_counts(), (0, 0), "a known failure never parks");
    }

    #[test]
    fn a_poke_ends_the_wait_empty_handed() {
        let mb = Arc::new(Mailbox::<u64>::new());
        let parker = Parker::thread();
        let tx = Arc::clone(&mb);
        let poker = std::thread::spawn(move || {
            while tx.lock().waiting.is_none() {
                std::thread::yield_now();
            }
            tx.poke();
        });
        assert_eq!(mb.park(&parker, soon(), || false).err(), Some(WaitWireError::Dead));
        poker.join().unwrap();
        assert_eq!(parker.park_counts(), (1, 0));
    }
}
