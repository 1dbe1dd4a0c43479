//! One rank's inbox and its one way to block on it.
//!
//! A [`Mailbox`] is a mutex around a FIFO of delivered [`Wire`] envelopes
//! and a flag that says its owning node is parked, beside the owner's
//! `Waiter`, which the mailbox holds from the owner's first park on. Both
//! backends deliver into it — in-process senders directly, socket reader
//! threads after decoding — and `Mailbox::park` is the machine's single
//! blocking receive, shared by both transports and both execution
//! backends.
//!
//! The wait is signalled, not polled. A node that finds the queue empty
//! raises the flag and parks once; whoever ends the wait takes the flag
//! down under the lock (so exactly one party does) and wakes the waiter
//! outside the lock. A park publishes a flag, not a handle: no waiter
//! refcount moves on the hop. Three things end a wait:
//!
//! * a delivery (`Mailbox::push`),
//! * a peer failure (the `FailBoard` calls
//!   `Mailbox::poke` on every mailbox when the first failure lands),
//! * the caller's deadline, when the node takes its own flag down.
//!
//! Wake-ups per blocking episode is therefore 1 — the invariant
//! `NodeStats::parks` / `park_timeouts` let a test count.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::envelope::Wire;
use crate::sched::{Parker, Waiter};
use crate::transport::WaitWireError;

struct Inner<M> {
    queue: VecDeque<Wire<M>>,
    /// Raised exactly while the owner is (about to be) parked and nobody
    /// has claimed the right to wake it yet.
    waiting: bool,
}

/// A rank's delivered-envelope queue (see module docs). Any thread may
/// `push`/`poke`; only the owning node thread pops or parks.
pub struct Mailbox<M> {
    inner: Mutex<Inner<M>>,
    /// The owner's waiter, set at its first park. The flag is raised only
    /// after it is set, and taken under the same lock, so whoever takes
    /// the flag finds it.
    waiter: OnceLock<Arc<Waiter>>,
}

impl<M> Mailbox<M> {
    pub(crate) fn new() -> Self {
        Mailbox {
            inner: Mutex::new(Inner { queue: VecDeque::new(), waiting: false }),
            waiter: OnceLock::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<M>> {
        // No code path panics with the lock held: the critical sections
        // are queue pushes/pops and a flag's swap.
        self.inner.lock().expect("mailbox mutex poisoned")
    }

    /// Wake the owner: called once per blocking episode, by whoever took
    /// the flag down, with no lock held.
    fn wake(&self) {
        self.waiter.get().expect("a raised flag has a waiter").wake();
    }

    /// Deliver one wire envelope (FIFO) and wake the owner if it is
    /// parked.
    pub(crate) fn push(&self, wire: Wire<M>) {
        let parked = {
            let mut g = self.lock();
            g.queue.push_back(wire);
            std::mem::take(&mut g.waiting)
        };
        if parked {
            self.wake();
        }
    }

    /// Wake the owner without delivering anything: a peer failed.
    pub(crate) fn poke(&self) {
        let parked = std::mem::take(&mut self.lock().waiting);
        if parked {
            self.wake();
        }
    }

    /// Non-blocking receive.
    pub(crate) fn try_pop(&self) -> Option<Wire<M>> {
        self.lock().queue.pop_front()
    }

    /// Take the flag down. `false` means a waker already took it, so a
    /// grant is coming and must be waited for.
    fn cancel(&self) -> bool {
        std::mem::take(&mut self.lock().waiting)
    }

    /// The blocking receive: return the next envelope, parking the
    /// calling node (through `parker`: its thread, or its fiber, which
    /// hands the executor's thread on) until one is delivered. It pops a
    /// queued envelope or raises the flag in one lock acquisition, and
    /// takes one more to pop what the wake-up delivered: with the sender's
    /// `push`, three a hop. The first park leaves `parker`'s waiter with
    /// the mailbox; every later one must come through the same `parker`.
    ///
    /// `failed` reads the machine's failure flag. It is re-checked after
    /// the flag is raised, which closes the window where a failure
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
            let waiter = self.waiter.get_or_init(|| Arc::clone(parker.waiter()));
            debug_assert!(Arc::ptr_eq(waiter, parker.waiter()), "a mailbox has one owner");
            parker.arm();
            g.waiting = true;
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
    use crate::envelope::Parts;
    use std::time::Duration;

    fn msg_of(w: Wire<u64>) -> u64 {
        let Parts::One(msg, _) = w.msg else { panic!("a one-part envelope") };
        msg
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
            while !tx.lock().waiting {
                std::thread::yield_now();
            }
            tx.push(env(1, 7));
        });
        assert_eq!(mb.park(&parker, soon(), || false).map(msg_of), Ok(7));
        sender.join().unwrap();
        assert_eq!(parker.park_counts(), (1, 0));
        assert!(!mb.lock().waiting, "the waker took the flag down");
    }

    #[test]
    fn a_park_clones_no_waiter() {
        // The mailbox keeps the waiter its owner's first park leaves with
        // it, and every park after that only raises a flag: the waiter's
        // count is the same before a park, while parked (read by the
        // pushing thread before it pushes) and after the wake.
        let mb = Arc::new(Mailbox::new());
        let parker = Parker::thread();
        let count = || Arc::strong_count(parker.waiter());
        let mut counts = Vec::new();
        for round in 0..3 {
            let before = count();
            let tx = Arc::clone(&mb);
            let waiter = Arc::downgrade(parker.waiter());
            let sender = std::thread::spawn(move || {
                while !tx.lock().waiting {
                    std::thread::yield_now();
                }
                let parked = waiter.strong_count();
                tx.push(env(1, round));
                parked
            });
            assert_eq!(mb.park(&parker, soon(), || false).map(msg_of), Ok(round));
            counts.push((before, sender.join().unwrap(), count()));
        }
        assert_eq!(parker.park_counts(), (3, 0));
        assert_eq!(
            counts,
            [(1, 2, 2), (2, 2, 2), (2, 2, 2)],
            "one clone per mailbox, none per park"
        );
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
        assert!(!mb.lock().waiting);
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
            while !tx.lock().waiting {
                std::thread::yield_now();
            }
            tx.poke();
        });
        assert_eq!(mb.park(&parker, soon(), || false).err(), Some(WaitWireError::Dead));
        poker.join().unwrap();
        assert_eq!(parker.park_counts(), (1, 0));
    }
}
