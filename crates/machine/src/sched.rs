//! How a machine's nodes get the host CPU ([`ExecBackend`]), and the one
//! way a node blocks: it raises a flag in its mailbox, which holds its
//! `Waiter` from its first park on, and parks through its `Parker` — an
//! OS thread in the kernel, a fiber by handing the executor's thread to
//! the next runnable node (`fiber.rs` has the executor's rules, DESIGN.md
//! §13 the reasons). Whoever ends the wait — a sender, a failing peer —
//! takes the flag and wakes the waiter, once.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Instant;

use crate::fiber;

/// How simulated nodes map onto OS execution. A builder that names
/// neither gets `Multiplexed` where it can run and `Threads` elsewhere
/// ([`crate::MachineBuilder::backend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// One freely-running OS thread per node: what sockets and targets
    /// without the fiber switch run on, and the reference the backend
    /// equivalence suites compare `Multiplexed` against. Collapses past a
    /// few hundred nodes, and its simulated time carries the host's
    /// scheduling jitter.
    Threads,
    /// One small-stacked fiber per node, all run to completion by one
    /// executor on the calling thread: started in rank order, resumed in
    /// the FIFO order their wake-ups were queued, failed at once as
    /// `wedged` when all are blocked. No system call per hop. Required for
    /// the 256–4096 node runs; the same messages as `Threads` (nodes only
    /// yield where they already blocked), in an order — and so with
    /// virtual clocks — that repeats exactly from run to run. x86-64 unix
    /// only; elsewhere [`crate::MachineBuilder::validate`] rejects it.
    Multiplexed,
}

/// Who a [`Waiter`] wakes.
pub(crate) enum Owner {
    Thread(Thread),
    /// A fiber of the executor on the thread that wakes it.
    Fiber(usize),
}

/// One node's wake-up handle, held by its mailbox for the life of the
/// machine; a raised flag beside it in the mailbox says the owner is
/// parked.
///
/// `granted` is the whole protocol: the owner clears it before a wait,
/// exactly one party sets it (`Release`) and wakes the owner, and the
/// owner parks until it reads `true` (`Acquire`), which makes the waker's
/// delivery visible. The clearing store can be `Relaxed` because a waker
/// learns of the wait only by taking the mailbox's flag under its mutex,
/// and the owner raises the flag under that mutex after the clear, so
/// every grant is ordered behind it.
pub(crate) struct Waiter {
    granted: AtomicBool,
    owner: Owner,
}

impl Waiter {
    /// End this waiter's blocking episode. Called once per episode, by
    /// whoever took its mailbox's flag down, with no lock held.
    pub(crate) fn wake(&self) {
        self.granted.store(true, Ordering::Release);
        match &self.owner {
            Owner::Thread(t) => t.unpark(),
            Owner::Fiber(id) => fiber::wake(*id),
        }
    }
}

/// A node's handle on its own parking: the [`Waiter`] others wake it
/// through, and the park itself. Owned by the node (not `Sync`).
pub(crate) struct Parker {
    waiter: Arc<Waiter>,
    /// Blocking episodes that really parked, and how many of those ended
    /// at the deadline instead of by a wake-up. Always on, two bumps a park.
    parks: Cell<u64>,
    park_timeouts: Cell<u64>,
}

impl Parker {
    /// A handle that parks the calling OS thread.
    pub(crate) fn thread() -> Self {
        Self::new(Owner::Thread(std::thread::current()))
    }

    /// A handle for `owner`'s own use (a fiber's: on its executor's thread).
    pub(crate) fn new(owner: Owner) -> Self {
        let waiter = Arc::new(Waiter { granted: AtomicBool::new(false), owner });
        Parker { waiter, parks: Cell::new(0), park_timeouts: Cell::new(0) }
    }

    /// The waiter others wake this handle's owner through.
    pub(crate) fn waiter(&self) -> &Arc<Waiter> {
        &self.waiter
    }

    /// Start a blocking episode: clear the grant flag, before the owner
    /// raises the flag that tells wakers it waits.
    pub(crate) fn arm(&self) {
        self.waiter.granted.store(false, Ordering::Relaxed);
    }

    /// The host clock as this handle's owner reads it: exact for a thread;
    /// for a fiber, its executor's coarse one ([`fiber::now`]) — a wait
    /// that only compares it with a deadline seconds away never asks the
    /// kernel.
    pub(crate) fn now(&self) -> Instant {
        match self.waiter.owner {
            Owner::Thread(_) => Instant::now(),
            Owner::Fiber(_) => fiber::now(),
        }
    }

    /// Park the armed waiter, its wait published, until someone wakes it
    /// (`true`) or `deadline` passes and `cancel` withdraws the publication
    /// (`false`). `cancel` returning `false` means a waker already took
    /// the publication and its grant is on the way, so the park continues —
    /// past the deadline if it must — until that grant lands.
    /// A fiber tests the deadline before it suspends (nobody looks while
    /// it is suspended): a wait that keeps being woken but never satisfied
    /// still ends at its watchdog, one that cannot be woken by the
    /// executor's deadlock rule.
    pub(crate) fn park_until(&self, deadline: Instant, cancel: impl Fn() -> bool) -> bool {
        self.parks.set(self.parks.get() + 1);
        while !self.waiter.granted.load(Ordering::Acquire) {
            let left = deadline.saturating_duration_since(self.now());
            match &self.waiter.owner {
                Owner::Thread(_) if !left.is_zero() => std::thread::park_timeout(left),
                Owner::Fiber(_) if !left.is_zero() && fiber::suspend() => {}
                // The deadline passed, or the executor found a deadlock.
                _ if cancel() => {
                    self.park_timeouts.set(self.park_timeouts.get() + 1);
                    return false;
                }
                Owner::Thread(_) => std::thread::park(),
                // A fiber's waker has run to completion on this very
                // thread: the grant has landed.
                Owner::Fiber(_) => {}
            }
        }
        true
    }

    /// `(parks, park_timeouts)` so far.
    pub(crate) fn park_counts(&self) -> (u64, u64) {
        (self.parks.get(), self.park_timeouts.get())
    }
}
