//! Cooperative node scheduling: multiplex many simulated nodes over a
//! fixed pool of execution slots, and park each blocked node exactly once.
//!
//! The substrate's original design gave every simulated node its own OS
//! thread and let the kernel schedule all of them. That is faithful and
//! simple, but it stops scaling long before the node counts where the
//! protocol-customization story gets interesting: thousands of runnable
//! threads thrash the kernel scheduler, and a machine-wide barrier turns
//! into a context-switch storm.
//!
//! The multiplexed backend keeps one OS thread per node (so node state can
//! stay `Cell`/`RefCell` and app closures can block naturally at any call
//! depth) but gates *execution* through a fixed number of slots — one per
//! host core by default. A node holds a slot while it computes and gives
//! it up exactly at the substrate's one blocking point (the mailbox park
//! inside `Node::poll_until` — the same point that already flushes the
//! coalescing buffers), so at any instant only `workers` node threads are
//! runnable and everyone else is parked with no slot held. The per-node
//! stacks are shrunk (see [`MUX_STACK_BYTES`]) so thousands of
//! mostly-parked threads stay cheap.
//!
//! A blocked node is woken *with* its slot: whoever ends the wait (a
//! sender, a failing peer) does not unpark the thread but hands its
//! [`Waiter`] to the gate ([`Waiter::wake`]), which grants a free slot or
//! queues the waiter. The gate has one FIFO: a release grants the slot
//! directly to the oldest waiter instead of returning it to the free
//! pool, so no node starves even when the machine is oversubscribed a
//! hundredfold, and a thread is unparked once per blocking episode,
//! already holding the slot it needs. Under [`ExecBackend::Threads`] there
//! is no gate and the same wake grants directly.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Instant;

/// How simulated nodes map onto OS execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// One freely-running OS thread per node (the legacy substrate).
    /// Exact at small scale; collapses past a few hundred nodes.
    #[default]
    Threads,
    /// One small-stacked thread per node, cooperatively multiplexed over
    /// a worker-sized pool of execution slots (see module docs). Required
    /// for the 256–4096 node runs; observationally equivalent to
    /// `Threads` (same messages, same virtual clocks) because nodes only
    /// yield where they already blocked.
    Multiplexed,
}

/// Stack size for node threads under [`ExecBackend::Multiplexed`]. The
/// apps recurse only logarithmically (Barnes' octree walk), so 1 MiB is
/// deep water; at 4096 nodes this is 4 GiB of *virtual* reservation, of
/// which only the touched pages materialize.
pub(crate) const MUX_STACK_BYTES: usize = 1 << 20;

/// Default worker-pool width: one slot per host core.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// One node thread's wake-up handle: what a mailbox publishes while its
/// owner is parked and what the gate queues while it waits for a slot.
///
/// `granted` is the whole protocol: the owner clears it before a wait,
/// exactly one party sets it (`Release`) and unparks, and the owner parks
/// until it reads `true` (`Acquire`), which makes the waker's delivery
/// visible. The clearing store can be `Relaxed` because the waiter only
/// reaches a waker through a mutex (a mailbox's or the gate's) locked
/// after it, so every grant is ordered behind it. Under a gate,
/// `granted` also means "a slot is yours".
pub(crate) struct Waiter {
    thread: Thread,
    granted: AtomicBool,
    /// The gate a wake-up goes through, `None` under `Threads`.
    sched: Option<Arc<Scheduler>>,
}

impl Waiter {
    fn grant(&self) {
        self.granted.store(true, Ordering::Release);
        self.thread.unpark();
    }

    /// End this waiter's blocking episode. Called once per episode, by
    /// whoever took the waiter out of its mailbox, with no lock held.
    pub(crate) fn wake(self: &Arc<Self>) {
        match &self.sched {
            Some(s) => s.make_ready(self),
            None => self.grant(),
        }
    }
}

struct Gate {
    free: usize,
    queue: VecDeque<Arc<Waiter>>,
}

/// The execution-slot gate shared by every node of one machine.
///
/// This is a counting semaphore with a FIFO waiter queue, built on
/// `park`/`unpark` so an idle machine burns no CPU. The mutex guards only
/// the tiny grant/queue state — it is held for a handful of instructions
/// per slot transfer, never across a park or an unpark.
pub(crate) struct Scheduler {
    gate: Mutex<Gate>,
}

impl Scheduler {
    pub(crate) fn new(workers: usize) -> Self {
        Scheduler { gate: Mutex::new(Gate { free: workers.max(1), queue: VecDeque::new() }) }
    }

    /// Hand `w` a slot: grant a free one now, else queue it behind every
    /// earlier waiter for a releaser to serve.
    fn make_ready(&self, w: &Arc<Waiter>) {
        {
            let mut g = self.gate.lock().expect("gate mutex poisoned");
            if g.free == 0 {
                g.queue.push_back(Arc::clone(w));
                return;
            }
            g.free -= 1;
        }
        w.grant();
    }

    fn release(&self) {
        let next = {
            let mut g = self.gate.lock().expect("gate mutex poisoned");
            let next = g.queue.pop_front();
            if next.is_none() {
                g.free += 1;
            }
            next
        };
        // Direct handoff: the slot never revisits the free pool, so
        // waiters are served strictly FIFO.
        if let Some(w) = next {
            w.grant();
        }
    }
}

/// A node thread's handle on its own parking: the [`Waiter`] others wake
/// it through, and (under `Multiplexed`) the execution slot it holds.
/// Owned by the thread that created it (not `Sync`); the `held` flag makes
/// `acquire`/`release` idempotent so the exit-path release is safe no
/// matter where a panic unwound from.
pub(crate) struct SlotHandle {
    waiter: Arc<Waiter>,
    held: Cell<bool>,
    /// Blocking episodes that really parked, and how many of those ended
    /// at the deadline instead of by a wake-up. Always on: two `Cell`
    /// bumps per park, nothing on any non-blocking path.
    parks: Cell<u64>,
    park_timeouts: Cell<u64>,
}

impl SlotHandle {
    /// A handle for the calling thread on `sched`'s gate.
    pub(crate) fn new(sched: Arc<Scheduler>) -> Self {
        Self::with_gate(Some(sched))
    }

    /// A handle for the calling thread with no gate (`Threads`): slots
    /// are no-ops and a wake-up is a plain unpark.
    pub(crate) fn ungated() -> Self {
        Self::with_gate(None)
    }

    fn with_gate(sched: Option<Arc<Scheduler>>) -> Self {
        let waiter = Arc::new(Waiter {
            thread: std::thread::current(),
            granted: AtomicBool::new(false),
            sched,
        });
        SlotHandle {
            waiter,
            held: Cell::new(false),
            parks: Cell::new(0),
            park_timeouts: Cell::new(0),
        }
    }

    /// Block until this thread holds an execution slot.
    pub(crate) fn acquire(&self) {
        let Some(sched) = &self.waiter.sched else { return };
        if !self.held.get() {
            self.waiter.granted.store(false, Ordering::Relaxed);
            sched.make_ready(&self.waiter);
            // `park` may return spuriously and the grant may land before
            // we park (the token is buffered), so loop on the flag.
            while !self.waiter.granted.load(Ordering::Acquire) {
                std::thread::park();
            }
            self.held.set(true);
        }
    }

    /// Give the slot up.
    pub(crate) fn release(&self) {
        if self.held.replace(false) {
            self.waiter.sched.as_ref().expect("a held slot has a gate").release();
        }
    }

    /// Start a blocking episode: clear the grant flag and return the
    /// waiter to publish where wakers will find it.
    pub(crate) fn arm(&self) -> Arc<Waiter> {
        self.waiter.granted.store(false, Ordering::Relaxed);
        Arc::clone(&self.waiter)
    }

    /// Park the armed, published waiter until someone wakes it (`true`)
    /// or `deadline` passes and `cancel` withdraws the publication
    /// (`false`). `cancel` returning `false` means a waker already took
    /// the waiter and its grant is on the way, so the park continues —
    /// past the deadline if it must — until that grant lands.
    ///
    /// The held slot is released first and the granted one adopted after:
    /// a grant can land before the release, and then carries a slot of
    /// its own. Returns holding a slot either way.
    pub(crate) fn park_until(&self, deadline: Instant, cancel: impl Fn() -> bool) -> bool {
        self.parks.set(self.parks.get() + 1);
        self.release();
        while !self.waiter.granted.load(Ordering::Acquire) {
            let left = deadline.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                std::thread::park_timeout(left);
            } else if cancel() {
                self.park_timeouts.set(self.park_timeouts.get() + 1);
                self.acquire();
                return false;
            } else {
                std::thread::park();
            }
        }
        self.held.set(self.waiter.sched.is_some());
        true
    }

    /// `(parks, park_timeouts)` so far.
    pub(crate) fn park_counts(&self) -> (u64, u64) {
        (self.parks.get(), self.park_timeouts.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn gate_bounds_concurrency() {
        let sched = Arc::new(Scheduler::new(3));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..24 {
                let sched = Arc::clone(&sched);
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                scope.spawn(move || {
                    let slot = SlotHandle::new(sched);
                    for _ in 0..50 {
                        slot.acquire();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::hint::black_box(now);
                        live.fetch_sub(1, Ordering::SeqCst);
                        slot.release();
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "slots leaked: peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn release_is_idempotent_and_acquire_reentrant() {
        let sched = Arc::new(Scheduler::new(1));
        let slot = SlotHandle::new(Arc::clone(&sched));
        slot.acquire();
        slot.acquire(); // no-op: already held
        slot.release();
        slot.release(); // no-op: not held
        assert_eq!(sched.gate.lock().unwrap().free, 1, "slot returned exactly once");
    }

    #[test]
    fn oversubscribed_fifo_makes_progress() {
        // 64 "nodes" over 2 slots, each yielding many times: everyone
        // must finish (no starvation, no lost wakeup).
        let sched = Arc::new(Scheduler::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..64 {
                let sched = Arc::clone(&sched);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let slot = SlotHandle::new(sched);
                    for _ in 0..100 {
                        slot.acquire();
                        slot.release();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }
}
