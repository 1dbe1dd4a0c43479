//! Stackful fibers run to completion by one executor on one OS thread:
//! what [`ExecBackend::Multiplexed`](crate::ExecBackend::Multiplexed)
//! runs a machine's nodes on. x86-64 System V only (DESIGN.md §13).
//!
//! A fiber is a closure with a stack of its own. [`run`] starts its
//! bodies in order (fiber `i` is `bodies[i]`), each until it first
//! [`suspend`]s or returns, then resumes whatever [`wake`] has queued —
//! one FIFO of fiber ids, front first — until every body has returned.
//! No preemption, no second thread: what the bodies do, in what order,
//! is a function of the bodies alone, and a switch never asks the
//! kernel. If the FIFO runs dry while fibers are suspended, nothing is
//! left to wake them (only a running fiber calls [`wake`]): each is
//! resumed with `suspend() == false`, until they return.
//!
//! Who switches to whom: a fiber that suspends pops the FIFO itself and
//! switches straight to the fiber at the front, or carries on without a
//! switch if that is itself. It switches back to the executor only when
//! the FIFO is empty, and a finished body always does. So the executor's
//! loop runs to start the first fiber, after a body returns, and for the
//! deadlock rule — never between two fibers that hand over. Both pick the
//! next fiber through one function (`next_ready`), which skips the ids of
//! finished fibers and ticks the coarse clock behind [`now`].
//!
//! This module holds all of the `unsafe` — `mmap`ed stacks, the register
//! switch, the erased lifetime of the bodies — behind safe functions,
//! under these invariants, all kept here:
//!
//! * A fiber is created, run and finished on the thread that called
//!   [`run`]; nothing is `Send`, no `Rc` changes thread.
//! * `run` returns only when every body has, so a body may borrow from
//!   `run`'s caller. Its stacks then go to the thread's pool, and the
//!   next `run` gives its fiber `i` stack `i`, building the first frame
//!   afresh, and maps new stacks only past the pool's end. A `run` unmaps
//!   the pooled stacks its machine does not need, and the thread's exit
//!   the rest: only ever on the executor's own stack, never on a fiber's.
//! * Each stack ends in a `PROT_NONE` guard page, kept for its whole life:
//!   overflow is a `SIGSEGV` (frames over a page are probed), not a
//!   scribble over a neighbour.
//! * A body never unwinds into the trampoline, which has no frame above
//!   it: the trampoline aborts the process if one does.
//! * A fiber never switches out while its thread is unwinding (`suspend`
//!   asserts it): the panic count is the thread's, so the next fiber to
//!   panic would be a double panic. No `Drop` may suspend a fiber.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ffi::{c_int, c_void};
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Whether this target has a fiber switch (see module docs).
pub(crate) const SUPPORTED: bool = true;

/// A fiber's stack, and so a node's under `Multiplexed`. The apps recurse
/// only logarithmically (Barnes' octree walk), so 1 MiB is deep water; at
/// 4096 nodes it is 4 GiB reserved, of which touched pages materialize.
/// The thread keeps its last machine's stacks, touched pages and all, for
/// the next machine it runs.
const MUX_STACK_BYTES: usize = 1 << 20;
/// Resumes between two reads of the host clock behind [`now`]. A blocked
/// fiber only needs the time to notice a watchdog of seconds, so reading
/// it on every hop buys nothing.
const CLOCK_RESUMES: u32 = 64;
const PAGE: usize = 4096;
const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 1 | 2;
/// `MAP_PRIVATE | MAP_ANONYMOUS`.
const MAP_FLAGS: c_int = 2 | if cfg!(target_os = "linux") { 0x20 } else { 0x1000 };

// SAFETY: the C library's own prototypes (std links it on every unix).
unsafe extern "C" {
    fn mmap(p: *mut c_void, n: usize, prot: c_int, flag: c_int, fd: c_int, off: i64)
        -> *mut c_void;
    fn mprotect(p: *mut c_void, n: usize, prot: c_int) -> c_int;
    fn munmap(p: *mut c_void, n: usize) -> c_int;
}

/// One fiber's stack: `MUX_STACK_BYTES` above a guard page, by its base.
/// Dropped (and unmapped) only by the executor on its own stack: a `run`
/// trimming the pool, or the thread's exit.
struct Stack(*mut c_void);

impl Stack {
    const LEN: usize = PAGE + MUX_STACK_BYTES;

    /// Map a stack whose lowest page is its guard.
    fn map() -> Stack {
        // SAFETY: a fresh private anonymous mapping at an address of the
        // kernel's choosing aliases nothing; the result is checked.
        let base =
            unsafe { mmap(std::ptr::null_mut(), Self::LEN, PROT_READ_WRITE, MAP_FLAGS, -1, 0) };
        assert!(base as isize != -1, "mmap of a fiber stack failed");
        // SAFETY: the lowest page of the mapping just made, which nothing
        // uses yet. Stacks grow down, so this is where an overflow lands.
        let guarded = unsafe { mprotect(base, PAGE, PROT_NONE) };
        assert_eq!(guarded, 0, "mprotect of a fiber stack's guard page failed");
        Stack(base)
    }

    /// Build a fiber's first frame on this stack, over whatever a finished
    /// fiber left there. Returns what [`switch`] first loads for it: six
    /// zeroed callee-saved registers to pop, [`trampoline`] to return to,
    /// and above that the null return address it "was called from", where
    /// a backtrace stops.
    fn first_frame(&self) -> usize {
        let frame = [0, 0, 0, 0, 0, 0, trampoline as extern "sysv64" fn() -> ! as usize, 0];
        let sp = self.0 as usize + Self::LEN - 8 * frame.len();
        // The ABI's entry condition, as after a `call`: without it the
        // first aligned SSE spill in the body faults.
        assert_eq!((sp + 8 * 7) % 16, 8, "a fiber must start with rsp = 16n + 8");
        // SAFETY: the top 64 bytes of this stack's own writable pages
        // (64 < MUX_STACK_BYTES). The stack is fresh or pooled, so no
        // fiber runs on it and nothing points into it.
        unsafe { (sp as *mut [usize; 8]).write(frame) };
        sp
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `map` made. Only the executor drops
        // a stack, on its own stack, and only one no fiber will resume.
        let unmapped = unsafe { munmap(self.0, Self::LEN) };
        debug_assert_eq!(unmapped, 0, "munmap of a fiber stack failed");
    }
}

/// Push the callee-saved registers, publish the stack pointer through
/// `save`, and continue on the stack `to` names by popping what this
/// function (or [`Stack::first_frame`]) left there. Returns when something
/// switches back.
///
/// # Safety
///
/// `save` must be writable and `to` a stack pointer this function
/// published (or `Stack::first_frame` built) for a stack that is still mapped,
/// not running, and owned by the calling thread. `mxcsr` and the x87
/// control word are not saved: nothing in this program changes either.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut usize, to: usize) {
    core::arch::naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
    )
}

struct Fiber {
    /// Where this fiber's registers are while it is switched out.
    sp: Cell<usize>,
    /// Until the body has returned.
    live: bool,
    stack: Stack,
    body: Option<Box<dyn FnOnce()>>,
}

/// The calling thread's executor: empty but for its pool unless the
/// thread is inside [`run`]. No `RefCell` borrow is ever held across a
/// [`switch`].
#[derive(Default)]
struct Executor {
    fibers: RefCell<Vec<Fiber>>,
    /// The last `run`'s stacks by fiber id, for the next `run`'s fibers:
    /// fiber `i` gets stack `i` again, with the pages its rank touched.
    pool: RefCell<Vec<Stack>>,
    /// Woken fiber ids, oldest first.
    ready: RefCell<VecDeque<usize>>,
    /// The fiber that is running; meaningless while the executor is.
    current: Cell<usize>,
    /// Where the executor's registers are while a fiber runs.
    sp: Cell<usize>,
    /// The FIFO ran dry with fibers suspended: `suspend` returns `false`.
    stalled: Cell<bool>,
    /// Set by a fiber whose body has returned, for the executor it switches back to.
    finished: Cell<bool>,
    /// The host clock as [`next_ready`] last read it; `None` outside `run`.
    now: Cell<Option<Instant>>,
    /// Resumes left before [`next_ready`] reads the host clock again.
    clock_due: Cell<u32>,
    /// Switches the executor loop has made into a fiber in this thread's runs.
    #[cfg(test)]
    entries: Cell<usize>,
}

thread_local! {
    static EXEC: Executor = Executor::default();
}

/// The two arguments of a [`switch`] from the running fiber back to the
/// executor.
fn way_out(e: &Executor) -> (*mut usize, usize) {
    let fibers = e.fibers.borrow();
    assert!(!fibers.is_empty(), "fiber::suspend called outside fiber::run");
    (fibers[e.current.get()].sp.as_ptr(), e.sp.get())
}

/// Where every fiber starts, reached by `switch`'s `ret`, never called
/// and never returning.
extern "sysv64" fn trampoline() -> ! {
    let body = EXEC.with(|e| e.fibers.borrow_mut()[e.current.get()].body.take());
    if std::panic::catch_unwind(AssertUnwindSafe(body.expect("a fiber starts once"))).is_err() {
        // No frame above this one: there is nowhere to unwind to.
        std::process::abort();
    }
    let (save, to) = EXEC.with(|e| {
        e.finished.set(true);
        way_out(e)
    });
    // SAFETY: `to` is what `run`'s switch published on the executor's
    // own stack, which is waiting in that switch; `save` is this fiber's
    // slot, written once more and never read again.
    unsafe { switch(save, to) };
    unreachable!("a finished fiber was resumed")
}

/// Run `bodies` as fibers on the calling thread until all have returned
/// (see module docs for the order). A body that panics aborts the
/// process: catch what can be caught inside it. Panics inside a fiber.
pub(crate) fn run<'a>(bodies: Vec<Box<dyn FnOnce() + 'a>>) {
    // Fibers reach `EXEC` through `with` calls of their own, nested in this one.
    EXEC.with(|e| {
        assert!(e.fibers.borrow().is_empty(), "fiber::run called from inside a fiber");
        let n = bodies.len();
        let mut pooled = e.pool.take().into_iter();
        let spawn = |body: Box<dyn FnOnce() + 'a>| {
            // SAFETY: only the lifetime changes. The body is consumed by its
            // fiber, and this function does not return before every fiber
            // has finished (`live == 0` below), so nothing borrowed for 'a
            // is used after 'a.
            let body: Box<dyn FnOnce()> = unsafe { std::mem::transmute(body) };
            let stack = pooled.next().unwrap_or_else(Stack::map);
            Fiber { sp: Cell::new(stack.first_frame()), live: true, stack, body: Some(body) }
        };
        let fibers: Vec<Fiber> = bodies.into_iter().map(spawn).collect();
        // Unmaps the pooled stacks this machine does not need, so the
        // thread holds at most one machine's.
        drop(pooled);
        *e.fibers.borrow_mut() = fibers;
        e.ready.borrow_mut().extend(0..n);
        e.stalled.set(false);
        e.clock_due.set(0);
        let mut live = n;
        while live > 0 {
            let Some((id, to)) = next_ready(e) else {
                // Deadlock: only a running fiber wakes another, and none is.
                e.stalled.set(true);
                let fibers = e.fibers.borrow();
                e.ready.borrow_mut().extend((0..n).filter(|&i| fibers[i].live));
                continue;
            };
            e.current.set(id);
            #[cfg(test)]
            e.entries.set(e.entries.get() + 1);
            // SAFETY: `to` was built by `Stack::first_frame` or published by the
            // switch in `suspend`, for a live fiber's stack (`next_ready` checks),
            // which is mapped and not running (the executor is); `save` is
            // `EXEC.sp`.
            unsafe { switch(e.sp.as_ptr(), to) };
            // Back from whichever fiber ran last: its body returned, or it
            // suspended on an empty FIFO.
            if e.finished.replace(false) {
                e.fibers.borrow_mut()[e.current.get()].live = false;
                live -= 1;
            }
        }
        *e.pool.borrow_mut() = e.fibers.take().into_iter().map(|f| f.stack).collect();
        e.ready.take();
        e.now.take();
    });
}

/// The next fiber to resume and the stack pointer to switch to, popped off
/// the FIFO front; `None` if the FIFO is empty. The one place a fiber is
/// chosen, for the executor and a suspending fiber alike: it skips stale
/// ids and reads the host clock every [`CLOCK_RESUMES`] resumes.
fn next_ready(e: &Executor) -> Option<(usize, usize)> {
    let next = loop {
        let id = e.ready.borrow_mut().pop_front()?;
        let fiber = &e.fibers.borrow()[id];
        // A stale id: its fiber finished after this wake was queued.
        if fiber.live {
            break (id, fiber.sp.get());
        }
    };
    let due = match e.clock_due.get() {
        0 => {
            e.now.set(Some(Instant::now()));
            CLOCK_RESUMES
        }
        due => due,
    };
    e.clock_due.set(due - 1);
    Some(next)
}

/// Give the thread to the next fiber [`wake`] queued, until a `wake` of
/// this fiber reaches the front of the FIFO; `false` if none came and
/// none can (deadlock). The running fiber switches straight to the next
/// one, or carries on if it is next itself; only an empty FIFO sends it
/// back to the executor. A second `wake` with no `suspend` in between
/// resumes it early: wait in a loop, on a condition the waker sets.
/// Panics if the thread is unwinding (inside a `Drop`, an abort) or is
/// not running a fiber.
pub(crate) fn suspend() -> bool {
    assert!(!std::thread::panicking(), "a fiber must not suspend while it unwinds");
    EXEC.with(|e| {
        let (save, exec) = way_out(e);
        let to = match next_ready(e) {
            Some((id, _)) if id == e.current.get() => return !e.stalled.get(),
            Some((id, to)) => {
                e.current.set(id);
                to
            }
            None => exec,
        };
        // SAFETY: `save` is the running fiber's own slot, in a `Vec` that
        // does not move while fibers live. `to` is either what `run`'s
        // switch published on the executor's stack, which is waiting in
        // that switch, or the stack pointer of another live fiber
        // (`next_ready` checks): built by `Stack::first_frame` or published
        // by this switch when that fiber suspended, for a stack that is
        // mapped and not running, since only this fiber runs.
        unsafe { switch(save, to) };
        !e.stalled.get()
    })
}

/// The host clock for a running fiber: read before the first resume and
/// every [`CLOCK_RESUMES`] after, so never ahead of the
/// real one and behind it by at most that many hops. Panics outside [`run`].
pub(crate) fn now() -> Instant {
    EXEC.with(|e| e.now.get()).expect("fiber::now called outside fiber::run")
}

/// Queue fiber `id` to be resumed, behind everything already queued.
/// Panics on a thread that is not inside [`run`]: a fiber can only be
/// woken from its own executor's thread.
pub(crate) fn wake(id: usize) {
    EXEC.with(|e| {
        assert!(id < e.fibers.borrow().len(), "fiber::wake from outside the fiber's executor");
        e.ready.borrow_mut().push_back(id);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hint::black_box;
    use std::rc::Rc;

    fn boxed<'a>(f: impl FnOnce() + 'a) -> Box<dyn FnOnce() + 'a> {
        Box::new(f)
    }

    #[test]
    fn bodies_start_in_order_and_resume_in_wake_order() {
        let log = RefCell::new(Vec::new());
        let body = |id: usize, wakes: &'static [usize]| {
            let log = &log;
            boxed(move || {
                log.borrow_mut().push((id, "start"));
                wakes.iter().for_each(|&w| wake(w));
                if id < 2 {
                    assert!(suspend(), "woken, not deadlocked");
                    log.borrow_mut().push((id, "resumed"));
                }
            })
        };
        // 0 and 1 suspend; 2 wakes 1 then 0; 3 just runs.
        run(vec![body(0, &[]), body(1, &[]), body(2, &[1, 0]), body(3, &[])]);
        let want = [(0, "start"), (1, "start"), (2, "start"), (3, "start")];
        assert_eq!(log.borrow()[..4], want);
        assert_eq!(log.borrow()[4..], [(1, "resumed"), (0, "resumed")]);
    }

    /// Switches the executor loop has made into a fiber on this thread.
    fn entries() -> usize {
        EXEC.with(|e| e.entries.get())
    }

    #[test]
    fn a_ping_pong_enters_the_executor_loop_only_to_start_and_retire_its_fibers() {
        // Two fibers take turns `rounds` times each; every hop between them
        // is a fiber-to-fiber switch. The loop starts fiber 0 and, once one
        // body has returned, resumes the other: two entries, whatever `rounds`.
        for rounds in [1, 1000] {
            let before = entries();
            let turn = Cell::new(0usize);
            let bodies = (0..2usize).map(|me| {
                let turn = &turn;
                boxed(move || {
                    for _ in 0..rounds {
                        while turn.get() % 2 != me {
                            assert!(suspend());
                        }
                        turn.set(turn.get() + 1);
                        wake(1 - me);
                    }
                })
            });
            run(bodies.collect());
            assert_eq!((turn.get(), entries() - before), (2 * rounds, 2), "{rounds} rounds");
        }
    }

    #[test]
    fn a_fiber_whose_own_wake_is_at_the_front_continues_without_a_switch() {
        // A switch out saves the fiber's registers and publishes its stack
        // pointer; carrying on does neither.
        let before = entries();
        let (resumed, switched_out) = (Cell::new(0), Cell::new(true));
        run(vec![boxed(|| {
            let saved = || EXEC.with(|e| e.fibers.borrow()[0].sp.get());
            let sp = saved();
            for _ in 0..100 {
                wake(0);
                assert!(suspend());
                resumed.set(resumed.get() + 1);
            }
            switched_out.set(saved() != sp);
        })]);
        assert!(!switched_out.get(), "the fiber saved its registers");
        assert_eq!((resumed.get(), entries() - before), (100, 1));
    }

    #[test]
    fn a_finished_fibers_stale_id_is_skipped_by_a_suspending_fiber_as_by_the_executor() {
        // Fiber 2 queues finished fiber 1 ahead of fiber 0 and suspends: it
        // skips 1 and hands over to 0. Fiber 0 queues 1 ahead of 2 and
        // returns: the executor skips 1 and resumes 2.
        let before = entries();
        let log = RefCell::new(Vec::new());
        let log = &log;
        run(vec![
            boxed(move || {
                log.borrow_mut().push("0 start");
                assert!(suspend());
                log.borrow_mut().push("0 resumed");
                wake(1);
                wake(2);
            }),
            boxed(move || log.borrow_mut().push("1 done")),
            boxed(move || {
                log.borrow_mut().push("2 start");
                wake(1);
                wake(0);
                assert!(suspend());
                log.borrow_mut().push("2 resumed");
            }),
        ]);
        let want = ["0 start", "1 done", "2 start", "0 resumed", "2 resumed"];
        assert_eq!(*log.borrow(), want);
        // Starting 0, starting 2 after 1 returned, resuming 2 after 0 did.
        assert_eq!(entries() - before, 3, "fiber 2 handed over to fiber 0 itself");
    }

    #[test]
    fn ring_of_4096_passes_a_token_round_twice() {
        // Fiber i waits for the token, counts it, and hands it on: every
        // fiber is suspended and resumed twice, and all of them finish.
        const N: usize = 4096;
        let token = Cell::new(0usize);
        let passes = Cell::new(0usize);
        let bodies = (0..N).map(|i| {
            let (token, passes) = (&token, &passes);
            boxed(move || {
                for lap in 0..2 {
                    while token.get() != i + lap * N {
                        assert!(suspend());
                    }
                    passes.set(passes.get() + 1);
                    token.set(token.get() + 1);
                    wake((i + 1) % N);
                }
            })
        });
        run(bodies.collect());
        assert_eq!((passes.get(), token.get()), (2 * N, 2 * N));
        EXEC.with(|e| assert!(e.fibers.borrow().is_empty() && e.ready.borrow().is_empty()));
    }

    /// The bases of the calling thread's pooled stacks, by fiber id.
    fn pooled() -> Vec<usize> {
        EXEC.with(|e| e.pool.borrow().iter().map(|s| s.0 as usize).collect())
    }

    /// Run `n` bodies and return the stack each ran on, by fiber id: the
    /// address of a local in it, rounded down to the pooled stack holding it.
    fn stacks_run_on(n: usize) -> Vec<usize> {
        let locals = RefCell::new(Vec::new());
        let bodies = (0..n).map(|_| {
            let locals = &locals;
            boxed(move || {
                let here = black_box(0u8);
                locals.borrow_mut().push(&here as *const u8 as usize);
            })
        });
        run(bodies.collect());
        let pool = pooled();
        let stack_of = |a: usize| pool.iter().copied().find(|&b| b < a && a < b + Stack::LEN);
        let locals = locals.into_inner().into_iter();
        locals.map(|a| stack_of(a).expect("a local on a pooled stack")).collect()
    }

    #[test]
    fn a_second_run_reuses_the_first_runs_stacks_and_a_smaller_one_trims_them() {
        const N: usize = 8;
        let first = stacks_run_on(N);
        let distinct: BTreeSet<usize> = first.iter().copied().collect();
        assert_eq!(distinct.len(), N, "one stack per fiber");
        assert_eq!(stacks_run_on(N), first, "fiber i ran on stack i again: nothing was mapped");
        let fewer = stacks_run_on(3);
        assert_eq!(fewer, first[..3]);
        assert_eq!(pooled(), fewer, "exactly the smaller run's stacks stay pooled");
    }

    #[test]
    fn a_fiber_starts_aligned_and_a_backtrace_ends_at_the_trampoline() {
        // `initial_sp` asserts rsp = 16n + 8 at the trampoline's entry;
        // this is what the assertion is for. Formatting a float spills
        // SSE registers with aligned moves, and a backtrace walks frames
        // until it meets the null return address above the trampoline.
        let out = RefCell::new(String::new());
        run(vec![boxed(|| {
            let bt = std::backtrace::Backtrace::force_capture();
            *out.borrow_mut() = format!("{:.3} {}", black_box(2.5f64).sqrt(), bt);
        })]);
        let out = out.into_inner();
        assert!(out.starts_with("1.581 "), "{out}");
        assert!(out.contains("trampoline"), "the walk reached the fiber's first frame:\n{out}");
    }

    #[test]
    fn callee_saved_registers_survive_a_suspend() {
        // Eight live values per fiber across every switch: more than the
        // six callee-saved registers, so some sit in them and some on the
        // fiber's stack, and two fibers interleave to clobber each other.
        let sums = [Cell::new(0u64), Cell::new(0u64)];
        let bodies = (0..2usize).map(|me| {
            let sums = &sums;
            boxed(move || {
                let mut v: [u64; 8] = std::array::from_fn(|k| black_box((me * 100 + k) as u64));
                for round in 0..1000u64 {
                    wake(1 - me);
                    suspend();
                    for (k, x) in v.iter_mut().enumerate() {
                        *x = black_box(*x + round * (k as u64 + 1));
                    }
                }
                sums[me].set(v.iter().sum());
            })
        });
        run(bodies.collect());
        let rounds: u64 = (0..1000).sum();
        let want = |me: u64| (0..8).map(|k| me * 100 + k + rounds * (k + 1)).sum::<u64>();
        assert_eq!((sums[0].get(), sums[1].get()), (want(0), want(1)));
    }

    #[test]
    fn a_deadlock_resumes_every_suspended_fiber_as_not_woken() {
        let seen = RefCell::new(Vec::new());
        let bodies = (0..3usize).map(|i| {
            let seen = &seen;
            boxed(move || {
                let woken = suspend();
                seen.borrow_mut().push((i, woken));
            })
        });
        run(bodies.collect());
        assert_eq!(*seen.borrow(), [(0, false), (1, false), (2, false)]);
    }

    #[test]
    fn bodies_borrow_from_the_caller_and_rc_state_stays_on_its_thread() {
        let shared = Rc::new(Cell::new(0u32));
        let bodies = (0..4).map(|_| {
            let shared = Rc::clone(&shared);
            boxed(move || shared.set(shared.get() + 1))
        });
        run(bodies.collect());
        assert_eq!(
            (shared.get(), Rc::strong_count(&shared)),
            (4, 1),
            "bodies ran and were dropped"
        );
        run(Vec::new());
    }

    #[test]
    fn the_coarse_clock_is_read_once_per_clock_resumes_and_never_runs_ahead() {
        // One fiber resumed 2 * CLOCK_RESUMES times reads `now()` on each:
        // two distinct values, neither before `run` nor after the present.
        let t0 = Instant::now();
        let reads = RefCell::new(Vec::new());
        run(vec![boxed(|| {
            for _ in 0..2 * CLOCK_RESUMES {
                let coarse = now();
                assert!(t0 <= coarse && coarse <= Instant::now());
                reads.borrow_mut().push(coarse);
                wake(0);
                assert!(suspend());
            }
        })]);
        let mut reads = reads.into_inner();
        assert!(reads.is_sorted());
        reads.dedup();
        assert_eq!(reads.len(), 2);
        EXEC.with(|e| assert!(e.now.get().is_none(), "no clock outside run"));
    }

    #[test]
    #[should_panic(expected = "outside the fiber's executor")]
    fn a_wake_from_a_thread_with_no_executor_is_refused() {
        wake(0);
    }

    #[test]
    #[should_panic(expected = "outside fiber::run")]
    fn a_suspend_outside_a_fiber_is_refused() {
        suspend();
    }

    #[test]
    fn a_nested_run_is_refused() {
        let refused = Cell::new(false);
        run(vec![boxed(|| {
            let nested = std::panic::catch_unwind(|| run(vec![boxed(|| {})]));
            refused.set(nested.is_err());
        })]);
        assert!(refused.get());
    }
}
