//! A message hop allocates nothing once a machine is warm. A wire
//! envelope's part list comes from its sender's free list and goes back to
//! its receiver's once its parts are handed out, so a steady ping-pong
//! reuses the same few lists: 1 000 and 2 000 round trips after a warm-up
//! allocate the same count, under `Off` (one part per envelope) and under
//! `Threshold(8)` alike.
//!
//! The count is this thread's, taken by a counting global allocator: the
//! multiplexed machine runs both nodes as fibers on the thread that reads
//! it, and tests running beside this one on other threads do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ace_machine::{CoalescePolicy, CostModel, ExecBackend, Spmd};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged, so each method
// keeps `System`'s contract; the counter is a thread-local `Cell` with no
// destructor, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Round trips before the count starts: enough to fill every buffer,
/// queue and free list the hop touches.
const WARM: u64 = 100;

/// Allocations on this thread over `trips` round trips of a 2-rank
/// ping-pong under `policy`, after [`WARM`] round trips.
fn allocs_over(policy: CoalescePolicy, trips: u64) -> u64 {
    let r = Spmd::builder()
        .nprocs(2)
        .cost(CostModel::free())
        .backend(ExecBackend::Multiplexed)
        .coalesce(policy)
        .run::<u64, _, _>(|node| {
            let got = Cell::new(0u64);
            if node.rank() == 0 {
                let mut start = 0;
                for i in 0..WARM + trips {
                    if i == WARM {
                        start = allocs();
                    }
                    node.send(1, i);
                    node.poll_until("the pong", |_, _| got.set(got.get() + 1), || got.get() > i);
                }
                allocs() - start
            } else {
                let pong = |n: &ace_machine::Node<u64>, env: ace_machine::Envelope<u64>| {
                    n.send(0, env.msg);
                    got.set(got.get() + 1);
                };
                node.poll_until("every ping", pong, || got.get() == WARM + trips);
                0
            }
        });
    assert_eq!(r.stats.total_msgs(), 2 * (WARM + trips));
    r.results[0]
}

#[test]
fn a_warm_hop_allocates_nothing() {
    for policy in [CoalescePolicy::Off, CoalescePolicy::Threshold(8)] {
        let (short, long) = (allocs_over(policy, 1_000), allocs_over(policy, 2_000));
        assert_eq!(short, long, "{policy:?}: allocations over 1 000 and 2 000 round trips");
    }
}
