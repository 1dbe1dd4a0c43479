//! A one-word region's word travels and rests by value, so a warm
//! write-and-barrier loop on one allocates nothing per step: the write
//! stores in place (no copy-on-write of a buffer a message or a sharer
//! still holds), a push or a reply carries the word inside the message,
//! and installing it is a store. Static update (home writes, the barrier
//! pushes) and SC (home writes and invalidates, the other rank re-reads)
//! each allocate the same count over 1 000 and over 2 000 warm steps.
//!
//! The count is this thread's, taken by a counting global allocator: the
//! multiplexed machine runs both nodes as fibers on the thread that reads
//! it, and tests running beside this one on other threads do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ace_core::{run_ace_with, AceRt, CostModel, ExecBackend, RegionId, Spmd};
use ace_protocols::{make, ProtoSpec};

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

/// Steps before the count starts: enough to fill every buffer, queue and
/// free list a step touches.
const WARM: u64 = 100;

/// Allocations on this thread over `steps` steps of a 2-rank loop on one
/// one-word region of a `spec` space homed on rank 0, after [`WARM`]
/// steps. A step is rank 0 writing the step number, a space barrier, rank
/// 1 reading the word back (and checking it), and a second barrier.
fn allocs_over(spec: ProtoSpec, steps: u64) -> u64 {
    let builder = Spmd::builder().nprocs(2).cost(CostModel::free());
    let r = run_ace_with(builder.backend(ExecBackend::Multiplexed), |rt: &AceRt| {
        let s = rt.new_space(make(spec));
        let mine = if rt.rank() == 0 { vec![rt.gmalloc::<u64>(s, 1).0] } else { vec![] };
        let rid = RegionId(rt.bcast(0, &mine)[0]);
        rt.map(rid);
        let mut start = 0;
        for i in 0..WARM + steps {
            if i == WARM {
                start = allocs();
            }
            if rt.rank() == 0 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] = i);
                rt.end_write(rid);
            }
            rt.barrier(s);
            if rt.rank() == 1 {
                rt.start_read(rid);
                assert_eq!(rt.with::<u64, _>(rid, |d| d[0]), i, "{}: step {i}", spec.name());
                rt.end_read(rid);
            }
            rt.barrier(s);
        }
        allocs() - start
    });
    r.results[0]
}

#[test]
fn a_warm_one_word_loop_allocates_nothing_per_step() {
    for spec in [ProtoSpec::StaticUpdate, ProtoSpec::Sc] {
        let (short, long) = (allocs_over(spec, 1_000), allocs_over(spec, 2_000));
        assert_eq!(short, long, "{}: allocations over 1 000 and 2 000 steps", spec.name());
    }
}
