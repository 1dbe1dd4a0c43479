//! Extensibility (§2.4): define a brand-new protocol outside the library
//! and plug it into a space.
//!
//! The paper's design goal: "a clean mechanism for adding new protocols
//! to the system." Here we write a **write-once** protocol from scratch —
//! for single-assignment data (futures/I-structures): a region is written
//! exactly once by its home; readers fetch a copy on first read and keep
//! it forever (no invalidations, no barrier work, no directory). The
//! protocol is ~60 lines and is registered simply by handing the object
//! to `new_space`.
//!
//! The one optional extra is `fast_mask`: two lines saying which hooks are
//! no-ops in a region's current state. The runtime caches the answer and
//! skips those hooks (the in-cache fast path); the protocol never touches
//! the cache. Delete `fast_mask` and everything still works, every
//! annotation just pays a dispatch.
//!
//! Run with: `cargo run --release --example custom_protocol`

use ace::core::{run_ace, AceRt, Actions, CostModel, ProtoMsg, Protocol, RegionEntry, RegionId};
use ace::protocols::states::{R_INVALID, R_SHARED, R_WAIT_READ};

/// Wire opcodes for the write-once protocol.
mod op {
    pub const FETCH: u16 = 1;
    pub const DATA: u16 = 2;
}

/// Single-assignment regions: written once at home, then immutable.
struct WriteOnce;

impl Protocol for WriteOnce {
    fn name(&self) -> &'static str {
        "WriteOnce"
    }

    fn optimizable(&self) -> bool {
        true // immutable data tolerates any motion
    }

    // The end hooks never do anything; `start_read` does nothing once the
    // data is here. (`start_write` always runs: it checks single assignment.)
    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        let ends = Actions::END_READ.union(Actions::END_WRITE);
        let here = e.is_home_of(rt.rank()) || e.st.get() == R_SHARED;
        if here {
            ends.union(Actions::START_READ)
        } else {
            ends
        }
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) && e.st.get() == R_INVALID {
            rt.counters_mut(|c| c.read_misses += 1);
            e.st.set(R_WAIT_READ);
            rt.send_proto(e.id.home(), e.id, op::FETCH, 0, None);
            rt.wait("write-once fetch", || e.st.get() == R_SHARED);
        }
    }

    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        assert!(e.is_home_of(rt.rank()), "write-once data is written at home");
        assert_eq!(e.aux.get(), 0, "write-once region written twice: {}", e.id);
        e.aux.set(1);
    }

    fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        match msg.op {
            op::FETCH => {
                rt.send_proto(msg.from as usize, e.id, op::DATA, 0, Some(e.share_data()));
            }
            op::DATA => {
                e.install_shared(msg.data.expect("data reply"));
                e.st.set(R_SHARED);
            }
            other => panic!("WriteOnce: unknown opcode {other}"),
        }
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) {
            e.st.set(R_INVALID);
        }
    }
}

fn main() {
    let outcome = run_ace(4, CostModel::cm5(), |rt| {
        let space = rt.new_space(std::rc::Rc::new(WriteOnce));

        // Every node publishes one single-assignment value.
        let mine = rt.gmalloc::<f64>(space, 4);
        rt.map(mine);
        rt.start_write(mine);
        rt.with_mut::<f64, _>(mine, |v| {
            for (i, x) in v.iter_mut().enumerate() {
                *x = (rt.rank() * 10 + i) as f64;
            }
        });
        rt.end_write(mine);

        // Exchange ids and read everyone's values — each region fetched
        // at most once per reader, then every later read is free.
        let all: Vec<RegionId> =
            (0..rt.nprocs()).map(|root| RegionId(rt.bcast(root, &[mine.0])[0])).collect();
        rt.machine_barrier();

        let mut sum = 0.0;
        for &r in &all {
            rt.map(r);
            for _ in 0..100 {
                rt.start_read(r);
                sum += rt.with::<f64, _>(r, |v| v[0]);
                rt.end_read(r);
            }
        }
        let c = rt.counters();
        rt.machine_barrier();
        (sum, rt.counters().proto_msgs, c.read_misses, c.fast_hits, c.dispatched)
    });

    for (rank, (sum, msgs, misses, fast, slow)) in outcome.results.iter().enumerate() {
        println!(
            "node {rank}: checksum {sum:>7.1}, {msgs:>3} protocol msgs handled, \
             400 reads for only {misses} fetches; {fast} annotations skipped by the \
             fast mask, {slow} dispatched"
        );
    }
    println!("\na 60-line user-defined protocol, registered by value — §2.4's extensibility");
}
