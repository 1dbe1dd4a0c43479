//! Home-owned protocol (Blocked Sparse Cholesky).
//!
//! §5.2: "For BSC, we take advantage of the fact that data are written
//! only by the processors that created them." With that assertion, writes
//! at home touch the master copy directly and generate **zero** coherence
//! traffic — no exclusivity, no invalidations, no directory. Consumers
//! pull a bulk copy on first read (user-specified granularity = whole
//! blocks, the paper's bulk-transfer story) and keep it until the next
//! barrier on the space, which bounds staleness: the application's task
//! ordering (locks/barriers) guarantees a block is complete before its
//! consumers fetch it.

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry, SpaceEntry};

use crate::common;
use crate::states::*;

/// Wire opcodes.
pub mod op {
    /// Remote → home: fetch a copy.
    pub const FETCH: u16 = 1;
    /// Home → remote: copy contents.
    pub const DATA: u16 = 2;

    /// Trace label for an opcode.
    pub fn name(op: u16) -> &'static str {
        match op {
            FETCH => "fetch",
            DATA => "data",
            _ => "op",
        }
    }
}

/// The home-owned protocol.
#[derive(Default)]
pub struct HomeOwned;

impl HomeOwned {
    /// Constructor for registry use.
    pub fn new() -> Self {
        HomeOwned
    }
}

impl Protocol for HomeOwned {
    fn name(&self) -> &'static str {
        "HomeOwned"
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    fn optimizable(&self) -> bool {
        true
    }

    fn null_actions(&self) -> Actions {
        Actions::START_WRITE.union(Actions::END_WRITE).union(Actions::END_READ).union(Actions::MAP)
    }

    // Writes go straight to the home copy; remote readers fetch on
    // demand and may hold read sections while the single writer writes.
    // Two concurrent writers are never granted.
    fn grants(&self) -> GrantSet {
        GrantSet { write_write: false, read_write: true }
    }

    // Map, the write hooks and `end_read` are unconditional no-ops
    // (and declared null). `start_read` only fetches on a remote invalid
    // copy, so it is fast at home or while a pulled copy is still valid.
    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        let fast = self.null_actions();
        if e.is_home_of(rt.rank()) || e.st.get() != R_INVALID {
            fast.union(Actions::START_READ)
        } else {
            fast
        }
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) && e.st.get() == R_INVALID {
            rt.counters_mut(|c| c.read_misses += 1);
            common::fetch_copy(rt, e, op::FETCH, R_WAIT_READ, R_SHARED, "home-owned fetch");
        }
    }

    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}

    // Declared null, hence always fast: the usage contract is checked only
    // when the hook actually runs — the forced-slow runs of the equivalence
    // suites (`AceRt::set_fast_paths(false)`).
    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        debug_assert!(
            e.is_home_of(rt.rank()),
            "home-owned regions are written only by their creator ({})",
            e.id
        );
    }

    fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn barrier(&self, rt: &AceRt, s: &SpaceEntry) {
        // Invalidating our own cached copies needs no coordination: drop
        // them first, then rendezvous once. Post-barrier reads re-pull
        // fresh data in bulk.
        common::drop_remote_copies(rt, s);
        rt.space_barrier(s);
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        let from = msg.from as usize;
        match msg.op {
            op::FETCH => {
                rt.send_proto(from, e.id, op::DATA, 0, Some(e.share_data()));
            }
            op::DATA => {
                e.install_shared(msg.data.expect("fetch reply carries data"));
                e.st.set(R_SHARED);
            }
            other => panic!("HomeOwned: unknown opcode {other}"),
        }
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) {
            common::drop_copy(e);
        }
        e.aux.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{run_ace, CostModel, RegionId, SpaceId};
    use std::rc::Rc;

    fn setup(rt: &AceRt, words: usize) -> (SpaceId, RegionId) {
        crate::shared_region(rt, Rc::new(HomeOwned), words)
    }

    #[test]
    fn home_writes_cost_no_messages() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 64);
            rt.barrier(s);
            let before = rt.counters().proto_msgs;
            if rt.rank() == 0 {
                for i in 0..50u64 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[(i % 64) as usize] = i);
                    rt.end_write(rid);
                }
            }
            rt.counters().proto_msgs - before
        });
        assert_eq!(r.results, vec![0, 0]);
    }

    #[test]
    fn consumers_pull_bulk_once_per_phase() {
        let r = run_ace(3, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 32);
            if rt.rank() == 0 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| {
                    d.iter_mut().enumerate().for_each(|(i, x)| *x = i as u64)
                });
                rt.end_write(rid);
            }
            rt.barrier(s);
            let before = rt.counters().read_misses;
            let mut sum = 0;
            for _ in 0..10 {
                rt.start_read(rid);
                sum = rt.with::<u64, _>(rid, |d| d.iter().sum::<u64>());
                rt.end_read(rid);
            }
            (sum, rt.counters().read_misses - before)
        });
        let want: u64 = (0..32).sum();
        for (rank, (sum, misses)) in r.results.iter().enumerate() {
            assert_eq!(*sum, want);
            assert_eq!(*misses, if rank == 0 { 0 } else { 1 }, "rank {rank}");
        }
    }

    #[test]
    fn barrier_bounds_staleness() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 1);
            let mut seen = Vec::new();
            for i in 0..4u64 {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = i + 1);
                    rt.end_write(rid);
                }
                rt.barrier(s);
                rt.start_read(rid);
                seen.push(rt.with::<u64, _>(rid, |d| d[0]));
                rt.end_read(rid);
                rt.barrier(s);
            }
            seen
        });
        assert_eq!(r.results[0], vec![1, 2, 3, 4]);
        assert_eq!(r.results[1], vec![1, 2, 3, 4]);
    }
}
