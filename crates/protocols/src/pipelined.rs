//! Pipelined delta-write protocol (Water's inter-molecular phase).
//!
//! §5.2: "In Water, we improve performance by pipelining writes to a
//! molecule during the inter-molecular calculation phase". In that phase
//! every processor *accumulates* force contributions into many molecules.
//! Under an invalidation protocol each contribution ping-pongs exclusive
//! ownership; here a writer instead:
//!
//! 1. fetches a copy on first touch and snapshots it into a *twin*,
//! 2. writes locally as often as it likes,
//! 3. at `end_write`, sends home only the f64 *delta* against the twin and
//!    immediately continues (the write is pipelined, not awaited),
//! 4. at the space barrier, waits until homes have acknowledged all of its
//!    deltas ("a protocol for split-phase memory operations ... must check
//!    that all outstanding memory operations have completed", §2.1).
//!
//! Homes *add* incoming deltas into the master copy, so concurrent
//! contributions from different writers commute. After the barrier every
//! cached copy is invalidated; the next read refetches the accumulated
//! master. Region data is interpreted as `f64`s, matching its use for
//! force accumulation.
//!
//! *Home-owned* (BSC, [`ProtoSpec::HomeOwned`](crate::ProtoSpec::HomeOwned))
//! is this protocol written only at home: "data are written only by the
//! processors that created them" (§5.2). Its write hooks are null, and
//! readers pull whole blocks in bulk and keep them until the next barrier.

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry, SpaceEntry, Words};

use crate::common;
use crate::states::*;

/// Wire opcodes.
pub mod op {
    /// Remote → home: fetch a copy.
    pub const FETCH: u16 = 1;
    /// Home → remote: copy contents.
    pub const DATA: u16 = 2;
    /// Writer → home: f64 deltas to accumulate.
    pub const DELTA: u16 = 3;
    /// Home → writer: delta applied.
    pub const DELTA_ACK: u16 = 4;

    /// Trace label for an opcode.
    pub fn name(op: u16) -> &'static str {
        match op {
            FETCH => "fetch",
            DATA => "data",
            DELTA => "delta",
            DELTA_ACK => "delta_ack",
            _ => "op",
        }
    }
}

/// The pipelined delta-write protocol; or, as [`make`](crate::make) builds
/// it for [`ProtoSpec::HomeOwned`](crate::ProtoSpec::HomeOwned), home-owned.
#[derive(Default)]
pub struct PipelinedWrite {
    /// Regions are written only by their creator: home-owned.
    home_only: bool,
}

impl PipelinedWrite {
    /// Constructor for registry use.
    pub fn new() -> Self {
        PipelinedWrite::default()
    }

    /// The home-owned protocol: pipelined write that writes only at home.
    pub(crate) fn home_owned() -> Self {
        PipelinedWrite { home_only: true }
    }
}

impl Protocol for PipelinedWrite {
    fn name(&self) -> &'static str {
        if self.home_only {
            "HomeOwned"
        } else {
            "Pipelined"
        }
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    fn optimizable(&self) -> bool {
        true
    }

    // Home-owned writes only at home, where both write hooks are no-ops.
    fn null_actions(&self) -> Actions {
        let null = Actions::END_READ.union(Actions::MAP);
        if self.home_only {
            null.union(Actions::START_WRITE).union(Actions::END_WRITE)
        } else {
            null
        }
    }

    // Pipelined updates deliberately relax consistency: writers stream
    // updates to standing copies without waiting, so overlapping sections
    // of any kind are part of the contract. Home-owned has one writer.
    fn grants(&self) -> GrantSet {
        if self.home_only {
            GrantSet { write_write: false, read_write: true }
        } else {
            GrantSet::concurrent()
        }
    }

    // The null hooks are unconditional no-ops. Starts are no-ops once a
    // copy is resident (and, for writes, the twin snapshot exists — the home
    // writes the master directly and never twins). A remote `end_write`
    // always ships a delta home, so it is only ever fast at home.
    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        let mut fast = self.null_actions();
        if e.is_home_of(rt.rank()) {
            fast = fast.union(Actions::ACCESS);
        } else if e.st.get() != R_INVALID {
            fast = fast.union(Actions::START_READ);
            if e.has_twin() {
                fast = fast.union(Actions::START_WRITE);
            }
        }
        fast
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) && e.st.get() == R_INVALID {
            rt.counters_mut(|c| c.read_misses += 1);
            common::fetch_copy(rt, e, op::FETCH, R_WAIT_READ, R_SHARED, "pipelined fetch");
            // The copy stays until the barrier drops it, so a region is
            // listed at most once a barrier: no `mark_dirty` bit.
            rt.space(e.space).dirty.borrow_mut().push(e.id);
        }
    }

    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}

    // Null under home-owned, whose contract is then checked only in the
    // forced-slow runs (`AceRt::set_fast_paths(false)`).
    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        debug_assert!(
            !self.home_only || e.is_home_of(rt.rank()),
            "home-owned regions are written only by their creator ({})",
            e.id
        );
        self.start_read(rt, e);
        if !e.is_home_of(rt.rank()) && !e.has_twin() {
            *e.cold_init().twin.borrow_mut() = Some(e.share_data());
        }
    }

    fn end_write(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            return; // wrote the master directly
        }
        let delta: Words = {
            let data = e.data.borrow();
            let twin = e.cold().expect("write section had a twin").twin.borrow();
            let twin = twin.as_deref().expect("write section had a twin");
            data.iter()
                .zip(twin.iter())
                .map(|(&d, &t)| (f64::from_bits(d) - f64::from_bits(t)).to_bits())
                .collect()
        };
        // The twin advances to the current local contents so the next
        // write section diffs only its own writes.
        *e.cold_init().twin.borrow_mut() = Some(e.share_data());
        let s = rt.space(e.space);
        s.outstanding.set(s.outstanding.get() + 1);
        rt.send_proto(e.id.home(), e.id, op::DELTA, 0, Some(delta));
    }

    fn barrier(&self, rt: &AceRt, s: &SpaceEntry) {
        // Drain our in-flight deltas (home-owned sends none), drop the
        // copies fetched since the last barrier (a local action: the ids
        // the misses listed, skipping any evicted since), then rendezvous
        // once. Every other writer's deltas were likewise acked before that
        // writer arrived, so post-barrier re-fetches observe the fully
        // accumulated master. Dropping is the one place a protocol changes
        // entries outside a callback on them, so it re-derives their fast
        // masks itself.
        rt.wait("pipelined deltas drain", || s.outstanding.get() == 0);
        s.drain_dirty(|r| {
            if let Some(e) = rt.resident(r) {
                common::drop_copy(&e);
                rt.rederive_fast(&e);
            }
        });
        rt.space_barrier(s);
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        let from = msg.from as usize;
        match msg.op {
            // home side
            op::FETCH => {
                rt.send_proto(from, e.id, op::DATA, 0, Some(e.share_data()));
            }
            op::DELTA => {
                let delta = msg.data.as_deref().expect("delta carries data");
                e.with_data_mut(|data| {
                    for (d, &x) in data.iter_mut().zip(delta.iter()) {
                        *d = (f64::from_bits(*d) + f64::from_bits(x)).to_bits();
                    }
                });
                rt.send_proto(from, e.id, op::DELTA_ACK, 0, None);
            }
            // writer side
            op::DELTA_ACK => {
                let s = rt.space(e.space);
                debug_assert!(s.outstanding.get() > 0);
                s.outstanding.set(s.outstanding.get() - 1);
            }
            // reader side
            op::DATA => {
                e.install_shared(msg.data.expect("fetch reply carries data"));
                e.st.set(R_SHARED);
            }
            other => panic!("{}: unknown opcode {other}", self.name()),
        }
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        // Deltas already in flight are drained by the handover's
        // outstanding wait; local copies just drop.
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
        crate::shared_region(rt, Rc::new(PipelinedWrite::new()), words)
    }

    fn home_owned(rt: &AceRt, words: usize) -> (SpaceId, RegionId) {
        crate::shared_region(rt, crate::make(crate::ProtoSpec::HomeOwned), words)
    }

    #[test]
    fn concurrent_accumulation_sums_exactly() {
        // Every node adds its (rank+1) into slot 0 five times; after the
        // barrier the master holds the full sum — no update is lost even
        // though no node ever held exclusive access.
        let n = 4;
        let r = run_ace(n, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 4);
            rt.barrier(s);
            for _ in 0..5 {
                rt.start_write(rid);
                rt.with_mut::<f64, _>(rid, |d| d[0] += (rt.rank() + 1) as f64);
                rt.end_write(rid);
            }
            rt.barrier(s);
            rt.start_read(rid);
            let v = rt.with::<f64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        let want = 5.0 * (1 + 2 + 3 + 4) as f64;
        assert_eq!(r.results, vec![want; 4]);
    }

    #[test]
    fn deltas_are_pipelined_not_awaited() {
        // end_write returns immediately; outstanding acks are nonzero
        // until the barrier.
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 1);
            rt.barrier(s);
            let mut saw_outstanding = false;
            if rt.rank() == 1 {
                for _ in 0..10 {
                    rt.start_write(rid);
                    rt.with_mut::<f64, _>(rid, |d| d[0] += 1.0);
                    rt.end_write(rid);
                    if rt.space(s).outstanding.get() > 0 {
                        saw_outstanding = true;
                    }
                }
            }
            rt.barrier(s);
            saw_outstanding || rt.rank() == 0
        });
        assert!(r.results.iter().all(|&x| x));
    }

    #[test]
    fn reads_refetch_after_barrier() {
        // A barrier drops exactly the copies its node fetched since the
        // last one: one a write section fetched, a home-owned reader's
        // block, and none for an entry evicted before the barrier (its
        // listed id is skipped, and the next map fetches afresh).
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 1);
            let (h, block) = home_owned(rt, 1);
            let mine = if rt.rank() == 0 { vec![rt.gmalloc_words(s, 1).0] } else { vec![] };
            let gone = RegionId(rt.bcast(0, &mine)[0]);
            let read = |r: RegionId| {
                rt.start_read(r);
                let v = rt.with::<f64, _>(r, |d| d[0]);
                rt.end_read(r);
                v
            };
            let add = |r: RegionId, x: f64| {
                rt.start_write(r);
                rt.with_mut::<f64, _>(r, |d| d[0] += x);
                rt.end_write(r);
            };
            rt.barrier(s);
            if rt.rank() == 1 {
                add(rid, 1.0);
                rt.map(gone);
                read(gone);
                rt.unmap(gone);
                rt.evict(gone);
                read(block);
            }
            rt.barrier(s);
            rt.barrier(h);
            let listed = rt.space(s).dirty.borrow().len() + rt.space(h).dirty.borrow().len();
            if rt.rank() == 0 {
                add(rid, 2.0);
                add(block, 7.0);
                add(gone, 5.0);
            }
            rt.barrier(s);
            rt.barrier(h);
            rt.map(gone);
            let seen = [read(rid), read(block), read(gone)];
            (seen, listed, rt.counters().read_misses)
        });
        assert_eq!(r.results, vec![([3.0, 7.0, 5.0], 0, 0), ([3.0, 7.0, 5.0], 0, 6)]);
    }

    #[test]
    fn twin_isolates_successive_sections() {
        // Two successive write sections from the same node must not
        // double-send the first section's contribution.
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 1);
            rt.barrier(s);
            if rt.rank() == 1 {
                rt.start_write(rid);
                rt.with_mut::<f64, _>(rid, |d| d[0] += 3.0);
                rt.end_write(rid);
                rt.start_write(rid);
                rt.with_mut::<f64, _>(rid, |d| d[0] += 4.0);
                rt.end_write(rid);
            }
            rt.barrier(s);
            rt.start_read(rid);
            let v = rt.with::<f64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![7.0, 7.0]);
    }

    #[test]
    fn home_writes_cost_no_messages() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = home_owned(rt, 64);
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
            let (s, rid) = home_owned(rt, 32);
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
            let (s, rid) = home_owned(rt, 1);
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

    /// A 4-rank home-owned run held to the simulated time, traffic and
    /// counters it had as its own module: a region created under SC and
    /// read on the remote ranks, handed over to HomeOwned for three rounds
    /// of a home write, a barrier, a remote read and a barrier (which keeps
    /// the next write off the copies being pulled), then handed back to SC
    /// for one more home write and remote read. Exact only where every run
    /// repeats (the multiplexed executor).
    #[cfg(all(target_arch = "x86_64", unix))]
    #[test]
    fn a_home_owned_run_is_pinned() {
        use crate::{make, ProtoSpec};
        use ace_core::OpCounters;
        let r = run_ace(4, CostModel::cm5(), |rt| {
            let (s, rid) = crate::shared_region(rt, make(ProtoSpec::Sc), 2);
            let read = || {
                rt.start_read(rid);
                let v = rt.with::<u64, _>(rid, |d| d[0] + d[1]);
                rt.end_read(rid);
                v
            };
            let write = |round: u64| {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[round as usize % 2] += round * 10);
                rt.end_write(rid);
            };
            if rt.rank() != 0 {
                read();
            }
            rt.change_protocol(s, make(ProtoSpec::HomeOwned));
            let mut seen = 0;
            for round in 1..=3u64 {
                if rt.rank() == 0 {
                    write(round);
                }
                rt.barrier(s);
                seen += read();
                rt.barrier(s);
            }
            rt.change_protocol(s, make(ProtoSpec::Sc));
            if rt.rank() == 0 {
                write(4);
            }
            rt.barrier(s);
            if rt.rank() != 0 {
                seen += read();
            }
            (seen, rt.counters())
        });
        let mut c = OpCounters::default();
        for (rank, (seen, counters)) in r.results.iter().enumerate() {
            assert_eq!(*seen, if rank == 0 { 10 + 30 + 60 } else { 10 + 30 + 60 + 100 });
            c.merge(counters);
        }
        let s = &r.stats;
        let got = (s.sim_time(), s.total_msgs(), s.total_wire_msgs(), s.total_bytes());
        // Each of the 117 messages travels alone in its envelope, so none
        // packs: the run reads 980 800 ns at any `pack_cost`.
        assert_eq!(got, (980_800, 117, 117, 4008));
        let want = OpCounters {
            map_hits: 1,
            map_misses: 3,
            start_reads: 18,
            read_misses: 15,
            start_writes: 4,
            ends: 22,
            barriers: 28,
            proto_msgs: 33,
            dispatched: 15,
            fast_hits: 29,
            fast_maps: 1,
            region_cache_hits: 106,
            region_cache_misses: 3,
            logical_msgs: 108,
            wire_msgs: 108,
            switches: 8,
            bar_msgs: 132,
            ..OpCounters::default()
        };
        assert_eq!(c, want);
    }
}
