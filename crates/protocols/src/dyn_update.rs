//! The update protocols: a remote copy joins home's sharer list, and home
//! pushes the region to every sharer, each of which acks.
//!
//! *Dynamic update* pushes after every write section. The paper's §3.3
//! plugs it into EM3D for a 3.5× speedup over invalidation, and §5.2 uses
//! it for Barnes-Hut bodies. A remote region joins at its first map, and a
//! writer ships the region home, which forwards it to every other sharer.
//! As the paper notes (§6), "a writer need not acquire exclusive access
//! before proceeding with a write, as long as the result of the write is
//! propagated to all sharers" — which is what shrinks this protocol's state
//! space relative to the SC protocol.
//!
//! *Static update*, "essentially Falsafi et al.'s protocol for EM3D"
//! (§3.3), is the same protocol pushing at the barrier instead: what
//! [`make`](crate::make) builds for
//! [`ProtoSpec::StaticUpdate`](crate::ProtoSpec::StaticUpdate). A write
//! section (at home only, asserted) marks its region dirty, and the barrier
//! pushes every dirty region back to back, so the coalescing transport
//! batches each sharer's pushes as the original protocol hand-packed them.
//! Its start hooks are null, which is why the paper's direct-dispatch pass
//! wins most on EM3D (Table 4).
//!
//! Ack accounting is exact: every update round gets a per-region sequence
//! number at home; sharers acknowledge home naming that round, and home
//! notifies the writer (`ROUND_DONE`) only when the round's last ack is
//! in. The barrier hook waits until this node's outstanding rounds drain,
//! so every write issued before a barrier is applied machine-wide before
//! any node passes that barrier.

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry, SpaceEntry};

use crate::auxbits::{self, DIRTY, FLUSH_WAIT, LISTED};
use crate::common;
use crate::states::*;

/// Wire opcodes.
pub mod op {
    /// Remote → home: join the sharer set, reply with data.
    pub const JOIN: u16 = 1;
    /// Home → remote: current data (join reply).
    pub const DATA: u16 = 2;
    /// Writer → home: new region contents after a write section.
    pub const UPD_HOME: u16 = 3;
    /// Home → sharer: updated region contents (`arg` = round sequence number).
    pub const UPD: u16 = 4;
    /// Sharer → home: update applied (`arg` = round sequence number).
    pub const UPD_ACK: u16 = 5;
    /// Home → writer: your update round is fully applied.
    pub const ROUND_DONE: u16 = 6;
    /// Remote → home: leaving the sharer set (flush).
    pub const LEAVE: u16 = 7;
    /// Home → remote: leave acknowledged.
    pub const LEAVE_ACK: u16 = 8;

    /// Trace label for an opcode.
    pub fn name(op: u16) -> &'static str {
        match op {
            JOIN => "join",
            DATA => "data",
            UPD_HOME => "upd_home",
            UPD => "upd",
            UPD_ACK => "upd_ack",
            ROUND_DONE => "round_done",
            LEAVE => "leave",
            LEAVE_ACK => "leave_ack",
            _ => "op",
        }
    }
}

/// The dynamic update protocol; or, as [`make`](crate::make) builds it
/// for [`ProtoSpec::StaticUpdate`](crate::ProtoSpec::StaticUpdate), the
/// static one.
#[derive(Default)]
pub struct DynamicUpdate {
    /// Rounds start at the barrier, one per dirty region: static update.
    at_barrier: bool,
}

impl DynamicUpdate {
    /// Constructor for registry use.
    pub fn new() -> Self {
        DynamicUpdate::default()
    }

    /// The static update protocol: dynamic update that pushes at the
    /// barrier.
    pub(crate) fn at_barrier() -> Self {
        DynamicUpdate { at_barrier: true }
    }

    /// Join home's sharer list and fetch the current contents: a read miss.
    fn join(&self, rt: &AceRt, e: &RegionEntry) {
        rt.counters_mut(|c| c.read_misses += 1);
        common::fetch_copy(rt, e, op::JOIN, R_WAIT_READ, R_SHARED, "update join");
        auxbits::set(e, LISTED);
    }

    /// `join` on a miss: the copy is invalid and this node is not home.
    fn join_if_invalid(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) && e.st.get() == R_INVALID {
            self.join(rt, e);
        }
    }

    /// Home side: push one update round on behalf of `writer`: number it
    /// one past the newest pending round (home keeps no counter in `aux`,
    /// where SC keeps its pending grantee), forward new contents to every
    /// sharer except the writer, and record the round if any acks are
    /// expected (or finish it at once if none are).
    ///
    /// This is the protocol's fan-out hot path, and it is written to let
    /// the transport's per-destination coalescing do its work: the UPDs
    /// of one round — and of *every* round started from the same handler,
    /// write burst or barrier, across regions — are plain `send_proto`
    /// calls with no intervening wait, so cross-region UPDs bound for the
    /// same sharer batch into shared wire envelopes (one latency, one
    /// header) and go out when the writer blocks in `barrier`'s
    /// "update rounds drain" wait or a buffer reaches its threshold.
    fn push_round(&self, rt: &AceRt, e: &RegionEntry, writer: usize) {
        let newest = e.cold().and_then(|c| c.blocked.borrow().back().map(|&(_, seq, _)| seq));
        let seq = newest.map_or(0, |seq| seq.wrapping_add(1));
        // One snapshot shared across the whole fan-out: O(sharers)
        // refcount bumps instead of O(sharers) deep copies.
        let snapshot = e.share_data();
        let mut n = 0u64;
        for s in e.sharers.iter() {
            if s == writer {
                continue;
            }
            rt.send_proto(s, e.id, op::UPD, seq as u64, Some(snapshot.clone()));
            n += 1;
        }
        if n == 0 {
            Self::round_done(rt, e, writer);
        } else {
            e.cold_init().blocked.borrow_mut().push_back((writer as u16, seq, n));
        }
    }

    /// Home side: `writer`'s round is applied everywhere; retire it.
    fn round_done(rt: &AceRt, e: &RegionEntry, writer: usize) {
        if writer == rt.rank() {
            Self::add_outstanding(rt, e, -1);
        } else {
            rt.send_proto(writer, e.id, op::ROUND_DONE, 0, None);
        }
    }

    fn add_outstanding(rt: &AceRt, e: &RegionEntry, delta: i64) {
        let s = rt.space(e.space);
        let v = s.outstanding.get() as i64 + delta;
        debug_assert!(v >= 0, "outstanding underflow: {}", rt.handling(e));
        s.outstanding.set(v as u64);
    }
}

impl Protocol for DynamicUpdate {
    fn name(&self) -> &'static str {
        if self.at_barrier {
            "StaticUpdate"
        } else {
            "Update"
        }
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    fn optimizable(&self) -> bool {
        true
    }

    // Static update's copies are fresh from the barrier's pushes, so it
    // "sets most of its handlers to be the null handler".
    fn null_actions(&self) -> Actions {
        if self.at_barrier {
            Actions::START_READ.union(Actions::END_READ).union(Actions::START_WRITE)
        } else {
            Actions::END_READ
        }
    }

    // An update protocol: writers push new values to every standing copy,
    // so readers keep sections open while a writer writes, and multiple
    // writers (of disjoint data, ordered by the application) may overlap.
    // Static update's one writer is home, so write/write is not granted.
    fn grants(&self) -> GrantSet {
        if self.at_barrier {
            GrantSet { write_write: false, read_write: true }
        } else {
            GrantSet::concurrent()
        }
    }

    // `on_map` and the start hooks that are not null all come down to
    // `join_if_invalid`, a no-op whenever a writable copy is already
    // present (home, or a joined sharer — writers need no exclusivity
    // under update propagation). `end_write` always starts or marks an
    // update round, so it is never fast.
    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        let fast = self.null_actions();
        if e.is_home_of(rt.rank()) || e.st.get() == R_SHARED {
            fast.union(Actions::MAP).union(Actions::START_READ).union(Actions::START_WRITE)
        } else {
            fast
        }
    }

    fn on_map(&self, rt: &AceRt, e: &RegionEntry) {
        self.join_if_invalid(rt, e);
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        // Normally a hit: updates arrive pushed. Joins lazily after a
        // protocol change without a fresh map.
        if !self.at_barrier {
            self.join_if_invalid(rt, e);
        }
    }

    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        // No exclusivity needed; just make sure we hold a copy to write
        // into.
        self.start_read(rt, e);
    }

    fn end_write(&self, rt: &AceRt, e: &RegionEntry) {
        if self.at_barrier {
            // Static update's one write hook that always runs, so its
            // usage contract is checked here.
            debug_assert!(
                e.is_home_of(rt.rank()),
                "static update regions are written only at home ({})",
                e.id
            );
            return rt.space(e.space).mark_dirty(e, DIRTY);
        }
        Self::add_outstanding(rt, e, 1);
        if e.is_home_of(rt.rank()) {
            self.push_round(rt, e, rt.rank());
        } else {
            rt.send_proto(e.id.home(), e.id, op::UPD_HOME, 0, Some(e.share_data()));
        }
    }

    // Static update's rounds start here, one per dirty region (a dynamic
    // update space has none), all pushed before the one wait.
    fn barrier(&self, rt: &AceRt, s: &SpaceEntry) {
        s.drain_dirty(|rid| {
            let e = rt.entry(rid);
            auxbits::clear(&e, DIRTY);
            Self::add_outstanding(rt, &e, 1);
            self.push_round(rt, &e, rt.rank());
        });
        rt.wait("update rounds drain", || s.outstanding.get() == 0);
        rt.space_barrier(s);
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        let from = msg.from as usize;
        match msg.op {
            // ---------------- home side ----------------
            op::JOIN => {
                e.sharers.add(from);
                rt.send_proto(from, e.id, op::DATA, 0, Some(e.share_data()));
            }
            op::UPD_HOME => {
                e.install_shared(msg.data.expect("update carries data"));
                self.push_round(rt, e, from);
            }
            op::LEAVE => {
                e.sharers.remove(from);
                rt.send_proto(from, e.id, op::LEAVE_ACK, 0, None);
            }
            op::UPD_ACK => {
                // Retire one ack of round `msg.arg`; its last finishes it.
                let mut q = e.cold().expect("ack for unknown update round").blocked.borrow_mut();
                let idx = q
                    .iter()
                    .position(|&(_, seq, _)| seq == msg.arg as u16)
                    .expect("ack for unknown update round");
                q[idx].2 -= 1;
                if q[idx].2 == 0 {
                    let writer = q[idx].0 as usize;
                    q.remove(idx);
                    drop(q);
                    Self::round_done(rt, e, writer);
                }
            }
            // ---------------- writer side ----------------
            op::ROUND_DONE => Self::add_outstanding(rt, e, -1),
            // ---------------- sharer side ----------------
            op::DATA => {
                e.install_shared(msg.data.expect("join reply carries data"));
                e.st.set(R_SHARED);
            }
            op::UPD => {
                e.install_shared(msg.data.expect("update carries data"));
                if e.st.get() != R_INVALID {
                    e.st.set(R_SHARED);
                }
                rt.send_proto(e.id.home(), e.id, op::UPD_ACK, msg.arg, None);
            }
            op::LEAVE_ACK => auxbits::clear(e, FLUSH_WAIT),
            other => panic!("{}: unknown opcode {other}", self.name()),
        }
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            // The handover drops the dirty list.
            return auxbits::clear(e, DIRTY);
        }
        if auxbits::has(e, LISTED) || e.st.get() == R_SHARED {
            common::leave_home(rt, e, op::LEAVE, None, "leave ack");
        }
        e.aux.set(0);
    }

    fn adopt(&self, rt: &AceRt, e: &RegionEntry) {
        // Rejoin regions this node still has mapped.
        if !e.is_home_of(rt.rank()) && e.mapped.get() > 0 {
            self.join(rt, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{
        run_ace, run_ace_with, CoalescePolicy, CostModel, MachineBuilder, RegionId, SpaceId, Spmd,
    };
    use std::rc::Rc;

    fn upd() -> Rc<dyn Protocol> {
        Rc::new(DynamicUpdate::new())
    }

    fn shared_region(rt: &AceRt, words: usize) -> RegionId {
        crate::shared_region(rt, upd(), words).1
    }

    #[test]
    fn home_write_pushes_to_all_sharers() {
        let r = run_ace(4, CostModel::free(), |rt| {
            let rid = shared_region(rt, 2);
            rt.machine_barrier(); // everyone joined at map
            if rt.rank() == 0 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[1] = 9);
                rt.end_write(rid);
            }
            rt.barrier(rt.entry(rid).space);
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[1]);
            rt.end_read(rid);
            (v, rt.counters().read_misses)
        });
        for (rank, (v, misses)) in r.results.iter().enumerate() {
            assert_eq!(*v, 9, "rank {rank}");
            // Exactly one miss (the join at map); the update was pushed.
            assert_eq!(*misses, if rank == 0 { 0 } else { 1 });
        }
    }

    #[test]
    fn remote_write_round_trips_through_home() {
        let r = run_ace(3, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            rt.machine_barrier();
            if rt.rank() == 2 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] = 31);
                rt.end_write(rid);
            }
            rt.barrier(rt.entry(rid).space);
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![31, 31, 31]);
    }

    #[test]
    fn reads_after_join_are_hits() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            rt.machine_barrier();
            let before = rt.counters().proto_msgs;
            for _ in 0..50 {
                rt.start_read(rid);
                rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
            }
            rt.counters().proto_msgs - before
        });
        // No protocol traffic at all for pure reads.
        assert_eq!(r.results, vec![0, 0]);
    }

    #[test]
    fn producer_consumer_iterations_stay_fresh() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            let sid = rt.entry(rid).space;
            rt.machine_barrier();
            let mut seen = Vec::new();
            for i in 0..8u64 {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = i * 10);
                    rt.end_write(rid);
                }
                rt.barrier(sid);
                rt.start_read(rid);
                seen.push(rt.with::<u64, _>(rid, |d| d[0]));
                rt.end_read(rid);
                rt.barrier(sid);
            }
            seen
        });
        let want: Vec<u64> = (0..8).map(|i| i * 10).collect();
        assert_eq!(r.results[0], want);
        assert_eq!(r.results[1], want);
    }

    #[test]
    fn cross_region_updates_share_wire_envelopes() {
        // The tentpole's first fan-out hot path: a home node writing many
        // regions shared by the same remote pushes one UPD per region, and
        // the transport batches those cross-region UPDs into shared wire
        // envelopes. Logical traffic and results must not change; wire
        // traffic must drop.
        let run = |b: MachineBuilder| {
            run_ace_with(b.nprocs(2).cost(CostModel::free()), |rt| {
                let s = rt.new_space(upd());
                let mut rids = Vec::new();
                for _ in 0..16 {
                    let rid = if rt.rank() == 0 {
                        RegionId(rt.bcast(0, &[rt.gmalloc_words(s, 1).0])[0])
                    } else {
                        RegionId(rt.bcast(0, &[])[0])
                    };
                    rt.map(rid);
                    rids.push(rid);
                }
                rt.machine_barrier();
                if rt.rank() == 0 {
                    // One write burst across all regions with no wait in
                    // between: nothing forces the per-region UPDs onto
                    // separate wire envelopes.
                    for (i, rid) in rids.iter().enumerate() {
                        rt.start_write(*rid);
                        rt.with_mut::<u64, _>(*rid, |d| d[0] = i as u64 + 1);
                        rt.end_write(*rid);
                    }
                }
                rt.barrier(s);
                let mut sum = 0;
                for rid in &rids {
                    rt.start_read(*rid);
                    sum += rt.with::<u64, _>(*rid, |d| d[0]);
                    rt.end_read(*rid);
                }
                sum
            })
        };
        let off = run(Spmd::builder().coalesce(CoalescePolicy::Off));
        let on = run(Spmd::builder());
        let want: u64 = (1..=16).sum();
        assert_eq!(off.results, vec![want, want]);
        assert_eq!(on.results, vec![want, want]);
        assert_eq!(off.stats.total_msgs(), on.stats.total_msgs(), "same logical traffic");
        assert_eq!(
            off.stats.total_wire_msgs(),
            off.stats.total_msgs(),
            "coalescing off: one wire envelope per logical message"
        );
        assert!(
            on.stats.total_wire_msgs() < on.stats.total_msgs(),
            "UPD fan-out should batch: {} wire vs {} logical",
            on.stats.total_wire_msgs(),
            on.stats.total_msgs()
        );
    }

    #[test]
    fn many_writers_converge_through_home_order() {
        // Each node writes its own slot; after the space barrier every
        // node sees every slot.
        let n = 5;
        let r = run_ace(n, CostModel::free(), |rt| {
            let rid = shared_region(rt, n);
            let sid = rt.entry(rid).space;
            rt.machine_barrier();
            rt.start_write(rid);
            rt.with_mut::<u64, _>(rid, |d| d[rt.rank()] = rt.rank() as u64 + 1);
            rt.end_write(rid);
            rt.barrier(sid);
            rt.start_read(rid);
            let sum = rt.with::<u64, _>(rid, |d| d.iter().sum::<u64>());
            rt.end_read(rid);
            sum
        });
        // NOTE: concurrent whole-region updates race (last write wins per
        // slot ordering through home), but each node wrote a distinct slot
        // *of its own copy*, so the final contents depend on interleaving.
        // The only guaranteed slot is the last writer's. This documents
        // the protocol's relaxed semantics: sums must be at least one
        // slot's worth.
        for sum in r.results {
            assert!(sum >= 1, "at least the final update survives");
        }
    }

    fn stat() -> Rc<dyn Protocol> {
        crate::make(crate::ProtoSpec::StaticUpdate)
    }

    fn static_region(rt: &AceRt, words: usize) -> (SpaceId, RegionId) {
        crate::shared_region(rt, stat(), words)
    }

    #[test]
    fn barrier_pushes_home_writes_to_subscribers() {
        let r = run_ace(3, CostModel::free(), |rt| {
            let (s, rid) = static_region(rt, 2);
            rt.barrier(s);
            let mut seen = Vec::new();
            for i in 0..5u64 {
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
        for res in &r.results {
            assert_eq!(res, &[1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn steady_state_reads_cost_no_messages() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = static_region(rt, 1);
            rt.barrier(s);
            let before = rt.counters().proto_msgs;
            for _ in 0..100 {
                rt.start_read(rid);
                rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
            }
            rt.counters().proto_msgs - before
        });
        assert_eq!(r.results, vec![0, 0]);
    }

    #[test]
    fn subscription_happens_once() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = static_region(rt, 1);
            for _ in 0..4 {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] += 1);
                    rt.end_write(rid);
                }
                rt.barrier(s);
            }
            rt.counters().read_misses
        });
        assert_eq!(r.results[0], 0);
        assert_eq!(r.results[1], 1); // single first-touch subscription
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "written only at home")]
    fn remote_write_asserts() {
        // Node 0 will die on the assert, so keep the survivor's hang
        // watchdog short: the panic propagates in rank order.
        let builder = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .watchdog(std::time::Duration::from_millis(300));
        run_ace_with(builder, |rt| {
            let s = rt.new_space(stat());
            let rid = if rt.rank() == 1 {
                RegionId(rt.bcast(1, &[rt.gmalloc_words(s, 1).0])[0])
            } else {
                RegionId(rt.bcast(1, &[])[0])
            };
            rt.map(rid);
            if rt.rank() == 0 {
                rt.start_write(rid); // illegal: node 1 is home
                rt.end_write(rid);
            }
        });
    }

    /// Update rounds leave nothing at home for the next protocol to
    /// misread: after two of them, SC's invalidation of the remote readers
    /// grants home's own write, not the rank a round number would name as
    /// SC's pending grantee, and the readers after it see that write.
    #[test]
    fn sc_after_update_rounds_sees_home_writes() {
        use crate::{make, ProtoSpec};
        for spec in [ProtoSpec::DynUpdate, ProtoSpec::StaticUpdate] {
            let r = run_ace(3, CostModel::free(), |rt| {
                let (s, rid) = crate::shared_region(rt, make(spec), 1);
                let write = |v: u64| {
                    if rt.rank() == 0 {
                        rt.start_write(rid);
                        rt.with_mut::<u64, _>(rid, |d| d[0] = v);
                        rt.end_write(rid);
                    }
                    rt.barrier(s);
                };
                let read = || {
                    rt.start_read(rid);
                    let v = rt.with::<u64, _>(rid, |d| d[0]);
                    rt.end_read(rid);
                    v
                };
                write(1);
                write(2);
                rt.change_protocol(s, make(ProtoSpec::Sc));
                let before = read();
                rt.barrier(s);
                write(3);
                (before, read())
            });
            assert_eq!(r.results, vec![(2, 3); 3], "{}", spec.name());
        }
    }

    /// A 4-rank static update run under the CM-5 cost model, pinned to the
    /// nanosecond, message, byte and counter: a region created under SC and
    /// mapped everywhere, handed to static update (whose `adopt`
    /// subscribes every remote copy), then three rounds of a home write, a
    /// barrier and a remote read. Exact only where every run repeats (the
    /// multiplexed executor).
    #[cfg(all(target_arch = "x86_64", unix))]
    #[test]
    fn a_static_update_run_is_pinned() {
        use crate::{make, ProtoSpec};
        use ace_core::OpCounters;
        let r = run_ace(4, CostModel::cm5(), |rt| {
            let (s, rid) = crate::shared_region(rt, make(ProtoSpec::Sc), 2);
            rt.change_protocol(s, make(ProtoSpec::StaticUpdate));
            let mut seen = 0;
            for round in 1..=3u64 {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[round as usize % 2] += round * 10);
                    rt.end_write(rid);
                }
                rt.barrier(s);
                rt.start_read(rid);
                seen += rt.with::<u64, _>(rid, |d| d[0] + d[1]);
                rt.end_read(rid);
            }
            (seen, rt.counters())
        });
        let mut c = OpCounters::default();
        for (seen, counters) in &r.results {
            assert_eq!(*seen, 10 + 30 + 60);
            c.merge(counters);
        }
        let s = &r.stats;
        let got = (s.sim_time(), s.total_msgs(), s.total_wire_msgs(), s.total_bytes());
        // Each of the 69 messages travels alone in its envelope, so none
        // packs: the run reads 494 040 ns at any `pack_cost`.
        assert_eq!(got, (494_040, 69, 69, 2424));
        let want = OpCounters {
            map_hits: 1,
            map_misses: 3,
            start_reads: 12,
            read_misses: 3,
            start_writes: 3,
            ends: 15,
            barriers: 12,
            proto_msgs: 24,
            dispatched: 3,
            fast_hits: 27,
            fast_maps: 1,
            region_cache_hits: 79,
            region_cache_misses: 3,
            logical_msgs: 63,
            wire_msgs: 63,
            switches: 4,
            bar_msgs: 60,
            ..OpCounters::default()
        };
        assert_eq!(c, want);
    }
}
