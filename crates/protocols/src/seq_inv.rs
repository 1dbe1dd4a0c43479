//! The default protocol: sequentially-consistent, home-based invalidation.
//!
//! This is the CRL-class MSI protocol the paper's default space runs
//! ("a sequentially consistent invalidation-based protocol", §3.1), and the
//! protocol both systems run in the Figure 7a comparison.
//!
//! Directory state lives at the region's home: a sharer bitmask and an
//! exclusive `owner` (or -1, meaning the home master copy is valid). At
//! most one *round* (recall or invalidation sweep) is in flight per region;
//! requests that arrive mid-round are parked in the entry's blocked queue
//! and replayed when the region quiesces. Invalidations and recalls that
//! arrive while the target node has an access section open are deferred to
//! the matching `end_*` (a region in active use is never yanked mid-read,
//! which is how region-based DSMs reconcile handler asynchrony with
//! section semantics).

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry};

use crate::auxbits::{self, BUSY, FLUSH_WAIT, INV_PENDING, RECALL_PENDING, WANTED};
use crate::common;
use crate::states::*;

/// Wire opcodes (interpreted only by this protocol).
pub mod op {
    /// Remote → home: request a read (shared) copy.
    pub const RREQ: u16 = 1;
    /// Remote → home: request an exclusive copy.
    pub const WREQ: u16 = 2;
    /// Home → remote: data grant, shared.
    pub const DATA_S: u16 = 3;
    /// Home → remote: data grant, exclusive.
    pub const DATA_X: u16 = 4;
    /// Home → sharer: invalidate your copy.
    pub const INV: u16 = 5;
    /// Sharer → home: invalidation acknowledged.
    pub const INV_ACK: u16 = 6;
    /// Home → owner: return the exclusive copy.
    pub const RECALL: u16 = 7;
    /// Owner → home: exclusive data coming home (recall response).
    pub const WB_DATA: u16 = 8;
    /// Sharer → home: dropping my shared copy (protocol flush).
    pub const FLUSH_S: u16 = 9;
    /// Owner → home: flushing my exclusive copy home (protocol flush).
    pub const FLUSH_X: u16 = 10;
    /// Home → remote: flush acknowledged.
    pub const FLUSH_ACK: u16 = 11;

    /// Trace label for an opcode.
    pub fn name(op: u16) -> &'static str {
        match op {
            RREQ => "rreq",
            WREQ => "wreq",
            DATA_S => "data_s",
            DATA_X => "data_x",
            INV => "inv",
            INV_ACK => "inv_ack",
            RECALL => "recall",
            WB_DATA => "wb_data",
            FLUSH_S => "flush_s",
            FLUSH_X => "flush_x",
            FLUSH_ACK => "flush_ack",
            _ => "op",
        }
    }
}

/// The sequentially-consistent invalidation protocol.
#[derive(Default)]
pub struct SeqInvalidate;

impl SeqInvalidate {
    /// Boxed constructor for registry use.
    pub fn new() -> Self {
        SeqInvalidate
    }

    /// Home side: start an invalidation sweep of every sharer except
    /// `except`. Returns the number of invalidations outstanding.
    ///
    /// The sweep is a pure fan-out with no intervening wait: every INV is
    /// handed to the transport back to back, so under coalescing the whole
    /// wave sits in the per-destination buffers and departs together at the
    /// acquire's single `"sharer invalidations"` wait (or the WREQ
    /// handler's return to the poll loop). One write acquire sweeps one
    /// region, so each sharer receives exactly one INV — distinct
    /// destinations bound the envelope merging here — but any other
    /// pending traffic to a sharer (a DATA grant from a drained queue, a
    /// concurrent sweep of a second region with an overlapping sharer set)
    /// rides the same wire envelope. Contrast `dyn_update::push_round`,
    /// whose cross-region UPDs to a common sharer batch heavily.
    fn sweep_sharers(&self, rt: &AceRt, e: &RegionEntry, except: Option<usize>) -> u32 {
        let mut n = 0;
        for s in e.sharer_ranks() {
            if Some(s) == except {
                continue;
            }
            rt.send_proto(s, e.id, op::INV, 0, None);
            n += 1;
        }
        if let Some(x) = except {
            if e.is_sharer(x) {
                e.drop_sharer(x);
            }
        }
        e.pending.set(e.pending.get() + n);
        n
    }

    /// Home side: grant an exclusive copy to `to`.
    fn grant_exclusive(&self, rt: &AceRt, e: &RegionEntry, to: usize) {
        e.sharers.clear();
        e.owner.set(to as i32);
        rt.send_proto(to, e.id, op::DATA_X, 0, Some(e.share_data()));
    }

    /// Remote side: honour a deferred or immediate invalidation.
    fn do_invalidate(&self, rt: &AceRt, e: &RegionEntry) {
        e.st.set(R_INVALID);
        rt.send_proto(e.id.home(), e.id, op::INV_ACK, 0, None);
    }

    /// Remote side: honour a deferred or immediate recall.
    fn do_recall(&self, rt: &AceRt, e: &RegionEntry) {
        e.st.set(R_INVALID);
        rt.send_proto(e.id.home(), e.id, op::WB_DATA, 0, Some(e.share_data()));
    }
}

impl Protocol for SeqInvalidate {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    // Sequential consistency forbids reordering protocol calls (§4.2).
    fn optimizable(&self) -> bool {
        false
    }

    // Sequential consistency: one writer, no concurrent readers during a
    // write (stated explicitly, though it matches the trait default —
    // this is the protocol's declared contract, not an omission).
    fn grants(&self) -> GrantSet {
        GrantSet::exclusive()
    }

    // Copies move on access, never on a mapping.
    fn null_actions(&self) -> Actions {
        Actions::MAP.union(Actions::UNMAP)
    }

    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        let mut fast = self.null_actions();
        if e.is_home_of(rt.rank()) {
            // Home start hooks are no-ops while the master is valid here
            // and no directory round is in flight; start_write further
            // needs an empty sharer list (no invalidation sweep).
            if e.owner.get() == -1 && !auxbits::has(e, BUSY) {
                fast = fast.union(Actions::START_READ);
                if e.sharers.is_empty() {
                    fast = fast.union(Actions::START_WRITE);
                }
            }
            // Home end hooks only replay parked requests.
            if e.blocked.borrow().is_empty() {
                fast = fast.union(Actions::END_READ).union(Actions::END_WRITE);
            }
        } else {
            // Remote start hooks hit while a valid copy is cached.
            match e.st.get() {
                R_SHARED => fast = fast.union(Actions::START_READ),
                R_EXCL => fast = fast.union(Actions::START_READ).union(Actions::START_WRITE),
                _ => {}
            }
            // Remote end hooks only honour deferred directory actions.
            if !auxbits::has(e, INV_PENDING | RECALL_PENDING) {
                fast = fast.union(Actions::END_READ).union(Actions::END_WRITE);
            }
        }
        fast
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            if e.owner.get() != -1 || auxbits::has(e, BUSY) {
                rt.counters_mut(|c| c.read_misses += 1);
                common::recall_master(rt, e, op::RECALL, "home master recall");
            }
            return;
        }
        match e.st.get() {
            R_SHARED | R_EXCL => {}
            R_INVALID => {
                rt.counters_mut(|c| c.read_misses += 1);
                common::fetch_copy(rt, e, op::RREQ, R_WAIT_READ, R_SHARED, "read copy");
            }
            other => panic!("start_read in unexpected state {other}"),
        }
    }

    fn end_read(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            if !e.busy() && !auxbits::has(e, BUSY) && !e.blocked.borrow().is_empty() {
                common::drain_blocked(self, rt, e);
            }
            return;
        }
        if !e.busy() && auxbits::has(e, INV_PENDING) {
            auxbits::clear(e, INV_PENDING);
            self.do_invalidate(rt, e);
        }
        if !e.busy() && auxbits::has(e, RECALL_PENDING) {
            auxbits::clear(e, RECALL_PENDING);
            self.do_recall(rt, e);
        }
    }

    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            if e.owner.get() != -1 || auxbits::has(e, BUSY) || !e.sharers.is_empty() {
                rt.counters_mut(|c| c.write_misses += 1);
            }
            common::recall_master(rt, e, op::RECALL, "home master recall");
            if !e.sharers.is_empty() {
                auxbits::set(e, BUSY);
                self.sweep_sharers(rt, e, None);
                rt.wait("sharer invalidations", || e.pending.get() == 0);
                auxbits::clear(e, BUSY);
                // Parked requests stay parked until end_write drains them:
                // granting a copy now would let a reader see the master
                // mid-write-section.
            }
            return;
        }
        match e.st.get() {
            R_EXCL => {}
            R_SHARED | R_INVALID => {
                rt.counters_mut(|c| c.write_misses += 1);
                common::fetch_copy(rt, e, op::WREQ, R_WAIT_WRITE, R_EXCL, "exclusive copy");
            }
            other => panic!("start_write in unexpected state {other}"),
        }
    }

    fn end_write(&self, rt: &AceRt, e: &RegionEntry) {
        // Exclusive copies are retained until recalled; only honour
        // deferred directory actions.
        self.end_read(rt, e);
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        let from = msg.from as usize;
        match msg.op {
            // ---------------- home side ----------------
            op::RREQ | op::WREQ if common::park_request(rt, e, &msg, op::RECALL) => {}
            op::RREQ => {
                e.add_sharer(from);
                rt.send_proto(from, e.id, op::DATA_S, 0, Some(e.share_data()));
            }
            op::WREQ => {
                if self.sweep_sharers(rt, e, Some(from)) > 0 {
                    auxbits::set(e, BUSY);
                    e.aux.set(auxbits::with_grantee(e.aux.get(), from));
                } else {
                    self.grant_exclusive(rt, e, from);
                }
            }
            op::INV_ACK => {
                debug_assert!(e.pending.get() > 0, "{}", rt.handling(e));
                e.pending.set(e.pending.get() - 1);
                if e.pending.get() == 0 {
                    if let Some(g) = auxbits::grantee(e.aux.get()) {
                        e.aux.set(auxbits::clear_grantee(e.aux.get()));
                        self.grant_exclusive(rt, e, g);
                        auxbits::clear(e, BUSY);
                        common::drain_blocked(self, rt, e);
                    }
                    // Otherwise a home-local start_write is waiting on
                    // pending == 0 and clears BUSY itself.
                }
            }
            op::WB_DATA => common::master_home(self, rt, e, msg),
            op::FLUSH_X => {
                rt.send_proto(from, e.id, op::FLUSH_ACK, 0, None);
                common::master_home(self, rt, e, msg);
            }
            op::FLUSH_S => {
                e.drop_sharer(from);
                rt.send_proto(from, e.id, op::FLUSH_ACK, 0, None);
            }
            // ---------------- remote side ----------------
            op::DATA_S => {
                e.install_shared(msg.data.expect("grant carries data"));
                e.st.set(R_SHARED);
            }
            op::DATA_X => {
                e.install_shared(msg.data.expect("grant carries data"));
                e.st.set(R_EXCL);
            }
            op::INV => match e.st.get() {
                R_SHARED if e.busy() || auxbits::has(e, WANTED) => auxbits::set(e, INV_PENDING),
                R_SHARED => self.do_invalidate(rt, e),
                // We already requested an upgrade or dropped the copy; the
                // data here is dead either way — just acknowledge.
                R_WAIT_WRITE | R_INVALID | R_WAIT_READ => {
                    rt.send_proto(e.id.home(), e.id, op::INV_ACK, 0, None);
                }
                other => panic!("INV in unexpected state {other}"),
            },
            op::RECALL => match e.st.get() {
                R_EXCL if e.busy() || auxbits::has(e, WANTED) => auxbits::set(e, RECALL_PENDING),
                R_EXCL => self.do_recall(rt, e),
                // The recall crossed this node's flush, whose FLUSH_X is
                // carrying the copy home and ends home's round there.
                R_INVALID if auxbits::has(e, FLUSH_WAIT) => {}
                other => panic!("RECALL in unexpected state {other}"),
            },
            op::FLUSH_ACK => auxbits::clear(e, FLUSH_WAIT),
            other => panic!("SC: unknown opcode {other}"),
        }
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            // Remote copies flush themselves; the handover's barrier
            // orders their acks before the swap.
            return;
        }
        match e.st.get() {
            R_INVALID => {}
            R_SHARED => common::leave_home(rt, e, op::FLUSH_S, None, "flush ack"),
            R_EXCL => common::leave_home(rt, e, op::FLUSH_X, Some(e.share_data()), "flush ack"),
            other => panic!("flush in transient state {other}"),
        }
        e.aux.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{
        run_ace, run_ace_with, CoalescePolicy, CostModel, MachineBuilder, RegionId, Spmd,
    };
    use std::rc::Rc;

    fn sc() -> Rc<dyn Protocol> {
        Rc::new(SeqInvalidate)
    }

    fn shared_region(rt: &AceRt, words: usize) -> RegionId {
        crate::shared_region(rt, sc(), words).1
    }

    #[test]
    fn remote_read_sees_home_write() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = shared_region(rt, 2);
            if rt.rank() == 0 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[1] = 77);
                rt.end_write(rid);
            }
            rt.machine_barrier();
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[1]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![77, 77]);
    }

    #[test]
    fn home_read_recalls_remote_exclusive() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            if rt.rank() == 1 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] = 123);
                rt.end_write(rid);
            }
            rt.machine_barrier();
            if rt.rank() == 0 {
                rt.start_read(rid);
                let v = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                v
            } else {
                0
            }
        });
        assert_eq!(r.results[0], 123);
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let r = run_ace(4, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            // Everyone reads (populating sharer list).
            rt.start_read(rid);
            rt.end_read(rid);
            rt.machine_barrier();
            // Node 3 writes.
            if rt.rank() == 3 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] = 5);
                rt.end_write(rid);
            }
            rt.machine_barrier();
            // Everyone rereads; must see the write (their copies were
            // invalidated, so they refetch through home).
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![5; 4]);
    }

    #[test]
    fn invalidation_sweeps_are_equivalent_under_coalescing() {
        // SC's acquires are synchronous — every sweep is followed by a
        // wait that flushes it — so coalescing must not change what any
        // node observes, and logical traffic must be bit-identical between
        // the two transports.
        let run = |b: MachineBuilder| {
            run_ace_with(b.nprocs(4).cost(CostModel::free()), |rt| {
                let rid = shared_region(rt, 1);
                for round in 0..6u64 {
                    // Everyone reads (populating the sharer list), then one
                    // node's write acquire sweeps the other three.
                    rt.start_read(rid);
                    rt.end_read(rid);
                    rt.machine_barrier();
                    if rt.rank() as u64 == round % 4 {
                        rt.start_write(rid);
                        rt.with_mut::<u64, _>(rid, |d| d[0] = round + 1);
                        rt.end_write(rid);
                    }
                    rt.machine_barrier();
                }
                rt.start_read(rid);
                let v = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                v
            })
        };
        let off = run(Spmd::builder().coalesce(CoalescePolicy::Off));
        let on = run(Spmd::builder());
        assert_eq!(off.results, vec![6; 4]);
        assert_eq!(on.results, off.results);
        assert_eq!(on.stats.total_msgs(), off.stats.total_msgs(), "same logical traffic");
        assert_eq!(on.stats.total_bytes(), off.stats.total_bytes());
        assert!(on.stats.total_wire_msgs() <= on.stats.total_msgs());
        assert_eq!(off.stats.total_wire_msgs(), off.stats.total_msgs());
    }

    #[test]
    fn serial_increments_under_lock_sum_correctly() {
        const PER_NODE: u64 = 20;
        let n = 4;
        let r = run_ace(n, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            for _ in 0..PER_NODE {
                rt.lock(rid);
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] += 1);
                rt.end_write(rid);
                rt.unlock(rid);
            }
            rt.machine_barrier();
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![PER_NODE * n as u64; 4]);
    }

    #[test]
    fn ping_pong_writes_alternate() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            let mut last = 0;
            for round in 0..10u64 {
                // Writer alternates; the other node reads after a barrier.
                if round % 2 == rt.rank() as u64 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = round + 1);
                    rt.end_write(rid);
                }
                rt.machine_barrier();
                rt.start_read(rid);
                last = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                assert_eq!(last, round + 1);
                rt.machine_barrier();
            }
            last
        });
        assert_eq!(r.results, vec![10, 10]);
    }

    #[test]
    fn flush_returns_exclusive_data_home() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = crate::shared_region(rt, sc(), 1);
            if rt.rank() == 1 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] = 42);
                rt.end_write(rid);
            }
            rt.machine_barrier();
            // Changing to a fresh SC protocol forces the flush path.
            rt.change_protocol(s, sc());
            if rt.rank() == 0 {
                rt.start_read(rid);
                let v = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                v
            } else {
                42
            }
        });
        assert_eq!(r.results, vec![42, 42]);
    }

    #[test]
    fn concurrent_mixed_readers_writers_converge() {
        // A stress test: every node alternates reads and locked
        // read-modify-writes with no barriers in between; at the end the
        // counter equals the number of locked increments.
        const INCS: u64 = 15;
        let n = 6;
        let r = run_ace(n, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            for i in 0..INCS {
                rt.lock(rid);
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] += 1);
                rt.end_write(rid);
                rt.unlock(rid);
                if i % 3 == 0 {
                    rt.start_read(rid);
                    let v = rt.with::<u64, _>(rid, |d| d[0]);
                    rt.end_read(rid);
                    assert!(v > i);
                }
            }
            rt.machine_barrier();
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![INCS * n as u64; 6]);
    }
}
