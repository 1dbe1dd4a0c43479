//! The default protocol: sequentially-consistent, home-based invalidation;
//! and the migratory protocol, which is the same state machine with reads
//! that take the exclusive copy.
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
//!
//! *Migratory* is for data that one processor at a time reads, modifies
//! and writes (the classic migratory pattern of Bennett et al., cited in
//! §2.2). Taking exclusive ownership on every access, reads included,
//! halves the messages an invalidation protocol spends on a read miss
//! followed by an upgrade. Its `start_read` is `start_write`, so no node
//! ever holds a shared copy: the sharer set stays empty, no `INV` is sent,
//! and the one copy moves by `WREQ` → `DATA_X` and comes home by `RECALL`
//! → `WB_DATA` or `FLUSH_X`.

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

/// The sequentially-consistent invalidation protocol; or, as
/// [`make`](crate::make) builds it for
/// [`ProtoSpec::Migratory`](crate::ProtoSpec::Migratory), the migratory one.
#[derive(Default)]
pub struct SeqInvalidate {
    /// Reads take the exclusive copy: the migratory protocol.
    migratory: bool,
}

impl SeqInvalidate {
    /// Boxed constructor for registry use.
    pub fn new() -> Self {
        SeqInvalidate::default()
    }

    /// The migratory protocol: SC whose reads take the exclusive copy.
    pub(crate) fn migratory() -> Self {
        SeqInvalidate { migratory: true }
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
        for s in e.sharers.iter() {
            if Some(s) == except {
                continue;
            }
            rt.send_proto(s, e.id, op::INV, 0, None);
            n += 1;
        }
        if let Some(x) = except {
            e.sharers.remove(x);
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

    /// Home side: the exclusive copy came home in `msg` (recall response or
    /// flush). Install it, end the round, and serve whoever queued behind it.
    fn master_home(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg) {
        e.install_shared(msg.data.expect("writeback carries data"));
        e.owner.set(-1);
        auxbits::clear(e, BUSY);
        self.drain_blocked(rt, e);
    }

    /// Home side: replay the requests parked during a round (or behind
    /// home's own section) through the handler, oldest first.
    fn drain_blocked(&self, rt: &AceRt, e: &RegionEntry) {
        let parked = e.cold().map(|c| c.blocked.take()).unwrap_or_default();
        for (from, op, arg) in parked {
            self.handle(rt, e, ProtoMsg { region: e.id, op, from, arg, data: None }, from as usize);
        }
    }
}

/// Home side of a start hook: block until the master copy is valid at home
/// and no directory round is in flight, recalling it from the exclusive
/// owner if it is away.
fn recall_master(rt: &AceRt, e: &RegionEntry) {
    while e.owner.get() != -1 || auxbits::has(e, BUSY) {
        if !auxbits::has(e, BUSY) {
            auxbits::set(e, BUSY);
            rt.send_proto(e.owner.get() as usize, e.id, op::RECALL, 0, None);
        }
        rt.wait("home master recall", || !auxbits::has(e, BUSY));
    }
}

/// Home side of a request handler: park `msg` in the blocked queue if it
/// cannot be served now — home is inside its own access section, a round is
/// in flight, or the master is away (which starts the recall round).
/// Returns whether it was parked; `false` means the master is valid and
/// idle, serve the request.
fn park_request(rt: &AceRt, e: &RegionEntry, msg: &ProtoMsg) -> bool {
    if !e.busy() && !auxbits::has(e, BUSY) {
        if e.owner.get() == -1 {
            return false;
        }
        auxbits::set(e, BUSY);
        rt.send_proto(e.owner.get() as usize, e.id, op::RECALL, 0, None);
    }
    e.cold_init().blocked.borrow_mut().push_back((msg.from, msg.op, msg.arg));
    true
}

impl Protocol for SeqInvalidate {
    fn name(&self) -> &'static str {
        if self.migratory {
            "Migratory"
        } else {
            "SC"
        }
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    // Sequential consistency forbids reordering protocol calls (§4.2), and
    // a migratory read-modify-write section must stay where it is.
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
        Actions::MAP
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
            if !e.has_blocked() {
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
        // A migratory read is a write, so it is fast exactly where one is.
        if self.migratory && !fast.contains(Actions::START_WRITE) {
            fast.0 &= !Actions::START_READ.0;
        }
        fast
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        if self.migratory {
            return self.start_write(rt, e);
        }
        if e.is_home_of(rt.rank()) {
            if e.owner.get() != -1 || auxbits::has(e, BUSY) {
                rt.counters_mut(|c| c.read_misses += 1);
                recall_master(rt, e);
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
            if !e.busy() && !auxbits::has(e, BUSY) && e.has_blocked() {
                self.drain_blocked(rt, e);
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
            recall_master(rt, e);
            if !e.sharers.is_empty() {
                auxbits::set(e, BUSY);
                self.sweep_sharers(rt, e, None);
                rt.wait("sharer invalidations", || e.pending.get() == 0);
                // Every sharer acked, and BUSY parked any request that
                // would have joined during the round.
                e.sharers.clear();
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
            op::RREQ | op::WREQ if park_request(rt, e, &msg) => {}
            op::RREQ => {
                e.sharers.add(from);
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
                        self.drain_blocked(rt, e);
                    }
                    // Otherwise a home-local start_write is waiting on
                    // pending == 0 and clears BUSY itself.
                }
            }
            op::WB_DATA => self.master_home(rt, e, msg),
            op::FLUSH_X => {
                rt.send_proto(from, e.id, op::FLUSH_ACK, 0, None);
                self.master_home(rt, e, msg);
            }
            op::FLUSH_S => {
                e.sharers.remove(from);
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
            other => panic!("{}: unknown opcode {other}", self.name()),
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
        Rc::new(SeqInvalidate::new())
    }

    fn shared_region(rt: &AceRt, words: usize) -> RegionId {
        crate::shared_region(rt, sc(), words).1
    }

    fn migratory_region(rt: &AceRt, words: usize) -> RegionId {
        crate::shared_region(rt, Rc::new(SeqInvalidate::migratory()), words).1
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

    /// Home's own write sweeps the sharers it invalidates out of the
    /// directory, as a remote writer's grant does: the next home write is
    /// a hit that sends nothing.
    #[test]
    fn a_home_write_forgets_the_sharers_it_invalidated() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            if rt.rank() == 1 {
                rt.start_read(rid);
                rt.end_read(rid);
            }
            rt.machine_barrier();
            let mut sent = Vec::new();
            if rt.rank() == 0 {
                for v in 1..=2u64 {
                    let before = rt.node().stats().logical_msgs;
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = v);
                    rt.end_write(rid);
                    sent.push(rt.node().stats().logical_msgs - before);
                }
            }
            rt.machine_barrier();
            sent
        });
        assert_eq!(r.results[0], vec![1, 0], "one INV, then a hit");
    }

    /// A remote rank may drop an invalidated copy without telling home
    /// (CRL's unmapped-region cache does, through `AceRt::evict`); home's
    /// next write must not send an INV to a rank that holds no entry.
    #[test]
    fn a_home_write_after_an_evicted_copy_sends_no_inv() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
            let write = |v: u64| {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = v);
                    rt.end_write(rid);
                }
                rt.machine_barrier();
            };
            if rt.rank() == 1 {
                rt.start_read(rid);
                rt.end_read(rid);
            }
            rt.machine_barrier();
            write(1);
            if rt.rank() == 1 {
                rt.unmap(rid);
                rt.evict(rid);
            }
            rt.machine_barrier();
            write(2);
            if rt.rank() == 1 {
                rt.map(rid);
            }
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![2, 2]);
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

    #[test]
    fn copy_migrates_and_accumulates() {
        // Each node in turn increments the counter; ownership migrates.
        let n = 4;
        let r = run_ace(n, CostModel::free(), |rt| {
            let rid = migratory_region(rt, 1);
            for round in 0..n {
                if round == rt.rank() {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] += 10);
                    rt.end_write(rid);
                }
                rt.machine_barrier();
            }
            if rt.rank() == 2 {
                rt.start_read(rid);
                let v = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                v
            } else {
                40
            }
        });
        assert_eq!(r.results, vec![40; 4]);
    }

    #[test]
    fn read_acquires_ownership_too() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = migratory_region(rt, 1);
            if rt.rank() == 1 {
                rt.start_read(rid);
                rt.end_read(rid);
                let e = rt.entry(rid);
                e.st.get()
            } else {
                R_EXCL
            }
        });
        assert_eq!(r.results[1], R_EXCL);
    }

    #[test]
    fn contended_increments_serialize() {
        // No locks: migratory read-modify-write sections serialize through
        // ownership transfer, so concurrent increments never lose updates
        // *within a section*.
        let n = 4;
        const PER: u64 = 10;
        let r = run_ace(n, CostModel::free(), |rt| {
            let rid = migratory_region(rt, 1);
            for _ in 0..PER {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] += 1);
                rt.end_write(rid);
            }
            rt.machine_barrier();
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![PER * n as u64; 4]);
    }

    /// A 4-rank Migratory run under the CM-5 cost model, pinned to the
    /// nanosecond, message and byte: contended write sections, reads in
    /// between, one barrier, and no section nested on an open region.
    /// Exact only where every run repeats (the multiplexed executor).
    #[cfg(all(target_arch = "x86_64", unix))]
    #[test]
    fn a_migratory_run_is_pinned() {
        use crate::{make, ProtoSpec};
        let r = run_ace(4, CostModel::cm5(), |rt| {
            let rid = crate::shared_region(rt, make(ProtoSpec::Migratory), 2).1;
            let me = rt.rank() as u64;
            for round in 0..6u64 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| {
                    d[0] += me + 1;
                    d[1] = me;
                });
                rt.end_write(rid);
                if (round + me).is_multiple_of(2) {
                    rt.start_read(rid);
                    let _ = rt.with::<u64, _>(rid, |d| d[1]);
                    rt.end_read(rid);
                }
                if round == 2 {
                    rt.machine_barrier();
                }
            }
            rt.machine_barrier();
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![60; 4]);
        let s = &r.stats;
        let got = (s.sim_time(), s.total_msgs(), s.total_wire_msgs(), s.total_bytes());
        // 57 parts in 54 envelopes: 647 740 = 645 940 at `pack_cost` 0 +
        // 6 × 300 for the later parts' packing and unpacking on the
        // critical path.
        assert_eq!(got, (647_740, 57, 54, 2088));
    }
}
