//! Migratory protocol: a single copy follows its accessors.
//!
//! For data that is read-modify-written by one processor at a time (the
//! classic "migratory" access pattern of Bennett et al., cited in §2.2),
//! acquiring exclusive ownership on *every* access — including reads —
//! halves the message count versus an invalidation protocol, which pays a
//! read miss followed by a separate upgrade.
//!
//! Implementation: the home node keeps the directory (`owner`, or -1 when
//! the master copy is home). Any access on a non-owner requests the single
//! copy through home, which recalls it from the current owner if needed.
//! The machinery reuses the SC protocol's round discipline: one round in
//! flight per region, later requests parked in the blocked queue.

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry};

use crate::auxbits::{BUSY, WANTED};
use crate::states::*;

/// Wire opcodes.
pub mod op {
    /// Remote → home: give me the (exclusive) copy.
    pub const MREQ: u16 = 1;
    /// Home → remote: the copy, with ownership.
    pub const MDATA: u16 = 2;
    /// Home → owner: send the copy home.
    pub const RECALL: u16 = 3;
    /// Owner → home: copy coming home.
    pub const WB: u16 = 4;
    /// Owner → home: flushing ownership home (protocol change).
    pub const FLUSH_X: u16 = 5;
    /// Home → remote: flush acknowledged.
    pub const FLUSH_ACK: u16 = 6;

    /// Trace label for an opcode.
    pub fn name(op: u16) -> &'static str {
        match op {
            MREQ => "mreq",
            MDATA => "mdata",
            RECALL => "recall",
            WB => "wb",
            FLUSH_X => "flush_x",
            FLUSH_ACK => "flush_ack",
            _ => "op",
        }
    }
}

const RECALL_PENDING: u64 = 1 << 2;
const FLUSH_WAIT: u64 = 1 << 8;

/// The migratory protocol.
#[derive(Default)]
pub struct Migratory;

impl Migratory {
    /// Constructor for registry use.
    pub fn new() -> Self {
        Migratory
    }

    fn acquire(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            loop {
                if e.owner.get() == -1 && e.aux.get() & BUSY == 0 {
                    return;
                }
                if e.owner.get() != -1 && e.aux.get() & BUSY == 0 {
                    e.aux.set(e.aux.get() | BUSY);
                    rt.send_proto(e.owner.get() as usize, e.id, op::RECALL, 0, None);
                }
                rt.wait("migratory recall", || e.aux.get() & BUSY == 0);
            }
        }
        if e.st.get() == R_EXCL {
            return;
        }
        rt.counters_mut(|c| c.read_misses += 1);
        e.aux.set(e.aux.get() | WANTED);
        e.st.set(R_WAIT_WRITE);
        rt.send_proto(e.id.home(), e.id, op::MREQ, 0, None);
        rt.wait("migratory copy", || e.st.get() == R_EXCL);
        e.aux.set(e.aux.get() & !WANTED);
    }

    fn drain_blocked(&self, rt: &AceRt, e: &RegionEntry) {
        let parked: Vec<(u16, u16, u64)> = e.blocked.borrow_mut().drain(..).collect();
        for (from, opc, arg) in parked {
            self.handle(
                rt,
                e,
                ProtoMsg { region: e.id, op: opc, from, arg, data: None },
                from as usize,
            );
        }
    }

    /// Recompute the entry's fast mask. Starts are no-ops when the copy
    /// is already where it needs to be: the master is quiescent at home,
    /// or this node holds it exclusively with no recall in flight. Ends
    /// are no-ops unless there is deferred work — parked requests to
    /// drain at home, a pending recall to honor remotely.
    fn refresh_fast(&self, rt: &AceRt, e: &RegionEntry) {
        let mut fast = Actions::empty();
        if e.is_home_of(rt.rank()) {
            if e.owner.get() == -1 && e.aux.get() & BUSY == 0 {
                fast = fast.union(Actions::START_READ).union(Actions::START_WRITE);
            }
            if e.blocked.borrow().is_empty() && e.aux.get() & BUSY == 0 {
                fast = fast.union(Actions::END_READ).union(Actions::END_WRITE);
            }
        } else {
            if e.st.get() == R_EXCL && e.aux.get() & RECALL_PENDING == 0 {
                fast = fast.union(Actions::START_READ).union(Actions::START_WRITE);
            }
            if e.aux.get() & RECALL_PENDING == 0 {
                fast = fast.union(Actions::END_READ).union(Actions::END_WRITE);
            }
        }
        e.fast.set(fast);
    }
}

impl Protocol for Migratory {
    fn name(&self) -> &'static str {
        "Migratory"
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    fn optimizable(&self) -> bool {
        false // read-modify-write sections must stay where they are
    }

    // Not the end hooks: they are where home drains requests parked
    // behind its own section and where an owner honours a recall that
    // arrived mid-section. Deleting the call would strand both.
    fn null_actions(&self) -> Actions {
        Actions::UNMAP
    }

    // The region lives wholly on whichever node holds it: sections are
    // exclusive by construction (stated explicitly, though it matches
    // the trait default, because the checker treats this as the
    // protocol's declared contract).
    fn grants(&self) -> GrantSet {
        GrantSet::exclusive()
    }

    fn on_create(&self, rt: &AceRt, e: &RegionEntry) {
        self.refresh_fast(rt, e);
    }

    fn on_map(&self, rt: &AceRt, e: &RegionEntry) {
        self.refresh_fast(rt, e);
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        self.acquire(rt, e);
        self.refresh_fast(rt, e);
    }

    fn end_read(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            if !e.busy() && e.aux.get() & BUSY == 0 && !e.blocked.borrow().is_empty() {
                self.drain_blocked(rt, e);
            }
        } else if !e.busy() && e.aux.get() & RECALL_PENDING != 0 {
            e.aux.set(e.aux.get() & !RECALL_PENDING);
            e.st.set(R_INVALID);
            rt.send_proto(e.id.home(), e.id, op::WB, 0, Some(e.clone_data()));
        }
        self.refresh_fast(rt, e);
    }

    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        self.acquire(rt, e);
        self.refresh_fast(rt, e);
    }

    fn end_write(&self, rt: &AceRt, e: &RegionEntry) {
        self.end_read(rt, e);
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        let from = msg.from as usize;
        match msg.op {
            // home side
            op::MREQ => {
                if e.is_home_of(rt.rank()) && e.busy() {
                    // Home is inside its own access section; defer until
                    // the matching end_* drains the queue.
                    e.blocked.borrow_mut().push_back((msg.from, msg.op, msg.arg));
                } else if e.aux.get() & BUSY != 0 {
                    e.blocked.borrow_mut().push_back((msg.from, msg.op, msg.arg));
                } else if e.owner.get() != -1 {
                    e.aux.set(e.aux.get() | BUSY);
                    rt.send_proto(e.owner.get() as usize, e.id, op::RECALL, 0, None);
                    e.blocked.borrow_mut().push_back((msg.from, msg.op, msg.arg));
                } else {
                    e.owner.set(from as i32);
                    rt.send_proto(from, e.id, op::MDATA, 0, Some(e.clone_data()));
                }
            }
            op::WB | op::FLUSH_X => {
                e.install_shared(msg.data.expect("writeback carries data"));
                e.owner.set(-1);
                e.aux.set(e.aux.get() & !BUSY);
                if msg.op == op::FLUSH_X {
                    rt.send_proto(from, e.id, op::FLUSH_ACK, 0, None);
                }
                self.drain_blocked(rt, e);
            }
            // remote side
            op::MDATA => {
                e.install_shared(msg.data.expect("grant carries data"));
                e.st.set(R_EXCL);
            }
            op::RECALL => match e.st.get() {
                R_EXCL if e.busy() || e.aux.get() & WANTED != 0 => {
                    e.aux.set(e.aux.get() | RECALL_PENDING)
                }
                R_EXCL => {
                    e.st.set(R_INVALID);
                    rt.send_proto(e.id.home(), e.id, op::WB, 0, Some(e.clone_data()));
                }
                other => panic!("migratory RECALL in state {other}"),
            },
            op::FLUSH_ACK => {
                e.aux.set(e.aux.get() & !FLUSH_WAIT);
            }
            other => panic!("Migratory: unknown opcode {other}"),
        }
        self.refresh_fast(rt, e);
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) {
            if e.st.get() == R_EXCL {
                e.aux.set(e.aux.get() | FLUSH_WAIT);
                let data = e.clone_data();
                e.st.set(R_INVALID);
                rt.send_proto(e.id.home(), e.id, op::FLUSH_X, 0, Some(data));
                rt.wait("migratory flush ack", || e.aux.get() & FLUSH_WAIT == 0);
            }
            e.aux.set(0);
        }
        // Hand the region to the next protocol slow; it declares its own
        // fast states in `adopt`.
        e.fast.set(Actions::empty());
    }

    fn adopt(&self, rt: &AceRt, e: &RegionEntry) {
        self.refresh_fast(rt, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{run_ace, CostModel, RegionId};
    use std::rc::Rc;

    fn shared_region(rt: &AceRt, words: usize) -> RegionId {
        let s = rt.new_space(Rc::new(Migratory));
        let rid = if rt.rank() == 0 {
            RegionId(rt.bcast(0, &[rt.gmalloc_words(s, words).0])[0])
        } else {
            RegionId(rt.bcast(0, &[])[0])
        };
        rt.map(rid);
        rid
    }

    #[test]
    fn copy_migrates_and_accumulates() {
        // Each node in turn increments the counter; ownership migrates.
        let n = 4;
        let r = run_ace(n, CostModel::free(), |rt| {
            let rid = shared_region(rt, 1);
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
            let rid = shared_region(rt, 1);
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
            let rid = shared_region(rt, 1);
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
}
