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

use crate::auxbits::{self, BUSY, FLUSH_WAIT, RECALL_PENDING, WANTED};
use crate::common;
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

/// The migratory protocol.
#[derive(Default)]
pub struct Migratory;

impl Migratory {
    /// Constructor for registry use.
    pub fn new() -> Self {
        Migratory
    }

    /// Remote side: send the copy home.
    fn write_back(&self, rt: &AceRt, e: &RegionEntry) {
        e.st.set(R_INVALID);
        rt.send_proto(e.id.home(), e.id, op::WB, 0, Some(e.share_data()));
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

    // Mapping moves nothing (the copy migrates on access). Not the end
    // hooks: they are where home drains requests parked behind its own
    // section and where an owner honours a recall that arrived
    // mid-section. Deleting the call would strand both.
    fn null_actions(&self) -> Actions {
        Actions::MAP.union(Actions::UNMAP)
    }

    // The region lives wholly on whichever node holds it: sections are
    // exclusive by construction (stated explicitly, though it matches
    // the trait default, because the checker treats this as the
    // protocol's declared contract).
    fn grants(&self) -> GrantSet {
        GrantSet::exclusive()
    }

    // Starts are no-ops when the copy is already where it needs to be: the
    // master is quiescent at home, or this node holds it exclusively with
    // no recall in flight. Ends are no-ops unless there is deferred work —
    // parked requests to drain at home, a pending recall to honor remotely.
    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        let starts = Actions::START_READ.union(Actions::START_WRITE);
        let ends = Actions::END_READ.union(Actions::END_WRITE);
        let mut fast = self.null_actions();
        if e.is_home_of(rt.rank()) {
            if e.owner.get() == -1 && !auxbits::has(e, BUSY) {
                fast = fast.union(starts);
            }
            if e.blocked.borrow().is_empty() && !auxbits::has(e, BUSY) {
                fast = fast.union(ends);
            }
        } else if !auxbits::has(e, RECALL_PENDING) {
            fast = fast.union(ends);
            if e.st.get() == R_EXCL {
                fast = fast.union(starts);
            }
        }
        fast
    }

    // Reads acquire the single copy exactly like writes do.
    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            common::recall_master(rt, e, op::RECALL, "migratory recall");
        } else if e.st.get() != R_EXCL {
            rt.counters_mut(|c| c.read_misses += 1);
            common::fetch_copy(rt, e, op::MREQ, R_WAIT_WRITE, R_EXCL, "migratory copy");
        }
    }

    fn end_read(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            if !e.busy() && !auxbits::has(e, BUSY) && !e.blocked.borrow().is_empty() {
                common::drain_blocked(self, rt, e);
            }
        } else if !e.busy() && auxbits::has(e, RECALL_PENDING) {
            auxbits::clear(e, RECALL_PENDING);
            self.write_back(rt, e);
        }
    }

    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        self.start_read(rt, e);
    }

    fn end_write(&self, rt: &AceRt, e: &RegionEntry) {
        self.end_read(rt, e);
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        let from = msg.from as usize;
        match msg.op {
            // home side
            op::MREQ => {
                if !common::park_request(rt, e, &msg, op::RECALL) {
                    e.owner.set(from as i32);
                    rt.send_proto(from, e.id, op::MDATA, 0, Some(e.share_data()));
                }
            }
            op::WB => common::master_home(self, rt, e, msg),
            op::FLUSH_X => {
                rt.send_proto(from, e.id, op::FLUSH_ACK, 0, None);
                common::master_home(self, rt, e, msg);
            }
            // remote side
            op::MDATA => {
                e.install_shared(msg.data.expect("grant carries data"));
                e.st.set(R_EXCL);
            }
            op::RECALL => match e.st.get() {
                R_EXCL if e.busy() || auxbits::has(e, WANTED) => auxbits::set(e, RECALL_PENDING),
                R_EXCL => self.write_back(rt, e),
                // The recall crossed this node's flush, whose FLUSH_X is
                // carrying the copy home and ends home's round there.
                R_INVALID if auxbits::has(e, FLUSH_WAIT) => {}
                other => panic!("migratory RECALL in state {other}"),
            },
            op::FLUSH_ACK => auxbits::clear(e, FLUSH_WAIT),
            other => panic!("Migratory: unknown opcode {other}"),
        }
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) {
            if e.st.get() == R_EXCL {
                let data = Some(e.share_data());
                common::leave_home(rt, e, op::FLUSH_X, data, "migratory flush ack");
            }
            e.aux.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{run_ace, CostModel, RegionId};
    use std::rc::Rc;

    fn shared_region(rt: &AceRt, words: usize) -> RegionId {
        crate::shared_region(rt, Rc::new(Migratory), words).1
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
