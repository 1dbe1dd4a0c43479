//! Fetch-and-add counter protocol (TSP's job counter).
//!
//! §5.2: "In TSP, the improved performance is due to better management of
//! accesses to a counter that is used to assign jobs to processors." The
//! TSP source acquires the counter's lock, reads it, writes the
//! incremented value, and unlocks — five protocol operations, each a
//! potential round trip under the default protocol. This protocol
//! reinterprets that *same source code*: `lock` performs a single
//! fetch-and-add round trip at the home node and installs the fetched
//! value in the local copy; the read inside the section hits locally, the
//! write updates only the (ignored) local copy, and `unlock` is free.
//!
//! The region is interpreted as a single `u64` counter. The `stride` is
//! what home adds per acquisition; applications that advance the counter
//! by one per job use the default of 1.

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry};

/// Wire opcodes.
pub mod op {
    /// Remote → home: fetch current value and add `arg`.
    pub const FADD: u16 = 1;
    /// Home → remote: the pre-add value.
    pub const VALUE: u16 = 2;

    /// Trace label for an opcode.
    pub fn name(op: u16) -> &'static str {
        match op {
            FADD => "fadd",
            VALUE => "value",
            _ => "op",
        }
    }
}

const VALUE_WAIT: u64 = 1 << 9;

/// The fetch-and-add counter protocol.
pub struct FetchAddCounter {
    stride: u64,
}

impl Default for FetchAddCounter {
    fn default() -> Self {
        FetchAddCounter { stride: 1 }
    }
}

impl FetchAddCounter {
    /// Counter protocol advancing by 1 per `lock`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter protocol advancing by `stride` per `lock`.
    pub fn with_stride(stride: u64) -> Self {
        FetchAddCounter { stride }
    }
}

impl Protocol for FetchAddCounter {
    fn name(&self) -> &'static str {
        "FetchAdd"
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    fn optimizable(&self) -> bool {
        true
    }

    fn null_actions(&self) -> Actions {
        Actions::START_READ
            .union(Actions::END_READ)
            .union(Actions::START_WRITE)
            .union(Actions::END_WRITE)
            .union(Actions::UNLOCK)
            .union(Actions::MAP)
    }

    // Sections carry no coherence meaning here — mutation happens under
    // the lock, and lock holders serialize at the home — so any section
    // combination may overlap.
    fn grants(&self) -> GrantSet {
        GrantSet::concurrent()
    }

    // Every per-region hook is an unconditional no-op (the protocol's
    // work happens in `lock`), so all of them are fast in every state.
    fn fast_mask(&self, _rt: &AceRt, _e: &RegionEntry) -> Actions {
        self.null_actions().intersect(Actions::MASKABLE)
    }

    fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn lock(&self, rt: &AceRt, e: &RegionEntry) {
        rt.counters_mut(|c| c.locks += 1);
        if e.is_home_of(rt.rank()) {
            // The home reads the master in place. The locked section is
            // atomic with respect to remote fetch-and-adds because nothing
            // inside it polls the network (all its hooks are null), so the
            // application's `counter = counter + 1` write advances the
            // master exactly like a remote acquisition does.
            return;
        }
        e.aux.set(e.aux.get() | VALUE_WAIT);
        rt.send_proto(e.id.home(), e.id, op::FADD, self.stride, None);
        rt.wait("fetch-and-add value", || e.aux.get() & VALUE_WAIT == 0);
    }

    fn unlock(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        let from = msg.from as usize;
        match msg.op {
            op::FADD => {
                let old = e.with_data_mut(|d| {
                    let old = d[0];
                    d[0] = old + msg.arg;
                    old
                });
                rt.send_proto(from, e.id, op::VALUE, old, None);
            }
            op::VALUE => {
                e.with_data_mut(|d| d[0] = msg.arg);
                e.aux.set(e.aux.get() & !VALUE_WAIT);
            }
            other => panic!("FetchAdd: unknown opcode {other}"),
        }
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) {
            e.st.set(crate::states::R_INVALID);
        }
        e.aux.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{run_ace, CostModel, RegionId};
    use std::rc::Rc;

    fn setup(rt: &AceRt) -> RegionId {
        crate::shared_region(rt, Rc::new(FetchAddCounter::new()), 1).1
    }

    /// The TSP idiom: lock, read ticket, write ticket+1, unlock.
    fn take_ticket(rt: &AceRt, rid: RegionId) -> u64 {
        rt.lock(rid);
        rt.start_read(rid);
        let t = rt.with::<u64, _>(rid, |d| d[0]);
        rt.end_read(rid);
        rt.start_write(rid);
        rt.with_mut::<u64, _>(rid, |d| d[0] = t + 1);
        rt.end_write(rid);
        rt.unlock(rid);
        t
    }

    #[test]
    fn tickets_are_unique_and_dense() {
        const PER: usize = 25;
        let n = 4;
        let r = run_ace(n, CostModel::free(), |rt| {
            let rid = setup(rt);
            rt.machine_barrier();
            let mine: Vec<u64> = (0..PER).map(|_| take_ticket(rt, rid)).collect();
            rt.machine_barrier();
            mine
        });
        let mut all: Vec<u64> = r.results.into_iter().flatten().collect();
        all.sort_unstable();
        let want: Vec<u64> = (0..(PER * n) as u64).collect();
        assert_eq!(all, want, "every ticket issued exactly once");
    }

    #[test]
    fn one_round_trip_per_remote_acquisition() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = setup(rt);
            rt.machine_barrier();
            let before = rt.node().stats().logical_msgs;
            if rt.rank() == 1 {
                for _ in 0..10 {
                    take_ticket(rt, rid);
                }
            }
            let sent = rt.node().stats().logical_msgs - before;
            rt.machine_barrier();
            sent
        });
        // Remote acquirer: exactly one FADD per ticket.
        assert_eq!(r.results[1], 10);
    }

    #[test]
    fn home_acquisitions_are_message_free() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let rid = setup(rt);
            rt.machine_barrier();
            let before = rt.node().stats().logical_msgs;
            if rt.rank() == 0 {
                for _ in 0..10 {
                    take_ticket(rt, rid);
                }
            }
            let sent = rt.node().stats().logical_msgs - before;
            rt.machine_barrier();
            sent
        });
        assert_eq!(r.results[0], 0);
    }
}
