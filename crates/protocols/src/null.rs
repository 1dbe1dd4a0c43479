//! The null protocol: no coherence at all.
//!
//! Used for program phases in which every node touches only data it owns —
//! the paper's Water runs its intra-molecular phase under a null protocol
//! and gains 2× over a sequentially-consistent execution (§2.2). All
//! handlers are null, so the compiler's direct-dispatch pass deletes every
//! protocol call on accesses that provably use this protocol.
//!
//! *Fetch-and-add* (TSP's job counter,
//! [`ProtoSpec::FetchAdd`](crate::ProtoSpec::FetchAdd)) is this protocol
//! with a lock that fetches and adds. TSP's source locks the counter, reads
//! it, writes it plus one and unlocks; fetch-and-add reinterprets that same
//! source (§5.2): `lock` is one fetch-and-add round trip to the home that
//! installs the old value in the local copy, the read hits that copy, the
//! write updates only it, and `unlock` is free. The region is one `u64`.

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry};

use crate::auxbits;
use crate::common;

/// Wire opcodes (fetch-and-add's; Null sends none).
mod op {
    /// Remote → home: fetch the current value and add `arg`.
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

/// Remote side of fetch-and-add: a `FADD` is waiting for its `VALUE`.
const VALUE_WAIT: u64 = 1 << 9;

/// A protocol where every action is a no-op and data is purely local; or,
/// as [`make`](crate::make) builds it for
/// [`ProtoSpec::FetchAdd`](crate::ProtoSpec::FetchAdd), fetch-and-add.
#[derive(Default)]
pub struct NullProtocol {
    /// `lock` is a fetch-and-add round trip at home and `unlock` is free.
    fetch_add: bool,
}

impl NullProtocol {
    /// Constructor for registry use.
    pub fn new() -> Self {
        NullProtocol::default()
    }

    /// The fetch-and-add protocol: the null protocol whose lock fetches and
    /// adds.
    pub(crate) fn fetch_add() -> Self {
        NullProtocol { fetch_add: true }
    }
}

impl Protocol for NullProtocol {
    fn name(&self) -> &'static str {
        if self.fetch_add {
            "FetchAdd"
        } else {
            "Null"
        }
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    fn optimizable(&self) -> bool {
        true
    }

    // Fetch-and-add's work happens in `lock`; its `unlock` is free.
    fn null_actions(&self) -> Actions {
        let null = Actions::MAP.union(Actions::ACCESS);
        if self.fetch_add {
            null.union(Actions::UNLOCK)
        } else {
            null
        }
    }

    // No coherence at all: nothing is forbidden, so nothing conflicts.
    // Fetch-and-add mutates only under the lock, and lock holders
    // serialize at the home.
    fn grants(&self) -> GrantSet {
        GrantSet::concurrent()
    }

    fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn lock(&self, rt: &AceRt, e: &RegionEntry) {
        if !self.fetch_add {
            rt.default_lock(e);
            return;
        }
        rt.counters_mut(|c| c.locks += 1);
        if e.is_home_of(rt.rank()) {
            // The home reads the master in place. The locked section is
            // atomic with respect to remote fetch-and-adds because nothing
            // inside it polls the network (all its hooks are null), so the
            // application's `counter = counter + 1` write advances the
            // master exactly like a remote acquisition does.
            return;
        }
        auxbits::set(e, VALUE_WAIT);
        rt.send_proto(e.id.home(), e.id, op::FADD, 1, None);
        rt.wait("fetch-and-add value", || !auxbits::has(e, VALUE_WAIT));
    }

    fn unlock(&self, rt: &AceRt, e: &RegionEntry) {
        if !self.fetch_add {
            rt.default_unlock(e);
        }
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, src: usize) {
        assert!(self.fetch_add, "null protocol received message op {} from {src}", msg.op);
        match msg.op {
            op::FADD => {
                let old = e.with_data_mut(|d| {
                    let old = d[0];
                    d[0] = old + msg.arg;
                    old
                });
                rt.send_proto(msg.from as usize, e.id, op::VALUE, old, None);
            }
            op::VALUE => {
                e.with_data_mut(|d| d[0] = msg.arg);
                auxbits::clear(e, VALUE_WAIT);
            }
            other => panic!("FetchAdd: unknown opcode {other}"),
        }
    }

    // Drop any remote cache silently; the master at home is authoritative
    // by this protocol's usage contract (each node writes only home data
    // during a null phase; fetch-and-add's remote copy is ignored).
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
    use ace_core::{run_ace, CostModel, RegionId};
    use std::rc::Rc;

    #[test]
    fn local_phase_is_message_free() {
        let r = run_ace(4, CostModel::free(), |rt| {
            let s = rt.new_space(Rc::new(NullProtocol::new()));
            let rid = rt.gmalloc::<f64>(s, 64);
            rt.map(rid);
            for i in 0..100 {
                rt.start_write(rid);
                rt.with_mut::<f64, _>(rid, |d| d[i % 64] += 1.0);
                rt.end_write(rid);
            }
            rt.start_read(rid);
            let sum = rt.with::<f64, _>(rid, |d| d.iter().sum::<f64>());
            rt.end_read(rid);
            (sum, rt.counters().proto_msgs)
        });
        for (sum, msgs) in r.results {
            assert_eq!(sum, 100.0);
            assert_eq!(msgs, 0);
        }
    }

    fn setup(rt: &AceRt) -> RegionId {
        crate::shared_region(rt, crate::make(crate::ProtoSpec::FetchAdd), 1).1
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

    #[test]
    fn declares_all_access_hooks_null() {
        let p = NullProtocol::new();
        let n = p.null_actions();
        assert!(n.contains(Actions::START_READ));
        assert!(n.contains(Actions::END_WRITE));
        assert!(n.contains(Actions::MAP));
        assert!(!n.contains(Actions::BARRIER));
        assert!(p.optimizable());
    }

    /// A 4-rank run through Null and FetchAdd held to the simulated time,
    /// traffic and counters it had while fetch-and-add was its own module:
    /// a 1-word region created under SC and read on the remote ranks,
    /// handed over to Null for two runtime-queued lock/unlock pairs per
    /// rank, then to FetchAdd for three tickets per rank (lock, read, write
    /// ticket + 1, unlock), then back to SC, where every rank reads the
    /// count. Exact only where every run repeats (the multiplexed executor).
    #[cfg(all(target_arch = "x86_64", unix))]
    #[test]
    fn a_null_and_fetch_add_run_is_pinned() {
        use crate::{make, ProtoSpec};
        use ace_core::OpCounters;
        let r = run_ace(4, CostModel::cm5(), |rt| {
            let (s, rid) = crate::shared_region(rt, make(ProtoSpec::Sc), 1);
            let read = || {
                rt.start_read(rid);
                let v = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                v
            };
            if rt.rank() != 0 {
                read();
            }
            rt.change_protocol(s, make(ProtoSpec::Null));
            for _ in 0..2 {
                rt.lock(rid);
                rt.unlock(rid);
            }
            rt.barrier(s);
            rt.change_protocol(s, make(ProtoSpec::FetchAdd));
            let tickets: Vec<u64> = (0..3)
                .map(|_| {
                    rt.lock(rid);
                    let t = read();
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = t + 1);
                    rt.end_write(rid);
                    rt.unlock(rid);
                    t
                })
                .collect();
            rt.barrier(s);
            rt.change_protocol(s, make(ProtoSpec::Sc));
            (tickets, read(), rt.counters())
        });
        let mut c = OpCounters::default();
        let mut all = Vec::new();
        for (tickets, count, counters) in &r.results {
            assert_eq!(*count, 12);
            all.extend_from_slice(tickets);
            c.merge(counters);
        }
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<u64>>(), "every ticket issued exactly once");
        let s = &r.stats;
        let got = (s.sim_time(), s.total_msgs(), s.total_wire_msgs(), s.total_bytes());
        assert_eq!(got, (1_186_640, 123, 116, 3912));
        let want = OpCounters {
            map_hits: 41,
            map_misses: 3,
            start_reads: 19,
            read_misses: 6,
            start_writes: 12,
            ends: 31,
            barriers: 8,
            locks: 20,
            proto_msgs: 33,
            dispatched: 46,
            fast_hits: 56,
            fast_maps: 1,
            region_cache_hits: 197,
            region_cache_misses: 3,
            logical_msgs: 114,
            wire_msgs: 107,
            switches: 12,
            bar_msgs: 96,
            ..OpCounters::default()
        };
        assert_eq!(c, want);
    }
}
