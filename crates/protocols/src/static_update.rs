//! Static update protocol: subscriber lists built on first touch, updates
//! pushed at barriers.
//!
//! This is "essentially Falsafi et al.'s protocol for EM3D" (§3.3): the
//! first time a node maps a remote region it *subscribes*; from then on,
//! every barrier on the space pushes the current contents of each dirty
//! region from its home to all subscribers. The pushes to one subscriber
//! go out back to back, so the coalescing transport merges them into a
//! handful of wire envelopes per subscriber — the bulk-message batching
//! of the original protocol, without hand-packing payload records. Reads
//! never miss after the first iteration, and the per-access hooks are null
//! — which is why the paper's direct-dispatch compiler pass wins most on
//! EM3D (Table 4): the null dispatches in the tight kernel disappear.
//!
//! Usage contract (asserted): regions are written only at their home node.

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry, SpaceEntry};

use crate::auxbits::{self, FLUSH_WAIT, LISTED};
use crate::common;
use crate::states::*;

/// Wire opcodes.
pub mod op {
    /// Remote → home: subscribe and fetch current contents.
    pub const SUBSCRIBE: u16 = 1;
    /// Home → remote: contents (subscribe reply).
    pub const DATA: u16 = 2;
    /// Home → subscriber: barrier-time push of new contents.
    pub const PUSH: u16 = 3;
    /// Subscriber → home: push applied.
    pub const PUSH_ACK: u16 = 4;
    /// Remote → home: unsubscribe (flush).
    pub const UNSUB: u16 = 5;
    /// Home → remote: unsubscribe acknowledged.
    pub const UNSUB_ACK: u16 = 6;

    /// Trace label for an opcode.
    pub fn name(op: u16) -> &'static str {
        match op {
            SUBSCRIBE => "subscribe",
            DATA => "data",
            PUSH => "push",
            PUSH_ACK => "push_ack",
            UNSUB => "unsub",
            UNSUB_ACK => "unsub_ack",
            _ => "op",
        }
    }
}

/// The static update protocol.
#[derive(Default)]
pub struct StaticUpdate;

impl StaticUpdate {
    /// Constructor for registry use.
    pub fn new() -> Self {
        StaticUpdate
    }

    fn subscribe(&self, rt: &AceRt, e: &RegionEntry) {
        rt.counters_mut(|c| c.read_misses += 1);
        common::fetch_copy(
            rt,
            e,
            op::SUBSCRIBE,
            R_WAIT_READ,
            R_SHARED,
            "static-update subscription",
        );
        auxbits::set(e, LISTED);
    }
}

impl Protocol for StaticUpdate {
    fn name(&self) -> &'static str {
        "StaticUpdate"
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    fn optimizable(&self) -> bool {
        true
    }

    // The per-access hooks are null; only map, end_write (dirty marking)
    // and the barrier do work. This mirrors the paper's observation that
    // the protocol "sets most of its handlers to be the null handler".
    fn null_actions(&self) -> Actions {
        Actions::START_READ.union(Actions::END_READ).union(Actions::START_WRITE)
    }

    // One writer updates the static copy set; standing readers keep
    // their sections open across the push, so read/write overlap is
    // granted but write/write is not.
    fn grants(&self) -> GrantSet {
        GrantSet { write_write: false, read_write: true }
    }

    // The hooks declared null, plus `on_map` wherever it has no
    // subscription to make. `end_write` marks the region dirty, so it is
    // never fast.
    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        let fast = self.null_actions();
        if e.is_home_of(rt.rank()) || e.st.get() != R_INVALID {
            fast.union(Actions::MAP)
        } else {
            fast
        }
    }

    fn on_map(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) && e.st.get() == R_INVALID {
            self.subscribe(rt, e);
        }
    }

    fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {
        // Null: data freshness is provided by barrier pushes. (First touch
        // happens at map.)
    }

    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}

    // The one write hook that always runs (never null, never fast), so the
    // usage contract is checked here.
    fn end_write(&self, rt: &AceRt, e: &RegionEntry) {
        debug_assert!(
            e.is_home_of(rt.rank()),
            "static update regions are written only at home ({})",
            e.id
        );
        rt.space(e.space).mark_dirty(e.id);
    }

    fn barrier(&self, rt: &AceRt, s: &SpaceEntry) {
        // Push every dirty region to every subscriber, one PUSH per
        // (region, subscriber), back to back with no intervening wait:
        // the per-destination trains coalesce in the transport, so each
        // subscriber still receives one wire envelope per flush (one
        // latency, one header) — Falsafi et al.'s batched static updates
        // recovered from the transport instead of hand-packed payload
        // records. Each PUSH addresses its own region, so the subscriber
        // side dispatches without a lookup, and the acks it sends while
        // draining the batch coalesce into one envelope back to the home.
        for rid in s.take_dirty() {
            let e = rt.entry(rid);
            debug_assert!(e.is_home_of(rt.rank()));
            for sub in e.sharers.iter() {
                s.outstanding.set(s.outstanding.get() + 1);
                rt.send_proto(sub, e.id, op::PUSH, 0, Some(e.share_data()));
            }
        }
        rt.wait("static-update pushes", || s.outstanding.get() == 0);
        rt.space_barrier(s);
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
        let from = msg.from as usize;
        match msg.op {
            // home side
            op::SUBSCRIBE => {
                e.sharers.add(from);
                rt.send_proto(from, e.id, op::DATA, 0, Some(e.share_data()));
            }
            op::PUSH_ACK => {
                let s = rt.space(e.space);
                debug_assert!(s.outstanding.get() > 0);
                s.outstanding.set(s.outstanding.get() - 1);
            }
            op::UNSUB => {
                e.sharers.remove(from);
                rt.send_proto(from, e.id, op::UNSUB_ACK, 0, None);
            }
            // subscriber side
            op::DATA => {
                e.install_shared(msg.data.expect("subscribe reply carries data"));
                e.st.set(R_SHARED);
            }
            op::PUSH => {
                // Barrier-time contents for this region; ack each push (the
                // acks for one coalesced batch leave as one wire envelope).
                e.install_shared(msg.data.expect("push carries data"));
                if e.st.get() != R_INVALID {
                    e.st.set(R_SHARED);
                }
                rt.send_proto(e.id.home(), e.id, op::PUSH_ACK, 0, None);
            }
            op::UNSUB_ACK => auxbits::clear(e, FLUSH_WAIT),
            other => panic!("StaticUpdate: unknown opcode {other}"),
        }
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            return;
        }
        if auxbits::has(e, LISTED) || e.st.get() == R_SHARED {
            common::leave_home(rt, e, op::UNSUB, None, "unsubscribe ack");
        }
        e.aux.set(0);
    }

    fn adopt(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) && e.mapped.get() > 0 {
            self.subscribe(rt, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{run_ace, run_ace_with, CostModel, RegionId, SpaceId, Spmd};
    use std::rc::Rc;

    fn setup(rt: &AceRt, words: usize) -> (SpaceId, RegionId) {
        crate::shared_region(rt, Rc::new(StaticUpdate), words)
    }

    #[test]
    fn barrier_pushes_home_writes_to_subscribers() {
        let r = run_ace(3, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 2);
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
            let (s, rid) = setup(rt, 1);
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
            let (s, rid) = setup(rt, 1);
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
            let s = rt.new_space(Rc::new(StaticUpdate));
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
}
