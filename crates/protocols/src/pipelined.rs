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

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry, SpaceEntry};

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

/// The pipelined delta-write protocol.
#[derive(Default)]
pub struct PipelinedWrite;

impl PipelinedWrite {
    /// Constructor for registry use.
    pub fn new() -> Self {
        PipelinedWrite
    }

    fn ensure_copy(&self, rt: &AceRt, e: &RegionEntry) {
        if !e.is_home_of(rt.rank()) && e.st.get() == R_INVALID {
            rt.counters_mut(|c| c.read_misses += 1);
            common::fetch_copy(rt, e, op::FETCH, R_WAIT_READ, R_SHARED, "pipelined fetch");
        }
    }
}

impl Protocol for PipelinedWrite {
    fn name(&self) -> &'static str {
        "Pipelined"
    }

    fn op_name(&self, op: u16) -> &'static str {
        op::name(op)
    }

    fn optimizable(&self) -> bool {
        true
    }

    fn null_actions(&self) -> Actions {
        Actions::END_READ.union(Actions::MAP)
    }

    // Pipelined updates deliberately relax consistency: writers stream
    // updates to standing copies without waiting, so overlapping
    // sections of any kind are part of the contract.
    fn grants(&self) -> GrantSet {
        GrantSet::concurrent()
    }

    // Map and `end_read` are unconditional no-ops (declared null).
    // Starts are no-ops once a copy
    // is resident (and, for writes, the twin snapshot exists — the home
    // writes the master directly and never twins). A remote `end_write`
    // always ships a delta home, so it is only ever fast at home.
    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        let mut fast = self.null_actions();
        if e.is_home_of(rt.rank()) {
            fast = fast.union(Actions::ACCESS);
        } else if e.st.get() != R_INVALID {
            fast = fast.union(Actions::START_READ);
            if e.twin.borrow().is_some() {
                fast = fast.union(Actions::START_WRITE);
            }
        }
        fast
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        self.ensure_copy(rt, e);
    }

    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        self.ensure_copy(rt, e);
        if !e.is_home_of(rt.rank()) && e.twin.borrow().is_none() {
            *e.twin.borrow_mut() = Some(e.share_data());
        }
    }

    fn end_write(&self, rt: &AceRt, e: &RegionEntry) {
        if e.is_home_of(rt.rank()) {
            return; // wrote the master directly
        }
        let delta: std::sync::Arc<[u64]> = {
            let data = e.data.borrow();
            let twin = e.twin.borrow();
            let twin = twin.as_deref().expect("write section had a twin");
            data.iter()
                .zip(twin.iter())
                .map(|(&d, &t)| (f64::from_bits(d) - f64::from_bits(t)).to_bits())
                .collect()
        };
        // The twin advances to the current local contents so the next
        // write section diffs only its own writes.
        *e.twin.borrow_mut() = Some(e.share_data());
        let s = rt.space(e.space);
        s.outstanding.set(s.outstanding.get() + 1);
        rt.send_proto(e.id.home(), e.id, op::DELTA, 0, Some(delta));
    }

    fn barrier(&self, rt: &AceRt, s: &SpaceEntry) {
        // Drain our in-flight deltas, drop our cached copies (a local
        // action), then rendezvous once. Every other writer's deltas were
        // likewise acked before that writer arrived, so post-barrier
        // re-fetches observe the fully accumulated master.
        rt.wait("pipelined deltas drain", || s.outstanding.get() == 0);
        common::drop_remote_copies(rt, s);
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
            other => panic!("Pipelined: unknown opcode {other}"),
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
        crate::shared_region(rt, Rc::new(PipelinedWrite), words)
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
        let r = run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = setup(rt, 1);
            rt.barrier(s);
            if rt.rank() == 0 {
                // Home writes master directly.
                rt.start_write(rid);
                rt.with_mut::<f64, _>(rid, |d| d[0] = 6.5);
                rt.end_write(rid);
            }
            rt.barrier(s);
            rt.start_read(rid);
            let v = rt.with::<f64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results, vec![6.5, 6.5]);
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
}
