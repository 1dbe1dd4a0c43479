//! The null protocol: no coherence at all.
//!
//! Used for program phases in which every node touches only data it owns —
//! the paper's Water runs its intra-molecular phase under a null protocol
//! and gains 2× over a sequentially-consistent execution (§2.2). All
//! handlers are null, so the compiler's direct-dispatch pass deletes every
//! protocol call on accesses that provably use this protocol.

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry};

/// A protocol where every action is a no-op and data is purely local.
#[derive(Default)]
pub struct NullProtocol;

impl NullProtocol {
    /// Constructor for registry use.
    pub fn new() -> Self {
        NullProtocol
    }
}

impl Protocol for NullProtocol {
    fn name(&self) -> &'static str {
        "Null"
    }

    fn optimizable(&self) -> bool {
        true
    }

    fn null_actions(&self) -> Actions {
        Actions::MAP
            .union(Actions::START_READ)
            .union(Actions::END_READ)
            .union(Actions::START_WRITE)
            .union(Actions::END_WRITE)
    }

    // No coherence at all: nothing is forbidden, so nothing conflicts.
    fn grants(&self) -> GrantSet {
        GrantSet::concurrent()
    }

    // Every per-region hook is an unconditional no-op, so maps and
    // accesses are fast in every state.
    fn fast_mask(&self, _rt: &AceRt, _e: &RegionEntry) -> Actions {
        self.null_actions()
    }

    fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}

    fn handle(&self, _rt: &AceRt, _e: &RegionEntry, msg: ProtoMsg, src: usize) {
        panic!("null protocol received message op {} from {src}", msg.op);
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        // Drop any remote cache silently; the master at home is
        // authoritative by this protocol's usage contract (each node writes
        // only home data during a null phase).
        if !e.is_home_of(rt.rank()) {
            e.st.set(crate::states::R_INVALID);
        }
        e.sharers.clear();
        e.owner.set(-1);
        e.pending.set(0);
        e.aux.set(0);
        *e.twin.borrow_mut() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{run_ace, CostModel};
    use std::rc::Rc;

    #[test]
    fn local_phase_is_message_free() {
        let r = run_ace(4, CostModel::free(), |rt| {
            let s = rt.new_space(Rc::new(NullProtocol));
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

    #[test]
    fn declares_all_access_hooks_null() {
        let p = NullProtocol;
        let n = p.null_actions();
        assert!(n.contains(Actions::START_READ));
        assert!(n.contains(Actions::END_WRITE));
        assert!(n.contains(Actions::MAP));
        assert!(!n.contains(Actions::BARRIER));
        assert!(p.optimizable());
    }
}
