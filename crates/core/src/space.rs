//! Spaces: the indirection between data structures and protocols.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::ids::{RegionId, SpaceId};
use crate::protocol::Protocol;
use crate::region::RegionEntry;

/// Node-local state for one space.
///
/// The paper (§4.1): "A space is implemented as a structure that holds
/// pointers to the appropriate protocol's routines. [...] The structure
/// also contains a pointer by which protocols may associate data with a
/// space (for example, a static update protocol may wish to associate the
/// sharer list for a particular data structure with its space)." No
/// protocol here needs that pointer: the dirty list and the outstanding
/// count below are all the per-space state the library keeps.
pub struct SpaceEntry {
    /// The space's machine-wide id.
    pub id: SpaceId,
    /// The protocol currently associated with the space. Swapped by
    /// `change_protocol`; the indirection is what makes protocol changes a
    /// one-line operation for applications (§2.2).
    ///
    /// The runtime holds this borrowed (shared, with the node's space table)
    /// for the whole of each handler and hook it resolves through the
    /// space, and clones nothing. That rests on one rule: handlers never
    /// block, and no handler or hook creates or rebinds a space. `AceRt`'s
    /// `new_space` and `change_protocol` refuse a call from inside one with
    /// a panic naming the rank, the space and the message last handled.
    pub protocol: RefCell<Rc<dyn Protocol>>,
    /// Regions of this space that the protocol wants revisited at the next
    /// barrier (the dirty regions of static update, the copies pipelined
    /// write fetched).
    pub dirty: RefCell<Vec<RegionId>>,
    /// Outstanding asynchronous operations the protocol must drain before
    /// a barrier completes (pipelined writes in flight, unacked updates).
    pub outstanding: Cell<u64>,
}

impl SpaceEntry {
    /// Create a space entry bound to `protocol`.
    pub fn new(id: SpaceId, protocol: Rc<dyn Protocol>) -> Self {
        SpaceEntry {
            id,
            protocol: RefCell::new(protocol),
            dirty: RefCell::new(Vec::new()),
            outstanding: Cell::new(0),
        }
    }

    /// Clone out the current protocol (an `Rc` bump), for a caller that
    /// outlives the binding: a barrier or a handover, which may replace the
    /// protocol while it runs.
    pub fn proto(&self) -> Rc<dyn Protocol> {
        self.protocol.borrow().clone()
    }

    /// Record `e` as dirty unless `listed`, a bit of its aux word the
    /// caller's protocol reserves for this, says it already is: O(1), in
    /// first-mark order. The protocol clears `listed` on every region
    /// [`SpaceEntry::drain_dirty`] hands it, and on every region it flushes
    /// (a handover drops the list).
    pub fn mark_dirty(&self, e: &RegionEntry, listed: u64) {
        let aux = e.aux.get();
        if aux & listed == 0 {
            e.aux.set(aux | listed);
            self.dirty.borrow_mut().push(e.id);
        }
    }

    /// Hand `f` every region on the dirty list, in first-mark order, and
    /// leave the list empty with its buffer kept, so the next interval's
    /// marks allocate nothing. The list stays borrowed while `f` runs: `f`
    /// must not mark a region of this space dirty.
    pub fn drain_dirty(&self, f: impl FnMut(RegionId)) {
        self.dirty.borrow_mut().drain(..).for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::NoopProtocol;

    #[test]
    fn dirty_list_dedups_and_drains() {
        const LISTED: u64 = 1 << 5;
        let s = SpaceEntry::new(SpaceId(0), Rc::new(NoopProtocol));
        let entry = |seq| RegionEntry::new(RegionId::new(0, seq), s.id, crate::Words::One(0));
        let (e1, e2) = (entry(1), entry(2));
        e2.aux.set(1);
        s.mark_dirty(&e1, LISTED);
        s.mark_dirty(&e2, LISTED);
        s.mark_dirty(&e1, LISTED);
        assert_eq!((e1.aux.get(), e2.aux.get()), (LISTED, LISTED | 1), "other aux bits kept");
        let drained = || {
            let mut out = Vec::new();
            s.drain_dirty(|r| out.push(r));
            out
        };
        assert_eq!(drained(), vec![e1.id, e2.id], "first-mark order, once each");
        assert!(drained().is_empty());
        assert!(s.dirty.borrow().capacity() >= 2, "the buffer is kept");
        s.mark_dirty(&e1, LISTED);
        assert!(drained().is_empty(), "still listed until the protocol clears the bit");
        e1.aux.set(0);
        s.mark_dirty(&e2, LISTED);
        s.mark_dirty(&e1, LISTED);
        assert_eq!(drained(), vec![e1.id], "a cleared bit lists the region again");
    }

    #[test]
    fn protocol_swap() {
        let s = SpaceEntry::new(SpaceId(0), Rc::new(NoopProtocol));
        assert_eq!(s.proto().name(), "noop");
        *s.protocol.borrow_mut() = Rc::new(NoopProtocol);
        assert_eq!(s.proto().name(), "noop");
    }
}
