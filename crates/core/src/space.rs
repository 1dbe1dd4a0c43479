//! Spaces: the indirection between data structures and protocols.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::ids::{RegionId, SpaceId};
use crate::protocol::Protocol;

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

    /// Clone out the current protocol (cheap `Rc` bump). Callers must not
    /// hold the borrow across a protocol call, so this is the only accessor.
    pub fn proto(&self) -> Rc<dyn Protocol> {
        self.protocol.borrow().clone()
    }

    /// Record a region as dirty if not already recorded.
    pub fn mark_dirty(&self, r: RegionId) {
        let mut d = self.dirty.borrow_mut();
        if !d.contains(&r) {
            d.push(r);
        }
    }

    /// Take and clear the dirty list.
    pub fn take_dirty(&self) -> Vec<RegionId> {
        std::mem::take(&mut *self.dirty.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::NoopProtocol;

    #[test]
    fn dirty_list_dedups_and_drains() {
        let s = SpaceEntry::new(SpaceId(0), Rc::new(NoopProtocol));
        let r1 = RegionId::new(0, 1);
        let r2 = RegionId::new(0, 2);
        s.mark_dirty(r1);
        s.mark_dirty(r2);
        s.mark_dirty(r1);
        assert_eq!(s.take_dirty(), vec![r1, r2]);
        assert!(s.take_dirty().is_empty());
    }

    #[test]
    fn protocol_swap() {
        let s = SpaceEntry::new(SpaceId(0), Rc::new(NoopProtocol));
        assert_eq!(s.proto().name(), "noop");
        *s.protocol.borrow_mut() = Rc::new(NoopProtocol);
        assert_eq!(s.proto().name(), "noop");
    }
}
