//! The protocol interface: full access control (§2.1, §3.2).

use crate::msg::ProtoMsg;
use crate::region::RegionEntry;
use crate::rt::AceRt;
use crate::space::SpaceEntry;

/// Bitmask of protocol hooks, used three ways: to declare which hooks a
/// protocol defines as null (so the compiler's direct-dispatch pass can
/// delete calls to them, §4.2), to say which per-region hooks are no-ops
/// in a region's current state ([`Protocol::fast_mask`]), and in tests to
/// describe hook coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Actions(pub u16);

impl Actions {
    pub const MAP: Actions = Actions(1 << 0);
    pub const START_READ: Actions = Actions(1 << 2);
    pub const END_READ: Actions = Actions(1 << 3);
    pub const START_WRITE: Actions = Actions(1 << 4);
    pub const END_WRITE: Actions = Actions(1 << 5);
    pub const BARRIER: Actions = Actions(1 << 6);
    pub const LOCK: Actions = Actions(1 << 7);
    pub const UNLOCK: Actions = Actions(1 << 8);

    /// The four access-section hooks.
    pub const ACCESS: Actions = Actions(
        Actions::START_READ.0 | Actions::END_READ.0 | Actions::START_WRITE.0 | Actions::END_WRITE.0,
    );

    /// The per-region hooks a fast mask ([`Protocol::fast_mask`]) speaks
    /// for: `map` and the four of [`Actions::ACCESS`]. Locks and barriers
    /// always run.
    pub const MASKABLE: Actions = Actions(Actions::MAP.0 | Actions::ACCESS.0);

    /// The empty set.
    pub fn empty() -> Self {
        Actions(0)
    }

    /// Set-union of two masks.
    pub fn union(self, other: Actions) -> Actions {
        Actions(self.0 | other.0)
    }

    /// Set-intersection of two masks.
    pub fn intersect(self, other: Actions) -> Actions {
        Actions(self.0 & other.0)
    }

    /// Whether all bits of `other` are present.
    pub fn contains(self, other: Actions) -> bool {
        self.0 & other.0 == other.0
    }
}

/// The cross-node concurrent-section combinations a protocol's coherence
/// discipline legitimately grants — the conformance checker's ground
/// truth (`ace-check`). Two read sections on different nodes are always
/// legal; the interesting questions are whether two *write* sections may
/// overlap, and whether a write section may overlap a *read* section.
/// A sequentially-consistent invalidation protocol grants neither; an
/// update protocol that pushes writes to standing copies grants both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantSet {
    /// Two nodes may hold write sections on one region concurrently.
    pub write_write: bool,
    /// A write section on one node may overlap a read section on another.
    pub read_write: bool,
}

impl GrantSet {
    /// The exclusive discipline (single-writer, no readers during a
    /// write): what the default sequentially-consistent protocol grants.
    pub fn exclusive() -> Self {
        GrantSet { write_write: false, read_write: false }
    }

    /// Fully concurrent: any combination of sections may overlap.
    pub fn concurrent() -> Self {
        GrantSet { write_write: true, read_write: true }
    }
}

/// A coherence protocol with full access control.
///
/// One protocol object is instantiated per space per node (protocols are
/// node-local; their distributed state lives in the protocol-owned fields
/// of [`RegionEntry`] and [`SpaceEntry`] plus their wire messages). Hooks
/// run on the node's own thread; the `handle` hook runs when a protocol
/// message arrives at a poll point, which is the Active Messages execution
/// model the paper targets.
///
/// Invariant required of implementations: `handle` must not block (no
/// nested waits) — multi-hop exchanges are written as state machines using
/// the entry's `st`/`pending`/`blocked` fields. The `start_*`/`lock`/
/// `barrier` hooks may block via [`AceRt::wait`].
///
/// A protocol states each fact about itself once. In particular it never
/// writes a region's cached fast mask: it *declares* the mask as a pure
/// function of the entry's state ([`Protocol::fast_mask`]) and the runtime
/// re-evaluates that function whenever it returns from a callback that may
/// have moved the state (see [`RegionEntry::fast`] for the list).
pub trait Protocol: 'static {
    /// Protocol name, as registered with the system (Figure 1).
    fn name(&self) -> &'static str;

    /// Human-readable name for a protocol-private message opcode, used to
    /// label `handle` hook spans in traces. Protocols that define a
    /// `mod op` opcode table should override this; the default labels
    /// every opcode `"op"`.
    fn op_name(&self, _op: u16) -> &'static str {
        "op"
    }

    /// Whether the compiler may move or merge this protocol's calls
    /// (the `Optimizable` flag of Figure 1). Protocols whose accesses must
    /// appear atomic — like the default sequentially-consistent protocol —
    /// return false.
    fn optimizable(&self) -> bool {
        false
    }

    /// Which hooks are null for this protocol: no-ops on every region in
    /// every state. The direct-dispatch optimization removes calls to the
    /// access and lock hooks among them (a `map` is never removed: the id
    /// still has to be translated), and every [`Actions::MASKABLE`] hook
    /// among them must be in every [`Protocol::fast_mask`].
    fn null_actions(&self) -> Actions {
        Actions::empty()
    }

    /// The per-region hooks ([`Actions::MASKABLE`]: `on_map` and the four
    /// access hooks) that, run on `e` *in its current state*,
    /// would send nothing and change nothing — the in-state fast path
    /// (CRL's in-cache hit). Must be a pure function of `e` and
    /// `rt.rank()`; the runtime caches the value in [`RegionEntry::fast`]
    /// and, on a set bit, neither resolves the protocol nor calls the hook.
    /// It must contain every maskable hook [`Protocol::null_actions`]
    /// declares (null in every state implies fast in this one;
    /// debug-asserted where the runtime caches the mask). The default is
    /// exactly those null hooks: a protocol whose other hooks do work in
    /// some state declares more.
    fn fast_mask(&self, _rt: &AceRt, _e: &RegionEntry) -> Actions {
        self.null_actions().intersect(Actions::MASKABLE)
    }

    /// Which concurrent cross-node section combinations this protocol can
    /// legitimately grant. The conformance checker flags overlapping
    /// sections outside this set as [`crate::AceError::Conformance`]
    /// violations. The default is fully exclusive — correct for any
    /// single-writer protocol; update-style protocols that deliberately
    /// let sections overlap must widen it.
    fn grants(&self) -> GrantSet {
        GrantSet::exclusive()
    }

    /// A region was mapped on this node (entry exists; data buffer
    /// allocated but possibly invalid).
    fn on_map(&self, _rt: &AceRt, _e: &RegionEntry) {}

    /// Before-read hook: must return with a readable local copy.
    fn start_read(&self, rt: &AceRt, e: &RegionEntry);

    /// After-read hook.
    fn end_read(&self, rt: &AceRt, e: &RegionEntry);

    /// Before-write hook: must return with a writable local copy.
    fn start_write(&self, rt: &AceRt, e: &RegionEntry);

    /// After-write hook.
    fn end_write(&self, rt: &AceRt, e: &RegionEntry);

    /// Barrier with this space's semantics. The default is the plain
    /// machine barrier.
    fn barrier(&self, rt: &AceRt, s: &SpaceEntry) {
        rt.space_barrier(s);
    }

    /// Region lock. The default is the runtime's home-queued FIFO lock.
    fn lock(&self, rt: &AceRt, e: &RegionEntry) {
        rt.default_lock(e);
    }

    /// Region unlock, pairing `lock`.
    fn unlock(&self, rt: &AceRt, e: &RegionEntry) {
        rt.default_unlock(e);
    }

    /// Handle one of this protocol's wire messages targeted at region `e`.
    /// `src` is the sending node. Must not block, and must not create or
    /// rebind a space: the runtime holds the space's protocol borrowed
    /// while it runs ([`SpaceEntry::protocol`]), and [`AceRt::new_space`] /
    /// [`AceRt::change_protocol`] panic if called from here.
    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, src: usize);

    /// Bring the region to the *base state* (valid master copy at home, no
    /// remote copies, empty directory) so that another protocol can adopt
    /// it. Called on every node for its local entries during
    /// `change_protocol`; must complete synchronously (waiting for acks is
    /// allowed). The paper: "changing from the default protocol to any
    /// other protocol results in all cached regions being flushed back to
    /// their home processors" (§3.1).
    fn flush(&self, rt: &AceRt, e: &RegionEntry);

    /// Adopt a region previously brought to base state by another protocol
    /// (runs after the flush barrier during `change_protocol`).
    fn adopt(&self, _rt: &AceRt, _e: &RegionEntry) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A protocol stub for unit tests of the runtime plumbing: every hook
    /// is a no-op and every access hits locally.
    pub struct NoopProtocol;

    impl Protocol for NoopProtocol {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn optimizable(&self) -> bool {
            true
        }
        fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn handle(&self, _rt: &AceRt, _e: &RegionEntry, _msg: ProtoMsg, _src: usize) {}
        fn flush(&self, _rt: &AceRt, _e: &RegionEntry) {}
    }

    #[test]
    fn actions_mask_ops() {
        let m = Actions::MAP.union(Actions::END_READ);
        assert!(m.contains(Actions::MAP));
        assert!(m.contains(Actions::END_READ));
        assert!(!m.contains(Actions::START_WRITE));
        assert!(m.contains(Actions::empty()));
    }

    #[test]
    fn intersect_keeps_common_bits_only() {
        let m = Actions::MAP.union(Actions::END_READ).intersect(Actions::ACCESS);
        assert_eq!(m, Actions::END_READ);
        assert_eq!(Actions::MAP.intersect(Actions::ACCESS), Actions::empty());
    }

    #[test]
    fn access_covers_exactly_the_section_hooks() {
        let m = Actions::ACCESS;
        assert!(m.contains(Actions::START_READ));
        assert!(m.contains(Actions::END_READ));
        assert!(m.contains(Actions::START_WRITE));
        assert!(m.contains(Actions::END_WRITE));
        assert!(!m.contains(Actions::MAP));
        assert!(!m.contains(Actions::LOCK));
        assert_eq!(Actions::MASKABLE, m.union(Actions::MAP));
        assert_eq!(
            Actions::MASKABLE.intersect(Actions::LOCK.union(Actions::BARRIER)),
            Actions::empty()
        );
    }
}
