//! The Ace protocol library (§2, §5.2 of the paper).
//!
//! Every protocol here implements the full-access-control interface of
//! [`ace_core::Protocol`]: hooks before/after reads and writes, at
//! map, and at synchronization points, plus an active-message
//! handler. Each protocol's distributed state lives in the protocol-owned
//! fields of [`ace_core::RegionEntry`] (state code, sharer bitmask, owner,
//! pending count, aux word, blocked queue, twin buffer) and in
//! [`ace_core::SpaceEntry`] (dirty list, outstanding count).
//!
//! | protocol | paper use | semantics |
//! |---|---|---|
//! | [`SeqInvalidate`] | the default | sequentially-consistent, home-based invalidation (CRL-class MSI) |
//! | Migratory: the [`SeqInvalidate`] that [`make`] builds for [`ProtoSpec::Migratory`] | migratory data | SC whose reads take the exclusive copy too: the single copy migrates to each accessor |
//! | [`DynamicUpdate`] | Barnes-Hut bodies, EM3D experiment | writes propagated to all sharers immediately after each write |
//! | Static update: the [`DynamicUpdate`] that [`make`] builds for [`ProtoSpec::StaticUpdate`] | EM3D | dynamic update that pushes at the barrier instead of after each write (Falsafi et al.'s EM3D protocol) |
//! | [`NullProtocol`] | Water intra-molecular phase | no coherence actions at all |
//! | Fetch-and-add: the [`NullProtocol`] that [`make`] builds for [`ProtoSpec::FetchAdd`] | TSP job counter | the null protocol whose `lock` is a one-round-trip fetch-and-add at home and whose `unlock` is free |
//! | [`PipelinedWrite`] | Water inter-molecular phase | local writes diffed against a twin; f64 deltas pipelined home and accumulated; completion checked at barriers |
//! | Home-owned: the [`PipelinedWrite`] that [`make`] builds for [`ProtoSpec::HomeOwned`] | BSC | pipelined write that writes only at home (asserted): home writes the master directly, readers pull bulk copies, validity bounded by barriers |
//! | [`AdaptiveEngine`] | runtime-chosen | meta-protocol: samples sharing signals, switches a space among the above at barriers |
//!
//! A protocol here is its state machine and little else. What several
//! home-based protocols need — fetch a copy and wait, leave home and wait
//! for the ack, drop cached copies at a barrier — is written once in the
//! private `common` module, parameterised by opcode and wait label; and no
//! protocol maintains a region's cached fast mask: each declares
//! [`ace_core::Protocol::fast_mask`] — which of `on_map` and the four
//! access hooks are no-ops in the entry's state, starting from the ones its
//! `null_actions` lists as no-ops in every state (the trait's default, and
//! all the null protocol needs) — and the runtime does the caching. Only
//! the update protocols do anything at a mapping (the first `map` of a
//! remote region joins its sharer list); under the rest a `map` never
//! reaches the protocol, and an `unmap` reaches none.
//!
//! The [`registry`] module is the analogue of the paper's protocol
//! registration script (Figure 1): a table of protocol names, their
//! optimizability, and their null handlers, consumed by the Ace-C compiler.

pub mod adaptive;
mod common;
pub mod dyn_update;
pub mod null;
pub mod pipelined;
pub mod registry;
pub mod seq_inv;

pub use adaptive::{AdaptiveEngine, AdaptiveSpec};
pub use dyn_update::DynamicUpdate;
pub use null::NullProtocol;
pub use pipelined::PipelinedWrite;
pub use registry::{make, ProtoSpec};
pub use seq_inv::SeqInvalidate;

/// Region state codes shared by the invalidation-style protocols. The
/// runtime establishes `HOME` at `gmalloc` and `R_INVALID` on first map of
/// a remote region; protocols take it from there.
pub mod states {
    /// This node is the region's home (master copy lives here).
    pub const HOME: u32 = ace_core::rt::HOME_OWNED_STATE;
    /// Remote cache: no valid copy.
    pub const R_INVALID: u32 = ace_core::REMOTE_INVALID;
    /// Remote cache: valid read copy.
    pub const R_SHARED: u32 = 2;
    /// Remote cache: exclusive, writable copy.
    pub const R_EXCL: u32 = 3;
    /// Remote cache: read request in flight.
    pub const R_WAIT_READ: u32 = 4;
    /// Remote cache: write/exclusive request in flight.
    pub const R_WAIT_WRITE: u32 = 5;
}

/// Aux-word bit assignments shared by the protocols (home and remote roles
/// never coexist for one entry, so the bits could overlap safely; they are
/// kept distinct anyway for debuggability).
pub mod auxbits {
    use ace_core::RegionEntry;

    /// Home side: a directory round (recall or invalidation) is in flight.
    pub const BUSY: u64 = 1 << 0;
    /// Remote side: an invalidation arrived while an access section was
    /// open; it is honoured at the matching `end_*`.
    pub const INV_PENDING: u64 = 1 << 1;
    /// Remote side: a recall arrived while a section was open.
    pub const RECALL_PENDING: u64 = 1 << 2;
    /// Remote side: a request is in flight / a granted copy has not yet
    /// been used. Grants followed immediately by an invalidate or recall
    /// would otherwise be yanked before the waiting access ever sees them
    /// (both messages can be handled in one poll batch); while WANTED is
    /// set, yanks defer exactly like during an open section.
    pub const WANTED: u64 = 1 << 3;
    /// Remote side of an update protocol: this node is on home's sharer
    /// list (joined) and must take itself off it in `flush`.
    pub const LISTED: u64 = 1 << 4;
    /// Remote side: `flush` told home this node is leaving and is waiting
    /// for the acknowledgement.
    pub const FLUSH_WAIT: u64 = 1 << 8;
    /// Shift for the home-side pending grantee (stored as rank + 1).
    pub const GRANTEE_SHIFT: u32 = 16;

    /// Set `bits` in `e`'s aux word.
    pub(crate) fn set(e: &RegionEntry, bits: u64) {
        e.aux.set(e.aux.get() | bits);
    }

    /// Clear `bits` in `e`'s aux word.
    pub(crate) fn clear(e: &RegionEntry, bits: u64) {
        e.aux.set(e.aux.get() & !bits);
    }

    /// Whether any of `bits` is set in `e`'s aux word.
    pub(crate) fn has(e: &RegionEntry, bits: u64) -> bool {
        e.aux.get() & bits != 0
    }

    /// Read the pending grantee, if any.
    pub fn grantee(aux: u64) -> Option<usize> {
        let g = (aux >> GRANTEE_SHIFT) & 0xFFFF;
        (g != 0).then(|| g as usize - 1)
    }

    /// Store a pending grantee.
    pub fn with_grantee(aux: u64, rank: usize) -> u64 {
        (aux & !(0xFFFFu64 << GRANTEE_SHIFT)) | (((rank as u64) + 1) << GRANTEE_SHIFT)
    }

    /// Clear the pending grantee.
    pub fn clear_grantee(aux: u64) -> u64 {
        aux & !(0xFFFFu64 << GRANTEE_SHIFT)
    }
}

/// The fixture every protocol's unit tests start from: a space bound to
/// `p` and one `words`-word region of it, homed at node 0 and mapped on
/// every node. Collective.
#[cfg(test)]
pub(crate) fn shared_region(
    rt: &ace_core::AceRt,
    p: std::rc::Rc<dyn ace_core::Protocol>,
    words: usize,
) -> (ace_core::SpaceId, ace_core::RegionId) {
    let s = rt.new_space(p);
    let mine = if rt.rank() == 0 { vec![rt.gmalloc_words(s, words).0] } else { vec![] };
    let rid = ace_core::RegionId(rt.bcast(0, &mine)[0]);
    rt.map(rid);
    (s, rid)
}

#[cfg(test)]
mod tests {
    use super::auxbits::*;
    use crate::{make, shared_region, ProtoSpec};
    use ace_core::{run_ace, Actions, CostModel};

    /// Under the update protocols the one `on_map` with work to do is on a
    /// remote entry a handover left unmapped: that map sends exactly the one
    /// message that joins, and the maps and unmaps after it send nothing.
    #[test]
    fn a_map_after_a_handover_joins_once() {
        for spec in [ProtoSpec::DynUpdate, ProtoSpec::StaticUpdate] {
            run_ace(2, CostModel::free(), |rt| {
                let (s, rid) = shared_region(rt, make(spec), 1);
                rt.unmap(rid);
                rt.change_protocol(s, make(spec));
                let sent = || rt.node().stats().logical_msgs;
                let before = sent();
                rt.map(rid);
                assert_eq!(sent() - before, u64::from(rt.rank() == 1), "{}: joined", spec.name());
                let before = (sent(), rt.counters().fast_maps);
                rt.map(rid);
                rt.unmap(rid);
                assert_eq!((sent(), rt.counters().fast_maps), (before.0, before.1 + 1));
            });
        }
    }

    /// The barrier-time invalidation changes entries from outside any
    /// callback on them; the cache must follow (it is the one caller of
    /// `AceRt::rederive_fast`).
    #[test]
    fn barrier_invalidation_recaches_the_mask() {
        for spec in [ProtoSpec::HomeOwned, ProtoSpec::Pipelined] {
            run_ace(2, CostModel::free(), |rt| {
                let p = make(spec);
                let (s, rid) = shared_region(rt, p.clone(), 1);
                rt.start_read(rid);
                rt.end_read(rid);
                let e = rt.entry(rid);
                assert!(e.fast.get().contains(Actions::START_READ), "copy resident");
                rt.barrier(s);
                assert_eq!(e.fast.get(), p.fast_mask(rt, &e), "{}: stale after barrier", p.name());
                assert_eq!(e.fast.get().contains(Actions::START_READ), rt.rank() == 0);
            });
        }
    }

    /// A protocol switch re-caches every region's mask from the adopting
    /// protocol, on both sides of the handover: into every static protocol,
    /// and between two instances of one type that differ only in a flag
    /// (Pipelined → HomeOwned → Pipelined).
    #[test]
    fn handover_recaches_the_mask() {
        run_ace(2, CostModel::free(), |rt| {
            let (s, rid) = shared_region(rt, make(ProtoSpec::Sc), 1);
            rt.start_read(rid);
            rt.end_read(rid);
            for spec in [
                ProtoSpec::Null,
                ProtoSpec::DynUpdate,
                ProtoSpec::StaticUpdate,
                ProtoSpec::Migratory,
                ProtoSpec::Pipelined,
                ProtoSpec::HomeOwned,
                ProtoSpec::Pipelined,
                ProtoSpec::FetchAdd,
                ProtoSpec::Sc,
            ] {
                let p = make(spec);
                rt.change_protocol(s, p.clone());
                let e = rt.entry(rid);
                assert_eq!(e.fast.get(), p.fast_mask(rt, &e), "{}: stale after adopt", p.name());
            }
        });
    }

    #[test]
    fn grantee_round_trip() {
        let aux = with_grantee(BUSY, 13);
        assert_eq!(grantee(aux), Some(13));
        assert_eq!(aux & BUSY, BUSY);
        assert_eq!(grantee(clear_grantee(aux)), None);
        assert_eq!(clear_grantee(aux) & BUSY, BUSY);
    }

    #[test]
    fn grantee_zero_rank_distinct_from_none() {
        assert_eq!(grantee(with_grantee(0, 0)), Some(0));
        assert_eq!(grantee(0), None);
    }
}
