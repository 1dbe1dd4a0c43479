//! Per-node bookkeeping for one shared region.
//!
//! Region data lives in [`Words`]. A one-word region holds its word by
//! value, as a CM-5 active message carries a word inside the packet:
//! snapshotting it for the wire ([`RegionEntry::share_data`]) is a copy,
//! installing a received payload ([`RegionEntry::install_shared`]) a store
//! and a write ([`RegionEntry::with_data_mut`]) happens in place, with no
//! allocation and no atomic refcount. A larger region lives in an
//! `Arc<[u64]>` so protocol messages carry the payload zero-copy:
//! snapshotting is a refcount bump, and installing is a pointer swap. The
//! invariant that makes this safe is that *every* local mutation goes
//! through [`RegionEntry::with_data_mut`], which copies-on-write when the
//! buffer is shared — an outstanding wire snapshot (or another node's
//! installed alias) is therefore never observably mutated. The same
//! copy-on-write lets every fresh entry of one size alias its node's one
//! all-zero buffer until it is first written.
//!
//! An entry holds inline only what every region uses on the hot path; the
//! state few regions ever touch ([`Cold`]) sits behind one lazily
//! allocated box, as do the sharer words above rank 63.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

use crate::ids::{RegionId, SpaceId};
use crate::protocol::Actions;

/// Get a mutable view of an `Arc<[u64]>` buffer, copying first if the
/// buffer is shared. (`Arc::make_mut` requires `Sized`, hence manual COW.)
fn cow_slice(slot: &mut Arc<[u64]>) -> &mut [u64] {
    if Arc::strong_count(slot) != 1 || Arc::weak_count(slot) != 0 {
        *slot = Arc::from(&slot[..]);
    }
    Arc::get_mut(slot).expect("uniquely owned after copy-on-write")
}

/// A region's words, as an entry holds them and a protocol message
/// carries them: one word by value, anything else shared zero-copy.
/// `From<Vec<u64>>` and `collect` put a one-word payload in [`Words::One`]
/// (a one-word [`Words::Many`] works, but pays the refcount this type
/// exists to avoid). Reads see the words as a `&[u64]`; the one way to
/// write an entry's words is [`RegionEntry::with_data_mut`].
#[derive(Clone, Debug)]
pub enum Words {
    /// A one-word region's word.
    One(u64),
    /// Any other length, shared by every snapshot, message and fresh entry
    /// that aliases it until a write copies it.
    Many(Arc<[u64]>),
}

impl Words {
    /// Whether `a` and `b` share one buffer: never for one-word payloads,
    /// which share nothing.
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Words, b: &Words) -> bool {
        matches!((a, b), (Words::Many(a), Words::Many(b)) if Arc::ptr_eq(a, b))
    }

    /// A mutable view of the words: in place for one word, copy-on-write
    /// for a shared buffer.
    fn make_mut(&mut self) -> &mut [u64] {
        match self {
            Words::One(w) => std::slice::from_mut(w),
            Words::Many(a) => cow_slice(a),
        }
    }
}

impl Deref for Words {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Words::One(w) => std::slice::from_ref(w),
            Words::Many(a) => a,
        }
    }
}

impl From<Vec<u64>> for Words {
    fn from(v: Vec<u64>) -> Self {
        match *v {
            [w] => Words::One(w),
            _ => Words::Many(v.into()),
        }
    }
}

impl FromIterator<u64> for Words {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut it = iter.into_iter().fuse();
        match (it.next(), it.next()) {
            (Some(w), None) => Words::One(w),
            (a, b) => Words::Many(a.into_iter().chain(b).chain(it).collect()),
        }
    }
}

/// A home-side sharer set scaling past 64 ranks without giving up the
/// one-word fast path real directories use.
///
/// Ranks 0..63 live in a single `Cell<u64>` bitmask (the overwhelmingly
/// common case, and the representation every protocol used when the
/// machine was capped at 64 nodes); ranks 64 and up spill lazily into a
/// boxed word vector that is only allocated the first time a wide rank
/// shows up, so a set costs two words until then.
/// All operations stay `&self` (`Cell`/`RefCell` inside) to match the
/// node-local single-threaded discipline of [`RegionEntry`].
#[derive(Default)]
pub struct Sharers {
    /// Ranks 0..=63, one bit each.
    small: Cell<u64>,
    /// Ranks 64.., bit `r - 64` in word `(r - 64) / 64`. Unallocated
    /// until a wide rank is added.
    spill: OnceCell<Box<RefCell<Vec<u64>>>>,
}

impl Sharers {
    /// An empty sharer set.
    pub fn new() -> Self {
        Sharers::default()
    }

    /// Add `rank` to the set.
    pub fn add(&self, rank: usize) {
        if rank < 64 {
            self.small.set(self.small.get() | (1 << rank));
        } else {
            let (w, b) = ((rank - 64) / 64, (rank - 64) % 64);
            let mut spill = self.spill.get_or_init(Box::default).borrow_mut();
            if spill.len() <= w {
                spill.resize(w + 1, 0);
            }
            spill[w] |= 1 << b;
        }
    }

    /// Remove `rank` from the set.
    pub fn remove(&self, rank: usize) {
        if rank < 64 {
            self.small.set(self.small.get() & !(1 << rank));
        } else if let Some(spill) = self.spill.get() {
            let (w, b) = ((rank - 64) / 64, (rank - 64) % 64);
            if let Some(word) = spill.borrow_mut().get_mut(w) {
                *word &= !(1 << b);
            }
        }
    }

    /// Whether `rank` is in the set.
    pub fn contains(&self, rank: usize) -> bool {
        if rank < 64 {
            self.small.get() & (1 << rank) != 0
        } else {
            let (w, b) = ((rank - 64) / 64, (rank - 64) % 64);
            self.wide(|spill| spill.get(w).is_some_and(|word| word & (1 << b) != 0))
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.small.get() == 0 && self.wide(|spill| spill.iter().all(|&w| w == 0))
    }

    /// Drop every member.
    pub fn clear(&self) {
        self.small.set(0);
        if let Some(spill) = self.spill.get() {
            spill.borrow_mut().clear();
        }
    }

    /// Apply `f` to the spill words (empty while unallocated).
    fn wide<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        match self.spill.get() {
            Some(spill) => f(&spill.borrow()),
            None => f(&[]),
        }
    }

    /// A content fingerprint for snapshots/tests: equals the raw bitmask
    /// for ≤64-rank sets, and folds the spill words in (position-salted)
    /// above that.
    pub fn fingerprint(&self) -> u64 {
        self.wide(|spill| {
            let mut f = self.small.get();
            for (i, &w) in spill.iter().enumerate() {
                f ^= w.rotate_left((i as u32 + 1) * 7);
            }
            f
        })
    }

    /// Iterate member ranks in ascending order. The iterator walks a
    /// snapshot taken at the call, so callers may mutate the set (drop
    /// sharers, send messages) while iterating.
    pub fn iter(&self) -> SharerRanks {
        SharerRanks {
            cur: self.small.get(),
            base: 0,
            words: self.wide(|spill| {
                if spill.iter().all(|&w| w == 0) {
                    Vec::new()
                } else {
                    spill.to_vec()
                }
            }),
            next_word: 0,
        }
    }
}

/// Snapshot iterator over [`Sharers`] members, ascending.
pub struct SharerRanks {
    cur: u64,
    base: usize,
    words: Vec<u64>,
    next_word: usize,
}

impl Iterator for SharerRanks {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.base + bit);
            }
            if self.next_word >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.next_word];
            self.base = 64 * (self.next_word + 1);
            self.next_word += 1;
        }
    }
}

/// A region's cached fast mask: readable by anyone, written only by the
/// runtime (the setter is crate-private), so a protocol cannot leave it
/// stale — see [`RegionEntry::fast`].
#[derive(Default)]
pub struct FastMask(Cell<Actions>);

impl FastMask {
    /// The cached mask.
    #[inline]
    pub fn get(&self) -> Actions {
        self.0.get()
    }

    pub(crate) fn set(&self, mask: Actions) {
        self.0.set(mask);
    }
}

/// The per-region state few entries ever use: requests parked behind a
/// transient state, the diff snapshot of a pipelined writer, and the
/// default region lock. A [`RegionEntry`] allocates it on the first push,
/// twin or lock, so a region that is only read, written and shared pays
/// one pointer for all of it.
#[derive(Default)]
pub struct Cold {
    /// Requests that arrived while the region was in a transient state,
    /// replayed when the region quiesces: `(from, op, arg)`.
    pub blocked: RefCell<VecDeque<(u16, u16, u64)>>,
    /// Twin buffer for diffing protocols (pipelined delta writes). Taken
    /// as a snapshot of `data` (a copy of one word, a refcount bump for
    /// more); copy-on-write keeps it frozen.
    pub twin: RefCell<Option<Words>>,
    /// Default lock, home side: held by someone.
    pub lock_held: Cell<bool>,
    /// Default lock, home side: FIFO of waiting ranks.
    pub lock_queue: RefCell<VecDeque<u16>>,
    /// Default lock, requester side: our pending request has been granted.
    pub lock_granted: Cell<bool>,
}

/// Node-local state for one region: the cached data, access bookkeeping,
/// and a bag of protocol-owned fields.
///
/// Rather than a `Box<dyn Any>` per region, protocols share a fixed set of
/// fields that cover what real directory protocols keep per line: a state
/// code, a sharer bitmask, an owner, an outstanding-ack count and a
/// scalar inline, and the rarely used rest in [`Cold`]. Each protocol
/// documents its own interpretation. This keeps the per-region footprint
/// flat (104 bytes) and the hot path allocation-free.
pub struct RegionEntry {
    /// The region's global id (home rank is `id.home()`).
    pub id: RegionId,
    /// The space this region was allocated from. Fixed for the region's
    /// lifetime; the space's *protocol* may change.
    pub space: SpaceId,
    /// Size of the region in 8-byte words.
    pub words: usize,
    /// The local copy of the region's data. At the home node this is the
    /// master copy; elsewhere it is a cache whose validity the protocol
    /// tracks in `st`. One word held by value; more shared zero-copy with
    /// in-flight messages, and in a fresh entry with every other fresh
    /// entry of its size; mutate only through [`RegionEntry::with_data_mut`].
    pub data: RefCell<Words>,
    /// Map count (maps nest, per CRL semantics).
    pub mapped: Cell<u32>,
    /// Number of open read sections.
    pub read_active: Cell<u32>,
    /// Number of open write sections.
    pub write_active: Cell<u32>,

    /// Fast mask: the per-region hooks ([`crate::Actions::MASKABLE`] —
    /// `on_map` and the four access hooks) that are state-preserving
    /// no-ops in the region's *current* state (the analogue of CRL's
    /// in-cache fast path). The runtime checks it before resolving the
    /// region's protocol; a set bit promises the hook would neither send
    /// messages nor mutate any entry or space state, so the runtime skips
    /// it entirely. Empty = always slow.
    ///
    /// This is a cache of [`crate::Protocol::fast_mask`], owned by the
    /// runtime: it evaluates the protocol's declaration when `gmalloc`
    /// creates the entry, re-evaluates it when it returns from an `on_map`
    /// or annotation hook that ran, `handle`, and `adopt`, and empties it
    /// after `flush` (a flushed
    /// region belongs to no protocol until the next one adopts it). Those
    /// are the callbacks *on this entry*; code that changes an entry from
    /// anywhere else calls [`crate::AceRt::rederive_fast`].
    pub fast: FastMask,

    // ---- protocol-owned fields ----
    /// Protocol-defined state code.
    pub st: Cell<u32>,
    /// Home-side sharer set (rank *i* present = node *i* holds a copy).
    /// One-word bitmask up to 64 ranks, lazy spill vector beyond.
    pub sharers: Sharers,
    /// Home-side exclusive owner rank, or -1.
    pub owner: Cell<i32>,
    /// Outstanding acknowledgements (invalidations, flushes, deltas...).
    pub pending: Cell<u32>,
    /// Protocol-defined scalar (epoch numbers, fetched tickets, ...).
    pub aux: Cell<u64>,
    /// The rarely used state, allocated on first use: read it through
    /// [`RegionEntry::cold`], write it through [`RegionEntry::cold_init`].
    cold: OnceCell<Box<Cold>>,
}

impl RegionEntry {
    /// Create the entry over `data`, whose length is the region's size. A
    /// fresh entry (home allocation or cache) gets a zero word, or its
    /// node's shared all-zero buffer of that size, which its first write
    /// makes private.
    pub fn new(id: RegionId, space: SpaceId, data: Words) -> Self {
        RegionEntry {
            id,
            space,
            words: data.len(),
            data: RefCell::new(data),
            mapped: Cell::new(0),
            read_active: Cell::new(0),
            write_active: Cell::new(0),
            fast: FastMask::default(),
            st: Cell::new(0),
            sharers: Sharers::new(),
            owner: Cell::new(-1),
            pending: Cell::new(0),
            aux: Cell::new(0),
            cold: OnceCell::new(),
        }
    }

    /// The entry's rarely used state, if anything has used it yet. For
    /// read-only probes: allocates nothing, and `None` reads as a default
    /// [`Cold`] (no parked request, no twin, the lock free).
    pub fn cold(&self) -> Option<&Cold> {
        self.cold.get().map(|c| &**c)
    }

    /// The entry's rarely used state, allocated on first use: for a push,
    /// a twin or a lock.
    pub fn cold_init(&self) -> &Cold {
        self.cold.get_or_init(Box::default)
    }

    /// Whether a request is parked in [`Cold::blocked`].
    pub fn has_blocked(&self) -> bool {
        self.cold().is_some_and(|c| !c.blocked.borrow().is_empty())
    }

    /// Whether [`Cold::twin`] holds a snapshot.
    pub fn has_twin(&self) -> bool {
        self.cold().is_some_and(|c| c.twin.borrow().is_some())
    }

    /// Whether this node is the region's home.
    pub fn is_home_of(&self, rank: usize) -> bool {
        self.id.home() == rank
    }

    /// Whether any access section (read or write) is currently open.
    pub fn busy(&self) -> bool {
        self.read_active.get() > 0 || self.write_active.get() > 0
    }

    /// Snapshot the current data for the wire: a copy of one word, a
    /// refcount bump for more, never a copy of a buffer. The snapshot stays
    /// frozen because all local mutation goes through
    /// [`RegionEntry::with_data_mut`] (copy-on-write).
    pub fn share_data(&self) -> Words {
        self.data.borrow().clone()
    }

    /// Mutate the region data in place, copying first if the buffer is
    /// aliased by an in-flight message, a twin, or another entry (a
    /// one-word region never is).
    pub fn with_data_mut<R>(&self, f: impl FnOnce(&mut [u64]) -> R) -> R {
        f(self.data.borrow_mut().make_mut())
    }

    /// Adopt a full-region payload: a store of one word, or a pointer swap
    /// aliasing the sender's buffer, which copy-on-write protects on both
    /// sides afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the payload size does not match the region size.
    pub fn install_shared(&self, incoming: Words) {
        let mut slot = self.data.borrow_mut();
        assert_eq!(incoming.len(), slot.len(), "payload size mismatch for {}", self.id);
        *slot = incoming;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(words: usize) -> RegionEntry {
        RegionEntry::new(RegionId::new(2, 5), SpaceId(1), Words::from(vec![0; words]))
    }

    #[test]
    fn an_entry_stays_small() {
        // Every node holds an entry per region it has mapped. The rarely
        // used state and the wide sharer words ride boxed, so an entry
        // that never uses them pays a pointer for each.
        assert!(
            std::mem::size_of::<RegionEntry>() <= 104,
            "RegionEntry grew to {} bytes",
            std::mem::size_of::<RegionEntry>()
        );
        assert_eq!(std::mem::size_of::<Sharers>(), 16);
    }

    #[test]
    fn fresh_entries_share_one_zero_buffer_until_written() {
        let zeros = Words::from(vec![0; 3]);
        let a = RegionEntry::new(RegionId::new(0, 1), SpaceId(0), zeros.clone());
        let b = RegionEntry::new(RegionId::new(0, 2), SpaceId(0), zeros.clone());
        assert_eq!(a.words, 3);
        assert!(
            Words::ptr_eq(&a.data.borrow(), &b.data.borrow()),
            "fresh entries alias one buffer"
        );
        a.with_data_mut(|d| d[1] = 4);
        assert!(!Words::ptr_eq(&a.data.borrow(), &zeros), "the first write makes a private copy");
        assert_eq!(&**a.data.borrow(), &[0, 4, 0]);
        assert!(Words::ptr_eq(&b.data.borrow(), &zeros));
        assert_eq!(&**b.data.borrow(), &[0; 3], "the other entry still reads zeros");
        assert_eq!(&*zeros, &[0; 3]);
        let payload = Words::from(vec![7, 8, 9]);
        b.install_shared(payload.clone());
        assert!(Words::ptr_eq(&payload, &b.data.borrow()), "install is still a pointer swap");
    }

    #[test]
    fn only_a_push_a_twin_or_a_lock_allocates_the_cold_box() {
        let e = entry(2);
        assert!(e.cold().is_none(), "a fresh entry holds no cold box");
        assert!(!e.has_blocked() && !e.has_twin());
        e.sharers.add(3);
        e.sharers.add(100);
        e.with_data_mut(|d| d[0] = 1);
        assert!(e.cold().is_none(), "read-only probes and hot fields allocate nothing");
        e.cold_init().blocked.borrow_mut().push_back((1, 2, 3));
        assert!(e.has_blocked() && !e.has_twin());
        *e.cold_init().twin.borrow_mut() = Some(e.share_data());
        assert!(e.has_twin());
        let locked = entry(1);
        locked.cold_init().lock_held.set(true);
        assert!(locked.cold().is_some_and(|c| c.lock_held.get()));
    }

    #[test]
    fn sharers_match_a_set_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops: Vec<(u8, usize)> =
                (0..200).map(|_| (rng.gen_range(0..10u8), rng.gen_range(0..300usize))).collect();
            eprintln!("seed {seed}: {ops:?}");
            let (s, mut model) = (Sharers::new(), BTreeSet::new());
            for &(op, rank) in &ops {
                match op {
                    0 => {
                        s.clear();
                        model.clear();
                    }
                    1..=5 => {
                        s.add(rank);
                        model.insert(rank);
                    }
                    _ => {
                        s.remove(rank);
                        model.remove(&rank);
                    }
                }
                assert_eq!(s.contains(rank), model.contains(&rank), "seed {seed}: rank {rank}");
                assert_eq!(s.is_empty(), model.is_empty(), "seed {seed}");
                assert!(s.iter().eq(model.iter().copied()), "seed {seed}: iteration order");
            }
            assert!((0..300).all(|r| s.contains(r) == model.contains(&r)), "seed {seed}");
            // An equal set built fresh in another order has the same
            // fingerprint, whatever spill words the first one grew.
            let fresh = Sharers::new();
            for &r in model.iter().rev() {
                fresh.add(r);
            }
            assert_eq!(s.fingerprint(), fresh.fingerprint(), "seed {seed}");
        }
    }

    #[test]
    fn fresh_entry_is_zeroed_and_quiescent() {
        let e = entry(4);
        assert_eq!(&**e.data.borrow(), &[0u64; 4]);
        assert!(!e.busy());
        assert_eq!(e.owner.get(), -1);
        assert!(e.is_home_of(2));
        assert!(!e.is_home_of(0));
    }

    #[test]
    fn sharer_bitmask_ops() {
        let s = &entry(1).sharers;
        s.add(0);
        s.add(5);
        s.add(63);
        assert!(s.contains(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63]);
        s.remove(5);
        assert!(!s.contains(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63]);
    }

    #[test]
    fn sharers_spill_past_64_ranks() {
        let s = Sharers::new();
        s.add(3);
        s.add(64);
        s.add(200);
        s.add(4095);
        assert!(s.contains(3) && s.contains(64) && s.contains(200) && s.contains(4095));
        assert!(!s.contains(65) && !s.contains(4094));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 200, 4095]);
        s.remove(200);
        assert!(!s.contains(200));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 4095]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn sharers_fingerprint_matches_raw_mask_when_small() {
        let s = Sharers::new();
        s.add(1);
        s.add(63);
        assert_eq!(s.fingerprint(), (1u64 << 1) | (1u64 << 63));
        // A spilled rank changes the fingerprint even with the low word
        // unchanged.
        let before = s.fingerprint();
        s.add(100);
        assert_ne!(s.fingerprint(), before);
    }

    #[test]
    fn sharers_iter_snapshot_tolerates_mutation() {
        let s = Sharers::new();
        for r in [0usize, 2, 70, 130] {
            s.add(r);
        }
        let mut seen = Vec::new();
        for r in s.iter() {
            // Dropping members mid-iteration (what an invalidation sweep
            // does) must not disturb the snapshot walk.
            s.remove(r);
            seen.push(r);
        }
        assert_eq!(seen, vec![0, 2, 70, 130]);
        assert!(s.is_empty());
    }

    #[test]
    fn cow_write_never_mutates_outstanding_snapshot() {
        let e = entry(3);
        e.install_shared(Words::from(vec![1, 2, 3]));
        let snap = e.share_data();
        e.with_data_mut(|d| d[0] = 99);
        assert_eq!(&*snap, &[1, 2, 3], "wire snapshot must stay frozen");
        assert_eq!(&*e.share_data(), &[99, 2, 3]);
    }

    #[test]
    fn install_shared_aliases_until_first_write() {
        let e = entry(2);
        let payload = Words::from(vec![5, 6]);
        e.install_shared(payload.clone());
        assert!(Words::ptr_eq(&payload, &e.data.borrow()), "install is a pointer swap");
        e.with_data_mut(|d| d[1] = 7);
        assert_eq!(&*payload, &[5, 6], "sender's buffer untouched by receiver write");
        assert_eq!(&*e.share_data(), &[5, 7]);
    }

    #[test]
    fn unshared_mutation_stays_in_place() {
        let e = entry(2);
        e.install_shared(Words::from(vec![3, 4]));
        let p0 = e.data.borrow().as_ptr();
        e.with_data_mut(|d| d[0] = 8);
        assert_eq!(p0, e.data.borrow().as_ptr(), "no copy when uniquely owned");
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn mismatched_install_shared_panics() {
        entry(3).install_shared(Words::from(vec![1, 2]));
    }

    #[test]
    fn a_one_word_region_holds_its_word_by_value() {
        let e = entry(1);
        assert!(matches!(*e.data.borrow(), Words::One(0)), "a fresh one-word entry");
        e.install_shared(Words::from(vec![3]));
        assert!(matches!(*e.data.borrow(), Words::One(3)), "an installed word");
        e.with_data_mut(|d| d[0] = 4);
        assert!(matches!(*e.data.borrow(), Words::One(4)), "a write in place");
        assert!(matches!(std::iter::once(5).collect(), Words::One(5)));
        assert!(matches!((0..2).collect(), Words::Many(_)));
        assert!(matches!(Words::from(vec![]), Words::Many(_)));
        assert!(!Words::ptr_eq(&e.share_data(), &e.share_data()), "one word shares no buffer");
    }

    #[test]
    fn a_one_word_snapshot_is_unchanged_by_a_later_write() {
        let e = entry(1);
        e.install_shared(Words::One(1));
        let snap = e.share_data();
        e.with_data_mut(|d| d[0] = 99);
        assert_eq!(&*snap, &[1], "wire snapshot must stay frozen");
        assert_eq!(&*e.share_data(), &[99]);
    }

    #[test]
    fn a_one_word_twin_stays_frozen() {
        let e = entry(1);
        e.install_shared(Words::One(6));
        *e.cold_init().twin.borrow_mut() = Some(e.share_data());
        e.with_data_mut(|d| d[0] = 7);
        let twin = e.cold().and_then(|c| c.twin.borrow().clone()).expect("twin taken");
        assert_eq!((&*twin, &**e.data.borrow()), (&[6][..], &[7][..]));
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn one_word_into_a_larger_region_panics() {
        entry(3).install_shared(Words::One(1));
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn a_larger_payload_into_a_one_word_region_panics() {
        entry(1).install_shared(Words::from(vec![1, 2]));
    }

    #[test]
    fn busy_tracks_open_sections() {
        let e = entry(1);
        e.read_active.set(1);
        assert!(e.busy());
        e.read_active.set(0);
        e.write_active.set(2);
        assert!(e.busy());
        e.write_active.set(0);
        assert!(!e.busy());
    }
}
