//! The per-node Ace runtime: dispatch, mapping, synchronization.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use ace_machine::pod::{self, Pod};
use ace_machine::{Envelope, EventKind, Hook, Node};

use crate::check::Checker;
use crate::counters::OpCounters;
use crate::error::{AceError, ConformanceKind};
use crate::ids::{RegionId, SpaceId};
use crate::msg::{AceMsg, ProtoMsg, SectionBatch};
use crate::protocol::{Actions, Protocol};
use crate::region::RegionEntry;
use crate::space::SpaceEntry;

/// Barrier tag reserved for the machine-wide barrier (space barriers use
/// the space id).
const GLOBAL_BAR_TAG: u32 = u32::MAX;

/// Fan-in/fan-out of the barrier's combining tree (rooted at rank 0,
/// `parent = (r - 1) / BAR_ARITY`). 4, 8 and 16 measure the same at 256
/// ranks; 8 is the one that makes every machine of up to nine ranks a
/// single-level tree — the message pattern of the centralised barrier it
/// replaced, so the paper-scale tables did not move.
const BAR_ARITY: usize = 8;

/// `rank`'s parent in the barrier tree; `None` at the root.
fn bar_parent(rank: usize) -> Option<usize> {
    rank.checked_sub(1).map(|r| r / BAR_ARITY)
}

/// `rank`'s children in the barrier tree of an `nprocs`-node machine.
fn bar_children(rank: usize, nprocs: usize) -> std::ops::Range<usize> {
    let first = rank * BAR_ARITY + 1;
    first.min(nprocs)..(first + BAR_ARITY).min(nprocs)
}

/// One barrier tag's state on this node of the combining tree.
///
/// The sharing-profile fields are the adaptive protocol engine's
/// piggyback: a staged contribution rides the next `BarArrive` for its
/// tag, every tree node sums its subtree's element-wise before passing one
/// partial sum up, and the root's total rides every `BarRelease` — so
/// every node decides on identical machine-wide data with zero extra
/// messages. The conformance checker's section records ride the same
/// arrivals up to the root, which scans them (`batch`).
#[derive(Default)]
struct BarTag {
    /// Barriers this node has entered on the tag.
    local_epoch: u64,
    /// Highest epoch released to this node.
    released: u64,
    /// The passage collecting arrivals, if `arrivals > 0`. One is enough:
    /// an arrival for epoch `k + 1` comes from a node released from `k`,
    /// every release to this subtree passes through this node, and the
    /// root releases `k` only after this node's subtree arrived for it.
    open_epoch: u64,
    /// Arrivals seen for `open_epoch`: this node's own plus one per child
    /// subtree.
    arrivals: usize,
    /// Element-wise sum of the profiles those arrivals carried.
    prof_acc: Option<Vec<u64>>,
    /// Profile staged for this node's next arrival.
    prof_out: Option<Vec<u64>>,
    /// Machine-wide sum the most recent release carried, until taken.
    prof_in: Option<Arc<[u64]>>,
    /// The checker's records those arrivals carried, chunks appended.
    batch: Option<Box<SectionBatch>>,
}

/// One collective's words received so far, tagged by source rank.
type CollBuf = Vec<(usize, Arc<[u64]>)>;

/// Every region entry this node holds, indexed by the two fields of its
/// id: home, then `seq`. A home hands out `seq` from a counter, so its row
/// is dense up to the highest `seq` seen of it. Rows sit in pages of
/// [`PAGE_HOMES`] consecutive homes and the outer level holds one word per
/// page, so a node that hears from two homes of a 4096-rank machine pays
/// for two pages and 128 words, not for 4096 rows. Iteration is id order.
#[derive(Default)]
struct RegionTable {
    pages: Vec<Option<Box<[Row; PAGE_HOMES]>>>,
}

/// One home's entries by `seq`.
type Row = Vec<Option<Rc<RegionEntry>>>;

/// Homes per page of the [`RegionTable`]: every machine of up to 32 ranks
/// is one page.
const PAGE_HOMES: usize = 32;

impl RegionTable {
    fn get(&self, r: RegionId) -> Option<&Rc<RegionEntry>> {
        let page = self.pages.get(r.home() / PAGE_HOMES)?.as_ref()?;
        page[r.home() % PAGE_HOMES].get(r.seq() as usize)?.as_ref()
    }

    /// Store `e` under its id, growing the outer level to its home's page
    /// and the home's row to its `seq`.
    fn insert(&mut self, e: Rc<RegionEntry>) {
        let (home, seq) = (e.id.home(), e.id.seq() as usize);
        if self.pages.len() <= home / PAGE_HOMES {
            // Exactly: the outer level is the part that scales with the machine.
            self.pages.reserve_exact(home / PAGE_HOMES + 1 - self.pages.len());
            self.pages.resize_with(home / PAGE_HOMES + 1, || None);
        }
        let row =
            &mut self.pages[home / PAGE_HOMES].get_or_insert_with(Box::default)[home % PAGE_HOMES];
        if row.len() <= seq {
            row.resize(seq + 1, None);
        }
        row[seq] = Some(e);
    }

    fn remove(&mut self, r: RegionId) {
        if let Some(Some(page)) = self.pages.get_mut(r.home() / PAGE_HOMES) {
            if let Some(slot) = page[r.home() % PAGE_HOMES].get_mut(r.seq() as usize) {
                *slot = None;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Rc<RegionEntry>> {
        self.pages.iter().flatten().flat_map(|page| page.iter().flatten().flatten())
    }
}

/// How an annotation's protocol is resolved — the one bit the compiler's
/// direct-dispatch optimization (§4.2) changes about an annotation.
#[derive(Clone, Copy)]
enum Resolve<'p> {
    /// Looked up through the region's space; pays `CostModel::dispatch`.
    Space,
    /// Statically known to the caller; pays `CostModel::direct_call`.
    Static(&'p dyn Protocol),
}

impl<'p> Resolve<'p> {
    /// The protocol an annotation on `e` resolves to. A space lookup
    /// parks its handle in `held`, so one annotation resolves at most once.
    #[inline]
    fn get<'a>(
        self,
        rt: &AceRt,
        e: &RegionEntry,
        held: &'a mut Option<Rc<dyn Protocol>>,
    ) -> &'a dyn Protocol
    where
        'p: 'a,
    {
        match self {
            Resolve::Space => &**held.get_or_insert_with(|| rt.space(e.space).proto()),
            Resolve::Static(p) => p,
        }
    }

    /// Whether the compiler deleted this annotation's `partner` (the other
    /// end of its access section). Only the direct-dispatch pass removes
    /// calls, only where the protocol is statically known, and exactly the
    /// hooks that protocol declares null — so hand-written programs, which
    /// resolve through the space, keep the strict section discipline.
    fn elided(self, partner: Actions) -> bool {
        matches!(self, Resolve::Static(p) if p.null_actions().contains(partner))
    }
}

/// A traced hook span between [`AceRt::span_enter`] and
/// [`AceRt::span_exit`]: the `HookExit` fields, plus the spanned region
/// and its protocol state code at entry. Plain words, no destructor — the
/// token crosses every hook call, tracing on or off.
struct Span<'e> {
    hook: Hook,
    region: u64,
    space: u32,
    proto: &'static str,
    detail: &'static str,
    st: Option<(&'e RegionEntry, u32)>,
}

/// What an annotation hook does to its region's access sections.
#[derive(Clone, Copy)]
enum Edge {
    /// `start_read` / `start_write`.
    Open { write: bool },
    /// `end_read` / `end_write`.
    Close { write: bool },
    /// `lock` / `unlock`: no section.
    Sync,
}

impl Edge {
    fn of(hook: Hook) -> Edge {
        match hook {
            Hook::StartRead => Edge::Open { write: false },
            Hook::StartWrite => Edge::Open { write: true },
            Hook::EndRead => Edge::Close { write: false },
            Hook::EndWrite => Edge::Close { write: true },
            Hook::Lock | Hook::Unlock => Edge::Sync,
            _ => unreachable!("{} is not an annotation", hook.name()),
        }
    }
}

/// The hook that opens (`open`) or closes a read or `write` section.
fn section_action(open: bool, write: bool) -> Actions {
    match (open, write) {
        (true, false) => Actions::START_READ,
        (false, false) => Actions::END_READ,
        (true, true) => Actions::START_WRITE,
        (false, true) => Actions::END_WRITE,
    }
}

/// The open-section counter of `e` for read or `write` sections.
fn section(e: &RegionEntry, write: bool) -> &Cell<u32> {
    if write {
        &e.write_active
    } else {
        &e.read_active
    }
}

/// The per-node runtime. One `AceRt` exists per simulated processor; all
/// interior state is node-local (`Cell`/`RefCell`), and all cross-node
/// effects go through typed messages on the underlying [`Node`].
pub struct AceRt<'n> {
    node: &'n Node<AceMsg>,
    regions: RefCell<RegionTable>,
    // Lookups that found an entry / found none. Plain `Cell`s, not
    // `counters`, so `lookup` never re-borrows the `OpCounters` RefCell
    // from inside `counters_mut` callbacks.
    rc_hits: Cell<u64>,
    rc_misses: Cell<u64>,
    /// Indexed by `SpaceId`: ids come from this node's own counter.
    spaces: RefCell<Vec<Rc<SpaceEntry>>>,
    next_region_seq: Cell<u64>,
    /// One all-zero buffer per region size, which every fresh entry of
    /// that size aliases until its first write (see [`AceRt::zeros`]).
    zeros: RefCell<BTreeMap<usize, Arc<[u64]>>>,
    /// Barrier state by tag: slot 0 the machine barrier's, slot `1 + sid`
    /// a space's. Grown on first use of a tag, by this node or a child.
    bars: RefCell<Vec<BarTag>>,
    /// The next collective's `seq`. Every node enters collectives in
    /// program order, so one counter agrees machine-wide.
    coll_seq: Cell<u64>,
    coll_recv: RefCell<HashMap<u64, CollBuf>>,
    counters: RefCell<OpCounters>,
    /// The annotation hook most recently entered on this node ("none"
    /// before the first). Tracked unconditionally (a `Cell` store) so
    /// error diagnostics carry it even when tracing is off.
    last_hook: Cell<&'static str>,
    /// The protocol message being handled (or handled last): sender,
    /// opcode, and the sender's switch epoch at injection. Diagnostics only.
    handling: Cell<(usize, u16, u64)>,
    /// Protocol messages from peers one switch epoch ahead, held until this
    /// node commits that switch too (see `dispatch` and `handover`).
    early: RefCell<Vec<Envelope<AceMsg>>>,
    /// Master switch for the per-region fast paths (the forced-slow-path
    /// escape hatch: equivalence tests run the same program with this off
    /// and on and demand identical messages, bytes, and data).
    fast_enabled: Cell<bool>,
    /// The conformance layer (`ace-check`): inert under `CheckMode::Off`,
    /// otherwise validates sections, accesses, and cross-node overlap
    /// against what the protocol granted. See [`crate::check`].
    checker: Checker,
}

impl<'n> AceRt<'n> {
    /// Wrap a substrate node in a fresh runtime.
    pub fn new(node: &'n Node<AceMsg>) -> Self {
        AceRt {
            node,
            regions: RefCell::default(),
            rc_hits: Cell::new(0),
            rc_misses: Cell::new(0),
            spaces: RefCell::default(),
            next_region_seq: Cell::new(0),
            zeros: RefCell::default(),
            bars: RefCell::default(),
            coll_seq: Cell::new(0),
            coll_recv: RefCell::new(HashMap::new()),
            counters: RefCell::new(OpCounters::default()),
            last_hook: Cell::new("none"),
            handling: Cell::new((0, 0, 0)),
            early: RefCell::new(Vec::new()),
            fast_enabled: Cell::new(true),
            checker: Checker::new(node.check_mode()),
        }
    }

    /// Enable or disable the per-region fast paths ([`RegionEntry::fast`]).
    /// On by default; turning them off makes every `map` and access
    /// annotation resolve its protocol and run its hook, which must
    /// be behaviourally identical (only slower — for the annotations, in
    /// virtual time too). Exposed for equivalence tests and A/B
    /// benchmarking.
    pub fn set_fast_paths(&self, on: bool) {
        self.fast_enabled.set(on);
    }

    /// The last annotation hook entered on this node (see `last_hook`).
    pub fn last_hook(&self) -> &'static str {
        self.last_hook.get()
    }

    // ------------------------------------------------------------------
    // Event tracing
    // ------------------------------------------------------------------

    /// Open a traced span around a hook. `last_hook` is tracked
    /// unconditionally; everything else sits behind the sink's inlined
    /// `enabled()` check, so with tracing off (the default) a span costs
    /// one store and one predictable branch per end — no event
    /// construction, no state reads — and the returned token is `None`.
    /// A span on a region (`e` is `Some`) records the region's protocol
    /// state code so [`AceRt::span_exit`] can diff it; region-less spans
    /// (the barrier is scoped to a space) carry [`ace_machine::NO_REGION`].
    /// The span's labels — `proto`'s name and, for a handled message, the
    /// name of its opcode `op` — are virtual calls, made only when a sink
    /// will read them.
    #[inline]
    fn span_enter<'e>(
        &self,
        hook: Hook,
        space: SpaceId,
        e: Option<&'e RegionEntry>,
        proto: &dyn Protocol,
        op: Option<u16>,
    ) -> Option<Span<'e>> {
        self.last_hook.set(hook.name());
        let sink = self.node.trace_sink();
        if !sink.enabled() {
            return None;
        }
        let (proto, detail) = (proto.name(), op.map_or("", |op| proto.op_name(op)));
        let (region, space) = (e.map_or(ace_machine::NO_REGION, |e| e.id.0), space.0);
        sink.emit(self.node.now(), EventKind::HookEnter { hook, region, space, proto, detail });
        Some(Span { hook, region, space, proto, detail, st: e.map(|e| (e, e.st.get())) })
    }

    /// Close a span, first emitting a `State` event if the region's state
    /// code changed across the hook — this is how protocol state machines
    /// appear in the timeline without protocols emitting anything
    /// themselves.
    #[inline]
    fn span_exit(&self, span: Option<Span<'_>>) {
        let Some(Span { hook, region, space, proto, detail, st }) = span else { return };
        let sink = self.node.trace_sink();
        if let Some((e, from)) = st {
            let to = e.st.get();
            if to != from {
                sink.emit(self.node.now(), EventKind::State { region, from, to });
            }
        }
        sink.emit(self.node.now(), EventKind::HookExit { hook, region, space, proto, detail });
    }

    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.node.rank()
    }

    /// Number of nodes in the machine.
    pub fn nprocs(&self) -> usize {
        self.node.nprocs()
    }

    /// The underlying substrate node.
    pub fn node(&self) -> &Node<AceMsg> {
        self.node
    }

    /// Charge application computation to the virtual clock.
    pub fn charge(&self, ns: u64) {
        self.node.charge(ns);
    }

    /// Charge `n` floating-point operations.
    pub fn charge_flops(&self, n: u64) {
        self.node.charge(n * self.node.cost().flop);
    }

    /// Charge `n` application memory operations.
    pub fn charge_mem(&self, n: u64) {
        self.node.charge(n * self.node.cost().mem);
    }

    /// Snapshot of this node's operation counters. Region-lookup found/not-found
    /// totals (kept in `Cell`s on the runtime) and the node's logical/wire
    /// message split (kept by the substrate) are folded in here.
    pub fn counters(&self) -> OpCounters {
        let mut c = self.counters.borrow().clone();
        c.region_cache_hits += self.rc_hits.get();
        c.region_cache_misses += self.rc_misses.get();
        let s = self.node.stats();
        c.logical_msgs += s.logical_msgs;
        c.wire_msgs += s.wire_msgs;
        c
    }

    /// Mutate the counters (used by the Ace-C VM to account direct calls).
    pub fn counters_mut(&self, f: impl FnOnce(&mut OpCounters)) {
        f(&mut self.counters.borrow_mut());
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    /// Send a raw runtime message.
    pub fn send(&self, dst: usize, msg: AceMsg) {
        self.node.send(dst, msg);
    }

    /// Send a protocol message on behalf of this node.
    pub fn send_proto(
        &self,
        dst: usize,
        region: RegionId,
        op: u16,
        arg: u64,
        data: Option<Arc<[u64]>>,
    ) {
        let from = self.rank() as u16;
        self.node.send(dst, AceMsg::Proto(ProtoMsg { region, op, from, arg, data }));
    }

    /// Service incoming messages until `pred` holds. Protocols use this to
    /// implement their blocking hooks; handlers themselves must not call it.
    pub fn wait(&self, what: &str, pred: impl Fn() -> bool) {
        self.node.poll_until(what, |_, env| self.dispatch(env), pred);
    }

    /// Names the protocol message being handled on `e` — who is handling
    /// what from whom, and both ends' switch epochs — for the text of a
    /// protocol's assertions: a handler tripping over a message it cannot
    /// account for usually means the message belongs to another epoch.
    pub fn handling(&self, e: &RegionEntry) -> String {
        let ((src, op, sw), p) = (self.handling.get(), self.space(e.space).proto());
        let (rank, proto, name, here) =
            (self.rank(), p.name(), p.op_name(op), self.node.switch_epoch());
        format!(
            "rank {rank} region {} protocol {proto}: op {op} ({name}) from {src} \
             sent at switch epoch {sw}, handled at epoch {here}",
            e.id
        )
    }

    fn dispatch(&self, env: Envelope<AceMsg>) {
        let (rank, src, sw, here) = (self.rank(), env.src, env.sw, self.node.switch_epoch());
        if sw > here && matches!(env.msg, AceMsg::Proto(_)) {
            // The sender is past the commit of a handover this node is
            // still inside (waiting on its first barrier): the message is
            // for the protocol about to be installed, so it waits for it.
            return self.early.borrow_mut().push(env);
        }
        match env.msg {
            AceMsg::Proto(pm) => {
                self.counters.borrow_mut().proto_msgs += 1;
                self.node.charge(self.node.cost().proto_action);
                let e = self.lookup(pm.region).unwrap_or_else(|| {
                    panic!("rank {rank}: unknown region in {pm:?} from {src} (epoch {sw}, here {here})")
                });
                let proto = self.space(e.space).proto();
                self.handling.set((src, pm.op, sw));
                let span = self.span_enter(Hook::Handle, e.space, Some(&e), &*proto, Some(pm.op));
                proto.handle(self, &e, pm, src);
                self.cache_fast(&e, Some(&*proto));
                self.span_exit(span);
            }
            AceMsg::MetaReq { region } => {
                let e = self
                    .lookup(region)
                    .unwrap_or_else(|| panic!("meta request for unknown region {region}"));
                self.send(src, AceMsg::MetaReply { region, space: e.space, words: e.words as u64 });
            }
            AceMsg::MetaReply { region, space, words } => {
                // Create the (invalid) cache entry the mapper is waiting on.
                let e = Rc::new(RegionEntry::new(region, space, self.zeros(words as usize)));
                e.st.set(REMOTE_INVALID);
                self.regions.borrow_mut().insert(e);
            }
            AceMsg::BarArrive { tag, epoch, prof, batch } => {
                self.bar_note_arrival(tag, epoch, prof, batch)
            }
            AceMsg::BarRelease { tag, epoch, prof } => {
                self.counters.borrow_mut().bar_msgs += 1;
                self.bar_release(tag, epoch, prof);
            }
            AceMsg::LockReq { region } => {
                let e = self
                    .lookup(region)
                    .unwrap_or_else(|| panic!("lock request for unknown region {region}"));
                assert!(e.is_home_of(self.rank()), "lock request must target home");
                let lock = e.cold_init();
                if lock.lock_held.get() {
                    lock.lock_queue.borrow_mut().push_back(src as u16);
                } else {
                    lock.lock_held.set(true);
                    self.send(src, AceMsg::LockGrant { region });
                }
            }
            AceMsg::LockGrant { region } => {
                let e = self.lookup(region).expect("lock grant for unknown region");
                e.cold_init().lock_granted.set(true);
            }
            AceMsg::LockRelease { region } => {
                let e = self.lookup(region).expect("lock release for unknown region");
                let lock = e.cold_init();
                let next = lock.lock_queue.borrow_mut().pop_front();
                match next {
                    Some(next) => self.send(next as usize, AceMsg::LockGrant { region }),
                    None => lock.lock_held.set(false),
                }
            }
            AceMsg::Collective { seq, vals } => {
                self.coll_recv.borrow_mut().entry(seq).or_default().push((src, vals));
            }
        }
    }

    // ------------------------------------------------------------------
    // Spaces and protocols
    // ------------------------------------------------------------------

    /// Create a new space bound to `protocol`. Collective: every node must
    /// call `new_space` in the same program order (SPMD), which makes the
    /// locally-generated ids agree machine-wide.
    pub fn new_space(&self, protocol: Rc<dyn Protocol>) -> SpaceId {
        let mut spaces = self.spaces.borrow_mut();
        let id = SpaceId(spaces.len() as u32);
        spaces.push(Rc::new(SpaceEntry::new(id, protocol)));
        id
    }

    /// Look up a space entry, reporting an [`AceError::UnknownSpace`] if
    /// this node has never created it.
    pub fn try_space(&self, id: SpaceId) -> Result<Rc<SpaceEntry>, AceError> {
        self.spaces
            .borrow()
            .get(id.0 as usize)
            .cloned()
            .ok_or(AceError::UnknownSpace { space: id, rank: self.rank() })
    }

    /// Look up a space entry.
    ///
    /// # Panics
    ///
    /// Panics if the space does not exist on this node.
    pub fn space(&self, id: SpaceId) -> Rc<SpaceEntry> {
        self.try_space(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Change the protocol of a space (collective): [`AceRt::handover`]
    /// with "rebind the space" as the install step.
    pub fn change_protocol(&self, sid: SpaceId, new: Rc<dyn Protocol>) {
        let s = self.space(sid);
        self.handover(&s, &*s.proto(), &*new, || {
            *s.protocol.borrow_mut() = Rc::clone(&new);
        });
    }

    /// The protocol handover of §3.1 (collective), written once for
    /// `change_protocol` and the adaptive engine's flush-point switch:
    /// `old` flushes every locally-known region of the space to the base
    /// state (valid master at home, no remote copies) → in-flight
    /// operations drain → machine barrier → `install` makes `new` the
    /// protocol that serves the space → the switch epoch is bumped
    /// (`note_switch`) → `new` adopts the regions → machine
    /// barrier. Nothing blocks between the first barrier's return and the
    /// epoch bump, which is what makes the epoch stamp a coherence proof:
    /// no peer can send from more than one epoch ahead. A peer that *is*
    /// one ahead — released from the first barrier a moment earlier and
    /// already adopting — may reach this node before its own release does;
    /// `dispatch` holds such protocol messages back and they are replayed
    /// here, to the protocol they were meant for.
    pub fn handover(
        &self,
        s: &SpaceEntry,
        old: &dyn Protocol,
        new: &dyn Protocol,
        install: impl FnOnce(),
    ) {
        let mine = self.regions_of_space(s.id);
        for e in &mine {
            old.flush(self, e);
            self.cache_fast(e, None);
        }
        self.wait("protocol flush drain", || s.outstanding.get() == 0);
        self.machine_barrier();
        install();
        s.dirty.borrow_mut().clear();
        self.note_switch(s.id, old.name(), new.name());
        for env in self.early.take() {
            self.dispatch(env);
        }
        for e in &mine {
            new.adopt(self, e);
            self.cache_fast(e, Some(new));
        }
        self.machine_barrier();
    }

    /// Record one committed protocol switch on this node: counts it, bumps
    /// the node's wire-visible switch epoch (stamped on every subsequent
    /// envelope; see [`ace_machine::Envelope`]), and emits an
    /// [`EventKind::Switch`] trace event. Called by [`AceRt::handover`]
    /// between its two machine barriers. Returns the new epoch.
    fn note_switch(&self, space: SpaceId, from: &'static str, to: &'static str) -> u64 {
        self.counters.borrow_mut().switches += 1;
        let epoch = self.node.switch_epoch() + 1;
        self.node.set_switch_epoch(epoch);
        let sink = self.node.trace_sink();
        if sink.enabled() {
            sink.emit(
                self.node.now(),
                EventKind::Switch {
                    region: ace_machine::NO_REGION,
                    space: space.0,
                    from,
                    to,
                    epoch,
                },
            );
        }
        epoch
    }

    // ------------------------------------------------------------------
    // Regions
    // ------------------------------------------------------------------

    /// Allocate a region sized for `count` elements of `T` from `space`.
    /// The caller's node becomes the region's home.
    pub fn gmalloc<T: Pod>(&self, space: SpaceId, count: usize) -> RegionId {
        self.gmalloc_words(space, pod::words_for::<T>(count).max(1))
    }

    /// Allocate a region of `words` 8-byte words from `space`.
    pub fn gmalloc_words(&self, space: SpaceId, words: usize) -> RegionId {
        assert!(words >= 1, "regions are at least one word");
        let seq = self.next_region_seq.get();
        self.next_region_seq.set(seq + 1);
        let id = RegionId::new(self.rank(), seq);
        let e = Rc::new(RegionEntry::new(id, space, self.zeros(words)));
        e.st.set(HOME_OWNED_STATE);
        self.cache_fast(&e, Some(&*self.space(space).proto()));
        self.regions.borrow_mut().insert(e);
        id
    }

    /// This node's all-zero buffer of `words` words, for a fresh entry to
    /// alias: copy-on-write makes an entry's copy private at its first
    /// write, and most pooled or cached entries are replaced by a `DATA`
    /// or never written. A miss first drops every buffer no entry aliases
    /// any more: an idle buffer lives only until the next size this node
    /// has not cached.
    fn zeros(&self, words: usize) -> Arc<[u64]> {
        let mut zeros = self.zeros.borrow_mut();
        if let Some(z) = zeros.get(&words) {
            return z.clone();
        }
        zeros.retain(|_, z| Arc::strong_count(z) > 1);
        zeros.entry(words).or_insert_with(|| Arc::from(vec![0; words])).clone()
    }

    /// All region entries this node knows that belong to `space`, in id order.
    /// Protocols use this at barriers (e.g. to invalidate cached copies)
    /// and `change_protocol` uses it for the flush/adopt sweep.
    pub fn regions_of_space(&self, sid: SpaceId) -> Vec<Rc<RegionEntry>> {
        self.regions.borrow().iter().filter(|e| e.space == sid).cloned().collect()
    }

    /// Deterministic FNV digest over the master copy of every region
    /// homed on this node — id and current contents, in id order.
    /// Concatenated across ranks this covers the whole shared memory
    /// image; remote cached copies are excluded because their end-of-run
    /// residency races on wall-clock message timing. Equivalence tests
    /// compare digests across runs to prove a mechanism (like the fast
    /// mask) changed only virtual time, never data.
    pub fn data_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for e in self.regions.borrow().iter().filter(|e| e.is_home_of(self.rank())) {
            mix(e.id.0);
            for &w in e.data.borrow().iter() {
                mix(w);
            }
        }
        h
    }

    /// Look up a region entry if this node has one: two indexings and an
    /// `Rc` bump under every access annotation, protocol handler and VM
    /// instruction. An id no entry was ever stored under — `NULL`, a home
    /// past the machine, a `seq` its home has not reached — is `None`.
    pub fn lookup(&self, r: RegionId) -> Option<Rc<RegionEntry>> {
        let e = self.resident(r);
        let n = if e.is_some() { &self.rc_hits } else { &self.rc_misses };
        n.set(n.get() + 1);
        e
    }

    /// [`AceRt::lookup`] without counting a region-cache hit or miss: for
    /// a protocol revisiting ids it listed itself (a barrier draining
    /// [`SpaceEntry::dirty`]), where an id evicted since answers `None`.
    pub fn resident(&self, r: RegionId) -> Option<Rc<RegionEntry>> {
        self.regions.borrow().get(r).cloned()
    }

    /// [`AceRt::lookup`] with a typed error: `Err(UnknownRegion)` — which
    /// carries this node's rank and the last hook traced — instead of
    /// `None` when the region has no entry here.
    pub fn try_lookup(&self, r: RegionId) -> Result<Rc<RegionEntry>, AceError> {
        self.lookup(r).ok_or_else(|| AceError::UnknownRegion {
            region: r,
            rank: self.rank(),
            last_hook: self.last_hook.get(),
        })
    }

    /// Look up a region entry, panicking if the region was never mapped
    /// here (the equivalent of dereferencing an unmapped pointer). The
    /// panic message is [`AceError::UnknownRegion`]'s, naming the region,
    /// the node, and the last hook the runtime traced before the failure.
    pub fn entry(&self, r: RegionId) -> Rc<RegionEntry> {
        self.try_lookup(r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Make sure this node has an entry for `r`, fetching metadata from
    /// home if needed. This is the protocol-independent half of `map`;
    /// fixed-protocol runtimes (CRL) use it directly. A region whose home is
    /// outside the machine (the null handle among them) panics with
    /// [`AceError::UnknownRegion`]'s message: there is no home to ask.
    pub fn ensure_entry(&self, r: RegionId) -> Rc<RegionEntry> {
        if let Some(e) = self.lookup(r) {
            self.counters.borrow_mut().map_hits += 1;
            return e;
        }
        if r.home() >= self.nprocs() {
            return self.entry(r);
        }
        assert_ne!(r.home(), self.rank(), "home regions exist from gmalloc");
        self.counters.borrow_mut().map_misses += 1;
        self.send(r.home(), AceMsg::MetaReq { region: r });
        self.wait("region metadata", || self.regions.borrow().get(r).is_some());
        self.entry(r)
    }

    /// Whether `action` on `e` takes the in-state fast path: the fast
    /// paths are on and the region's protocol has declared the hook a
    /// no-op in the region's current state ([`RegionEntry::fast`]). The one
    /// test under `map` and the four access annotations; on a hit
    /// the caller resolves no protocol, opens no span, calls no hook and
    /// leaves the mask alone (a hook that did not run moved no state).
    #[inline]
    fn fast_hit(&self, e: &RegionEntry, action: Actions) -> bool {
        self.fast_enabled.get() && e.fast.get().contains(action)
    }

    /// `ACE_MAP`: translate a region id into a local mapping, fetching
    /// metadata from home on first contact. Charges `map_lookup` whether
    /// or not the protocol's `on_map` has anything to do.
    pub fn map(&self, r: RegionId) {
        self.node.charge(self.node.cost().map_lookup);
        let e = self.ensure_entry(r);
        e.mapped.set(e.mapped.get() + 1);
        if self.fast_hit(&e, Actions::MAP) {
            self.last_hook.set(Hook::Map.name());
            self.counters.borrow_mut().fast_maps += 1;
            return;
        }
        let proto = self.space(e.space).proto();
        let span = self.span_enter(Hook::Map, e.space, Some(&e), &*proto, None);
        proto.on_map(self, &e);
        self.cache_fast(&e, Some(&*proto));
        self.span_exit(span);
    }

    /// `ACE_UNMAP`. The cache entry is retained (CRL-style unmapped-region
    /// caching); only the map count drops. No protocol acts on an unmap, so
    /// none is resolved.
    pub fn unmap(&self, r: RegionId) {
        let e = self.entry(r);
        self.counters.borrow_mut().unmaps += 1;
        assert!(e.mapped.get() > 0, "unmap of unmapped region {r}");
        e.mapped.set(e.mapped.get() - 1);
        self.last_hook.set(Hook::Unmap.name());
    }

    /// Re-derive `e`'s cached fast mask from its protocol's declaration
    /// ([`Protocol::fast_mask`]). The runtime does this itself on the way
    /// out of every protocol callback on `e`; this entry point is for the
    /// one case where a protocol changes an entry from outside such a
    /// callback — a barrier hook dropping the node's cached copies.
    pub fn rederive_fast(&self, e: &RegionEntry) {
        self.cache_fast(e, Some(&*self.space(e.space).proto()));
    }

    /// The one writer of [`RegionEntry::fast`]: cache what `owner` declares
    /// for `e`'s current state, or nothing for a region no protocol owns
    /// (flushed, not yet adopted).
    fn cache_fast(&self, e: &RegionEntry, owner: Option<&dyn Protocol>) {
        let mask = owner.map_or(Actions::empty(), |p| p.fast_mask(self, e));
        debug_assert!(
            owner.is_none_or(|p| mask.contains(p.null_actions().intersect(Actions::MASKABLE))),
            "{}: a map or access hook declared null must be fast in every state, got {mask:?}",
            e.id
        );
        e.fast.set(mask);
    }

    /// Violations the conformance checker has recorded on this node so
    /// far. Cross-node conflicting-section reports appear on node 0 only,
    /// as soon as the barrier passage that carries the later-closing
    /// section's record returns there (the last is [`AceRt::shutdown`]'s).
    /// Always empty under `CheckMode::Off`.
    pub fn violations(&self) -> Vec<AceError> {
        self.checker.violations()
    }

    // ------------------------------------------------------------------
    // Annotations
    //
    // One path. The direct-dispatch optimization (§4.2) changes exactly
    // one thing about an annotation — how its protocol is resolved
    // ([`Resolve`]) and therefore which rung of the cost ladder it pays —
    // so the twelve public entry points below are forwards into
    // `annotate`, each passing its hook as a literal.
    // ------------------------------------------------------------------

    /// Execute one access or lock annotation on `r`.
    ///
    /// The cost ladder, cheapest first: a *fast* hit ([`AceRt::fast_hit`])
    /// charges `fast_path` and skips the protocol resolution, the hook and
    /// its trace span — a couple of loads and a branch in the real system;
    /// otherwise the hook runs and pays `direct_call` or `dispatch`
    /// according to `via`.
    ///
    /// Ordering around the section counters is what the conformance
    /// checker relies on: an open is counted (and recorded) *after* the
    /// start hook, so its vector clock dominates every message the hook
    /// exchanged; a close is counted *before* the end hook, so write-back
    /// and release messages the hook sends carry a clock that dominates
    /// the close. Only the outermost open/close of a nested section
    /// records.
    #[inline(always)]
    fn annotate(&self, hook: Hook, r: RegionId, via: Resolve<'_>) {
        // `hook` is a literal at every caller and this body is inlined
        // into each, so `edge` and every branch on it fold away.
        let edge = Edge::of(hook);
        let mut held = None;
        let e = match edge {
            // A lock may be the first contact a node has with a region.
            Edge::Sync => self.ensure_entry(r),
            _ => self.entry(r),
        };
        match edge {
            Edge::Open { write: false } => self.counters.borrow_mut().start_reads += 1,
            Edge::Open { write: true } => self.counters.borrow_mut().start_writes += 1,
            Edge::Close { .. } => self.counters.borrow_mut().ends += 1,
            Edge::Sync => {}
        }
        if let Edge::Close { write } = edge {
            let active = section(&e, write);
            match active.get() {
                // An end with no open section is a program bug — unless
                // the compiler deleted the matching start as null, the
                // one way a correct program reaches here.
                0 => assert!(
                    via.elided(section_action(true, write)),
                    "{} outside a {} section on {r}",
                    hook.name(),
                    if write { "write" } else { "read" }
                ),
                n => active.set(n - 1),
            }
            if self.checker.enabled() && active.get() == 0 {
                self.checker.on_close(self.node, e.id, write);
            }
        }
        // The fast mask covers the section hooks; locks always run.
        let maskable = match edge {
            Edge::Open { write } => Some(section_action(true, write)),
            Edge::Close { write } => Some(section_action(false, write)),
            Edge::Sync => None,
        };
        if maskable.is_some_and(|a| self.fast_hit(&e, a)) {
            self.last_hook.set(hook.name());
            self.counters.borrow_mut().fast_hits += 1;
            self.node.charge(self.node.cost().fast_path);
        } else {
            match via {
                Resolve::Space => {
                    self.counters.borrow_mut().dispatched += 1;
                    self.node.charge(self.node.cost().dispatch);
                }
                Resolve::Static(_) => {
                    self.counters.borrow_mut().direct += 1;
                    self.node.charge(self.node.cost().direct_call);
                }
            }
            let p = via.get(self, &e, &mut held);
            let span = self.span_enter(hook, e.space, Some(&e), p, None);
            match hook {
                Hook::StartRead => p.start_read(self, &e),
                Hook::EndRead => p.end_read(self, &e),
                Hook::StartWrite => p.start_write(self, &e),
                Hook::EndWrite => p.end_write(self, &e),
                Hook::Lock => p.lock(self, &e),
                Hook::Unlock => p.unlock(self, &e),
                _ => unreachable!("{} is not an annotation", hook.name()),
            }
            self.cache_fast(&e, Some(p));
            self.span_exit(span);
        }
        if let Edge::Open { write } = edge {
            let active = section(&e, write);
            active.set(active.get() + 1);
            // A section whose end the compiler deleted as null never
            // closes: it is invisible to the runtime, not left open.
            if self.checker.enabled()
                && active.get() == 1
                && !via.elided(section_action(false, write))
            {
                let p = via.get(self, &e, &mut held);
                self.checker.on_open(self.node, e.id, write, p.name(), p.grants());
            }
        }
    }

    /// `ACE_START_READ`, dispatched through the region's space.
    pub fn start_read(&self, r: RegionId) {
        self.annotate(Hook::StartRead, r, Resolve::Space)
    }

    /// `ACE_END_READ`.
    pub fn end_read(&self, r: RegionId) {
        self.annotate(Hook::EndRead, r, Resolve::Space)
    }

    /// `ACE_START_WRITE`.
    pub fn start_write(&self, r: RegionId) {
        self.annotate(Hook::StartWrite, r, Resolve::Space)
    }

    /// `ACE_END_WRITE`.
    pub fn end_write(&self, r: RegionId) {
        self.annotate(Hook::EndWrite, r, Resolve::Space)
    }

    /// `Ace_Lock`: dispatched through the region's protocol. Fetches the
    /// region's metadata if it was never mapped here (a lock may be the
    /// first contact a node has with a region).
    pub fn lock(&self, r: RegionId) {
        self.annotate(Hook::Lock, r, Resolve::Space)
    }

    /// `Ace_UnLock`.
    pub fn unlock(&self, r: RegionId) {
        self.annotate(Hook::Unlock, r, Resolve::Space)
    }

    /// `ACE_START_READ` with a statically-resolved protocol: the CRL
    /// baseline (one fixed protocol, no spaces) and Ace-C code after the
    /// compiler's direct-dispatch optimization (§4.2).
    pub fn start_read_direct(&self, r: RegionId, proto: &dyn Protocol) {
        self.annotate(Hook::StartRead, r, Resolve::Static(proto))
    }

    /// `ACE_END_READ` with a statically-resolved protocol.
    pub fn end_read_direct(&self, r: RegionId, proto: &dyn Protocol) {
        self.annotate(Hook::EndRead, r, Resolve::Static(proto))
    }

    /// `ACE_START_WRITE` with a statically-resolved protocol.
    pub fn start_write_direct(&self, r: RegionId, proto: &dyn Protocol) {
        self.annotate(Hook::StartWrite, r, Resolve::Static(proto))
    }

    /// `ACE_END_WRITE` with a statically-resolved protocol.
    pub fn end_write_direct(&self, r: RegionId, proto: &dyn Protocol) {
        self.annotate(Hook::EndWrite, r, Resolve::Static(proto))
    }

    /// `Ace_Lock` with a statically-resolved protocol.
    pub fn lock_direct(&self, r: RegionId, proto: &dyn Protocol) {
        self.annotate(Hook::Lock, r, Resolve::Static(proto))
    }

    /// `Ace_UnLock` with a statically-resolved protocol.
    pub fn unlock_direct(&self, r: RegionId, proto: &dyn Protocol) {
        self.annotate(Hook::Unlock, r, Resolve::Static(proto))
    }

    /// Drop a region entry from this node's table after flushing its
    /// coherence state home. Used by the CRL baseline's bounded
    /// unmapped-region cache when it evicts.
    ///
    /// # Panics
    ///
    /// Panics if the region is still mapped, in an access section, or if
    /// this node is its home (homes are never evicted).
    pub fn evict(&self, r: RegionId) {
        let e = self.entry(r);
        assert_eq!(e.mapped.get(), 0, "evicting a mapped region {r}");
        assert!(!e.busy(), "evicting a busy region {r}");
        assert!(!e.is_home_of(self.rank()), "evicting a home region {r}");
        let proto = self.space(e.space).proto();
        proto.flush(self, &e);
        self.regions.borrow_mut().remove(r);
    }

    // ------------------------------------------------------------------
    // Typed data access
    //
    // Four variants, one contract matrix:
    //
    // |                  | checked (section asserted)   | unchecked            |
    // | read  (`&[T]`)   | `with`                       | `with_unchecked`     |
    // | write (`&mut[T]`)| `with_mut`                   | `with_mut_unchecked` |
    //
    // The *checked* variants debug-assert the paper's annotation contract:
    // reads happen inside a read or write section, writes inside a write
    // section. The *unchecked* variants exist for compiled code whose null
    // `start`/`end` annotations were removed by the direct-dispatch
    // optimization — the section discipline still holds in the program
    // logic, but the runtime can no longer see it, so only the weaker
    // invariant is asserted: the region must at least be locally usable
    // (mapped, in a section, or home-resident). All four take the typed
    // closure rather than returning a guard so borrow scope is explicit.
    // ------------------------------------------------------------------

    /// Typed slice length for a region entry, in elements of `T`.
    fn typed_count<T: Pod>(e: &RegionEntry) -> usize {
        e.words * 8 / std::mem::size_of::<T>()
    }

    /// Weak usability assertion for the unchecked accessors: the data must
    /// still be locally meaningful even if no section is open.
    fn debug_assert_usable(&self, e: &RegionEntry) {
        debug_assert!(
            e.mapped.get() > 0 || e.busy() || e.is_home_of(self.rank()),
            "unchecked access to region {} that is unmapped, idle, and not home here",
            e.id
        );
    }

    /// Read-access the region data as a typed slice. Must be inside a read
    /// or write section (debug-asserted), mirroring the paper's contract
    /// that accesses happen between `START` and `END` annotations.
    pub fn with<T: Pod, R>(&self, r: RegionId, f: impl FnOnce(&[T]) -> R) -> R {
        let e = self.entry(r);
        if self.checker.enabled() {
            if !e.busy() {
                self.checker.report(
                    self.node,
                    AceError::Conformance {
                        region: r,
                        rank: self.rank(),
                        kind: ConformanceKind::AccessOutsideSection { action: "read" },
                    },
                );
            }
        } else {
            debug_assert!(e.busy(), "data access outside an access section on {r}");
        }
        let d = e.data.borrow();
        f(pod::view(&d, Self::typed_count::<T>(&e)))
    }

    /// Read-access region data without the access-section debug check (see
    /// the contract matrix above). Still debug-asserts the region is
    /// locally usable.
    pub fn with_unchecked<T: Pod, R>(&self, r: RegionId, f: impl FnOnce(&[T]) -> R) -> R {
        let e = self.entry(r);
        self.debug_assert_usable(&e);
        let d = e.data.borrow();
        f(pod::view(&d, Self::typed_count::<T>(&e)))
    }

    /// Write-access the region data as a typed slice. Must be inside a
    /// write section (debug-asserted).
    pub fn with_mut<T: Pod, R>(&self, r: RegionId, f: impl FnOnce(&mut [T]) -> R) -> R {
        let e = self.entry(r);
        if self.checker.enabled() {
            if e.write_active.get() == 0 {
                // Distinguish "the protocol granted read, the program
                // wrote" from a write with no section at all.
                let kind = if e.read_active.get() > 0 {
                    ConformanceKind::WriteUnderReadGrant
                } else {
                    ConformanceKind::WriteOutsideSection
                };
                self.checker.report(
                    self.node,
                    AceError::Conformance { region: r, rank: self.rank(), kind },
                );
            }
        } else {
            debug_assert!(
                e.write_active.get() > 0,
                "mutable access outside a write section on {r}"
            );
        }
        let count = Self::typed_count::<T>(&e);
        e.with_data_mut(|d| f(pod::view_mut(d, count)))
    }

    /// Write-access region data without the write-section debug check (see
    /// the contract matrix above). Still debug-asserts the region is
    /// locally usable.
    pub fn with_mut_unchecked<T: Pod, R>(&self, r: RegionId, f: impl FnOnce(&mut [T]) -> R) -> R {
        let e = self.entry(r);
        self.debug_assert_usable(&e);
        let count = Self::typed_count::<T>(&e);
        e.with_data_mut(|d| f(pod::view_mut(d, count)))
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// `Ace_Barrier(space)`: barrier with the semantics of the space's
    /// protocol (e.g. a static update protocol propagates updates first).
    pub fn barrier(&self, sid: SpaceId) {
        self.counters.borrow_mut().barriers += 1;
        let s = self.space(sid);
        let proto = s.proto();
        let span = self.span_enter(Hook::Barrier, sid, None, &*proto, None);
        proto.barrier(self, &s);
        self.span_exit(span);
    }

    /// The plain machine barrier a protocol's `barrier` hook typically
    /// finishes with: an epoch barrier over a fixed 8-ary combining tree
    /// rooted at node 0, so no node sends or receives more than nine
    /// messages per passage and the critical path is logarithmic in the
    /// machine size.
    pub fn space_barrier(&self, s: &SpaceEntry) {
        self.barrier_tag(s.id.0);
    }

    /// Machine-wide barrier independent of any space.
    pub fn machine_barrier(&self) {
        self.barrier_tag(GLOBAL_BAR_TAG);
    }

    /// Run `f` on `tag`'s barrier state, which exists from here on.
    fn bar<R>(&self, tag: u32, f: impl FnOnce(&mut BarTag) -> R) -> R {
        let slot = if tag == GLOBAL_BAR_TAG { 0 } else { 1 + tag as usize };
        let mut bars = self.bars.borrow_mut();
        if bars.len() <= slot {
            bars.resize_with(slot + 1, BarTag::default);
        }
        f(&mut bars[slot])
    }

    fn barrier_tag(&self, tag: u32) {
        let batch = self.checker.enabled().then(|| {
            self.node.vc_enter_barrier();
            self.checker.take_batch(self.node)
        });
        let (epoch, prof) = self.bar(tag, |b| {
            b.local_epoch += 1;
            (b.local_epoch, b.prof_out.take().map(Arc::from))
        });
        self.bar_note_arrival(tag, epoch, prof, batch);
        self.wait("barrier release", || self.bar(tag, |b| b.released >= epoch));
    }

    /// Send one barrier message, counted in [`OpCounters::bar_msgs`].
    fn bar_send(&self, dst: usize, msg: AceMsg) {
        self.counters.borrow_mut().bar_msgs += 1;
        self.send(dst, msg);
    }

    /// One arrival at `(tag, epoch)` reached this tree node: its own, or a
    /// child's standing for that child's whole subtree. The last one sends
    /// the subtree's single arrival (and combined profile and records) to
    /// the parent — or, at the root, has the checker scan the records and
    /// starts the release.
    fn bar_note_arrival(
        &self,
        tag: u32,
        epoch: u64,
        prof: Option<Arc<[u64]>>,
        batch: Option<Box<SectionBatch>>,
    ) {
        let children = bar_children(self.rank(), self.nprocs()).len();
        // `Some((combined profile, records))` once the subtree is complete.
        let full = self.bar(tag, |b| {
            if b.arrivals == 0 {
                b.open_epoch = epoch;
            }
            assert_eq!(b.open_epoch, epoch, "barrier {tag}: an arrival from another passage");
            if let Some(p) = prof {
                let sum = b.prof_acc.get_or_insert_with(Vec::new);
                if sum.len() < p.len() {
                    sum.resize(p.len(), 0);
                }
                for (s, v) in sum.iter_mut().zip(p.iter()) {
                    *s += v;
                }
            }
            if let Some(mut add) = batch {
                if let Some(acc) = b.batch.take() {
                    add.oldest = add.oldest.min(acc.oldest);
                    add.chunks.extend(acc.chunks);
                }
                b.batch = Some(add);
            }
            b.arrivals += 1;
            (b.arrivals == 1 + children).then(|| {
                b.arrivals = 0;
                (b.prof_acc.take().map(Arc::<[u64]>::from), b.batch.take())
            })
        });
        if let Some((prof, batch)) = full {
            // A child may arrive for a barrier this node has yet to enter,
            // so arrivals are counted here, inside the passage they belong
            // to: the counter then reads whole passages at any point
            // outside a barrier, whatever the timing.
            self.counters.borrow_mut().bar_msgs += children as u64;
            match bar_parent(self.rank()) {
                Some(parent) => {
                    self.bar_send(parent, AceMsg::BarArrive { tag, epoch, prof, batch })
                }
                None => {
                    if let Some(batch) = batch {
                        self.checker.scan_passage(self.node, *batch);
                    }
                    self.bar_release(tag, epoch, prof);
                }
            }
        }
    }

    /// Release this node's subtree from `(tag, epoch)`. The children are
    /// sent their releases *before* this node records its own, so
    /// "recorded" implies "forwarded" at every instant: a node whose wait
    /// has seen the release may leave its last barrier and exit, and must
    /// not leave a subtree waiting on it. (`poll_until` flushes the sends
    /// before it re-tests the wait.)
    fn bar_release(&self, tag: u32, epoch: u64, prof: Option<Arc<[u64]>>) {
        for dst in bar_children(self.rank(), self.nprocs()) {
            self.bar_send(dst, AceMsg::BarRelease { tag, epoch, prof: prof.clone() });
        }
        self.bar(tag, |b| {
            if prof.is_some() {
                b.prof_in = prof;
            }
            b.released = b.released.max(epoch);
        });
    }

    /// Stage this node's sharing-profile contribution for its next barrier
    /// on `sid`'s tag (adaptive protocol engine). The words ride the next
    /// `BarArrive` for that tag; each node of the barrier tree sums its
    /// subtree's contributions element-wise into the one arrival it sends
    /// up, and the root's total rides every `BarRelease`, so after the
    /// barrier every node holds the identical machine-wide sum (`u64`
    /// addition is associative: the same words a flat sum would give) —
    /// consensus with zero extra messages and zero extra bytes charged.
    pub fn stage_bar_profile(&self, sid: SpaceId, prof: Vec<u64>) {
        self.bar(sid.0, |b| b.prof_out = Some(prof));
    }

    /// Take the aggregated profile released by this node's most recent
    /// barrier on `sid`'s tag, if any arrival staged one. Consuming: a
    /// second call returns `None` until the next profiled barrier.
    pub fn take_bar_aggregate(&self, sid: SpaceId) -> Option<Arc<[u64]>> {
        self.bar(sid.0, |b| b.prof_in.take())
    }

    /// The default lock implementation: FIFO queue at the region's home.
    /// For a protocol's lock hook; programs lock through [`AceRt::lock`].
    pub fn default_lock(&self, e: &RegionEntry) {
        self.counters.borrow_mut().locks += 1;
        let lock = e.cold_init();
        lock.lock_granted.set(false);
        self.send(e.id.home(), AceMsg::LockReq { region: e.id });
        self.wait("lock grant", || lock.lock_granted.get());
    }

    /// The default unlock implementation. For a protocol's unlock hook;
    /// programs unlock through [`AceRt::unlock`].
    pub fn default_unlock(&self, e: &RegionEntry) {
        self.send(e.id.home(), AceMsg::LockRelease { region: e.id });
    }

    // ------------------------------------------------------------------
    // Collective data exchange
    // ------------------------------------------------------------------

    /// Broadcast `vals` from `root` to all nodes; returns the payload on
    /// every node. Collective. The apps use this to distribute the region
    /// ids of freshly-built shared data structures.
    pub fn bcast(&self, root: usize, vals: &[u64]) -> Arc<[u64]> {
        self.assert_root(root);
        let seq = self.coll_seq.replace(self.coll_seq.get() + 1);
        if self.rank() == root {
            // One allocation; every recipient's message aliases it.
            let payload: Arc<[u64]> = vals.into();
            for dst in 0..self.nprocs() {
                if dst != root {
                    self.send(dst, AceMsg::Collective { seq, vals: payload.clone() });
                }
            }
            payload
        } else {
            self.take_collective(seq, 1, "broadcast payload").pop().unwrap().1
        }
    }

    /// Gather each node's `vals` at `root`; returns rank-indexed payloads
    /// at the root and `None` elsewhere. Collective.
    pub fn gather(&self, root: usize, vals: &[u64]) -> Option<Vec<Arc<[u64]>>> {
        self.assert_root(root);
        let seq = self.coll_seq.replace(self.coll_seq.get() + 1);
        if self.rank() == root {
            let mut got = self.take_collective(seq, self.nprocs() - 1, "gather contributions");
            got.push((root, vals.into()));
            got.sort_by_key(|(src, _)| *src);
            Some(got.into_iter().map(|(_, v)| v).collect())
        } else {
            self.send(root, AceMsg::Collective { seq, vals: vals.into() });
            None
        }
    }

    /// Wait until `n` senders' words for collective `seq` have arrived,
    /// then take them.
    fn take_collective(&self, seq: u64, n: usize, what: &str) -> CollBuf {
        self.wait(what, || self.coll_recv.borrow().get(&seq).map_or(0, Vec::len) == n);
        self.coll_recv.borrow_mut().remove(&seq).unwrap_or_default()
    }

    /// Panic unless `root` is a rank of this machine: every rank of a
    /// collective rooted outside it would wait for the root forever.
    fn assert_root(&self, root: usize) {
        let n = self.nprocs();
        assert!(root < n, "collective root {root} is outside the machine's {n} ranks");
    }

    /// All-reduce a single word with `op` (gather at node 0, reduce,
    /// broadcast). Collective.
    pub fn allreduce_u64(&self, val: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        match self.gather(0, &[val]) {
            Some(all) => {
                let red = all.iter().map(|v| v[0]).reduce(&op).unwrap();
                self.bcast(0, &[red])[0]
            }
            None => self.bcast(0, &[])[0],
        }
    }

    /// All-reduce a single f64 (bit-transported through the word channel).
    pub fn allreduce_f64(&self, val: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        let red = self.allreduce_u64(val.to_bits(), |a, b| {
            op(f64::from_bits(a), f64::from_bits(b)).to_bits()
        });
        f64::from_bits(red)
    }

    /// Final machine-wide barrier; after it returns every node has
    /// finished all protocol work it owes to others.
    ///
    /// Under an active check mode the barrier carries the last passage's
    /// section records to node 0 like any other (so node 0's
    /// [`AceRt::violations`] hold every cross-node conflict once it
    /// returns), and then every section still open on this node is
    /// reported as a leak. Calling it twice — a program that shuts down
    /// itself to inspect its violations, then the `run_ace` wrapper — is
    /// another barrier, and finds nothing new.
    pub fn shutdown(&self) {
        self.machine_barrier();
        if self.checker.enabled() {
            self.checker.sweep_open(self.node);
        }
    }
}

/// Canonical base-state code for a home entry (protocols may redefine
/// their state space but `gmalloc`/`flush` establish this value).
pub const HOME_OWNED_STATE: u32 = 0;
/// Canonical base-state code for a remote entry with an invalid cache.
pub const REMOTE_INVALID: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::NoopProtocol;
    use crate::run_ace;
    use ace_machine::CostModel;

    fn noop() -> Rc<dyn Protocol> {
        Rc::new(NoopProtocol)
    }

    #[test]
    fn gmalloc_map_and_access_locally() {
        let r = run_ace(1, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = rt.gmalloc::<f64>(s, 8);
            rt.map(rid);
            rt.start_write(rid);
            rt.with_mut::<f64, _>(rid, |d| d[3] = 2.5);
            rt.end_write(rid);
            rt.start_read(rid);
            let v = rt.with::<f64, _>(rid, |d| d[3]);
            rt.end_read(rid);
            v
        });
        assert_eq!(r.results[0], 2.5);
    }

    #[test]
    fn remote_map_fetches_metadata() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = if rt.rank() == 0 {
                let rid = rt.gmalloc::<u64>(s, 16);
                rt.bcast(0, &[rid.0])[0]
            } else {
                rt.bcast(0, &[])[0]
            };
            let rid = RegionId(rid);
            rt.map(rid);
            let e = rt.entry(rid);
            (e.words, e.space, rt.counters().map_misses)
        });
        assert_eq!(r.results[0], (16, SpaceId(0), 0));
        assert_eq!(r.results[1], (16, SpaceId(0), 1));
    }

    #[test]
    fn fresh_entries_alias_one_zero_buffer_per_size() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let ids = if rt.rank() == 0 {
                let ids = [4, 4, 5].map(|words| rt.gmalloc_words(s, words).0);
                rt.bcast(0, &ids)
            } else {
                rt.bcast(0, &[])
            };
            let [a, b, c] = [0, 1, 2].map(|i| RegionId(ids[i]));
            for rid in [a, b, c] {
                rt.map(rid);
            }
            let alias = |x: RegionId, y: RegionId| {
                Arc::ptr_eq(&rt.entry(x).share_data(), &rt.entry(y).share_data())
            };
            let fresh = (alias(a, b), alias(a, c));
            rt.machine_barrier();
            if rt.rank() == 0 {
                rt.start_write(a);
                rt.with_mut::<u64, _>(a, |d| d[0] = 9);
                rt.end_write(a);
            }
            let zeros = rt.entry(b).share_data().iter().all(|&w| w == 0);
            (fresh, alias(a, b), zeros)
        });
        // Home allocations and remote metadata entries alike: one buffer
        // per size, and a write makes only the writer's copy private.
        assert_eq!(r.results[0], ((true, false), false, true));
        assert_eq!(r.results[1], ((true, false), true, true));
    }

    #[test]
    fn second_map_hits_cache() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 4).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            rt.unmap(rid);
            rt.map(rid);
            let c = rt.counters();
            (c.map_hits, c.map_misses)
        });
        assert_eq!(r.results[0], (2, 0)); // home: both maps hit
        assert_eq!(r.results[1], (1, 1)); // remote: miss then URC hit
    }

    #[test]
    fn barrier_synchronizes_epochs() {
        // Odd ranks sleep-charge, then all meet at the barrier; afterwards
        // each node observes everyone's pre-barrier values via gather.
        let r = run_ace(4, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            for _ in 0..10 {
                rt.barrier(s);
            }
            rt.allreduce_u64(rt.rank() as u64, |a, b| a + b)
        });
        assert!(r.results.iter().all(|&v| v == 6));
    }

    #[test]
    fn barrier_profile_aggregates_machine_wide() {
        // Every node stages a contribution; after the barrier every node
        // holds the identical element-wise sum, and a barrier with nothing
        // staged releases no aggregate.
        let r = run_ace(4, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            rt.stage_bar_profile(s, vec![1, rt.rank() as u64]);
            rt.barrier(s);
            let agg = rt.take_bar_aggregate(s).expect("aggregate released");
            assert!(rt.take_bar_aggregate(s).is_none(), "take is consuming");
            rt.barrier(s);
            assert!(rt.take_bar_aggregate(s).is_none(), "unprofiled barrier");
            agg.to_vec()
        });
        for node in &r.results {
            // 4 contributions of [1, rank]; ranks 0..4 sum to 6.
            assert_eq!(node, &[4, 6]);
        }
    }

    #[test]
    fn ragged_profiles_sum_to_longest() {
        // Contributions may differ in length (a node that created fewer
        // regions): the sum is over the longest, missing words count 0 —
        // and staging from a strict subset of nodes still aggregates.
        let r = run_ace(3, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            match rt.rank() {
                0 => rt.stage_bar_profile(s, vec![2]),
                1 => rt.stage_bar_profile(s, vec![3, 5, 7]),
                _ => {}
            }
            rt.barrier(s);
            rt.take_bar_aggregate(s).expect("aggregate").to_vec()
        });
        for node in &r.results {
            assert_eq!(node, &[5, 5, 7]);
        }
    }

    #[test]
    fn change_protocol_counts_a_switch_and_bumps_the_epoch() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let _rid = if rt.rank() == 0 { Some(rt.gmalloc::<u64>(s, 4)) } else { None };
            rt.machine_barrier();
            rt.change_protocol(s, noop());
            rt.change_protocol(s, noop());
            (rt.counters().switches, rt.node().switch_epoch())
        });
        for node in &r.results {
            assert_eq!(*node, (2, 2));
        }
    }

    /// The handover race behind the `switch_storm_8_ranks_socket` flake: a
    /// peer released from the handover's first barrier a moment earlier
    /// commits, adopts, and its first new-protocol message overtakes this
    /// node's own release. The old protocol must never see that message.
    #[test]
    fn message_from_one_epoch_ahead_waits_for_the_local_commit() {
        /// Sums handled messages' `arg`s into the entry's `aux` — once it
        /// is the `new` protocol; as the old one it must see none.
        struct Summing {
            new: bool,
        }
        impl Protocol for Summing {
            fn name(&self) -> &'static str {
                "summing"
            }
            fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
            fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
            fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
            fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
            fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
                assert!(self.new, "old protocol handled: {}", rt.handling(e));
                e.aux.set(e.aux.get() + msg.arg);
            }
            fn flush(&self, _rt: &AceRt, _e: &RegionEntry) {}
        }
        let r = run_ace(1, CostModel::free(), |rt| {
            let s = rt.new_space(Rc::new(Summing { new: false }));
            let region = rt.gmalloc::<u64>(s, 1);
            let early = |arg| Envelope {
                src: 0,
                send_time: 0,
                vc: None,
                sw: rt.node().switch_epoch() + 1,
                bytes: 0,
                msg: AceMsg::Proto(ProtoMsg { region, op: 1, from: 0, arg, data: None }),
            };
            rt.dispatch(early(3));
            rt.dispatch(early(4));
            let held = (rt.entry(region).aux.get(), rt.counters().proto_msgs);
            rt.change_protocol(s, Rc::new(Summing { new: true }));
            (held, rt.entry(region).aux.get(), rt.counters().proto_msgs)
        });
        assert_eq!(r.results[0], ((0, 0), 7, 2), "held back, then replayed to the new protocol");
    }

    #[test]
    fn machine_and_space_barriers_are_independent() {
        let r = run_ace(3, CostModel::free(), |rt| {
            let s1 = rt.new_space(noop());
            let s2 = rt.new_space(noop());
            rt.barrier(s1);
            rt.machine_barrier();
            rt.barrier(s2);
            rt.barrier(s1);
            rt.counters().barriers
        });
        assert!(r.results.iter().all(|&b| b == 3));
    }

    #[test]
    fn default_lock_is_mutual_exclusion() {
        // All nodes increment a plain (non-coherent) counter at home under
        // the region lock using message-passed updates through bcast-free
        // path: instead, each node appends its rank to a home-side log via
        // lock-protected aux increments. With the noop protocol, data is
        // not kept coherent, so we only test the lock protocol itself:
        // strictly alternating grant/release must never double-grant.
        let r = run_ace(4, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 1).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            for _ in 0..25 {
                rt.lock(rid);
                rt.unlock(rid);
            }
            rt.machine_barrier();
            // After everything quiesces the home lock must be free.
            if rt.rank() == 0 {
                let e = rt.entry(rid);
                let lock = e.cold().expect("a locked region has its lock state");
                rt.wait("lock settles", || !lock.lock_held.get());
                assert!(lock.lock_queue.borrow().is_empty());
            }
            true
        });
        assert!(r.results.iter().all(|&x| x));
    }

    #[test]
    fn bcast_and_gather_round_trip() {
        let r = run_ace(5, CostModel::free(), |rt| {
            let from2 = rt.bcast(2, &[100 + rt.rank() as u64, 7]);
            assert_eq!(&*from2, &[102, 7]);
            let gathered = rt.gather(1, &[rt.rank() as u64 * 10]);
            if rt.rank() == 1 {
                let flat: Vec<u64> = gathered.unwrap().iter().map(|v| v[0]).collect();
                assert_eq!(flat, vec![0, 10, 20, 30, 40]);
            } else {
                assert!(gathered.is_none());
            }
            rt.allreduce_f64(rt.rank() as f64, |a, b| a.max(b))
        });
        assert!(r.results.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn change_protocol_swaps_and_reinits() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 2).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            rt.change_protocol(s, noop());
            rt.space(s).proto().name()
        });
        assert!(r.results.iter().all(|&n| n == "noop"));
    }

    #[test]
    #[should_panic(expected = "not known on node")]
    fn access_before_map_panics() {
        run_ace(1, CostModel::free(), |rt| {
            rt.start_read(RegionId::new(0, 99));
        });
    }

    #[test]
    #[should_panic(expected = "collective root 7 is outside the machine's 2 ranks")]
    fn bcast_from_a_root_outside_the_machine_panics() {
        run_ace(2, CostModel::free(), |rt| rt.bcast(7, &[5]));
    }

    #[test]
    #[should_panic(expected = "collective root 2 is outside the machine's 2 ranks")]
    fn gather_at_a_root_outside_the_machine_panics() {
        run_ace(2, CostModel::free(), |rt| rt.gather(2, &[5]));
    }

    #[test]
    #[should_panic(expected = "end_read outside a read section")]
    fn unbalanced_end_read_panics() {
        run_ace(1, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.map(rid);
            rt.end_read(rid);
        });
    }

    #[test]
    fn counters_track_annotation_mix() {
        let r = run_ace(1, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.map(rid);
            for _ in 0..3 {
                rt.start_read(rid);
                rt.end_read(rid);
            }
            rt.start_write(rid);
            rt.end_write(rid);
            rt.unmap(rid);
            rt.counters()
        });
        let c = &r.results[0];
        assert_eq!(c.start_reads, 3);
        assert_eq!(c.start_writes, 1);
        assert_eq!(c.ends, 4);
        assert_eq!(c.map_hits, 1);
        assert_eq!(c.unmaps, 1);
        assert_eq!(c.total_annotations(), 10);
        assert_eq!(c.dispatched, 8);
    }

    /// The table's lengths: pages, then every row of every page.
    fn table_shape(rt: &AceRt) -> (usize, Vec<usize>) {
        let t = rt.regions.borrow();
        (t.pages.len(), t.pages.iter().flatten().flat_map(|p| p.iter().map(Vec::len)).collect())
    }

    #[test]
    fn ids_never_stored_answer_none_and_grow_nothing() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.map(rid);
            rt.start_read(rid);
            rt.end_read(rid);
            let (shape, before) = (table_shape(rt), rt.counters());
            // Null, a home past the machine (and past the first page), a
            // `seq` this rank has not handed out, a peer's never mapped.
            let strangers = [
                RegionId::NULL,
                RegionId::new(2, 0),
                RegionId::new(PAGE_HOMES + 1, 0),
                RegionId::new(rt.rank(), 1),
                RegionId::new(1 - rt.rank(), 0),
            ];
            for id in strangers {
                assert!(rt.lookup(id).is_none(), "{id}");
                assert_eq!(
                    rt.try_lookup(id).err(),
                    Some(AceError::UnknownRegion {
                        region: id,
                        rank: rt.rank(),
                        last_hook: "end_read"
                    })
                );
            }
            assert_eq!(table_shape(rt), shape, "a failed lookup must not grow the table");
            let after = rt.counters();
            // The counters split lookups by outcome, nothing else.
            assert_eq!(after.region_cache_misses - before.region_cache_misses, 10);
            assert_eq!(after.region_cache_hits, before.region_cache_hits);
            assert!(matches!(
                rt.try_space(SpaceId(1)),
                Err(AceError::UnknownSpace { space: SpaceId(1), .. })
            ));
            rt.machine_barrier();
            shape
        });
        // One page; the own row holds one entry, no other row exists.
        for (rank, (pages, rows)) in r.results.iter().enumerate() {
            assert_eq!(*pages, 1);
            assert_eq!(rows.iter().sum::<usize>(), 1);
            assert_eq!(rows[rank], 1);
        }
    }

    #[test]
    fn evicted_id_answers_none_and_remaps_with_a_fresh_fetch() {
        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 1).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            rt.start_read(rid);
            rt.end_read(rid);
            rt.unmap(rid);
            // Homes are never evicted.
            let gone = rt.rank() == 0 || {
                rt.evict(rid);
                rt.lookup(rid).is_none() && rt.try_lookup(rid).is_err()
            };
            rt.map(rid);
            rt.machine_barrier();
            (gone, rt.lookup(rid).is_some(), rt.counters().map_misses)
        });
        assert_eq!(r.results, vec![(true, true, 0), (true, true, 2)]);
    }

    #[test]
    fn tables_iterate_in_id_order_over_four_homes() {
        const PER_HOME: u64 = 3;
        let r = run_ace(4, CostModel::free(), |rt| {
            let (s, other) = (rt.new_space(noop()), rt.new_space(noop()));
            // seq 0 and 2 in `s`, seq 1 in `other`.
            for i in 0..PER_HOME {
                let rid = rt.gmalloc::<u64>(if i == 1 { other } else { s }, 2);
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[1] = rid.0 ^ 0xACE);
                rt.end_write(rid);
            }
            rt.machine_barrier();
            // Map every region of the machine, highest home and `seq` first.
            for home in (0..rt.nprocs()).rev() {
                for seq in (0..PER_HOME).rev() {
                    rt.map(RegionId::new(home, seq));
                }
            }
            rt.machine_barrier();
            let ids = |sid| rt.regions_of_space(sid).iter().map(|e| e.id).collect::<Vec<_>>();
            (ids(s), ids(other), rt.data_digest())
        });
        let in_s: Vec<_> =
            (0..4).flat_map(|h| [RegionId::new(h, 0), RegionId::new(h, 2)]).collect();
        let in_other: Vec<_> = (0..4).map(|h| RegionId::new(h, 1)).collect();
        for (rank, (s, other, digest)) in r.results.iter().enumerate() {
            assert_eq!((s, other), (&in_s, &in_other), "rank {rank}");
            // FNV over this home's regions in id order: id, then contents.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for seq in 0..PER_HOME {
                let id = RegionId::new(rank, seq).0;
                for w in [id, 0, id ^ 0xACE] {
                    h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!(*digest, h, "rank {rank}");
        }
    }

    /// Random `gmalloc` / `map` / evict / `lookup` on three ranks against
    /// a `BTreeMap` per rank. Every rank replays the whole script (so all
    /// agree on which ids exist) and acts on its own steps; a barrier
    /// after each step keeps the others serving metadata requests.
    #[test]
    fn table_agrees_with_a_btreemap_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        use std::collections::BTreeMap;
        for seed in 0..48 {
            let rng = &mut StdRng::seed_from_u64(seed);
            let script: Vec<(usize, u8, u64)> = (0..rng.gen_range(1..60))
                .map(|_| (rng.gen_range(0..3), rng.gen_range(0..4), rng.next_u64()))
                .collect();
            eprintln!("seed {seed}: {script:?}");
            run_ace(3, CostModel::free(), |rt| {
                let s = rt.new_space(noop());
                let me = rt.rank();
                let mut allocated: Vec<RegionId> = Vec::new();
                let mut next_seq = [0u64; 3];
                // What this rank's table should hold: id -> (words, maps).
                let mut model: BTreeMap<u64, (usize, u32)> = BTreeMap::new();
                for &(actor, op, pick) in &script {
                    let target = allocated.get(pick as usize % allocated.len().max(1)).copied();
                    match (op, target) {
                        (0, _) => {
                            let id = RegionId::new(actor, next_seq[actor]);
                            let words = 1 + pick as usize % 5;
                            next_seq[actor] += 1;
                            allocated.push(id);
                            if actor == me {
                                assert_eq!(rt.gmalloc_words(s, words), id);
                                model.insert(id.0, (words, 0));
                            }
                        }
                        (1, Some(id)) if actor == me => {
                            rt.map(id);
                            // The model learns a remote region's size here.
                            let words = rt.entry(id).words;
                            model.entry(id.0).or_insert((words, 0)).1 += 1;
                        }
                        (2, Some(id)) if actor == me && id.home() != me => {
                            if let Some((_, maps)) = model.remove(&id.0) {
                                (0..maps).for_each(|_| rt.unmap(id));
                                rt.evict(id);
                            }
                        }
                        // An id some rank allocated, or one nobody did.
                        (3, _) if actor == me => {
                            let id = match pick % 2 {
                                0 => target.unwrap_or(RegionId::NULL),
                                _ => RegionId(pick),
                            };
                            let got = rt.lookup(id).map(|e| (e.words, e.mapped.get()));
                            assert_eq!(got, model.get(&id.0).copied(), "{id}");
                        }
                        _ => {}
                    }
                    rt.machine_barrier();
                }
                let held: Vec<u64> = rt.regions_of_space(s).iter().map(|e| e.id.0).collect();
                assert_eq!(held, model.keys().copied().collect::<Vec<_>>());
                for id in allocated {
                    assert_eq!(rt.lookup(id).map(|e| e.words), model.get(&id.0).map(|m| m.0));
                }
            });
        }
    }

    /// Like `NoopProtocol`, but declares every maskable hook fast in every
    /// state — exercises the fast-path plumbing end to end.
    struct FastNoop;

    impl Protocol for FastNoop {
        fn name(&self) -> &'static str {
            "fastnoop"
        }
        fn fast_mask(&self, _rt: &AceRt, _e: &RegionEntry) -> Actions {
            Actions::MASKABLE
        }
        fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
        // Local no-ops (the default lock messages the home), so a lock
        // annotation charges exactly its ladder rung.
        fn lock(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn unlock(&self, _rt: &AceRt, _e: &RegionEntry) {}
        fn handle(&self, _rt: &AceRt, _e: &RegionEntry, _msg: ProtoMsg, _src: usize) {}
        fn flush(&self, _rt: &AceRt, _e: &RegionEntry) {}
    }

    /// The whole annotation surface as one table: 6 hooks × {through the
    /// space, statically resolved} × {fast mask on, forced slow}, then
    /// `map` and `unmap` × {fast mask on, forced slow}. Each case pins
    /// what the hook charges on the `cm5()` ladder, the exact counter
    /// delta, `last_hook`, and the trace span it emits.
    #[test]
    fn annotation_matrix_charges_counts_and_spans() {
        use ace_machine::{EventKind, Spmd, TraceConfig};

        const HOOKS: [Hook; 6] = [
            Hook::StartRead,
            Hook::EndRead,
            Hook::StartWrite,
            Hook::EndWrite,
            Hook::Lock,
            Hook::Unlock,
        ];
        let builder = Spmd::builder().nprocs(1).cost(CostModel::cm5()).trace(TraceConfig::on());
        crate::run_ace_with(builder, |rt| {
            let s = rt.new_space(Rc::new(FastNoop));
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.map(rid);
            let stat = FastNoop;
            let sink = rt.node().trace_sink();
            // What the sink recorded since it was last emptied, and the
            // span a hook that ran leaves there.
            let traced =
                || sink.take(0).events.into_iter().map(|ev| ev.kind).collect::<Vec<EventKind>>();
            let span = |hook| {
                let (region, space, proto, detail) = (rid.0, s.0, "fastnoop", "");
                vec![
                    EventKind::HookEnter { hook, region, space, proto, detail },
                    EventKind::HookExit { hook, region, space, proto, detail },
                ]
            };
            for direct in [false, true] {
                for fast_on in [true, false] {
                    rt.set_fast_paths(fast_on);
                    for hook in HOOKS {
                        let case = format!("{} direct={direct} fast_on={fast_on}", hook.name());
                        let before = rt.counters();
                        let t0 = rt.node().now();
                        sink.take(0);
                        match (hook, direct) {
                            (Hook::StartRead, false) => rt.start_read(rid),
                            (Hook::StartRead, true) => rt.start_read_direct(rid, &stat),
                            (Hook::EndRead, false) => rt.end_read(rid),
                            (Hook::EndRead, true) => rt.end_read_direct(rid, &stat),
                            (Hook::StartWrite, false) => rt.start_write(rid),
                            (Hook::StartWrite, true) => rt.start_write_direct(rid, &stat),
                            (Hook::EndWrite, false) => rt.end_write(rid),
                            (Hook::EndWrite, true) => rt.end_write_direct(rid, &stat),
                            (Hook::Lock, false) => rt.lock(rid),
                            (Hook::Lock, true) => rt.lock_direct(rid, &stat),
                            (Hook::Unlock, false) => rt.unlock(rid),
                            (Hook::Unlock, true) => rt.unlock_direct(rid, &stat),
                            _ => unreachable!(),
                        }
                        let after = rt.counters();

                        let mut want = before;
                        match hook {
                            Hook::StartRead => want.start_reads += 1,
                            Hook::StartWrite => want.start_writes += 1,
                            Hook::EndRead | Hook::EndWrite => want.ends += 1,
                            // Locks resolve their region through `ensure_entry`.
                            _ => want.map_hits += 1,
                        }
                        // The mask covers access hooks only: locks always run.
                        let hit = fast_on && !matches!(hook, Hook::Lock | Hook::Unlock);
                        let ns = if hit {
                            want.fast_hits += 1;
                            60
                        } else if direct {
                            want.direct += 1;
                            150
                        } else {
                            want.dispatched += 1;
                            500
                        };
                        // Region-cache traffic is not this table's subject.
                        want.region_cache_hits = after.region_cache_hits;
                        want.region_cache_misses = after.region_cache_misses;
                        assert_eq!(after, want, "{case}: counters");
                        assert_eq!(rt.node().now() - t0, ns, "{case}: charge");
                        assert_eq!(rt.last_hook(), hook.name(), "{case}: last_hook");

                        assert_eq!(traced(), if hit { Vec::new() } else { span(hook) }, "{case}");
                    }
                }
            }
            // `map`: the same mask, but no rung of the ladder — the lookup
            // is charged and the call counted on either path. `unmap`
            // reaches no protocol: it is counted, charges nothing and emits
            // no span, mask or no mask.
            for fast_on in [true, false] {
                rt.set_fast_paths(fast_on);
                for hook in [Hook::Map, Hook::Unmap] {
                    let case = format!("{} fast_on={fast_on}", hook.name());
                    let (mut want, t0) = (rt.counters(), rt.node().now());
                    sink.take(0);
                    let (ns, hit) = if hook == Hook::Map {
                        rt.map(rid);
                        want.map_hits += 1;
                        want.fast_maps += fast_on as u64;
                        (700, fast_on)
                    } else {
                        rt.unmap(rid);
                        want.unmaps += 1;
                        (0, true)
                    };
                    let after = rt.counters();
                    want.region_cache_hits = after.region_cache_hits;
                    assert_eq!(after, want, "{case}: counters");
                    assert_eq!(rt.node().now() - t0, ns, "{case}: charge");
                    assert_eq!(rt.last_hook(), hook.name(), "{case}: last_hook");
                    assert_eq!(traced(), if hit { Vec::new() } else { span(hook) }, "{case}");
                }
            }
        });
    }

    /// A protocol that never mentions the mask (`examples/custom_protocol.rs`
    /// minus its `fast_mask`): every annotation dispatches, nothing is ever
    /// fast, and the data still arrives.
    #[test]
    fn protocol_without_a_mask_stays_slow_and_correct() {
        const VALID: u32 = 2;
        const FETCHING: u32 = 4;
        struct Maskless;
        impl Protocol for Maskless {
            fn name(&self) -> &'static str {
                "Maskless"
            }
            fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
                if !e.is_home_of(rt.rank()) && e.st.get() == REMOTE_INVALID {
                    e.st.set(FETCHING);
                    rt.send_proto(e.id.home(), e.id, 1, 0, None);
                    rt.wait("maskless fetch", || e.st.get() == VALID);
                }
            }
            fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
            fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
            fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
            fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, _src: usize) {
                match msg.op {
                    1 => rt.send_proto(msg.from as usize, e.id, 2, 0, Some(e.share_data())),
                    _ => {
                        e.install_shared(msg.data.expect("reply carries data"));
                        e.st.set(VALID);
                    }
                }
            }
            fn flush(&self, _rt: &AceRt, _e: &RegionEntry) {}
        }

        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(Rc::new(Maskless));
            if rt.rank() == 0 {
                let rid = rt.gmalloc::<u64>(s, 1);
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] = 9);
                rt.end_write(rid);
            }
            rt.machine_barrier();
            let rid = RegionId::new(0, 0);
            rt.map(rid);
            let mut sum = 0;
            for _ in 0..10 {
                rt.start_read(rid);
                sum += rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
            }
            assert_eq!(rt.entry(rid).fast.get(), Actions::empty());
            let c = rt.counters();
            (sum, c.fast_hits, c.dispatched)
        });
        assert_eq!(r.results[0], (90, 0, 22));
        assert_eq!(r.results[1], (90, 0, 20));
    }

    #[test]
    fn fast_mask_absorbs_accesses_and_escape_hatch_restores_dispatch() {
        let r = run_ace(1, CostModel::cm5(), |rt| {
            let s = rt.new_space(Rc::new(FastNoop));
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.map(rid);
            let t0 = rt.node().now();
            rt.start_read(rid);
            rt.end_read(rid);
            let fast_elapsed = rt.node().now() - t0;
            let hook_after_fast = rt.last_hook();

            rt.set_fast_paths(false);
            let t1 = rt.node().now();
            rt.start_write(rid);
            rt.end_write(rid);
            let slow_elapsed = rt.node().now() - t1;
            rt.set_fast_paths(true);

            (rt.counters(), fast_elapsed, slow_elapsed, hook_after_fast)
        });
        let (c, fast_elapsed, slow_elapsed, hook_after_fast) = r.results[0].clone();
        assert_eq!(c.fast_hits, 2, "read pair absorbed by the mask");
        assert_eq!(c.dispatched, 2, "forced-slow write pair dispatches");
        assert_eq!(c.start_reads, 1);
        assert_eq!(c.ends, 2);
        assert!(
            fast_elapsed < slow_elapsed,
            "fast pair must be cheaper: {fast_elapsed} vs {slow_elapsed}"
        );
        assert_eq!(hook_after_fast, "end_read", "fast path still tracks last_hook");
    }

    #[test]
    fn error_diagnostics_carry_last_hook() {
        let r = run_ace(1, CostModel::free(), |rt| {
            let s = rt.new_space(noop());
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.map(rid);
            rt.start_read(rid);
            rt.end_read(rid);
            let err = rt.try_lookup(RegionId::new(0, 42)).err().unwrap();
            (rt.last_hook(), err.to_string())
        });
        let (hook, msg) = r.results[0].clone();
        assert_eq!(hook, "end_read");
        assert!(msg.contains("last hook: end_read"), "{msg}");
    }
}
