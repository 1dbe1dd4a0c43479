//! Fast-mask invariant tests.
//!
//! The contract of [`RegionEntry::fast`] is: a set bit promises that
//! running the corresponding hook *right now* would neither send a
//! message nor mutate any entry or space state — which is exactly what
//! licenses the runtime to skip the hook. These tests drive each protocol
//! into its interesting states and, at every checkpoint, invoke each hook
//! whose fast bit is set — `on_map` and `on_unmap` as much as the four
//! access hooks — directly on the protocol object, asserting that a full
//! snapshot of the observable state is unchanged.
//!
//! No protocol writes the mask: it declares [`Protocol::fast_mask`] and the
//! runtime caches the value. So every checkpoint also asserts the cache is
//! current — `e.fast.get() == p.fast_mask(rt, &e)` — which is the whole
//! invariant: the cached mask is the function of the state.
//!
//! A hook a protocol registers in `null_actions()` makes the stronger
//! promise — a no-op in *every* state, which is what licenses the
//! compiler to delete the call — so the same fixtures, run once more per
//! registered protocol, hold the null declarations to the same snapshot.

use ace_core::{run_ace, AceRt, Actions, CostModel, Protocol, RegionEntry, RegionId};
use std::rc::Rc;

use crate::registry::{all_protocols, make, ProtoSpec};

/// Everything a no-op hook must leave untouched.
#[derive(Debug, PartialEq)]
struct Snap {
    st: u32,
    aux: u64,
    sharers: u64,
    owner: i32,
    pending: u32,
    blocked: usize,
    twin: Option<Vec<u64>>,
    data: Vec<u64>,
    fast: Actions,
    msgs_sent: u64,
    outstanding: u64,
}

fn snap(rt: &AceRt, e: &RegionEntry) -> Snap {
    Snap {
        st: e.st.get(),
        aux: e.aux.get(),
        sharers: e.sharers.fingerprint(),
        owner: e.owner.get(),
        pending: e.pending.get(),
        blocked: e.blocked.borrow().len(),
        twin: e.twin.borrow().as_ref().map(|t| t.to_vec()),
        data: e.data.borrow().to_vec(),
        fast: e.fast.get(),
        msgs_sent: rt.node().stats().logical_msgs,
        outstanding: rt.space(e.space).outstanding.get(),
    }
}

/// Which promise a fixture's checkpoints hold the protocol to.
#[derive(Clone, Copy)]
enum Check {
    /// The hooks in the region's current fast mask.
    Fast,
    /// The hooks the protocol declares null.
    Null,
}

/// Run every hook `check` selects and assert the snapshot is bit-identical
/// afterwards, and that the cached mask is what the protocol declares for
/// the state the entry is in.
fn assert_noops(check: Check, rt: &AceRt, p: &dyn Protocol, rid: RegionId, ctx: &str) {
    assert_noops_but(Actions::empty(), check, rt, p, rid, ctx);
}

/// The write hooks: what [`assert_noops_but`] skips on a node the
/// protocol's usage contract never lets write (the home-written protocols
/// debug-assert exactly that in `start_write`).
const WRITES: Actions = Actions(Actions::START_WRITE.0 | Actions::END_WRITE.0);

/// [`assert_noops`] minus the hooks in `skip`.
fn assert_noops_but(
    skip: Actions,
    check: Check,
    rt: &AceRt,
    p: &dyn Protocol,
    rid: RegionId,
    ctx: &str,
) {
    type HookFn = fn(&dyn Protocol, &AceRt, &RegionEntry);
    let hooks: [(Actions, &str, HookFn); 6] = [
        (Actions::MAP, "on_map", |p, rt, e| p.on_map(rt, e)),
        (Actions::UNMAP, "on_unmap", |p, rt, e| p.on_unmap(rt, e)),
        (Actions::START_READ, "start_read", |p, rt, e| p.start_read(rt, e)),
        (Actions::END_READ, "end_read", |p, rt, e| p.end_read(rt, e)),
        (Actions::START_WRITE, "start_write", |p, rt, e| p.start_write(rt, e)),
        (Actions::END_WRITE, "end_write", |p, rt, e| p.end_write(rt, e)),
    ];
    let e = rt.entry(rid);
    assert_eq!(e.fast.get(), p.fast_mask(rt, &e), "{ctx}: cached mask is stale");
    let (mask, promise) = match check {
        Check::Fast => {
            let mask = e.fast.get();
            assert_ne!(mask, Actions::empty(), "{ctx}: expected some fast bits");
            (mask, "fast bit set")
        }
        Check::Null => (p.null_actions(), "declared null"),
    };
    for (bit, name, hook) in hooks {
        if !mask.contains(bit) || skip.contains(bit) {
            continue;
        }
        let before = snap(rt, &e);
        hook(p, rt, &e);
        let after = snap(rt, &e);
        assert_eq!(before, after, "{ctx}: {name} {promise} but the hook was not a no-op");
    }
}

/// A fixture: drives one protocol through its interesting states on a
/// 2-rank machine, calling [`assert_noops`] at each.
type Fixture = fn(&AceRt, Rc<dyn Protocol>, Check);

fn run_fixture(spec: ProtoSpec, check: Check) {
    let states = fixture(spec).expect("protocol has a fixture");
    run_ace(2, CostModel::free(), |rt| states(rt, make(spec), check));
}

fn shared_region(rt: &AceRt, p: Rc<dyn Protocol>, words: usize) -> RegionId {
    crate::shared_region(rt, p, words).1
}

/// The fixture for each registered protocol; exhaustive, so registering
/// a protocol means writing one. `None` for the adaptive engine, which
/// delegates to whichever of the others it installed and declares nothing
/// null itself.
fn fixture(spec: ProtoSpec) -> Option<Fixture> {
    Some(match spec {
        ProtoSpec::Sc => seq_inv_states,
        ProtoSpec::DynUpdate => dyn_update_states,
        ProtoSpec::StaticUpdate => static_update_states,
        ProtoSpec::Null => null_states,
        ProtoSpec::Migratory => migratory_states,
        ProtoSpec::Pipelined => pipelined_states,
        ProtoSpec::HomeOwned => home_owned_states,
        ProtoSpec::FetchAdd(_) => counter_states,
        ProtoSpec::Adaptive(_) => return None,
    })
}

#[test]
fn null_actions_are_really_null() {
    for info in all_protocols() {
        if fixture(info.spec).is_some() {
            run_fixture(info.spec, Check::Null);
        } else {
            assert_eq!(info.null_actions, Actions::empty(), "{}", info.name);
        }
    }
}

fn null_states(rt: &AceRt, p: Rc<dyn Protocol>, check: Check) {
    let rid = shared_region(rt, p.clone(), 2);
    assert_noops(check, rt, &*p, rid, "null (either side)");
    rt.machine_barrier();
}

#[test]
fn null_fast_bits_are_noops() {
    run_fixture(ProtoSpec::Null, Check::Fast);
}

fn counter_states(rt: &AceRt, p: Rc<dyn Protocol>, check: Check) {
    let rid = shared_region(rt, p.clone(), 1);
    rt.machine_barrier();
    rt.lock(rid);
    rt.start_read(rid);
    let t = rt.with::<u64, _>(rid, |d| d[0]);
    rt.end_read(rid);
    rt.start_write(rid);
    rt.with_mut::<u64, _>(rid, |d| d[0] = t + 1);
    rt.end_write(rid);
    rt.unlock(rid);
    assert_noops(check, rt, &*p, rid, "counter after a ticket");
    rt.machine_barrier();
}

#[test]
fn counter_fast_bits_are_noops() {
    run_fixture(ProtoSpec::FetchAdd(1), Check::Fast);
}

fn seq_inv_states(rt: &AceRt, p: Rc<dyn Protocol>, check: Check) {
    let rid = shared_region(rt, p.clone(), 1);
    rt.machine_barrier();
    if rt.rank() == 0 {
        assert_noops(check, rt, &*p, rid, "sc home quiescent");
    }
    rt.machine_barrier();
    if rt.rank() == 1 {
        rt.start_read(rid);
        rt.with::<u64, _>(rid, |d| d[0]);
        rt.end_read(rid);
        assert_noops(check, rt, &*p, rid, "sc remote shared");
    }
    rt.machine_barrier();
    if rt.rank() == 0 {
        assert_noops(check, rt, &*p, rid, "sc home with a sharer");
    }
    rt.machine_barrier();
    if rt.rank() == 1 {
        rt.start_write(rid);
        rt.with_mut::<u64, _>(rid, |d| d[0] = 7);
        rt.end_write(rid);
        assert_noops(check, rt, &*p, rid, "sc remote exclusive");
    }
    rt.machine_barrier();
}

#[test]
fn seq_inv_fast_bits_are_noops() {
    run_fixture(ProtoSpec::Sc, Check::Fast);
}

fn dyn_update_states(rt: &AceRt, p: Rc<dyn Protocol>, check: Check) {
    let rid = shared_region(rt, p.clone(), 1);
    rt.machine_barrier();
    if rt.rank() == 0 {
        assert_noops(check, rt, &*p, rid, "dyn-update home");
    }
    rt.machine_barrier();
    if rt.rank() == 1 {
        rt.start_read(rid);
        rt.with::<u64, _>(rid, |d| d[0]);
        rt.end_read(rid);
        assert_noops(check, rt, &*p, rid, "dyn-update joined sharer");
    }
    rt.machine_barrier();
    map_joins_once(rt, p, check, rid, "dyn-update");
}

/// The one state `on_map` has work in under the update protocols: a
/// non-home entry with no copy, here an unmapped one a handover left
/// behind. `MAP` must be out of its mask; the `map` there is the message
/// that puts this node on home's list, and from then on `MAP` is in the
/// mask and a `map` is silent. Collective.
fn map_joins_once(rt: &AceRt, p: Rc<dyn Protocol>, check: Check, rid: RegionId, who: &str) {
    let e = rt.entry(rid);
    rt.unmap(rid);
    rt.change_protocol(e.space, p.clone());
    let sent = || rt.node().stats().logical_msgs;
    if rt.rank() == 1 {
        assert_eq!(e.st.get(), crate::states::R_INVALID, "{who}: flushed and not re-joined");
        assert_eq!(e.fast.get(), p.fast_mask(rt, &e), "{who}: cached mask is stale");
        assert!(!e.fast.get().contains(Actions::MAP), "{who}: on_map has a join to make");
        assert!(e.fast.get().contains(Actions::UNMAP));
        let before = sent();
        rt.map(rid);
        assert_eq!(sent() - before, 1, "{who}: the map joined");
        assert!(e.fast.get().contains(Actions::MAP), "{who}: joined, nothing left to do");
        let before = (sent(), rt.counters().fast_maps);
        rt.map(rid);
        rt.unmap(rid);
        assert_eq!((sent(), rt.counters().fast_maps), (before.0, before.1 + 2));
        assert_noops_but(WRITES, check, rt, &*p, rid, &format!("{who} re-joined sharer"));
    } else {
        rt.map(rid);
    }
    rt.machine_barrier();
}

#[test]
fn dyn_update_fast_bits_are_noops() {
    run_fixture(ProtoSpec::DynUpdate, Check::Fast);
}

fn static_update_states(rt: &AceRt, p: Rc<dyn Protocol>, check: Check) {
    let rid = shared_region(rt, p.clone(), 1);
    rt.machine_barrier();
    if rt.rank() == 0 {
        assert_noops(check, rt, &*p, rid, "static-update home");
    } else {
        assert_noops_but(WRITES, check, rt, &*p, rid, "static-update subscriber");
    }
    rt.machine_barrier();
    map_joins_once(rt, p, check, rid, "static-update");
}

#[test]
fn static_update_fast_bits_are_noops() {
    run_fixture(ProtoSpec::StaticUpdate, Check::Fast);
}

fn home_owned_states(rt: &AceRt, p: Rc<dyn Protocol>, check: Check) {
    let rid = shared_region(rt, p.clone(), 2);
    rt.machine_barrier();
    if rt.rank() == 0 {
        assert_noops(check, rt, &*p, rid, "home-owned home");
    } else {
        // Before the first pull the copy is invalid: starts are slow.
        assert!(!rt.entry(rid).fast.get().contains(Actions::START_READ));
        rt.start_read(rid);
        rt.with::<u64, _>(rid, |d| d[0]);
        rt.end_read(rid);
        assert_noops_but(WRITES, check, rt, &*p, rid, "home-owned consumer with copy");
    }
    rt.machine_barrier();
}

#[test]
fn home_owned_fast_bits_are_noops() {
    run_fixture(ProtoSpec::HomeOwned, Check::Fast);
}

fn migratory_states(rt: &AceRt, p: Rc<dyn Protocol>, check: Check) {
    let rid = shared_region(rt, p.clone(), 1);
    rt.machine_barrier();
    if rt.rank() == 0 {
        assert_noops(check, rt, &*p, rid, "migratory home, master quiescent");
    }
    rt.machine_barrier();
    if rt.rank() == 1 {
        rt.start_write(rid);
        rt.with_mut::<u64, _>(rid, |d| d[0] += 1);
        rt.end_write(rid);
        assert_noops(check, rt, &*p, rid, "migratory remote owner");
    }
    rt.machine_barrier();
    if rt.rank() == 0 {
        // Remote holds the copy: starts must be slow (they recall),
        // ends stay fast (nothing parked).
        let mask = rt.entry(rid).fast.get();
        assert!(!mask.contains(Actions::START_READ));
        assert!(mask.contains(Actions::END_READ));
        assert_noops(check, rt, &*p, rid, "migratory home, copy away");
    }
    rt.machine_barrier();
    // The state an end hook has work in: the owner is inside a section
    // when home recalls the copy, so the write-back waits for the end.
    if rt.rank() == 1 {
        rt.start_write(rid);
        rt.with_mut::<u64, _>(rid, |d| d[0] += 1);
        rt.machine_barrier();
        let e = rt.entry(rid);
        rt.wait("recall lands mid-section", || !e.fast.get().contains(Actions::END_WRITE));
        assert_eq!(
            e.fast.get().intersect(Actions::ACCESS),
            Actions::empty(),
            "no access is fast under a pending recall"
        );
        assert_eq!(e.fast.get(), p.fast_mask(rt, &e), "cache current after a handler");
        // An end hook runs with its section already closed (`annotate`
        // counts the close first): hold the null hooks to that state.
        e.write_active.set(0);
        assert_noops(Check::Null, rt, &*p, rid, "migratory owner, recall pending");
        e.write_active.set(1);
        rt.end_write(rid);
    } else {
        rt.machine_barrier();
        rt.start_read(rid);
        assert_eq!(rt.with::<u64, _>(rid, |d| d[0]), 2, "the recalled copy came home");
        rt.end_read(rid);
    }
    rt.machine_barrier();
}

#[test]
fn migratory_fast_bits_are_noops() {
    run_fixture(ProtoSpec::Migratory, Check::Fast);
}

fn pipelined_states(rt: &AceRt, p: Rc<dyn Protocol>, check: Check) {
    let rid = shared_region(rt, p.clone(), 1);
    rt.machine_barrier();
    if rt.rank() == 0 {
        assert_noops(check, rt, &*p, rid, "pipelined home");
    } else {
        rt.start_read(rid);
        rt.with::<f64, _>(rid, |d| d[0]);
        rt.end_read(rid);
        // Copy resident but no twin yet: reads fast, writes slow.
        let mask = rt.entry(rid).fast.get();
        assert!(mask.contains(Actions::START_READ));
        assert!(!mask.contains(Actions::START_WRITE));
        assert_noops(check, rt, &*p, rid, "pipelined reader with copy");

        rt.start_write(rid);
        rt.with_mut::<f64, _>(rid, |d| d[0] += 1.0);
        rt.end_write(rid);
        // Twin in place: start_write joins the fast set; end_write
        // stays slow (it ships a delta home).
        let mask = rt.entry(rid).fast.get();
        assert!(mask.contains(Actions::START_WRITE));
        assert!(!mask.contains(Actions::END_WRITE));
        assert_noops(check, rt, &*p, rid, "pipelined writer with twin");
    }
    rt.machine_barrier();
}

#[test]
fn pipelined_fast_bits_are_noops() {
    run_fixture(ProtoSpec::Pipelined, Check::Fast);
}

/// The barrier-time invalidation changes entries from outside any callback
/// on them; the cache must follow (it is the one caller of
/// `AceRt::rederive_fast`).
#[test]
fn barrier_invalidation_recaches_the_mask() {
    for spec in [ProtoSpec::HomeOwned, ProtoSpec::Pipelined] {
        run_ace(2, CostModel::free(), |rt| {
            let p = make(spec);
            let (s, rid) = crate::shared_region(rt, p.clone(), 1);
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
/// protocol, on both sides of the handover.
#[test]
fn handover_recaches_the_mask() {
    run_ace(2, CostModel::free(), |rt| {
        let (s, rid) = crate::shared_region(rt, make(ProtoSpec::Sc), 1);
        rt.start_read(rid);
        rt.end_read(rid);
        for spec in [ProtoSpec::Null, ProtoSpec::DynUpdate, ProtoSpec::Migratory, ProtoSpec::Sc] {
            let p = make(spec);
            rt.change_protocol(s, p.clone());
            let e = rt.entry(rid);
            assert_eq!(e.fast.get(), p.fast_mask(rt, &e), "{}: stale after adopt", p.name());
        }
    });
}

/// A protocol that never mentions the mask (`examples/custom_protocol.rs`
/// minus its `fast_mask`): every annotation dispatches, nothing is ever
/// fast, and the data still arrives.
#[test]
fn protocol_without_a_mask_stays_slow_and_correct() {
    use crate::states::{R_INVALID, R_SHARED, R_WAIT_READ};
    use ace_core::ProtoMsg;

    struct Maskless;
    impl Protocol for Maskless {
        fn name(&self) -> &'static str {
            "Maskless"
        }
        fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
            if !e.is_home_of(rt.rank()) && e.st.get() == R_INVALID {
                e.st.set(R_WAIT_READ);
                rt.send_proto(e.id.home(), e.id, 1, 0, None);
                rt.wait("maskless fetch", || e.st.get() == R_SHARED);
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
                    e.st.set(R_SHARED);
                }
            }
        }
        fn flush(&self, _rt: &AceRt, _e: &RegionEntry) {}
    }

    let r = run_ace(2, CostModel::free(), |rt| {
        let (_, rid) = crate::shared_region(rt, Rc::new(Maskless), 1);
        if rt.rank() == 0 {
            rt.start_write(rid);
            rt.with_mut::<u64, _>(rid, |d| d[0] = 9);
            rt.end_write(rid);
        }
        rt.machine_barrier();
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
