//! The fast-mask contract, audited in every state small programs reach. A
//! bit of [`RegionEntry::fast`] promises that its hook, run now, sends and
//! changes nothing, so the runtime skips it; a hook in
//! [`Protocol::null_actions`] promises that in every state, so the compiler
//! deletes it. After each thing a rank of a seeded program does, it audits
//! every entry of the space: the cached mask is the declared one, and every
//! hook the mask or the null set names leaves the entry, its space and the
//! node's counters as they were. Seeds are swept, not sampled, and a sweep
//! must reach every state of [`states`] with the mask bits listed there.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ace_core::{run_ace, AceRt, Actions, CostModel, Protocol, RegionEntry, RegionId, SpaceId};
use ace_protocols::auxbits::{BUSY, INV_PENDING, LISTED, RECALL_PENDING, WANTED};
use ace_protocols::registry::all_protocols;
use ace_protocols::states::{R_EXCL, R_INVALID, R_SHARED};
use ace_protocols::{make, ProtoSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Seeds swept per protocol: `0..SEEDS`.
const SEEDS: u64 = 256;

const NONE: Actions = Actions(0);
const STARTS: Actions = Actions(Actions::START_READ.0 | Actions::START_WRITE.0);
const ENDS: Actions = Actions(Actions::END_READ.0 | Actions::END_WRITE.0);
const WRITES: Actions = Actions(Actions::START_WRITE.0 | Actions::END_WRITE.0);

type Hook = fn(&dyn Protocol, &AceRt, &RegionEntry);
/// Every hook a fast mask or a null declaration can name.
const HOOKS: [(Actions, &str, Hook); 7] = [
    (Actions::MAP, "on_map", |p, rt, e| p.on_map(rt, e)),
    (Actions::START_READ, "start_read", |p, rt, e| p.start_read(rt, e)),
    (Actions::END_READ, "end_read", |p, rt, e| p.end_read(rt, e)),
    (Actions::START_WRITE, "start_write", |p, rt, e| p.start_write(rt, e)),
    (Actions::END_WRITE, "end_write", |p, rt, e| p.end_write(rt, e)),
    (Actions::LOCK, "lock", |p, rt, e| p.lock(rt, e)),
    (Actions::UNLOCK, "unlock", |p, rt, e| p.unlock(rt, e)),
];

/// Everything a no-op hook leaves as it was, as a failure names it.
fn state(rt: &AceRt, e: &RegionEntry) -> String {
    let names = ["BUSY", "INV_PENDING", "RECALL_PENDING", "WANTED", "LISTED"];
    let set = [BUSY, INV_PENDING, RECALL_PENDING, WANTED, LISTED].map(|b| e.aux.get() & b != 0);
    let aux: Vec<_> = names.iter().zip(set).filter_map(|(n, on)| on.then_some(n)).collect();
    format!(
        "{} st {} aux {:#x} {aux:?} owner {} sharers {:#x} pending {} parked {} mapped {} \
         open r{} w{} twin {:?} data {:?} fast {:?} outstanding {} {:?}",
        if e.is_home_of(rt.rank()) { "home" } else { "remote" },
        e.st.get(),
        e.aux.get(),
        e.owner.get(),
        e.sharers.fingerprint(),
        e.pending.get(),
        e.blocked.borrow().len(),
        e.mapped.get(),
        e.read_active.get(),
        e.write_active.get(),
        e.twin.borrow().as_deref(),
        &**e.data.borrow(),
        e.fast.get(),
        rt.space(e.space).outstanding.get(),
        rt.counters()
    )
}

/// A coverage state's view of an entry: is the auditing rank its home, has it
/// accessed it, and did a handover leave it invalid and unmapped there?
struct Seen<'e> {
    e: &'e RegionEntry,
    home: bool,
    touched: bool,
    left: bool,
}

impl Seen<'_> {
    /// The mask holds every hook of `fast` and none of `slow`.
    fn bits(&self, fast: Actions, slow: Actions) -> bool {
        self.e.fast.get().contains(fast) && self.e.fast.get().intersect(slow) == NONE
    }

    fn remote(&self, st: u32) -> bool {
        !self.home && self.e.st.get() == st
    }

    fn master(&self) -> bool {
        self.home && self.e.owner.get() == -1
    }
}

type State = (&'static str, fn(&Seen) -> bool);

/// The states a sweep of `spec` must reach, with the mask bits each must
/// show: those the hand-written fixtures this audit replaced drove each
/// protocol into, and the bits they asserted there.
fn states(spec: ProtoSpec) -> Vec<State> {
    use Actions as A;
    match spec {
        ProtoSpec::Sc => vec![
            ("home, no sharer", |s| s.master() && s.e.sharers.is_empty() && s.bits(STARTS, NONE)),
            ("home with a sharer", |s| {
                s.master() && !s.e.sharers.is_empty() && s.bits(A::START_READ, A::START_WRITE)
            }),
            ("remote shared", |s| s.remote(R_SHARED) && s.bits(A::START_READ, A::START_WRITE)),
            ("remote exclusive", |s| s.remote(R_EXCL) && s.bits(STARTS, NONE)),
        ],
        ProtoSpec::DynUpdate | ProtoSpec::StaticUpdate => vec![
            ("home", |s| s.home && s.bits(A::MAP, NONE)),
            ("a joined remote", |s| s.remote(R_SHARED) && s.bits(A::MAP, NONE)),
            ("a remote a handover left invalid and unmapped", |s| {
                s.remote(R_INVALID) && s.e.mapped.get() == 0 && s.bits(NONE, A::MAP)
            }),
            ("that remote mapped again", |s| s.left && s.remote(R_SHARED) && s.bits(A::MAP, NONE)),
        ],
        ProtoSpec::HomeOwned => vec![
            ("home", |s| s.home && s.bits(A::START_READ, NONE)),
            ("a remote before its first pull", |s| {
                !s.touched && s.remote(R_INVALID) && s.bits(NONE, A::START_READ)
            }),
            ("a remote holding a copy", |s| s.remote(R_SHARED) && s.bits(A::START_READ, NONE)),
        ],
        ProtoSpec::Migratory => vec![
            ("home holding the master", |s| s.master() && s.bits(STARTS, NONE)),
            ("home with the copy away", |s| {
                s.home && !s.master() && s.bits(A::END_READ, A::START_READ)
            }),
            ("the remote owner", |s| s.remote(R_EXCL) && s.bits(STARTS, NONE)),
            ("the remote owner with RECALL_PENDING inside a section", |s| {
                s.e.aux.get() & RECALL_PENDING != 0 && s.e.busy() && s.bits(STARTS, ENDS)
            }),
        ],
        ProtoSpec::Pipelined => vec![
            ("home", |s| s.home && s.bits(A::ACCESS, NONE)),
            ("a remote with a copy and no twin", |s| {
                s.remote(R_SHARED) && s.e.twin.borrow().is_none() && s.bits(A::START_READ, WRITES)
            }),
            ("a remote with a twin", |s| {
                !s.home && s.e.twin.borrow().is_some() && s.bits(A::START_WRITE, A::END_WRITE)
            }),
        ],
        ProtoSpec::Null | ProtoSpec::FetchAdd => {
            vec![("a remote after an access", |s| {
                !s.home && s.touched && s.bits(A::MASKABLE, NONE)
            })]
        }
        ProtoSpec::Adaptive(_) => unreachable!("the adaptive engine declares nothing itself"),
    }
}

/// Whether `spec`'s regions are written only at their home (the usage
/// contract these protocols assert).
fn home_written(spec: ProtoSpec) -> bool {
    matches!(spec, ProtoSpec::StaticUpdate | ProtoSpec::HomeOwned | ProtoSpec::Null)
}

/// One step of a rank's program; a `usize` picks one of the two regions.
#[derive(Clone, Copy, Debug)]
enum Step {
    Map(usize),
    Unmap(usize),
    Read(usize),
    Write(usize),
    /// A write section on region 0 with a read section on region 1 inside.
    Nested,
    LockWrite(usize),
    /// Collective, as `Handover` is: at the same index on every rank.
    Barrier,
    Handover,
}

/// A program: the seed it is named by in a failure, the two regions' homes
/// in region-id order, and each rank's steps. Both regions are mapped on
/// every rank before the first step.
struct Program {
    seed: u64,
    homes: [usize; 2],
    steps: Vec<Vec<Step>>,
}

/// Seed `seed`'s program for `spec`. Sections and locks touch only mapped
/// regions, nest only in region-id order and hold no lock inside, so no
/// program can wait in a cycle; writes keep `spec`'s usage contract.
fn program(spec: ProtoSpec, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let nprocs = rng.gen_range(2..4);
    let mut homes = [rng.gen_range(0..nprocs), rng.gen_range(0..nprocs)];
    homes.sort_unstable();
    let (mut steps, mut maps) = (vec![Vec::new(); nprocs], vec![[1u32; 2]; nprocs]);
    for _ in 0..rng.gen_range(3..7) {
        if rng.gen_range(0..4) == 0 {
            let c = if rng.gen_bool(0.5) { Step::Barrier } else { Step::Handover };
            steps.iter_mut().for_each(|s| s.push(c));
            continue;
        }
        for (r, (s, maps)) in steps.iter_mut().zip(&mut maps).enumerate() {
            let i = rng.gen_range(0..2);
            let writes = |i: usize| homes[i] == r || !home_written(spec);
            let step = match rng.gen_range(0..6) {
                0 => Step::Map(i),
                1 if maps[i] > 0 => Step::Unmap(i),
                _ if maps[i] == 0 => Step::Map(i),
                // FetchAdd's contract: accesses only between lock and unlock.
                _ if matches!(spec, ProtoSpec::FetchAdd) => Step::LockWrite(i),
                3 if writes(i) => Step::Write(i),
                4 if writes(0) && maps[1 - i] > 0 => Step::Nested,
                5 if writes(i) => Step::LockWrite(i),
                _ => Step::Read(i),
            };
            match step {
                Step::Map(i) => maps[i] += 1,
                Step::Unmap(i) => maps[i] -= 1,
                _ => {}
            }
            s.push(step);
        }
    }
    Program { seed, homes, steps }
}

/// Entries audited, hooks called, and the [`states`] reached (bit `k`).
#[derive(Default)]
struct Tally {
    entries: u64,
    hooks: u64,
    reached: u64,
}

impl std::iter::Sum for Tally {
    fn sum<I: Iterator<Item = Tally>>(it: I) -> Tally {
        it.fold(Tally::default(), |t, r| Tally {
            entries: t.entries + r.entries,
            hooks: t.hooks + r.hooks,
            reached: t.reached | r.reached,
        })
    }
}

/// One rank running one program, auditing after everything it does.
struct Auditor<'a> {
    rt: &'a AceRt<'a>,
    spec: ProtoSpec,
    /// The declared-null set to hold the protocol to; its own if `None`.
    null: Option<Actions>,
    seed: u64,
    sid: SpaceId,
    rids: [RegionId; 2],
    /// Per region: (this rank accessed it, a handover left it here unmapped).
    seen: [(bool, bool); 2],
    tally: Tally,
}

impl Auditor<'_> {
    fn then(&mut self, f: impl FnOnce(&AceRt)) {
        f(self.rt);
        let (rt, p) = (self.rt, self.rt.space(self.sid).proto());
        let null = self.null.unwrap_or_else(|| p.null_actions());
        for e in rt.regions_of_space(self.sid) {
            let (home, mask) = (e.is_home_of(rt.rank()), e.fast.get());
            let at = format!("seed {}: {} ({})", self.seed, e.id, state(rt, &e));
            assert_eq!(mask, p.fast_mask(rt, &e), "{at}: the cached mask is stale");
            let (touched, left) = &mut self.seen[usize::from(e.id == self.rids[1])];
            *left |= !home && e.st.get() == R_INVALID && e.mapped.get() == 0;
            let seen = Seen { e: &e, home, touched: *touched, left: *left };
            for (k, (_, reached)) in states(self.spec).iter().enumerate() {
                self.tally.reached |= u64::from(reached(&seen)) << k;
            }
            for (bit, name, hook) in HOOKS {
                let writes = home || !home_written(self.spec) || !WRITES.contains(bit);
                if !writes || !mask.union(null).contains(bit) {
                    continue;
                }
                // Called as `annotate` calls it: an end hook after the close.
                let open =
                    [(Actions::END_READ, &e.read_active), (Actions::END_WRITE, &e.write_active)];
                let open = open.into_iter().find(|&(b, n)| b == bit && n.get() > 0).map(|o| o.1);
                open.inspect(|n| n.set(n.get() - 1));
                let before = state(rt, &e);
                hook(&*p, rt, &e);
                let after = state(rt, &e);
                open.inspect(|n| n.set(n.get() + 1));
                let promise = if mask.contains(bit) { "is fast" } else { "is declared null" };
                assert_eq!(before, after, "{at}: {name} {promise} but is not a no-op");
                self.tally.hooks += 1;
            }
            self.tally.entries += 1;
        }
    }

    /// A read or write section on region `i`.
    fn section(&mut self, i: usize, write: bool) {
        let r = self.rids[i];
        self.seen[i].0 = true;
        self.then(|rt| if write { rt.start_write(r) } else { rt.start_read(r) });
        self.then(|rt| if write { rt.end_write(r) } else { rt.end_read(r) });
    }

    fn step(&mut self, step: Step) {
        let (rids, sid, spec) = (self.rids, self.sid, self.spec);
        match step {
            Step::Map(i) => self.then(|rt| rt.map(rids[i])),
            Step::Unmap(i) => self.then(|rt| rt.unmap(rids[i])),
            Step::Read(i) => self.section(i, false),
            Step::Write(i) => self.section(i, true),
            Step::Nested => {
                self.seen[0].0 = true;
                self.then(|rt| rt.start_write(rids[0]));
                self.section(1, false);
                self.then(|rt| rt.end_write(rids[0]));
            }
            Step::LockWrite(i) => {
                self.then(|rt| rt.lock(rids[i]));
                self.section(i, true);
                self.then(|rt| rt.unlock(rids[i]));
            }
            Step::Barrier => self.then(|rt| rt.barrier(sid)),
            Step::Handover => self.then(|rt| rt.change_protocol(sid, make(spec))),
        }
    }
}

/// Run `prog` on `spec` under the audit, holding the protocol to the
/// declared-null set `null` (its own if `None`). A failure stops the program
/// and comes back as its message.
fn audited(spec: ProtoSpec, null: Option<Actions>, prog: &Program) -> Result<Tally, String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_ace(prog.steps.len(), CostModel::free(), |rt| {
            let sid = rt.new_space(make(spec));
            let [h0, h1] = prog.homes;
            let rids = [RegionId::new(h0, 0), RegionId::new(h1, u64::from(h0 == h1))];
            for rid in rids.into_iter().filter(|r| r.home() == rt.rank()) {
                assert_eq!(rt.gmalloc_words(sid, 1), rid);
            }
            rt.machine_barrier();
            let seen = Default::default();
            let (seed, tally) = (prog.seed, Tally::default());
            let mut a = Auditor { rt, spec, null, seed, sid, rids, seen, tally };
            rids.into_iter().for_each(|rid| a.then(|rt| rt.map(rid)));
            prog.steps[rt.rank()].iter().for_each(|&s| a.step(s));
            a.tally
        })
    }));
    let ranks = run.map_err(|e| e.downcast_ref::<String>().cloned().unwrap_or_default())?.results;
    Ok(ranks.into_iter().sum())
}

/// [`audited`] over `spec`'s programs of seeds `0..SEEDS`: the summed tally,
/// or every failing program's message.
fn sweep(spec: ProtoSpec, null: Option<Actions>) -> Result<Tally, Vec<String>> {
    let runs = (0..SEEDS).map(|seed| audited(spec, null, &program(spec, seed)));
    let (ok, failed): (Vec<_>, Vec<_>) = runs.partition(Result::is_ok);
    if !failed.is_empty() {
        return Err(failed.into_iter().filter_map(Result::err).collect());
    }
    Ok(ok.into_iter().flatten().sum())
}

#[test]
fn every_static_protocol_keeps_its_fast_mask_and_null_promises() {
    let specs = all_protocols().into_iter().map(|i| i.spec);
    for spec in specs.filter(|s| !matches!(s, ProtoSpec::Adaptive(_))) {
        let name = spec.name();
        let t = sweep(spec, None).unwrap_or_else(|f| {
            panic!("{name}: {} of {SEEDS} programs failed the audit:\n{}", f.len(), f.join("\n"))
        });
        let states = states(spec);
        let missed: Vec<_> = (0..states.len()).filter(|k| t.reached >> k & 1 == 0).collect();
        let missed: Vec<_> = missed.into_iter().map(|k| states[k].0).collect();
        assert!(missed.is_empty(), "{name}: no program of seeds 0..{SEEDS} reached {missed:?}");
        println!("{name}: {SEEDS} programs, {} entries, {} hooks", t.entries, t.hooks);
    }
}

/// Migratory once declared its end hooks null, though they drain requests
/// parked at home and honour a recall that lands mid-section. The audit must
/// catch that declaration in the recall's state.
#[test]
fn the_audit_refinds_migratory_end_hooks_declared_null() {
    let null = make(ProtoSpec::Migratory).null_actions().union(ENDS);
    let fails = sweep(ProtoSpec::Migratory, Some(null))
        .err()
        .expect("the audit passed a declaration that drops recalls");
    let msg = "end_write is declared null but is not a no-op";
    assert!(fails.iter().any(|f| f.contains("RECALL_PENDING") && f.contains(msg)), "{fails:#?}");
}

/// Seed 71's program: rank 1 flushes its exclusive r0.1 at the handover
/// while rank 2's read has home recall it, so the `RECALL` crosses the flush
/// carrying the copy home. SC and Migratory must drop that `RECALL`.
#[test]
fn a_recall_that_crosses_a_handover_flush_is_dropped() {
    use Step::{Handover, LockWrite, Map, Nested, Unmap, Write};
    let steps = vec![
        vec![Nested, Handover, Unmap(0)],
        vec![LockWrite(1), Handover, Write(1)],
        vec![Nested, Handover, Map(0)],
    ];
    let prog = Program { seed: 71, homes: [0, 0], steps };
    for spec in [ProtoSpec::Sc, ProtoSpec::Migratory] {
        audited(spec, None, &prog).unwrap_or_else(|f| panic!("{}: {f}", spec.name()));
    }
}
