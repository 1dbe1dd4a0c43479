//! The space/protocol dataflow of §4.2.
//!
//! "Before any optimizations can be performed ... it is necessary to
//! determine, for each access, the set of spaces that are possibly
//! associated with the data being accessed, and the set of possible
//! protocols of each space at that access. [...] Information is generated
//! at Ace_GMalloc calls and propagated to accesses. Concurrently, we
//! propagate information about the protocols associated with spaces from
//! Ace_NewSpace and Ace_ChangeProtocol calls."
//!
//! Abstraction: spaces are identified by their `new_space` *site*; a
//! handle's abstract value is the set of sites its region's space may come
//! from. The protocol environment maps each site to the set of protocols
//! possibly bound at the current program point — flow-sensitive, with
//! strong updates through `change_protocol` when the space set is a
//! singleton. Handles that round-trip through shared memory are summarized
//! by a single global set (field-insensitive). The analysis is
//! interprocedural: a summary (entry fact ⊔ over call sites → exit fact)
//! is computed per function to fixpoint.
//!
//! Both universes are dense and fixed per program: the sites, which the
//! lowering numbers `0..nsites`, and the specs of [`Facts::all_specs`],
//! numbered in their sorted order. A site set is ⌈nsites/64⌉ words, a
//! protocol set one word, and a state one fixed-width word array: the
//! protocol environment (a spec word per site, empty = not created on this
//! path), the memory summary, then a site set per variable.
//!
//! Registers are single-assignment, so a register has one fact per
//! function, not one per program point; what flows from block to block
//! is the locals, the memory summary and the protocol environment.
//! Every fact only ever grows by joins in a finite lattice, which is why
//! both fixpoints below terminate without a round limit.

use std::collections::{BTreeSet, HashMap};

use ace_protocols::ProtoSpec;

use crate::config::SystemConfig;
use crate::ir::*;

/// Whether `i` is in the bitset `set`.
pub(crate) fn has(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

/// Put `i` in the bitset `set`; whether it was not there.
pub(crate) fn insert(set: &mut [u64], i: usize) -> bool {
    let (word, bit) = (&mut set[i / 64], 1 << (i % 64));
    let new = *word & bit == 0;
    *word |= bit;
    new
}

/// `dst ⊔= src` on bitsets; whether `dst` grew.
pub(crate) fn join(dst: &mut [u64], src: &[u64]) -> bool {
    let mut grew = false;
    for (d, s) in dst.iter_mut().zip(src) {
        grew |= s & !*d != 0;
        *d |= s;
    }
    grew
}

/// The members of the bitset `set`, ascending.
pub(crate) fn members(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some(i * 64 + bit)
        })
    })
}

/// A function summary for the interprocedural fixpoint. Both flows are
/// laid out as a state is, with the parameters (entry) or the return
/// value (exit) as the variables.
struct Summary {
    /// Whether any call reaches the function.
    seen: bool,
    /// Joined over its call sites: argument sets + caller's mem/penv.
    entry: Vec<u64>,
    /// Joined over its returns: return set + mem/penv.
    exit: Vec<u64>,
}

/// Analysis results: per access site, the set of possible protocols.
#[derive(Debug, Default)]
pub struct Facts {
    /// AccessId → possible protocols. Missing or empty = no information
    /// (treated conservatively by the passes).
    pub access: HashMap<AccessId, BTreeSet<ProtoSpec>>,
    /// All protocol specs mentioned anywhere: bit `i` of a protocol set
    /// is the `i`-th of them.
    pub all_specs: BTreeSet<ProtoSpec>,
    /// Number of space sites in the program.
    pub nsites: u32,
}

impl Facts {
    /// The protocol set for an access; `None` if nothing was recorded.
    pub fn protocols(&self, aid: AccessId) -> Option<&BTreeSet<ProtoSpec>> {
        self.access.get(&aid).filter(|s| !s.is_empty())
    }

    /// Whether every possible protocol of `aid` is registered optimizable
    /// (the gate for LICM and merging; empty/unknown = not optimizable).
    pub fn all_optimizable(&self, aid: AccessId, cfg: &SystemConfig) -> bool {
        self.protocols(aid).is_some_and(|set| set.iter().all(|s| cfg.optimizable(*s)))
    }

    /// The unique protocol of `aid`, if statically known.
    pub fn unique_protocol(&self, aid: AccessId) -> Option<ProtoSpec> {
        let set = self.protocols(aid)?;
        (set.len() == 1).then(|| *set.iter().next().unwrap())
    }
}

/// Run the dataflow over a lowered program.
pub fn analyze(prog: &Program) -> Facts {
    let mut facts = Facts::default();
    for i in prog.insts() {
        if let Inst::Intrinsic { which, .. } = i {
            if let Intr::NewSpace { spec, .. } | Intr::ChangeProtocol { spec } = which {
                facts.all_specs.insert(*spec);
            }
            if let Intr::NewSpace { site, .. } = which {
                facts.nsites = facts.nsites.max(site + 1);
            }
        }
    }
    let specs: Vec<ProtoSpec> = facts.all_specs.iter().copied().collect();
    // Source code names only the registry's protocols.
    assert!(specs.len() <= 64, "{} protocols do not fit a one-word set", specs.len());
    let nsites = facts.nsites as usize;
    let w = nsites.div_ceil(64);
    let heap = nsites + w;
    let summaries = prog
        .funcs
        .iter()
        .map(|f| Summary {
            seen: false,
            entry: vec![0; heap + f.nparams * w],
            exit: vec![0; heap + w],
        })
        .collect();
    let access = vec![None; prog.naccesses as usize];
    let mut cx =
        Analysis { prog, specs, w, heap, summaries, access, value: vec![0; w], moved: true };
    cx.summaries[prog.main].seen = true;

    // Interprocedural fixpoint: re-analyze every reached function until no
    // summary moves. A callee defined before its caller advances one call
    // per round, so the number of rounds is the program's call depth.
    // Access facts accumulate monotonically across rounds.
    while std::mem::take(&mut cx.moved) {
        for fid in 0..prog.funcs.len() {
            if cx.summaries[fid].seen {
                cx.function(fid);
            }
        }
    }
    for (aid, protos) in cx.access.iter().enumerate() {
        if let Some(word) = protos {
            let set = members(&[*word]).map(|i| cx.specs[i]).collect();
            facts.access.insert(aid as AccessId, set);
        }
    }
    facts
}

struct Analysis<'a> {
    prog: &'a Program,
    /// The spec universe: bit `i` of a protocol set is `specs[i]`.
    specs: Vec<ProtoSpec>,
    /// Words per site set.
    w: usize,
    /// Words of a state before its variables: the protocol environment
    /// (one per site) and the memory summary.
    heap: usize,
    summaries: Vec<Summary>,
    /// AccessId → protocol set; `None` until a visit reaches the access.
    access: Vec<Option<u64>>,
    /// What the instruction being transferred defines.
    value: Vec<u64>,
    /// Whether a summary moved in the current round.
    moved: bool,
}

impl Analysis<'_> {
    /// Analyze one function from its entry summary to its own fixpoint.
    fn function(&mut self, fid: FuncId) {
        let f = &self.prog.funcs[fid];
        let (w, heap) = (self.w, self.heap);
        let width = heap + f.slots.len() * w;
        let mut regs = vec![0; f.nregs as usize * w];
        // Each block's input, and whether control reaches the block yet.
        let mut inb = vec![0; f.blocks.len() * width];
        let mut reached = vec![false; f.blocks.len()];
        let entry = &self.summaries[fid].entry;
        inb[..entry.len()].copy_from_slice(entry);
        reached[0] = true;
        // The one state every visit runs on.
        let mut st = vec![0; width];

        // Sweep the reached blocks until neither a block's input nor a
        // register fact grows. A worklist on inputs alone would not do: a
        // grown register is read by blocks whose input did not change.
        let mut grew = true;
        while std::mem::take(&mut grew) {
            for (b, block) in f.blocks.iter().enumerate() {
                if !reached[b] {
                    continue;
                }
                st.copy_from_slice(&inb[b * width..][..width]);
                for inst in &block.insts {
                    grew |= self.transfer(inst, &mut st, &mut regs);
                }
                for t in block.term.successors() {
                    grew |= !std::mem::replace(&mut reached[t], true);
                    grew |= join(&mut inb[t * width..][..width], &st);
                }
                if let Term::Ret(r) = block.term {
                    let exit = &mut self.summaries[fid].exit;
                    self.moved |= join(&mut exit[..heap], &st[..heap]);
                    if let Some(r) = r {
                        self.moved |= join(&mut exit[heap..], &regs[r as usize * w..][..w]);
                    }
                }
            }
        }
    }

    /// Apply one instruction to `st` and to the fact of the register it
    /// defines; whether that fact grew.
    fn transfer(&mut self, inst: &Inst, st: &mut [u64], regs: &mut [u64]) -> bool {
        let (w, heap) = (self.w, self.heap);
        let reg = |r: VReg| r as usize * w..(r as usize + 1) * w;
        let var = |slot: u32| heap + slot as usize * w..heap + (slot as usize + 1) * w;
        let mem = heap - w..heap;
        let spec = |s: &ProtoSpec| 1 << self.specs.binary_search(s).expect("collected above");
        // What the defined register may hold: nothing, unless it is a handle.
        let value = &mut self.value;
        value.fill(0);
        match inst {
            Inst::Mov { a, .. } => value.copy_from_slice(&regs[reg(*a)]),
            Inst::LoadLocal { slot, .. } | Inst::LoadArr { slot, .. } => {
                value.copy_from_slice(&st[var(*slot)])
            }
            Inst::StoreLocal { slot, a } => st[var(*slot)].copy_from_slice(&regs[reg(*a)]),
            Inst::StoreArr { slot, a, .. } => {
                join(&mut st[var(*slot)], &regs[reg(*a)]);
            }
            Inst::Map { aid, handle, .. } => {
                value.copy_from_slice(&regs[reg(*handle)]);
                record(&mut self.access[*aid as usize], value, st);
            }
            Inst::Ann { aid, handle, .. } => {
                record(&mut self.access[*aid as usize], &regs[reg(*handle)], st)
            }
            Inst::GLoad { ty: ValTy::H, .. } => value.copy_from_slice(&st[mem]),
            Inst::GStore { val, .. } => {
                join(&mut st[mem], &regs[reg(*val)]);
            }
            Inst::Intrinsic { which, args, .. } => match which {
                Intr::NewSpace { spec: s, site } => {
                    insert(value, *site as usize);
                    // Re-executing the same site rebinds the same protocol, so
                    // a strong update is safe even inside loops.
                    st[*site as usize] = spec(s);
                }
                Intr::ChangeProtocol { spec: s } => {
                    // The one possible space is rebound; each of several
                    // gains a binding.
                    let spaces = &regs[reg(args[0])];
                    let strong = members(spaces).count() == 1;
                    let bit = spec(s);
                    for k in members(spaces) {
                        st[k] = if strong { bit } else { st[k] | bit };
                    }
                }
                Intr::Gmalloc { .. } => value.copy_from_slice(&regs[reg(args[0])]),
                // SPMD: the sent value comes from the same program point on
                // the root, so its abstract value is the same.
                Intr::BcastP => value.copy_from_slice(&regs[reg(args[1])]),
                _ => {}
            },
            Inst::Call { func, args, .. } => {
                // Propagate into the callee's entry summary, then absorb
                // its (current) exit effects.
                let callee = &mut self.summaries[*func];
                self.moved |= !std::mem::replace(&mut callee.seen, true);
                self.moved |= join(&mut callee.entry[..heap], &st[..heap]);
                for (param, a) in args.iter().enumerate() {
                    self.moved |= join(&mut callee.entry[var(param as u32)], &regs[reg(*a)]);
                }
                join(&mut st[..heap], &callee.exit[..heap]);
                value.copy_from_slice(&callee.exit[heap..]);
            }
            // constants, arithmetic, conversions, data loads: never handles
            Inst::ConstI(..)
            | Inst::ConstF(..)
            | Inst::BinOp { .. }
            | Inst::Neg { .. }
            | Inst::Not { .. }
            | Inst::IntToF { .. }
            | Inst::FToInt { .. }
            | Inst::GLoad { .. } => {}
        }
        inst.def().is_some_and(|d| join(&mut regs[reg(d)], value))
    }
}

/// Add to an access the protocols its `handle` may be under at `st`: the
/// words of the protocol environment at the handle's sites.
fn record(access: &mut Option<u64>, handle: &[u64], st: &[u64]) {
    *access.get_or_insert(0) |= members(handle).fold(0, |protos, k| protos | st[k]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, config::SystemConfig, OptLevel};

    fn facts_of(src: &str) -> (Program, Facts) {
        let cfg = SystemConfig::builtin();
        let prog = compile(src, &cfg, OptLevel::O0).unwrap();
        let facts = analyze(&prog);
        (prog, facts)
    }

    fn all_access_sets(prog: &Program, facts: &Facts) -> Vec<BTreeSet<ProtoSpec>> {
        let starts = prog.insts().filter_map(|i| match i {
            Inst::Ann { hook: Hook::StartRead | Hook::StartWrite, aid, .. } => Some(*aid),
            _ => None,
        });
        starts.map(|aid| facts.protocols(aid).cloned().unwrap_or_default()).collect()
    }

    /// The five Table 4 kernels with what the compiler made of each at
    /// PR 17, before the register facts went per function: `Facts::access`
    /// (access ids in order, equal neighbours folded into `lo-hi:{set}`)
    /// and `(dispatched, direct, instructions)` at O0 / LI / LI+MC / LI+MC+DC.
    type Pinned = (&'static str, &'static str, [(usize, usize, usize); 4]);
    const KERNELS: [Pinned; 5] = [
        (
            include_str!("../../bench/programs/barnes.ace"),
            "0-6:{Sc} 7-10:{DynUpdate} 11-14:{Sc} 15-21:{DynUpdate} 22-25:{Sc} 26-34:{DynUpdate}",
            [(105, 0, 666), (105, 0, 666), (67, 0, 628), (0, 61, 622)],
        ),
        (
            include_str!("../../bench/programs/bsc.ace"),
            "0-0:{Sc} 1-19:{HomeOwned}",
            [(60, 0, 707), (60, 0, 707), (48, 0, 695), (0, 23, 670)],
        ),
        (
            include_str!("../../bench/programs/em3d.ace"),
            "0-1:{Sc} 2-9:{StaticUpdate}",
            [(30, 0, 415), (30, 0, 415), (28, 0, 413), (0, 14, 399)],
        ),
        (
            include_str!("../../bench/programs/tsp.ace"),
            "0-0:{Sc} 1-4:{FetchAdd} 5-10:{Sc}",
            // One `IntToF` more than before `return` converted to the
            // declared type: `double main()` returns `reduce_min_i(...)`.
            [(25, 0, 500), (25, 0, 500), (24, 0, 499), (0, 19, 494)],
        ),
        (
            include_str!("../../bench/programs/water.ace"),
            "0-5:{Sc} 6-12:{Null} 13-30:{Pipelined} 31-36:{Null}",
            [(111, 0, 564), (111, 0, 564), (69, 0, 522), (0, 41, 494)],
        ),
    ];

    #[test]
    fn access_facts_of_the_kernels_are_the_pinned_ones() {
        for (src, pinned, _) in KERNELS {
            let (_, facts) = facts_of(src);
            let mut access: Vec<_> =
                facts.access.iter().map(|(aid, set)| (*aid, format!("{set:?}"))).collect();
            access.sort();
            let runs: Vec<String> = access
                .chunk_by(|a, b| a.0 + 1 == b.0 && a.1 == b.1)
                .map(|run| format!("{}-{}:{}", run[0].0, run[run.len() - 1].0, run[0].1))
                .collect();
            assert_eq!(runs.join(" "), pinned);
        }
    }

    #[test]
    fn kernels_compile_to_the_pinned_counts_in_single_assignment() {
        let cfg = SystemConfig::builtin();
        for (src, _, pinned) in KERNELS {
            for (level, want) in OptLevel::ALL.into_iter().zip(pinned) {
                let prog = compile(src, &cfg, level).unwrap();
                prog.assert_single_assignment();
                let (dispatched, direct) = prog.annotation_stats();
                assert_eq!((dispatched, direct, prog.insts().count()), want, "at {level:?}");
            }
        }
    }

    /// `main` hands `x` (an `Update` region) to a store one call away and
    /// `y` (a `StaticUpdate` region) to the same store through `depth`
    /// calls, each callee defined before its caller as C wants it.
    fn store_reached_through_a_chain(depth: usize) -> (usize, usize) {
        let last = depth - 1;
        let mut src = format!("void f{last}(shared double *p) {{ p[0] = 1.0; }}\n");
        for i in (0..last).rev() {
            src += &format!("void f{i}(shared double *p) {{ f{}(p); }}\n", i + 1);
        }
        src += &format!(
            r#"void main() {{
                space a = new_space("Update");
                space b = new_space("StaticUpdate");
                shared double *x = (shared double*) gmalloc(a, 1);
                shared double *y = (shared double*) gmalloc(b, 1);
                f{last}(x);
                f0(y);
            }}"#
        );
        compile(&src, &SystemConfig::builtin(), OptLevel::Direct).unwrap().annotation_stats()
    }

    #[test]
    fn summaries_reach_their_fixpoint_at_any_call_depth() {
        // Two possible protocols: the store's map, start and end must stay
        // dispatched. The facts advance one call per round, so a limit on
        // the rounds (it was 64) compiled the deep chain to direct `Update`
        // calls on a region that may be under `StaticUpdate`.
        assert_eq!(store_reached_through_a_chain(10), (3, 0));
        assert_eq!(store_reached_through_a_chain(70), (3, 0));
    }

    #[test]
    fn protocol_flows_from_new_space() {
        let (p, f) = facts_of(
            r#"void main() {
                space s = new_space("Update");
                shared double *v = (shared double*) gmalloc(s, 4);
                v[0] = 1.0;
            }"#,
        );
        let sets = all_access_sets(&p, &f);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0], BTreeSet::from([ProtoSpec::DynUpdate]));
    }

    #[test]
    fn change_protocol_strong_update() {
        let (p, f) = facts_of(
            r#"void main() {
                space s = new_space("SC");
                shared double *v = (shared double*) gmalloc(s, 4);
                change_protocol(s, "StaticUpdate");
                double x = v[0];
            }"#,
        );
        let sets = all_access_sets(&p, &f);
        // The access AFTER change_protocol sees only StaticUpdate (strong
        // update through the singleton space set).
        assert_eq!(sets[0], BTreeSet::from([ProtoSpec::StaticUpdate]));
    }

    #[test]
    fn access_before_change_sees_old_protocol() {
        let (p, f) = facts_of(
            r#"void main() {
                space s = new_space("SC");
                shared double *v = (shared double*) gmalloc(s, 4);
                v[0] = 1.0;
                change_protocol(s, "Null");
            }"#,
        );
        let sets = all_access_sets(&p, &f);
        assert_eq!(sets[0], BTreeSet::from([ProtoSpec::Sc]));
    }

    #[test]
    fn two_spaces_stay_separate() {
        let (p, f) = facts_of(
            r#"void main() {
                space a = new_space("SC");
                space b = new_space("Null");
                shared double *x = (shared double*) gmalloc(a, 1);
                shared double *y = (shared double*) gmalloc(b, 1);
                x[0] = 1.0;
                y[0] = 2.0;
            }"#,
        );
        let sets = all_access_sets(&p, &f);
        assert_eq!(sets[0], BTreeSet::from([ProtoSpec::Sc]));
        assert_eq!(sets[1], BTreeSet::from([ProtoSpec::Null]));
    }

    #[test]
    fn merged_paths_union_protocols() {
        let (p, f) = facts_of(
            r#"void main() {
                space a = new_space("SC");
                space b = new_space("Null");
                shared double *x;
                if (rank() == 0) { x = (shared double*) gmalloc(a, 1); }
                else { x = (shared double*) gmalloc(b, 1); }
                x[0] = 1.0;
            }"#,
        );
        let sets = all_access_sets(&p, &f);
        let last = sets.last().unwrap();
        assert_eq!(last, &BTreeSet::from([ProtoSpec::Sc, ProtoSpec::Null]));
    }

    #[test]
    fn interprocedural_propagation() {
        let (p, f) = facts_of(
            r#"
            void work(shared double *v) { v[0] = 3.0; }
            void main() {
                space s = new_space("Pipelined");
                shared double *v = (shared double*) gmalloc(s, 1);
                work(v);
            }"#,
        );
        let sets = all_access_sets(&p, &f);
        assert!(sets.iter().any(|s| s == &BTreeSet::from([ProtoSpec::Pipelined])), "{sets:?}");
    }

    #[test]
    fn site_sets_cross_a_word_boundary() {
        // 70 spaces, so a site set is two words; site `k` is under
        // `PROTOS[k % 4]`.
        const PROTOS: [&str; 4] = ["SC", "Update", "Null", "Migratory"];
        let mut src = String::from("void main() {\n");
        for k in 0..70 {
            src += &format!("space s{k} = new_space(\"{}\");\n", PROTOS[k % 4]);
        }
        for k in [3, 63, 64, 65] {
            src += &format!("shared double *v{k} = (shared double*) gmalloc(s{k}, 1);\n");
        }
        src += r#"
            shared double *h;
            if (rank() == 0) { h = (shared double*) gmalloc(s1, 1); }
            else { h = (shared double*) gmalloc(s66, 1); }
            change_protocol(s65, "Pipelined");
            v65[0] = 1.0; v3[0] = 1.0; h[0] = 1.0; v63[0] = 1.0; v64[0] = 1.0;
        }"#;
        let (p, f) = facts_of(&src);
        assert_eq!(f.nsites, 70);
        let sets = all_access_sets(&p, &f);
        let set = |specs: &[ProtoSpec]| BTreeSet::from_iter(specs.iter().copied());
        use ProtoSpec::*;
        // A strong update on site 65, in the second word; site 3 keeps its own.
        assert_eq!(sets[0], set(&[Pipelined]));
        assert_eq!(sets[1], set(&[Migratory]));
        // A handle joined from site 1 and site 66, one in each word.
        assert_eq!(sets[2], set(&[DynUpdate, Null]));
        // Sites 63 and 64, either side of the boundary, stay distinct.
        assert_eq!(sets[3], set(&[Migratory]));
        assert_eq!(sets[4], set(&[Sc]));
    }

    #[test]
    fn handles_through_shared_memory_use_summary() {
        let (p, f) = facts_of(
            r#"
            void main() {
                space s = new_space("Update");
                shared int *table = (shared int*) gmalloc(s, 4);
                shared double *v = (shared double*) gmalloc(s, 1);
                table[0] = (int) v;
                shared double *w = (shared double*) table[0];
                w[0] = 9.0;
            }"#,
        );
        // `w` was laundered through an int store, so its space set is
        // empty/unknown — the final write must NOT claim a singleton
        // protocol via the memory summary (ints are not tracked).
        let sets = all_access_sets(&p, &f);
        assert!(sets.last().unwrap().is_empty());
    }
}
