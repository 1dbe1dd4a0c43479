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
//! from (`Top` = unknown). The protocol environment maps each site to the
//! set of protocols possibly bound at the current program point —
//! flow-sensitive, with strong updates through `change_protocol` when the
//! space set is a singleton. Handles that round-trip through shared
//! memory are summarized by a single global set (field-insensitive).
//! The analysis is interprocedural: a summary (entry fact ⊔ over call
//! sites → exit fact) is computed per function to fixpoint.
//!
//! Registers are single-assignment, so a register has one fact per
//! function, not one per program point; what flows from block to block
//! is the locals, the memory summary and the protocol environment.
//! Every fact only ever grows by joins in a finite lattice, which is why
//! both fixpoints below terminate without a round limit.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ace_protocols::ProtoSpec;

use crate::config::SystemConfig;
use crate::ir::*;

/// A set of space-creation sites, or Top (any space).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sites {
    /// Exactly these sites.
    Set(BTreeSet<u32>),
    /// Unknown.
    Top,
}

impl Sites {
    fn empty() -> Self {
        Sites::Set(BTreeSet::new())
    }

    /// `self ⊔= o`; whether `self` grew.
    fn join(&mut self, o: &Sites) -> bool {
        match (&mut *self, o) {
            (Sites::Top, _) => false,
            (_, Sites::Top) => {
                *self = Sites::Top;
                true
            }
            (Sites::Set(a), Sites::Set(b)) => {
                let before = a.len();
                a.extend(b);
                a.len() != before
            }
        }
    }
}

/// Per-site protocol bindings (missing site = not created on this path).
pub type ProtoEnv = BTreeMap<u32, BTreeSet<ProtoSpec>>;

/// What flows along an edge: the abstract values of a list of variables,
/// the memory summary and the protocol environment. The variables are a
/// function's local slots inside it, its parameters at its entry and its
/// return value at its exit.
#[derive(Debug, Clone)]
struct Flow {
    vals: Vec<Sites>,
    mem: Sites,
    penv: ProtoEnv,
}

impl Flow {
    fn bottom(nvals: usize) -> Flow {
        Flow { vals: vec![Sites::empty(); nvals], mem: Sites::empty(), penv: ProtoEnv::new() }
    }

    /// `self ⊔= o`, except for the variables; whether `self` grew.
    fn join_heap(&mut self, o: &Flow) -> bool {
        let mut grew = self.mem.join(&o.mem);
        for (site, protos) in &o.penv {
            let mine = self.penv.entry(*site).or_default();
            let before = mine.len();
            mine.extend(protos);
            grew |= mine.len() != before;
        }
        grew
    }

    /// `self ⊔= o`; whether `self` grew.
    fn join(&mut self, o: &Flow) -> bool {
        let mut grew = self.join_heap(o);
        for (mine, theirs) in self.vals.iter_mut().zip(&o.vals) {
            grew |= mine.join(theirs);
        }
        grew
    }
}

/// A function summary for the interprocedural fixpoint.
#[derive(Debug)]
struct Summary {
    /// Whether any call reaches the function.
    seen: bool,
    /// Joined over its call sites: argument sets + caller's mem/penv.
    entry: Flow,
    /// Joined over its returns: return set + mem/penv.
    exit: Flow,
}

/// Analysis results: per access site, the set of possible protocols.
#[derive(Debug, Default)]
pub struct Facts {
    /// AccessId → possible protocols. Missing or empty = no information
    /// (treated conservatively by the passes).
    pub access: HashMap<AccessId, BTreeSet<ProtoSpec>>,
    /// All protocol specs mentioned anywhere (the meaning of `Top`).
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
        match self.protocols(aid) {
            Some(set) => set.iter().all(|s| cfg.optimizable(*s)),
            None => false,
        }
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
    let summaries = prog
        .funcs
        .iter()
        .map(|f| Summary { seen: false, entry: Flow::bottom(f.nparams), exit: Flow::bottom(1) })
        .collect();
    let mut cx = Analysis { prog, summaries, facts, moved: true };
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
    cx.facts
}

struct Analysis<'a> {
    prog: &'a Program,
    summaries: Vec<Summary>,
    facts: Facts,
    /// Whether a summary moved in the current round.
    moved: bool,
}

impl Analysis<'_> {
    /// Analyze one function from its entry summary to its own fixpoint.
    fn function(&mut self, fid: FuncId) {
        let f = &self.prog.funcs[fid];
        let mut regs = vec![Sites::empty(); f.nregs as usize];
        let mut inb: Vec<Option<Flow>> = vec![None; f.blocks.len()];
        let mut entry = self.summaries[fid].entry.clone();
        entry.vals.resize(f.slots.len(), Sites::empty());
        inb[0] = Some(entry);

        // Sweep the reached blocks until neither a block's input nor a
        // register fact grows. A worklist on inputs alone would not do: a
        // grown register is read by blocks whose input did not change.
        let mut grew = true;
        while grew {
            grew = false;
            for (b, block) in f.blocks.iter().enumerate() {
                let Some(mut st) = inb[b].clone() else { continue };
                for inst in &block.insts {
                    grew |= self.transfer(inst, &mut st, &mut regs);
                }
                for t in block.term.successors() {
                    grew |= match &mut inb[t] {
                        Some(old) => old.join(&st),
                        None => {
                            inb[t] = Some(st.clone());
                            true
                        }
                    };
                }
                if let Term::Ret(r) = block.term {
                    let exit = &mut self.summaries[fid].exit;
                    self.moved |= exit.join_heap(&st);
                    if let Some(r) = r {
                        self.moved |= exit.vals[0].join(&regs[r as usize]);
                    }
                }
            }
        }
    }

    /// Add to access `aid` the protocols its `handle` may be under at `st`.
    fn record(&mut self, aid: AccessId, handle: &Sites, st: &Flow) {
        let protos = self.facts.access.entry(aid).or_default();
        match handle {
            Sites::Top => protos.extend(&self.facts.all_specs),
            Sites::Set(ks) => protos.extend(ks.iter().filter_map(|k| st.penv.get(k)).flatten()),
        }
    }

    /// Apply one instruction to `st` and to the fact of the register it
    /// defines; whether that fact grew.
    fn transfer(&mut self, inst: &Inst, st: &mut Flow, regs: &mut [Sites]) -> bool {
        let reg = |r: &VReg| &regs[*r as usize];
        // What the defined register may hold: nothing, unless it is a handle.
        let mut value = Sites::empty();
        match inst {
            Inst::Mov { a, .. } => value = reg(a).clone(),
            Inst::LoadLocal { slot, .. } | Inst::LoadArr { slot, .. } => {
                value = st.vals[*slot as usize].clone()
            }
            Inst::StoreLocal { slot, a } => st.vals[*slot as usize] = reg(a).clone(),
            Inst::StoreArr { slot, a, .. } => {
                st.vals[*slot as usize].join(reg(a));
            }
            Inst::Map { aid, handle, .. } => {
                value = reg(handle).clone();
                self.record(*aid, &value, st);
            }
            Inst::Ann { aid, handle, .. } => self.record(*aid, reg(handle), st),
            Inst::GLoad { ty: ValTy::H, .. } => value = st.mem.clone(),
            Inst::GStore { val, .. } => {
                st.mem.join(reg(val));
            }
            Inst::Intrinsic { which, args, .. } => match which {
                Intr::NewSpace { spec, site } => {
                    value = Sites::Set(BTreeSet::from([*site]));
                    // Re-executing the same site rebinds the same protocol, so
                    // a strong update is safe even inside loops.
                    st.penv.insert(*site, BTreeSet::from([*spec]));
                }
                Intr::ChangeProtocol { spec } => {
                    let mut bind = |k: u32, strong: bool| {
                        let protos = st.penv.entry(k).or_default();
                        if strong {
                            protos.clear();
                        }
                        protos.insert(*spec);
                    };
                    match reg(&args[0]) {
                        // The one possible space is rebound; each of
                        // several gains a binding.
                        Sites::Set(ks) => ks.iter().for_each(|k| bind(*k, ks.len() == 1)),
                        Sites::Top => (0..self.facts.nsites).for_each(|k| bind(k, false)),
                    }
                }
                Intr::Gmalloc { .. } => value = reg(&args[0]).clone(),
                // SPMD: the sent value comes from the same program point on
                // the root, so its abstract value is the same.
                Intr::BcastP => value = reg(&args[1]).clone(),
                _ => {}
            },
            Inst::Call { func, args, .. } => {
                // Propagate into the callee's entry summary, then absorb
                // its (current) exit effects.
                let callee = &mut self.summaries[*func];
                self.moved |= !std::mem::replace(&mut callee.seen, true);
                self.moved |= callee.entry.join_heap(st);
                for (param, a) in callee.entry.vals.iter_mut().zip(args) {
                    self.moved |= param.join(reg(a));
                }
                st.join_heap(&callee.exit);
                value = callee.exit.vals[0].clone();
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
        inst.def().is_some_and(|d| regs[d as usize].join(&value))
    }
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
            "0-0:{Sc} 1-4:{FetchAdd(1)} 5-10:{Sc}",
            [(25, 0, 499), (25, 0, 499), (24, 0, 498), (0, 19, 493)],
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
