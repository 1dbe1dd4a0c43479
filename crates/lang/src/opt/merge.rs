//! Merging redundant protocol calls (§4.2, Figure 6).
//!
//! "We perform available expression analysis on each basic block on the
//! arguments of `ACE_MAP` calls. Consider two `ACE_MAP` calls, M1 and M2.
//! If the argument of M1 is the same as that of M2 and is available at
//! M2, then we remove M2 and reuse the result of M1. Furthermore, if the
//! protocol actions associated with the two `ACE_MAP`s are both reads or
//! both writes, we use the highest `ACE_START_*`, and the lowest
//! `ACE_END_*`, and remove the rest."
//!
//! Handle identity is resolved through block-local value numbering
//! (constants, local loads of un-redefined slots, and register copies);
//! merging never crosses a synchronization instruction.

use std::collections::hash_map::{Entry, HashMap};

use crate::analysis::Facts;
use crate::config::SystemConfig;
use crate::ir::*;

/// Run the pass over every function.
pub fn run(prog: &mut Program, facts: &Facts, cfg: &SystemConfig) {
    for f in &mut prog.funcs {
        // Merge maps first, collecting register renames, then apply the
        // renames function-wide: uses of a removed map's result may live
        // in other blocks (e.g. after LICM moved an access's Start/End).
        let mut rename = HashMap::new();
        for b in &mut f.blocks {
            merge_maps(b, facts, cfg, &mut rename);
        }
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                apply(&rename, inst);
            }
            merge_sections(b, facts, cfg);
        }
    }
}

/// Replace the registers `inst` reads by what they were renamed to.
fn apply(rename: &HashMap<VReg, VReg>, inst: &mut Inst) {
    inst.for_each_use_mut(|r| *r = *rename.get(r).unwrap_or(r));
}

/// Block-local value numbering roots for map arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Root {
    /// A load of local slot (not redefined since).
    Slot(u32),
    /// An integer constant.
    ConstI(i64),
    /// A register defined before this block (registers are
    /// single-assignment, so identity works).
    Reg(VReg),
}

fn merge_maps(b: &mut Block, facts: &Facts, cfg: &SystemConfig, rename: &mut HashMap<VReg, VReg>) {
    let mut roots: HashMap<VReg, Root> = HashMap::new();
    let mut avail: HashMap<Root, VReg> = HashMap::new();
    b.insts.retain_mut(|inst| {
        apply(rename, inst);
        let root = |roots: &HashMap<VReg, Root>, r| roots.get(r).cloned().unwrap_or(Root::Reg(*r));
        // Track roots before deciding.
        match &*inst {
            Inst::ConstI(dst, v) => {
                roots.insert(*dst, Root::ConstI(*v));
            }
            Inst::LoadLocal { dst, slot } => {
                roots.insert(*dst, Root::Slot(*slot));
            }
            Inst::Mov { dst, a } => {
                roots.insert(*dst, root(&roots, a));
            }
            Inst::StoreLocal { slot, .. } | Inst::StoreArr { slot, .. } => {
                // Kill availability of loads from this slot.
                avail.retain(|r, _| *r != Root::Slot(*slot));
                roots.retain(|_, r| *r != Root::Slot(*slot));
            }
            _ => {}
        }
        if inst.is_sync() {
            // Conservative: a call might unmap; sync orders everything.
            avail.clear();
        }
        if let Inst::Map { aid, dst, handle, .. } = &*inst {
            if facts.all_optimizable(*aid, cfg) {
                match avail.entry(root(&roots, handle)) {
                    // M2 removed; its result is M1's.
                    Entry::Occupied(m1) => {
                        rename.insert(*dst, *m1.get());
                        return false;
                    }
                    Entry::Vacant(none) => {
                        none.insert(*dst);
                    }
                }
            }
        }
        true
    });
}

/// Merge `End_X(h) ... Start_X(h)` pairs (same mapped handle, same mode)
/// with no synchronization or other section activity on `h` in between.
fn merge_sections(b: &mut Block, facts: &Facts, cfg: &SystemConfig) {
    while let Some((i, j)) = mergeable(&b.insts, facts, cfg) {
        // Remove the Start first (higher index), then the End.
        b.insts.remove(j);
        b.insts.remove(i);
    }
}

/// The first `End_X(h)` that the next section activity on `h` re-opens,
/// with that `Start_X(h)`.
fn mergeable(insts: &[Inst], facts: &Facts, cfg: &SystemConfig) -> Option<(usize, usize)> {
    for (i, inst) in insts.iter().enumerate() {
        let Inst::Ann { hook: end, aid, handle: h, .. } = inst else { continue };
        let start = match end {
            Hook::EndRead => Hook::StartRead,
            Hook::EndWrite => Hook::StartWrite,
            _ => continue,
        };
        if !facts.all_optimizable(*aid, cfg) {
            continue;
        }
        let on_h = |later: &Inst| matches!(later, Inst::Ann { handle, .. } if handle == h);
        let next = insts.iter().enumerate().skip(i + 1).find(|(_, l)| l.is_sync() || on_h(l));
        if let Some((j, Inst::Ann { hook, aid, .. })) = next {
            if *hook == start && facts.all_optimizable(*aid, cfg) {
                return Some((i, j));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::config::SystemConfig;
    use crate::{compile, OptLevel};
    use ace_core::{run_ace, CostModel};

    /// Figure 6's pattern: two consecutive writes through related
    /// pointers; merging removes the second map and fuses the sections.
    const FIG6: &str = r#"
        double main() {
            space s = new_space("Update");
            shared double *x = (shared double*) gmalloc(s, 2);
            double y = 5.0;
            x[0] = y;
            x[1] = 4.0;
            double out = x[0] + x[1];
            return out;
        }
    "#;

    fn dyn_counts(src: &str, level: OptLevel) -> (u64, u64, u64, f64) {
        let cfg = SystemConfig::builtin();
        let p = compile(src, &cfg, level).unwrap();
        let r = run_ace(1, CostModel::free(), |rt| {
            let v = crate::vm::run_program(rt, &p).unwrap().as_f();
            let c = rt.counters();
            (c.map_hits + c.map_misses, c.start_writes, c.ends, v)
        });
        r.results[0]
    }

    #[test]
    fn figure6_merges_maps_and_sections() {
        let (maps0, sw0, _e0, v0) = dyn_counts(FIG6, OptLevel::O0);
        let (maps1, sw1, _e1, v1) = dyn_counts(FIG6, OptLevel::Merge);
        assert_eq!(v0, 9.0);
        assert_eq!(v1, 9.0, "merging must not change results");
        assert!(maps1 < maps0, "maps should merge: {maps1} < {maps0}");
        assert!(sw1 < sw0, "write sections should fuse: {sw1} < {sw0}");
        assert_eq!(sw1, 1, "figure 6 fuses the two writes into one section");
    }

    #[test]
    fn sc_protocol_blocks_merging() {
        let sc = FIG6.replace("Update", "SC");
        let (maps0, sw0, _, v0) = dyn_counts(&sc, OptLevel::O0);
        let (maps1, sw1, _, v1) = dyn_counts(&sc, OptLevel::Merge);
        assert_eq!(v0, v1);
        assert_eq!(maps0, maps1, "SC maps must not merge");
        assert_eq!(sw0, sw1, "SC sections must not fuse");
    }

    #[test]
    fn lock_blocks_section_merge() {
        let src = r#"
            double main() {
                space s = new_space("Update");
                shared double *x = (shared double*) gmalloc(s, 1);
                x[0] = 1.0;
                lock(x);
                x[0] = 2.0;
                unlock(x);
                return x[0];
            }
        "#;
        let (_, sw, _, v) = dyn_counts(src, OptLevel::Merge);
        assert_eq!(v, 2.0);
        assert_eq!(sw, 2, "sections must not merge across a lock");
    }

    #[test]
    fn read_and_write_sections_do_not_fuse() {
        let src = r#"
            double main() {
                space s = new_space("Update");
                shared double *x = (shared double*) gmalloc(s, 1);
                x[0] = 2.5;
                double v = x[0];
                return v;
            }
        "#;
        let (_, sw, _, v) = dyn_counts(src, OptLevel::Merge);
        assert_eq!(v, 2.5);
        assert_eq!(sw, 1, "a write and a read section stay distinct");
    }

    #[test]
    fn store_kills_map_availability() {
        // The handle local is reassigned between the accesses; the maps
        // must not merge.
        let src = r#"
            double main() {
                space s = new_space("Update");
                shared double *x = (shared double*) gmalloc(s, 1);
                shared double *y = (shared double*) gmalloc(s, 1);
                x[0] = 1.0;
                x = y;
                x[0] = 2.0;
                return x[0];
            }
        "#;
        let (_, _, _, v) = dyn_counts(src, OptLevel::Merge);
        assert_eq!(v, 2.0, "reassigned handle must hit the second region");
    }
}
