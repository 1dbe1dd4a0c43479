//! Moving calls out of loops (§4.2).
//!
//! "Once the set of protocols associated with each access is determined,
//! we perform loop invariance analysis on the arguments of calls to
//! protocol routines to identify the calls that can be moved out of loops.
//! `ACE_MAP` and `ACE_START_*` calls are moved above a loop, while
//! `ACE_END_*` calls are moved below a loop. This optimization is
//! performed only if all the possible protocols of an access are
//! optimizable."
//!
//! A candidate access's `Map`/`Start`/`End` must all sit inside the loop;
//! the mapped handle must be loop-invariant (a constant, a value defined
//! outside the loop, or a load of a local that the loop never stores);
//! the loop must contain no synchronization; and the loop must have a
//! unique exit block whose predecessors are all inside the loop (so the
//! sunk `End` runs exactly when the loop ran).

use std::collections::{HashMap, HashSet};

use crate::analysis::Facts;
use crate::config::SystemConfig;
use crate::ir::*;
use crate::opt::Pos;

/// Run the pass over every function.
pub fn run(prog: &mut Program, facts: &Facts, cfg: &SystemConfig) {
    for f in &mut prog.funcs {
        // Hoist repeatedly: after one loop's candidates move, outer loops
        // may expose further opportunities. Each round moves an access out
        // of a loop into blocks outside it, so the summed loop depth of the
        // function's accesses falls every round and the rounds end.
        while hoist_one(f, facts, cfg) {}
    }
}

/// Every block's predecessors.
fn predecessors(f: &IFunc) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for (b, blk) in f.blocks.iter().enumerate() {
        for s in blk.term.successors() {
            preds[s].push(b);
        }
    }
    preds
}

/// `dom[b][d]`: whether `d` dominates `b` (simple iterative algorithm).
fn dominators(preds: &[Vec<BlockId>]) -> Vec<Vec<bool>> {
    let n = preds.len();
    let mut dom = vec![vec![true; n]; n];
    dom[0] = (0..n).map(|d| d == 0).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            let by_all_preds = |d| !preds[b].is_empty() && preds[b].iter().all(|&p| dom[p][d]);
            let newd: Vec<bool> = (0..n).map(|d| d == b || by_all_preds(d)).collect();
            if newd != dom[b] {
                dom[b] = newd;
                changed = true;
            }
        }
    }
    dom
}

/// All natural loops, as (header, body-set), innermost (smallest) first.
fn natural_loops(f: &IFunc, preds: &[Vec<BlockId>]) -> Vec<(BlockId, HashSet<BlockId>)> {
    let dom = dominators(preds);
    let mut loops: HashMap<BlockId, HashSet<BlockId>> = HashMap::new();
    for (b, blk) in f.blocks.iter().enumerate() {
        // A back edge b -> s: walk predecessors from b up to the header.
        for s in blk.term.successors().filter(|&s| dom[b][s]) {
            let body = loops.entry(s).or_default();
            body.insert(s);
            let mut stack = vec![b];
            while let Some(x) = stack.pop() {
                if body.insert(x) {
                    stack.extend(&preds[x]);
                }
            }
        }
    }
    let mut v: Vec<_> = loops.into_iter().collect();
    v.sort_by_key(|(h, body)| (body.len(), *h));
    v
}

fn hoist_one(f: &mut IFunc, facts: &Facts, cfg: &SystemConfig) -> bool {
    let preds = predecessors(f);
    let sites = super::index_accesses(f);
    // Where each register is defined (registers are single-assignment).
    let mut def_site: HashMap<VReg, Pos> = HashMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            def_site.extend(inst.def().map(|d| (d, (bi, ii))));
        }
    }
    for (header, body) in natural_loops(f, &preds) {
        if header == 0 {
            // The entry block cannot get a preheader.
            continue;
        }
        let body_insts = || body.iter().flat_map(|&b| &f.blocks[b].insts);
        // No synchronization inside the loop.
        if body_insts().any(Inst::is_sync) {
            continue;
        }
        // Unique exit target with all predecessors inside the loop.
        let mut exits =
            body.iter().flat_map(|&b| f.blocks[b].term.successors()).filter(|s| !body.contains(s));
        let Some(exit) = exits.next() else { continue };
        if exits.any(|s| s != exit) {
            continue;
        }
        if !preds[exit].iter().all(|p| body.contains(p)) {
            continue;
        }

        // Locals stored anywhere in the loop are not invariant.
        let stored: HashSet<u32> = body_insts()
            .filter_map(|i| match i {
                Inst::StoreLocal { slot, .. } | Inst::StoreArr { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();

        // Candidate accesses: full triple inside the loop, invariant
        // handle, all protocols optimizable. Each candidate lists what
        // moves to the preheader, then what moves to the exit.
        let mut plan: Vec<(Vec<Pos>, Pos)> = Vec::new();
        for (aid, s) in &sites {
            let (Some(m), Some(st), Some(en)) = (s.map, s.start, s.end) else { continue };
            if ![m, st, en].iter().all(|at| body.contains(&at.0)) {
                continue;
            }
            if !facts.all_optimizable(*aid, cfg) {
                continue;
            }
            let Inst::Map { handle, .. } = f.blocks[m.0].insts[m.1] else { continue };
            // Invariance: defined outside the loop (or a parameter-like
            // register defined nowhere), or an in-loop constant or load of
            // an unstored slot that moves out with the access.
            let mut to_pre = vec![m, st];
            match def_site.get(&handle) {
                Some(&def) if body.contains(&def.0) => match &f.blocks[def.0].insts[def.1] {
                    Inst::LoadLocal { slot, .. } if !stored.contains(slot) => to_pre.insert(0, def),
                    Inst::ConstI(..) | Inst::ConstF(..) => to_pre.insert(0, def),
                    _ => continue,
                },
                _ => {}
            }
            plan.push((to_pre, en));
        }
        if plan.is_empty() {
            continue;
        }

        // Build the preheader (appended; indices stay stable) and retarget
        // out-of-loop edges into the header.
        let pre = f.blocks.len();
        f.blocks.push(Block { insts: Vec::new(), term: Term::Jump(header) });
        for b in (0..pre).filter(|b| !body.contains(b)) {
            f.blocks[b].term.retarget(header, pre);
        }

        // Move instructions: copy them out first, then delete, in
        // descending index order per block.
        let inst_at = |f: &IFunc, (b, i): Pos| f.blocks[b].insts[i].clone();
        let to_pre: Vec<Inst> =
            plan.iter().flat_map(|(p, _)| p).map(|&at| inst_at(f, at)).collect();
        let to_exit: Vec<Inst> = plan.iter().map(|&(_, en)| inst_at(f, en)).collect();
        let mut delete: Vec<Pos> =
            plan.into_iter().flat_map(|(p, en)| p.into_iter().chain([en])).collect();
        delete.sort_by_key(|&(b, i)| (b, std::cmp::Reverse(i)));
        for (b, i) in delete {
            f.blocks[b].insts.remove(i);
        }
        f.blocks[pre].insts = to_pre;
        f.blocks[exit].insts.splice(0..0, to_exit);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::config::SystemConfig;
    use crate::ir::{Hook, Inst};
    use crate::{compile, OptLevel};

    /// Count annotations inside loop bodies by compiling at O0 vs LICM.
    fn annotation_count(src: &str, level: OptLevel) -> usize {
        let cfg = SystemConfig::builtin();
        let p = compile(src, &cfg, level).unwrap();
        p.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.insts)
            .filter(|i| match i {
                Inst::Map { .. } => true,
                Inst::Ann { hook, .. } => !matches!(hook, Hook::Lock | Hook::Unlock),
                _ => false,
            })
            .count()
    }

    const HOISTABLE: &str = r#"
        void main() {
            space s = new_space("Update");
            shared double *v = (shared double*) gmalloc(s, 16);
            int i;
            double acc = 0.0;
            for (i = 0; i < 16; i = i + 1) {
                acc = acc + v[i];
            }
        }
    "#;

    #[test]
    fn static_count_unchanged_but_moved() {
        // LICM moves, it does not delete: the same number of annotation
        // instructions exist before and after.
        assert_eq!(
            annotation_count(HOISTABLE, OptLevel::O0),
            annotation_count(HOISTABLE, OptLevel::Licm)
        );
    }

    #[test]
    fn hoisted_access_leaves_the_loop() {
        // Run both versions and compare *dynamic* start counts: at O0 the
        // loop dispatches 16 start_reads; after LICM exactly 1.
        use ace_core::{run_ace, CostModel};
        let cfg = SystemConfig::builtin();
        let p0 = compile(HOISTABLE, &cfg, OptLevel::O0).unwrap();
        let p1 = compile(HOISTABLE, &cfg, OptLevel::Licm).unwrap();
        let c0 = run_ace(1, CostModel::free(), |rt| {
            crate::vm::run_program(rt, &p0);
            rt.counters().start_reads
        });
        let c1 = run_ace(1, CostModel::free(), |rt| {
            crate::vm::run_program(rt, &p1);
            rt.counters().start_reads
        });
        assert_eq!(c0.results[0], 16);
        assert_eq!(c1.results[0], 1);
    }

    #[test]
    fn non_optimizable_protocol_blocks_hoisting() {
        let sc = HOISTABLE.replace("Update", "SC");
        use ace_core::{run_ace, CostModel};
        let cfg = SystemConfig::builtin();
        let p1 = compile(&sc, &cfg, OptLevel::Licm).unwrap();
        let c1 = run_ace(1, CostModel::free(), |rt| {
            crate::vm::run_program(rt, &p1);
            rt.counters().start_reads
        });
        assert_eq!(c1.results[0], 16, "SC accesses must not be hoisted");
    }

    #[test]
    fn sync_in_loop_blocks_hoisting() {
        let src = r#"
            void main() {
                space s = new_space("Update");
                shared double *v = (shared double*) gmalloc(s, 4);
                int i;
                double acc = 0.0;
                for (i = 0; i < 4; i = i + 1) {
                    acc = acc + v[0];
                    barrier(s);
                }
            }
        "#;
        use ace_core::{run_ace, CostModel};
        let cfg = SystemConfig::builtin();
        let p1 = compile(src, &cfg, OptLevel::Licm).unwrap();
        let c1 = run_ace(1, CostModel::free(), |rt| {
            crate::vm::run_program(rt, &p1);
            rt.counters().start_reads
        });
        assert_eq!(c1.results[0], 4, "barrier in loop must block hoisting");
    }

    #[test]
    fn results_preserved_by_licm() {
        let src = r#"
            double main() {
                space s = new_space("Update");
                shared double *v = (shared double*) gmalloc(s, 8);
                int i;
                for (i = 0; i < 8; i = i + 1) { v[i] = i * 2.0; }
                double acc = 0.0;
                for (i = 0; i < 8; i = i + 1) { acc = acc + v[i]; }
                return acc;
            }
        "#;
        use ace_core::{run_ace, CostModel};
        let cfg = SystemConfig::builtin();
        for level in [OptLevel::O0, OptLevel::Licm] {
            let p = compile(src, &cfg, level).unwrap();
            let r =
                run_ace(1, CostModel::free(), |rt| crate::vm::run_program(rt, &p).unwrap().as_f());
            assert_eq!(r.results[0], 56.0, "wrong result at {level:?}");
        }
    }
}
