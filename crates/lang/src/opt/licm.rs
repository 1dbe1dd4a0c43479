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

use crate::analysis::{has, insert, members, Facts};
use crate::config::SystemConfig;
use crate::ir::*;

/// Where an instruction is: its block and its index there.
type Pos = (BlockId, usize);

/// Run the pass over every function.
pub fn run(prog: &mut Program, facts: &Facts, cfg: &SystemConfig) {
    let naccesses = prog.naccesses as usize;
    for f in &mut prog.funcs {
        // Hoist repeatedly: after one loop's candidates move, outer loops
        // may expose further opportunities. Each round moves an access out
        // of a loop into blocks outside it, so the summed loop depth of the
        // function's accesses falls every round and the rounds end.
        while hoist_one(f, naccesses, facts, cfg) {}
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

/// Bit `d` of row `b` (the `⌈n/64⌉` words from `b * ⌈n/64⌉`): whether `d`
/// dominates `b` (the simple iterative algorithm, on bit rows).
fn dominators(preds: &[Vec<BlockId>]) -> Vec<u64> {
    let n = preds.len();
    let words = n.div_ceil(64);
    // Every row full (blocks 0..n), then the entry's {0}.
    let mut full = vec![!0u64; words];
    full[words - 1] >>= words * 64 - n;
    let mut dom = full.repeat(n);
    dom[..words].fill(0);
    insert(&mut dom, 0);
    let mut row = vec![0; words];
    let mut changed = true;
    while std::mem::take(&mut changed) {
        for b in 1..n {
            // {b} ∪ the intersection of the predecessors' rows (of none: ∅).
            row.fill(if preds[b].is_empty() { 0 } else { !0 });
            for &p in &preds[b] {
                row.iter_mut().zip(&dom[p * words..][..words]).for_each(|(r, d)| *r &= d);
            }
            insert(&mut row, b);
            let mine = &mut dom[b * words..][..words];
            changed |= *mine != *row;
            mine.copy_from_slice(&row);
        }
    }
    dom
}

/// All natural loops, as (header, body bitset), innermost (smallest) first.
fn natural_loops(f: &IFunc, preds: &[Vec<BlockId>]) -> Vec<(BlockId, Vec<u64>)> {
    let words = f.blocks.len().div_ceil(64);
    let dom = dominators(preds);
    // Row `h`: the body of the loop headed by `h`; empty if `h` heads none.
    let mut bodies = vec![0; f.blocks.len() * words];
    for (b, blk) in f.blocks.iter().enumerate() {
        // A back edge b -> s: walk predecessors from b up to the header.
        for s in blk.term.successors().filter(|&s| has(&dom[b * words..][..words], s)) {
            let body = &mut bodies[s * words..][..words];
            insert(body, s);
            let mut stack = vec![b];
            while let Some(x) = stack.pop() {
                if insert(body, x) {
                    stack.extend(&preds[x]);
                }
            }
        }
    }
    let mut v: Vec<_> = bodies
        .chunks(words)
        .enumerate()
        .filter(|&(h, body)| has(body, h))
        .map(|(h, body)| (h, body.to_vec()))
        .collect();
    v.sort_by_key(|(h, body)| (members(body).count(), *h));
    v
}

fn hoist_one(f: &mut IFunc, naccesses: usize, facts: &Facts, cfg: &SystemConfig) -> bool {
    let preds = predecessors(f);
    // Each access's `Map`, `Start*` and `End*` by access id, and where each
    // register is defined (registers are single-assignment).
    let mut sites: Vec<[Option<Pos>; 3]> = vec![[None; 3]; naccesses];
    let mut def_site = vec![None; f.nregs as usize];
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            let at = Some((bi, ii));
            if let Some(d) = inst.def() {
                def_site[d as usize] = at;
            }
            let (aid, part) = match inst {
                Inst::Map { aid, .. } => (aid, 0),
                Inst::Ann { hook: Hook::StartRead | Hook::StartWrite, aid, .. } => (aid, 1),
                Inst::Ann { hook: Hook::EndRead | Hook::EndWrite, aid, .. } => (aid, 2),
                _ => continue,
            };
            sites[*aid as usize][part] = at;
        }
    }
    for (header, body) in natural_loops(f, &preds) {
        if header == 0 {
            // The entry block cannot get a preheader.
            continue;
        }
        let in_body = |b: BlockId| has(&body, b);
        let body_insts = || members(&body).flat_map(|b| &f.blocks[b].insts);
        // No synchronization inside the loop.
        if body_insts().any(Inst::is_sync) {
            continue;
        }
        // Unique exit target with all predecessors inside the loop.
        let mut exits =
            members(&body).flat_map(|b| f.blocks[b].term.successors()).filter(|&s| !in_body(s));
        let Some(exit) = exits.next() else { continue };
        if exits.any(|s| s != exit) {
            continue;
        }
        if !preds[exit].iter().all(|&p| in_body(p)) {
            continue;
        }

        // Locals stored anywhere in the loop are not invariant.
        let mut stored = vec![false; f.slots.len()];
        for i in body_insts() {
            if let Inst::StoreLocal { slot, .. } | Inst::StoreArr { slot, .. } = i {
                stored[*slot as usize] = true;
            }
        }

        // Candidate accesses: full triple inside the loop, invariant
        // handle, all protocols optimizable. Each candidate lists what
        // moves to the preheader, then what moves to the exit.
        let mut plan: Vec<(Vec<Pos>, Pos)> = Vec::new();
        for (aid, s) in sites.iter().enumerate() {
            let [Some(m), Some(st), Some(en)] = *s else { continue };
            if ![m, st, en].iter().all(|at| in_body(at.0)) {
                continue;
            }
            if !facts.all_optimizable(aid as AccessId, cfg) {
                continue;
            }
            let Inst::Map { handle, .. } = f.blocks[m.0].insts[m.1] else { continue };
            // Invariance: defined outside the loop (or a parameter-like
            // register defined nowhere), or an in-loop constant or load of
            // an unstored slot that moves out with the access.
            let mut to_pre = vec![m, st];
            match def_site[handle as usize] {
                Some(def) if in_body(def.0) => match &f.blocks[def.0].insts[def.1] {
                    Inst::LoadLocal { slot, .. } if !stored[*slot as usize] => {
                        to_pre.insert(0, def)
                    }
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
        for b in (0..pre).filter(|&b| !in_body(b)) {
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

    /// The boolean-matrix iteration `dominators` replaced: `dom[b][d]` is
    /// whether `d` dominates `b`.
    fn dominators_oracle(preds: &[Vec<usize>]) -> Vec<Vec<bool>> {
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

    #[test]
    fn dominator_rows_are_the_boolean_matrix() {
        // Random CFGs of 1-200 blocks (rows of up to four words). Blocks
        // from `cut` on only reach each other: unreachable cycles, and
        // blocks no edge enters, whose rows the back-edge test reads too.
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rand = |below: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % below as u64) as usize
        };
        for round in 0..300 {
            let n = 1 + round % 200;
            let cut = 1 + rand(n);
            let mut preds = vec![Vec::new(); n];
            for b in 0..n {
                let (lo, hi) = if b < cut { (0, cut) } else { (cut, n) };
                for _ in 0..rand(3) {
                    preds[lo + rand(hi - lo)].push(b);
                }
            }
            let rows = super::dominators(&preds);
            let words = n.div_ceil(64);
            for (b, want) in dominators_oracle(&preds).iter().enumerate() {
                let row = &rows[b * words..][..words];
                let got: Vec<bool> = (0..n).map(|d| crate::analysis::has(row, d)).collect();
                assert_eq!(&got, want, "block {b} of {n}, cut {cut}: {preds:?}");
            }
        }
    }
}
