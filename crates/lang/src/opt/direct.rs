//! Direct dispatch (§4.2, "Avoiding Dispatching Overhead").
//!
//! "If the compiler can determine that there is a unique protocol
//! associated with an access, it replaces calls to Ace protocol dispatch
//! routines ... with direct calls to the appropriate protocol routine.
//! ... In addition, if a protocol defines certain actions to be null,
//! then calls to that protocol action can be removed."
//!
//! `Map` calls are rewritten to direct mode (skipping the dispatch) but
//! never removed — the id-to-mapping translation is still required.

use crate::analysis::Facts;
use crate::config::SystemConfig;
use crate::ir::*;

/// Run the pass over every function.
pub fn run(prog: &mut Program, facts: &Facts, cfg: &SystemConfig) {
    for b in prog.funcs.iter_mut().flat_map(|f| &mut f.blocks) {
        b.insts.retain_mut(|inst| {
            let (aid, mode, action) = match inst {
                Inst::Map { aid, mode, .. } => (*aid, mode, None),
                Inst::Ann { aid, mode, hook, .. } => (*aid, mode, Some(hook.action())),
                _ => return true,
            };
            let Some(p) = facts.unique_protocol(aid) else { return true };
            if action.is_some_and(|a| cfg.null_actions(p).contains(a)) {
                return false; // delete the call
            }
            *mode = DispatchMode::Direct(p);
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SystemConfig;
    use crate::{compile, OptLevel};
    use ace_core::{run_ace, CostModel};

    #[test]
    fn static_update_reads_are_removed() {
        // Under StaticUpdate, Start/EndRead are null: the direct pass
        // deletes them wholesale (the paper's big EM3D win).
        let src = r#"
            double main() {
                space s = new_space("StaticUpdate");
                shared double *v = (shared double*) gmalloc(s, 4);
                v[0] = 2.0;
                double out = v[0] + v[1];
                barrier(s);
                return out;
            }
        "#;
        let cfg = SystemConfig::builtin();
        let p = compile(src, &cfg, OptLevel::Direct).unwrap();
        let (d, di) = p.annotation_stats();
        assert_eq!(d, 0, "every annotation is statically resolved");
        let r = run_ace(1, CostModel::free(), |rt| {
            let v = crate::vm::run_program(rt, &p).unwrap().as_f();
            let c = rt.counters();
            (v, c.start_reads, c.dispatched, c.direct)
        });
        let (v, sr, disp, dir) = r.results[0];
        assert_eq!(v, 2.0);
        assert_eq!(sr, 0, "null read hooks removed entirely");
        assert_eq!(disp, 0, "nothing dispatches through the space");
        assert!(dir > 0, "remaining annotations go direct: {dir}");
        let _ = di;
    }

    #[test]
    fn sc_access_stays_dispatched() {
        let src = r#"
            double main() {
                space s = new_space("SC");
                shared double *v = (shared double*) gmalloc(s, 1);
                v[0] = 1.5;
                return v[0];
            }
        "#;
        let cfg = SystemConfig::builtin();
        let p = compile(src, &cfg, OptLevel::Direct).unwrap();
        let r = run_ace(1, CostModel::free(), |rt| {
            // Disable the runtime fast mask so the counters reflect the
            // compiler's dispatch modes rather than in-state absorption.
            rt.set_fast_paths(false);
            let v = crate::vm::run_program(rt, &p).unwrap().as_f();
            (v, rt.counters().dispatched, rt.counters().direct)
        });
        let (v, disp, dir) = r.results[0];
        assert_eq!(v, 1.5);
        // SC is the unique protocol, so calls still go DIRECT (that is
        // legal — uniqueness, not optimizability, gates direct dispatch),
        // but none are removed because SC declares no null actions.
        assert!(disp == 0 && dir > 0, "disp={disp} dir={dir}");

        // With the mask enabled, the same direct calls are absorbed by
        // the in-state fast path — the fourth rung of the Table 4 ladder.
        let r = run_ace(1, CostModel::free(), |rt| {
            crate::vm::run_program(rt, &p).unwrap().as_f();
            (rt.counters().direct, rt.counters().fast_hits)
        });
        let (dir_on, fast_on) = r.results[0];
        assert!(fast_on > 0 && dir_on < dir, "dir_on={dir_on} fast_on={fast_on}");
    }

    #[test]
    fn ambiguous_protocol_stays_dispatched() {
        let src = r#"
            double main() {
                space a = new_space("SC");
                space b = new_space("Null");
                shared double *x;
                if (rank() == 0) { x = (shared double*) gmalloc(a, 1); }
                else { x = (shared double*) gmalloc(b, 1); }
                x[0] = 1.0;
                return x[0];
            }
        "#;
        let cfg = SystemConfig::builtin();
        let p = compile(src, &cfg, OptLevel::Direct).unwrap();
        let r = run_ace(1, CostModel::free(), |rt| {
            // The fast mask would absorb these accesses at runtime; turn
            // it off to observe the dispatch mode the compiler chose.
            rt.set_fast_paths(false);
            crate::vm::run_program(rt, &p).unwrap().as_f();
            rt.counters().dispatched
        });
        assert!(r.results[0] > 0, "two possible protocols forbid direct dispatch");
    }

    #[test]
    fn fetchadd_unlock_removed() {
        let src = r#"
            void main() {
                space s = new_space("FetchAdd");
                shared int *c = (shared int*) gmalloc(s, 1);
                lock(c);
                int t = c[0];
                c[0] = t + 1;
                unlock(c);
            }
        "#;
        let cfg = SystemConfig::builtin();
        let p = compile(src, &cfg, OptLevel::Direct).unwrap();
        // unlock + the null read/write hooks disappear; lock stays.
        let has =
            |h| p.insts().any(|i| matches!(i, crate::ir::Inst::Ann { hook, .. } if *hook == h));
        let (has_unlock, has_lock) = (has(crate::ir::Hook::Unlock), has(crate::ir::Hook::Lock));
        assert!(!has_unlock, "null unlock must be removed");
        assert!(has_lock, "lock is the protocol's real action");
    }
}
