//! The SPMD bytecode VM: executes compiled Ace-C on the Ace runtime.
//!
//! Every simulated processor runs the same program (the paper's SPMD
//! model, §3.1). Annotation instructions call into [`ace_core::AceRt`]
//! according to their resolved [`DispatchMode`]: `Dispatch` pays the
//! space-indirection cost, `Direct` pays the monomorphic-call cost, and
//! annotations the direct pass removed are simply gone — which is exactly
//! the cost structure Table 4 measures.

use std::rc::Rc;

use ace_core::{AceRt, Protocol, RegionId, SpaceId};
use ace_protocols::{make, ProtoSpec};

use crate::ir::*;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer.
    I(i64),
    /// Float.
    F(f64),
    /// Region handle.
    H(u64),
    /// Space handle.
    S(u32),
}

impl Value {
    /// As integer (bit-reinterpreting handles; truncating is a bug).
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::H(v) => v as i64,
            Value::S(v) => v as i64,
            Value::F(v) => v as i64,
        }
    }

    /// As float.
    pub fn as_f(self) -> f64 {
        match self {
            Value::F(v) => v,
            Value::I(v) => v as f64,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// As region handle.
    pub fn as_h(self) -> RegionId {
        match self {
            Value::H(v) => RegionId(v),
            Value::I(v) => RegionId(v as u64),
            other => panic!("expected handle, got {other:?}"),
        }
    }

    /// As space handle.
    pub fn as_s(self) -> SpaceId {
        match self {
            Value::S(v) => SpaceId(v),
            other => panic!("expected space, got {other:?}"),
        }
    }

    /// Raw 64-bit image for shared-memory storage.
    fn to_bits(self) -> u64 {
        match self {
            Value::I(v) => v as u64,
            Value::F(v) => v.to_bits(),
            Value::H(v) => v,
            Value::S(v) => v as u64,
        }
    }

    fn from_bits(bits: u64, ty: ValTy) -> Value {
        match ty {
            ValTy::I => Value::I(bits as i64),
            ValTy::F => Value::F(f64::from_bits(bits)),
            ValTy::H => Value::H(bits),
            ValTy::S => Value::S(bits as u32),
        }
    }
}

enum SlotVal {
    Scalar(Value),
    Array(Vec<Value>),
}

/// A reusable activation record: the register file and local slots for
/// one call. Pooled per function so repeated calls (the common case for
/// kernels called once per iteration) reuse their allocations instead of
/// reallocating `regs`/`slots` on every `Vm::call`.
struct Frame {
    regs: Vec<Value>,
    slots: Vec<SlotVal>,
}

struct Vm<'a, 'n> {
    rt: &'a AceRt<'n>,
    prog: &'a Program,
    /// This VM's instance of each protocol a `Direct` annotation names,
    /// made at first use. A program names a handful; scanned, not hashed.
    directs: Vec<(ProtoSpec, Rc<dyn Protocol>)>,
    /// Per-function pools of retired frames, indexed by `FuncId`. More
    /// than one entry per function only under recursion.
    frames: Vec<Vec<Frame>>,
}

/// Execute the program's `main` on this node's runtime; returns main's
/// return value, if any.
pub fn run_program(rt: &AceRt, prog: &Program) -> Option<Value> {
    let mut frames = Vec::new();
    frames.resize_with(prog.funcs.len(), Vec::new);
    let mut vm = Vm { rt, prog, directs: Vec::new(), frames };
    vm.call(prog.main, Vec::new())
}

impl<'n> Vm<'_, 'n> {
    /// Run annotation `hook` on handle `h` in its resolved [`DispatchMode`]:
    /// dispatched through the region's space, or direct on this VM's
    /// instance of the statically-known protocol.
    #[inline]
    fn annotate(&mut self, hook: Hook, mode: DispatchMode, h: RegionId) {
        let rt = self.rt;
        match mode {
            DispatchMode::Dispatch => match hook {
                Hook::StartRead => rt.start_read(h),
                Hook::EndRead => rt.end_read(h),
                Hook::StartWrite => rt.start_write(h),
                Hook::EndWrite => rt.end_write(h),
                Hook::Lock => rt.lock(h),
                Hook::Unlock => rt.unlock(h),
            },
            DispatchMode::Direct(spec) => {
                let at = self.directs.iter().position(|(s, _)| *s == spec).unwrap_or_else(|| {
                    self.directs.push((spec, make(spec)));
                    self.directs.len() - 1
                });
                let p = &*self.directs[at].1;
                match hook {
                    Hook::StartRead => rt.start_read_direct(h, p),
                    Hook::EndRead => rt.end_read_direct(h, p),
                    Hook::StartWrite => rt.start_write_direct(h, p),
                    Hook::EndWrite => rt.end_write_direct(h, p),
                    Hook::Lock => rt.lock_direct(h, p),
                    Hook::Unlock => rt.unlock_direct(h, p),
                }
            }
        }
    }

    /// Check a frame out of `fid`'s pool (or build a fresh one) with
    /// registers zeroed and slots reset to their default values.
    fn take_frame(&mut self, fid: FuncId) -> Frame {
        let f = &self.prog.funcs[fid];
        match self.frames[fid].pop() {
            Some(mut frame) => {
                frame.regs.clear();
                frame.regs.resize(f.nregs as usize, Value::I(0));
                debug_assert_eq!(frame.slots.len(), f.slots.len());
                for (sv, s) in frame.slots.iter_mut().zip(&f.slots) {
                    match (sv, s) {
                        (SlotVal::Scalar(v), Slot::Scalar(t)) => *v = default_val(*t),
                        (SlotVal::Array(v), Slot::Array(t, len)) => {
                            v.clear();
                            v.resize(*len, default_val(*t));
                        }
                        (sv, s) => {
                            *sv = match s {
                                Slot::Scalar(t) => SlotVal::Scalar(default_val(*t)),
                                Slot::Array(t, len) => SlotVal::Array(vec![default_val(*t); *len]),
                            }
                        }
                    }
                }
                frame
            }
            None => Frame {
                regs: vec![Value::I(0); f.nregs as usize],
                slots: f
                    .slots
                    .iter()
                    .map(|s| match s {
                        Slot::Scalar(t) => SlotVal::Scalar(default_val(*t)),
                        Slot::Array(t, len) => SlotVal::Array(vec![default_val(*t); *len]),
                    })
                    .collect(),
            },
        }
    }

    fn call(&mut self, fid: FuncId, args: Vec<Value>) -> Option<Value> {
        let f = &self.prog.funcs[fid];
        let mut frame = self.take_frame(fid);
        for (i, a) in args.into_iter().enumerate() {
            frame.slots[i] = SlotVal::Scalar(a);
        }
        let mut bb: BlockId = 0;
        let ret = loop {
            let block = &f.blocks[bb];
            for inst in &block.insts {
                self.exec(inst, &mut frame.regs, &mut frame.slots);
            }
            match &block.term {
                Term::Jump(t) => bb = *t,
                Term::Br { cond, t, f: fb } => {
                    bb = if frame.regs[*cond as usize].as_i() != 0 { *t } else { *fb };
                }
                Term::Ret(r) => break r.map(|r| frame.regs[r as usize]),
            }
        };
        self.frames[fid].push(frame);
        ret
    }

    fn exec(&mut self, inst: &Inst, regs: &mut [Value], slots: &mut [SlotVal]) {
        match inst {
            Inst::ConstI(d, v) => regs[*d as usize] = Value::I(*v),
            Inst::ConstF(d, v) => regs[*d as usize] = Value::F(*v),
            Inst::BinOp { dst, op, ty, a, b } => {
                let (a, b) = (regs[*a as usize], regs[*b as usize]);
                regs[*dst as usize] = binop(*op, *ty, a, b);
            }
            Inst::Neg { dst, ty, a } => {
                regs[*dst as usize] = match ty {
                    ValTy::F => Value::F(-regs[*a as usize].as_f()),
                    _ => Value::I(-regs[*a as usize].as_i()),
                };
            }
            Inst::Not { dst, a } => {
                regs[*dst as usize] = Value::I((regs[*a as usize].as_i() == 0) as i64);
            }
            Inst::IntToF { dst, a } => {
                regs[*dst as usize] = Value::F(regs[*a as usize].as_i() as f64);
            }
            Inst::FToInt { dst, a } => {
                regs[*dst as usize] = Value::I(regs[*a as usize].as_f() as i64);
            }
            Inst::Mov { dst, a } => regs[*dst as usize] = regs[*a as usize],
            Inst::LoadLocal { dst, slot } => {
                let SlotVal::Scalar(v) = &slots[*slot as usize] else {
                    panic!("scalar load of array slot")
                };
                regs[*dst as usize] = *v;
            }
            Inst::StoreLocal { slot, a } => {
                slots[*slot as usize] = SlotVal::Scalar(regs[*a as usize]);
            }
            Inst::LoadArr { dst, slot, idx } => {
                let i = regs[*idx as usize].as_i() as usize;
                let SlotVal::Array(v) = &slots[*slot as usize] else {
                    panic!("array load of scalar slot")
                };
                regs[*dst as usize] = v[i];
            }
            Inst::StoreArr { slot, idx, a } => {
                let i = regs[*idx as usize].as_i() as usize;
                let val = regs[*a as usize];
                let SlotVal::Array(v) = &mut slots[*slot as usize] else {
                    panic!("array store of scalar slot")
                };
                v[i] = val;
            }
            Inst::Map { dst, handle, .. } => {
                let h = regs[*handle as usize].as_h();
                // Mapping always translates; only the hook dispatch varies
                // (and the default on_map hooks are where update-protocol
                // joins happen, so Direct still runs them).
                self.rt.map(h);
                regs[*dst as usize] = Value::H(h.0);
            }
            Inst::Ann { hook, mode, handle, .. } => {
                self.annotate(*hook, *mode, regs[*handle as usize].as_h())
            }
            Inst::GLoad { dst, handle, off, ty } => {
                let h = regs[*handle as usize].as_h();
                let o = regs[*off as usize].as_i() as usize;
                self.rt.charge_mem(1);
                let bits = self.rt.with_unchecked::<u64, _>(h, |d| d[o]);
                regs[*dst as usize] = Value::from_bits(bits, *ty);
            }
            Inst::GStore { handle, off, val } => {
                let h = regs[*handle as usize].as_h();
                let o = regs[*off as usize].as_i() as usize;
                let bits = regs[*val as usize].to_bits();
                self.rt.charge_mem(1);
                self.rt.with_mut_unchecked::<u64, _>(h, |d| d[o] = bits);
            }
            Inst::Call { dst, func, args } => {
                let vals: Vec<Value> = args.iter().map(|a| regs[*a as usize]).collect();
                let r = self.call(*func, vals);
                if let Some(d) = dst {
                    regs[*d as usize] = r.expect("non-void call returned nothing");
                }
            }
            Inst::Intrinsic { dst, which, args } => {
                let v = self.intrinsic(*which, args, regs);
                if let Some(d) = dst {
                    regs[*d as usize] = v;
                }
            }
        }
    }

    fn intrinsic(&mut self, which: Intr, args: &[VReg], regs: &[Value]) -> Value {
        let rt = self.rt;
        match which {
            Intr::NewSpace { spec, .. } => Value::S(rt.new_space(make(spec)).0),
            Intr::ChangeProtocol { spec } => {
                rt.change_protocol(regs[args[0] as usize].as_s(), make(spec));
                Value::I(0)
            }
            Intr::Gmalloc { elem_words } => {
                let s = regs[args[0] as usize].as_s();
                let n = regs[args[1] as usize].as_i().max(0) as usize;
                let words = (n * elem_words as usize).max(1);
                Value::H(rt.gmalloc_words(s, words).0)
            }
            Intr::Barrier => {
                rt.barrier(regs[args[0] as usize].as_s());
                Value::I(0)
            }
            Intr::Rank => Value::I(rt.rank() as i64),
            Intr::Nprocs => Value::I(rt.nprocs() as i64),
            Intr::BcastI => {
                let root = regs[args[0] as usize].as_i() as usize;
                let v = regs[args[1] as usize].as_i() as u64;
                Value::I(rt.bcast(root, &[v])[0] as i64)
            }
            Intr::BcastP => {
                let root = regs[args[0] as usize].as_i() as usize;
                let v = regs[args[1] as usize].as_h().0;
                Value::H(rt.bcast(root, &[v])[0])
            }
            Intr::ReduceAddF => {
                Value::F(rt.allreduce_f64(regs[args[0] as usize].as_f(), |a, b| a + b))
            }
            Intr::ReduceMaxF => Value::F(rt.allreduce_f64(regs[args[0] as usize].as_f(), f64::max)),
            Intr::ReduceAddI => Value::I(
                rt.allreduce_u64(regs[args[0] as usize].as_i() as u64, |a, b| a.wrapping_add(b))
                    as i64,
            ),
            Intr::ReduceMaxI => {
                Value::I(rt.allreduce_u64(regs[args[0] as usize].as_i() as u64, |a, b| {
                    (a as i64).max(b as i64) as u64
                }) as i64)
            }
            Intr::ReduceMinI => {
                Value::I(rt.allreduce_u64(regs[args[0] as usize].as_i() as u64, |a, b| {
                    (a as i64).min(b as i64) as u64
                }) as i64)
            }
            Intr::Sqrt => {
                rt.charge_flops(2);
                Value::F(regs[args[0] as usize].as_f().sqrt())
            }
            Intr::Fabs => Value::F(regs[args[0] as usize].as_f().abs()),
            Intr::ChargeFlops => {
                rt.charge_flops(regs[args[0] as usize].as_i().max(0) as u64);
                Value::I(0)
            }
            Intr::PrintI => {
                eprintln!("[node {}] {}", rt.rank(), regs[args[0] as usize].as_i());
                Value::I(0)
            }
            Intr::PrintF => {
                eprintln!("[node {}] {}", rt.rank(), regs[args[0] as usize].as_f());
                Value::I(0)
            }
        }
    }
}

fn default_val(t: ValTy) -> Value {
    match t {
        ValTy::I => Value::I(0),
        ValTy::F => Value::F(0.0),
        ValTy::H => Value::H(u64::MAX),
        ValTy::S => Value::S(u32::MAX),
    }
}

fn binop(op: Bin, ty: ValTy, a: Value, b: Value) -> Value {
    if ty == ValTy::F {
        let (x, y) = (a.as_f(), b.as_f());
        match op {
            Bin::Add => Value::F(x + y),
            Bin::Sub => Value::F(x - y),
            Bin::Mul => Value::F(x * y),
            Bin::Div => Value::F(x / y),
            Bin::Rem => Value::F(x % y),
            Bin::Eq => Value::I((x == y) as i64),
            Bin::Ne => Value::I((x != y) as i64),
            Bin::Lt => Value::I((x < y) as i64),
            Bin::Le => Value::I((x <= y) as i64),
            Bin::Gt => Value::I((x > y) as i64),
            Bin::Ge => Value::I((x >= y) as i64),
            Bin::And | Bin::Or => unreachable!("logical ops are int-typed"),
        }
    } else {
        let (x, y) = (a.as_i(), b.as_i());
        match op {
            Bin::Add => Value::I(x.wrapping_add(y)),
            Bin::Sub => Value::I(x.wrapping_sub(y)),
            Bin::Mul => Value::I(x.wrapping_mul(y)),
            Bin::Div => Value::I(x / y),
            Bin::Rem => Value::I(x % y),
            Bin::Eq => Value::I((x == y) as i64),
            Bin::Ne => Value::I((x != y) as i64),
            Bin::Lt => Value::I((x < y) as i64),
            Bin::Le => Value::I((x <= y) as i64),
            Bin::Gt => Value::I((x > y) as i64),
            Bin::Ge => Value::I((x >= y) as i64),
            Bin::And => Value::I(((x != 0) && (y != 0)) as i64),
            Bin::Or => Value::I(((x != 0) || (y != 0)) as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::{compile, OptLevel};
    use ace_core::{run_ace, run_ace_with, CostModel, Spmd};
    use std::time::Duration;

    fn run_main(src: &str, nprocs: usize, level: OptLevel) -> Vec<Option<Value>> {
        let cfg = SystemConfig::builtin();
        let p = compile(src, &cfg, level).unwrap();
        run_ace(nprocs, CostModel::free(), |rt| run_program(rt, &p)).results
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            double main() {
                int f = fib(10);
                double x = 2.0;
                return f + sqrt(x * 8.0);
            }
        "#;
        let r = run_main(src, 1, OptLevel::O0);
        assert_eq!(r[0], Some(Value::F(55.0 + 4.0)));
    }

    #[test]
    fn spmd_shared_counter_under_lock() {
        let src = r#"
            int main() {
                space s = new_space("SC");
                shared int *c;
                if (rank() == 0) { c = (shared int*) gmalloc(s, 1); }
                c = (shared int*) bcast_p(0, c);
                int i;
                for (i = 0; i < 5; i = i + 1) {
                    lock(c);
                    int t = c[0];
                    c[0] = t + 1;
                    unlock(c);
                }
                barrier(s);
                int out = c[0];
                barrier(s);
                return out;
            }
        "#;
        for level in OptLevel::ALL {
            let r = run_main(src, 4, level);
            for v in &r {
                assert_eq!(*v, Some(Value::I(20)), "at {level:?}");
            }
        }
    }

    #[test]
    fn migratory_copy_is_recalled_at_every_level() {
        // Rank 1 takes the single copy, then rank 0 reads it back: home
        // recalls the copy and the owner writes it back. The write-back
        // and home's parked-request drain live in Migratory's end hooks,
        // so direct dispatch must keep those calls: were they deleted as
        // null, rank 1's section would never close, the recall would wait
        // for an end that never comes, and this would hang (hence the
        // short watchdog) instead of returning 42.
        let src = r#"
            int main() {
                space s = new_space("Migratory");
                shared int *c;
                if (rank() == 0) { c = (shared int*) gmalloc(s, 1); }
                c = (shared int*) bcast_p(0, c);
                if (rank() == 1) { c[0] = 41; }
                barrier(s);
                int out = 0;
                if (rank() == 0) { out = c[0] + 1; }
                barrier(s);
                return out;
            }
        "#;
        let cfg = SystemConfig::builtin();
        for level in OptLevel::ALL {
            let p = compile(src, &cfg, level).unwrap();
            let machine = Spmd::builder().nprocs(2).watchdog(Duration::from_secs(5));
            let r = run_ace_with(machine, |rt| run_program(rt, &p)).results;
            assert_eq!(r, [Some(Value::I(42)), Some(Value::I(0))], "at {level:?}");
        }
    }

    #[test]
    fn local_arrays_and_loops() {
        let src = r#"
            int main() {
                int a[10];
                int i;
                for (i = 0; i < 10; i = i + 1) { a[i] = i * i; }
                int sum = 0;
                for (i = 0; i < 10; i = i + 1) { sum = sum + a[i]; }
                return sum;
            }
        "#;
        let r = run_main(src, 1, OptLevel::O0);
        assert_eq!(r[0], Some(Value::I(285)));
    }

    #[test]
    fn struct_regions_round_trip() {
        let src = r#"
            struct body { double x; double m; int id; };
            double main() {
                space s = new_space("SC");
                shared struct body *b = (shared struct body*) gmalloc(s, 1);
                b->x = 1.5;
                b->m = 2.0;
                b->id = 7;
                return b->x * b->m + b->id;
            }
        "#;
        let r = run_main(src, 1, OptLevel::O0);
        assert_eq!(r[0], Some(Value::F(10.0)));
    }

    #[test]
    fn figure2_em3d_skeleton_all_levels_agree() {
        // A miniature of Figure 2: two spaces, protocol change, compute
        // loop with barriers.
        let src = r#"
            double main() {
                space eval = new_space("SC");
                space hval = new_space("SC");
                shared double *e;
                shared double *h;
                if (rank() == 0) {
                    e = (shared double*) gmalloc(eval, 8);
                    h = (shared double*) gmalloc(hval, 8);
                }
                e = (shared double*) bcast_p(0, e);
                h = (shared double*) bcast_p(0, h);
                int i;
                if (rank() == 0) {
                    for (i = 0; i < 8; i = i + 1) { e[i] = i; h[i] = 2 * i; }
                }
                barrier(eval);
                barrier(hval);
                change_protocol(eval, "Update");
                change_protocol(hval, "Update");
                int t;
                double acc = 0.0;
                for (t = 0; t < 3; t = t + 1) {
                    if (rank() == 0) {
                        for (i = 0; i < 8; i = i + 1) { e[i] = e[i] + h[i] * 0.5; }
                    }
                    barrier(eval);
                    acc = e[3];
                    barrier(hval);
                }
                return reduce_add(acc);
            }
        "#;
        let mut results = Vec::new();
        for level in OptLevel::ALL {
            let r = run_main(src, 3, level);
            let v = r[0].unwrap().as_f();
            results.push(v);
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "optimization changed results: {results:?}");
        }
        // e[3] starts at 3 and gains h[3]*0.5 = 3 per step: 12 after three
        // steps; summed over 3 nodes = 36.
        assert_eq!(results[0], 36.0);
    }

    #[test]
    fn table4_monotone_dispatch_reduction() {
        // With an optimizable protocol, each level reduces (or keeps) the
        // number of dispatched protocol calls.
        let src = r#"
            double main() {
                space s = new_space("Update");
                shared double *v = (shared double*) gmalloc(s, 32);
                int i;
                int t;
                double acc = 0.0;
                for (t = 0; t < 4; t = t + 1) {
                    for (i = 0; i < 32; i = i + 1) {
                        acc = acc + v[i];
                        v[i] = acc;
                    }
                }
                return acc;
            }
        "#;
        let cfg = SystemConfig::builtin();
        let mut counts = Vec::new();
        for level in OptLevel::ALL {
            let p = compile(src, &cfg, level).unwrap();
            let r = run_ace(1, CostModel::free(), |rt| {
                run_program(rt, &p);
                let c = rt.counters();
                c.dispatched + c.direct
            });
            counts.push(r.results[0]);
        }
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "protocol calls must not increase: {counts:?}");
        }
        assert!(counts[3] < counts[0], "optimizations must help: {counts:?}");
    }
}
