//! The SPMD word VM: executes compiled Ace-C on the Ace runtime.
//!
//! Every simulated processor runs the same program (the paper's SPMD
//! model, §3.1). Annotation instructions call into [`ace_core::AceRt`]
//! according to their resolved [`DispatchMode`]: `Dispatch` pays the
//! space-indirection cost, `Direct` pays the monomorphic-call cost, and
//! annotations the direct pass removed are simply gone — which is exactly
//! the cost structure Table 4 measures.
//!
//! The IR types every operation, so the VM checks no tags: a program is
//! lowered once into `Code`, typed ops over untagged `u64` words. A call's
//! frame is one word array — registers `0..nregs`, then each local slot at a
//! base fixed when the code is built — reset from the function's image.

use std::rc::Rc;

use ace_core::{AceRt, Protocol, RegionId, SpaceId};
use ace_protocols::{make, ProtoSpec};

use crate::ir::*;

/// A runtime value: what `main` returns.
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
}

/// No register (a void call, intrinsic or return) or no protocol (a dispatch).
const NONE: u32 = u32::MAX;

/// A program lowered for the VM: built on its first run, shared by every
/// rank through [`Program`]'s cache.
#[derive(Debug, Clone, Default)]
pub(crate) struct Code {
    funcs: Vec<FnCode>,
    /// The argument registers of every call and intrinsic site, each site's consecutive.
    args: Vec<u32>,
    /// Every intrinsic site: what it is and where its arguments start.
    intrs: Vec<(Intr, u32)>,
    /// Every local array: its frame base and its length.
    arrays: Vec<(u32, u32)>,
    /// The protocol of each `Direct` index.
    specs: Vec<ProtoSpec>,
}

#[derive(Debug, Clone)]
struct FnCode {
    /// The blocks in order, each ended by its `Jump` / `Br` / `Ret`.
    ops: Vec<Op>,
    /// A fresh frame: registers zeroed but for constants, then each slot's default words.
    image: Vec<u64>,
    /// Where the parameters (slots `0..nparams`) live in the frame.
    params: std::ops::Range<usize>,
}

/// The typed binops, one line per IR (op, operand type), grouped by how
/// an operand reads from its word; each line writes its result as a word.
/// A line gives the opcode, its lowering arm and its exec arm; the rest of
/// [`Op`] and the interpreter loop are spelled once around them.
macro_rules! interpreter {
    (
        i64 { $($ni:ident = $bi:ident |$xi:ident, $yi:ident| $ei:expr;)* }
        f64 { $($nf:ident = $bf:ident |$xf:ident, $yf:ident| $ef:expr;)* }
    ) => {
        /// One VM instruction over frame words.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            $($ni { d: u32, a: u32, b: u32 },)*
            $($nf { d: u32, a: u32, b: u32 },)*
            NegI { d: u32, a: u32 },
            NegF { d: u32, a: u32 },
            Not { d: u32, a: u32 },
            IntToF { d: u32, a: u32 },
            FToInt { d: u32, a: u32 },
            Mov { d: u32, a: u32 },
            LoadArr { d: u32, arr: u32, idx: u32 },
            StoreArr { arr: u32, idx: u32, a: u32 },
            Map { d: u32, h: u32 },
            Ann { hook: Hook, h: u32, p: u32 },
            GLoad { d: u32, h: u32, off: u32 },
            GStore { h: u32, off: u32, v: u32 },
            Call { d: u32, f: u32, args: u32 },
            Intrinsic { d: u32, at: u32 },
            Jump(u32),
            Br { c: u32, t: u32, f: u32 },
            Ret(u32),
        }

        fn bin(op: Bin, ty: ValTy, d: u32, a: u32, b: u32) -> Op {
            match (op, ty == ValTy::F) {
                $((Bin::$bi, false) => Op::$ni { d, a, b },)*
                $((Bin::$bf, true) => Op::$nf { d, a, b },)*
                _ => panic!("no {op:?} on {ty:?}"),
            }
        }

        /// Run function `fid` on `w`, a frame from [`Vm::frame`], and return
        /// the frame to the pool.
        fn run(vm: &mut Vm, fid: FuncId, mut w: Vec<u64>) -> Option<u64> {
            let (rt, code) = (vm.rt, vm.code);
            let ops = &code.funcs[fid].ops[..];
            let mut pc = 0;
            let ret = loop {
                let op = ops[pc];
                pc += 1;
                match op {
                    $(Op::$ni { d, a, b } => {
                        let ($xi, $yi) = (w[a as usize] as i64, w[b as usize] as i64);
                        w[d as usize] = $ei;
                    })*
                    $(Op::$nf { d, a, b } => {
                        let $xf = f64::from_bits(w[a as usize]);
                        let $yf = f64::from_bits(w[b as usize]);
                        w[d as usize] = $ef;
                    })*
                    Op::NegI { d, a } => w[d as usize] = w[a as usize].wrapping_neg(),
                    Op::NegF { d, a } => w[d as usize] = (-f64::from_bits(w[a as usize])).to_bits(),
                    Op::Not { d, a } => w[d as usize] = (w[a as usize] == 0) as u64,
                    Op::IntToF { d, a } => w[d as usize] = (w[a as usize] as i64 as f64).to_bits(),
                    Op::FToInt { d, a } => {
                        w[d as usize] = f64::from_bits(w[a as usize]) as i64 as u64;
                    }
                    Op::Mov { d, a } => w[d as usize] = w[a as usize],
                    Op::LoadArr { d, arr, idx } => {
                        w[d as usize] = w[elem(code, arr, w[idx as usize])];
                    }
                    Op::StoreArr { arr, idx, a } => {
                        let at = elem(code, arr, w[idx as usize]);
                        w[at] = w[a as usize];
                    }
                    Op::Map { d, h } => {
                        // Direct still maps: default on_map hooks join update protocols.
                        rt.map(RegionId(w[h as usize]));
                        w[d as usize] = w[h as usize];
                    }
                    Op::Ann { hook, h, p } => vm.annotate(hook, p, RegionId(w[h as usize])),
                    Op::GLoad { d, h, off } => {
                        let (h, o) = (RegionId(w[h as usize]), w[off as usize] as usize);
                        rt.charge_mem(1);
                        w[d as usize] = rt.with_unchecked::<u64, _>(h, |r| r[o]);
                    }
                    Op::GStore { h, off, v } => {
                        let (o, v) = (w[off as usize] as usize, w[v as usize]);
                        rt.charge_mem(1);
                        rt.with_mut_unchecked::<u64, _>(RegionId(w[h as usize]), |r| r[o] = v);
                    }
                    Op::Call { d, f, args } => {
                        let (f, mut frame) = (f as usize, vm.frame(f as usize));
                        let params = code.funcs[f].params.clone();
                        for (k, a) in params.zip(&code.args[args as usize..]) {
                            frame[k] = w[*a as usize];
                        }
                        let r = run(vm, f, frame);
                        if d != NONE {
                            w[d as usize] = r.expect("non-void call returned nothing");
                        }
                    }
                    Op::Intrinsic { d, at } => {
                        let (which, args) = code.intrs[at as usize];
                        let r = vm.intrinsic(which, &code.args[args as usize..], &w);
                        if d != NONE {
                            w[d as usize] = r;
                        }
                    }
                    Op::Jump(t) => pc = t as usize,
                    Op::Br { c, t, f } => pc = if w[c as usize] != 0 { t } else { f } as usize,
                    Op::Ret(r) => break (r != NONE).then(|| w[r as usize]),
                }
            };
            vm.frames[fid].push(w);
            ret
        }
    };
}

interpreter! {
    i64 {
        AddI = Add |x, y| x.wrapping_add(y) as u64;
        SubI = Sub |x, y| x.wrapping_sub(y) as u64;
        MulI = Mul |x, y| x.wrapping_mul(y) as u64;
        DivI = Div |x, y| (x / y) as u64;
        RemI = Rem |x, y| (x % y) as u64;
        EqI = Eq |x, y| (x == y) as u64;
        NeI = Ne |x, y| (x != y) as u64;
        LtI = Lt |x, y| (x < y) as u64;
        LeI = Le |x, y| (x <= y) as u64;
        GtI = Gt |x, y| (x > y) as u64;
        GeI = Ge |x, y| (x >= y) as u64;
        AndI = And |x, y| (x != 0 && y != 0) as u64;
        OrI = Or |x, y| (x != 0 || y != 0) as u64;
    }
    f64 {
        AddF = Add |x, y| (x + y).to_bits();
        SubF = Sub |x, y| (x - y).to_bits();
        MulF = Mul |x, y| (x * y).to_bits();
        DivF = Div |x, y| (x / y).to_bits();
        RemF = Rem |x, y| (x % y).to_bits();
        EqF = Eq |x, y| (x == y) as u64;
        NeF = Ne |x, y| (x != y) as u64;
        LtF = Lt |x, y| (x < y) as u64;
        LeF = Le |x, y| (x <= y) as u64;
        GtF = Gt |x, y| (x > y) as u64;
        GeF = Ge |x, y| (x >= y) as u64;
    }
}

/// The frame word of element `i` of local array `arr`, bounds-checked so
/// an index can never reach a neighbouring slot.
fn elem(code: &Code, arr: u32, i: u64) -> usize {
    let (base, len) = code.arrays[arr as usize];
    assert!(i < len as u64, "local array index {} out of bounds 0..{len}", i as i64);
    base as usize + i as usize
}

impl Code {
    pub(crate) fn new(prog: &Program) -> Code {
        let mut code = Code::default();
        code.funcs = prog.funcs.iter().map(|f| code.lower(f)).collect();
        code
    }

    fn lower(&mut self, f: &IFunc) -> FnCode {
        // Per slot: (frame word, true) if a scalar, (index in `arrays`, false) if not.
        let mut image = vec![0; f.nregs as usize];
        let mut slots = Vec::with_capacity(f.slots.len());
        for s in &f.slots {
            let (t, n, base) = match *s {
                Slot::Scalar(t) => (t, 1, image.len() as u32),
                Slot::Array(t, n) => (t, n, self.arrays.len() as u32),
            };
            if let Slot::Array(..) = s {
                self.arrays.push((image.len() as u32, n as u32));
            }
            slots.push((base, matches!(s, Slot::Scalar(_))));
            let word = match t {
                ValTy::I | ValTy::F => 0,
                ValTy::H => u64::MAX,
                ValTy::S => u32::MAX as u64,
            };
            image.resize(image.len() + n, word);
        }
        let slot = |s: u32, scalar: bool| match slots[s as usize] {
            (at, kind) if kind == scalar => at,
            _ => panic!("{}: slot {s} used as the wrong kind", f.name),
        };
        // Each register's uses: a count, and per block (index, register), the
        // terminator's at the block's length. A constant is its image word.
        let mut blocks = f.blocks.clone();
        let (mut uses, mut at) = (vec![0; f.nregs as usize], Vec::with_capacity(blocks.len()));
        for b in &mut blocks {
            let mut here = Vec::new();
            for (k, i) in b.insts.iter_mut().enumerate() {
                i.for_each_use_mut(|r| here.push((k, *r)));
                match *i {
                    Inst::ConstI(d, v) => image[d as usize] = v as u64,
                    Inst::ConstF(d, v) => image[d as usize] = v.to_bits(),
                    _ => {}
                }
            }
            if let Term::Br { cond: r, .. } | Term::Ret(Some(r)) = b.term {
                here.push((b.insts.len(), r));
            }
            here.iter().for_each(|&(_, r)| uses[r as usize] += 1);
            at.push(here);
        }
        // A register's frame word: its own, or a scalar slot's when the
        // `LoadLocal` defining it or the `StoreLocal` that is its one use
        // emits no op. Registers are single-assignment (DESIGN.md §8).
        let mut word: Vec<u32> = (0..f.nregs).collect();
        for (b, at) in blocks.iter_mut().zip(&at) {
            let (n, mut kept) = (b.insts.len(), Vec::new());
            // The scalar slot instruction `k` loads (false) or stores (true).
            let local = |k: usize| match b.insts[k] {
                Inst::LoadLocal { slot, .. } => (slot, false),
                Inst::StoreLocal { slot, .. } => (slot, true),
                _ => (NONE, false),
            };
            for (i, inst) in b.insts.iter().enumerate() {
                let alias = match *inst {
                    // Every use comes before the slot's next store.
                    Inst::LoadLocal { dst, slot: s } => {
                        let end = (i + 1..n).find(|&k| local(k) == (s, true)).unwrap_or(n + 1);
                        let here = at.iter().filter(|&&(k, r)| r == dst && i < k && k < end);
                        Some((dst, slot(s, true))).filter(|_| here.count() == uses[dst as usize])
                    }
                    // The value's kept op writes the slot: nothing between
                    // them loads or stores the slot or reads its old word.
                    Inst::StoreLocal { slot: s, a } => {
                        let w = slot(s, true);
                        let def = (0..i).rev().find(|&k| b.insts[k].def() == Some(a));
                        let def = def.filter(|&d| kept[d] && (d + 1..i).all(|k| local(k).0 != s));
                        let read =
                            |d| at.iter().any(|&(k, r)| d < k && k < i && word[r as usize] == w);
                        Some((a, w))
                            .filter(|_| uses[a as usize] == 1 && def.is_some_and(|d| !read(d)))
                    }
                    _ => None,
                };
                if let Some((r, w)) = alias {
                    word[r as usize] = w;
                }
                kept.push(alias.is_none() && !matches!(inst, Inst::ConstI(..) | Inst::ConstF(..)));
            }
            let mut kept = kept.into_iter();
            b.insts.retain(|_| kept.next().unwrap());
        }
        let w = |r: VReg| word[r as usize];
        // Each block's first pc: its ops, then its terminator.
        let mut pcs = vec![0];
        for b in &blocks {
            pcs.push(pcs[pcs.len() - 1] + b.insts.len() as u32 + 1);
        }
        let mut ops = Vec::with_capacity(pcs[f.blocks.len()] as usize);
        for b in &mut blocks {
            for inst in &mut b.insts {
                inst.for_each_use_mut(|r| *r = w(*r));
                let op = match *inst {
                    Inst::ConstI(..) | Inst::ConstF(..) => unreachable!("a constant emits no op"),
                    Inst::BinOp { dst, op, ty, a, b } => bin(op, ty, w(dst), a, b),
                    Inst::Neg { dst, ty: ValTy::F, a } => Op::NegF { d: w(dst), a },
                    Inst::Neg { dst, a, .. } => Op::NegI { d: w(dst), a },
                    Inst::Not { dst, a } => Op::Not { d: w(dst), a },
                    Inst::IntToF { dst, a } => Op::IntToF { d: w(dst), a },
                    Inst::FToInt { dst, a } => Op::FToInt { d: w(dst), a },
                    Inst::Mov { dst, a } => Op::Mov { d: w(dst), a },
                    Inst::LoadLocal { dst, slot: s } => Op::Mov { d: w(dst), a: slot(s, true) },
                    Inst::StoreLocal { slot: s, a } => Op::Mov { d: slot(s, true), a },
                    Inst::LoadArr { dst, slot: s, idx } => {
                        Op::LoadArr { d: w(dst), arr: slot(s, false), idx }
                    }
                    Inst::StoreArr { slot: s, idx, a } => {
                        Op::StoreArr { arr: slot(s, false), idx, a }
                    }
                    Inst::Map { dst, handle, .. } => Op::Map { d: w(dst), h: handle },
                    Inst::Ann { hook, mode: DispatchMode::Dispatch, handle, .. } => {
                        Op::Ann { hook, h: handle, p: NONE }
                    }
                    Inst::Ann { hook, mode: DispatchMode::Direct(spec), handle, .. } => {
                        let p = self.specs.iter().position(|s| *s == spec).unwrap_or_else(|| {
                            self.specs.push(spec);
                            self.specs.len() - 1
                        });
                        Op::Ann { hook, h: handle, p: p as u32 }
                    }
                    Inst::GLoad { dst, handle, off, .. } => Op::GLoad { d: w(dst), h: handle, off },
                    Inst::GStore { handle, off, val } => Op::GStore { h: handle, off, v: val },
                    Inst::Call { dst, func, ref args } => {
                        let at = self.args.len() as u32;
                        self.args.extend_from_slice(args);
                        Op::Call { d: dst.map_or(NONE, w), f: func as u32, args: at }
                    }
                    Inst::Intrinsic { dst, which, ref args } => {
                        self.intrs.push((which, self.args.len() as u32));
                        self.args.extend_from_slice(args);
                        Op::Intrinsic { d: dst.map_or(NONE, w), at: self.intrs.len() as u32 - 1 }
                    }
                };
                ops.push(op);
            }
            ops.push(match b.term {
                Term::Jump(t) => Op::Jump(pcs[t]),
                Term::Br { cond, t, f } => Op::Br { c: w(cond), t: pcs[t], f: pcs[f] },
                Term::Ret(r) => Op::Ret(r.map_or(NONE, w)),
            });
        }
        let first = f.nregs as usize;
        FnCode { ops, image, params: first..first + f.nparams }
    }
}

struct Vm<'a, 'n> {
    rt: &'a AceRt<'n>,
    code: &'a Code,
    /// This VM's instance of each protocol a `Direct` annotation names,
    /// made at first use.
    directs: Vec<Option<Rc<dyn Protocol>>>,
    /// Per-function pools of retired frames, indexed by `FuncId`. More
    /// than one entry per function only under recursion.
    frames: Vec<Vec<Vec<u64>>>,
}

/// Execute the program's `main` on this node's runtime; returns main's
/// return value, if any.
pub fn run_program(rt: &AceRt, prog: &Program) -> Option<Value> {
    let code = prog.code.get_or_init(|| Code::new(prog));
    let directs = vec![None; code.specs.len()];
    let mut vm = Vm { rt, code, directs, frames: vec![Vec::new(); code.funcs.len()] };
    let frame = vm.frame(prog.main);
    let ret = run(&mut vm, prog.main, frame);
    ret.zip(prog.funcs[prog.main].ret).map(|(bits, t)| match t {
        ValTy::I => Value::I(bits as i64),
        ValTy::F => Value::F(f64::from_bits(bits)),
        ValTy::H => Value::H(bits),
        ValTy::S => Value::S(bits as u32),
    })
}

impl Vm<'_, '_> {
    /// Run annotation `hook` on handle `h`: dispatched through the region's
    /// space (`p` is `NONE`), or direct on this VM's instance of `specs[p]`.
    #[inline]
    fn annotate(&mut self, hook: Hook, p: u32, h: RegionId) {
        let rt = self.rt;
        match p {
            NONE => match hook {
                Hook::StartRead => rt.start_read(h),
                Hook::EndRead => rt.end_read(h),
                Hook::StartWrite => rt.start_write(h),
                Hook::EndWrite => rt.end_write(h),
                Hook::Lock => rt.lock(h),
                Hook::Unlock => rt.unlock(h),
            },
            p => {
                let spec = self.code.specs[p as usize];
                let p = &**self.directs[p as usize].get_or_insert_with(|| make(spec));
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

    /// Check a frame out of `fid`'s pool (or build a fresh one), reset to
    /// the function's initial image.
    fn frame(&mut self, fid: FuncId) -> Vec<u64> {
        let image = &self.code.funcs[fid].image;
        let mut w = self.frames[fid].pop().unwrap_or_else(|| vec![0; image.len()]);
        w.copy_from_slice(image);
        w
    }

    fn intrinsic(&mut self, which: Intr, args: &[u32], w: &[u64]) -> u64 {
        let rt = self.rt;
        let arg = |k: usize| w[args[k] as usize];
        let (int, float) = (|k| arg(k) as i64, |k| f64::from_bits(arg(k)));
        let space = |k| SpaceId(arg(k) as u32);
        // The effect, then the value (0 for the void intrinsics).
        match which {
            Intr::ChangeProtocol { spec } => rt.change_protocol(space(0), make(spec)),
            Intr::Barrier => rt.barrier(space(0)),
            Intr::Sqrt => rt.charge_flops(2),
            Intr::ChargeFlops => rt.charge_flops(int(0).max(0) as u64),
            Intr::PrintI => eprintln!("[node {}] {}", rt.rank(), int(0)),
            Intr::PrintF => eprintln!("[node {}] {}", rt.rank(), float(0)),
            _ => {}
        }
        match which {
            Intr::NewSpace { spec, .. } => rt.new_space(make(spec)).0 as u64,
            Intr::Gmalloc { elem_words } => {
                rt.gmalloc_words(space(0), (int(1).max(0) as usize * elem_words as usize).max(1)).0
            }
            Intr::Rank => rt.rank() as u64,
            Intr::Nprocs => rt.nprocs() as u64,
            Intr::BcastI | Intr::BcastP => rt.bcast(int(0) as usize, &[arg(1)])[0],
            Intr::ReduceAddF => rt.allreduce_f64(float(0), |a, b| a + b).to_bits(),
            Intr::ReduceMaxF => rt.allreduce_f64(float(0), f64::max).to_bits(),
            Intr::ReduceAddI => rt.allreduce_u64(arg(0), u64::wrapping_add),
            Intr::ReduceMaxI => rt.allreduce_u64(arg(0), |a, b| (a as i64).max(b as i64) as u64),
            Intr::ReduceMinI => rt.allreduce_u64(arg(0), |a, b| (a as i64).min(b as i64) as u64),
            Intr::Sqrt => float(0).sqrt().to_bits(),
            Intr::Fabs => float(0).abs().to_bits(),
            _ => 0,
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

    #[test]
    fn return_converts_to_the_declared_type() {
        // `one()` once returned the int it was given: stored into a double
        // region and read back, that was 5e-324 at every level.
        let src = r#"
            double one() { return 1; }
            double main() {
                space s = new_space("SC");
                shared double *p = (shared double*) gmalloc(s, 1);
                p[0] = one();
                return p[0];
            }
        "#;
        for level in OptLevel::ALL {
            assert_eq!(run_main(src, 1, level), [Some(Value::F(1.0))], "at {level:?}");
        }
    }

    const INTS: [(&str, i64); 8] = [
        ("0", 0),
        ("1", 1),
        ("-1", -1),
        ("7", 7),
        ("-7", -7),
        ("3", 3),
        ("9223372036854775807", i64::MAX),
        ("(-9223372036854775807 - 1)", i64::MIN),
    ];

    const FLOATS: [(&str, f64); 8] = [
        ("0.0", 0.0),
        ("-0.0", -0.0),
        ("1.5", 1.5),
        ("-2.25", -2.25),
        ("1.0e300", 1e300),
        ("(0.0 / 0.0)", f64::NAN),
        ("(1.0 / 0.0)", f64::INFINITY),
        ("(-1.0 / 0.0)", f64::NEG_INFINITY),
    ];

    /// Main's value on one node, or the panic its node died of.
    fn outcome(p: &Program) -> Result<Value, String> {
        let run = || run_ace(1, CostModel::free(), |rt| run_program(rt, p)).results[0].unwrap();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .map_err(|e| e.downcast_ref::<String>().cloned().unwrap_or_else(|| format!("{e:?}")))
    }

    fn eval(src: &str) -> Result<Value, String> {
        outcome(&compile(src, &SystemConfig::builtin(), OptLevel::O0).unwrap())
    }

    /// `ret main() { ty x = X; ty y = Y; return x op y; }`. Where the source
    /// cannot spell the op (`lower` rejects float `%`, and `&&` / `||` lower to
    /// branches), `op` is `-` and the returned `BinOp` becomes `swap`.
    fn binop(
        ty: &str,
        ret: &str,
        op: &str,
        swap: Option<Bin>,
        x: &str,
        y: &str,
    ) -> Result<Value, String> {
        let src = format!("{ret} main() {{ {ty} x = {x}; {ty} y = {y}; return x {op} y; }}");
        let mut p = compile(&src, &SystemConfig::builtin(), OptLevel::O0).unwrap();
        if let Some(to) = swap {
            let insts = &mut p.funcs[p.main].blocks[0].insts;
            let last = insts.iter_mut().rev().find_map(|i| match i {
                Inst::BinOp { op, .. } => Some(op),
                _ => None,
            });
            *last.unwrap() = to;
        }
        outcome(&p)
    }

    /// Equal bits, or both NaN (the hardware's NaN need not be Rust's).
    fn same(got: Result<Value, String>, want: f64) -> bool {
        matches!(got, Ok(Value::F(g)) if g.to_bits() == want.to_bits() || g.is_nan() && want.is_nan())
    }

    #[test]
    fn typed_binops_agree_with_rust() {
        type IntOp = (&'static str, Option<Bin>, fn(i64, i64) -> Option<i64>);
        let ints: [IntOp; 13] = [
            ("+", None, |x, y| Some(x.wrapping_add(y))),
            ("-", None, |x, y| Some(x.wrapping_sub(y))),
            ("*", None, |x, y| Some(x.wrapping_mul(y))),
            // `None`: Rust's operator panics (zero divisor, `MIN / -1`).
            ("/", None, i64::checked_div),
            ("%", None, i64::checked_rem),
            ("==", None, |x, y| Some((x == y) as i64)),
            ("!=", None, |x, y| Some((x != y) as i64)),
            ("<", None, |x, y| Some((x < y) as i64)),
            ("<=", None, |x, y| Some((x <= y) as i64)),
            (">", None, |x, y| Some((x > y) as i64)),
            (">=", None, |x, y| Some((x >= y) as i64)),
            ("-", Some(Bin::And), |x, y| Some((x != 0 && y != 0) as i64)),
            ("-", Some(Bin::Or), |x, y| Some((x != 0 || y != 0) as i64)),
        ];
        type FloatOp = (&'static str, Option<Bin>, fn(f64, f64) -> f64);
        let floats: [FloatOp; 5] = [
            ("+", None, |x, y| x + y),
            ("-", None, |x, y| x - y),
            ("*", None, |x, y| x * y),
            ("/", None, |x, y| x / y),
            ("-", Some(Bin::Rem), |x, y| x % y),
        ];
        type FloatCmp = (&'static str, fn(f64, f64) -> bool);
        let cmps: [FloatCmp; 6] = [
            ("==", |x, y| x == y),
            ("!=", |x, y| x != y),
            ("<", |x, y| x < y),
            ("<=", |x, y| x <= y),
            (">", |x, y| x > y),
            (">=", |x, y| x >= y),
        ];
        for (xs, x) in INTS {
            for (ys, y) in INTS {
                for (op, swap, want) in ints {
                    let got = binop("int", "int", op, swap, xs, ys);
                    match want(x, y) {
                        Some(v) => assert_eq!(got, Ok(Value::I(v)), "{x} {op} {y} as {swap:?}"),
                        None => assert!(got.is_err(), "{x} {op} {y} must panic, got {got:?}"),
                    }
                }
            }
        }
        for (xs, x) in FLOATS {
            for (ys, y) in FLOATS {
                for (op, swap, want) in floats {
                    let got = binop("double", "double", op, swap, xs, ys);
                    assert!(same(got.clone(), want(x, y)), "{x} {op} {y} as {swap:?}: {got:?}");
                }
                for (op, want) in cmps {
                    let got = binop("double", "int", op, None, xs, ys);
                    assert_eq!(got, Ok(Value::I(want(x, y) as i64)), "{x} {op} {y}");
                }
            }
        }
    }

    #[test]
    fn unary_ops_agree_with_rust() {
        for (xs, x) in INTS {
            let neg = eval(&format!("int main() {{ int x = {xs}; return -x; }}"));
            assert_eq!(neg, Ok(Value::I(x.wrapping_neg())), "-{x}");
            let not = eval(&format!("int main() {{ int x = {xs}; return !x; }}"));
            assert_eq!(not, Ok(Value::I((x == 0) as i64)), "!{x}");
            let to_f = eval(&format!("double main() {{ int x = {xs}; return (double) x; }}"));
            assert_eq!(to_f, Ok(Value::F(x as f64)), "(double) {x}");
        }
        for (xs, x) in FLOATS {
            let neg = eval(&format!("double main() {{ double x = {xs}; return -x; }}"));
            assert!(same(neg.clone(), -x), "-{x}: {neg:?}");
            let to_i = eval(&format!("int main() {{ double x = {xs}; return (int) x; }}"));
            assert_eq!(to_i, Ok(Value::I(x as i64)), "(int) {x}");
        }
    }

    #[test]
    fn a_local_array_index_never_reaches_a_neighbouring_slot() {
        // `c` sits just below `a` in the frame and `b` just above it.
        for (idx, stmt) in
            [("4", "return a[i];"), ("-1", "return a[i];"), ("4", "a[i] = 5; return b[0];")]
        {
            let src = format!(
                "int main() {{ int c = 42; int a[4]; int b[4]; b[0] = 99; int i = {idx}; {stmt} }}"
            );
            let got = eval(&src);
            assert!(got.as_ref().is_err_and(|e| e.contains("out of bounds")), "a[{idx}]: {got:?}");
        }
    }

    #[test]
    fn a_pooled_frame_starts_from_the_image() {
        let src = r#"
            int f(int k) {
                int a[4];
                int t;
                int s = a[0] + a[1] + a[2] + a[3] + t;
                a[k] = 7;
                a[3] = 9;
                t = 5;
                return s;
            }
            int main() { int first = f(0); int second = f(1); return first * 1000 + second; }
        "#;
        for level in OptLevel::ALL {
            assert_eq!(run_main(src, 1, level), [Some(Value::I(0))], "at {level:?}");
        }
    }

    #[test]
    fn a_recursive_call_keeps_its_callers_slots() {
        let src = r#"
            int sum(int n) {
                int mine = n * 10;
                int a[2];
                a[0] = n;
                if (n == 0) { return 0; }
                int rest = sum(n - 1);
                return mine + a[0] + rest;
            }
            int main() { return sum(4); }
        "#;
        for level in OptLevel::ALL {
            assert_eq!(run_main(src, 1, level), [Some(Value::I(110))], "at {level:?}");
        }
    }

    #[test]
    fn reading_through_an_unassigned_shared_pointer_is_an_unknown_region() {
        // `p` holds the null handle, whose home is no rank: mapping it once
        // panicked indexing the machine's ranks.
        let src = "int main() { shared int *p; return p[0]; }";
        for level in OptLevel::ALL {
            let p = compile(src, &SystemConfig::builtin(), level).unwrap();
            let run = || run_ace(2, CostModel::free(), |rt| run_program(rt, &p));
            let e = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
            let msg = e.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(&format!("region {} not known", RegionId::NULL)), "{msg}");
        }
    }

    #[test]
    fn a_store_writes_its_slot_early_only_if_nothing_reads_the_slot_in_between() {
        // One block over slot `x`: r1 = x = 3; r3 = r1 + 5; <between>;
        // x = r3; <after>; then main returns x * 100 + r<other>, lowered to
        // `movs` `Mov`s. The add may write `x` itself in the second and
        // third cases only. In the first, r4 reads the old x through r1
        // after the add; in the fourth and fifth `x` is loaded or stored
        // between the add and its store, which no source lowers to; in the
        // last, r3 has a second use, after `x` changed again.
        use Inst::{ConstI, LoadLocal, StoreLocal};
        let bin = |dst, op, a, b| Inst::BinOp { dst, op, ty: ValTy::I, a, b };
        let cases = [
            (vec![bin(4, Bin::Add, 1, 1)], vec![], 4, 806, 2),
            (vec![ConstI(4, 1)], vec![], 4, 801, 1),
            // r1 is read after the store: a copy, so the add writes `x`.
            (vec![], vec![], 1, 803, 2),
            (vec![LoadLocal { dst: 4, slot: 0 }], vec![], 4, 803, 3),
            (vec![ConstI(4, 7), StoreLocal { slot: 0, a: 4 }], vec![], 4, 807, 3),
            (vec![], vec![ConstI(4, 2), StoreLocal { slot: 0, a: 4 }], 3, 208, 3),
        ];
        for (between, after, other, want, movs) in cases {
            let mut insts = vec![ConstI(0, 3), StoreLocal { slot: 0, a: 0 }];
            insts.extend([LoadLocal { dst: 1, slot: 0 }, ConstI(2, 5), bin(3, Bin::Add, 1, 2)]);
            insts.extend(between);
            insts.push(StoreLocal { slot: 0, a: 3 });
            insts.extend(after);
            insts.extend([LoadLocal { dst: 5, slot: 0 }, ConstI(6, 100)]);
            insts.extend([bin(7, Bin::Mul, 5, 6), bin(8, Bin::Add, 7, other)]);
            let main = IFunc {
                name: "main".into(),
                nparams: 0,
                slots: vec![Slot::Scalar(ValTy::I)],
                nregs: 9,
                ret: Some(ValTy::I),
                blocks: vec![Block { insts, term: Term::Ret(Some(8)) }],
            };
            let p = Program { funcs: vec![main], main: 0, naccesses: 0, code: Default::default() };
            p.assert_single_assignment();
            assert_eq!(outcome(&p), Ok(Value::I(want)), "x * 100 + r{other}");
            let ops = &p.code.get().unwrap().funcs[0].ops;
            assert_eq!(ops.iter().filter(|op| matches!(op, Op::Mov { .. })).count(), movs);
        }
    }

    /// The five Table 4 kernels at LI+MC+DC and the `(ops, Mov ops)` their
    /// code lowers to, summed over their functions. While every `LoadLocal`,
    /// `StoreLocal` and constant was an op they read (692, 280), (811, 357),
    /// (459, 187), (585, 226) and (553, 202).
    const KERNELS: [(&str, (usize, usize)); 5] = [
        (include_str!("../../bench/programs/barnes.ace"), (338, 24)),
        (include_str!("../../bench/programs/bsc.ace"), (417, 31)),
        (include_str!("../../bench/programs/em3d.ace"), (222, 20)),
        (include_str!("../../bench/programs/tsp.ace"), (291, 40)),
        (include_str!("../../bench/programs/water.ace"), (278, 17)),
    ];

    #[test]
    fn kernels_lower_to_the_pinned_op_counts() {
        let cfg = SystemConfig::builtin();
        let got = KERNELS.map(|(src, _)| {
            let code = Code::new(&compile(src, &cfg, OptLevel::Direct).unwrap());
            let ops = code.funcs.iter().flat_map(|f| &f.ops);
            (ops.clone().count(), ops.filter(|op| matches!(op, Op::Mov { .. })).count())
        });
        assert_eq!(got, KERNELS.map(|(_, want)| want));
    }

    #[test]
    #[should_panic(expected = "used as the wrong kind")]
    fn a_slot_used_as_the_wrong_kind_fails_when_the_code_is_built() {
        let mut p = compile(
            "int main() { int a[2]; int x = 1; return x; }",
            &SystemConfig::builtin(),
            OptLevel::O0,
        )
        .unwrap();
        for i in &mut p.funcs[p.main].blocks[0].insts {
            if let Inst::LoadLocal { slot, .. } = i {
                *slot = 0;
            }
        }
        Code::new(&p);
    }

    #[test]
    #[should_panic(expected = "used as the wrong kind")]
    fn a_store_that_emits_no_op_still_checks_its_slot() {
        // `x = x + 1`'s add writes `x` itself; its store is then retargeted
        // at the array.
        let src = "int main() { int a[2]; int x = 1; x = x + 1; return x; }";
        let mut p = compile(src, &SystemConfig::builtin(), OptLevel::O0).unwrap();
        let insts = &mut p.funcs[p.main].blocks[0].insts;
        let last = insts.iter_mut().rev().find_map(|i| match i {
            Inst::StoreLocal { slot, .. } => Some(slot),
            _ => None,
        });
        *last.unwrap() = 0;
        Code::new(&p);
    }
}
