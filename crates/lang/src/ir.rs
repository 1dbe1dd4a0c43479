//! The compiler's CFG-based intermediate representation.
//!
//! A function is a list of basic blocks of register-machine instructions.
//! Shared-memory accesses appear as explicit annotation instructions
//! (Figure 5): a `Map`, which defines the mapped handle, and one [`Inst::Ann`]
//! per protocol routine called on it, named by its [`Hook`]. Each lowered
//! access site gets an [`AccessId`] shared by its `Map`/`Start`/`End` triple,
//! which is how the optimization passes and the Table 4 accounting identify
//! them. Every annotation carries a [`DispatchMode`], rewritten by the
//! direct-dispatch pass.
//!
//! Virtual registers are single-assignment: each has at most one defining
//! instruction in its function ([`Program::assert_single_assignment`]). The
//! dataflow's per-function register facts, the merge pass's register
//! identity and LICM's definition lookup all rest on it.

use std::sync::OnceLock;

use ace_core::Actions;
use ace_protocols::ProtoSpec;

use crate::builtins::BUILTINS;
use crate::config::POINTS;
use crate::vm::Code;

/// Virtual register index (function-local).
pub type VReg = u32;
/// Basic block index (function-local).
pub type BlockId = usize;
/// Function index (program-global).
pub type FuncId = usize;
/// Identity of one lowered shared-access site.
pub type AccessId = u32;

/// Value interpretation for typed IR operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValTy {
    /// 64-bit integer.
    I,
    /// 64-bit float.
    F,
    /// Region handle.
    H,
    /// Space handle.
    S,
}

/// How an annotation reaches its protocol (§4.2, "Avoiding Dispatching
/// Overhead").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Through the region's space (space-table index + indirect call).
    Dispatch,
    /// Directly to a statically-known protocol.
    Direct(ProtoSpec),
}

/// The protocol routine an [`Inst::Ann`] calls. The discriminant is the
/// hook's row in [`POINTS`], the one place a configuration point is paired
/// with its action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// `ACE_START_READ`.
    StartRead = 1,
    /// `ACE_END_READ`.
    EndRead = 2,
    /// `ACE_START_WRITE`.
    StartWrite = 3,
    /// `ACE_END_WRITE`.
    EndWrite = 4,
    /// `Ace_Lock(region)`.
    Lock = 6,
    /// `Ace_UnLock(region)`.
    Unlock = 7,
}

impl Hook {
    /// The action a protocol declares null to have this hook's calls
    /// deleted.
    pub fn action(self) -> Actions {
        POINTS[self as usize].1
    }
}

/// Binary operations (operand type in the instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Runtime intrinsics (the Ace library routines of Table 2 plus SPMD
/// helpers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intr {
    /// `Ace_NewSpace(protocol)`; the site index keys the protocol
    /// dataflow.
    NewSpace { spec: ProtoSpec, site: u32 },
    /// `Ace_ChangeProtocol(space, protocol)`.
    ChangeProtocol { spec: ProtoSpec },
    /// `Ace_GMalloc(space, n)`; `elem_words` from the enclosing cast.
    Gmalloc { elem_words: u32 },
    /// `Ace_Barrier(space)`.
    Barrier,
    /// This node's rank.
    Rank,
    /// Node count.
    Nprocs,
    /// Broadcast an int from `root`.
    BcastI,
    /// Broadcast a handle from `root`.
    BcastP,
    /// All-reduce f64 sum / max.
    ReduceAddF,
    /// All-reduce f64 max.
    ReduceMaxF,
    /// All-reduce i64 sum.
    ReduceAddI,
    /// All-reduce i64 max.
    ReduceMaxI,
    /// All-reduce i64 min.
    ReduceMinI,
    /// `sqrt`.
    Sqrt,
    /// `fabs`.
    Fabs,
    /// Charge flops to the virtual clock.
    ChargeFlops,
    /// Debug print.
    PrintI,
    /// Debug print.
    PrintF,
}

/// One IR instruction.
#[derive(Debug, Clone)]
pub enum Inst {
    /// dst = integer constant.
    ConstI(VReg, i64),
    /// dst = float constant.
    ConstF(VReg, f64),
    /// dst = a `op` b with operands of `ty`.
    BinOp { dst: VReg, op: Bin, ty: ValTy, a: VReg, b: VReg },
    /// dst = -a.
    Neg { dst: VReg, ty: ValTy, a: VReg },
    /// dst = !a (int).
    Not { dst: VReg, a: VReg },
    /// dst = (double) a.
    IntToF { dst: VReg, a: VReg },
    /// dst = (int) a (truncating).
    FToInt { dst: VReg, a: VReg },
    /// dst = a.
    Mov { dst: VReg, a: VReg },
    /// dst = local scalar slot.
    LoadLocal { dst: VReg, slot: u32 },
    /// local scalar slot = a.
    StoreLocal { slot: u32, a: VReg },
    /// `dst = local array slot[idx]`.
    LoadArr { dst: VReg, slot: u32, idx: VReg },
    /// `local array slot[idx] = a`.
    StoreArr { slot: u32, idx: VReg, a: VReg },
    /// `ACE_MAP`: dst = mapped handle.
    Map { aid: AccessId, mode: DispatchMode, dst: VReg, handle: VReg },
    /// Call `hook` on a mapped handle.
    Ann { hook: Hook, aid: AccessId, mode: DispatchMode, handle: VReg },
    /// dst = word at `handle[off]`, interpreted as `ty`.
    GLoad { dst: VReg, handle: VReg, off: VReg, ty: ValTy },
    /// `handle[off] = val`.
    GStore { handle: VReg, off: VReg, val: VReg },
    /// Direct call to a program function.
    Call { dst: Option<VReg>, func: FuncId, args: Vec<VReg> },
    /// Runtime intrinsic.
    Intrinsic { dst: Option<VReg>, which: Intr, args: Vec<VReg> },
}

impl Inst {
    /// Whether this instruction is a synchronization point the optimizer
    /// must not move annotations across (§4.2: "code is never moved past
    /// synchronization calls"; calls are conservatively synchronizing).
    pub fn is_sync(&self) -> bool {
        match self {
            Inst::Call { .. }
            | Inst::Ann { hook: Hook::Lock | Hook::Unlock, .. }
            | Inst::Intrinsic { which: Intr::ChangeProtocol { .. }, .. } => true,
            Inst::Intrinsic { which, .. } => {
                BUILTINS.iter().any(|b| b.lowers == Some((*which, true)))
            }
            _ => false,
        }
    }

    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::ConstI(dst, _) | Inst::ConstF(dst, _) => Some(*dst),
            Inst::BinOp { dst, .. }
            | Inst::Neg { dst, .. }
            | Inst::Not { dst, .. }
            | Inst::IntToF { dst, .. }
            | Inst::FToInt { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::LoadLocal { dst, .. }
            | Inst::LoadArr { dst, .. }
            | Inst::Map { dst, .. }
            | Inst::GLoad { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } | Inst::Intrinsic { dst, .. } => *dst,
            Inst::StoreLocal { .. }
            | Inst::StoreArr { .. }
            | Inst::Ann { .. }
            | Inst::GStore { .. } => None,
        }
    }

    /// Visit every register this instruction reads.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut VReg)) {
        match self {
            Inst::ConstI(..) | Inst::ConstF(..) | Inst::LoadLocal { .. } => {}
            Inst::Neg { a, .. }
            | Inst::Not { a, .. }
            | Inst::IntToF { a, .. }
            | Inst::FToInt { a, .. }
            | Inst::Mov { a, .. }
            | Inst::StoreLocal { a, .. } => f(a),
            Inst::LoadArr { idx, .. } => f(idx),
            Inst::Map { handle, .. } | Inst::Ann { handle, .. } => f(handle),
            Inst::BinOp { a, b, .. }
            | Inst::StoreArr { idx: a, a: b, .. }
            | Inst::GLoad { handle: a, off: b, .. } => {
                f(a);
                f(b);
            }
            Inst::GStore { handle, off, val } => {
                f(handle);
                f(off);
                f(val);
            }
            Inst::Call { args, .. } | Inst::Intrinsic { args, .. } => args.iter_mut().for_each(f),
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone)]
pub enum Term {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on an int register.
    Br { cond: VReg, t: BlockId, f: BlockId },
    /// Return.
    Ret(Option<VReg>),
}

impl Term {
    /// The blocks control may continue in.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (a, b) = match *self {
            Term::Jump(t) => (Some(t), None),
            Term::Br { t, f, .. } => (Some(t), Some(f)),
            Term::Ret(_) => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Redirect every edge into `from` to `to`.
    pub fn retarget(&mut self, from: BlockId, to: BlockId) {
        let (a, b) = match self {
            Term::Jump(t) => (Some(t), None),
            Term::Br { t, f, .. } => (Some(t), Some(f)),
            Term::Ret(_) => (None, None),
        };
        for t in a.into_iter().chain(b).filter(|t| **t == from) {
            *t = to;
        }
    }
}

/// One basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// Terminator.
    pub term: Term,
}

/// Kinds of local slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// A scalar of the given type.
    Scalar(ValTy),
    /// An array of `len` values of the given type.
    Array(ValTy, usize),
}

/// One compiled function.
#[derive(Debug, Clone)]
pub struct IFunc {
    /// Source name.
    pub name: String,
    /// Number of parameters (stored into slots 0..n on entry).
    pub nparams: usize,
    /// Local slot table (parameters first).
    pub slots: Vec<Slot>,
    /// Number of virtual registers.
    pub nregs: u32,
    /// Return type; `None` for `void`.
    pub ret: Option<ValTy>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Program {
    /// All functions.
    pub funcs: Vec<IFunc>,
    /// Index of `main`.
    pub main: FuncId,
    /// Total lowered access sites (for reporting).
    pub naccesses: u32,
    /// The VM's translation of `funcs`, built on the first run and shared
    /// by every rank. The passes run before it exists and never see it.
    pub(crate) code: OnceLock<Code>,
}

impl Program {
    /// Every instruction of every function.
    pub(crate) fn insts(&self) -> impl Iterator<Item = &Inst> {
        self.funcs.iter().flat_map(|f| &f.blocks).flat_map(|b| &b.insts)
    }

    /// Count annotation instructions by mode, for the Table 4 harness:
    /// `(dispatched, direct)` static counts.
    pub fn annotation_stats(&self) -> (usize, usize) {
        let (mut dispatched, mut direct) = (0, 0);
        for i in self.insts() {
            if let Inst::Map { mode, .. } | Inst::Ann { mode, .. } = i {
                match mode {
                    DispatchMode::Dispatch => dispatched += 1,
                    DispatchMode::Direct(_) => direct += 1,
                }
            }
        }
        (dispatched, direct)
    }

    /// Panic unless every virtual register has at most one defining
    /// instruction in its function.
    pub fn assert_single_assignment(&self) {
        for f in &self.funcs {
            let mut defined = vec![false; f.nregs as usize];
            for d in f.blocks.iter().flat_map(|b| &b.insts).filter_map(Inst::def) {
                let again = std::mem::replace(&mut defined[d as usize], true);
                assert!(!again, "{}: r{d} has two defining instructions", f.name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_classification() {
        assert!(Inst::Intrinsic { dst: None, which: Intr::Barrier, args: vec![] }.is_sync());
        assert!(Inst::Call { dst: None, func: 0, args: vec![] }.is_sync());
        assert!(!Inst::Intrinsic { dst: Some(0), which: Intr::Rank, args: vec![] }.is_sync());
        assert!(!Inst::Map { aid: 0, mode: DispatchMode::Dispatch, dst: 0, handle: 1 }.is_sync());
        let ann = |hook| Inst::Ann { hook, aid: 0, mode: DispatchMode::Dispatch, handle: 1 };
        assert!(ann(Hook::Lock).is_sync() && ann(Hook::Unlock).is_sync());
        assert!(!ann(Hook::StartWrite).is_sync() && !ann(Hook::EndRead).is_sync());
    }

    #[test]
    fn a_hook_is_the_configuration_point_of_its_name() {
        use Hook::*;
        for hook in [StartRead, EndRead, StartWrite, EndWrite, Lock, Unlock] {
            assert_eq!(format!("{hook:?}"), POINTS[hook as usize].0);
        }
    }
}
