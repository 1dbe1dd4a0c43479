//! The Ace library routines of Table 2 plus the SPMD helpers, as one table.
//!
//! A row states everything the compiler knows about a builtin: `lower`
//! checks a call against its signature and turns it into the row's
//! intrinsic (coercing each argument to its parameter type) and
//! [`crate::ir::Inst::is_sync`] reads the flag that forbids moving
//! annotations across it. What a builtin *does* is the VM's `intrinsic`.

use crate::ast::Ty;
use crate::ir::Intr;
use crate::lower::Sig;
use BTy::*;

/// A builtin's parameter or result type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BTy {
    Int,
    Double,
    Space,
    Void,
    /// `shared void*`: accepts any shared pointer.
    Ptr,
    /// A protocol-name string literal. `lower` checks these positions
    /// itself; no expression has this type.
    Proto,
}

/// One builtin.
#[derive(Debug)]
pub struct Builtin {
    /// Source name.
    pub name: &'static str,
    /// Parameter types.
    pub params: &'static [BTy],
    /// Result type.
    pub ret: BTy,
    /// The intrinsic a call lowers to and whether it synchronizes; `None`
    /// where `lower` builds the instruction itself (an annotation, or an
    /// intrinsic with compile-time operands).
    pub lowers: Option<(Intr, bool)>,
}

const fn row(
    name: &'static str,
    params: &'static [BTy],
    ret: BTy,
    lowers: Option<(Intr, bool)>,
) -> Builtin {
    Builtin { name, params, ret, lowers }
}

/// Every builtin.
pub const BUILTINS: [Builtin; 20] = [
    row("new_space", &[Proto], Space, None),
    row("change_protocol", &[Space, Proto], Void, None),
    row("gmalloc", &[Space, Int], Ptr, None),
    row("lock", &[Ptr], Void, None),
    row("unlock", &[Ptr], Void, None),
    // Lowered by hand only for its result type: the argument's.
    row("bcast_p", &[Int, Ptr], Ptr, Some((Intr::BcastP, true))),
    row("barrier", &[Space], Void, Some((Intr::Barrier, true))),
    row("rank", &[], Int, Some((Intr::Rank, false))),
    row("nprocs", &[], Int, Some((Intr::Nprocs, false))),
    row("bcast_i", &[Int, Int], Int, Some((Intr::BcastI, true))),
    row("reduce_add", &[Double], Double, Some((Intr::ReduceAddF, true))),
    row("reduce_max", &[Double], Double, Some((Intr::ReduceMaxF, true))),
    row("reduce_add_i", &[Int], Int, Some((Intr::ReduceAddI, true))),
    row("reduce_max_i", &[Int], Int, Some((Intr::ReduceMaxI, true))),
    row("reduce_min_i", &[Int], Int, Some((Intr::ReduceMinI, true))),
    row("sqrt", &[Double], Double, Some((Intr::Sqrt, false))),
    row("fabs", &[Double], Double, Some((Intr::Fabs, false))),
    row("charge_flops", &[Int], Void, Some((Intr::ChargeFlops, false))),
    row("print_i", &[Int], Void, Some((Intr::PrintI, false))),
    row("print_f", &[Double], Void, Some((Intr::PrintF, false))),
];

/// The builtin called `name`, if there is one.
pub fn builtin(name: &str) -> Option<&'static Builtin> {
    BUILTINS.iter().find(|b| b.name == name)
}

impl BTy {
    fn ty(self) -> Ty {
        match self {
            Int | Proto => Ty::Int,
            Double => Ty::Double,
            Space => Ty::Space,
            Void => Ty::Void,
            Ptr => Ty::SharedPtr(Box::new(Ty::Void)),
        }
    }
}

impl Builtin {
    /// The signature calls are checked and coerced against.
    pub(crate) fn sig(&self) -> Sig {
        Sig { params: self.params.iter().map(|t| t.ty()).collect(), ret: self.ret.ty() }
    }
}
