//! The Ace-C compiler and SPMD virtual machine.
//!
//! Reproduces the paper's compiler (§3.1, §4.2): Ace is "essentially C
//! with minor modifications" — global data annotated `shared`, allocated
//! dynamically from spaces, with compile-time-checked restrictions on
//! shared pointers. The compiler:
//!
//! 1. parses **Ace-C**, a C subset rich enough for the paper's benchmark
//!    kernels (ints, doubles, local arrays, flat structs, `shared`
//!    pointers, functions with recursion);
//! 2. lowers to a CFG-based IR in one walk that also type-checks and
//!    enforces the `shared` pointer rules, inserting the runtime
//!    annotations around every shared access exactly as Figure 5
//!    describes (`MAP`, `START_READ`/`WRITE`, the access, `END_*`);
//! 3. runs the interprocedural **space/protocol dataflow** of §4.2:
//!    space sets propagate from `new_space`/`gmalloc` sites, protocol
//!    bindings propagate flow-sensitively from `new_space` and
//!    `change_protocol`, and their composition yields the set of possible
//!    protocols at every access;
//! 4. applies the three optimizations — **loop-invariant call motion**,
//!    **redundant-call merging**, **direct dispatch** — each gated on all
//!    possible protocols being registered `optimizable`, and never moving
//!    code past synchronization;
//! 5. executes the optimized program SPMD on the Ace runtime via the
//!    word-typed [`vm`], which charges dispatch or direct-call costs
//!    according to each annotation's resolved mode — regenerating Table 4.
//!
//! The protocol registration metadata (Figure 1) comes from
//! [`config`], which parses the same information the paper's Tcl script
//! emitted into the "system configuration file".

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod config;
pub mod ir;
pub mod lex;
pub mod lower;
pub mod opt;
pub mod parse;
pub mod vm;

pub use config::SystemConfig;
pub use ir::{DispatchMode, Program};
pub use vm::run_program;

/// Optimization level, matching the rows of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Base case: straight annotation insertion.
    O0,
    /// + loop-invariant call motion.
    Licm,
    /// + merging redundant protocol calls.
    Merge,
    /// + direct dispatch (and null-handler removal).
    Direct,
}

impl OptLevel {
    /// All levels in Table 4 order.
    pub const ALL: [OptLevel; 4] =
        [OptLevel::O0, OptLevel::Licm, OptLevel::Merge, OptLevel::Direct];

    /// Row label used by the Table 4 harness.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "Base case",
            OptLevel::Licm => "Loop Invariance (LI)",
            OptLevel::Merge => "LI + Merging Calls (MC)",
            OptLevel::Direct => "LI + MC + Direct Calls",
        }
    }
}

/// Compile Ace-C source to an executable [`Program`] at `level`.
///
/// # Errors
///
/// Returns a human-readable message for lexical, syntactic, or semantic
/// errors (including violations of the `shared` pointer rules).
pub fn compile(source: &str, config: &SystemConfig, level: OptLevel) -> Result<Program, String> {
    let toks = lex::lex(source)?;
    let unit = parse::parse(&toks)?;
    let mut prog = lower::lower(&unit)?;
    let facts = analysis::analyze(&prog);
    // Each level adds one pass to the level before it.
    let passes = [opt::licm::run as fn(&mut _, &_, &_), opt::merge::run, opt::direct::run];
    let mut passes = passes[..level as usize].iter();
    loop {
        // What the analysis and the passes assume of registers, checked
        // after lowering and after every pass.
        if cfg!(debug_assertions) {
            prog.assert_single_assignment();
        }
        let Some(pass) = passes.next() else { return Ok(prog) };
        pass(&mut prog, &facts, config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_levels_are_ordered() {
        assert!(OptLevel::O0 < OptLevel::Licm);
        assert!(OptLevel::Licm < OptLevel::Merge);
        assert!(OptLevel::Merge < OptLevel::Direct);
        assert_eq!(OptLevel::ALL.len(), 4);
    }
}
