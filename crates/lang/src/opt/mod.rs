//! The three compiler optimizations of §4.2.
//!
//! All three are gated on the protocol registry: "We allow protocol
//! writers to specify, when registering a protocol, whether a protocol's
//! semantics allow optimizations" — an access is touched only if *every*
//! protocol the dataflow says it might run under is optimizable, and
//! "in all optimizations, code is never moved past synchronization calls".

pub mod direct;
pub mod licm;
pub mod merge;

use std::collections::BTreeMap;

use crate::ir::*;

/// Where an instruction is: its block and its index there.
pub type Pos = (BlockId, usize);

/// The positions of the annotation triple of an access id.
#[derive(Debug, Default, Clone)]
pub struct AccessSites {
    /// The `Map`.
    pub map: Option<Pos>,
    /// The `Start*`.
    pub start: Option<Pos>,
    /// The `End*`.
    pub end: Option<Pos>,
}

/// Index every access's annotation positions in a function.
pub fn index_accesses(f: &IFunc) -> BTreeMap<AccessId, AccessSites> {
    let mut out: BTreeMap<AccessId, AccessSites> = BTreeMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            let at = Some((bi, ii));
            match inst {
                Inst::Map { aid, .. } => out.entry(*aid).or_default().map = at,
                Inst::Ann { hook: Hook::StartRead | Hook::StartWrite, aid, .. } => {
                    out.entry(*aid).or_default().start = at
                }
                Inst::Ann { hook: Hook::EndRead | Hook::EndWrite, aid, .. } => {
                    out.entry(*aid).or_default().end = at
                }
                _ => {}
            }
        }
    }
    out
}
