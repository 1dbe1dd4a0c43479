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
