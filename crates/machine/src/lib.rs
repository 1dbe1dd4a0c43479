//! Active-message distributed-machine substrate.
//!
//! This crate simulates the distributed-memory machine the Ace paper ran on
//! (a 32-node Thinking Machines CM-5 with Active Messages): a fixed set of
//! *nodes*, each a single-threaded processor with private memory, that
//! communicate **only** by sending typed messages to each other. Each node is
//! an OS thread, or a fiber among its machine's on one thread
//! ([`ExecBackend`]); the "network" is a pluggable [`Transport`] backend — by
//! default in-process mailboxes ([`TransportKind::InProc`]), optionally real
//! length-prefixed sockets ([`TransportKind::Socket`]) so ranks can live in
//! separate OS processes (see [`MachineBuilder::spawn_rank`]).
//!
//! Two kinds of time are tracked:
//!
//! * **wall time** — real elapsed time of the simulation, and
//! * **simulated time** — a per-node virtual clock advanced by a
//!   [`CostModel`]: computation charges issued by the runtime and
//!   applications, plus message latency/bandwidth charges. Message envelopes
//!   carry the sender's clock, and a receiving node's clock advances to
//!   `max(local, send_time + latency + bytes * per_byte)`, so causality
//!   propagates CM-5-like communication delays through the execution.
//!
//! The substrate is deliberately minimal: delivery order between a fixed
//! pair of nodes is FIFO (mailbox order), there is no shared memory, and all
//! higher-level behaviour (coherence protocols, barriers, locks) is built on
//! top in `ace-core` / `ace-crl`.

pub mod cost;
pub mod envelope;
#[cfg(all(target_arch = "x86_64", unix))]
mod fiber;
/// No fiber switch for this target (DESIGN.md §13): `validate()` rejects
/// [`ExecBackend::Multiplexed`] before any of this can be reached.
#[cfg(not(all(target_arch = "x86_64", unix)))]
mod fiber {
    pub(crate) const SUPPORTED: bool = false;
    pub(crate) fn run<'a>(_: Vec<Box<dyn FnOnce() + 'a>>) {
        unreachable!()
    }
    pub(crate) fn suspend() -> bool {
        unreachable!()
    }
    pub(crate) fn wake(_: usize) {
        unreachable!()
    }
    pub(crate) fn now() -> std::time::Instant {
        unreachable!()
    }
}
pub mod node;
pub mod pod;
pub mod sched;
pub mod spmd;
pub mod stats;
pub mod transport;
pub mod vclock;

pub use cost::CostModel;
pub use envelope::{Envelope, MsgSize, Parts, Wire, HEADER_BYTES};
pub use node::{CheckMode, CoalescePolicy, Node};
pub use pod::Pod;
pub use sched::ExecBackend;
pub use spmd::{MachineBuilder, RankRun, Spmd, SpmdResult};
pub use stats::{MachineStats, NodeStats};
pub use transport::{
    CodecError, ConfigError, InProcTransport, SockAddr, SocketCfg, SocketTransport, Transport,
    TransportKind, WireCodec, WireReader, SOCKET_HEADER_BYTES, SOCKET_MAX_RANKS,
};
pub use vclock::{SparseClock, VClock};
// Re-exported so downstream crates configure and consume tracing without
// depending on `ace-trace` directly.
pub use ace_trace::{
    validate_chrome_trace, ChromeCheck, EventKind, Hook, MachineTrace, NodeTrace, TraceConfig,
    TraceEvent, TraceSink, TraceSummary, NO_REGION,
};

/// Maximum number of simulated processors. Sharer sets in the protocol
/// layers keep a 64-bit bitmask fast path and spill to a word vector past
/// 64 ranks, so the cap is set by practicality (the host memory and time
/// one machine of that many nodes takes), not representation; 4096 nodes
/// is where the scaling study tops out.
pub const MAX_NODES: usize = 4096;
