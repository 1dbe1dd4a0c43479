//! The Ace runtime: a region-based software DSM with *customizable
//! coherence protocols*.
//!
//! This crate reproduces the runtime system of §4.1 of the paper. Shared
//! data lives in **regions** — arbitrarily-sized, user-granularity units of
//! coherence — allocated from **spaces**. A space is the paper's high-level
//! abstraction for associating a protocol with a data structure: every
//! region belongs to exactly one space, and all coherence actions on the
//! region dispatch through the space to its current [`Protocol`].
//!
//! The programming model is the paper's annotation set (Figure 3):
//!
//! | paper             | here                         |
//! |-------------------|------------------------------|
//! | `Ace_NewSpace`    | [`AceRt::new_space`]         |
//! | `Ace_GMalloc`     | [`AceRt::gmalloc`]           |
//! | `Ace_ChangeProtocol` | [`AceRt::change_protocol`]|
//! | `ACE_MAP` / `ACE_UNMAP` | [`AceRt::map`] / [`AceRt::unmap`] |
//! | `ACE_START_READ` / `ACE_END_READ` | [`AceRt::start_read`] / [`AceRt::end_read`] |
//! | `ACE_START_WRITE` / `ACE_END_WRITE` | [`AceRt::start_write`] / [`AceRt::end_write`] |
//! | `Ace_Barrier`     | [`AceRt::barrier`]           |
//! | `Ace_Lock` / `Ace_UnLock` | [`AceRt::lock`] / [`AceRt::unlock`] |
//!
//! Protocols implement *full access control* (§2.1): hooks before and after
//! reads and writes, at map/unmap, and at synchronization points, plus an
//! active-message handler for their wire protocol.

mod check;
pub mod counters;
pub mod error;
pub mod ids;
pub mod msg;
pub mod protocol;
pub mod region;
pub mod rt;
pub mod space;

pub use ace_machine::pod::{self, Pod};
pub use ace_machine::{
    validate_chrome_trace, CheckMode, ChromeCheck, CoalescePolicy, ConfigError, CostModel,
    Envelope, EventKind, ExecBackend, Hook, MachineBuilder, MachineTrace, Node, NodeTrace, RankRun,
    SockAddr, SocketCfg, Spmd, SpmdResult, TraceConfig, TraceEvent, TraceSummary, TransportKind,
    MAX_NODES,
};
pub use counters::OpCounters;
pub use error::{AceError, ConformanceKind, SectionRecord};
pub use ids::{RegionId, SpaceId};
pub use msg::{AceMsg, ProtoMsg};
pub use protocol::{Actions, GrantSet, Protocol};
pub use region::{FastMask, RegionEntry, Sharers};
pub use rt::{AceRt, DEFAULT_COALESCE, REMOTE_INVALID, REMOTE_SHARED};
pub use space::SpaceEntry;

/// Run an SPMD Ace program on `nprocs` simulated processors.
///
/// Each node gets a fresh [`AceRt`] over its [`Node`]. The runtime appends a
/// machine-wide shutdown barrier after `f` returns so the quiescence
/// contract of the substrate holds. For non-default machine configuration
/// (tracing, watchdog, transport) use [`run_ace_with`] with a
/// [`MachineBuilder`].
pub fn run_ace<R, F>(nprocs: usize, cost: CostModel, f: F) -> SpmdResult<R>
where
    R: Send,
    F: Fn(&AceRt) -> R + Sync,
{
    run_ace_with(Spmd::builder().nprocs(nprocs).cost(cost), f)
}

/// Run an SPMD Ace program on a fully-configured [`MachineBuilder`].
///
/// Same shutdown-barrier contract as [`run_ace`]; this is the entry point
/// for traced runs:
///
/// ```
/// use ace_core::{run_ace_with, CostModel, Spmd, TraceConfig};
///
/// let r = run_ace_with(
///     Spmd::builder().nprocs(2).cost(CostModel::cm5()).trace(TraceConfig::on()),
///     |rt| rt.rank(),
/// );
/// assert!(r.trace.is_some());
/// ```
pub fn run_ace_with<R, F>(builder: MachineBuilder, f: F) -> SpmdResult<R>
where
    R: Send,
    F: Fn(&AceRt) -> R + Sync,
{
    builder.run(|node| {
        let rt = AceRt::new(node);
        let r = f(&rt);
        rt.shutdown();
        r
    })
}

/// Run ONE rank of a multi-process Ace machine in this OS process.
///
/// The builder must select `TransportKind::Socket` with a concrete
/// rendezvous address; the other ranks are peer processes calling
/// `run_ace_rank` with the same machine size and address (rank 0 hosts the
/// rendezvous). Same shutdown-barrier contract as [`run_ace`], so all
/// processes leave together. Configuration problems come back as
/// [`AceError::Config`] before any socket is opened.
pub fn run_ace_rank<R, F>(
    builder: MachineBuilder,
    rank: usize,
    f: F,
) -> Result<RankRun<R>, AceError>
where
    F: FnOnce(&AceRt) -> R,
{
    Ok(builder.spawn_rank(rank, |node| {
        let rt = AceRt::new(node);
        let r = f(&rt);
        rt.shutdown();
        r
    })?)
}
