//! Pluggable wire substrate: the seam between a [`crate::Node`] and
//! whatever actually carries its envelopes.
//!
//! Everything above this module — coalescing, vector-clock piggybacking,
//! logical/wire accounting, the cost model's virtual clocks — works in
//! terms of one envelope shape, the [`Wire`] envelope (an
//! [`crate::Envelope`] whose message is the parts it carries), and four
//! capabilities: inject a wire
//! envelope toward a destination, park until one is delivered, learn that
//! a peer died, and shut down cleanly. [`Transport`] names exactly that
//! seam, with two backends:
//!
//! * [`InProcTransport`] — a shared table of mailboxes plus the cost
//!   model's simulated latencies; the default.
//! * [`SocketTransport`] — real multi-process Unix-domain sockets:
//!   length-prefixed frames of the same wire envelopes, written by the
//!   node's own thread, a mesh in which every rank listens at an address
//!   computed from its rank, one reader thread per peer, and
//!   reconnect-free fail-fast mapped onto the existing peer-death path.
//!
//! Both deliver into a [`Mailbox`], which owns the receive side: the
//! non-blocking pop and the machine's one blocking receive (park once,
//! woken by a delivery, a peer failure or the caller's deadline).
//!
//! The protocols and applications cannot tell the backends apart except
//! by wall-clock time: a run's logical observables (digests, logical
//! message counts) are identical — the cross-backend equivalence suite in
//! `ace-apps` is the gate.

pub mod codec;
pub mod inproc;
pub mod mailbox;
pub mod socket;

pub use codec::{put_string, put_words, CodecError, WireCodec, WireReader};
pub use inproc::InProcTransport;
pub use mailbox::Mailbox;
pub use socket::{SockAddr, SocketCfg, SocketTransport, SOCKET_HEADER_BYTES, SOCKET_MAX_RANKS};

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::envelope::{Wire, HEADER_BYTES};

/// Why a blocking receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitWireError {
    /// The deadline passed with no delivery.
    Timeout,
    /// The wire is dead: a peer failed, so a message this rank waits for
    /// may never arrive.
    Dead,
}

/// One node's endpoint on the machine's wire substrate.
///
/// A transport endpoint is owned by exactly one node (and its OS thread).
/// Implementations deliver wire envelopes *per-pair FIFO* — the delivery
/// order between a fixed (source, destination) pair matches send order —
/// which is the only ordering guarantee the protocol layers rely on.
///
/// Sending to a destination whose node has already exited silently drops
/// the envelope ("the wire goes dead"); a program that relies on such a
/// message has violated the SPMD quiescence contract and will be caught
/// by the peer-death signal or the watchdog.
pub trait Transport<M> {
    /// Inject one wire envelope toward `dst`. `dst == self` loops back
    /// through the normal delivery path.
    fn send_wire(&self, dst: usize, wire: Wire<M>);

    /// This endpoint's inbox. Delivery is the backend's duty — push every
    /// envelope addressed to this rank, per-pair FIFO — and the mailbox
    /// does the receiving: the node pops from it and parks on it, so
    /// there is one blocking receive however the envelopes got there.
    fn mailbox(&self) -> &Mailbox<M>;

    /// Fixed per-wire-envelope header charge in bytes, used by the
    /// accounting layer for every logical and wire byte count. The
    /// default is the simulated CM-5 active-message header
    /// ([`HEADER_BYTES`]); real backends override it to report their
    /// measured framing overhead.
    fn header_bytes(&self) -> usize {
        HEADER_BYTES
    }

    /// Rank of the first peer known to have died by panic, or -1. Read
    /// once per blocking receive (after the node publishes itself as
    /// waiting, before it parks) and again when a wait ends with nothing
    /// delivered; one atomic load.
    fn failed_rank(&self) -> isize;

    /// Diagnostic message recorded for the first failure (empty if none
    /// has been published yet).
    fn failure_detail(&self) -> String;

    /// Publish this node's own death (rank + panic message) to every
    /// peer and wake the ones parked in a receive. First writer wins
    /// machine-wide.
    fn signal_failure(&self, rank: usize, msg: &str);

    /// Clean shutdown after the node's program returned: flush and close
    /// the wire so peers observe an orderly goodbye rather than a death.
    /// Idempotent. An endpoint dropped *without* `shutdown` (the panic
    /// path) closes abruptly, which peers report as a peer death.
    fn shutdown(&self);
}

/// Which wire substrate a machine runs on. Configured through
/// [`crate::MachineBuilder::transport`]; the default is [`TransportKind::InProc`].
#[derive(Debug, Clone, Default)]
pub enum TransportKind {
    /// In-process mailboxes plus the simulated cost model (the default).
    #[default]
    InProc,
    /// Real sockets: length-prefixed frames over Unix-domain stream
    /// sockets, each rank listening at a path named after its rank.
    Socket(SocketCfg),
}

impl TransportKind {
    /// A loopback socket machine: Unix-domain sockets under the temp
    /// directory at a per-run path. This is the
    /// single-process configuration the equivalence suite runs — same
    /// framing, handshake and threads as a multi-process launch.
    pub fn socket_loopback() -> Self {
        TransportKind::Socket(SocketCfg::loopback())
    }
}

/// A machine configuration the builder rejects eagerly — at
/// [`crate::MachineBuilder::validate`] time, before any thread or socket
/// exists — instead of letting it hang or diverge at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A machine has at least one node and at most [`crate::MAX_NODES`].
    NodeCount {
        /// The requested machine size.
        nprocs: usize,
        /// The largest machine supported.
        max: usize,
    },
    /// `Socket` + `ExecBackend::Multiplexed`: the executor runs the nodes
    /// of one process as fibers on one thread and takes "nobody runnable"
    /// to mean deadlock; a socket machine's ranks are meant to live in
    /// different processes, and its reader threads deliver from outside
    /// the executor, which a fiber cannot be woken from.
    SocketMultiplexed,
    /// `ExecBackend::Multiplexed` on a target the fiber switch is not
    /// written for (anything but x86-64 unix): there is no fallback.
    MultiplexedUnsupported,
    /// `Socket` machines cap at [`SOCKET_MAX_RANKS`] ranks: a full mesh
    /// needs O(n²) file descriptors and n-1 reader threads per rank.
    SocketRanks {
        /// The requested machine size.
        nprocs: usize,
        /// The socket-backend cap.
        max: usize,
    },
    /// [`crate::MachineBuilder::spawn_rank`] requires a `Socket`
    /// transport: a single-rank entry point into an in-process machine
    /// has no peers to talk to.
    SpawnRankNeedsSocket,
    /// `spawn_rank` with an explicit rank outside `0..nprocs`.
    RankOutOfRange {
        /// The requested rank.
        rank: usize,
        /// The machine size it must fit in.
        nprocs: usize,
    },
    /// `spawn_rank` requires a concrete rendezvous address shared by all
    /// processes; `SockAddr::Auto` generates a fresh per-run path that no
    /// other process can know.
    RendezvousUnspecified,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NodeCount { nprocs, max } => {
                write!(f, "a machine has at least 1 and at most {max} nodes (requested {nprocs})")
            }
            ConfigError::SocketMultiplexed => write!(
                f,
                "the socket transport requires ExecBackend::Threads: \
                 socket reader threads cannot wake a fiber of the multiplexed executor"
            ),
            ConfigError::MultiplexedUnsupported => {
                write!(f, "ExecBackend::Multiplexed has a fiber switch for x86-64 unix only")
            }
            ConfigError::SocketRanks { nprocs, max } => write!(
                f,
                "socket machines support at most {max} ranks (requested {nprocs}): \
                 the mesh needs O(n^2) descriptors"
            ),
            ConfigError::SpawnRankNeedsSocket => {
                write!(f, "spawn_rank requires .transport(TransportKind::Socket(..))")
            }
            ConfigError::RankOutOfRange { rank, nprocs } => {
                write!(f, "rank {rank} out of range for a {nprocs}-rank machine")
            }
            ConfigError::RendezvousUnspecified => write!(
                f,
                "spawn_rank needs a concrete rendezvous address \
                 (SockAddr::Auto is only valid for single-process runs)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Machine-wide failure board shared by a backend's endpoints: the rank
/// of the first node that died by panic (one atomic word), its panic
/// message (written once by the winner of the flag's CAS), and the
/// wake-up hooks of every mailbox on this board. Failure is signalled,
/// not polled: the first `record` pokes every mailbox, so a rank parked
/// in a receive wakes at once, and a rank about to park reads the flag
/// after publishing itself (see [`Mailbox::park`]) — between them no
/// waiter can sleep through a failure.
pub(crate) struct FailBoard {
    failed: AtomicIsize,
    detail: OnceLock<String>,
    wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl FailBoard {
    pub(crate) fn new() -> Self {
        FailBoard {
            failed: AtomicIsize::new(-1),
            detail: OnceLock::new(),
            wakers: Mutex::new(Vec::new()),
        }
    }

    /// Register a hook that pokes some of this board's mailboxes; the
    /// first recorded failure runs every hook once.
    pub(crate) fn on_failure(&self, wake: impl Fn() + Send + Sync + 'static) {
        self.wakers.lock().expect("waker list poisoned").push(Box::new(wake));
    }

    /// Record the first failure (first writer wins) with its diagnostic,
    /// then wake every parked rank. Later failures change nothing a
    /// waiter could observe, so they wake nobody.
    pub(crate) fn record(&self, rank: usize, msg: String) {
        if self
            .failed
            .compare_exchange(-1, rank as isize, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.detail.set(msg).expect("only the CAS winner writes the detail");
            for wake in self.wakers.lock().expect("waker list poisoned").iter() {
                wake();
            }
        }
    }

    pub(crate) fn failed_rank(&self) -> isize {
        self.failed.load(Ordering::SeqCst)
    }

    /// The recorded panic message, or empty if none has been published
    /// (the flag trips before the detail store lands).
    pub(crate) fn detail(&self) -> String {
        self.detail.get().cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_board_first_writer_wins() {
        let b = FailBoard::new();
        assert_eq!(b.failed_rank(), -1);
        assert_eq!(b.detail(), "");
        b.record(3, "boom".into());
        b.record(5, "later".into());
        assert_eq!(b.failed_rank(), 3);
        assert_eq!(b.detail(), "boom");
    }

    #[test]
    fn config_errors_explain_themselves() {
        for (e, needle) in [
            (ConfigError::SocketMultiplexed, "Threads"),
            (ConfigError::MultiplexedUnsupported, "x86-64"),
            (ConfigError::SocketRanks { nprocs: 128, max: 64 }, "at most 64"),
            (ConfigError::SpawnRankNeedsSocket, "spawn_rank"),
            (ConfigError::RankOutOfRange { rank: 9, nprocs: 4 }, "rank 9"),
            (ConfigError::RendezvousUnspecified, "rendezvous"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
