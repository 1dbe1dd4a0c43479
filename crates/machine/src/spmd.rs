//! SPMD launcher: run one closure on every simulated processor.
//!
//! Machines are configured through [`Spmd::builder`], which gathers every
//! knob — processor count, cost model, watchdog, tracing, transport —
//! into a [`MachineBuilder`] instead of the former scattered
//! per-node mutators.
//!
//! Two launch shapes exist:
//!
//! * [`MachineBuilder::run`] — the whole machine in this process, on
//!   either transport backend ([`TransportKind`]): every rank a fiber on
//!   the calling thread, or one OS thread per rank ([`ExecBackend`]).
//! * [`MachineBuilder::spawn_rank`] — exactly one rank in this process,
//!   over the socket transport; the other ranks are other OS processes
//!   meeting at the configured rendezvous address.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ace_trace::{MachineTrace, NodeTrace, TraceConfig};

use crate::cost::CostModel;
use crate::envelope::MsgSize;
use crate::fiber;
use crate::node::{CheckMode, CoalescePolicy, Node, NodeSetup, DEFAULT_WATCHDOG};
use crate::sched::{ExecBackend, Owner, Parker};
use crate::stats::{MachineStats, NodeStats};
use crate::transport::{
    ConfigError, FailBoard, InProcTransport, SockAddr, SocketCfg, SocketTransport, Transport,
    TransportKind, WireCodec, SOCKET_MAX_RANKS,
};
use crate::MAX_NODES;

/// Outcome of an SPMD run: per-node results, counters, and both clocks.
#[derive(Debug)]
pub struct SpmdResult<R> {
    /// Per-node return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-node communication counters.
    pub stats: MachineStats,
    /// Simulated completion time (max final virtual clock), nanoseconds.
    pub sim_ns: u64,
    /// Real elapsed time of the whole run.
    pub wall: Duration,
    /// The merged event trace, when the builder enabled tracing.
    pub trace: Option<MachineTrace>,
}

/// Outcome of a single-rank launch ([`MachineBuilder::spawn_rank`]): this
/// process's slice of a multi-process machine.
#[derive(Debug)]
pub struct RankRun<R> {
    /// The rank this process ran.
    pub rank: usize,
    /// Total ranks in the machine.
    pub nprocs: usize,
    /// The closure's return value.
    pub result: R,
    /// This rank's communication counters.
    pub stats: NodeStats,
    /// Real elapsed time, including the bootstrap handshake.
    pub wall: Duration,
    /// This rank's event trace, when the builder enabled tracing.
    pub trace: Option<MachineTrace>,
}

/// The simulated machine. Entry point for configuring and launching runs:
/// `Spmd::builder().nprocs(8).cost(CostModel::cm5()).run(f)`.
pub struct Spmd;

impl Spmd {
    /// Start configuring a machine. Defaults: 1 processor, CM-5 cost
    /// model, in-process transport, tracing off, default watchdog, and
    /// the backend [`MachineBuilder::backend`] describes.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::new()
    }
}

/// Configuration for a machine, built via [`Spmd::builder`].
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    nprocs: usize,
    cost: CostModel,
    trace: TraceConfig,
    watchdog: Duration,
    coalesce: CoalescePolicy,
    check: CheckMode,
    /// `None` until [`MachineBuilder::backend`] names one.
    backend: Option<ExecBackend>,
    transport: TransportKind,
}

impl Default for MachineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-rank transport seed handed to a node's body; the endpoint itself
/// is constructed there, on the thread (or fiber) the node lives on.
enum NodeSeed<M> {
    InProc(InProcTransport<M>),
    Socket(SocketCfg),
}

/// Extract a panic payload's message for failure propagation.
fn panic_message(e: &(dyn Any + Send)) -> &str {
    e.downcast_ref::<String>()
        .map(|s| s.as_str())
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

/// What one node hands back: its result, counters and trace.
type NodeOut<R> = (R, NodeStats, Option<NodeTrace>);

/// One node's whole life, on a thread, a fiber or a process of its own:
/// build the endpoint and the node, run `f`, take the node's counters and
/// trace, and shut the endpoint down. A panic stops here, never at the
/// thread's or fiber's entry: it is published first (rank and message,
/// first writer wins) and broadcast through the endpoint if one was
/// built, so blocked peers fail fast naming it, and its payload comes
/// back.
fn node_life<M, R>(
    rank: usize,
    nprocs: usize,
    endpoint: impl FnOnce() -> Rc<dyn Transport<M>>,
    parker: Parker,
    setup: &NodeSetup,
    board: &FailBoard,
    f: impl FnOnce(&Node<M>) -> R,
) -> Result<NodeOut<R>, Box<dyn Any + Send>>
where
    M: MsgSize + Send,
{
    // Kept out here so the failure path can broadcast through an
    // endpoint that is constructed inside the `catch_unwind`.
    let ep: RefCell<Option<Rc<dyn Transport<M>>>> = RefCell::new(None);
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        let transport = endpoint();
        *ep.borrow_mut() = Some(Rc::clone(&transport));
        let node = Node::new(rank, nprocs, Rc::clone(&transport), parker, setup);
        let out = (f(&node), node.stats(), node.take_trace());
        transport.shutdown();
        out
    }))
    .inspect_err(|e| {
        let msg = panic_message(e.as_ref());
        board.record(rank, msg.to_string());
        if let Some(t) = ep.borrow().as_ref() {
            t.signal_failure(rank, msg);
        }
    })
}

impl MachineBuilder {
    /// A builder with the defaults described on [`Spmd::builder`].
    pub fn new() -> Self {
        MachineBuilder {
            nprocs: 1,
            cost: CostModel::cm5(),
            trace: TraceConfig::off(),
            watchdog: DEFAULT_WATCHDOG,
            coalesce: CoalescePolicy::Off,
            check: CheckMode::Off,
            backend: None,
            transport: TransportKind::InProc,
        }
    }

    /// Number of simulated processors (1..=[`MAX_NODES`]).
    pub fn nprocs(mut self, n: usize) -> Self {
        self.nprocs = n;
        self
    }

    /// The cost model charging virtual time for computation and messages.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Event-tracing configuration (off by default; see `ace_trace`).
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// How long a blocked node waits before panicking as wedged.
    pub fn watchdog(mut self, d: Duration) -> Self {
        self.watchdog = d;
        self
    }

    /// Initial per-destination send-coalescing policy (off by default at
    /// the substrate level; nodes can switch at runtime with
    /// [`Node::set_coalesce`]).
    pub fn coalesce(mut self, policy: CoalescePolicy) -> Self {
        self.coalesce = policy;
        self
    }

    /// Runtime conformance-checking mode (off by default). `Log` records
    /// violations and keeps going; `Fail` panics on the first one. The
    /// machine layer carries the mode and the vector-clock piggyback; the
    /// runtime above it performs the access-control checks.
    pub fn check(mut self, mode: CheckMode) -> Self {
        self.check = mode;
        self
    }

    /// How simulated nodes map onto OS execution (see [`ExecBackend`]).
    /// A builder that names none gets `Multiplexed` — every node a fiber
    /// on the calling thread, so the run is a function of the program: its
    /// simulated time and every counter repeat exactly — wherever that can
    /// run, and `Threads` where it cannot: on the socket transport and on
    /// targets without the fiber switch (anything but x86-64 unix).
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The backend this machine runs on: the one named, else the
    /// deterministic one where it exists.
    fn resolved_backend(&self) -> ExecBackend {
        self.backend.unwrap_or(match self.transport {
            TransportKind::InProc if fiber::SUPPORTED => ExecBackend::Multiplexed,
            _ => ExecBackend::Threads,
        })
    }

    /// Does nothing: a multiplexed machine has one executor thread, always.
    /// Kept only because the repo benchmark (`benchmark/`, read-only to a
    /// change here) calls it; ROADMAP's *Carried* benchmark-only
    /// housekeeping PR deletes both.
    pub fn workers(self, _n: usize) -> Self {
        self
    }

    /// Which wire substrate the machine runs on (see [`TransportKind`]);
    /// in-process channels by default. Incompatible combinations are
    /// rejected eagerly by [`MachineBuilder::validate`] rather than at
    /// some blocking point deep in a run.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Check the configuration for incompatible knob combinations. Called
    /// by every launch entry point; exposed so callers can surface a
    /// typed error instead of a panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let multiplexed = self.resolved_backend() == ExecBackend::Multiplexed;
        if matches!(self.transport, TransportKind::Socket(_)) {
            if multiplexed {
                return Err(ConfigError::SocketMultiplexed);
            }
            if self.nprocs > SOCKET_MAX_RANKS {
                return Err(ConfigError::SocketRanks {
                    nprocs: self.nprocs,
                    max: SOCKET_MAX_RANKS,
                });
            }
        }
        if multiplexed && !fiber::SUPPORTED {
            return Err(ConfigError::MultiplexedUnsupported);
        }
        Ok(())
    }

    fn node_setup(&self) -> NodeSetup {
        NodeSetup {
            cost: Arc::new(self.cost.clone()),
            watchdog: self.watchdog,
            trace: self.trace.clone(),
            coalesce: self.coalesce,
            check: self.check,
        }
    }

    /// Launch `nprocs` simulated processors, each running `f` with its own
    /// [`Node`], in the single-program-multiple-data style of the paper
    /// ("a single user thread per processor (SPMD)", §3.1).
    ///
    /// The closure must uphold the quiescence contract: when it returns on
    /// one node, no other node may still require service from it. The
    /// runtimes enforce this by ending every program with a machine-wide
    /// barrier.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero or exceeds [`MAX_NODES`], if the
    /// configuration is invalid ([`MachineBuilder::try_run`] returns the
    /// typed error instead), or if any node's closure panics. When several
    /// nodes die (one crashes and its blocked peers then fail with "peer
    /// exited"), the panic propagated is the *first* node that died — the
    /// root cause, not a symptom.
    pub fn run<M, R, F>(&self, f: F) -> SpmdResult<R>
    where
        M: MsgSize + WireCodec + Send + 'static,
        R: Send,
        F: Fn(&Node<M>) -> R + Sync,
    {
        match self.try_run(f) {
            Ok(r) => r,
            Err(e) => panic!("invalid machine configuration: {e}"),
        }
    }

    /// [`MachineBuilder::run`] with eager configuration validation as a
    /// typed error instead of a panic.
    pub fn try_run<M, R, F>(&self, f: F) -> Result<SpmdResult<R>, ConfigError>
    where
        M: MsgSize + WireCodec + Send + 'static,
        R: Send,
        F: Fn(&Node<M>) -> R + Sync,
    {
        self.validate()?;
        let nprocs = self.nprocs;
        assert!(nprocs >= 1, "need at least one node");
        assert!(nprocs <= MAX_NODES, "at most {MAX_NODES} nodes supported");

        let setup = self.node_setup();
        let board = Arc::new(FailBoard::new());
        // One failure board and (in-process) one shared mailbox table:
        // every node clones an `Arc`, so wiring an n-node machine is
        // O(n), not n copies of n senders.
        let seeds: Vec<NodeSeed<M>> = match &self.transport {
            TransportKind::InProc => {
                InProcTransport::mesh(nprocs, &board).into_iter().map(NodeSeed::InProc).collect()
            }
            TransportKind::Socket(cfg) => {
                // Resolve `Auto` once so every rank of this loopback run
                // meets at the same generated rendezvous path.
                let cfg = cfg.resolved();
                (0..nprocs).map(|_| NodeSeed::Socket(cfg.clone())).collect()
            }
        };
        // One node's whole life, on a thread or on a fiber; a panic comes
        // back as its message.
        type Outcome<R> = Result<NodeOut<R>, String>;
        let node_body = |rank: usize, seed: NodeSeed<M>, parker: Parker| -> Outcome<R> {
            let endpoint = || -> Rc<dyn Transport<M>> {
                match seed {
                    NodeSeed::InProc(t) => Rc::new(t),
                    NodeSeed::Socket(cfg) => Rc::new(
                        SocketTransport::establish(rank, nprocs, &cfg, Arc::clone(&board))
                            .unwrap_or_else(|e| panic!("socket transport bootstrap failed: {e}")),
                    ),
                }
            };
            node_life(rank, nprocs, endpoint, parker, &setup, &board, &f)
                .map_err(|e| panic_message(e.as_ref()).to_string())
        };

        let node_body = &node_body;
        let start = Instant::now();
        let outcomes: Vec<Outcome<R>> = match self.resolved_backend() {
            ExecBackend::Threads => std::thread::scope(|scope| {
                let handles: Vec<_> = seeds
                    .into_iter()
                    .enumerate()
                    .map(|(rank, seed)| {
                        std::thread::Builder::new()
                            .name(format!("node-{rank}"))
                            .spawn_scoped(scope, move || node_body(rank, seed, Parker::thread()))
                            .expect("spawn node thread")
                    })
                    .collect();
                let joined = handles.into_iter().map(|h| {
                    h.join().unwrap_or_else(|e| Err(panic_message(e.as_ref()).to_string()))
                });
                joined.collect()
            }),
            ExecBackend::Multiplexed => {
                let outcomes: Vec<Cell<Option<Outcome<R>>>> =
                    (0..nprocs).map(|_| Cell::new(None)).collect();
                let bodies =
                    seeds.into_iter().zip(&outcomes).enumerate().map(|(rank, (seed, out))| {
                        let parker = Parker::new(Owner::Fiber(rank));
                        let body = move || out.set(Some(node_body(rank, seed, parker)));
                        Box::new(body) as Box<dyn FnOnce() + '_>
                    });
                fiber::run(bodies.collect());
                let finished = outcomes.into_iter().map(|out| out.into_inner());
                finished.map(|out| out.expect("fiber::run finishes every body")).collect()
            }
        };
        let wall = start.elapsed();

        // The first node that died is the root cause; the rest are symptoms.
        let failed = |rank: usize| Some((rank, outcomes.get(rank)?.as_ref().err()?));
        let culprit = usize::try_from(board.failed_rank()).ok().and_then(failed);
        if let Some((rank, msg)) = culprit.or_else(|| (0..nprocs).find_map(failed)) {
            panic!("node {rank} panicked: {msg}");
        }

        let mut results = Vec::with_capacity(nprocs);
        let mut stats = MachineStats::default();
        let mut node_traces = Vec::new();
        for out in outcomes {
            let (r, s, t) = out.expect("failures were raised above");
            results.push(r);
            stats.nodes.push(s);
            node_traces.extend(t);
        }
        let trace = self.trace.enabled.then_some(MachineTrace { nodes: node_traces });
        let sim_ns = stats.sim_time();
        Ok(SpmdResult { results, stats, sim_ns, wall, trace })
    }

    /// Launch exactly one rank of a **multi-process** socket machine in
    /// this process, blocking until its closure returns. The other
    /// `nprocs - 1` ranks are expected to be peer OS processes calling
    /// `spawn_rank` with the same machine size and rendezvous address
    /// (rank 0 hosts the rendezvous).
    ///
    /// Requires `.transport(TransportKind::Socket(..))` with a concrete
    /// rendezvous address — every incompatibility is reported eagerly as
    /// a [`ConfigError`] before any socket exists.
    ///
    /// # Panics
    ///
    /// Panics if the bootstrap handshake fails or times out, or if `f`
    /// panics (after broadcasting the failure to peer processes, so their
    /// blocked ranks fail fast naming this rank).
    pub fn spawn_rank<M, R, F>(&self, rank: usize, f: F) -> Result<RankRun<R>, ConfigError>
    where
        M: MsgSize + WireCodec + Send + 'static,
        F: FnOnce(&Node<M>) -> R,
    {
        self.validate()?;
        let cfg = match &self.transport {
            TransportKind::Socket(c) => c.clone(),
            TransportKind::InProc => return Err(ConfigError::SpawnRankNeedsSocket),
        };
        if matches!(cfg.rendezvous, SockAddr::Auto) {
            return Err(ConfigError::RendezvousUnspecified);
        }
        if rank >= self.nprocs {
            return Err(ConfigError::RankOutOfRange { rank, nprocs: self.nprocs });
        }
        let start = Instant::now();
        let board = Arc::new(FailBoard::new());
        let endpoint = || -> Rc<dyn Transport<M>> {
            Rc::new(
                SocketTransport::establish(rank, self.nprocs, &cfg, Arc::clone(&board))
                    .unwrap_or_else(|e| {
                        panic!("rank {rank}: socket transport bootstrap failed: {e}")
                    }),
            )
        };
        let setup = self.node_setup();
        let (result, stats, trace) =
            node_life(rank, self.nprocs, endpoint, Parker::thread(), &setup, &board, f)
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
        Ok(RankRun {
            rank,
            nprocs: self.nprocs,
            result,
            stats,
            wall: start.elapsed(),
            trace: trace.map(|t| MachineTrace { nodes: vec![t] }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_trace::EventKind;

    #[test]
    fn every_rank_runs_once() {
        let r =
            Spmd::builder().nprocs(8).cost(CostModel::free()).run::<(), _, _>(|node| node.rank());
        assert_eq!(r.results, (0..8).collect::<Vec<_>>());
        assert_eq!(r.stats.nodes.len(), 8);
        assert!(r.trace.is_none(), "tracing is off by default");
    }

    #[test]
    fn sim_time_is_max_clock() {
        let r = Spmd::builder().nprocs(4).cost(CostModel::free()).run::<(), _, _>(|node| {
            node.charge(node.rank() as u64 * 1000);
        });
        assert_eq!(r.sim_ns, 3000);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_nodes_rejected() {
        Spmd::builder().nprocs(MAX_NODES + 1).cost(CostModel::free()).run::<(), _, _>(|_| {});
    }

    /// `f` on a 4-rank machine of each backend in turn: the message the
    /// run panicked with, and how long the failure took to surface.
    fn failures_on_both_backends(f: impl Fn(&Node<u64>) + Sync) -> Vec<(String, Duration)> {
        let on = |backend| {
            let start = Instant::now();
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Spmd::builder().nprocs(4).cost(CostModel::free()).backend(backend).run(&f);
            }));
            let e = run.expect_err("the run must fail");
            (panic_message(e.as_ref()).to_string(), start.elapsed())
        };
        vec![on(ExecBackend::Threads), on(ExecBackend::Multiplexed)]
    }

    #[test]
    fn panics_propagate_with_rank() {
        // On a fiber too the panic is caught by the node's body and comes
        // out of `run`; one that reached the fiber's entry would abort.
        for (msg, _) in failures_on_both_backends(|node| {
            if node.rank() == 2 {
                panic!("boom");
            }
        }) {
            assert_eq!(msg, "node 2 panicked: boom");
        }
    }

    #[test]
    fn peer_death_reports_root_cause() {
        // Node 1 crashes while the others are blocked waiting. They are
        // woken by the failure itself (no poll interval, no watchdog, and
        // under `Multiplexed` while suspended) and the propagated panic
        // must name the crashing node, not a waiter.
        for (msg, took) in failures_on_both_backends(|node| {
            if node.rank() == 1 {
                panic!("boom");
            }
            node.poll_until("a message that never comes", |_, _| {}, || false);
        }) {
            assert_eq!(msg, "node 1 panicked: boom");
            assert!(
                took < Duration::from_secs(1),
                "peer death took {took:?} to detect; watchdog should not be involved"
            );
        }
    }

    #[test]
    fn all_to_all_ring() {
        // Every node sends its rank to every other node and sums receipts.
        let n = 6usize;
        let r = Spmd::builder().nprocs(n).cost(CostModel::cm5()).run::<u64, _, _>(|node| {
            for dst in 0..n {
                if dst != node.rank() {
                    node.send(dst, node.rank() as u64 + 1);
                }
            }
            let acc = std::cell::Cell::new((0u64, 0usize));
            node.poll_until(
                "ring receipts",
                |_, env| {
                    let (sum, cnt) = acc.get();
                    acc.set((sum + env.msg, cnt + 1));
                },
                || acc.get().1 == n - 1,
            );
            acc.get().0
        });
        let total: u64 = (1..=n as u64).sum();
        for (rank, got) in r.results.iter().enumerate() {
            assert_eq!(*got, total - (rank as u64 + 1));
        }
    }

    #[test]
    fn traced_run_records_message_events() {
        let cost = CostModel::cm5();
        let r = Spmd::builder().nprocs(2).cost(cost).trace(TraceConfig::on()).run::<u64, _, _>(
            |node| {
                if node.rank() == 0 {
                    node.send(1, 42u64);
                } else {
                    let got = std::cell::Cell::new(0u64);
                    node.poll_until("payload", |_, env| got.set(env.msg), || got.get() != 0);
                }
            },
        );
        let trace = r.trace.expect("tracing was enabled");
        assert_eq!(trace.nodes.len(), 2);
        // Send/Recv events are per wire envelope; with coalescing off the
        // wire and logical totals coincide.
        assert_eq!(trace.send_count(), r.stats.total_wire_msgs());
        assert_eq!(r.stats.total_wire_msgs(), r.stats.total_msgs());
        let n1 = &trace.nodes[1];
        assert!(n1.events.iter().any(|e| matches!(e.kind, EventKind::Recv { src: 0, .. })));
        assert!(n1.events.iter().any(|e| matches!(e.kind, EventKind::Block { .. })));
        assert!(n1.events.iter().any(|e| matches!(e.kind, EventKind::Unblock { .. })));
        // Per-node virtual-time monotonicity (clocks never run backwards).
        for n in &trace.nodes {
            assert!(n.events.windows(2).all(|w| w[0].t <= w[1].t));
        }
        // The export round-trips through the validator.
        let check = ace_trace::validate_chrome_trace(&trace.to_chrome_json()).unwrap();
        assert_eq!(check.flow_starts, r.stats.total_wire_msgs());
        assert_eq!(check.flows_matched, r.stats.total_wire_msgs());
    }

    #[test]
    fn overflowed_ring_still_exports_valid_flows() {
        // A capacity-2 ring on both nodes evicts most Send events on the
        // sender while recvs referencing them may survive on the receiver
        // (and vice versa). The Chrome export must not emit dangling flow
        // ends for the orphaned recvs — the validator now rejects them.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::cm5())
            .trace(TraceConfig::with_capacity(2))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..10u64 {
                        node.send(1, i + 1);
                    }
                } else {
                    let seen = std::cell::Cell::new(0u64);
                    node.poll_until(
                        "10 msgs",
                        |_, _| seen.set(seen.get() + 1),
                        || seen.get() == 10,
                    );
                }
            });
        let trace = r.trace.expect("tracing was enabled");
        assert!(
            trace.nodes.iter().any(|n| n.dropped > 0),
            "test premise: the ring must actually overflow"
        );
        let check = ace_trace::validate_chrome_trace(&trace.to_chrome_json())
            .expect("overflowed trace must still export valid flows");
        assert!(check.flow_ends <= check.flow_starts);
        assert_eq!(check.flows_matched, check.flow_ends, "every emitted arrow has both ends");
    }

    #[test]
    fn coalesced_traced_run_draws_one_flow_per_wire_message() {
        // Five logical sends under FlushOnWait become one wire envelope:
        // one Send event carrying subs=5, one flow arrow, one Recv.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::cm5())
            .trace(TraceConfig::on())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..5 {
                        node.send(1, i + 1);
                    }
                    node.flush_coalesced();
                } else {
                    let seen = std::cell::Cell::new(0u64);
                    node.poll_until("5 msgs", |_, _| seen.set(seen.get() + 1), || seen.get() == 5);
                }
            });
        assert_eq!(r.stats.total_msgs(), 5);
        assert_eq!(r.stats.total_wire_msgs(), 1);
        let trace = r.trace.expect("tracing was enabled");
        assert_eq!(trace.send_count(), 1);
        let subs: Vec<u32> = trace.nodes[0]
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Send { subs, .. } => Some(subs),
                _ => None,
            })
            .collect();
        assert_eq!(subs, vec![5]);
        let check = ace_trace::validate_chrome_trace(&trace.to_chrome_json()).unwrap();
        assert_eq!(check.flow_starts, 1);
        assert_eq!(check.flows_matched, 1);
    }

    // --- socket transport through the full builder/node stack ---

    #[test]
    fn socket_loopback_all_to_all() {
        let n = 4usize;
        let r = Spmd::builder()
            .nprocs(n)
            .cost(CostModel::cm5())
            .transport(TransportKind::socket_loopback())
            .run::<u64, _, _>(|node| {
                for dst in 0..n {
                    if dst != node.rank() {
                        node.send(dst, node.rank() as u64 + 1);
                    }
                }
                let acc = std::cell::Cell::new((0u64, 0usize));
                node.poll_until(
                    "ring receipts",
                    |_, env| {
                        let (sum, cnt) = acc.get();
                        acc.set((sum + env.msg, cnt + 1));
                    },
                    || acc.get().1 == n - 1,
                );
                acc.get().0
            });
        let total: u64 = (1..=n as u64).sum();
        for (rank, got) in r.results.iter().enumerate() {
            assert_eq!(*got, total - (rank as u64 + 1));
        }
        // Logical counts match the in-process machine; byte accounting
        // uses the socket framing header instead of the simulated one.
        assert_eq!(r.stats.total_msgs(), (n * (n - 1)) as u64);
        assert_eq!(
            r.stats.nodes[0].bytes_sent,
            (n - 1) as u64 * (8 + crate::transport::SOCKET_HEADER_BYTES as u64)
        );
    }

    #[test]
    fn socket_coalesced_batches_cross_the_wire() {
        // Coalescing must flow through the socket framing unchanged:
        // 5 logical messages, one wire envelope, delivered in order.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::cm5())
            .transport(TransportKind::socket_loopback())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..5 {
                        node.send(1, i + 1);
                    }
                    node.flush_coalesced();
                    Vec::new()
                } else {
                    let seen = std::cell::RefCell::new(Vec::new());
                    node.poll_until(
                        "5 msgs",
                        |_, env| seen.borrow_mut().push(env.msg),
                        || seen.borrow().len() == 5,
                    );
                    seen.into_inner()
                }
            });
        assert_eq!(r.results[1], vec![1, 2, 3, 4, 5]);
        assert_eq!(r.stats.total_msgs(), 5);
        assert_eq!(r.stats.total_wire_msgs(), 1);
    }

    #[test]
    #[should_panic(expected = "node 1 panicked: boom")]
    fn socket_peer_death_reports_root_cause() {
        // Same contract as in-process: a rank dying over sockets must be
        // detected promptly by blocked peers via the Failed broadcast,
        // and the propagated panic names the root cause.
        let start = Instant::now();
        let r = std::panic::catch_unwind(|| {
            Spmd::builder()
                .nprocs(2)
                .cost(CostModel::free())
                .transport(TransportKind::socket_loopback())
                .run::<u64, _, _>(|node| {
                    if node.rank() == 1 {
                        panic!("boom");
                    }
                    node.poll_until("a message that never comes", |_, _| {}, || false);
                })
        });
        assert!(r.is_err());
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "socket peer death took {:?} to detect",
            start.elapsed()
        );
        std::panic::resume_unwind(r.unwrap_err());
    }

    // --- eager rejection of incompatible configurations (one per combo) ---

    fn socket_builder() -> MachineBuilder {
        Spmd::builder().nprocs(2).transport(TransportKind::socket_loopback())
    }

    #[test]
    fn a_socket_builder_naming_no_backend_runs_on_threads() {
        let b = socket_builder();
        assert_eq!(b.validate(), Ok(()));
        assert_eq!(b.resolved_backend(), ExecBackend::Threads);
    }

    #[test]
    fn socket_plus_multiplexed_rejected_eagerly() {
        let b = socket_builder().backend(ExecBackend::Multiplexed);
        assert_eq!(b.validate(), Err(ConfigError::SocketMultiplexed));
        assert_eq!(
            b.try_run::<u64, _, _>(|_| ()).err(),
            Some(ConfigError::SocketMultiplexed),
            "try_run must reject before spawning anything"
        );
        let e = std::panic::catch_unwind(|| b.run::<u64, _, _>(|_| ())).expect_err("run panics");
        assert!(panic_message(e.as_ref()).starts_with("invalid machine configuration"));
    }

    #[test]
    fn socket_beyond_rank_cap_rejected_eagerly() {
        let b = socket_builder().nprocs(SOCKET_MAX_RANKS + 1);
        assert_eq!(
            b.validate(),
            Err(ConfigError::SocketRanks { nprocs: SOCKET_MAX_RANKS + 1, max: SOCKET_MAX_RANKS })
        );
    }

    #[test]
    fn spawn_rank_requires_socket_transport() {
        let err = Spmd::builder().nprocs(2).spawn_rank::<u64, _, _>(0, |_| ()).err();
        assert_eq!(err, Some(ConfigError::SpawnRankNeedsSocket));
    }

    #[test]
    fn spawn_rank_rejects_out_of_range_rank() {
        let b = Spmd::builder()
            .nprocs(2)
            .transport(TransportKind::Socket(SocketCfg::unix("/tmp/ace-test-never-used.sock")));
        let err = b.spawn_rank::<u64, _, _>(5, |_| ()).err();
        assert_eq!(err, Some(ConfigError::RankOutOfRange { rank: 5, nprocs: 2 }));
    }

    #[test]
    fn spawn_rank_rejects_auto_rendezvous() {
        let err = socket_builder().spawn_rank::<u64, _, _>(0, |_| ()).err();
        assert_eq!(err, Some(ConfigError::RendezvousUnspecified));
    }
}
