//! A simulated processor: rank, message endpoints, virtual clock, counters.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ace_trace::{EventKind, MachineTrace, NodeTrace, TraceConfig, TraceSink};

use crate::cost::CostModel;
use crate::envelope::{Envelope, MsgSize, Wire};
use crate::sched::Parker;
use crate::stats::NodeStats;
use crate::transport::{Transport, WaitWireError};
use crate::vclock::VClock;

/// How long a blocked node waits before concluding the run is wedged.
/// Protocol bugs in a message-passing system manifest as silent hangs; the
/// watchdog converts them into a panic with the caller-provided diagnostic.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// A drain burst stops pulling wire envelopes off the mailbox once the
/// local inbox holds this many messages. The bound is part of the
/// simulated result, not a tuning knob: it decides when the local inbox
/// reads empty, and an empty inbox is a coalescing flush point. Draining
/// without a bound moves EM3D custom's fig7b `sim_ns` by 2.3 % and a dozen
/// Table 4 rows, so the value stays what every committed BENCH file was
/// measured with.
const DRAIN_BURST: usize = 64;

/// When to flush a destination's coalescing buffer.
///
/// Under any policy other than `Off`, [`Node::send`] appends the logical
/// message to a per-destination buffer instead of injecting a wire
/// envelope. A buffered batch is charged one `msg_latency`, one
/// [`Node::header_bytes`] header and one `send_overhead` for the whole wire
/// envelope, plus [`CostModel::pack_cost`] per sub-message — the
/// amortization that makes fine-grained protocol fan-out cheap.
///
/// Liveness rule: every blocking point flushes. [`Node::poll_until`]
/// flushes on entry, whenever a handled message leaves the local inbox
/// empty, and again right before it parks on the mailbox, so no peer can
/// deadlock waiting on a message its sender is still buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoalescePolicy {
    /// Every logical send is its own wire envelope (legacy behaviour,
    /// bit-identical to the pre-coalescing substrate).
    #[default]
    Off,
    /// Flush a destination as soon as its buffer holds N sub-messages
    /// (and at every blocking point).
    Threshold(usize),
    /// Buffer without bound; flush only at blocking points.
    FlushOnWait,
}

/// How the runtime conformance checker (`ace-check`) treats violations.
///
/// The machine layer only carries the mode and the vector-clock plumbing
/// it needs (a [`VClock`] per node, stamped on [`Envelope::vc`]); the
/// actual access-control checks live in the runtime layer above. Checking
/// is metrologically invisible: the clocks charge no virtual time and no
/// bytes, and the one exchange the checker adds — the history gather at
/// shutdown — runs inside [`Node::off_the_books`], so check-on and
/// check-off runs of a conforming program report identical simulated
/// time, message counts and byte counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// No checking; misuse falls back to the debug assertions.
    #[default]
    Off,
    /// Record violations (per-node counters, structured errors, trace
    /// events) but let the run continue.
    Log,
    /// Panic on the first violation, with the structured report as the
    /// panic message.
    Fail,
}

impl CheckMode {
    /// Whether this mode performs any checking at all.
    pub fn enabled(self) -> bool {
        self != CheckMode::Off
    }
}

/// Construction-time per-node knobs, fixed by the machine builder.
#[derive(Debug, Clone)]
pub(crate) struct NodeSetup {
    pub cost: Arc<CostModel>,
    pub watchdog: Duration,
    pub trace: TraceConfig,
    pub coalesce: CoalescePolicy,
    pub check: CheckMode,
}

/// An inbox entry: an envelope plus its precomputed arrival time and
/// receive charge. Arrival is a pure function of the *wire* envelope
/// (send time + flight time of the wire bytes), computed once when the
/// wire message is expanded; the charge and trace event are applied when
/// the entry is popped, preserving absorb-at-pop semantics.
struct Inbound<M> {
    env: Envelope<M>,
    arrival: u64,
    /// `recv_overhead` for a single or a batch's first part; `pack_cost`
    /// (the unpack charge) for subsequent parts of the same batch.
    charge: u64,
    /// `Some((subs, wire_bytes))` on the entry that represents the wire
    /// envelope itself (a single, or a batch's first part): pop emits one
    /// Recv trace event so flow arrows stay one-per-wire-message.
    wire: Option<(u32, u32)>,
}

/// Per-destination coalescing buffers that scale to thousands of ranks: a
/// dense `Vec` of buffers at small `nprocs`, a `HashMap` keyed by the few
/// destinations actually touched above that (a 4096-node machine must not
/// pay 4096 empty `Vec`s per node), plus a dirty list so flushing visits
/// only destinations that hold messages instead of scanning every rank.
struct OutBufs<M> {
    dense: Vec<Vec<(M, usize)>>,
    sparse: HashMap<usize, Vec<(M, usize)>>,
    /// Destinations whose buffer went empty→nonempty since the last full
    /// flush. May hold duplicates (a threshold flush empties a buffer but
    /// leaves its entry); `flush_coalesced` sorts and the per-destination
    /// flush no-ops on empty, so duplicates are harmless.
    dirty: Vec<usize>,
}

/// Above this many ranks the per-destination buffers live in a map.
const DENSE_OUTBUF_MAX: usize = 256;

impl<M> OutBufs<M> {
    fn new(nprocs: usize) -> Self {
        OutBufs {
            dense: if nprocs <= DENSE_OUTBUF_MAX {
                (0..nprocs).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            sparse: HashMap::new(),
            dirty: Vec::new(),
        }
    }

    /// Append one part to `dst`'s buffer, returning the buffer's new
    /// length (for threshold checks).
    fn push(&mut self, dst: usize, part: (M, usize)) -> usize {
        let buf = if self.dense.is_empty() {
            self.sparse.entry(dst).or_default()
        } else {
            &mut self.dense[dst]
        };
        if buf.is_empty() {
            self.dirty.push(dst);
        }
        buf.push(part);
        buf.len()
    }

    /// Take `dst`'s buffered parts (empty if none).
    fn take(&mut self, dst: usize) -> Vec<(M, usize)> {
        if self.dense.is_empty() {
            self.sparse.remove(&dst).unwrap_or_default()
        } else {
            std::mem::take(&mut self.dense[dst])
        }
    }

    /// Take the dirty list, sorted ascending so flush order (and with it
    /// the per-destination `send_overhead` clock charges) is rank order —
    /// identical to the old full scan, independent of send order.
    fn take_dirty(&mut self) -> Vec<usize> {
        let mut d = std::mem::take(&mut self.dirty);
        d.sort_unstable();
        d
    }
}

/// One simulated processor.
///
/// A `Node` is owned by exactly one OS thread (its own, or its machine's
/// executor) and is deliberately `!Sync`: everything inside uses
/// `Cell`/`RefCell`. The only cross-thread objects are the transport
/// endpoint and the wake-up handle inside `parker`.
pub struct Node<M> {
    rank: usize,
    nprocs: usize,
    /// The wire substrate this node sends and receives through. Dynamic
    /// dispatch keeps the backend a runtime choice without a generics
    /// ripple through the protocol and application layers; the per-wire
    /// header charge is cached in `header_bytes` so the hot send path
    /// pays no virtual call for accounting.
    transport: Rc<dyn Transport<M>>,
    /// Cached [`Transport::header_bytes`].
    header_bytes: usize,
    cost: Arc<CostModel>,
    clock: Cell<u64>,
    logical_sent: Cell<u64>,
    wire_sent: Cell<u64>,
    bytes_sent: Cell<u64>,
    wire_bytes_sent: Cell<u64>,
    msgs_recv: Cell<u64>,
    watchdog: Cell<Duration>,
    /// Local inbox filled by draining the mailbox in bursts. Messages are
    /// *not* absorbed on drain — [`Node::absorb`] runs when a message is
    /// popped for handling, so per-message virtual-clock semantics are
    /// identical to unbatched reception (same order, same arrival math).
    inbox: RefCell<VecDeque<Inbound<M>>>,
    /// Per-destination coalescing buffers; `pending` counts buffered
    /// parts across all destinations so the common empty case is one load.
    coalesce: Cell<CoalescePolicy>,
    outbuf: RefCell<OutBufs<M>>,
    pending: Cell<usize>,
    /// This node's parking handle: the waiter senders wake it through, and
    /// the park on the mailbox inside [`Node::recv_blocking`] — the
    /// substrate's one true blocking point, and a fiber's one yield point.
    parker: Parker,
    /// Structured event sink; a no-op unless the builder enabled tracing.
    sink: TraceSink,
    /// Conformance-checking mode (the runtime layer does the checking; the
    /// node carries the mode, the vector clock, and the violation count).
    check: CheckMode,
    /// This node's vector clock, present only when `check` is enabled:
    /// ticked at the checker's section events, stamped on every outgoing
    /// wire envelope, merged from [`Envelope::vc`] on absorb.
    vc: Option<RefCell<VClock>>,
    /// Conformance violations recorded against this node.
    violations: Cell<u64>,
    /// Size of the section history this node handed to the shutdown
    /// analysis, as `(records, words)`.
    check_history: Cell<(u64, u64)>,
    /// This node's protocol-switch epoch: bumped by an adaptive engine
    /// when it commits a switch, stamped on every outgoing wire envelope
    /// (see [`Envelope::sw`]). Metrologically invisible.
    sw_epoch: Cell<u64>,
    /// Highest switch epoch seen on any incoming envelope (max-merged on
    /// absorb). During a switch handshake a node blocked in the commit
    /// barrier can observe `sw_epoch + 1` — peers past the barrier have
    /// already bumped — but never more: the engine's two-barrier commit
    /// bounds the skew, and debug builds assert it.
    sw_seen: Cell<u64>,
}

impl<M: MsgSize + Send> Node<M> {
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        transport: Rc<dyn Transport<M>>,
        parker: Parker,
        setup: &NodeSetup,
    ) -> Self {
        let header_bytes = transport.header_bytes();
        Node {
            rank,
            nprocs,
            transport,
            header_bytes,
            cost: Arc::clone(&setup.cost),
            clock: Cell::new(0),
            logical_sent: Cell::new(0),
            wire_sent: Cell::new(0),
            bytes_sent: Cell::new(0),
            wire_bytes_sent: Cell::new(0),
            msgs_recv: Cell::new(0),
            watchdog: Cell::new(setup.watchdog),
            inbox: RefCell::new(VecDeque::new()),
            coalesce: Cell::new(setup.coalesce),
            outbuf: RefCell::new(OutBufs::new(nprocs)),
            pending: Cell::new(0),
            parker,
            sink: TraceSink::new(&setup.trace),
            check: setup.check,
            vc: setup.check.enabled().then(|| RefCell::new(VClock::new(rank, nprocs))),
            violations: Cell::new(0),
            check_history: Cell::new((0, 0)),
            sw_epoch: Cell::new(0),
            sw_seen: Cell::new(0),
        }
    }

    /// This node's rank in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes in the machine.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Fixed per-wire-envelope header charge of the transport this node
    /// runs on ([`Transport::header_bytes`]): the simulated CM-5 header
    /// in-process, the measured framing overhead on a real backend.
    pub fn header_bytes(&self) -> usize {
        self.header_bytes
    }

    /// Current virtual clock in nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock.get()
    }

    /// Advance the virtual clock by a computation charge.
    pub fn charge(&self, ns: u64) {
        self.clock.set(self.clock.get() + ns);
    }

    /// This node's event sink. Higher layers (the Ace runtime) stamp
    /// their own events — hook spans, state transitions — through it;
    /// check [`TraceSink::enabled`] before building an event.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Drain the node's event buffer for merging, if tracing is on.
    pub(crate) fn take_trace(&self) -> Option<NodeTrace> {
        self.sink.enabled().then(|| self.sink.take(self.rank))
    }

    /// Number of logical messages currently buffered across destinations.
    pub fn pending_coalesced(&self) -> usize {
        self.pending.get()
    }

    /// Switch the coalescing policy, flushing anything already buffered
    /// first so no message straddles a policy change.
    pub fn set_coalesce(&self, policy: CoalescePolicy) {
        self.flush_coalesced();
        self.coalesce.set(policy);
    }

    /// The conformance-checking mode this machine was built with.
    pub fn check_mode(&self) -> CheckMode {
        self.check
    }

    /// This node's protocol-switch epoch (stamped on outgoing envelopes).
    pub fn switch_epoch(&self) -> u64 {
        self.sw_epoch.get()
    }

    /// Advance this node's switch epoch to `epoch` (monotone; called by an
    /// adaptive protocol engine at its switch commit point, between the
    /// drain barrier and the adopt barrier). Subsequent sends carry the
    /// new epoch.
    pub fn set_switch_epoch(&self, epoch: u64) {
        debug_assert!(
            epoch >= self.sw_epoch.get(),
            "switch epoch must be monotone: {} -> {epoch}",
            self.sw_epoch.get()
        );
        self.sw_epoch.set(epoch.max(self.sw_epoch.get()));
    }

    /// Record one conformance violation against this node (called by the
    /// runtime checker; surfaced through [`NodeStats::violations`]).
    pub fn note_violation(&self) {
        self.violations.set(self.violations.get() + 1);
    }

    /// Conformance violations recorded against this node so far.
    pub fn violations(&self) -> u64 {
        self.violations.get()
    }

    /// Record how much section history this node contributed to the
    /// shutdown analysis (surfaced through [`NodeStats::check_records`]
    /// and [`NodeStats::check_words`]).
    pub fn note_check_history(&self, records: u64, words: u64) {
        self.check_history.set((records, words));
    }

    /// Count one checker event — a section open or close — on this node's
    /// own vector-clock lane and return the lane's new value
    /// ([`VClock::tick`]). Checking must be on.
    pub fn vc_tick(&self) -> u64 {
        self.vclock().borrow_mut().tick()
    }

    /// Append the other ranks' lanes of this node's vector clock to `out`
    /// in the sparse barrier-relative encoding ([`VClock::push_sparse`]).
    pub fn vc_push_sparse(&self, out: &mut Vec<u64>) {
        self.vclock().borrow().push_sparse(out);
    }

    /// This node is arriving at a barrier: start the next vector-clock
    /// epoch ([`VClock::enter_barrier`]). The runtime calls it at every
    /// barrier arrival of a checked run.
    pub fn vc_enter_barrier(&self) {
        self.vclock().borrow_mut().enter_barrier();
    }

    fn vclock(&self) -> &RefCell<VClock> {
        self.vc.as_ref().expect("vector clocks require a check mode")
    }

    /// The clock snapshot for an outgoing wire envelope, or `None` when
    /// checking is off (the common case: one branch). Sending is not a
    /// clock event, so consecutive sends share one snapshot.
    fn vc_stamp(&self) -> Option<Arc<[u64]>> {
        self.vc.as_ref().map(|vc| vc.borrow_mut().stamp())
    }

    /// Run `f` off the books: whatever it sends and receives leaves this
    /// node's virtual clock, its [`NodeStats`] message and byte counters
    /// and its trace as they were. For an exchange that belongs to the
    /// instrument and not to the program — the conformance checker's
    /// history gather — whose size is not a property of the program.
    /// Collective in effect: every message sent inside one node's window
    /// must be received inside its receiver's.
    pub fn off_the_books<R>(&self, f: impl FnOnce() -> R) -> R {
        self.flush_coalesced();
        let clock = self.clock.get();
        let counts = [
            &self.logical_sent,
            &self.wire_sent,
            &self.bytes_sent,
            &self.wire_bytes_sent,
            &self.msgs_recv,
        ];
        let saved = counts.map(Cell::get);
        self.sink.set_muted(true);
        let r = f();
        self.flush_coalesced();
        self.sink.set_muted(false);
        for (c, v) in counts.iter().zip(saved) {
            c.set(v);
        }
        self.clock.set(clock);
        r
    }

    /// Inject a message to `dst`. Under [`CoalescePolicy::Off`] this
    /// charges send overhead and emits one wire envelope; otherwise the
    /// message joins `dst`'s coalescing buffer (charging `pack_cost`) and
    /// goes out with the next flush. Sending to self is allowed (the
    /// message is delivered via the normal polling path, like a loopback
    /// active message).
    pub fn send(&self, dst: usize, msg: M) {
        debug_assert!(dst < self.nprocs, "send to nonexistent node {dst}");
        match self.coalesce.get() {
            CoalescePolicy::Off => {
                self.charge(self.cost.send_overhead);
                let bytes = msg.size_bytes() + self.header_bytes;
                self.logical_sent.set(self.logical_sent.get() + 1);
                self.wire_sent.set(self.wire_sent.get() + 1);
                self.bytes_sent.set(self.bytes_sent.get() + bytes as u64);
                self.wire_bytes_sent.set(self.wire_bytes_sent.get() + bytes as u64);
                if self.sink.enabled() {
                    let t = self.clock.get();
                    self.sink.emit(
                        t,
                        EventKind::Pack { dst: dst as u16, tag: msg.tag(), bytes: bytes as u32 },
                    );
                    self.sink.emit(
                        t,
                        EventKind::Send {
                            dst: dst as u16,
                            tag: msg.tag(),
                            bytes: bytes as u32,
                            subs: 1,
                        },
                    );
                }
                let env = Envelope {
                    src: self.rank,
                    send_time: self.clock.get(),
                    bytes,
                    vc: self.vc_stamp(),
                    sw: self.sw_epoch.get(),
                    msg,
                };
                self.transport.send_wire(dst, Wire::Single(env));
            }
            policy => {
                self.charge(self.cost.pack_cost);
                let payload = msg.size_bytes();
                // Logical accounting is policy-independent: the same
                // per-message payload+header charge as `Off`, so apps see
                // deterministic byte counts regardless of how messages
                // end up grouped on the wire.
                self.logical_sent.set(self.logical_sent.get() + 1);
                self.bytes_sent.set(self.bytes_sent.get() + (payload + self.header_bytes) as u64);
                if self.sink.enabled() {
                    self.sink.emit(
                        self.clock.get(),
                        EventKind::Pack {
                            dst: dst as u16,
                            tag: msg.tag(),
                            bytes: (payload + self.header_bytes) as u32,
                        },
                    );
                }
                let len = self.outbuf.borrow_mut().push(dst, (msg, payload));
                self.pending.set(self.pending.get() + 1);
                if let CoalescePolicy::Threshold(n) = policy {
                    if len >= n.max(1) {
                        self.flush_dst(dst);
                    }
                }
            }
        }
    }

    /// Flush every destination's coalescing buffer, in rank order. A
    /// no-op when nothing is buffered (the overwhelmingly common case at
    /// blocking points). Called automatically by [`Node::poll_until`] on
    /// entry, whenever a handled message empties the inbox, and before it
    /// parks — together those make every blocking point flush, the
    /// liveness rule coalescing relies on.
    pub fn flush_coalesced(&self) {
        if self.pending.get() == 0 {
            return;
        }
        // Visit only destinations that buffered something since the last
        // flush, in ascending rank order so the per-destination clock
        // charges land exactly as the old 0..nprocs scan did. (The dirty
        // list is taken first: `flush_dst` re-borrows the buffers.)
        let dirty = self.outbuf.borrow_mut().take_dirty();
        for dst in dirty {
            self.flush_dst(dst);
        }
    }

    /// Flush point after a handled message inside a poll loop: flush only
    /// once the local inbox has drained. While already-delivered messages
    /// remain queued the node cannot block, so holding the buffers open is
    /// safe — and it lets the replies generated while draining one
    /// coalesced batch (say, the acks for a train of update pushes) leave
    /// as one wire envelope instead of one per handled message.
    fn flush_after_handle(&self) {
        if self.inbox.borrow().is_empty() {
            self.flush_coalesced();
        }
    }

    /// Flush one destination's buffer as a single wire envelope: one
    /// `send_overhead`, one header, summed payload bytes.
    fn flush_dst(&self, dst: usize) {
        let parts = self.outbuf.borrow_mut().take(dst);
        if parts.is_empty() {
            return;
        }
        self.pending.set(self.pending.get() - parts.len());
        self.charge(self.cost.send_overhead);
        let wire_bytes = parts.iter().map(|&(_, b)| b).sum::<usize>() + self.header_bytes;
        self.wire_sent.set(self.wire_sent.get() + 1);
        self.wire_bytes_sent.set(self.wire_bytes_sent.get() + wire_bytes as u64);
        if self.sink.enabled() {
            self.sink.emit(
                self.clock.get(),
                EventKind::Send {
                    dst: dst as u16,
                    tag: parts[0].0.tag(),
                    bytes: wire_bytes as u32,
                    subs: parts.len() as u32,
                },
            );
        }
        let wire = Wire::Batch {
            src: self.rank,
            send_time: self.clock.get(),
            wire_bytes,
            parts,
            vc: self.vc_stamp(),
            sw: self.sw_epoch.get(),
        };
        self.transport.send_wire(dst, wire);
    }

    /// Expand one wire message into inbox entries. Arrival is computed
    /// here — once per wire envelope, from its wire bytes — so a batch's
    /// parts all become available at the same virtual instant, exactly
    /// when the one wire message lands.
    fn enqueue_wire(&self, w: Wire<M>, inbox: &mut VecDeque<Inbound<M>>) {
        match w {
            Wire::Single(env) => {
                let arrival = env.send_time + self.cost.wire_time(env.bytes);
                inbox.push_back(Inbound {
                    arrival,
                    charge: self.cost.recv_overhead,
                    wire: Some((1, env.bytes as u32)),
                    env,
                });
            }
            Wire::Batch { src, send_time, wire_bytes, parts, vc, sw } => {
                let arrival = send_time + self.cost.wire_time(wire_bytes);
                let subs = parts.len() as u32;
                let mut vc = vc;
                for (i, (msg, payload)) in parts.into_iter().enumerate() {
                    // Only the batch's first delivered part carries the
                    // sender's vector clock: one merge per wire envelope.
                    inbox.push_back(Inbound {
                        env: Envelope { src, send_time, bytes: payload, vc: vc.take(), sw, msg },
                        arrival,
                        charge: if i == 0 { self.cost.recv_overhead } else { self.cost.pack_cost },
                        wire: (i == 0).then_some((subs, wire_bytes as u32)),
                    });
                }
            }
        }
    }

    /// Pull a burst of messages off the mailbox into the local inbox,
    /// without absorbing them. Per-pair FIFO is preserved: the mailbox
    /// delivers in send order per source and the inbox is a queue. A
    /// coalesced batch counts as one pull but may expand past
    /// [`DRAIN_BURST`].
    fn drain_burst(&self, inbox: &mut VecDeque<Inbound<M>>) {
        while inbox.len() < DRAIN_BURST {
            match self.transport.mailbox().try_pop() {
                Some(w) => self.enqueue_wire(w, inbox),
                None => break,
            }
        }
    }

    /// Non-blocking receive, for [`Node::poll_until`] alone: the machine
    /// has one receive point. On delivery the local clock advances to cover
    /// the message's flight time and the receive overhead is charged.
    fn try_recv(&self) -> Option<Envelope<M>> {
        let mut inbox = self.inbox.borrow_mut();
        if inbox.is_empty() {
            self.drain_burst(&mut inbox);
        }
        let inb = inbox.pop_front()?;
        drop(inbox);
        self.absorb(&inb);
        Some(inb.env)
    }

    /// The blocking receive behind [`Node::poll_until`]: called with the
    /// local inbox and the mailbox both found empty, it flushes this
    /// node's own coalescing buffers (the liveness rule: never sleep on a
    /// message a peer may be waiting to trigger) and parks — once — on
    /// the mailbox until a wire envelope arrives. Under the multiplexed
    /// backend this park is the yield point: the node's fiber is
    /// suspended for exactly the park.
    ///
    /// # Panics
    ///
    /// Panics naming the culprit if a peer has died (nothing this node
    /// waits for can be relied on to arrive), or as wedged if `deadline`
    /// — the caller's watchdog — passes first.
    fn recv_blocking(&self, what: &str, deadline: Instant) -> Envelope<M> {
        self.flush_coalesced();
        let failed = || self.transport.failed_rank() >= 0;
        match self.transport.mailbox().park(&self.parker, deadline, failed) {
            Ok(w) => {
                let mut inbox = self.inbox.borrow_mut();
                self.enqueue_wire(w, &mut inbox);
                let inb = inbox.pop_front().expect("wire expands to at least one message");
                drop(inbox);
                self.absorb(&inb);
                inb.env
            }
            Err(WaitWireError::Dead) => self.peer_died(what),
            Err(WaitWireError::Timeout) => self.wedged(what),
        }
    }

    fn absorb(&self, inb: &Inbound<M>) {
        let now = self.clock.get().max(inb.arrival) + inb.charge;
        self.clock.set(now);
        self.msgs_recv.set(self.msgs_recv.get() + 1);
        if let (Some(mine), Some(theirs)) = (&self.vc, &inb.env.vc) {
            mine.borrow_mut().merge(theirs);
        }
        if inb.env.sw > self.sw_seen.get() {
            // Coherent switch commits sit between two machine barriers, so
            // a message can arrive from at most one epoch ahead (its sender
            // passed the commit barrier this node is still approaching) and
            // never from a stale epoch after this node committed a newer
            // one — the pre-commit flush drained those.
            debug_assert!(
                inb.env.sw <= self.sw_epoch.get() + 1,
                "node {}: message from switch epoch {} arrived at epoch {}",
                self.rank,
                inb.env.sw,
                self.sw_epoch.get()
            );
            self.sw_seen.set(inb.env.sw);
        }
        if self.sink.enabled() {
            if let Some((subs, wire_bytes)) = inb.wire {
                self.sink.emit(
                    now,
                    EventKind::Recv {
                        src: inb.env.src as u16,
                        tag: inb.env.msg.tag(),
                        bytes: wire_bytes,
                        sent_at: inb.env.send_time,
                        subs,
                    },
                );
            }
        }
    }

    /// The first recorded failure's panic message, as a `: msg` suffix for
    /// peer-death panics (empty if the message hasn't been published yet —
    /// the failure flag trips before the detail store lands).
    fn failure_suffix(&self) -> String {
        let msg = self.transport.failure_detail();
        if msg.is_empty() {
            String::new()
        } else {
            format!(": {msg}")
        }
    }

    /// A peer's node has died by panic, so a message this node is waiting
    /// on may never arrive: fail fast with the culprit's rank (and its
    /// panic message, read off the transport) instead of stalling into
    /// the watchdog.
    fn peer_died(&self, what: &str) -> ! {
        let culprit = self.transport.failed_rank();
        if culprit >= 0 {
            panic!(
                "node {}: peer exited (node {culprit} died{}) while waiting for: {what}",
                self.rank,
                self.failure_suffix()
            );
        }
        panic!("node {}: peer exited while waiting for: {what}", self.rank);
    }

    /// The watchdog expired: dump this node's wait-graph view (which
    /// hook/region the stall sits inside, not just the caller's `what`)
    /// and die.
    fn wedged(&self, what: &str) -> ! {
        if self.sink.enabled() {
            let t = MachineTrace { nodes: vec![self.sink.take(self.rank)] };
            let report = t.wait_graph_report();
            if !report.is_empty() {
                eprintln!("{report}");
            }
        }
        panic!("node {} wedged waiting for: {what} (clock {} ns)", self.rank, self.now());
    }

    /// The watchdog deadline scaled to machine size: a 4096-node barrier
    /// legitimately takes longer to drain over one or two host cores
    /// than a 4-node one, so the configured timeout grows by one multiple
    /// per 64 ranks. Machines up to 64 nodes keep the configured value
    /// exactly (the timing-sensitive tests pin small machines). A timeout
    /// too large to add to the clock means "no watchdog": a year will do.
    fn watchdog_deadline(&self) -> Instant {
        let wd = self.watchdog.get().saturating_mul(1 + (self.nprocs / 64) as u32);
        let now = self.parker.now();
        now.checked_add(wd).unwrap_or(now + Duration::from_secs(365 * 86_400))
    }

    /// Block until `pred` returns true, invoking `handle` on messages that
    /// arrive in the meantime. This is the substrate's equivalent of an
    /// Active Messages poll loop: a blocked processor keeps servicing
    /// incoming protocol requests — except that where the CM-5 polled, this
    /// node parks and each arrival wakes it. Panics with `what` if the
    /// watchdog expires (a wedged protocol; the deadline covers the whole
    /// call, traffic or not) or a peer's thread dies (a crashed protocol
    /// on the other side).
    ///
    /// Coalescing liveness: the node's own buffers are flushed on entry —
    /// before the wait can block on a reply this node itself still holds —
    /// and again whenever a handled message leaves the inbox empty,
    /// because handlers send replies (a sharer answering a recall inside a
    /// barrier wait, say) that a peer's forward progress may depend on.
    /// While the inbox still holds delivered messages the node cannot
    /// block, so the flush is deferred and the replies for one incoming
    /// batch coalesce.
    ///
    /// `pred` is re-checked after **every** message: as soon as the wait is
    /// satisfied the loop returns, leaving any further queued messages for
    /// the node's next poll. This matters for virtual-time fidelity — a
    /// thread that races ahead in wall-clock time can enqueue messages
    /// whose virtual send time is far in this node's future, and absorbing
    /// them while blocked on an earlier event would serialize logically
    /// parallel phases (the node's own next compute phase would start
    /// *after* the peer's, inflating simulated time from max-of-nodes
    /// toward sum-of-nodes).
    pub fn poll_until(
        &self,
        what: &str,
        handle: impl FnMut(&Self, Envelope<M>),
        mut pred: impl FnMut() -> bool,
    ) {
        self.flush_coalesced();
        if pred() {
            return;
        }
        if self.sink.enabled() {
            self.sink.emit(self.clock.get(), EventKind::Block { what: what.into() });
        }
        self.poll_loop(what, handle, pred);
        if self.sink.enabled() {
            self.sink.emit(self.clock.get(), EventKind::Unblock { what: what.into() });
        }
    }

    fn poll_loop(
        &self,
        what: &str,
        mut handle: impl FnMut(&Self, Envelope<M>),
        mut pred: impl FnMut() -> bool,
    ) {
        let deadline = self.watchdog_deadline();
        loop {
            let env = match self.try_recv() {
                Some(env) => env,
                None => {
                    if pred() {
                        return;
                    }
                    self.recv_blocking(what, deadline)
                }
            };
            handle(self, env);
            self.flush_after_handle();
            if pred() {
                return;
            }
        }
    }

    /// Snapshot of this node's statistics (final clock filled in). Flushes
    /// the coalescing buffers first so the wire counts cover everything the
    /// program has logically sent.
    pub fn stats(&self) -> NodeStats {
        self.flush_coalesced();
        let (parks, park_timeouts) = self.parker.park_counts();
        NodeStats {
            parks,
            park_timeouts,
            logical_msgs: self.logical_sent.get(),
            wire_msgs: self.wire_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            wire_bytes: self.wire_bytes_sent.get(),
            msgs_recv: self.msgs_recv.get(),
            violations: self.violations.get(),
            check_records: self.check_history.get().0,
            check_words: self.check_history.get().1,
            switch_epoch: self.sw_epoch.get(),
            final_clock: self.clock.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::HEADER_BYTES;
    use crate::spmd::Spmd;

    #[test]
    fn clock_advances_on_send_and_recv() {
        let cost = CostModel::cm5();
        let r = Spmd::builder().nprocs(2).cost(cost.clone()).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                node.send(1, 42u64);
                node.now()
            } else {
                let got = Cell::new(0u64);
                node.poll_until("payload", |_, env| got.set(env.msg), || got.get() != 0);
                assert_eq!(got.get(), 42);
                node.now()
            }
        });
        // Sender paid send overhead; receiver's clock covers flight time.
        assert_eq!(r.results[0], cost.send_overhead);
        assert!(r.results[1] >= cost.send_overhead + cost.wire_time(8 + HEADER_BYTES));
    }

    #[test]
    fn self_send_is_delivered() {
        let r = Spmd::builder().nprocs(1).cost(CostModel::free()).run::<u64, _, _>(|node| {
            node.send(0, 7);
            let got = Cell::new(0u64);
            node.poll_until("self message", |_, env| got.set(env.msg), || got.get() != 0);
            got.get()
        });
        assert_eq!(r.results[0], 7);
    }

    #[test]
    #[should_panic(expected = "wedged waiting for")]
    fn watchdog_fires() {
        Spmd::builder()
            .nprocs(1)
            .cost(CostModel::free())
            .watchdog(Duration::from_millis(50))
            .run::<u64, _, _>(|node| {
                node.poll_until("never", |_, _| {}, || false);
            });
    }

    #[test]
    fn stats_count_messages() {
        let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                for i in 0..5 {
                    node.send(1, i + 1);
                }
            } else {
                let seen = Cell::new(0u64);
                node.poll_until("5 messages", |_, _| seen.set(seen.get() + 1), || seen.get() == 5);
            }
        });
        assert_eq!(r.stats.nodes[0].logical_msgs, 5);
        // Coalescing off: every logical message is its own wire message.
        assert_eq!(r.stats.nodes[0].wire_msgs, 5);
        assert_eq!(r.stats.nodes[1].msgs_recv, 5);
        assert_eq!(r.stats.nodes[0].bytes_sent, 5 * (8 + HEADER_BYTES as u64));
        assert_eq!(r.stats.nodes[0].wire_bytes, r.stats.nodes[0].bytes_sent);
    }

    #[test]
    fn fifo_between_pair() {
        let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                for i in 0..100 {
                    node.send(1, i);
                }
                Vec::new()
            } else {
                let seen = RefCell::new(Vec::new());
                node.poll_until(
                    "100 msgs",
                    |_, env| seen.borrow_mut().push(env.msg),
                    || seen.borrow().len() == 100,
                );
                seen.into_inner()
            }
        });
        assert_eq!(r.results[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn inbox_messages_absorb_at_pop_not_at_drain() {
        // A burst of queued messages must not advance the clock until each
        // one is actually popped: after the first poll_until returns (its
        // predicate satisfied by message #1), the receiver's clock reflects
        // one receive even though the whole burst is already local.
        let cost = CostModel::cm5();
        let recv_overhead = cost.recv_overhead;
        let r = Spmd::builder().nprocs(2).cost(cost).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                for i in 0..10 {
                    node.send(1, i + 1);
                }
                0
            } else {
                let got = Cell::new(0u64);
                node.poll_until("first msg", |_, env| got.set(env.msg), || got.get() == 1);
                let after_one = node.stats().msgs_recv;
                assert_eq!(after_one, 1, "only the popped message is absorbed");
                let seen = Cell::new(1u64);
                node.poll_until("rest", |_, _| seen.set(seen.get() + 1), || seen.get() == 10);
                node.stats().msgs_recv
            }
        });
        assert_eq!(r.results[1], 10);
        assert!(recv_overhead > 0);
    }

    #[test]
    fn batch_charges_one_latency_one_header() {
        // Three logical u64 sends coalesce into one wire envelope: the
        // sender pays 3× pack + 1× send_overhead; the receiver's clock
        // covers one flight of (3×8 + HEADER) bytes plus one recv_overhead
        // and two pack (unpack) charges — not three full latencies.
        let cost = CostModel::cm5();
        let c = cost.clone();
        let r = Spmd::builder()
            .nprocs(2)
            .cost(cost.clone())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(move |node| {
            if node.rank() == 0 {
                for i in 0..3 {
                    node.send(1, i + 1);
                }
                assert_eq!(node.pending_coalesced(), 3);
                node.flush_coalesced();
                let s = node.stats();
                assert_eq!(s.logical_msgs, 3);
                assert_eq!(s.wire_msgs, 1);
                assert_eq!(s.bytes_sent, 3 * (8 + HEADER_BYTES as u64));
                assert_eq!(s.wire_bytes, 3 * 8 + HEADER_BYTES as u64);
                node.now()
            } else {
                let seen = Cell::new(0u64);
                node.poll_until("3 msgs", |_, _| seen.set(seen.get() + 1), || seen.get() == 3);
                node.now()
            }
        });
        let send_done = 3 * c.pack_cost + c.send_overhead;
        assert_eq!(r.results[0], send_done);
        let arrival = send_done + c.wire_time(3 * 8 + HEADER_BYTES);
        assert_eq!(r.results[1], arrival + c.recv_overhead + 2 * c.pack_cost);
    }

    #[test]
    fn threshold_flushes_without_an_explicit_wait() {
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::Threshold(2))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..5 {
                        node.send(1, i + 1);
                    }
                    // 2+2 flushed by the threshold; one message still queued.
                    let pending = node.pending_coalesced() as u64;
                    node.flush_coalesced();
                    (pending, node.stats().wire_msgs)
                } else {
                    let seen = Cell::new(0u64);
                    node.poll_until("5 msgs", |_, _| seen.set(seen.get() + 1), || seen.get() == 5);
                    (0, 0)
                }
            });
        assert_eq!(r.results[0], (1, 3));
        assert_eq!(r.stats.nodes[0].logical_msgs, 5);
        assert_eq!(r.stats.nodes[1].msgs_recv, 5);
    }

    #[test]
    fn coalesced_fifo_between_pair() {
        // Order must survive batching, including across threshold flushes
        // interleaved with wait-point flushes.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::Threshold(7))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..100 {
                        node.send(1, i);
                    }
                    Vec::new()
                } else {
                    let seen = RefCell::new(Vec::new());
                    node.poll_until(
                        "100 msgs",
                        |_, env| seen.borrow_mut().push(env.msg),
                        || seen.borrow().len() == 100,
                    );
                    seen.into_inner()
                }
            });
        assert_eq!(r.results[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn wait_points_flush_so_request_reply_cannot_deadlock() {
        // Request/reply ping-pong under FlushOnWait: nothing flushes
        // until a node actually blocks, so this deadlocks
        // unless poll_until flushes on entry (the request) and after each
        // handled message (the reply, sent from handler context).
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::FlushOnWait)
            .watchdog(Duration::from_secs(5))
            .run::<u64, _, _>(|node| {
                let done = Cell::new(0u64);
                if node.rank() == 0 {
                    node.send(1, 10);
                    node.poll_until("reply", |_, env| done.set(env.msg), || done.get() != 0);
                } else {
                    node.poll_until(
                        "request",
                        |n, env| {
                            n.send(0, env.msg + 1);
                            done.set(env.msg);
                        },
                        || done.get() != 0,
                    );
                }
                done.get()
            });
        assert_eq!(r.results, vec![11, 10]);
    }

    #[test]
    fn set_coalesce_flushes_before_switching() {
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    node.send(1, 1);
                    node.send(1, 2);
                    assert_eq!(node.pending_coalesced(), 2);
                    node.set_coalesce(CoalescePolicy::Off);
                    assert_eq!(node.pending_coalesced(), 0);
                    node.send(1, 3);
                    let s = node.stats();
                    (s.logical_msgs, s.wire_msgs)
                } else {
                    let seen = Cell::new(0u64);
                    node.poll_until("3 msgs", |_, _| seen.set(seen.get() + 1), || seen.get() == 3);
                    (0, 0)
                }
            });
        // Two buffered messages went out as one batch, then one single.
        assert_eq!(r.results[0], (3, 2));
    }
}
