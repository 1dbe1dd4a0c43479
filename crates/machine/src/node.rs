//! A simulated processor: rank, message endpoints, virtual clock, counters.

use std::cell::{Cell, RefCell};
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

/// When to flush a destination's coalescing buffer.
///
/// [`Node::send`] appends every message to its destination's buffer, and
/// the policy sets how many parts leave as one wire envelope. An envelope
/// is charged one `msg_latency`, one [`Node::header_bytes`] header and one
/// `send_overhead`, plus [`CostModel::pack_cost`] per part after its head —
/// the amortization that makes fine-grained protocol fan-out cheap. A lone
/// part costs what an `Off` send does.
///
/// Liveness rule: every blocking point flushes. [`Node::poll_until`]
/// flushes on entry and whenever the last part of a received wire
/// envelope has been handled, so it never parks on the mailbox with a
/// part buffered and no peer can deadlock waiting on a message its sender
/// is still buffering. A handler's replies therefore leave with the
/// envelope that caused them, as a CM-5 handler's did, and the replies to
/// one train of parts still leave as one wire envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoalescePolicy {
    /// A buffer whose limit is 1: every send leaves at once, alone (the
    /// pre-coalescing substrate's numbers, bit for bit).
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
/// bytes, and the checker sends nothing of its own — its section records
/// ride the barrier arrivals the program sends anyway, at no charge — so
/// check-on and check-off runs of a conforming program report identical
/// simulated time, message counts and byte counts.
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

/// The wire envelope a node is receiving, after its first part was handed
/// out: what its later parts share with the first, and those parts, last
/// part first, so the next one is popped off the end.
struct Receiving<M> {
    src: usize,
    send_time: u64,
    sw: u64,
    parts: Parts<M>,
}

/// One destination's coalescing buffer: its pending parts, each with its
/// payload size. Flushed, it moves into the wire envelope as it is.
type Parts<M> = Vec<(M, usize)>;

/// Emptied part lists a node keeps for the next coalescing buffers it
/// opens: a received wire envelope's list, once its parts are handed out,
/// becomes a later send's, so steady traffic allocates none.
const SPARE_PARTS: usize = 8;

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
    /// The wire envelope whose parts are being handed out, present
    /// exactly while it has parts left: the mailbox is read again only
    /// once it is used up.
    receiving: RefCell<Option<Receiving<M>>>,
    coalesce: CoalescePolicy,
    /// The coalescing buffers of the destinations that have parts
    /// pending, sorted by destination. An entry lives from its first part
    /// to its flush, so a node keeps no table per peer: what it holds
    /// follows its traffic, not the machine's size.
    outbuf: RefCell<Vec<(usize, Parts<M>)>>,
    /// Empty part lists, at most [`SPARE_PARTS`], that a new coalescing
    /// buffer takes before it allocates one (see [`Node::recycle`]).
    spare: RefCell<Vec<Parts<M>>>,
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
    /// wire envelope, merged from [`Envelope::vc`] once per received wire
    /// envelope.
    vc: Option<RefCell<VClock>>,
    /// Conformance violations recorded against this node.
    violations: Cell<u64>,
    /// Size of the section history this node's barrier arrivals carried
    /// to the checker, as `(records, words)`.
    check_history: Cell<(u64, u64)>,
    /// This node's protocol-switch epoch: bumped by an adaptive engine
    /// when it commits a switch, stamped on every outgoing wire envelope
    /// (see [`Envelope::sw`]). Metrologically invisible.
    sw_epoch: Cell<u64>,
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
            receiving: RefCell::new(None),
            coalesce: setup.coalesce,
            outbuf: RefCell::new(Vec::new()),
            spare: RefCell::new(Vec::new()),
            parker,
            sink: TraceSink::new(&setup.trace),
            check: setup.check,
            vc: setup.check.enabled().then(|| RefCell::new(VClock::new(rank, nprocs))),
            violations: Cell::new(0),
            check_history: Cell::new((0, 0)),
            sw_epoch: Cell::new(0),
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

    /// Count section history this node's barrier arrival carries to the
    /// checker (summed into [`NodeStats::check_records`] and
    /// [`NodeStats::check_words`]).
    pub fn note_check_history(&self, records: u64, words: u64) {
        let (r, w) = self.check_history.get();
        self.check_history.set((r + records, w + words));
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
    /// checking is off (the common case: one branch). The snapshot is the
    /// clock's own lanes, shared ([`VClock::stamp`]): a send copies
    /// nothing, and the node keeps no second copy of its clock.
    fn vc_stamp(&self) -> Option<Arc<[u64]>> {
        self.vc.as_ref().map(|vc| vc.borrow().stamp())
    }

    /// Inject a message to `dst`: it joins `dst`'s coalescing buffer, which
    /// leaves once it holds the policy's limit of parts or at the next
    /// flush. Only a part that joins a non-empty buffer charges `pack_cost`.
    /// Sending to self is allowed (the message is delivered via the normal
    /// polling path, like a loopback active message).
    ///
    /// # Panics
    ///
    /// Panics naming this node and `dst` if `dst` is not a rank of the
    /// machine: here, not at a later flush.
    pub fn send(&self, dst: usize, msg: M) {
        assert!(
            dst < self.nprocs,
            "node {}: send to nonexistent node {dst} (the machine has {})",
            self.rank,
            self.nprocs
        );
        let payload = msg.size_bytes();
        // Logical accounting is policy-independent: every message is
        // charged its payload plus one header, however the wire groups it.
        self.logical_sent.set(self.logical_sent.get() + 1);
        self.bytes_sent.set(self.bytes_sent.get() + (payload + self.header_bytes) as u64);
        let limit = match self.coalesce {
            CoalescePolicy::Off => 1,
            CoalescePolicy::Threshold(n) => n.max(1),
            CoalescePolicy::FlushOnWait => usize::MAX,
        };
        let full = {
            let mut bufs = self.outbuf.borrow_mut();
            let i = bufs.binary_search_by_key(&dst, |&(d, _)| d).unwrap_or_else(|i| {
                bufs.insert(i, (dst, self.spare.borrow_mut().pop().unwrap_or_default()));
                i
            });
            // A later part packs; the head is composed under the envelope's
            // `send_overhead`, as an `Off` send is.
            if !bufs[i].1.is_empty() {
                self.charge(self.cost.pack_cost);
            }
            if self.sink.enabled() {
                let bytes = (payload + self.header_bytes) as u32;
                let pack = EventKind::Pack { dst: dst as u16, tag: msg.tag(), bytes };
                self.sink.emit(self.now(), pack);
            }
            bufs[i].1.push((msg, payload));
            (bufs[i].1.len() >= limit).then(|| bufs.remove(i).1)
        };
        if let Some(parts) = full {
            self.emit(dst, parts);
        }
    }

    /// Flush every destination's coalescing buffer, in rank order. A
    /// no-op when nothing is buffered (the overwhelmingly common case at
    /// blocking points). Called automatically by [`Node::poll_until`] on
    /// entry and whenever a received wire envelope's last part has been
    /// handled — together those leave nothing buffered when it parks, the
    /// liveness rule coalescing relies on.
    pub fn flush_coalesced(&self) {
        if self.outbuf.borrow().is_empty() {
            return;
        }
        // The list is sorted, so the per-destination `send_overhead`
        // charges land in ascending rank order whatever order the sends
        // came in. `emit` buffers nothing, so the emptied list goes back
        // with its capacity.
        let mut bufs = self.outbuf.take();
        for (dst, parts) in bufs.drain(..) {
            self.emit(dst, parts);
        }
        self.outbuf.replace(bufs);
    }

    /// Put one wire envelope on the transport: one `send_overhead`, one
    /// header over the parts' summed payloads, one `Send` event. Every
    /// wire envelope a node sends leaves through here.
    fn emit(&self, dst: usize, parts: Parts<M>) {
        self.charge(self.cost.send_overhead);
        let bytes = parts.iter().map(|&(_, b)| b).sum::<usize>() + self.header_bytes;
        self.wire_sent.set(self.wire_sent.get() + 1);
        self.wire_bytes_sent.set(self.wire_bytes_sent.get() + bytes as u64);
        if self.sink.enabled() {
            self.sink.emit(
                self.clock.get(),
                EventKind::Send {
                    dst: dst as u16,
                    tag: parts[0].0.tag(),
                    bytes: bytes as u32,
                    subs: parts.len() as u32,
                },
            );
        }
        let wire = Envelope {
            src: self.rank,
            send_time: self.clock.get(),
            bytes,
            vc: self.vc_stamp(),
            sw: self.sw_epoch.get(),
            msg: parts,
        };
        self.transport.send_wire(dst, wire);
    }

    /// The blocking receive behind [`Node::poll_until`], called once the
    /// wire envelope being received has no parts left: it takes the next
    /// envelope off the mailbox, parking — once — until one arrives if the
    /// mailbox is empty, and opens it. The pop and the publication of this
    /// node's waiter are one lock acquisition ([`Mailbox::park`]). Under
    /// the multiplexed backend the park is the yield point: the node's
    /// fiber is suspended for exactly the park.
    ///
    /// This node's coalescing buffers are empty here (the liveness rule:
    /// never sleep on a message a peer may be waiting to trigger):
    /// `poll_until` flushed them on entry and after the last part of every
    /// envelope it handled, and nothing in between sends.
    ///
    /// [`Mailbox::park`]: crate::transport::Mailbox::park
    ///
    /// # Panics
    ///
    /// Panics naming the culprit if a peer has died (nothing this node
    /// waits for can be relied on to arrive), or as wedged if `deadline`
    /// — the caller's watchdog — passes first.
    fn recv_blocking(&self, what: &str, deadline: Instant) -> Envelope<M> {
        debug_assert!(
            self.outbuf.borrow().is_empty(),
            "node {}: parks with sends buffered",
            self.rank
        );
        let failed = || self.transport.failed_rank() >= 0;
        match self.transport.mailbox().park(&self.parker, deadline, failed) {
            Ok(wire) => self.open(wire),
            Err(WaitWireError::Dead) => self.peer_died(what),
            Err(WaitWireError::Timeout) => self.wedged(what),
        }
    }

    /// Start receiving `wire` and hand out its first part. The envelope is
    /// absorbed here, once: the clock advances to its arrival (send time
    /// plus the flight of its wire bytes) and pays `recv_overhead`, the
    /// sender's vector clock is merged, and one `Recv` event is traced, so
    /// flow arrows stay one per wire envelope. Its later parts wait in
    /// [`Node::next_part`].
    fn open(&self, wire: Wire<M>) -> Envelope<M> {
        let Envelope { src, send_time, bytes, vc, sw, msg: mut parts } = wire;
        let subs = parts.len() as u32;
        let arrival = send_time + self.cost.wire_time(bytes);
        let now = self.clock.get().max(arrival) + self.cost.recv_overhead;
        self.clock.set(now);
        self.msgs_recv.set(self.msgs_recv.get() + 1);
        if let (Some(mine), Some(theirs)) = (&self.vc, &vc) {
            mine.borrow_mut().merge(theirs);
        }
        // Coherent switch commits sit between two machine barriers, so a
        // message can arrive from at most one epoch ahead (its sender
        // passed the commit barrier this node is still approaching) and
        // never from a stale epoch after this node committed a newer one —
        // the pre-commit flush drained those.
        debug_assert!(
            sw <= self.sw_epoch.get() + 1,
            "node {}: message from switch epoch {sw} arrived at epoch {}",
            self.rank,
            self.sw_epoch.get()
        );
        parts.reverse();
        let (msg, payload) = parts.pop().expect("a wire envelope carries at least one part");
        if self.sink.enabled() {
            let (tag, bytes) = (msg.tag(), bytes as u32);
            self.sink.emit(
                now,
                EventKind::Recv { src: src as u16, tag, bytes, sent_at: send_time, subs },
            );
        }
        if parts.is_empty() {
            self.recycle(parts);
        } else {
            self.receiving.replace(Some(Receiving { src, send_time, sw, parts }));
        }
        Envelope { src, send_time, bytes: payload, vc, sw, msg }
    }

    /// The next part of the wire envelope being received, if it has one
    /// left, charged `pack_cost` (the unpack). Its arrival was covered when
    /// the envelope was opened, and only the first part carries the
    /// sender's vector clock.
    fn next_part(&self) -> Option<Envelope<M>> {
        let mut receiving = self.receiving.borrow_mut();
        let r = receiving.as_mut()?;
        let (msg, payload) = r.parts.pop().expect("a received envelope holds parts left");
        let env = Envelope {
            src: r.src,
            send_time: r.send_time,
            bytes: payload,
            vc: None,
            sw: r.sw,
            msg,
        };
        if let Some(done) = receiving.take_if(|r| r.parts.is_empty()) {
            self.recycle(done.parts);
        }
        self.charge(self.cost.pack_cost);
        self.msgs_recv.set(self.msgs_recv.get() + 1);
        Some(env)
    }

    /// Keep an emptied part list for a later coalescing buffer, unless
    /// [`SPARE_PARTS`] are kept already.
    fn recycle(&self, parts: Parts<M>) {
        debug_assert!(parts.is_empty());
        let mut spare = self.spare.borrow_mut();
        if spare.len() < SPARE_PARTS {
            spare.push(parts);
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
    /// and again once the last part of each received wire envelope has
    /// been handled, because handlers send replies (a sharer answering a
    /// recall inside a barrier wait, say) that a peer's forward progress
    /// may depend on. A reply thus leaves with the envelope that caused
    /// it, never behind requests that arrived after it, and the replies
    /// to one envelope's train of parts coalesce.
    ///
    /// `pred` must read only this node's state, which nothing but a handled
    /// message changes. It is tested once on entry and once after
    /// **every** message, and at no other time (an empty mailbox changes
    /// nothing it reads, so the loop goes straight to the park): as soon
    /// as the wait is satisfied the loop returns, leaving any further
    /// queued messages for the node's next poll. This matters for virtual-time fidelity — a
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
            // `pred` was false on entry and after the last part handled,
            // and only a handled part changes what it reads: an empty
            // mailbox is no reason to test it again.
            let env = match self.next_part() {
                Some(env) => env,
                None => self.recv_blocking(what, deadline),
            };
            handle(self, env);
            if self.receiving.borrow().is_none() {
                self.flush_coalesced();
            }
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

    /// `(destination, parts)` for every buffer `node` holds.
    fn buffered(node: &Node<u64>) -> Vec<(usize, usize)> {
        node.outbuf.borrow().iter().map(|(dst, parts)| (*dst, parts.len())).collect()
    }

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
    fn uncoalesced_exchange_is_pinned() {
        // Rank 0 sends 1 and 2, rank 1 answers both with 3. Under `Off`
        // each send pays `send_overhead` and one header, each receive one
        // flight of (payload + header) bytes and one `recv_overhead`; each
        // part is its envelope's head, so it packs for nothing and its
        // Pack carries the clock it entered the buffer at: one
        // `send_overhead` before its Send.
        let c = CostModel::cm5();
        let (so, ro) = (c.send_overhead, c.recv_overhead);
        let bytes = 8 + HEADER_BYTES as u64;
        let flight = c.wire_time(bytes as usize);
        let r = Spmd::builder()
            .nprocs(2)
            .cost(c.clone())
            .trace(TraceConfig::on())
            .coalesce(CoalescePolicy::Off)
            .run::<u64, _, _>(|node| {
                let seen = RefCell::new(Vec::new());
                let clocks = RefCell::new(Vec::new());
                let want = if node.rank() == 0 {
                    node.send(1, 1);
                    node.send(1, 2);
                    1
                } else {
                    2
                };
                node.poll_until(
                    "exchange",
                    |n, env| {
                        seen.borrow_mut().push(env.msg);
                        clocks.borrow_mut().push(n.now());
                    },
                    || seen.borrow().len() == want,
                );
                if node.rank() == 1 {
                    node.send(0, 3);
                }
                (seen.into_inner(), clocks.into_inner())
            });
        let recv1 = so + flight + ro;
        let recv2 = recv1.max(2 * so + flight) + ro;
        let reply = recv2 + so;
        let back = reply + flight + ro;
        assert_eq!(r.results[0], (vec![3], vec![back]));
        assert_eq!(r.results[1], (vec![1, 2], vec![recv1, recv2]));
        assert_eq!((recv1, recv2 - recv1), (20_800, 3_000), "receiver's per-message advance");
        assert_eq!([r.stats.nodes[0].final_clock, r.stats.nodes[1].final_clock], [back, reply]);
        assert_eq!(r.sim_ns, 44_600);
        for (s, sent, recv) in [(&r.stats.nodes[0], 2, 1), (&r.stats.nodes[1], 1, 2)] {
            assert_eq!((s.logical_msgs, s.wire_msgs), (sent, sent));
            assert_eq!((s.bytes_sent, s.wire_bytes), (sent * bytes, sent * bytes));
            assert_eq!(s.msgs_recv, recv);
        }
        let wire = |n: &NodeTrace| -> Vec<(u64, EventKind)> {
            let msg = |e: &&ace_trace::TraceEvent| {
                matches!(
                    e.kind,
                    EventKind::Pack { .. } | EventKind::Send { .. } | EventKind::Recv { .. }
                )
            };
            n.events.iter().filter(msg).map(|e| (e.t, e.kind.clone())).collect()
        };
        let b = bytes as u32;
        let pack = |dst| EventKind::Pack { dst, tag: "msg", bytes: b };
        let send = |dst| EventKind::Send { dst, tag: "msg", bytes: b, subs: 1 };
        let recv = |src, sent_at| EventKind::Recv { src, tag: "msg", bytes: b, sent_at, subs: 1 };
        let trace = r.trace.expect("tracing was enabled");
        assert_eq!(
            wire(&trace.nodes[0]),
            vec![
                (0, pack(1)),
                (so, send(1)),
                (so, pack(1)),
                (2 * so, send(1)),
                (back, recv(1, reply))
            ]
        );
        assert_eq!(
            wire(&trace.nodes[1]),
            vec![
                (recv1, recv(0, so)),
                (recv2, recv(0, 2 * so)),
                (recv2, pack(0)),
                (reply, send(0))
            ]
        );
    }

    #[test]
    fn a_lone_part_costs_an_uncoalesced_send() {
        // A request and its reply each travel alone in their envelope.
        // Under every policy such a part is its envelope's head and packs
        // for nothing, so `Threshold(8)` and `FlushOnWait` repeat the `Off`
        // run: the same clocks at both ends, the same wire bytes and the
        // same `Send` stamps.
        let run = |policy| {
            let r = Spmd::builder()
                .nprocs(2)
                .cost(CostModel::cm5())
                .trace(TraceConfig::on())
                .coalesce(policy)
                .run::<u64, _, _>(|node| {
                    let done = Cell::new(false);
                    if node.rank() == 0 {
                        node.send(1, 10);
                    }
                    node.poll_until(
                        "the exchange",
                        |n, env| {
                            if n.rank() == 1 {
                                n.send(0, env.msg + 1);
                            }
                            done.set(true);
                        },
                        || done.get(),
                    );
                    node.now()
                });
            let sends = |n: &NodeTrace| -> Vec<u64> {
                n.events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Send { .. }))
                    .map(|e| e.t)
                    .collect()
            };
            let trace = r.trace.expect("tracing was enabled");
            let wire: Vec<u64> = r.stats.nodes.iter().map(|s| s.wire_bytes).collect();
            (r.results, wire, trace.nodes.iter().map(sends).collect::<Vec<_>>())
        };
        let c = CostModel::cm5();
        let (so, ro) = (c.send_overhead, c.recv_overhead);
        let flight = c.wire_time(8 + HEADER_BYTES);
        let reply = so + flight + ro + so;
        let off = run(CoalescePolicy::Off);
        assert_eq!(off.0, [reply + flight + ro, reply]);
        assert_eq!(off.1, [8 + HEADER_BYTES as u64; 2]);
        assert_eq!(off.2, [vec![so], vec![reply]]);
        for policy in [CoalescePolicy::Threshold(8), CoalescePolicy::FlushOnWait] {
            assert_eq!(run(policy), off, "{policy:?}");
        }
    }

    #[test]
    fn a_train_pays_packing_for_its_later_parts_at_both_ends() {
        // Five parts leave rank 0 as one envelope, flushed by the threshold
        // at the fifth. The head is composed under the envelope's
        // `send_overhead`; each of the four parts that join it packs once at
        // the sender and unpacks once at the receiver. Each part's Pack
        // carries the clock it entered the buffer at.
        let c = CostModel::cm5();
        let (so, ro, pc) = (c.send_overhead, c.recv_overhead, c.pack_cost);
        let r = Spmd::builder()
            .nprocs(2)
            .cost(c.clone())
            .trace(TraceConfig::on())
            .coalesce(CoalescePolicy::Threshold(5))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..5 {
                        node.send(1, i);
                    }
                    assert_eq!(node.wire_sent.get(), 1, "the fifth part fills the buffer");
                } else {
                    let seen = Cell::new(0);
                    node.poll_until(
                        "the train",
                        |_, _| seen.set(seen.get() + 1),
                        || seen.get() == 5,
                    );
                }
                node.now()
            });
        let sent = so + 4 * pc;
        let arrival = sent + c.wire_time(5 * 8 + HEADER_BYTES);
        assert_eq!(r.results, [sent, arrival + ro + 4 * pc]);
        assert_eq!((sent, r.results[1] - arrival - ro), (4_200, 1_200), "3000 + 4·300, 4·300");
        // Rank 0's events: five Packs, then the envelope's Send.
        let trace = r.trace.expect("tracing was enabled");
        let events: Vec<(u64, bool)> = trace.nodes[0]
            .events
            .iter()
            .map(|e| (e.t, matches!(e.kind, EventKind::Send { .. })))
            .collect();
        let packs = (0..5).map(|k| (k * pc, false));
        assert_eq!(events, packs.chain([(sent, true)]).collect::<Vec<_>>());
    }

    #[test]
    fn poll_until_tests_its_predicate_once_per_handled_part() {
        // Rank 1 waits for five messages: a three-part envelope, then two
        // lone ones that rank 0 sends only after rank 1's ack, so rank 1
        // finds its mailbox empty and parks in between. Each predicate is
        // tested on entry and after each handled part, and never because
        // the mailbox ran empty.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(|node| {
                let seen = Cell::new(0);
                let mut tests = 0;
                if node.rank() == 0 {
                    for i in 0..3 {
                        node.send(1, i);
                    }
                    let pred = || {
                        tests += 1;
                        seen.get() == 1
                    };
                    node.poll_until("the ack", |_, _| seen.set(seen.get() + 1), pred);
                    for i in 3..5 {
                        node.send(1, i);
                        node.flush_coalesced();
                    }
                } else {
                    let handle = |n: &Node<u64>, env: Envelope<u64>| {
                        seen.set(seen.get() + 1);
                        if env.msg == 2 {
                            n.send(0, 99);
                        }
                    };
                    let pred = || {
                        tests += 1;
                        seen.get() == 5
                    };
                    node.poll_until("five messages", handle, pred);
                }
                (tests, node.stats().parks)
            });
        assert_eq!(r.results[0].0, 1 + 1, "rank 0: entry, the ack");
        assert_eq!(r.results[1].0, 1 + 5, "rank 1: entry, five parts");
        assert!(r.results[1].1 >= 1, "premise: rank 1 ran its mailbox empty and parked");
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
        // one receive even though the whole burst is already delivered.
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
        // sender pays 1× send_overhead for the head and 2× pack for the
        // parts that join it (3000 + 2·300 = 3600 on cm5); the receiver's
        // clock covers one flight of (3×8 + HEADER) bytes plus one
        // recv_overhead and two pack (unpack) charges — not three full
        // latencies.
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
                assert_eq!(buffered(node), [(1, 3)]);
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
        let send_done = 2 * c.pack_cost + c.send_overhead;
        assert_eq!(r.results[0], send_done);
        assert_eq!(send_done, 3_600);
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
                    let pending = buffered(node)[0].1 as u64;
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
        // handled envelope (the reply, sent from handler context).
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
    fn a_reply_leaves_with_the_envelope_that_caused_it() {
        // Rank 0's request reaches rank 2's mailbox ahead of three
        // envelopes from rank 1. The reply rank 2's handler buffers leaves
        // once the request's envelope is used up, stamped one
        // `send_overhead` after the handler's clock: not after rank 1's
        // envelopes are handled too. Request and reply each open an empty
        // buffer, so neither packs: the handler's clock is one
        // `send_overhead`, one flight of (8 + HEADER) bytes and one
        // `recv_overhead`, 3000 + 14 800 + 3000 = 20 800 on cm5.
        let c = CostModel::cm5();
        let (so, ro) = (c.send_overhead, c.recv_overhead);
        let r = Spmd::builder()
            .nprocs(3)
            .cost(c.clone())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(|node| match node.rank() {
                0 => {
                    node.send(2, 10);
                    let sent_at = Cell::new(None);
                    node.poll_until(
                        "reply",
                        |_, env| sent_at.set(Some(env.send_time)),
                        || sent_at.get().is_some(),
                    );
                    vec![sent_at.get().unwrap()]
                }
                1 => {
                    for i in 1..=3 {
                        node.send(2, i);
                        node.flush_coalesced();
                    }
                    Vec::new()
                }
                _ => {
                    let srcs = RefCell::new(Vec::new());
                    let handled_at = Cell::new(0);
                    node.poll_until(
                        "the request and three more",
                        |n, env| {
                            if env.src == 0 {
                                n.send(0, env.msg + 1);
                                handled_at.set(n.now());
                            }
                            srcs.borrow_mut().push(env.src as u64);
                        },
                        || srcs.borrow().len() == 4,
                    );
                    assert_eq!(srcs.into_inner(), [0, 1, 1, 1], "the request is handled first");
                    vec![handled_at.get()]
                }
            });
        let handled_at = so + c.wire_time(8 + HEADER_BYTES) + ro;
        assert_eq!(r.results[2], [handled_at]);
        assert_eq!(handled_at, 20_800);
        assert_eq!(r.results[0], [handled_at + so], "the reply's send stamp");
    }

    #[test]
    fn the_replies_to_a_train_leave_as_one_envelope() {
        // Five requests leave rank 0 as one wire envelope; rank 1's five
        // replies, buffered while the train's parts are handled, go back
        // as one too.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::cm5())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(|node| {
                let seen = RefCell::new(Vec::new());
                if node.rank() == 0 {
                    for i in 0..5 {
                        node.send(1, i);
                    }
                }
                node.poll_until(
                    "five messages",
                    |n, env| {
                        if n.rank() == 1 {
                            n.send(0, env.msg + 100);
                        }
                        seen.borrow_mut().push(env.msg);
                    },
                    || seen.borrow().len() == 5,
                );
                seen.into_inner()
            });
        assert_eq!(r.results, [vec![100, 101, 102, 103, 104], vec![0, 1, 2, 3, 4]]);
        for s in &r.stats.nodes {
            assert_eq!((s.logical_msgs, s.wire_msgs, s.msgs_recv), (5, 1, 5));
        }
    }

    #[test]
    fn flush_order_is_rank_order_above_256_ranks() {
        // Rank 0 buffers one message for every peer, highest rank first,
        // then flushes: the envelopes leave in ascending rank order, each
        // one `send_overhead` after the one before it. Every part is the
        // head of its own buffer, so the buffering packs for nothing and
        // rank r's message leaves at r·`send_overhead`.
        let c = CostModel::cm5();
        let n = 300;
        let r = Spmd::builder()
            .nprocs(n)
            .cost(c.clone())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for dst in (1..node.nprocs()).rev() {
                        node.send(dst, dst as u64);
                    }
                    assert_eq!(buffered(node).len(), node.nprocs() - 1);
                    node.flush_coalesced();
                } else {
                    let got = Cell::new(0u64);
                    node.poll_until("one message", |_, env| got.set(env.msg), || got.get() != 0);
                    assert_eq!(got.get(), node.rank() as u64);
                }
                node.now()
            });
        let flight = c.wire_time(8 + HEADER_BYTES) + c.recv_overhead;
        for (rank, &clock) in r.results.iter().enumerate().skip(1) {
            assert_eq!(clock, rank as u64 * c.send_overhead + flight, "rank {rank}");
        }
        assert_eq!(r.results[0], (n as u64 - 1) * c.send_overhead);
        assert_eq!(r.stats.nodes[0].wire_msgs, n as u64 - 1);
    }

    #[test]
    fn a_threshold_flush_leaves_other_destinations_buffered() {
        Spmd::builder()
            .nprocs(3)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::Threshold(2))
            .run::<u64, _, _>(|node| {
                let seen = Cell::new(0usize);
                let want = match node.rank() {
                    0 => {
                        node.send(2, 1);
                        node.send(1, 2);
                        assert_eq!(buffered(node), [(1, 1), (2, 1)]);
                        node.send(1, 3);
                        assert_eq!(buffered(node), [(2, 1)], "only rank 1's buffer reached 2");
                        assert_eq!(node.wire_sent.get(), 1);
                        node.flush_coalesced();
                        assert!(buffered(node).is_empty(), "a flush leaves no buffer held");
                        0
                    }
                    1 => 2,
                    _ => 1,
                };
                node.poll_until("messages", |_, _| seen.set(seen.get() + 1), || seen.get() == want);
            });
    }

    #[test]
    #[should_panic(expected = "node 1: send to nonexistent node 5 (the machine has 2)")]
    fn a_send_to_a_rank_outside_the_machine_panics_at_the_send() {
        Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::FlushOnWait)
            .run::<u64, _, _>(|node| {
                if node.rank() == 1 {
                    node.send(5, 0);
                }
            });
    }
}
