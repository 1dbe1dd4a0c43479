//! Message envelopes: what actually travels between nodes.

/// Size accounting for simulated bandwidth charges.
///
/// Implemented by each runtime's message type. `size_bytes` should return
/// the number of payload bytes the message would occupy on a real wire;
/// the substrate adds [`HEADER_BYTES`] per *wire* envelope for the
/// active-message header. Zero-copy payloads (e.g. `Arc<[u64]>`) must
/// report the full payload size, not the size of the handle: sharing a
/// buffer saves host memory, never simulated bandwidth.
pub trait MsgSize {
    /// The coalescing policy of a machine of these messages whose builder
    /// names none ([`crate::MachineBuilder::coalesce`]).
    const COALESCE: crate::CoalescePolicy = crate::CoalescePolicy::Off;

    /// Payload size in bytes (excluding the fixed header).
    fn size_bytes(&self) -> usize;

    /// Short stable tag naming the message's kind, used to label trace
    /// events and aggregate per-tag byte counts. Implementations should
    /// return one tag per logical message variant.
    fn tag(&self) -> &'static str {
        "msg"
    }
}

/// Fixed per-message header charge: handler id, source, region id, opcode —
/// roughly what a CM-5 active message packet carried. Charged once per
/// *wire* envelope: a coalesced batch of logical messages pays it once,
/// which is exactly the headers-saved win of coalescing.
pub const HEADER_BYTES: usize = 20;

/// A message in flight, stamped with the sender's identity and virtual
/// clock at send time.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sending node's rank.
    pub src: usize,
    /// Sender's virtual clock when the message's wire envelope was
    /// injected (for a coalesced message: when its buffer was flushed).
    pub send_time: u64,
    /// Sender's vector clock at injection — a dense snapshot, one lane per
    /// rank — present only when the machine runs with conformance checking
    /// enabled ([`crate::CheckMode`]). Sending is not a clock event
    /// ([`crate::VClock`]), so envelopes sent between two changes of the
    /// sender's clock share one allocation: the clock's own lanes. Of a
    /// wire envelope's parts only the first delivered one carries the
    /// clock (one merge per wire envelope). Checker metadata is
    /// metrologically invisible: it contributes nothing to `bytes` or any
    /// cost charge.
    pub vc: Option<std::sync::Arc<[u64]>>,
    /// The sender's protocol-switch epoch at injection: how many adaptive
    /// protocol switches the sender had committed when this message left.
    /// Like [`Envelope::vc`] it is metrologically invisible (zero bytes,
    /// zero cost charges); receivers max-merge it so a node always knows
    /// the newest epoch any peer has reached, and debug builds assert no
    /// message arrives from more than one switch in the future — the
    /// two-barrier switch handshake makes that impossible for a coherent
    /// engine.
    pub sw: u64,
    /// On a [`Wire`] envelope, its wire bytes: the parts' payloads plus one
    /// header. On a delivered message, its own payload. Payloads are
    /// measured once at send time by [`MsgSize::size_bytes`], so the
    /// receiver never re-measures them and both ends charge identical
    /// bytes; see `Node::send` for the charging rules.
    pub bytes: usize,
    /// The message itself.
    pub msg: M,
}

/// What actually travels on the transport: one envelope whose message is
/// the [`Parts`] it carries, in send order, all bound for one destination.
/// An uncoalesced send, and a coalescing flush of a buffer that held one
/// part, carries that part by value ([`Parts::One`]), the way a CM-5
/// active message was one packet; only a coalesced train of two or more
/// parts holds them in a list ([`Parts::Many`]). Either way the envelope
/// is the *wire* unit — it pays latency, header and overheads once, and
/// its `bytes` are the summed payloads plus one header — and the receiver
/// re-expands it into one [`Envelope`] per part, so handlers never see
/// grouping.
///
/// This is the unit a [`crate::transport::Transport`] backend carries:
/// the in-process backend pushes it into the destination's mailbox, the
/// socket backend frames it with [`crate::transport::WireCodec`].
pub type Wire<M> = Envelope<Parts<M>>;

/// The parts of one [`Wire`] envelope, each a message with its payload
/// size in bytes, in send order.
#[derive(Debug, PartialEq, Eq)]
pub enum Parts<M> {
    /// A lone part, held by value: no list to allocate, recycle or walk.
    One(M, usize),
    /// A coalesced train of two or more parts.
    Many(Vec<(M, usize)>),
}

impl<M> Parts<M> {
    /// How many parts there are.
    pub(crate) fn len(&self) -> usize {
        match self {
            Parts::One(..) => 1,
            Parts::Many(parts) => parts.len(),
        }
    }

    /// The summed payload bytes of the parts.
    pub(crate) fn payload_bytes(&self) -> usize {
        match self {
            Parts::One(_, bytes) => *bytes,
            Parts::Many(parts) => parts.iter().map(|&(_, b)| b).sum(),
        }
    }

    /// The first part's message.
    pub(crate) fn head(&self) -> &M {
        match self {
            Parts::One(msg, _) => msg,
            Parts::Many(parts) => &parts[0].0,
        }
    }

    /// Append `msg` of `payload` bytes. A lone part becomes a train: it
    /// moves into the empty list `list` returns, ahead of `msg`.
    pub(crate) fn push(&mut self, msg: M, payload: usize, list: impl FnOnce() -> Vec<(M, usize)>) {
        match self {
            Parts::Many(parts) => parts.push((msg, payload)),
            Parts::One(..) => {
                let mut parts = list();
                debug_assert!(parts.is_empty());
                if let Parts::One(head, bytes) = std::mem::replace(self, Parts::Many(Vec::new())) {
                    parts.push((head, bytes));
                }
                parts.push((msg, payload));
                *self = Parts::Many(parts);
            }
        }
    }
}

impl MsgSize for () {
    fn size_bytes(&self) -> usize {
        0
    }
}

impl MsgSize for u64 {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl MsgSize for Vec<u64> {
    fn size_bytes(&self) -> usize {
        self.len() * 8
    }
}

impl MsgSize for std::sync::Arc<[u64]> {
    fn size_bytes(&self) -> usize {
        self.len() * 8
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    /// A one-part wire envelope carrying `msg` from `src`, as an
    /// uncoalesced send injects it.
    pub(crate) fn one_part(src: usize, msg: u64) -> Wire<u64> {
        let bytes = 8 + HEADER_BYTES;
        Envelope { src, send_time: 0, bytes, vc: None, sw: 0, msg: Parts::One(msg, 8) }
    }

    #[test]
    fn builtin_sizes() {
        assert_eq!(().size_bytes(), 0);
        assert_eq!(7u64.size_bytes(), 8);
        assert_eq!(vec![1u64, 2, 3].size_bytes(), 24);
    }

    #[test]
    fn shared_payload_sizes_match_owned() {
        // A zero-copy handle charges the same bytes as the owned buffer it
        // wraps: refcount bumps save host memory, not simulated bandwidth.
        let owned = vec![1u64, 2, 3, 4];
        let shared: Arc<[u64]> = owned.clone().into();
        assert_eq!(shared.size_bytes(), owned.size_bytes());
        assert_eq!(Arc::clone(&shared).size_bytes(), 32);
    }
}
