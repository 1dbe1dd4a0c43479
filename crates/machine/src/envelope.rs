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
    /// Sender's virtual clock when the message was injected (for a
    /// coalesced batch: when its wire envelope was flushed).
    pub send_time: u64,
    /// Sender's vector clock at injection — a dense snapshot, one lane per
    /// rank — present only when the machine runs with conformance checking
    /// enabled ([`crate::CheckMode`]). Sending is not a clock event
    /// ([`crate::VClock`]), so envelopes sent between two changes of the
    /// sender's clock share one allocation. For a coalesced batch only
    /// the first delivered part carries the clock (one merge per wire
    /// envelope). Checker metadata is metrologically invisible: it
    /// contributes nothing to `bytes` or any cost charge.
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
    /// Wire bytes — payload plus [`HEADER_BYTES`] — captured at send time
    /// by calling [`MsgSize::size_bytes`] once, so the receiver never
    /// re-measures the payload and both ends charge identical bytes.
    /// For a sub-message delivered out of a coalesced batch this is the
    /// sub-message's own payload (headerless except on the batch's first
    /// part); see `Node::send` for the charging rules.
    pub bytes: usize,
    /// The message itself.
    pub msg: M,
}

/// What actually travels on the transport: either a plain envelope or a
/// coalesced batch of logical messages bound for the same destination.
/// The batch is the *wire* unit — it pays latency, header and overheads
/// once; its parts are re-expanded into individual [`Envelope`]s on the
/// receiving side so handlers never see batching.
///
/// This is the unit a [`crate::transport::Transport`] backend carries:
/// the in-process backend moves it through a channel, the socket backend
/// frames it with [`crate::transport::WireCodec`].
#[derive(Debug)]
pub enum Wire<M> {
    /// One logical message, one wire envelope.
    Single(Envelope<M>),
    /// A coalesced flush of one destination's buffered messages.
    Batch {
        /// Sending node's rank.
        src: usize,
        /// Sender's virtual clock at flush.
        send_time: u64,
        /// Summed payload bytes of all parts plus one wire header.
        wire_bytes: usize,
        /// `(msg, payload_bytes)` in send order.
        parts: Vec<(M, usize)>,
        /// Sender's vector clock at flush, when checking is enabled.
        vc: Option<std::sync::Arc<[u64]>>,
        /// Sender's protocol-switch epoch at flush (see [`Envelope::sw`]);
        /// stamped back onto every re-expanded part.
        sw: u64,
    },
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
mod tests {
    use super::*;
    use std::sync::Arc;

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
