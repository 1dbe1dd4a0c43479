//! Structured event tracing for the simulated machine.
//!
//! The substrate (`ace-machine`) gives every node a [`TraceSink`]: a
//! preallocated ring buffer of [`TraceEvent`]s, each stamped with the
//! node's *virtual* clock. Tracing is off by default ([`TraceConfig::off`])
//! and every instrumentation point starts with an inlined `enabled()`
//! check, so the disabled hot paths cost one predictable branch.
//!
//! After a run, the per-node buffers are merged into a [`MachineTrace`]:
//! one virtual-time-ordered timeline that can be
//!
//! * exported as Chrome `trace_event` JSON ([`MachineTrace::to_chrome_json`],
//!   loadable in `chrome://tracing` or Perfetto — one track per node, one
//!   flow arrow per message),
//! * reduced to a per-protocol summary table ([`MachineTrace::summary`]:
//!   hook counts, time-in-hook, bytes by message tag), or
//! * turned into a wait-graph dump ([`MachineTrace::wait_graph`]) naming
//!   the hook and region each still-blocked node is stuck on.
//!
//! This crate is dependency-free and knows nothing about the runtime; the
//! machine and runtime layers decide *what* to emit.

pub mod chrome;
pub mod jsonlite;
pub mod sink;
pub mod timeline;

pub use chrome::{validate_chrome_trace, ChromeCheck};
pub use sink::TraceSink;
pub use timeline::{
    BlockedWait, HookRow, MachineTrace, NodeTrace, SwitchRow, TagRow, TraceSummary,
};

/// Default per-node ring capacity, in events.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Region field value for events that are not about any region
/// (e.g. barrier hooks).
pub const NO_REGION: u64 = u64::MAX;

/// Runtime tracing configuration, carried by the machine builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false no event is ever recorded.
    pub enabled: bool,
    /// Per-node ring-buffer capacity in events; when a node's buffer is
    /// full the oldest event is dropped (and counted).
    pub capacity: usize,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig { enabled: false, capacity: 0 }
    }

    /// Tracing enabled with the default per-node capacity.
    pub fn on() -> Self {
        TraceConfig { enabled: true, capacity: DEFAULT_CAPACITY }
    }

    /// Tracing enabled with an explicit per-node ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig { enabled: true, capacity: capacity.max(1) }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The runtime hooks that emit enter/exit spans. `Handle` is the
/// active-message handler of a protocol (its `detail` carries the
/// protocol-defined opcode name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hook {
    /// `ACE_MAP`.
    Map,
    /// `ACE_UNMAP`.
    Unmap,
    /// `ACE_START_READ`.
    StartRead,
    /// `ACE_END_READ`.
    EndRead,
    /// `ACE_START_WRITE`.
    StartWrite,
    /// `ACE_END_WRITE`.
    EndWrite,
    /// `Ace_Barrier`.
    Barrier,
    /// `Ace_Lock`.
    Lock,
    /// `Ace_UnLock`.
    Unlock,
    /// Protocol active-message handler.
    Handle,
}

impl Hook {
    /// Stable display name of the hook.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Map => "map",
            Hook::Unmap => "unmap",
            Hook::StartRead => "start_read",
            Hook::EndRead => "end_read",
            Hook::StartWrite => "start_write",
            Hook::EndWrite => "end_write",
            Hook::Barrier => "barrier",
            Hook::Lock => "lock",
            Hook::Unlock => "unlock",
            Hook::Handle => "handle",
        }
    }
}

/// One traced occurrence. Events carry `&'static str` names on the hot
/// kinds (messages, hooks) so recording is a couple of word moves; only
/// the rare block/unblock edges own their description.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A wire envelope was injected toward `dst`. One event per wire
    /// message: a coalesced batch of logical sends emits a single `Send`
    /// whose `subs` counts the sub-messages it carries.
    Send {
        /// Destination rank.
        dst: u16,
        /// Message-type tag (see `MsgSize::tag` in the machine crate);
        /// for a coalesced batch, the tag of its first sub-message.
        tag: &'static str,
        /// Wire bytes charged (summed payloads + one header).
        bytes: u32,
        /// Logical sub-messages in this wire envelope (1 when uncoalesced).
        subs: u32,
    },
    /// One logical send. Every `send` call emits exactly one `Pack`,
    /// stamped with the clock when the message enters its destination's
    /// coalescing buffer, whether it departs at once (coalescing off — the
    /// matching [`EventKind::Send`] follows one `send_overhead` later) or
    /// rides a later wire envelope. Summaries derive exact per-tag
    /// *logical* counts from these; wire envelopes (`Send`) are filed
    /// under their first sub-message's tag only.
    Pack {
        /// Destination rank.
        dst: u16,
        /// Message-type tag.
        tag: &'static str,
        /// Logical bytes charged: payload plus one per-message header,
        /// independent of how the message is grouped on the wire.
        bytes: u32,
    },
    /// A wire envelope from `src` was absorbed (its first sub-message
    /// popped for handling).
    Recv {
        /// Source rank.
        src: u16,
        /// Message-type tag (first sub-message's tag for a batch).
        tag: &'static str,
        /// Wire bytes charged (summed payloads + one header).
        bytes: u32,
        /// The sender's virtual clock when the wire envelope was injected.
        sent_at: u64,
        /// Logical sub-messages in this wire envelope (1 when uncoalesced).
        subs: u32,
    },
    /// A runtime hook began on this node.
    HookEnter {
        /// Which hook.
        hook: Hook,
        /// Target region id bits, or [`NO_REGION`].
        region: u64,
        /// The region's space id bits.
        space: u32,
        /// Name of the protocol the hook dispatched to.
        proto: &'static str,
        /// Hook-specific refinement (protocol opcode name for `Handle`).
        detail: &'static str,
    },
    /// The matching end of a [`EventKind::HookEnter`].
    HookExit {
        /// Which hook.
        hook: Hook,
        /// Target region id bits, or [`NO_REGION`].
        region: u64,
        /// The region's space id bits.
        space: u32,
        /// Name of the protocol the hook dispatched to.
        proto: &'static str,
        /// Hook-specific refinement (protocol opcode name for `Handle`).
        detail: &'static str,
    },
    /// A region's protocol state code changed across a hook or handler.
    State {
        /// The region whose state moved.
        region: u64,
        /// State code before.
        from: u32,
        /// State code after.
        to: u32,
    },
    /// The runtime conformance checker caught a violation on this node.
    Violation {
        /// Target region id bits, or [`NO_REGION`].
        region: u64,
        /// The structured report, rendered (an `AceError::Conformance`
        /// Display string at the runtime layer).
        what: Box<str>,
    },
    /// An adaptive protocol engine committed a protocol switch on this
    /// node. Space-wide switches carry [`NO_REGION`]; `epoch` is the
    /// engine's switch epoch *after* the commit (also piggybacked on
    /// every subsequent wire envelope).
    Switch {
        /// Target region id bits, or [`NO_REGION`] for a space-wide switch.
        region: u64,
        /// The space whose protocol moved.
        space: u32,
        /// Registered name of the protocol switched away from.
        from: &'static str,
        /// Registered name of the protocol switched to.
        to: &'static str,
        /// The switch epoch after the commit.
        epoch: u64,
    },
    /// The node blocked (entered a poll loop) waiting for `what`.
    Block {
        /// The caller-provided wait description.
        what: Box<str>,
    },
    /// The node's wait for `what` was satisfied.
    Unblock {
        /// The caller-provided wait description.
        what: Box<str>,
    },
}

/// One event stamped with the emitting node's virtual clock (ns).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time on the emitting node, nanoseconds.
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_off() {
        assert_eq!(TraceConfig::default(), TraceConfig::off());
        assert!(!TraceConfig::off().enabled);
        assert!(TraceConfig::on().enabled);
        assert_eq!(TraceConfig::on().capacity, DEFAULT_CAPACITY);
        assert_eq!(TraceConfig::with_capacity(0).capacity, 1, "capacity is clamped to 1");
    }

    #[test]
    fn hook_names_are_stable() {
        assert_eq!(Hook::StartRead.name(), "start_read");
        assert_eq!(Hook::Handle.name(), "handle");
        assert_eq!(Hook::Barrier.name(), "barrier");
    }
}
