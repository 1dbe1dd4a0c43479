//! Per-node and whole-machine counters.

/// Communication counters for one node.
///
/// Message accounting is split into *logical* and *wire* views. A logical
/// message is one `Node::send` call; a wire message is one envelope that
/// actually crossed the transport. With coalescing off the two coincide; with
/// coalescing on, many logical messages can share one wire envelope (and
/// one header), so `wire_msgs <= logical_msgs` always holds. Logical byte
/// accounting charges every message its payload plus header — a
/// deterministic function of the program — while `wire_bytes` charges each
/// wire envelope one header over its summed payloads, so
/// `bytes_sent - wire_bytes` is exactly the header bytes coalescing saved.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// Logical messages injected by this node (one per `send` call).
    pub logical_msgs: u64,
    /// Wire envelopes this node put on the transport.
    pub wire_msgs: u64,
    /// Logical bytes injected: payload plus one header per logical message,
    /// independent of how messages were grouped on the wire.
    pub bytes_sent: u64,
    /// Wire bytes injected: payload plus one header per wire envelope.
    pub wire_bytes: u64,
    /// Logical messages received and handled by this node.
    pub msgs_recv: u64,
    /// Blocking episodes: times this node found nothing to receive and
    /// parked its thread. Each ends by exactly one wake-up — a delivery, a
    /// peer failure, or the watchdog deadline — so this is also the
    /// node's wake-up count.
    pub parks: u64,
    /// The parks that ended at the watchdog deadline instead of by a
    /// wake-up. Nonzero only on a node that then died as wedged.
    pub park_timeouts: u64,
    /// Conformance violations the runtime checker recorded against this
    /// node (always zero when the machine runs with `CheckMode::Off`).
    pub violations: u64,
    /// Completed access sections this node recorded for the checker
    /// (zero under `CheckMode::Off`, and for sections whose every overlap
    /// the protocol grants).
    pub check_records: u64,
    /// Words those records took once encoded — what this node's barrier
    /// arrivals carried up the combining tree.
    pub check_words: u64,
    /// The node's final protocol-switch epoch: how many adaptive protocol
    /// switches it committed (zero on machines running static protocols).
    pub switch_epoch: u64,
    /// Final virtual clock, filled in when the node's program returns.
    pub final_clock: u64,
}

/// Aggregated statistics for a whole SPMD run.
#[derive(Debug, Default, Clone)]
pub struct MachineStats {
    /// Per-node counters, indexed by rank.
    pub nodes: Vec<NodeStats>,
}

impl MachineStats {
    /// Total logical messages sent across all nodes.
    pub fn total_msgs(&self) -> u64 {
        self.nodes.iter().map(|n| n.logical_msgs).sum()
    }

    /// Total wire envelopes sent across all nodes.
    pub fn total_wire_msgs(&self) -> u64 {
        self.nodes.iter().map(|n| n.wire_msgs).sum()
    }

    /// Total logical payload+header bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total blocking episodes (thread parks) across all nodes.
    pub fn total_parks(&self) -> u64 {
        self.nodes.iter().map(|n| n.parks).sum()
    }

    /// Total parks that ended by deadline rather than by a wake-up.
    pub fn total_park_timeouts(&self) -> u64 {
        self.nodes.iter().map(|n| n.park_timeouts).sum()
    }

    /// Total conformance violations recorded across all nodes.
    pub fn total_violations(&self) -> u64 {
        self.nodes.iter().map(|n| n.violations).sum()
    }

    /// Section records the checker recorded, and the words they were
    /// encoded in, across all nodes: what the barrier arrivals carried up
    /// the combining tree to node 0, which scans each passage's records
    /// before releasing it.
    pub fn total_check_history(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(r, w), n| (r + n.check_records, w + n.check_words))
    }

    /// Simulated completion time of the run: the maximum final clock.
    pub fn sim_time(&self) -> u64 {
        self.nodes.iter().map(|n| n.final_clock).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let stats = MachineStats {
            nodes: vec![
                NodeStats {
                    logical_msgs: 3,
                    wire_msgs: 2,
                    bytes_sent: 100,
                    wire_bytes: 80,
                    msgs_recv: 1,
                    parks: 3,
                    park_timeouts: 1,
                    violations: 1,
                    check_records: 2,
                    check_words: 30,
                    switch_epoch: 0,
                    final_clock: 50,
                },
                NodeStats {
                    logical_msgs: 2,
                    wire_msgs: 2,
                    bytes_sent: 10,
                    wire_bytes: 10,
                    msgs_recv: 4,
                    parks: 2,
                    park_timeouts: 0,
                    violations: 0,
                    check_records: 1,
                    check_words: 7,
                    switch_epoch: 0,
                    final_clock: 80,
                },
            ],
        };
        assert_eq!(stats.total_msgs(), 5);
        assert_eq!(stats.total_wire_msgs(), 4);
        assert_eq!(stats.total_bytes(), 110);
        assert_eq!(stats.total_parks(), 5);
        assert_eq!(stats.total_park_timeouts(), 1);
        assert_eq!(stats.total_violations(), 1);
        assert_eq!(stats.total_check_history(), (3, 37));
        assert_eq!(stats.sim_time(), 80);
    }

    #[test]
    fn empty_machine() {
        let stats = MachineStats::default();
        assert_eq!(stats.total_msgs(), 0);
        assert_eq!(stats.total_wire_msgs(), 0);
        assert_eq!(stats.sim_time(), 0);
    }
}
