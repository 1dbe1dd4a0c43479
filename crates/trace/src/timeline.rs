//! Merging per-node event buffers into one machine-wide timeline, plus
//! the derived views: summary tables and the wait graph.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{EventKind, Hook, TraceEvent, NO_REGION};

/// One node's drained event buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// The emitting node's rank.
    pub rank: usize,
    /// Events lost to ring overflow on this node.
    pub dropped: u64,
    /// The surviving events, in emission order (virtual-time monotone:
    /// a node's clock never goes backwards).
    pub events: Vec<TraceEvent>,
}

/// The merged trace of a whole run.
#[derive(Debug, Clone, Default)]
pub struct MachineTrace {
    /// Per-node buffers, indexed by rank.
    pub nodes: Vec<NodeTrace>,
}

/// A node still blocked when its trace ended, and what it was stuck on.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedWait {
    /// The stuck node.
    pub rank: usize,
    /// The wait description passed to the poll loop.
    pub what: String,
    /// Virtual time at which the wait began.
    pub since: u64,
    /// The innermost hook still open around the wait, if any.
    pub hook: Option<&'static str>,
    /// The region that hook targeted, if any.
    pub region: Option<u64>,
    /// The protocol that hook dispatched to, if any.
    pub proto: Option<&'static str>,
}

/// Per-(protocol, hook) aggregate in a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct HookRow {
    /// Protocol name the hook dispatched to.
    pub proto: &'static str,
    /// Hook label (the opcode name for `handle` spans).
    pub hook: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Total virtual time inside the span (inclusive of nesting), ns.
    pub time_ns: u64,
}

/// Per-(from-protocol, to-protocol) switch aggregate in a
/// [`TraceSummary`]: how many adaptive protocol switches moved a space
/// between this ordered pair of protocols, across all nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRow {
    /// Protocol switched away from.
    pub from: &'static str,
    /// Protocol switched to.
    pub to: &'static str,
    /// Number of switch commits over this pair.
    pub count: u64,
}

/// Per-message-tag aggregate in a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct TagRow {
    /// The message tag.
    pub tag: &'static str,
    /// Wire envelopes filed under this tag. A coalesced batch counts
    /// once, under its *first* sub-message's tag, so per-tag wire counts
    /// are approximate when batches mix tags (the machine-wide total is
    /// exact).
    pub msgs: u64,
    /// Logical sends with this tag, counted from `Pack` events — exact
    /// and deterministic regardless of how coalescing grouped the
    /// messages into envelopes.
    pub logical: u64,
    /// Logical bytes (payload + one per-message header) for this tag,
    /// from `Pack` events; like `logical`, independent of the wire
    /// grouping.
    pub bytes: u64,
}

/// Aggregates derived from a merged trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Hook spans by (protocol, hook label), sorted by descending time.
    pub hooks: Vec<HookRow>,
    /// Sent messages by tag, sorted by descending bytes.
    pub tags: Vec<TagRow>,
    /// Adaptive protocol switches grouped per (from, to) protocol pair,
    /// sorted by descending count.
    pub switches: Vec<SwitchRow>,
    /// Total events across all nodes.
    pub events: u64,
    /// Total events dropped to ring overflow.
    pub dropped: u64,
    /// Access annotations absorbed by the per-region fast mask. These
    /// never open a hook span (that is the point of the fast path), so
    /// they cannot be derived from events — callers supply the count
    /// from the run's `OpCounters` via [`TraceSummary::with_fast_hits`].
    pub fast_hits: u64,
    /// Conformance violations recorded in the trace
    /// ([`EventKind::Violation`] events across all nodes).
    pub violations: u64,
    /// Times a node thread parked in a blocking receive, and how many of
    /// those parks ended at the watchdog deadline rather than by a
    /// wake-up. Host-side counts, not events — callers supply them from
    /// the run's machine stats via [`TraceSummary::with_parks`].
    pub parks: u64,
    /// See [`TraceSummary::parks`].
    pub park_timeouts: u64,
    /// Barrier messages sent plus received, summed over all nodes and on
    /// the busiest one. Runtime counts, not events — callers supply them
    /// from the run's `OpCounters` via [`TraceSummary::with_bar_msgs`].
    pub bar_msgs: u64,
    /// See [`TraceSummary::bar_msgs`].
    pub bar_msgs_busiest: u64,
}

impl MachineTrace {
    /// Total events across all nodes.
    pub fn event_count(&self) -> usize {
        self.nodes.iter().map(|n| n.events.len()).sum()
    }

    /// Total `Send` events across all nodes — one per *wire* envelope
    /// (equals the machine's wire-messages counter when no ring
    /// overflowed).
    pub fn send_count(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| &n.events)
            .filter(|e| matches!(e.kind, EventKind::Send { .. }))
            .count() as u64
    }

    /// Total logical messages carried by all `Send` events (sum of each
    /// wire envelope's sub-message count).
    pub fn logical_send_count(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| &n.events)
            .filter_map(|e| match e.kind {
                EventKind::Send { subs, .. } => Some(subs as u64),
                _ => None,
            })
            .sum()
    }

    /// The machine-wide timeline: every event paired with its rank,
    /// ordered by virtual time. The merge is stable per node (a node's
    /// own order is preserved) and breaks cross-node ties by rank — the
    /// only sound rule, since equal virtual stamps on different nodes
    /// are causally unordered.
    pub fn merged(&self) -> Vec<(usize, &TraceEvent)> {
        let mut all: Vec<(usize, usize, &TraceEvent)> = Vec::with_capacity(self.event_count());
        for n in &self.nodes {
            all.extend(n.events.iter().enumerate().map(|(i, e)| (n.rank, i, e)));
        }
        all.sort_by_key(|(rank, i, e)| (e.t, *rank, *i));
        all.into_iter().map(|(rank, _, e)| (rank, e)).collect()
    }

    /// Reduce the trace to per-protocol hook and per-tag message tables.
    pub fn summary(&self) -> TraceSummary {
        let mut hooks: HashMap<(&'static str, &'static str), (u64, u64)> = HashMap::new();
        let mut tags: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
        let mut switches: HashMap<(&'static str, &'static str), u64> = HashMap::new();
        let mut dropped = 0;
        let mut violations = 0;
        for n in &self.nodes {
            dropped += n.dropped;
            // Open spans per node: (hook, proto, label, enter time).
            let mut open: Vec<(Hook, &'static str, &'static str, u64)> = Vec::new();
            for e in &n.events {
                match &e.kind {
                    EventKind::Send { tag, .. } => {
                        tags.entry(tag).or_insert((0, 0, 0)).0 += 1;
                    }
                    EventKind::Pack { tag, bytes, .. } => {
                        let row = tags.entry(tag).or_insert((0, 0, 0));
                        row.1 += 1;
                        row.2 += *bytes as u64;
                    }
                    EventKind::HookEnter { hook, proto, detail, .. } => {
                        let label = if detail.is_empty() { hook.name() } else { *detail };
                        open.push((*hook, proto, label, e.t));
                    }
                    EventKind::HookExit { hook, .. } => {
                        // Ring overflow can orphan an exit; skip unmatched.
                        if let Some(pos) = open.iter().rposition(|(h, ..)| h == hook) {
                            let (_, proto, label, t0) = open.remove(pos);
                            let row = hooks.entry((proto, label)).or_insert((0, 0));
                            row.0 += 1;
                            row.1 += e.t.saturating_sub(t0);
                        }
                    }
                    EventKind::Switch { from, to, .. } => {
                        *switches.entry((from, to)).or_insert(0) += 1;
                    }
                    EventKind::Violation { .. } => violations += 1,
                    _ => {}
                }
            }
        }
        let mut hooks: Vec<HookRow> = hooks
            .into_iter()
            .map(|((proto, hook), (count, time_ns))| HookRow { proto, hook, count, time_ns })
            .collect();
        hooks.sort_by(|a, b| b.time_ns.cmp(&a.time_ns).then(a.hook.cmp(b.hook)));
        let mut tags: Vec<TagRow> = tags
            .into_iter()
            .map(|(tag, (msgs, logical, bytes))| TagRow { tag, msgs, logical, bytes })
            .collect();
        tags.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.tag.cmp(b.tag)));
        let mut switches: Vec<SwitchRow> =
            switches.into_iter().map(|((from, to), count)| SwitchRow { from, to, count }).collect();
        switches
            .sort_by(|a, b| b.count.cmp(&a.count).then(a.from.cmp(b.from)).then(a.to.cmp(b.to)));
        TraceSummary {
            hooks,
            tags,
            switches,
            events: self.event_count() as u64,
            dropped,
            fast_hits: 0,
            violations,
            parks: 0,
            park_timeouts: 0,
            bar_msgs: 0,
            bar_msgs_busiest: 0,
        }
    }

    /// Nodes whose trace ends inside a poll loop, with the hook and
    /// region they were stuck on — the wait-graph view that turns a
    /// wedged or crashed run into a diagnosis.
    pub fn wait_graph(&self) -> Vec<BlockedWait> {
        let mut out = Vec::new();
        for n in &self.nodes {
            let mut blocks: Vec<(&str, u64)> = Vec::new();
            let mut hooks: Vec<(&'static str, u64, &'static str)> = Vec::new();
            for e in &n.events {
                match &e.kind {
                    EventKind::Block { what } => blocks.push((what, e.t)),
                    EventKind::Unblock { what } => {
                        if let Some(pos) = blocks.iter().rposition(|(w, _)| *w == &**what) {
                            blocks.remove(pos);
                        }
                    }
                    EventKind::HookEnter { hook, region, proto, .. } => {
                        hooks.push((hook.name(), *region, proto));
                    }
                    EventKind::HookExit { .. } => {
                        hooks.pop();
                    }
                    _ => {}
                }
            }
            if let Some((what, since)) = blocks.last() {
                let inner = hooks.last();
                out.push(BlockedWait {
                    rank: n.rank,
                    what: what.to_string(),
                    since: *since,
                    hook: inner.map(|(h, _, _)| *h),
                    region: inner.and_then(|(_, r, _)| (*r != NO_REGION).then_some(*r)),
                    proto: inner.map(|(_, _, p)| *p),
                });
            }
        }
        out
    }

    /// Human-readable wait-graph dump (empty string when nothing is
    /// blocked at trace end).
    pub fn wait_graph_report(&self) -> String {
        let blocked = self.wait_graph();
        if blocked.is_empty() {
            return String::new();
        }
        let mut s = String::from("blocked at end of trace:\n");
        for b in &blocked {
            let _ = write!(s, "  node {:<3} waiting for: {} (since {} ns", b.rank, b.what, b.since);
            if let Some(h) = b.hook {
                let _ = write!(s, ", inside {}", h);
                if let Some(p) = b.proto {
                    let _ = write!(s, " of protocol {p}");
                }
                if let Some(r) = b.region {
                    let _ = write!(s, " on region r{}.{}", r >> 48, r & ((1 << 48) - 1));
                }
            }
            s.push_str(")\n");
        }
        s
    }
}

impl TraceSummary {
    /// Attach the run's fast-hit count (from `OpCounters`) so the render
    /// shows how many annotations the fast mask absorbed.
    pub fn with_fast_hits(mut self, hits: u64) -> Self {
        self.fast_hits = hits;
        self
    }

    /// Attach the run's park counts (from the machine's stats) so the
    /// render shows wake-ups next to the wire envelopes that caused them.
    pub fn with_parks(mut self, parks: u64, timeouts: u64) -> Self {
        self.parks = parks;
        self.park_timeouts = timeouts;
        self
    }

    /// Attach the run's barrier-message counts (from `OpCounters`) so the
    /// render shows what the barrier costs its busiest node.
    pub fn with_bar_msgs(mut self, total: u64, busiest: u64) -> Self {
        self.bar_msgs = total;
        self.bar_msgs_busiest = busiest;
        self
    }

    /// Render the summary as a fixed-width text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "trace: {} events ({} dropped)", self.events, self.dropped);
        if self.fast_hits > 0 {
            let _ = writeln!(s, "fast-path hits: {} (absorbed before dispatch)", self.fast_hits);
        }
        if self.violations > 0 {
            let _ = writeln!(s, "CONFORMANCE VIOLATIONS: {}", self.violations);
        }
        if !self.hooks.is_empty() {
            let _ =
                writeln!(s, "{:<16} {:<14} {:>10} {:>14}", "protocol", "hook", "count", "time(ns)");
            for r in &self.hooks {
                let _ =
                    writeln!(s, "{:<16} {:<14} {:>10} {:>14}", r.proto, r.hook, r.count, r.time_ns);
            }
        }
        if !self.switches.is_empty() {
            let _ = writeln!(s, "{:<16} {:<16} {:>10}", "switch from", "to", "count");
            for r in &self.switches {
                let _ = writeln!(s, "{:<16} {:<16} {:>10}", r.from, r.to, r.count);
            }
        }
        if !self.tags.is_empty() {
            let _ = writeln!(
                s,
                "{:<16} {:>10} {:>10} {:>14}",
                "message tag", "wire", "logical", "bytes"
            );
            let (mut wire, mut logical) = (0u64, 0u64);
            for r in &self.tags {
                let _ =
                    writeln!(s, "{:<16} {:>10} {:>10} {:>14}", r.tag, r.msgs, r.logical, r.bytes);
                wire += r.msgs;
                logical += r.logical;
            }
            let _ = writeln!(
                s,
                "messages: {logical} logical in {wire} wire envelopes{}",
                if logical > wire { " (coalesced)" } else { "" }
            );
        }
        if self.bar_msgs > 0 {
            let _ = writeln!(
                s,
                "barrier messages: {} sent + received over all nodes, {} on the busiest",
                self.bar_msgs, self.bar_msgs_busiest
            );
        }
        if self.parks > 0 {
            let _ = writeln!(
                s,
                "parks: {} blocking receives, {} ended by timeout",
                self.parks, self.park_timeouts
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind as K;

    fn ev(t: u64, kind: K) -> TraceEvent {
        TraceEvent { t, kind }
    }

    fn enter(hook: Hook, region: u64, proto: &'static str, detail: &'static str) -> K {
        K::HookEnter { hook, region, space: 0, proto, detail }
    }

    fn exit(hook: Hook, region: u64, proto: &'static str, detail: &'static str) -> K {
        K::HookExit { hook, region, space: 0, proto, detail }
    }

    #[test]
    fn merge_orders_by_time_then_rank() {
        let t = MachineTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    dropped: 0,
                    events: vec![ev(5, K::Block { what: "a".into() })],
                },
                NodeTrace {
                    rank: 1,
                    dropped: 0,
                    events: vec![
                        ev(2, K::Block { what: "b".into() }),
                        ev(5, K::Unblock { what: "b".into() }),
                    ],
                },
            ],
        };
        let order: Vec<(usize, u64)> = t.merged().iter().map(|(r, e)| (*r, e.t)).collect();
        assert_eq!(order, vec![(1, 2), (0, 5), (1, 5)]);
    }

    #[test]
    fn summary_counts_hooks_and_tags() {
        let t = MachineTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                dropped: 2,
                events: vec![
                    ev(0, enter(Hook::StartRead, 7, "sc", "")),
                    // Three logical sends buffered, then flushed as one
                    // wire envelope...
                    ev(2, K::Pack { dst: 1, tag: "proto", bytes: 12 }),
                    ev(4, K::Pack { dst: 1, tag: "proto", bytes: 12 }),
                    ev(6, K::Pack { dst: 1, tag: "proto", bytes: 12 }),
                    ev(10, K::Send { dst: 1, tag: "proto", bytes: 32, subs: 3 }),
                    ev(30, exit(Hook::StartRead, 7, "sc", "")),
                    ev(31, enter(Hook::Handle, 7, "sc", "RREQ")),
                    ev(40, exit(Hook::Handle, 7, "sc", "RREQ")),
                    // ...and one uncoalesced send (its Pack and Send pair
                    // at the same instant).
                    ev(41, K::Pack { dst: 1, tag: "proto", bytes: 8 }),
                    ev(41, K::Send { dst: 1, tag: "proto", bytes: 8, subs: 1 }),
                ],
            }],
        };
        let s = t.summary();
        assert_eq!(s.dropped, 2);
        assert_eq!(s.events, 10);
        let sr = s.hooks.iter().find(|r| r.hook == "start_read").unwrap();
        assert_eq!((sr.count, sr.time_ns, sr.proto), (1, 30, "sc"));
        let h = s.hooks.iter().find(|r| r.hook == "RREQ").unwrap();
        assert_eq!((h.count, h.time_ns), (1, 9));
        assert_eq!(s.tags, vec![TagRow { tag: "proto", msgs: 2, logical: 4, bytes: 44 }]);
        assert_eq!(t.send_count(), 2);
        assert_eq!(t.logical_send_count(), 4);
        let rendered = s.render();
        assert!(rendered.contains("RREQ"));
        assert!(rendered.contains("4 logical in 2 wire envelopes (coalesced)"), "{rendered}");
        assert!(!rendered.contains("parks:"), "no park line until counts are attached");
        assert!(!rendered.contains("barrier messages:"), "nor a barrier line");
        let rendered = s.with_parks(3, 0).with_bar_msgs(28, 14).render();
        assert!(rendered.contains("parks: 3 blocking receives, 0 ended by timeout"), "{rendered}");
        assert!(
            rendered
                .contains("barrier messages: 28 sent + received over all nodes, 14 on the busiest"),
            "{rendered}"
        );
    }

    #[test]
    fn summary_groups_switches_per_protocol_pair() {
        let sw = |from, to, epoch| K::Switch { region: NO_REGION, space: 1, from, to, epoch };
        let t = MachineTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    dropped: 0,
                    events: vec![
                        ev(10, sw("SC", "StaticUpdate", 1)),
                        ev(20, sw("StaticUpdate", "SC", 2)),
                        ev(30, sw("SC", "StaticUpdate", 3)),
                    ],
                },
                NodeTrace {
                    rank: 1,
                    dropped: 0,
                    events: vec![ev(12, sw("SC", "StaticUpdate", 1))],
                },
            ],
        };
        let s = t.summary();
        assert_eq!(
            s.switches,
            vec![
                SwitchRow { from: "SC", to: "StaticUpdate", count: 3 },
                SwitchRow { from: "StaticUpdate", to: "SC", count: 1 },
            ]
        );
        let rendered = s.render();
        assert!(rendered.contains("switch from"), "{rendered}");
        assert!(rendered.contains("StaticUpdate"), "{rendered}");
    }

    #[test]
    fn summary_counts_and_renders_violations() {
        let t = MachineTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                dropped: 0,
                events: vec![
                    ev(5, K::Violation { region: 7, what: "write outside a section".into() }),
                    ev(9, K::Violation { region: 7, what: "write outside a section".into() }),
                ],
            }],
        };
        let s = t.summary();
        assert_eq!(s.violations, 2);
        assert!(s.render().contains("CONFORMANCE VIOLATIONS: 2"), "{}", s.render());
        assert_eq!(MachineTrace::default().summary().violations, 0);
    }

    #[test]
    fn wait_graph_reports_open_blocks_with_context() {
        let t = MachineTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    dropped: 0,
                    events: vec![
                        ev(0, K::Block { what: "x".into() }),
                        ev(9, K::Unblock { what: "x".into() }),
                    ],
                },
                NodeTrace {
                    rank: 1,
                    dropped: 0,
                    events: vec![
                        ev(1, enter(Hook::StartWrite, (2u64 << 48) | 4, "mig", "")),
                        ev(3, K::Block { what: "write grant".into() }),
                    ],
                },
            ],
        };
        let w = t.wait_graph();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].rank, 1);
        assert_eq!(w[0].what, "write grant");
        assert_eq!(w[0].hook, Some("start_write"));
        assert_eq!(w[0].proto, Some("mig"));
        assert_eq!(w[0].region, Some((2u64 << 48) | 4));
        let report = t.wait_graph_report();
        assert!(report.contains("node 1"), "{report}");
        assert!(report.contains("r2.4"), "{report}");
        assert!(report.contains("start_write"), "{report}");
    }
}
