//! Operation counters: how often each runtime primitive executed.
//!
//! These drive the compiler evaluation (Table 4 reports the effect of
//! removing/merging protocol calls) and the protocol comparisons.

/// Per-node counts of runtime primitive invocations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpCounters {
    /// `map` calls that found a local entry.
    pub map_hits: u64,
    /// `map` calls that had to fetch metadata from home.
    pub map_misses: u64,
    /// `unmap` calls.
    pub unmaps: u64,
    /// `start_read` calls.
    pub start_reads: u64,
    /// `start_read` calls that required communication.
    pub read_misses: u64,
    /// `start_write` calls.
    pub start_writes: u64,
    /// `start_write` calls that required communication.
    pub write_misses: u64,
    /// `end_read` + `end_write` calls.
    pub ends: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Lock acquisitions.
    pub locks: u64,
    /// Protocol messages handled on this node.
    pub proto_msgs: u64,
    /// Calls dispatched through a space (indirect protocol dispatch).
    pub dispatched: u64,
    /// Calls made directly to a known protocol (compiler direct dispatch,
    /// or a fixed-protocol runtime).
    pub direct: u64,
    /// Access annotations absorbed by the per-region fast mask: the hook
    /// was a state-preserving no-op in the current region state, so the
    /// runtime skipped dispatch (and span construction) entirely.
    pub fast_hits: u64,
    /// `map` calls absorbed by the fast mask: `on_map` was a no-op in the
    /// region's state, so the runtime did its own part (lookup, map count,
    /// `map_hits`) and resolved no protocol. (An `unmap` never resolves
    /// one.) Kept apart from `fast_hits`, whose ratio
    /// ([`OpCounters::fast_hit_rate`]) is over access annotations.
    pub fast_maps: u64,
    /// Region lookups that found an entry. (The name is from when a
    /// direct-mapped cache sat in front of a hash table; the runtime's
    /// region table is indexed by id, so the table is the cache.)
    pub region_cache_hits: u64,
    /// Region lookups that found none: an id this node holds no entry for.
    pub region_cache_misses: u64,
    /// Logical messages this node sent (one per `send` call), folded in
    /// from the substrate's [`ace_machine::NodeStats`] by `AceRt::counters`.
    pub logical_msgs: u64,
    /// Wire envelopes this node sent; `<= logical_msgs`, with the gap
    /// being the sends that coalescing batched into shared envelopes.
    pub wire_msgs: u64,
    /// Protocol switches this node committed: `change_protocol` calls plus
    /// adaptive-engine flush-point switches (each also bumps the node's
    /// wire-visible switch epoch).
    pub switches: u64,
    /// Barrier messages (`BarArrive` + `BarRelease`) this node sent or
    /// received, over every barrier it passed — space and machine barriers
    /// alike, each message attributed to the passage it belongs to. Per
    /// passage this is the node's remote-reference count: the combining
    /// tree bounds it by twice its arity plus two on any node, where a
    /// centralised barrier costs its coordinator `2(n - 1)`. Summed over
    /// the machine, each message is counted once at either end.
    pub bar_msgs: u64,
}

impl OpCounters {
    /// Total annotation-style calls (maps + starts + ends + unmaps), the
    /// quantity the paper's compiler optimizations reduce.
    pub fn total_annotations(&self) -> u64 {
        self.map_hits
            + self.map_misses
            + self.unmaps
            + self.start_reads
            + self.start_writes
            + self.ends
    }

    /// Element-wise sum, for machine-wide aggregation.
    pub fn merge(&mut self, o: &OpCounters) {
        self.map_hits += o.map_hits;
        self.map_misses += o.map_misses;
        self.unmaps += o.unmaps;
        self.start_reads += o.start_reads;
        self.read_misses += o.read_misses;
        self.start_writes += o.start_writes;
        self.write_misses += o.write_misses;
        self.ends += o.ends;
        self.barriers += o.barriers;
        self.locks += o.locks;
        self.proto_msgs += o.proto_msgs;
        self.dispatched += o.dispatched;
        self.direct += o.direct;
        self.fast_hits += o.fast_hits;
        self.fast_maps += o.fast_maps;
        self.region_cache_hits += o.region_cache_hits;
        self.region_cache_misses += o.region_cache_misses;
        self.logical_msgs += o.logical_msgs;
        self.wire_msgs += o.wire_msgs;
        self.switches += o.switches;
        self.bar_msgs += o.bar_msgs;
    }

    /// Fraction of region lookups that found an entry, or `None` before
    /// any lookup ran. Under 1 by the first `map` of each remote region (and
    /// the wait for its metadata), and by lookups of ids never stored.
    pub fn region_cache_hit_rate(&self) -> Option<f64> {
        let total = self.region_cache_hits + self.region_cache_misses;
        (total > 0).then(|| self.region_cache_hits as f64 / total as f64)
    }

    /// Fraction of access annotations absorbed by the per-region fast
    /// mask (fast hits over fast + dispatched + direct calls), or `None`
    /// before any annotation ran.
    pub fn fast_hit_rate(&self) -> Option<f64> {
        let total = self.fast_hits + self.dispatched + self.direct;
        (total > 0).then(|| self.fast_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = OpCounters { map_hits: 1, start_reads: 2, ..Default::default() };
        let b = OpCounters { map_hits: 10, ends: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.map_hits, 11);
        assert_eq!(a.start_reads, 2);
        assert_eq!(a.ends, 5);
    }

    #[test]
    fn annotation_total() {
        let c = OpCounters {
            map_hits: 1,
            map_misses: 2,
            unmaps: 3,
            start_reads: 4,
            start_writes: 5,
            ends: 6,
            barriers: 99,
            ..Default::default()
        };
        assert_eq!(c.total_annotations(), 21);
    }
}
