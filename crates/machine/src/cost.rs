//! The simulated-time cost model.
//!
//! All costs are in nanoseconds of virtual time. The defaults are flavoured
//! after the paper's platform — a CM-5 node (33 MHz SPARC, ~30 ns/cycle)
//! with CMAML Active Messages (several-microsecond one-way latency,
//! ~10 MB/s bulk bandwidth) — and after the per-operation latencies
//! published for CRL 1.0 on the CM-5. Absolute values only set the
//! communication/computation ratio; the experiments report *relative*
//! behaviour (who wins and by how much), which is insensitive to modest
//! changes in these constants. `ace-bench` includes an ablation that sweeps
//! the latency to demonstrate this.

/// Virtual-time costs charged by the runtimes, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// One-way network latency per active message.
    pub msg_latency: u64,
    /// Per-byte cost of message payloads (inverse bandwidth).
    pub per_byte: u64,
    /// CPU cost of injecting a message (send-side overhead).
    pub send_overhead: u64,
    /// CPU cost of receiving and dispatching a message to its handler.
    pub recv_overhead: u64,
    /// One region-table hash lookup (Ace's mapping technique).
    pub map_lookup: u64,
    /// Protocol dispatch through a space: region→space lookup plus an
    /// indirect call through the protocol table (the indirection the paper
    /// says "nullifies" Ace's other gains on coarse-grained BSC).
    pub dispatch: u64,
    /// A direct (monomorphic) protocol call, after the compiler's
    /// direct-dispatch optimization or in a fixed-protocol runtime like CRL.
    pub direct_call: u64,
    /// An access annotation absorbed by the per-region fast mask: a couple
    /// of loads and a branch, the analogue of CRL's in-cache fast path
    /// (Johnson et al., SOSP 1995). Sits well below `direct_call`, giving
    /// Table 4 its fourth rung (Removed < Fast < Direct < Dispatch).
    pub fast_path: u64,
    /// Base CPU cost of executing one protocol state-machine action.
    pub proto_action: u64,
    /// One double-precision floating-point operation (33 MHz SPARC, ~4
    /// cycles per FLOP).
    pub flop: u64,
    /// One local memory access issued by application code.
    pub mem: u64,
    /// CPU cost of adding one sub-message to a wire envelope that has a
    /// head (a bounds check, a length update, a pointer store), and of
    /// taking it out at the receiver: k−1 times at each end of a k-part
    /// envelope, whose head rides `send_overhead` / `recv_overhead` under
    /// every [`crate::CoalescePolicy`]. The batch pays `msg_latency`,
    /// `send_overhead` and header bytes once per *wire* envelope.
    pub pack_cost: u64,
    /// Extra CPU cost CRL pays per map for its unmapped-region cache scan
    /// and second-level table probe (CRL 1.0's mapping design; the paper
    /// credits Ace's speedups on fine-grained apps to a leaner scheme).
    pub crl_map_extra: u64,
}

impl CostModel {
    /// CM-5-flavoured defaults (see module docs).
    pub fn cm5() -> Self {
        CostModel {
            msg_latency: 12_000,
            per_byte: 100,
            send_overhead: 3_000,
            recv_overhead: 3_000,
            map_lookup: 700,
            dispatch: 500,
            direct_call: 150,
            fast_path: 60,
            proto_action: 1_500,
            flop: 120,
            mem: 60,
            pack_cost: 300,
            crl_map_extra: 1_800,
        }
    }

    /// A zero-cost model: simulated time degenerates to message causality
    /// only. Useful in unit tests that assert on counts, not times.
    pub fn free() -> Self {
        CostModel {
            msg_latency: 0,
            per_byte: 0,
            send_overhead: 0,
            recv_overhead: 0,
            map_lookup: 0,
            dispatch: 0,
            direct_call: 0,
            fast_path: 0,
            proto_action: 0,
            flop: 0,
            mem: 0,
            pack_cost: 0,
            crl_map_extra: 0,
        }
    }

    /// A model with `scale`× the default network latency and bandwidth cost,
    /// keeping CPU costs fixed. Used by the latency-sweep ablation.
    pub fn cm5_net_scaled(scale: u64) -> Self {
        let mut c = Self::cm5();
        c.msg_latency *= scale;
        c.per_byte *= scale;
        c
    }

    /// Total network charge for a message carrying `bytes` of payload.
    pub fn wire_time(&self, bytes: usize) -> u64 {
        self.msg_latency + self.per_byte * bytes as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::cm5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_includes_latency_and_bandwidth() {
        let c = CostModel::cm5();
        assert_eq!(c.wire_time(0), c.msg_latency);
        assert_eq!(c.wire_time(100), c.msg_latency + 100 * c.per_byte);
    }

    #[test]
    fn free_model_is_all_zero() {
        let c = CostModel::free();
        assert_eq!(c.wire_time(1 << 20), 0);
        assert_eq!(c.dispatch + c.direct_call + c.fast_path + c.flop + c.mem, 0);
    }

    #[test]
    fn cost_ladder_orders_the_table4_rungs() {
        // Removed (0) < Fast < Direct < Dispatch.
        let c = CostModel::cm5();
        assert!(c.fast_path > 0);
        assert!(c.fast_path < c.direct_call);
        assert!(c.direct_call < c.dispatch);
    }

    #[test]
    fn packing_is_cheaper_than_sending() {
        // Coalescing only pays off if appending a sub-message costs less
        // than injecting a fresh wire message.
        let c = CostModel::cm5();
        assert!(c.pack_cost > 0);
        assert!(c.pack_cost < c.send_overhead);
        assert!(c.pack_cost < c.msg_latency);
    }

    #[test]
    fn net_scaling_leaves_cpu_costs_alone() {
        let base = CostModel::cm5();
        let scaled = CostModel::cm5_net_scaled(4);
        assert_eq!(scaled.msg_latency, 4 * base.msg_latency);
        assert_eq!(scaled.per_byte, 4 * base.per_byte);
        assert_eq!(scaled.dispatch, base.dispatch);
        assert_eq!(scaled.flop, base.flop);
    }
}
