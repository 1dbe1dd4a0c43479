//! The barrier's combining tree: it synchronises at every machine shape
//! (one level, a ragged last level, three levels), it gives the adaptive
//! engine the same aggregate a flat sum would, and no node handles more
//! than arity + 1 messages in either direction per passage.
//!
//! CI loops this file twenty times in release: forwarding a release
//! before recording it is an ordering a single debug run will not catch.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use ace_core::{
    run_ace_with, AceRt, CostModel, ExecBackend, MachineBuilder, ProtoMsg, Protocol, RegionEntry,
    Spmd,
};

/// The tree's arity, restated here as the specification under test.
const ARITY: usize = 8;

/// One-level trees, the first two-level one, full and ragged second
/// levels, and the first three-level ones.
const SIZES: [usize; 9] = [1, 2, 8, 9, 10, 64, 65, 73, 257];

struct Noop;

impl Protocol for Noop {
    fn name(&self) -> &'static str {
        "noop"
    }
    fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn handle(&self, _rt: &AceRt, _e: &RegionEntry, _msg: ProtoMsg, _src: usize) {}
    fn flush(&self, _rt: &AceRt, _e: &RegionEntry) {}
}

fn machines(n: usize) -> [MachineBuilder; 2] {
    let base = || Spmd::builder().nprocs(n).cost(CostModel::cm5());
    [ExecBackend::Threads, ExecBackend::Multiplexed].map(|b| base().backend(b))
}

/// Tree edges at `rank`: its children, plus its parent unless it is the
/// root. Each edge carries one arrival up and one release down per passage.
fn edges(rank: usize, n: usize) -> u64 {
    let children = (ARITY * rank + 1..=ARITY * rank + ARITY).filter(|&c| c < n).count();
    (children + usize::from(rank > 0)) as u64
}

#[test]
fn tree_barriers_synchronize_every_epoch_at_every_shape() {
    const EPOCHS: u64 = 50;
    for n in SIZES {
        for builder in machines(n) {
            // Host-side truth: the epoch each rank has entered.
            let entered: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let r = run_ace_with(builder, |rt| {
                let s = rt.new_space(Rc::new(Noop));
                for e in 1..=EPOCHS {
                    if rt.rank() % 2 == 1 {
                        rt.charge(10_000 * e);
                    }
                    entered[rt.rank()].store(e, Ordering::SeqCst);
                    if e % 2 == 0 {
                        rt.barrier(s);
                    } else {
                        rt.machine_barrier();
                    }
                    for (peer, at) in entered.iter().enumerate() {
                        let at = at.load(Ordering::SeqCst);
                        assert!(at >= e, "n={n}: left epoch {e} while rank {peer} was at {at}");
                    }
                }
                rt.node().now()
            });
            // `run_ace_with` returned, so `shutdown` completed on every rank;
            // a barrier also merges clocks, so the odd ranks' extra time is
            // everyone's by the end.
            assert_eq!(r.results.len(), n);
            if n > 1 {
                let charged: u64 = (1..=EPOCHS).map(|e| 10_000 * e).sum();
                assert!(r.results.iter().all(|&t| t >= charged), "n={n}: clocks did not merge");
            }
        }
    }
}

#[test]
fn tree_profile_sum_equals_the_flat_sum_on_every_node() {
    // 100 ranks (three levels, ragged), a strict subset staging, ragged
    // lengths, values that would expose a dropped or doubled subtree.
    const N: usize = 100;
    let contribution = |rank: usize| -> Option<Vec<u64>> {
        match rank % 3 {
            0 => None,
            1 => Some(vec![1, rank as u64, u64::MAX / 128 + rank as u64]),
            _ => Some(vec![1, (rank * rank) as u64]),
        }
    };
    let mut flat = vec![0u64; 3];
    for p in (0..N).filter_map(contribution) {
        for (s, v) in flat.iter_mut().zip(p) {
            *s += v;
        }
    }
    for builder in machines(N) {
        let r = run_ace_with(builder, |rt| {
            let s = rt.new_space(Rc::new(Noop));
            if let Some(p) = contribution(rt.rank()) {
                rt.stage_bar_profile(s, p);
            }
            rt.barrier(s);
            let agg = rt.take_bar_aggregate(s).expect("aggregate released").to_vec();
            rt.barrier(s);
            assert!(rt.take_bar_aggregate(s).is_none(), "unprofiled barrier");
            agg
        });
        for (rank, agg) in r.results.iter().enumerate() {
            assert_eq!(agg, &flat, "rank {rank} holds a different aggregate");
        }
    }
}

#[test]
fn tree_bounds_barrier_messages_per_node_and_totals_two_per_edge() {
    const PASSAGES: u64 = 10;
    for n in SIZES {
        let [builder, _] = machines(n);
        let r = run_ace_with(builder, |rt| {
            let s = rt.new_space(Rc::new(Noop));
            rt.machine_barrier();
            let c0 = rt.counters();
            for i in 0..PASSAGES {
                if i % 2 == 0 {
                    rt.barrier(s);
                } else {
                    rt.machine_barrier();
                }
            }
            let c1 = rt.counters();
            // Nothing but barriers ran in between, so every logical send
            // was a barrier message; the rest of `bar_msgs` are receives.
            let sent = c1.logical_msgs - c0.logical_msgs;
            (sent, c1.bar_msgs - c0.bar_msgs - sent)
        });
        let mut total = 0;
        for (rank, &(sent, received)) in r.results.iter().enumerate() {
            let per_passage = edges(rank, n);
            assert!(per_passage <= ARITY as u64 + 1);
            assert_eq!(sent, PASSAGES * per_passage, "n={n} rank {rank}: sent");
            assert_eq!(received, PASSAGES * per_passage, "n={n} rank {rank}: received");
            total += sent;
        }
        assert_eq!(total, PASSAGES * 2 * (n as u64 - 1), "n={n}: n-1 arrivals + n-1 releases");
    }
}
