//! What the region table costs at the largest machine, as a test of its
//! own so that the process's peak memory is this one run's.
//!
//! 4096 ranks through two scheduler slots. Every rank allocates one
//! region, then maps its right neighbour's and rank 4095's: the second map
//! is the table's worst case, because it makes every node's outer level as
//! long as the machine. One machine barrier, then `run_ace_with`'s shutdown.

use std::rc::Rc;

use ace_core::{
    run_ace_with, AceRt, CostModel, ExecBackend, ProtoMsg, Protocol, RegionEntry, RegionId, Spmd,
};

const RANKS: usize = 4096;

/// `VmHWM` of this test at the parent commit (a SipHash map of regions
/// behind a 128-slot direct-mapped cache per node), MiB: 79.8–80.2 over
/// five release runs, 114.0–114.6 over three debug runs (`cargo test
/// --workspace` builds this file in debug). With the table: 83.5–83.9 and
/// 118.1–118.6. With one row pointer per home in place of the pages:
/// 275.8–276.7 in release.
const PARENT_PEAK_MIB: f64 = if cfg!(debug_assertions) { 114.5 } else { 79.9 };

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

/// Peak resident set of this process in MiB (`VmHWM`), where the kernel
/// reports one.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[test]
fn region_table_at_4096_ranks_stays_small() {
    let machine =
        Spmd::builder().nprocs(RANKS).cost(CostModel::cm5()).backend(ExecBackend::Multiplexed);
    let r = run_ace_with(machine, |rt| {
        let s = rt.new_space(Rc::new(Noop));
        let mine = rt.gmalloc::<u64>(s, 1);
        assert_eq!(mine, RegionId::new(rt.rank(), 0), "ids are (home, per-home counter)");
        // Every rank has allocated before any rank asks another for metadata.
        rt.machine_barrier();
        let (right, last) = ((rt.rank() + 1) % RANKS, RANKS - 1);
        rt.map(RegionId::new(right, 0));
        rt.map(RegionId::new(last, 0));
        rt.counters().map_misses
    });
    // One metadata fetch per remote home: the neighbour and, unless that is
    // the neighbour or this rank itself, rank 4095 (ranks 4094 and 4095 fetch one).
    let misses: u64 = r.results.iter().sum();
    assert_eq!(misses, 2 * RANKS as u64 - 2);
    if let Some(mib) = peak_rss_mib() {
        println!("peak RSS {mib:.1} MiB (parent {PARENT_PEAK_MIB:.1})");
        assert!(
            mib <= PARENT_PEAK_MIB * 1.10,
            "a 4096-rank run peaked at {mib:.1} MiB, over 110 % of the parent's {PARENT_PEAK_MIB:.1}"
        );
    }
}
