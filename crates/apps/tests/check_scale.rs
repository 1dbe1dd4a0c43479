//! What a checked run costs at scale, as a test of its own so that the
//! process's peak memory is this one run's.
//!
//! The input is the repo benchmark's `em3d_wide`: 256 ranks as fibers on
//! one executor thread, maps hoisted, every section recorded (SC grants no
//! overlap). A record that carried two dense clocks took 517 words here
//! and the run peaked at 726 MiB; a record holds what the verdict reads,
//! and that is a few dozen words wherever a node hears from a few
//! neighbours between barriers. A record whose open clock equals the one
//! stored before it stores no pairs: 23.6 words a record while each
//! stored its own, 15.5 since. Records ride each barrier arrival to
//! node 0, which scans and drops them, so the run holds one passage of
//! history: it peaked at 21.9 MiB while every node kept its records until
//! a shutdown gather, and at about 10 MiB in release since. A node holds
//! coalescing buffers only for the destinations it has parts pending for,
//! and its vector clock is its own envelope stamp: that took the release
//! peak from 10.1 to about 8.2 MiB (debug 13.6 → 11.8), when every node
//! held an empty buffer per rank and a second copy of its clock.

use ace_apps::runner::launch_ace_with;
use ace_apps::{em3d, Variant};
use ace_core::{CheckMode, CostModel, ExecBackend, Spmd};

/// The bound on this process's peak RSS, MiB: it runs in both profiles,
/// and a debug build's code and stacks are larger.
const PEAK_MIB: f64 = if cfg!(debug_assertions) { 13.0 } else { 9.5 };

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
fn checked_em3d_at_256_ranks_stays_small() {
    let p = em3d::Params {
        e_nodes: 512,
        h_nodes: 512,
        degree: 3,
        pct_remote: 20,
        steps: 10,
        seed: 8,
        hoist_maps: true,
    };
    let machine = Spmd::builder()
        .nprocs(256)
        .cost(CostModel::cm5())
        .backend(ExecBackend::Multiplexed)
        .check(CheckMode::Fail);
    let r = launch_ace_with(machine, |d| em3d::run(d, &p, Variant::Sc));
    assert_eq!(r.violations, 0);
    assert!(r.check_records > 10_000, "SC records every section: {}", r.check_records);
    let mean = r.check_words as f64 / r.check_records as f64;
    println!("{} records in {} words: {mean:.1} words per record", r.check_records, r.check_words);
    assert!(mean <= 20.0, "a record's size must not follow the machine's: {mean:.1} words");
    if let Some(mib) = peak_rss_mib() {
        println!("peak RSS {mib:.1} MiB");
        assert!(mib <= PEAK_MIB, "a checked 256-rank run peaked at {mib:.1} MiB, over {PEAK_MIB}");
    }
}
