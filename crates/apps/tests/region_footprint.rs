//! What the runtime's region entries cost, as a test of its own so that
//! the process's peak memory is this one run's.
//!
//! The input is the repo benchmark's `barnes_map` at its scale: 1 024
//! bodies on 8 ranks under the custom protocols, checked under
//! `CheckMode::Fail` as the benchmark's gate rep is. Every node keeps an
//! entry per region it has mapped, about 16 000 here, most of them node
//! 0's pooled tree cells. An entry that held its parked-request queue, twin
//! and default lock inline and zero-filled a private buffer took 224
//! bytes plus its data, and the run peaked at about 12.8 MiB in release.
//! One that keeps that state in a box allocated on first use and aliases
//! its node's zero buffer until its first write takes 104 bytes, and the
//! run peaks at about 10.2 MiB.

use ace_apps::runner::launch_ace_with;
use ace_apps::{barnes, Variant};
use ace_core::{CheckMode, CostModel, ExecBackend, Spmd};

/// The bound on this process's peak RSS, MiB: it runs in both profiles,
/// and a debug build's code and stacks are larger.
const PEAK_MIB: f64 = if cfg!(debug_assertions) { 12.7 } else { 11.8 };

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
fn checked_barnes_at_benchmark_scale_stays_small() {
    let p = barnes::Params { bodies: 1024, steps: 2, theta: 1.0, seed: 8 };
    let machine = Spmd::builder()
        .nprocs(8)
        .cost(CostModel::cm5())
        .backend(ExecBackend::Multiplexed)
        .check(CheckMode::Fail);
    let r = launch_ace_with(machine, |d| barnes::run(d, &p, Variant::Custom));
    assert_eq!(r.violations, 0);
    if let Some(mib) = peak_rss_mib() {
        println!("peak RSS {mib:.2} MiB");
        assert!(mib <= PEAK_MIB, "a checked Barnes run peaked at {mib:.2} MiB, over {PEAK_MIB}");
    }
}
