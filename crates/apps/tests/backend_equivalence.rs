//! The execution backend must be invisible to the program. Whether each
//! simulated node free-runs on its own OS thread (`ExecBackend::Threads`)
//! or is a fiber run by one executor on one thread
//! (`ExecBackend::Multiplexed`), the machine executes the same logical
//! computation: the executor only changes *when* a node is allowed to
//! run, never what it computes or sends. So the same
//! deterministic workload under both backends has to agree on every
//! logical observable — the verification value, the per-node digest of
//! every home region, the logical message/byte counts (total and per
//! protocol tag), the annotation counters, and the conformance checker's
//! verdict.
//!
//! As in `coalescing_equivalence`, EM3D and Water are bit-deterministic
//! end to end and get the strict comparison on every *logical*
//! observable. The wire-envelope grouping is excluded for the same
//! reason it is there: how many protocol replies batch up between two
//! blocking points depends on arrival timing, which OS scheduling
//! perturbs on the `Threads` side. Wire count stays bounded by the
//! logical count on both sides; its exact value there is wall-clock
//! jitter.
//!
//! The file ends with the scale checks the tentpole demands: EM3D runs to
//! completion at 1024 simulated nodes under the multiplexed backend, and
//! sixteen nodes on the one executor thread still make progress through
//! barrier-heavy phases.

use ace_apps::runner::{observe, Axis, Observed};
use ace_apps::{em3d, water, AceDsm, Variant};
use ace_core::{CheckMode, CostModel, ExecBackend, MachineBuilder, Spmd, TraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A traced, checked run of `f` under `backend`.
fn run_app<F>(backend: ExecBackend, nprocs: usize, f: F) -> Observed
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    observe(machine(nprocs).backend(backend), |_| {}, f)
}

fn machine(nprocs: usize) -> MachineBuilder {
    Spmd::builder()
        .nprocs(nprocs)
        .cost(CostModel::cm5())
        .trace(TraceConfig::on())
        .check(CheckMode::Log)
}

/// Seeds 74..78 (`fast_path_equivalence` lists every suite's
/// seeds for these EM3D inputs; no two share one).
#[test]
fn em3d_backend_preserves_behavior() {
    for seed in 74..78 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let p = em3d::Params {
            e_nodes: 40,
            h_nodes: 40,
            degree: 3,
            pct_remote: rng.gen_range(5..50),
            steps: rng.gen_range(1..4),
            seed: rng.gen_range(0..1000),
            hoist_maps: false,
        };
        let v = if rng.gen_bool(0.5) { Variant::Custom } else { Variant::Sc };
        eprintln!("seed {seed}: {p:?}, {v:?}");
        let th = run_app(ExecBackend::Threads, 4, |d| em3d::run(d, &p, v));
        let mx = run_app(ExecBackend::Multiplexed, 4, |d| em3d::run(d, &p, v));
        th.assert_equivalent(&mx, Axis::Wire, "em3d");
    }
}

/// Seeds 68..72 (`fast_path_equivalence` lists every suite's
/// seeds for these Water inputs; no two share one).
#[test]
fn water_backend_preserves_behavior() {
    for seed in 68..72 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let p = water::Params {
            molecules: rng.gen_range(16..48),
            steps: 2,
            seed: rng.gen_range(0..1000),
        };
        let v = if rng.gen_bool(0.5) { Variant::Custom } else { Variant::Sc };
        eprintln!("seed {seed}: {p:?}, {v:?}");
        let th = run_app(ExecBackend::Threads, 4, |d| water::run(d, &p, v));
        let mx = run_app(ExecBackend::Multiplexed, 4, |d| water::run(d, &p, v));
        th.assert_equivalent(&mx, Axis::Wire, "water");
    }
}

#[test]
fn em3d_backends_agree_at_64_nodes() {
    // The upper end of the equivalence sweep: 64 ranks is the last
    // machine size where the sharer sets stay in the single-word fast
    // path, and 64 OS threads comfortably oversubscribe the host.
    let p = em3d::Params {
        e_nodes: 128,
        h_nodes: 128,
        degree: 3,
        pct_remote: 25,
        steps: 2,
        seed: 11,
        hoist_maps: true,
    };
    let th = run_app(ExecBackend::Threads, 64, |d| em3d::run(d, &p, Variant::Custom));
    let mx = run_app(ExecBackend::Multiplexed, 64, |d| em3d::run(d, &p, Variant::Custom));
    th.assert_equivalent(&mx, Axis::Wire, "em3d @ 64");
}

#[test]
fn water_backends_agree_on_one_thread_for_sixteen_nodes() {
    // One executor thread for sixteen nodes: every barrier is fifteen
    // suspensions. Taking turns may slow the run but must not change it.
    let p = water::Params { molecules: 32, steps: 2, seed: 5 };
    let th = run_app(ExecBackend::Threads, 16, |d| water::run(d, &p, Variant::Custom));
    let starved = observe(
        machine(16).backend(ExecBackend::Multiplexed),
        |_| {},
        |d| water::run(d, &p, Variant::Custom),
    );
    let (t, m) = (&th.outcome, &starved.outcome);
    assert_eq!(t.verification.to_bits(), m.verification.to_bits(), "starved: verification");
    assert_eq!(th.digests, starved.digests, "starved: digests");
    assert_eq!(t.msgs, m.msgs, "starved: logical messages");
    assert_eq!(t.violations, m.violations, "starved: conformance report");
}

#[test]
fn em3d_completes_at_1024_nodes_multiplexed() {
    // The acceptance bar for the scale-out engine: a 1024-node machine
    // constructs, runs EM3D to a finite verification value, and tears
    // down, all on one thread of a default dev box. The workload is
    // deliberately thin per node — the test is about the machine, and the
    // graph keeps one E and one H node per rank so every rank still
    // participates in the remote-edge exchange.
    let p = em3d::Params {
        e_nodes: 1024,
        h_nodes: 1024,
        degree: 2,
        pct_remote: 20,
        steps: 1,
        seed: 3,
        hoist_maps: true,
    };
    let builder =
        Spmd::builder().nprocs(1024).cost(CostModel::cm5()).backend(ExecBackend::Multiplexed);
    let r = observe(builder, |_| {}, |d| em3d::run(d, &p, Variant::Sc));
    assert_eq!(r.digests.len(), 1024);
    assert!(r.outcome.verification.is_finite(), "em3d @ 1024 lost its verification value");
    assert!(r.outcome.wire_msgs <= r.outcome.msgs, "coalescing can only merge envelopes");
}
