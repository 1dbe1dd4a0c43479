//! The fast mask must be a pure accelerator. A set bit promises the
//! skipped hook was a state-preserving no-op, so running the same
//! deterministic workload with the fast paths forced off and on has to
//! produce bit-identical behavior — same verification value, same
//! message and byte counts, same annotation counters, and the same
//! per-node digest of every home region's contents. The only permitted
//! differences are the fast-hit/dispatch counter split, the count of
//! maps that ran no hook, and simulated time, which may only
//! shrink (each absorbed annotation charges `fast_path` instead of a full
//! dispatch; a `map` charges `map_lookup` on either path).
//!
//! The workloads are EM3D (the paper's most communication-dense kernel)
//! and Water (both its null-protocol intra-molecular and pipelined
//! inter-molecular phases), with parameters drawn from seeds.
//!
//! Both are bit-deterministic end to end and get the strict comparison.
//! Water earns it through its fixed (node, molecule-index) force
//! reduction order: contributions are buffered locally and applied in
//! barrier-separated node turns, so arrival order never perturbs the
//! f64 sums (see `water::run`).
//!
//! The machines are multiplexed: one executor thread runs the nodes in an
//! order the program alone decides, and the two runs of a pair interleave
//! identically (the mask changes what an annotation costs, never whether
//! a node blocks). So every comparison here — the wire-envelope grouping
//! and "may only shrink" included — is exact, on one sample per side.

use ace_apps::runner::{observe, Axis, Observed};
use ace_apps::{em3d, water, AceDsm, Variant};
use ace_core::{CostModel, ExecBackend, OpCounters, Spmd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 4-node run of `f` with the fast paths forced off or on.
fn run_app<F>(fast: bool, f: F) -> Observed
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    let machine =
        Spmd::builder().nprocs(4).cost(CostModel::cm5()).backend(ExecBackend::Multiplexed);
    observe(machine, |rt| rt.set_fast_paths(fast), f)
}

/// The scheduling-independent invariants, valid for every workload.
fn assert_fast_accounting(off: &Observed, on: &Observed, ctx: &str) {
    let (off, on) = (&off.outcome, &on.outcome);
    assert_eq!(off.counters.fast_hits, 0, "{ctx}: escape hatch really off");
    assert!(on.counters.fast_hits > 0, "{ctx}: workload should exercise the fast path");
    // Likewise for `map`, so the equivalence covers its fast path on every
    // workload here, not vacuously.
    assert_eq!(off.counters.fast_maps, 0, "{ctx}: escape hatch covers map");
    assert!(on.counters.fast_maps > 0, "{ctx}: workload should map through the fast path");
    assert_eq!(
        off.counters.dispatched + off.counters.direct,
        on.counters.dispatched + on.counters.direct + on.counters.fast_hits,
        "{ctx}: every absorbed annotation was a would-be dispatch"
    );
    // Annotation counts are fixed by app control flow regardless of
    // scheduling; the mask must not change how often hooks are *named*,
    // only how they are charged.
    for (name, get) in [
        ("start_reads", (|c: &OpCounters| c.start_reads) as fn(&OpCounters) -> u64),
        ("start_writes", |c| c.start_writes),
        ("ends", |c| c.ends),
        ("unmaps", |c| c.unmaps),
        ("barriers", |c| c.barriers),
        ("locks", |c| c.locks),
    ] {
        assert_eq!(get(&off.counters), get(&on.counters), "{ctx}: {name}");
    }
}

/// Full bit-equivalence, for workloads that are deterministic end to end:
/// runs the workload with the fast paths off and on (`run(fast)`) and
/// returns the fast run's observations.
fn assert_equivalent(ctx: &str, run: impl Fn(bool) -> Observed) -> Observed {
    let (slow, fast) = (run(false), run(true));
    slow.assert_equivalent(&fast, Axis::FastPath, ctx);
    assert_fast_accounting(&slow, &fast, ctx);
    // Skipped hooks only ever remove locally-charged cost.
    let (off, on) = (slow.outcome.sim_ns, fast.outcome.sim_ns);
    assert!(on <= off, "{ctx}: fast paths slowed the run (on={on} off={off})");
    fast
}

/// Seeds 0..64. Five properties draw these EM3D inputs, each from seeds of
/// its own, so no two replay an input: this one, `trace_equivalence`
/// 64..70, `coalescing_equivalence` 70..74, `backend_equivalence` 74..78
/// and `adaptive` 78..81.
#[test]
fn em3d_fast_paths_preserve_behavior() {
    for seed in 0..64 {
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
        assert_equivalent("em3d", |fast| run_app(fast, |d| em3d::run(d, &p, v)));
    }
}

/// Seeds 0..64. Three properties draw these Water inputs, each from seeds
/// of its own: this one, `coalescing_equivalence` 64..68 and
/// `backend_equivalence` 68..72.
#[test]
fn water_fast_paths_preserve_behavior() {
    for seed in 0..64 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let p = water::Params {
            molecules: rng.gen_range(16..48),
            steps: 2,
            seed: rng.gen_range(0..1000),
        };
        let v = if rng.gen_bool(0.5) { Variant::Custom } else { Variant::Sc };
        eprintln!("seed {seed}: {p:?}, {v:?}");
        // Water's fixed (node, molecule) force reduction order makes it
        // bit-deterministic, so it earns the same strict comparison as
        // EM3D — digests and all.
        assert_equivalent("water", |fast| run_app(fast, |d| water::run(d, &p, v)));
    }
}

#[test]
fn em3d_fast_paths_preserve_behavior_default_scale() {
    // One deterministic, larger configuration.
    let p = em3d::Params {
        e_nodes: 120,
        h_nodes: 120,
        degree: 4,
        pct_remote: 25,
        steps: 6,
        seed: 42,
        hoist_maps: false,
    };
    let on = assert_equivalent("em3d default scale", |fast| {
        run_app(fast, |d| em3d::run(d, &p, Variant::Sc))
    });
    // The acceptance bar for the tentpole: the mask absorbs the bulk of
    // the EM3D SC annotation stream.
    let rate = on.outcome.counters.fast_hit_rate().expect("annotations ran");
    assert!(rate > 0.8, "EM3D SC fast-hit rate should exceed 80%: {rate:.3}");
}
