//! Coalescing must be a pure transport optimization. Batching logical
//! sends into shared wire envelopes may change *when* messages depart and
//! how their cost is charged, but never *what* is delivered: the same
//! logical messages, in the same per-pair order, carrying the same
//! payloads. So running the same deterministic workload with coalescing
//! forced off and on has to agree on every logical observable — the
//! verification value, the per-node digest of every home region, the
//! logical message and byte counts (in total and per protocol tag), and
//! the annotation counters. Only the wire-envelope grouping (and with it
//! simulated time) may differ.
//!
//! As in `fast_path_equivalence`, EM3D and Water are bit-deterministic
//! end to end and get the strict comparison, including per-tag logical
//! counts read from a traced run. Water earns it through its fixed
//! (node, molecule-index) force reduction order (see `water::run`).
//!
//! The file ends with a liveness test: a machine with a coalescing
//! threshold far larger than the run's entire message count, so *every*
//! departure relies on a blocking point flushing the buffers. If any wait could block with
//! sends still buffered, this run would hang until the watchdog panics.

use ace_apps::runner::{observe, Axis, Observed};
use ace_apps::{em3d, water, AceDsm, Variant};
use ace_core::{AceMsg, CoalescePolicy, CostModel, MachineBuilder, OpCounters, Spmd, TraceConfig};
use ace_machine::MsgSize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn machine() -> MachineBuilder {
    Spmd::builder().nprocs(4).cost(CostModel::cm5())
}

/// A traced 4-node run of `f` under coalescing `policy`.
fn run_app<F>(policy: CoalescePolicy, f: F) -> Observed
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    observe(machine().trace(TraceConfig::on()).coalesce(policy), |_| {}, f)
}

/// The scheduling-independent invariants, valid for every workload.
fn assert_transport_accounting(off: &Observed, on: &Observed, ctx: &str) {
    let (off, on) = (&off.outcome, &on.outcome);
    assert_eq!(
        off.wire_msgs, off.msgs,
        "{ctx}: with coalescing off every logical send is its own envelope"
    );
    assert!(
        on.wire_msgs <= on.msgs,
        "{ctx}: coalescing can only merge envelopes (wire={} logical={})",
        on.wire_msgs,
        on.msgs
    );
    // Annotation counts are fixed by app control flow; the transport must
    // not change how often the runtime is asked to do anything.
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

/// Seeds 70..74 (`fast_path_equivalence` lists every suite's
/// seeds for these EM3D inputs; no two share one).
#[test]
fn em3d_coalescing_preserves_behavior() {
    for seed in 70..74 {
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
        let off = run_app(CoalescePolicy::Off, |d| em3d::run(d, &p, v));
        let on = run_app(AceMsg::COALESCE, |d| em3d::run(d, &p, v));
        off.assert_equivalent(&on, Axis::Wire, "em3d");
        assert_transport_accounting(&off, &on, "em3d");
    }
}

/// Seeds 64..68 (`fast_path_equivalence` lists every suite's
/// seeds for these Water inputs; no two share one).
#[test]
fn water_coalescing_preserves_behavior() {
    for seed in 64..68 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let p = water::Params {
            molecules: rng.gen_range(16..48),
            steps: 2,
            seed: rng.gen_range(0..1000),
        };
        let v = if rng.gen_bool(0.5) { Variant::Custom } else { Variant::Sc };
        eprintln!("seed {seed}: {p:?}, {v:?}");
        let off = run_app(CoalescePolicy::Off, |d| water::run(d, &p, v));
        let on = run_app(AceMsg::COALESCE, |d| water::run(d, &p, v));
        // Water's fixed (node, molecule) force reduction order makes it
        // bit-deterministic, so it earns the same strict comparison as
        // EM3D — digests, per-tag counts, and all.
        off.assert_equivalent(&on, Axis::Wire, "water");
        assert_transport_accounting(&off, &on, "water");
    }
}

#[test]
fn em3d_coalescing_reduces_wire_traffic_at_default_scale() {
    // One deterministic, larger configuration. The update-protocol
    // variant is the fan-out-heavy one: each end_write pushes a UPD per
    // cross-region sharer, and consecutive pushes to the same sharer
    // share envelopes.
    let p = em3d::Params {
        e_nodes: 120,
        h_nodes: 120,
        degree: 4,
        pct_remote: 25,
        steps: 6,
        seed: 42,
        hoist_maps: false,
    };
    let off = run_app(CoalescePolicy::Off, |d| em3d::run(d, &p, Variant::Custom));
    let on = run_app(AceMsg::COALESCE, |d| em3d::run(d, &p, Variant::Custom));
    off.assert_equivalent(&on, Axis::Wire, "em3d custom default scale");
    assert_transport_accounting(&off, &on, "em3d custom default scale");
    assert!(
        on.outcome.wire_msgs < on.outcome.msgs,
        "EM3D update pushes should coalesce: {} wire vs {} logical",
        on.outcome.wire_msgs,
        on.outcome.msgs
    );
}

#[test]
fn coalescing_cannot_deadlock_even_with_an_unreachable_threshold() {
    // Threshold(1 << 30) means no send ever flushes on its own — every
    // departure in the whole run happens because a blocking point or an
    // emptied inbox flushed the buffers. A missing flush anywhere
    // deadlocks the machine and trips the watchdog.
    let p = em3d::Params {
        e_nodes: 30,
        h_nodes: 30,
        degree: 3,
        pct_remote: 30,
        steps: 2,
        seed: 7,
        hoist_maps: false,
    };
    for policy in [CoalescePolicy::Threshold(1 << 30), CoalescePolicy::FlushOnWait] {
        for variant in [Variant::Sc, Variant::Custom] {
            let r = observe(machine().coalesce(policy), |_| {}, |d| em3d::run(d, &p, variant));
            assert!(r.outcome.verification.is_finite(), "{policy:?}/{variant:?} produced a result");
        }
    }
}
