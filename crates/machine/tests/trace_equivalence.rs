//! Tracing must be a pure observer. Running the same deterministic
//! workload with tracing on and off has to produce bit-identical
//! simulation results — same simulated completion time, same operation
//! counters (wire envelopes included), same message and byte counts, same
//! verification value. Both runs are multiplexed, where a run repeats
//! exactly, so any difference is the trace perturbing the run. The only
//! permitted difference is the trace itself.
//!
//! The workload is EM3D (the paper's most communication-dense kernel)
//! under both its SC and static-update protocol assignments, with the
//! graph parameters drawn from seeds.

#![cfg(all(target_arch = "x86_64", unix))]

use ace_apps::em3d;
use ace_apps::runner::{launch_ace_with, RunOutcome};
use ace_apps::Variant;
use ace_core::{CostModel, ExecBackend, Spmd, TraceConfig};
use ace_machine::validate_chrome_trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_em3d(p: &em3d::Params, v: Variant, nprocs: usize, trace: TraceConfig) -> RunOutcome {
    let b = Spmd::builder()
        .nprocs(nprocs)
        .cost(CostModel::cm5())
        .backend(ExecBackend::Multiplexed)
        .trace(trace);
    let p = p.clone();
    launch_ace_with(b, move |d| em3d::run(d, &p, v))
}

fn assert_observationally_identical(off: &RunOutcome, on: &RunOutcome) {
    assert_eq!(off.verification, on.verification, "verification value");
    assert_eq!(off.msgs, on.msgs, "total logical message count");
    assert_eq!(off.bytes, on.bytes, "total payload bytes");
    assert_eq!(off.wire_msgs, on.wire_msgs, "wire envelopes");
    assert_eq!(off.sim_ns, on.sim_ns, "simulated completion time");
    assert_eq!(off.counters, on.counters, "operation counters");
    assert!(off.trace.is_none() && on.trace.is_some());
}

/// Seeds 64..70 (`ace-apps`' `fast_path_equivalence` lists every suite's
/// seeds for these EM3D inputs; no two share one).
#[test]
fn tracing_never_perturbs_em3d() {
    for seed in 64..70 {
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
        let off = run_em3d(&p, v, 4, TraceConfig::off());
        let on = run_em3d(&p, v, 4, TraceConfig::on());
        assert_observationally_identical(&off, &on);

        // And the trace the second run produced must itself be coherent:
        // message events match the machine's stats, per-node virtual time
        // is monotone, and the Chrome export validates.
        let trace = on.trace.as_ref().unwrap();
        assert_eq!(trace.send_count(), on.wire_msgs, "one Send event per wire envelope");
        assert_eq!(trace.logical_send_count(), on.msgs);
        for n in &trace.nodes {
            assert!(
                n.events.windows(2).all(|w| w[0].t <= w[1].t),
                "node {} timeline must be monotone",
                n.rank
            );
        }
        let check = validate_chrome_trace(&trace.to_chrome_json()).unwrap();
        assert_eq!(check.flow_starts as u64, on.wire_msgs, "one flow arrow per wire envelope");
        assert_eq!(check.flow_starts, check.flows_matched);
    }
}

#[test]
fn tracing_never_perturbs_em3d_default_scale() {
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
    let off = run_em3d(&p, Variant::Custom, 4, TraceConfig::off());
    let on = run_em3d(&p, Variant::Custom, 4, TraceConfig::on());
    assert_observationally_identical(&off, &on);
}
