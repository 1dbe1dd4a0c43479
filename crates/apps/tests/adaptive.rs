//! The adaptive engine against the real workloads.
//!
//! Three claims, each load-bearing for trusting adaptive numbers:
//!
//! 1. **Pinned equivalence** — an engine pinned to one candidate is
//!    *bit-identical* to the static protocol it names: same verification
//!    value, same per-node data digests, same logical message count, same
//!    operation counters. Anything the engine adds (sampling, profile
//!    piggyback, decision logic) must cost exactly nothing when there is
//!    nothing to decide.
//! 2. **Free-running safety** — the engine switching on its own is
//!    violation-free under `CheckMode::Fail` on all five paper apps and
//!    never changes a verification value.
//! 3. **Storm tolerance** — forced round-robin switching every barrier
//!    at 64 ranks keeps data exact, on both execution backends, with the
//!    per-node switch epochs in lockstep.

use std::rc::Rc;

use ace_apps::runner::{observe, Axis, Observed};
use ace_apps::{barnes, bsc, em3d, tsp, water, AceDsm, Variant};
use ace_core::{
    run_ace_with, CheckMode, CostModel, ExecBackend, Protocol, RegionId, Spmd, TransportKind,
};
use ace_protocols::{make, AdaptiveEngine, AdaptiveSpec, ProtoSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A run of `f` under `CheckMode::Fail`, asserted violation-free.
fn run_app<F>(nprocs: usize, f: F) -> Observed
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    let builder = Spmd::builder().nprocs(nprocs).cost(CostModel::cm5()).check(CheckMode::Fail);
    let o = observe(builder, |_| {}, f);
    assert_eq!(o.outcome.violations, 0, "checker counted violations");
    o
}

/// Pinned adaptive vs the static protocol it names, on EM3D, across
/// random workloads: bit-identical in results, digests, and logical
/// traffic. Both sides pay one identical `change_protocol` handover
/// per space, so even the switch counters must match. Seeds 78..81
/// (`fast_path_equivalence` lists every suite's seeds for these EM3D
/// inputs; no two share one).
#[test]
fn pinned_adaptive_is_bit_identical_to_static_on_em3d() {
    for seed in 78..81 {
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
        let (stat, bit) = if rng.gen_bool(0.5) {
            (em3d::Em3dProto::Dynamic, AdaptiveSpec::DYN_UPDATE)
        } else {
            (em3d::Em3dProto::Static, AdaptiveSpec::STATIC_UPDATE)
        };
        eprintln!("seed {seed}: {p:?}, {stat:?}");
        let a = run_app(4, |d| em3d::run_with(d, &p, em3d::Em3dProto::Pinned(bit)));
        let b = run_app(4, |d| em3d::run_with(d, &p, stat));
        a.assert_equivalent(&b, Axis::Wire, &format!("seed {seed}"));
    }
}

/// Free-running adaptive on every paper app: violation-free under
/// `CheckMode::Fail` and the same verification value as the SC variant.
#[test]
fn adaptive_runs_all_apps_violation_free_and_exact() {
    // Water's force reduction is order-deterministic, so even adaptive
    // runs reproduce SC bit-for-bit (compared with a tolerance all the
    // same); TSP's search is protocol-dependent only in traffic, not in
    // the optimal tour length.
    fn check(app: &str, nprocs: usize, run: impl Fn(&AceDsm, Variant) -> f64 + Sync) {
        let sc = run_app(nprocs, |d| run(d, Variant::Sc)).outcome.verification;
        let ad = run_app(nprocs, |d| run(d, Variant::Adaptive)).outcome.verification;
        let same = if app == "water" {
            (sc - ad).abs() <= 1e-9 * ad.abs().max(1.0)
        } else {
            sc.to_bits() == ad.to_bits()
        };
        assert!(same, "{app}: adaptive changed results ({sc} vs {ad})");
    }
    check("em3d", 4, |d, v| em3d::run(d, &em3d::Params::small(), v));
    check("barnes", 4, |d, v| barnes::run(d, &barnes::Params::small(), v));
    check("bsc", 4, |d, v| bsc::run(d, &bsc::Params::small(), v));
    check("water", 3, |d, v| water::run(d, &water::Params::small(), v));
    check("tsp", 4, |d, v| tsp::run(d, &tsp::Params::small(), v));
}

/// The engine actually discovers the switch on EM3D — started at SC, the
/// signals are strong enough to move off it — and every node commits the
/// same number of switches. (`Variant::Adaptive` itself starts at the
/// programmer's hint and may never need to switch, so the discovery claim
/// is tested through `AdaptiveFrom(SC)`.)
#[test]
fn adaptive_em3d_switches_and_stays_in_lockstep() {
    let p = em3d::Params { steps: 8, ..em3d::Params::small() };
    let r = run_ace_with(
        Spmd::builder().nprocs(4).cost(CostModel::cm5()).check(CheckMode::Fail),
        |rt| {
            let d = AceDsm::new(rt);
            let v = em3d::run_with(&d, &p, em3d::Em3dProto::AdaptiveFrom(AdaptiveSpec::SC));
            (v, rt.counters().switches, rt.node().switch_epoch())
        },
    );
    assert_eq!(r.stats.total_violations(), 0);
    let switches: Vec<u64> = r.results.iter().map(|t| t.1).collect();
    // 2 change_protocol calls install the engines; the engines must add
    // at least one flush-point switch on top.
    assert!(switches[0] > 2, "engine never switched: {switches:?}");
    assert!(switches.windows(2).all(|w| w[0] == w[1]), "switch counts diverge: {switches:?}");
    let epochs: Vec<u64> = r.results.iter().map(|t| t.2).collect();
    assert!(epochs.windows(2).all(|w| w[0] == w[1]), "switch epochs diverge: {epochs:?}");
}

/// Switch-storm stress: a storming engine rotating through four protocols
/// every profiled barrier, with a producer/consumer workload riding
/// through every handover. Run at 64 ranks under both execution backends
/// and at 8 ranks over real loopback sockets; data must stay exact and
/// the epochs in lockstep.
fn switch_storm(builder: ace_core::MachineBuilder) {
    let r = run_ace_with(builder.cost(CostModel::cm5()).check(CheckMode::Fail), |rt| {
        let n = rt.nprocs();
        let spec = AdaptiveSpec::new(
            AdaptiveSpec::SC
                | AdaptiveSpec::DYN_UPDATE
                | AdaptiveSpec::STATIC_UPDATE
                | AdaptiveSpec::PIPELINED,
        )
        .storming();
        let engine: Rc<dyn Protocol> = Rc::new(AdaptiveEngine::new(spec));
        let s = rt.new_space(engine);
        // One region per rank, everyone maps every region.
        let mine = [rt.gmalloc_words(s, 2).0];
        let ids: Vec<u64> = (0..rt.nprocs())
            .map(|r| rt.bcast(r, if r == rt.rank() { &mine } else { &[] })[0])
            .collect();
        let mine = mine[0];
        for &id in &ids {
            rt.map(RegionId(id));
        }
        for step in 0..6u64 {
            rt.start_write(RegionId(mine));
            rt.with_mut::<u64, _>(RegionId(mine), |d| d[0] = step * n as u64 + rt.rank() as u64);
            rt.end_write(RegionId(mine));
            rt.barrier(s);
            // Read the left neighbour's value through whatever
            // protocol the storm installed this interval.
            let left_rank = (rt.rank() + n - 1) % n;
            let left = ids[left_rank];
            rt.start_read(RegionId(left));
            let v = rt.with::<u64, _>(RegionId(left), |d| d[0]);
            rt.end_read(RegionId(left));
            assert_eq!(v, step * n as u64 + left_rank as u64, "stale neighbour value");
            rt.barrier(s);
        }
        (rt.counters().switches, rt.node().switch_epoch(), rt.data_digest())
    });
    assert_eq!(r.stats.total_violations(), 0);
    let switches: Vec<u64> = r.results.iter().map(|t| t.0).collect();
    assert!(switches[0] >= 4, "storm produced too few switches: {}", switches[0]);
    assert!(switches.windows(2).all(|w| w[0] == w[1]), "switch counts diverge");
    let epochs: Vec<u64> = r.results.iter().map(|t| t.1).collect();
    assert!(epochs.windows(2).all(|w| w[0] == w[1]), "switch epochs diverge");
}

#[test]
fn switch_storm_64_ranks_threads() {
    switch_storm(Spmd::builder().nprocs(64).backend(ExecBackend::Threads));
}

#[test]
fn switch_storm_64_ranks_multiplexed() {
    switch_storm(Spmd::builder().nprocs(64).backend(ExecBackend::Multiplexed));
}

/// Every handover crosses the codec: the flush pushes, the barrier
/// piggybacking the profile words, and the epoch-stamped envelopes after
/// the switch all travel through real loopback sockets.
#[test]
fn switch_storm_8_ranks_socket() {
    switch_storm(Spmd::builder().nprocs(8).transport(TransportKind::socket_loopback()));
}

/// The registry path: `ProtoSpec::Adaptive` via `make()` behaves exactly
/// like constructing the engine directly (the route the apps use).
#[test]
fn registry_adaptive_spec_runs_end_to_end() {
    let r = run_ace_with(Spmd::builder().nprocs(2).cost(CostModel::free()), |rt| {
        let spec = AdaptiveSpec::pinned(AdaptiveSpec::SC);
        let s = rt.new_space(make(ProtoSpec::Adaptive(spec)));
        let rid = if rt.rank() == 0 {
            RegionId(rt.bcast(0, &[rt.gmalloc_words(s, 1).0])[0])
        } else {
            RegionId(rt.bcast(0, &[])[0])
        };
        rt.map(rid);
        if rt.rank() == 0 {
            rt.start_write(rid);
            rt.with_mut::<u64, _>(rid, |d| d[0] = 7);
            rt.end_write(rid);
        }
        rt.barrier(s);
        rt.start_read(rid);
        let v = rt.with::<u64, _>(rid, |d| d[0]);
        rt.end_read(rid);
        v
    });
    assert_eq!(r.results, vec![7, 7]);
}
