//! Integration: the five benchmarks produce identical (or
//! fp-tolerance-equal) results on the Ace runtime, on the CRL baseline,
//! and under every protocol assignment — the paper's same-source
//! methodology, verified end to end.

use ace::apps::runner::{launch_ace, launch_crl};
use ace::apps::{barnes, bsc, em3d, tsp, water, Variant};
use ace::core::CostModel;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn em3d_all_runtimes_and_protocols_agree() {
    let p = em3d::Params::small();
    let a = launch_ace(4, CostModel::cm5(), |d| em3d::run(d, &p, Variant::Sc));
    let c = launch_crl(4, CostModel::cm5(), |d| em3d::run(d, &p, Variant::Sc));
    let u = launch_ace(4, CostModel::cm5(), |d| em3d::run(d, &p, Variant::Custom));
    assert_eq!(a.verification, c.verification);
    assert_eq!(a.verification, u.verification);
}

#[test]
fn barnes_all_runtimes_and_protocols_agree() {
    let p = barnes::Params::small();
    let a = launch_ace(4, CostModel::cm5(), |d| barnes::run(d, &p, Variant::Sc));
    let c = launch_crl(4, CostModel::cm5(), |d| barnes::run(d, &p, Variant::Sc));
    let u = launch_ace(4, CostModel::cm5(), |d| barnes::run(d, &p, Variant::Custom));
    assert_eq!(a.verification, c.verification);
    assert_eq!(a.verification, u.verification);
}

#[test]
fn bsc_all_runtimes_and_protocols_agree() {
    let p = bsc::Params::small();
    let a = launch_ace(4, CostModel::cm5(), |d| bsc::run(d, &p, Variant::Sc));
    let c = launch_crl(4, CostModel::cm5(), |d| bsc::run(d, &p, Variant::Sc));
    let u = launch_ace(4, CostModel::cm5(), |d| bsc::run(d, &p, Variant::Custom));
    assert!(close(a.verification, c.verification));
    assert!(close(a.verification, u.verification));
}

#[test]
fn tsp_finds_the_optimum_everywhere() {
    let p = tsp::Params::small();
    let want = tsp::reference(&p) as f64;
    for nprocs in [1, 3, 6] {
        let a = launch_ace(nprocs, CostModel::cm5(), |d| tsp::run(d, &p, Variant::Sc));
        let u = launch_ace(nprocs, CostModel::cm5(), |d| tsp::run(d, &p, Variant::Custom));
        let c = launch_crl(nprocs, CostModel::cm5(), |d| tsp::run(d, &p, Variant::Sc));
        assert_eq!(a.verification, want, "ace sc at {nprocs}");
        assert_eq!(u.verification, want, "ace custom at {nprocs}");
        assert_eq!(c.verification, want, "crl at {nprocs}");
    }
}

#[test]
fn water_all_runtimes_and_protocols_agree() {
    // Every runtime and protocol sums the forces in the wavefront's one
    // order, so the results agree to the bit.
    let p = water::Params::small();
    let a = launch_ace(4, CostModel::cm5(), |d| water::run(d, &p, Variant::Sc));
    let c = launch_crl(4, CostModel::cm5(), |d| water::run(d, &p, Variant::Sc));
    let u = launch_ace(4, CostModel::cm5(), |d| water::run(d, &p, Variant::Custom));
    assert_eq!(a.verification.to_bits(), c.verification.to_bits());
    assert_eq!(a.verification.to_bits(), u.verification.to_bits());
}

#[test]
fn repeated_runs_are_deterministic() {
    // Thread scheduling varies between runs; results must not. (The EM3D
    // *workload* is seeded per rank, so this holds per processor count.)
    let p = em3d::Params::small();
    let base = launch_ace(4, CostModel::cm5(), |d| em3d::run(d, &p, Variant::Sc)).verification;
    for _ in 0..3 {
        let v = launch_ace(4, CostModel::cm5(), |d| em3d::run(d, &p, Variant::Custom));
        assert_eq!(v.verification, base, "em3d diverged between runs");
    }
}

#[test]
fn custom_protocols_reduce_traffic_on_the_wins() {
    // The fig7b story in miniature: em3d, tsp, water cut messages; bsc is
    // within the same class.
    let p = em3d::Params::small();
    let sc = launch_ace(4, CostModel::cm5(), |d| em3d::run(d, &p, Variant::Sc));
    let cu = launch_ace(4, CostModel::cm5(), |d| em3d::run(d, &p, Variant::Custom));
    assert!(cu.msgs < sc.msgs);

    let p = water::Params::small();
    let sc = launch_ace(4, CostModel::cm5(), |d| water::run(d, &p, Variant::Sc));
    let cu = launch_ace(4, CostModel::cm5(), |d| water::run(d, &p, Variant::Custom));
    assert!(cu.msgs < sc.msgs);
}
