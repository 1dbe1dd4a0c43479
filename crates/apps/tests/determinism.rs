//! A multiplexed machine's results are a function of the program. One
//! executor thread resumes nodes in the order their wake-ups were queued,
//! and nothing the host does (load, core count, what the kernel felt
//! like) reaches that order, so ten runs of one input must agree on
//! everything a run reports: simulated time to the nanosecond, logical
//! and wire message counts, bytes, every operation counter, the number of
//! times a node blocked, the verification value's bits and every rank's
//! digest of its home regions.
//!
//! All five apps under all three variants, Barnes (whose message counts
//! drift from run to run on kernel threads) and TSP at its paper input
//! (whose pruning order rides message arrival order, and swings 2–3× in
//! simulated time there) included. What this does not cover: the order is
//! FIFO by host action, not yet by virtual time (ROADMAP, first item),
//! and `ExecBackend::Threads` and socket machines still jitter. A builder
//! that names no backend is this machine (x86-64 unix): the last test.

use ace_apps::runner::{observe, Observed};
use ace_apps::{barnes, bsc, em3d, tsp, water, AceDsm, Variant};
use ace_core::{CostModel, ExecBackend, OpCounters, Spmd};

const RUNS: usize = 10;

/// Everything two runs of one input must agree on.
type Fingerprint = (u64, [u64; 4], OpCounters, u64, Vec<u64>);

fn fingerprint(o: &Observed) -> Fingerprint {
    let r = &o.outcome;
    let counts = [r.msgs, r.wire_msgs, r.bytes, r.parks];
    (r.sim_ns, counts, r.counters.clone(), r.verification.to_bits(), o.digests.clone())
}

fn assert_repeats(app: &str, kernel: impl Fn(&AceDsm, Variant) -> f64 + Sync) {
    for v in [Variant::Sc, Variant::Custom, Variant::Adaptive] {
        let run = || {
            let machine =
                Spmd::builder().nprocs(8).cost(CostModel::cm5()).backend(ExecBackend::Multiplexed);
            fingerprint(&observe(machine, |_| {}, |d| kernel(d, v)))
        };
        let first = run();
        assert!(first.0 > 0 && first.1[0] > 0, "{app}/{v:?}: premise: the run did something");
        for i in 1..RUNS {
            assert_eq!(run(), first, "{app}/{v:?}: run {i} differs from run 0");
        }
    }
}

#[test]
fn bsc_repeats_exactly() {
    let p = bsc::Params::small();
    assert_repeats("bsc", |d, v| bsc::run(d, &p, v));
}

#[test]
fn em3d_repeats_exactly() {
    let p = em3d::Params::small();
    assert_repeats("em3d", |d, v| em3d::run(d, &p, v));
}

#[test]
fn barnes_repeats_exactly() {
    let p = barnes::Params::small();
    assert_repeats("barnes", |d, v| barnes::run(d, &p, v));
}

#[test]
fn water_repeats_exactly() {
    let p = water::Params::small();
    assert_repeats("water", |d, v| water::run(d, &p, v));
}

#[test]
fn tsp_repeats_exactly_at_its_paper_input() {
    let p = tsp::Params::paper();
    assert_repeats("tsp", |d, v| tsp::run(d, &p, v));
}

#[test]
fn a_builder_that_names_no_backend_is_this_machine() {
    let p = tsp::Params::paper();
    let run = |machine: ace_core::MachineBuilder| {
        let machine = machine.nprocs(8).cost(CostModel::cm5());
        fingerprint(&observe(machine, |_| {}, |d| tsp::run(d, &p, Variant::Custom)))
    };
    let named = run(Spmd::builder().backend(ExecBackend::Multiplexed));
    for i in 0..3 {
        assert_eq!(run(Spmd::builder()), named, "tsp/Custom: unnamed run {i} differs");
    }
}
