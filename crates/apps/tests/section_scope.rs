//! A section through `AceDsm` or `CrlDsm` looks its region up once.
//! `AceDsm::read` / `write` are `AceRt::read` / `write` and `CrlDsm`'s are
//! `CrlRt::read` / `write`, which run the start hook, the typed view and
//! the end hook on one lookup of the region's entry; the trait's default
//! `read` / `write` call `start_*`, `with*` and `end_*`, and each of those
//! looks the region up again. The two must run the same program: the same
//! verification bits and region digests, simulated time, messages, wire
//! envelopes and bytes, per-tag counts and every counter, except that the
//! region-cache hits drop by exactly two per section opened.
//!
//! Each of the five apps runs at `Params::small()` on 4 multiplexed ranks
//! under each Ace variant and on CRL, once through the runtime's adapter
//! and once through `Unscoped`, a pass-through `Dsm` that keeps the
//! trait's default `read` / `write`.

use std::sync::Arc;

use ace_apps::runner::{observe, observe_crl, Axis, Observed};
use ace_apps::{barnes, bsc, em3d, tsp, water, AceDsm, CrlDsm, Dsm, Variant};
use ace_core::{CostModel, ExecBackend, MachineBuilder, Pod, Spmd, TraceConfig};
use ace_protocols::ProtoSpec;

/// An adapter with the trait's default `read` / `write`: three lookups a
/// section.
struct Unscoped<'d, D>(&'d D);

impl<D: Dsm> Dsm for Unscoped<'_, D> {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn new_space(&self, spec: ProtoSpec) -> u32 {
        self.0.new_space(spec)
    }
    fn change_protocol(&self, space: u32, spec: ProtoSpec) {
        self.0.change_protocol(space, spec)
    }
    fn gmalloc_words(&self, space: u32, words: usize) -> u64 {
        self.0.gmalloc_words(space, words)
    }
    fn map(&self, r: u64) {
        self.0.map(r)
    }
    fn unmap(&self, r: u64) {
        self.0.unmap(r)
    }
    fn start_read(&self, r: u64) {
        self.0.start_read(r)
    }
    fn end_read(&self, r: u64) {
        self.0.end_read(r)
    }
    fn start_write(&self, r: u64) {
        self.0.start_write(r)
    }
    fn end_write(&self, r: u64) {
        self.0.end_write(r)
    }
    fn with<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R {
        self.0.with(r, f)
    }
    fn with_mut<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.0.with_mut(r, f)
    }
    fn barrier(&self, space: u32) {
        self.0.barrier(space)
    }
    fn lock(&self, r: u64) {
        self.0.lock(r)
    }
    fn unlock(&self, r: u64) {
        self.0.unlock(r)
    }
    fn bcast(&self, root: usize, vals: &[u64]) -> Arc<[u64]> {
        self.0.bcast(root, vals)
    }
    fn gather(&self, root: usize, vals: &[u64]) -> Option<Vec<Arc<[u64]>>> {
        self.0.gather(root, vals)
    }
    fn allreduce_u64(&self, val: u64, op: fn(u64, u64) -> u64) -> u64 {
        self.0.allreduce_u64(val, op)
    }
    fn allreduce_f64(&self, val: f64, op: fn(f64, f64) -> f64) -> f64 {
        self.0.allreduce_f64(val, op)
    }
    fn charge_flops(&self, n: u64) {
        self.0.charge_flops(n)
    }
    fn charge_mem(&self, n: u64) {
        self.0.charge_mem(n)
    }
}

/// A traced 4-rank multiplexed machine.
fn machine() -> MachineBuilder {
    let b = Spmd::builder().nprocs(4).cost(CostModel::cm5());
    b.backend(ExecBackend::Multiplexed).trace(TraceConfig::on())
}

/// A run of `kernel` on Ace.
fn run(kernel: impl Fn(&AceDsm) -> f64 + Sync) -> Observed {
    observe(machine(), |_| {}, kernel)
}

/// A run of `kernel` on CRL.
fn run_crl(kernel: impl Fn(&CrlDsm) -> f64 + Sync) -> Observed {
    observe_crl(machine(), kernel)
}

/// Hold a run through the adapter and one through `Unscoped` of `app`
/// under `config` to the module's contract.
fn check(app: &str, config: &str, scoped: Observed, mut unscoped: Observed) {
    let ctx = format!("{app}/{config}");
    let (a, b) = (&scoped.outcome, &mut unscoped.outcome);
    // Everything but the lookups, exactly: not even the wire grouping moves.
    assert_eq!(a.sim_ns, b.sim_ns, "{ctx}: simulated time");
    assert_eq!(a.wire_msgs, b.wire_msgs, "{ctx}: wire envelopes");
    let sections = a.counters.start_reads + a.counters.start_writes;
    assert!(sections > 0, "{ctx}: premise: the run opens sections");
    assert_eq!(
        b.counters.region_cache_hits.checked_sub(a.counters.region_cache_hits),
        Some(2 * sections),
        "{ctx}: one lookup per section instead of three ({sections} sections)"
    );
    b.counters.region_cache_hits = a.counters.region_cache_hits;
    assert_eq!(a.counters, b.counters, "{ctx}: every other counter");
    scoped.assert_equivalent(&unscoped, Axis::Wire, &ctx);
}

macro_rules! app_test {
    ($name:ident, $app:ident) => {
        #[test]
        fn $name() {
            let p = $app::Params::small();
            for v in [Variant::Sc, Variant::Custom, Variant::Adaptive] {
                let scoped = run(|d| $app::run(d, &p, v));
                let unscoped = run(|d| $app::run(&Unscoped(d), &p, v));
                check(stringify!($app), v.name(), scoped, unscoped);
            }
            let scoped = run_crl(|d| $app::run(d, &p, Variant::Sc));
            let unscoped = run_crl(|d| $app::run(&Unscoped(d), &p, Variant::Sc));
            check(stringify!($app), "crl", scoped, unscoped);
        }
    };
}

app_test!(barnes_sections_look_up_once, barnes);
app_test!(bsc_sections_look_up_once, bsc);
app_test!(em3d_sections_look_up_once, em3d);
app_test!(tsp_sections_look_up_once, tsp);
app_test!(water_sections_look_up_once, water);
