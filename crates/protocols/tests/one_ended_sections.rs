//! A section is counted only when the runtime sees both its ends. Under
//! `Resolve::Static(p)` a hook `p` declares null never runs, as the
//! direct-dispatch pass deletes its calls; a section with one null end has
//! one end the runtime can see, so its counter never moves. A counter moved
//! by that one end would never come back down: the region would stay busy
//! for the rest of the run, `evict` would refuse it, and a later switch to
//! SC would defer its invalidations until the watchdog fired.

use std::time::Duration;

use ace_core::{
    run_ace_with, AceRt, Actions, CostModel, MachineBuilder, OpCounters, Protocol, RegionId,
    Resolve, SpaceId, Spmd,
};
use ace_lang::{compile, run_program, OptLevel, SystemConfig};
use ace_protocols::{make, ProtoSpec};

/// Every protocol the registry builds but the adaptive engine.
const SPECS: [ProtoSpec; 8] = [
    ProtoSpec::Sc,
    ProtoSpec::DynUpdate,
    ProtoSpec::StaticUpdate,
    ProtoSpec::Null,
    ProtoSpec::Migratory,
    ProtoSpec::Pipelined,
    ProtoSpec::HomeOwned,
    ProtoSpec::FetchAdd,
];

/// Two ranks whose watchdog fires long before a test's timeout would.
fn two_ranks() -> MachineBuilder {
    Spmd::builder().nprocs(2).cost(CostModel::cm5()).watchdog(Duration::from_secs(2))
}

/// A one-word region homed on rank 0 and mapped on every rank.
fn shared_region(rt: &AceRt, s: SpaceId) -> RegionId {
    let id =
        if rt.rank() == 0 { rt.bcast(0, &[rt.gmalloc::<u64>(s, 1).0]) } else { rt.bcast(0, &[]) };
    let r = RegionId(id[0]);
    rt.map(r);
    r
}

/// A read whose end is null under pipelined writes, then a switch to SC:
/// rank 0's write must find nothing on rank 1 deferring its invalidation.
#[test]
fn a_read_with_a_null_end_defers_no_invalidation_after_a_switch_to_sc() {
    let r = run_ace_with(two_ranks(), |rt| {
        let pipelined = make(ProtoSpec::Pipelined);
        let s = rt.new_space(make(ProtoSpec::Pipelined));
        let r = shared_region(rt, s);
        if rt.rank() == 0 {
            rt.write::<u64, _>(r, Resolve::Space, |d| d[0] = 1);
        }
        rt.machine_barrier();
        let mut seen = Vec::new();
        if rt.rank() == 1 {
            seen.push(rt.read::<u64, _>(r, Resolve::Static(&*pipelined), |d| d[0]));
        }
        let idle = !rt.entry(r).busy();
        rt.change_protocol(s, make(ProtoSpec::Sc));
        if rt.rank() == 1 {
            seen.push(rt.read::<u64, _>(r, Resolve::Space, |d| d[0]));
        }
        rt.machine_barrier();
        if rt.rank() == 0 {
            rt.write::<u64, _>(r, Resolve::Space, |d| d[0] = 2);
        }
        rt.machine_barrier();
        seen.push(rt.read::<u64, _>(r, Resolve::Space, |d| d[0]));
        (idle, seen)
    });
    assert_eq!(r.results, [(true, vec![2]), (true, vec![1, 1, 2])]);
}

/// What a write section does: add one to the word, returning what it saw.
fn bump(d: &mut [u64]) -> u64 {
    d[0] += 1;
    d[0] - 1
}

/// One read or write section on `r` as the direct-dispatch pass leaves it:
/// a `*_direct` call for each end `p` does not declare null, around the
/// view the VM takes. Returns the word the view saw.
fn unpaired(rt: &AceRt, r: RegionId, p: &dyn Protocol, write: bool) -> u64 {
    let null = p.null_actions();
    let (start, end) = match write {
        false => (Actions::START_READ, Actions::END_READ),
        true => (Actions::START_WRITE, Actions::END_WRITE),
    };
    match (write, null.contains(start)) {
        (_, true) => {}
        (false, false) => rt.start_read_direct(r, p),
        (true, false) => rt.start_write_direct(r, p),
    }
    let v = if write {
        rt.with_mut_unchecked::<u64, _>(r, bump)
    } else {
        rt.with_unchecked::<u64, _>(r, |d| d[0])
    };
    match (write, null.contains(end)) {
        (_, true) => {}
        (false, false) => rt.end_read_direct(r, p),
        (true, false) => rt.end_write_direct(r, p),
    }
    v
}

/// For every protocol, reads and writes alike: a section through the
/// pair under `Resolve::Static` and the same section as unpaired direct
/// calls leave the region idle after every section, see the same words,
/// take the same simulated time and count the same operations but the
/// region-cache hits the pair saves.
#[test]
fn the_pair_and_the_unpaired_calls_leave_every_region_idle_alike() {
    for spec in SPECS {
        for write in [false, true] {
            let run = |paired: bool| {
                let r = run_ace_with(two_ranks(), |rt| {
                    let p = make(spec);
                    let s = rt.new_space(make(spec));
                    let r = shared_region(rt, s);
                    let mut seen = Vec::new();
                    // Reads take turns, home then remote; static update
                    // and home-owned regions are written only at home.
                    for turn in 0..4 {
                        if rt.rank() == if write { 0 } else { turn % 2 } {
                            let v = match (paired, write) {
                                (true, false) => {
                                    rt.read::<u64, _>(r, Resolve::Static(&*p), |d| d[0])
                                }
                                (true, true) => rt.write::<u64, _>(r, Resolve::Static(&*p), bump),
                                (false, _) => unpaired(rt, r, &*p, write),
                            };
                            seen.push((v, rt.entry(r).busy()));
                        }
                        rt.machine_barrier();
                    }
                    let c = OpCounters { region_cache_hits: 0, ..rt.counters() };
                    (seen, rt.node().now(), c)
                });
                r.results
            };
            let (paired, unpaired) = (run(true), run(false));
            let what = format!("{} {}", spec.name(), if write { "write" } else { "read" });
            for (rank, (seen, _, _)) in paired.iter().enumerate() {
                assert!(seen.iter().all(|&(_, busy)| !busy), "{what}: rank {rank} busy: {seen:?}");
            }
            assert_eq!(paired, unpaired, "{what}");
        }
    }
}

/// The first test's program in Ace-C: at `OptLevel::Direct` every
/// annotation is a direct call, and the pipelined read's null end is gone.
#[test]
fn the_direct_pass_leaves_no_read_open_across_a_switch_to_sc() {
    let src = r#"
        double main() {
            space s = new_space("Pipelined");
            shared double *v;
            if (rank() == 0) {
                v = (shared double*) gmalloc(s, 1);
                v[0] = 1.0;
            }
            v = (shared double*) bcast_p(0, v);
            barrier(s);
            double a = 0.0;
            if (rank() == 1) { a = v[0]; }
            change_protocol(s, "SC");
            double b = 0.0;
            if (rank() == 1) { b = v[0]; }
            barrier(s);
            if (rank() == 0) { v[0] = 2.0; }
            barrier(s);
            return a + 10.0 * b + 100.0 * v[0];
        }
    "#;
    let prog = compile(src, &SystemConfig::builtin(), OptLevel::Direct).unwrap();
    assert_eq!(prog.annotation_stats().0, 0, "every annotation is statically resolved");
    let r = run_ace_with(two_ranks(), |rt| run_program(rt, &prog).map(|v| v.as_f()));
    assert_eq!(r.results, [Some(200.0), Some(211.0)]);
}
