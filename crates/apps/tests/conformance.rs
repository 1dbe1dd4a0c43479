//! The conformance checker (`ace-check`) against the real workloads and
//! against injected violations.
//!
//! Two halves. First, the clean bill of health: all five paper benchmarks
//! run to completion under `CheckMode::Fail` — where the first violation
//! panics the offending node — with zero violations counted, in both the
//! SC and custom-protocol variants. Second, the checker's teeth: a
//! deliberately unfenced no-op protocol (exclusive grants, hooks that
//! enforce nothing) lets tests commit each class of violation and assert
//! the exact structured [`AceError::Conformance`] report — region, node,
//! and offending action. Both halves are repeated on a 300-rank machine
//! (a record names its rank in full, not in eight bits), and a last test
//! holds the checker to being invisible: the same messages and bytes,
//! in total and per tag, with the checker on as with it off.

use std::rc::Rc;

use ace_apps::runner::launch_ace_with;
use ace_apps::{barnes, bsc, em3d, tsp, water, AceDsm, Variant};
use ace_core::{
    run_ace_with, AceError, AceRt, CheckMode, CoalescePolicy, ConformanceKind, CostModel,
    ExecBackend, MachineBuilder, ProtoMsg, Protocol, RegionEntry, Spmd, TraceConfig,
};

fn checked(nprocs: usize, mode: CheckMode) -> MachineBuilder {
    Spmd::builder().nprocs(nprocs).cost(CostModel::cm5()).check(mode)
}

/// Run one benchmark kernel under `CheckMode::Fail` on 4 nodes and assert
/// it finishes with a finite verification value and zero violations.
fn assert_conformant<F>(name: &str, f: F)
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    let r = run_ace_with(checked(4, CheckMode::Fail), |rt| {
        let d = AceDsm::new(rt);
        f(&d)
    });
    assert!(r.results[0].is_finite(), "{name}: lost its verification value");
    assert_eq!(r.stats.total_violations(), 0, "{name}: checker counted violations");
}

#[test]
fn em3d_runs_violation_free_under_fail() {
    for v in [Variant::Sc, Variant::Custom] {
        assert_conformant("em3d", |d| em3d::run(d, &em3d::Params::small(), v));
    }
}

#[test]
fn water_runs_violation_free_under_fail() {
    for v in [Variant::Sc, Variant::Custom] {
        assert_conformant("water", |d| water::run(d, &water::Params::small(), v));
    }
}

#[test]
fn barnes_runs_violation_free_under_fail() {
    for v in [Variant::Sc, Variant::Custom] {
        assert_conformant("barnes", |d| barnes::run(d, &barnes::Params::small(), v));
    }
}

#[test]
fn barnes_at_the_default_scale_stores_each_clock_once() {
    // The default input of `ace-bench check barnes`. A force passage is
    // thousands of read sections per rank, and nearly every one opens with
    // the clock of the section before it: that clock is stored once, not
    // once per record (≈ 19 words a record while each stored its own).
    let p = barnes::Params { bodies: 1024, steps: 2, theta: 1.0, seed: 3 };
    let r = launch_ace_with(checked(8, CheckMode::Fail), |d| barnes::run(d, &p, Variant::Custom));
    assert!(r.verification.is_finite());
    assert_eq!(r.violations, 0);
    let mean = r.check_words as f64 / r.check_records as f64;
    assert!(
        mean <= 10.0,
        "{} records in {} words: {mean:.2} a record",
        r.check_records,
        r.check_words
    );
}

#[test]
fn bsc_runs_violation_free_under_fail() {
    for v in [Variant::Sc, Variant::Custom] {
        assert_conformant("bsc", |d| bsc::run(d, &bsc::Params::small(), v));
    }
}

#[test]
fn tsp_runs_violation_free_under_fail() {
    for v in [Variant::Sc, Variant::Custom] {
        assert_conformant("tsp", |d| tsp::run(d, &tsp::Params::small(), v));
    }
}

/// A protocol that grants nothing and enforces nothing: every hook is a
/// no-op and `grants()` stays at the exclusive default. Data is always
/// locally valid (regions never migrate), so a test can commit any
/// access-control sin it likes and the only witness is the checker.
struct Unfenced;

impl Protocol for Unfenced {
    fn name(&self) -> &'static str {
        "unfenced"
    }
    fn start_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_read(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn start_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn end_write(&self, _rt: &AceRt, _e: &RegionEntry) {}
    fn handle(&self, _rt: &AceRt, _e: &RegionEntry, _msg: ProtoMsg, _src: usize) {}
    fn flush(&self, _rt: &AceRt, _e: &RegionEntry) {}
}

#[test]
fn read_outside_section_is_reported() {
    let r = checked(1, CheckMode::Log).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = rt.gmalloc::<u64>(s, 1);
        rt.map(rid);
        let _ = rt.with::<u64, _>(rid, |m| m[0]);
        let v = rt.violations();
        rt.shutdown();
        (rid, v)
    });
    let (rid, v) = &r.results[0];
    assert_eq!(
        v.as_slice(),
        [AceError::Conformance {
            region: *rid,
            rank: 0,
            kind: ConformanceKind::AccessOutsideSection { action: "read" },
        }]
    );
}

#[test]
fn write_under_read_grant_is_reported() {
    let r = checked(1, CheckMode::Log).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = rt.gmalloc::<u64>(s, 1);
        rt.map(rid);
        rt.start_read(rid);
        rt.with_mut::<u64, _>(rid, |m| m[0] = 7);
        rt.end_read(rid);
        let v = rt.violations();
        rt.shutdown();
        (rid, v)
    });
    let (rid, v) = &r.results[0];
    assert_eq!(
        v.as_slice(),
        [AceError::Conformance {
            region: *rid,
            rank: 0,
            kind: ConformanceKind::WriteUnderReadGrant,
        }]
    );
}

#[test]
fn write_outside_any_section_is_reported() {
    let r = checked(1, CheckMode::Log).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = rt.gmalloc::<u64>(s, 1);
        rt.map(rid);
        rt.with_mut::<u64, _>(rid, |m| m[0] = 7);
        let v = rt.violations();
        rt.shutdown();
        (rid, v)
    });
    let (rid, v) = &r.results[0];
    assert_eq!(
        v.as_slice(),
        [AceError::Conformance {
            region: *rid,
            rank: 0,
            kind: ConformanceKind::WriteOutsideSection,
        }]
    );
}

#[test]
fn section_left_open_at_exit_is_reported() {
    let r = checked(1, CheckMode::Log).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = rt.gmalloc::<u64>(s, 1);
        rt.map(rid);
        rt.start_write(rid);
        // Never closed: the shutdown sweep must flag the leak.
        rt.shutdown();
        (rid, rt.violations())
    });
    let (rid, v) = &r.results[0];
    assert_eq!(v.len(), 1, "exactly the leak: {v:?}");
    match &v[0] {
        AceError::Conformance {
            region,
            rank: 0,
            kind: ConformanceKind::SectionLeftOpen { write: true, .. },
        } => assert_eq!(region, rid),
        other => panic!("wrong report: {other}"),
    }
}

#[test]
fn concurrent_conflicting_sections_across_nodes_are_reported() {
    // Both nodes hold a write section on one region with no intervening
    // messages: vector-clock-concurrent, and never granted by the
    // exclusive `Unfenced` protocol. Node 0, the barrier tree's root,
    // scans the records each passage carries, so it carries the report.
    let r = checked(2, CheckMode::Log).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = if rt.rank() == 0 {
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.bcast(0, &[rid.0])[0]
        } else {
            rt.bcast(0, &[])[0]
        };
        let rid = ace_core::RegionId(rid);
        rt.map(rid);
        rt.machine_barrier();
        rt.start_write(rid);
        rt.with_mut::<u64, _>(rid, |m| m[0] = rt.rank() as u64);
        rt.end_write(rid);
        rt.machine_barrier();
        rt.shutdown();
        (rid, rt.violations())
    });
    let (rid, v0) = &r.results[0];
    let (_, v1) = &r.results[1];
    assert!(v1.is_empty(), "only the analyzing node reports: {v1:?}");
    assert_eq!(v0.len(), 1, "exactly one conflict: {v0:?}");
    match &v0[0] {
        AceError::Conformance {
            region,
            kind: ConformanceKind::ConflictingSections { a, b },
            ..
        } => {
            assert_eq!(region, rid);
            assert!(a.write && b.write, "both sides are write sections: {a} / {b}");
            let mut ranks = [a.rank, b.rank];
            ranks.sort_unstable();
            assert_eq!(ranks, [0, 1]);
            assert_eq!(a.proto, "unfenced");
            // The section histories carry the timestamps the report
            // prints, so a human can line the two sections up.
            assert!(a.close_t >= a.open_t && b.close_t >= b.open_t);
        }
        other => panic!("wrong report: {other}"),
    }
    assert_eq!(r.stats.total_violations(), 1);
}

/// A 2-node `Unfenced` machine's program: both ranks map one region of
/// rank 0's, then `f` runs with the region's id.
fn on_one_region<R: Send>(
    mode: CheckMode,
    f: impl Fn(&AceRt, ace_core::RegionId) -> R + Sync,
) -> ace_core::SpmdResult<R> {
    checked(2, mode).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = if rt.rank() == 0 {
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.bcast(0, &[rid.0])[0]
        } else {
            rt.bcast(0, &[])[0]
        };
        let rid = ace_core::RegionId(rid);
        rt.map(rid);
        rt.machine_barrier();
        let r = f(&rt, rid);
        rt.shutdown();
        r
    })
}

/// The two ranks of a `ConflictingSections` report, in report order.
fn conflict_ranks(v: &[AceError]) -> Vec<[usize; 2]> {
    v.iter()
        .map(|e| match e {
            AceError::Conformance {
                kind: ConformanceKind::ConflictingSections { a, b }, ..
            } => [a.rank, b.rank],
            other => panic!("not a conflict: {other}"),
        })
        .collect()
}

#[test]
fn a_section_held_open_across_a_barrier_conflicts_with_a_write_before_it() {
    // Rank 1's write section spans a barrier; rank 0 writes the region
    // before that barrier. The barrier orders rank 0's section before
    // everything rank 1 does after it, but not before rank 1's open: the
    // two overlap. Rank 0's record reaches node 0 at the first barrier,
    // rank 1's at the second, and the pair is still found.
    let r = on_one_region(CheckMode::Log, |rt, rid| {
        if rt.rank() == 1 {
            rt.start_write(rid);
        } else {
            rt.start_write(rid);
            rt.with_mut::<u64, _>(rid, |m| m[0] = 1);
            rt.end_write(rid);
        }
        rt.machine_barrier();
        let held = rt.violations().len();
        if rt.rank() == 1 {
            rt.with_mut::<u64, _>(rid, |m| m[0] = 2);
            rt.end_write(rid);
        }
        rt.machine_barrier();
        (held, rt.violations())
    });
    let (held, v0) = &r.results[0];
    assert_eq!(*held, 0, "rank 1's section was still open: nothing to report yet");
    assert_eq!(conflict_ranks(v0), [[0, 1]], "{v0:?}");
    assert!(r.results[1].1.is_empty());
    assert_eq!(r.stats.total_violations(), 1);
}

#[test]
fn a_conflict_is_reported_at_the_barrier_that_carries_it() {
    // Node 0 holds the report as soon as the barrier that ends the
    // conflicting sections' passage returns, before any shutdown.
    let r = on_one_region(CheckMode::Log, |rt, rid| {
        rt.start_write(rid);
        rt.with_mut::<u64, _>(rid, |m| m[0] = rt.rank() as u64);
        rt.end_write(rid);
        rt.machine_barrier();
        rt.violations()
    });
    assert_eq!(conflict_ranks(&r.results[0]), [[0, 1]], "{:?}", r.results[0]);
    assert!(r.results[1].is_empty());
}

#[test]
fn a_fail_run_dies_at_the_barrier_that_carries_a_conflict() {
    let run = std::panic::catch_unwind(|| {
        on_one_region(CheckMode::Fail, |rt, rid| {
            rt.start_write(rid);
            rt.with_mut::<u64, _>(rid, |m| m[0] = rt.rank() as u64);
            rt.end_write(rid);
            rt.machine_barrier();
            assert!(rt.rank() != 0, "node 0 left the barrier that carried a conflict");
        })
    });
    let e = run.expect_err("a conflicting run fails");
    let msg = e.downcast_ref::<String>().map_or("<non-string panic>", String::as_str);
    assert!(
        msg.starts_with("node 0 panicked: conformance violation")
            && msg.contains("concurrent write+write sections"),
        "{msg}"
    );
}

#[test]
fn causally_ordered_sections_do_not_conflict() {
    // Same two write sections, but separated by a machine barrier: the
    // barrier's messages carry vector clocks, so the sections are ordered
    // and the exclusive grant is honored.
    let r = checked(2, CheckMode::Log).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = if rt.rank() == 0 {
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.bcast(0, &[rid.0])[0]
        } else {
            rt.bcast(0, &[])[0]
        };
        let rid = ace_core::RegionId(rid);
        rt.map(rid);
        rt.machine_barrier();
        if rt.rank() == 0 {
            rt.start_write(rid);
            rt.with_mut::<u64, _>(rid, |m| m[0] = 1);
            rt.end_write(rid);
        }
        rt.machine_barrier();
        if rt.rank() == 1 {
            rt.start_write(rid);
            rt.with_mut::<u64, _>(rid, |m| m[0] = 2);
            rt.end_write(rid);
        }
        rt.machine_barrier();
        rt.shutdown();
        rt.violations()
    });
    assert!(r.results.iter().all(|v| v.is_empty()), "{:?}", r.results);
    assert_eq!(r.stats.total_violations(), 0);
}

/// A machine wider than the 256 ranks one byte can name.
fn wide(mode: CheckMode) -> MachineBuilder {
    checked(300, mode).backend(ExecBackend::Multiplexed)
}

#[test]
fn em3d_runs_violation_free_at_300_ranks() {
    let p = em3d::Params {
        e_nodes: 600,
        h_nodes: 600,
        degree: 3,
        pct_remote: 20,
        steps: 2,
        seed: 11,
        hoist_maps: true,
    };
    let r = launch_ace_with(wide(CheckMode::Fail), |d| em3d::run(d, &p, Variant::Sc));
    assert!(r.verification.is_finite());
    assert_eq!(r.violations, 0);
    assert!(r.check_records > 0, "SC records every section");
}

#[test]
fn conflicting_sections_on_ranks_past_255_name_those_ranks() {
    // The two-writer conflict of the test above, on ranks whose numbers
    // need more than eight bits.
    const WRITERS: [usize; 2] = [270, 299];
    let r = wide(CheckMode::Log).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = if rt.rank() == 0 {
            let rid = rt.gmalloc::<u64>(s, 1);
            rt.bcast(0, &[rid.0])[0]
        } else {
            rt.bcast(0, &[])[0]
        };
        let rid = ace_core::RegionId(rid);
        rt.machine_barrier();
        if WRITERS.contains(&rt.rank()) {
            rt.map(rid);
            rt.start_write(rid);
            rt.with_mut::<u64, _>(rid, |m| m[0] = rt.rank() as u64);
            rt.end_write(rid);
        }
        rt.machine_barrier();
        rt.shutdown();
        (rid, rt.violations())
    });
    let (rid, v0) = &r.results[0];
    assert_eq!(v0.len(), 1, "exactly one conflict: {v0:?}");
    match &v0[0] {
        AceError::Conformance {
            region,
            kind: ConformanceKind::ConflictingSections { a, b },
            ..
        } => {
            assert_eq!(region, rid);
            assert!(a.write && b.write, "both sides are write sections: {a} / {b}");
            assert_eq!([a.rank, b.rank], WRITERS);
        }
        other => panic!("wrong report: {other}"),
    }
    assert_eq!(r.stats.total_violations(), 1);
}

#[test]
fn a_checked_run_sends_what_the_unchecked_run_sends() {
    // The checker sends nothing of its own: its records ride the barrier
    // arrivals the program sends anyway, at no charge. With coalescing
    // off a wire envelope is a logical message, so all three totals and
    // every tag's row repeat exactly; with it on the wire grouping rides
    // arrival order (see `coalescing_equivalence`) and the logical view
    // is compared.
    let em3d_p = em3d::Params::small();
    let water_p = water::Params::small();
    type App<'a> = &'a (dyn Fn(&AceDsm) -> f64 + Sync);
    let apps: [(&str, App); 2] = [
        ("em3d", &|d| em3d::run(d, &em3d_p, Variant::Sc)),
        ("water", &|d| water::run(d, &water_p, Variant::Sc)),
    ];
    for (name, app) in apps {
        for coalesce in [false, true] {
            let observe = |mode| {
                let b = checked(4, mode).trace(TraceConfig::on());
                let r = launch_ace_with(
                    if coalesce { b } else { b.coalesce(CoalescePolicy::Off) },
                    app,
                );
                let mut tags = r.trace.expect("trace requested").summary().tags;
                tags.sort_by_key(|t| t.tag);
                if coalesce {
                    tags.iter_mut().for_each(|t| t.msgs = 0);
                }
                let wire = if coalesce { 0 } else { r.wire_msgs };
                (r.msgs, r.bytes, wire, tags, r.check_records)
            };
            let (off, log) = (observe(CheckMode::Off), observe(CheckMode::Log));
            assert!(log.4 > 0 && off.4 == 0, "{name}: only the checked run has a history");
            assert_eq!(off.0, log.0, "{name} coalesce={coalesce}: logical messages");
            assert_eq!(off.1, log.1, "{name} coalesce={coalesce}: bytes");
            assert_eq!(off.2, log.2, "{name} coalesce={coalesce}: wire envelopes");
            assert_eq!(off.3, log.3, "{name} coalesce={coalesce}: per-tag rows");
        }
    }
}

#[test]
#[should_panic(expected = "conformance violation")]
fn fail_mode_panics_on_first_violation() {
    let _ = checked(1, CheckMode::Fail).run(|node| {
        let rt = AceRt::new(node);
        let s = rt.new_space(Rc::new(Unfenced));
        let rid = rt.gmalloc::<u64>(s, 1);
        rt.map(rid);
        let _ = rt.with::<u64, _>(rid, |m| m[0]);
        rt.shutdown();
    });
}
