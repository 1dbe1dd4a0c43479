//! The paper's evaluation (§5) as data: each figure is a list of cells
//! laid out line-major, measured, pivoted into printed lines and — with
//! `--json` — written out row by row.

use ace_apps::Variant;
use ace_core::{CheckMode, MAX_NODES};
use ace_lang::OptLevel;

use crate::acec::table4_cells;
use crate::args::{parse_apps, Args};
use crate::cell::{grid, measure, Cell, Input, Row, Tweak, What, APPS};
use crate::json;

const SC: What = What::Ace(Variant::Sc);
const CUSTOM: What = What::Ace(Variant::Custom);
const ADAPTIVE: What = What::Ace(Variant::Adaptive);

type Config = (&'static str, What, Tweak);

/// Figure 7a's configurations: Ace vs CRL, both under SC, plus Ace under
/// the adaptive engine (CRL has no counterpart; the column shows what
/// runtime protocol selection does to the same-source comparison).
pub const FIG7A: [Config; 3] = [
    ("ace", SC, Tweak::None),
    ("crl", What::Crl, Tweak::None),
    ("adaptive", ADAPTIVE, Tweak::None),
];

/// Figure 7b's configurations: SC vs application-specific protocols in
/// Ace and adaptive, then SC and custom again with the coalescing
/// transport disabled so the tables (and CI) can attribute how much of the
/// win is message batching. The cells of a line run in this order, the
/// one every earlier `BENCH_fig7b.json` was measured in.
pub const FIG7B: [Config; 5] = [
    ("sc", SC, Tweak::None),
    ("custom", CUSTOM, Tweak::None),
    ("adaptive", ADAPTIVE, Tweak::None),
    ("sc-nocoal", SC, Tweak::NoCoalesce),
    ("custom-nocoal", CUSTOM, Tweak::NoCoalesce),
];

/// A printed column: header, width, and the cell text derived from one
/// table line. Every figure lays its cells out line-major — all the
/// configurations of one printed line, then the next line's — so a line is
/// a run of consecutive rows.
type Col = (&'static str, usize, fn(&[Row]) -> String);

/// The row of `line` whose configuration label is `config`.
fn by<'a>(line: &'a [Row], config: &str) -> &'a Row {
    let found = line.iter().find(|r| r.cell.config == config);
    found.unwrap_or_else(|| panic!("no `{config}` cell on this line"))
}

fn ms(line: &[Row], config: &str) -> String {
    format!("{:.2}", by(line, config).ms())
}

fn ratio(line: &[Row], num: &str, den: &str) -> String {
    format!("{:.2}", by(line, num).ms() / by(line, den).ms())
}

/// One printed line: the key, then each column's text right-aligned.
fn line(key: &str, cols: &[Col], text: impl Fn(&Col) -> String) -> String {
    let mut out = key.to_string();
    for col in cols {
        out += &format!(" {:>w$}", text(col), w = col.1);
    }
    out
}

/// A table's key column: its header, and the text from a line's first row.
type Key = (&'static str, fn(&Row) -> String);

/// The one pivot: measure `cells`, `n` configurations to the printed line,
/// and print each line as soon as it is measured (the top of the scaling
/// sweep takes minutes).
fn table(key: Key, cols: &[Col], n: usize, cells: &[Cell]) -> Vec<Row> {
    println!("{}", line(key.0, cols, |col| col.0.to_string()));
    let mut rows = Vec::new();
    for cells in cells.chunks(n) {
        let l: Vec<Row> = cells.iter().map(measure).collect();
        println!("{}", line(&(key.1)(&l[0]), cols, |col| (col.2)(&l)));
        rows.extend(l);
    }
    rows
}

/// The key column of the per-app tables.
const BY_APP: Key = ("benchmark   ", |r| format!("{:<12}", r.cell.app));

/// The `--json` tail every figure shares.
fn write_json(a: &Args, table: &str, rows: &[Row]) -> Result<(), String> {
    match a.json_path(&format!("BENCH_{table}.json")) {
        Some(path) => json::write(&path, table, rows),
        None => Ok(()),
    }
}

/// The `--trace` tail: re-run EM3D under `what` traced, write the Chrome
/// `trace_event` JSON (loadable in Perfetto / `chrome://tracing`) and
/// print the per-protocol summary table.
fn write_trace(a: &Args, what: What, procs: usize) -> Result<(), String> {
    let Some(path) = a.value("--trace") else { return Ok(()) };
    let (input, tweak) = (a.input(), Tweak::Traced);
    let out = measure(&Cell { app: "em3d", config: "trace", what, input, procs, tweak }).out;
    let trace = out.trace.as_ref().expect("traced run carries a trace");
    std::fs::write(path, trace.to_chrome_json())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\n== trace: em3d ({procs} procs) -> {path} ==");
    println!(
        "{} events, {} logical messages in {} wire envelopes; open the file in https://ui.perfetto.dev",
        trace.event_count(),
        trace.logical_send_count(),
        trace.send_count()
    );
    let summary = trace
        .summary()
        .with_fast_hits(out.counters.fast_hits)
        .with_parks(out.parks, out.park_timeouts)
        .with_bar_msgs(out.counters.bar_msgs, out.bar_msgs_busiest);
    print!("{}", summary.render());
    Ok(())
}

const FIG7A_COLS: [Col; 4] = [
    ("Ace (ms)", 12, |l| ms(l, "ace")),
    ("CRL (ms)", 12, |l| ms(l, "crl")),
    ("CRL/Ace", 10, |l| ratio(l, "crl", "ace")),
    ("adaptive (ms)", 14, |l| ms(l, "adaptive")),
];

/// `ace-bench fig7a`.
pub fn fig7a(a: &Args) -> Result<(), String> {
    let (input, procs) = (a.input(), a.num("--procs", 8)?);
    println!("Figure 7a: Ace runtime vs CRL (SC protocol), {procs} procs");
    let rows = table(BY_APP, &FIG7A_COLS, 3, &grid(&APPS, &FIG7A, input, procs));
    println!("\n(simulated time on the CM-5-flavoured cost model; >1 means Ace is faster;");
    println!(" the adaptive column is Ace under the runtime protocol-selection engine)");
    write_json(a, "fig7a", &rows)?;
    write_trace(a, SC, procs)
}

/// The columns Figure 7b and the scaling sweep share.
const VARIANT_COLS: [Col; 5] = [
    ("SC (ms)", 12, |l| ms(l, "sc")),
    ("custom (ms)", 14, |l| ms(l, "custom")),
    ("speedup", 10, |l| ratio(l, "sc", "custom")),
    ("adaptive (ms)", 14, |l| ms(l, "adaptive")),
    ("switches", 9, |l| by(l, "adaptive").out.counters.switches.to_string()),
];

/// `ace-bench fig7b`.
pub fn fig7b(a: &Args) -> Result<(), String> {
    let (input, procs) = (a.input(), a.num("--procs", 8)?);
    println!("Figure 7b: SC vs application-specific protocols in Ace, {procs} procs");
    let wire: Col = ("custom wire/logical", 22, |l| {
        format!("{}/{}", by(l, "custom").out.wire_msgs, by(l, "custom").out.msgs)
    });
    let cols = [&VARIANT_COLS[..], &[wire]].concat();
    let rows = table(BY_APP, &cols, 5, &grid(&APPS, &FIG7B, input, procs));
    let speedups = rows.chunks(5).map(|l| by(l, "sc").ms() / by(l, "custom").ms());
    let avg = speedups.sum::<f64>() / APPS.len() as f64;
    println!("\naverage speedup: {avg:.2} (paper: range 1.02-5, average ~2)");
    println!("custom protocols: barnes=dynamic update, bsc=home-owned, em3d=static update,");
    println!("                  tsp=fetch-and-add counter, water=null+pipelined phases");
    println!("adaptive: the engine picks per-space protocols at flush points at runtime");
    println!("*-nocoal configs rerun with the coalescing transport disabled");
    write_json(a, "fig7b", &rows)?;
    write_trace(a, CUSTOM, procs)
}

fn wall_ms(r: &Row) -> f64 {
    r.out.wall.as_secs_f64() * 1e3
}

/// The checker table's columns; a line is `[off, on]`.
const CHECK_COLS: [Col; 7] = [
    ("sim off", 12, |l| format!("{:.2}ms", l[0].ms())),
    ("sim on", 12, |l| format!("{:.2}ms", l[1].ms())),
    ("wall off", 12, |l| format!("{:.2}ms", wall_ms(&l[0]))),
    ("wall on", 12, |l| format!("{:.2}ms", wall_ms(&l[1]))),
    ("wall %", 8, |l| format!("{:.1}%", (wall_ms(&l[1]) / wall_ms(&l[0]) - 1.0) * 100.0)),
    ("records", 9, |l| l[1].out.check_records.to_string()),
    ("hist words", 11, |l| l[1].out.check_words.to_string()),
];

/// `ace-bench check [APP,...]`: the conformance-checker overhead table —
/// each app under all three protocol assignments (adaptive included, so
/// every engine switch sequence the benchmarks exercise is certified),
/// check-off and check-on (`CheckMode::Fail`) on otherwise identical
/// machines. The vector-clock piggyback, the checker's bookkeeping and
/// the section records riding each barrier arrival up to node 0 charge
/// nothing to the cost model, so a checked run is the unchecked run: the
/// gate is `sim_ns` on == off. The wall-clock column and the history size
/// (what the barriers carried) are where the real overhead shows. A completed run already proves zero
/// violations — `Fail` panics on the first one — and the recorded count
/// is checked anyway.
pub fn check(a: &Args) -> Result<(), String> {
    let (input, procs) = (a.input(), a.num("--procs", 8)?);
    let apps = parse_apps(a.files.first().map(String::as_str), &APPS, &["em3d", "water"])?;
    let on_off = [Tweak::None, Tweak::Check(CheckMode::Fail)];
    let configs: Vec<_> = [Variant::Sc, Variant::Custom, Variant::Adaptive]
        .into_iter()
        .flat_map(|v| on_off.map(|tweak| (v.name(), What::Ace(v), tweak)))
        .collect();
    println!("Conformance-checker overhead (CheckMode::Fail vs off), {procs} procs");
    let key: Key =
        ("benchmark    variant ", |r| format!("{:<12} {:<8}", r.cell.app, r.cell.config));
    let rows = table(key, &CHECK_COLS, 2, &grid(&apps, &configs, input, procs));
    for l in rows.chunks(2) {
        let (off, on) = (&l[0].out, &l[1].out);
        let who = format!("{}/{}", l[1].cell.app, l[1].cell.config);
        if on.violations != 0 {
            return Err(format!("{who}: checker found {} violations", on.violations));
        }
        if on.sim_ns != off.sim_ns {
            return Err(format!(
                "{who}: a checked run took {} simulated ns, the unchecked run {}",
                on.sim_ns, off.sim_ns
            ));
        }
    }
    println!("\nall runs completed under CheckMode::Fail with zero violations");
    println!("(vector clocks, checker bookkeeping and the records riding each barrier arrival");
    println!(" charge nothing to the cost model, so the checked run is the unchecked run:");
    println!(" simulated time is equal to the nanosecond; records / hist words are what the");
    println!(" barriers carried to node 0, which scans each passage and keeps only what a");
    println!(" section still open may overlap)");
    Ok(())
}

/// `ace-bench table4`: effects of the compiler optimizations on the
/// benchmark kernels, against hand-written runtime-system code. Printed
/// transposed: one line per optimization level, one column per kernel
/// (the cells are kernel-major: four levels, then hand).
pub fn table4(a: &Args) -> Result<(), String> {
    let procs = a.num("--procs", 8)?;
    let cells = table4_cells(procs).map_err(|e| e.to_string())?;
    println!("Table 4: compiler optimization effects ({procs} procs, simulated ms)");
    let rows: Vec<Row> = cells.iter().map(measure).collect();
    print!("{:<24}", "Optimization");
    for k in rows.chunks(5) {
        print!(" {:>11}", k[0].cell.app);
    }
    let labels = OptLevel::ALL.map(OptLevel::label).into_iter().chain(["Hand-optimized"]);
    for (i, label) in labels.enumerate() {
        print!("\n{label:<24}");
        for k in rows.chunks(5) {
            print!(" {:>11.2}", k[i].ms());
        }
    }
    println!("\n\nbest-compiled / hand ratios (paper: 1.1-1.3x):");
    for k in rows.chunks(5) {
        let (best, hand) = (&k[3], &k[4]);
        println!(
            "  {:<12} {:.2}x   (verification compiled={:.6} hand={:.6})",
            hand.cell.app,
            best.ms() / hand.ms(),
            best.out.verification,
            hand.out.verification
        );
    }
    write_json(a, "table4", &rows)?;
    write_trace(a, CUSTOM, procs)
}

/// Apps in the scaling sweep: the three the scale-out engine was built to drive.
const SCALING_APPS: [&str; 3] = ["barnes", "em3d", "water"];

/// `ace-bench scaling`: processor-count scaling of the
/// protocol-customizability story — Barnes, EM3D and Water swept over
/// powers of two from 2 up to the `MAX_NODES` ceiling of 4096. The sweep
/// weak-scales each workload so a row's simulated time reflects how
/// coherence and transport costs grow with sharing breadth, not a
/// shrinking slice of a fixed problem. Wall-clock is printed alongside so
/// the scheduler's own overhead stays visible: simulated time is the
/// figure, wall time is the engine.
pub fn scaling(a: &Args) -> Result<(), String> {
    if a.has("--smoke") {
        return smoke();
    }
    let apps = parse_apps(a.value("--app"), &SCALING_APPS, &SCALING_APPS)?;
    let (min, max) = (a.num("--min", 2)?.max(2), a.num("--max", MAX_NODES)?.min(MAX_NODES));
    println!("scaling: custom-protocol speedup vs processor count, weak-scaled\n");
    let walls: [Col; 2] = [
        ("SC wall", 12, |l| format!("{:.1}ms", wall_ms(by(l, "sc")))),
        ("custom wall", 12, |l| format!("{:.1}ms", wall_ms(by(l, "custom")))),
    ];
    let cols = [&VARIANT_COLS[..], &walls].concat();
    let mut rows = Vec::new();
    for app in apps {
        println!("{app}");
        let counts = std::iter::successors(Some(min.next_power_of_two()), |p| Some(p * 2));
        // Water's force phase is a wavefront of `2·owners − 1`
        // barrier-separated rounds per step, so its message count stays
        // quadratic in ranks however thin the input (3.2 M logical
        // messages at 1024); past 1024 the sweep would spend its host
        // time on those barriers.
        let ceiling = max.min(if app == "water" { 1024 } else { MAX_NODES });
        let counts = counts.take_while(|&p| p <= ceiling);
        // Figure 7b's first three: sc, custom, adaptive.
        let cells: Vec<Cell> =
            counts.flat_map(|p| grid(&[app], &FIG7B[..3], Input::Weak, p)).collect();
        rows.extend(table((" procs", |r| format!("{:>6}", r.cell.procs)), &cols, 3, &cells));
        println!();
    }
    write_json(a, "scaling", &rows)
}

/// `BENCH_scaling.json`'s em3d / custom / 256 row as committed before the
/// barrier became a tree (PR 13's file: 27 423 868 ns, some 60 % of it
/// node 0 serialising barrier messages). The smoke run must halve it.
const SMOKE_FLAT_BARRIER_SIM_NS: u64 = 27_423_868;

/// Barrier messages one node may send plus receive per barrier: arity + 1
/// in each direction of the 8-ary tree. A centralised barrier costs its
/// coordinator 2 * 255 here.
const SMOKE_MAX_BAR_MSGS_PER_BARRIER: u64 = 18;

/// `ace-bench scaling --smoke`, the CI gate: EM3D at 256 nodes must
/// complete with wire <= logical envelopes, in simulated time only a
/// log-depth barrier reaches, with no node handling more barrier messages
/// per barrier than the tree's arity allows.
fn smoke() -> Result<(), String> {
    const PROCS: u64 = 256;
    let (input, tweak) = (Input::Weak, Tweak::None);
    let cell =
        Cell { app: "em3d", config: "custom", what: CUSTOM, input, procs: PROCS as usize, tweak };
    let row = measure(&cell);
    let r = &row.out;
    // A barrier is n - 1 arrivals plus n - 1 releases, each counted at
    // both ends, so the machine-wide count is whole multiples of this.
    let per_barrier = 4 * (PROCS - 1);
    let (total, busiest) = (r.counters.bar_msgs, r.bar_msgs_busiest);
    println!(
        "scaling smoke: em3d @ {PROCS}: verification={:.6} wire={} logical={} \
         sim={:.2}ms barriers={} busiest node={:.1} barrier msgs/barrier wall={:.1}ms",
        r.verification,
        r.wire_msgs,
        r.msgs,
        row.ms(),
        total / per_barrier,
        (busiest * per_barrier) as f64 / total as f64,
        wall_ms(&row)
    );
    let ok = r.wire_msgs <= r.msgs
        && r.sim_ns < SMOKE_FLAT_BARRIER_SIM_NS / 2
        && total > 0
        && total % per_barrier == 0
        && busiest * per_barrier <= SMOKE_MAX_BAR_MSGS_PER_BARRIER * total;
    if !ok {
        return Err("scaling smoke FAILED".to_string());
    }
    println!("scaling smoke PASSED");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_em3d(config: &'static str, what: What) -> Cell {
        Cell { app: "em3d", config, what, input: Input::Small, procs: 4, tweak: Tweak::None }
    }

    #[test]
    fn fig7a_small_has_expected_shape() {
        let rows = table(BY_APP, &FIG7A_COLS, 3, &grid(&APPS, &FIG7A, Input::Small, 4));
        assert_eq!(rows.len(), 15);
        for l in rows.chunks(3) {
            assert!(by(l, "ace").ms() > 0.0 && by(l, "crl").ms() > 0.0, "{}", l[0].cell.app);
            assert!(l.iter().all(|r| r.cell.app == l[0].cell.app), "cells are app-major");
        }
        let table = std::iter::once(line(BY_APP.0, &FIG7A_COLS, |col| col.0.to_string()))
            .chain(rows.chunks(3).map(|l| line(&BY_APP.1(&l[0]), &FIG7A_COLS, |col| (col.2)(l))));
        let table: Vec<String> = table.collect();
        assert_eq!(table.len(), 6);
        assert!(table[0].ends_with("    CRL/Ace  adaptive (ms)"), "{}", table[0]);
        assert!(table.iter().all(|l| l.len() == table[0].len()), "columns align: {table:#?}");
    }

    #[test]
    fn em3d_region_cache_hit_rate_is_high() {
        // A lookup finds no entry only while a region's first `map` waits
        // for its metadata; EM3D's compute loop looks up mapped regions.
        let out = measure(&small_em3d("custom", CUSTOM)).out;
        let rate = out.counters.region_cache_hit_rate().expect("EM3D performs region lookups");
        assert!(
            rate > 0.9,
            "EM3D lookups should find their entry: rate {rate:.3} ({} found / {} not)",
            out.counters.region_cache_hits,
            out.counters.region_cache_misses
        );
    }

    #[test]
    fn fig7b_small_custom_never_much_slower() {
        let cells = grid(&APPS, &FIG7B, Input::Small, 4);
        let rows: Vec<Row> = cells.iter().map(measure).collect();
        assert_eq!(rows.len(), 25);
        for l in rows.chunks(5) {
            let speedup = by(l, "sc").ms() / by(l, "custom").ms();
            assert!(
                speedup > 0.7,
                "{}: custom protocols should not badly regress ({speedup})",
                l[0].cell.app
            );
            let nocoal = by(l, "custom-nocoal");
            assert_eq!(nocoal.out.wire_msgs, nocoal.out.msgs, "coalescing off: one envelope each");
        }
    }

    #[test]
    fn a_cell_measures_the_same_twice() {
        // Barnes' counts drifted and TSP's pruning order swung its time
        // 2-3x while cells ran on kernel threads.
        for app in ["em3d", "barnes", "tsp"] {
            let cell = Cell { app, ..small_em3d("sc", SC) };
            let (a, b) = (measure(&cell).out, measure(&cell).out);
            let counts =
                |o: &ace_apps::runner::RunOutcome| (o.sim_ns, o.msgs, o.wire_msgs, o.bytes);
            assert_eq!(counts(&a), counts(&b), "{app}");
            assert_eq!(a.counters, b.counters, "{app}");
            if app == "em3d" {
                assert_eq!((a.msgs, a.bytes), (1444, 52148), "PR 15's table");
            }
        }
    }
}
