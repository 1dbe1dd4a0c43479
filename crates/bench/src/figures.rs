//! The paper's evaluation (§5) as data: each figure is a list of cells
//! laid out line-major, measured, pivoted into printed lines and — with
//! `--json` — written out row by row. [`FIGURES`] names, for each table a
//! `BENCH_*.json` file holds, the cells it measures and the columns its
//! lines print through; `ace-bench report` lays the committed rows out
//! through the same columns.

use ace_apps::Variant;
use ace_core::{CheckMode, MAX_NODES};

use crate::acec::table4_cells;
use crate::args::{parse_apps, Args};
use crate::cell::{grid, measure, Cell, Input, Row, Tweak, What, APPS};
use crate::{claims, json};

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
pub type Col = (&'static str, usize, fn(&[Row]) -> String);

/// The row of `line` whose configuration label is `config`.
pub(crate) fn by<'a>(line: &'a [Row], config: &str) -> &'a Row {
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
pub type Key = (&'static str, fn(&Row) -> String);

/// The header line of a table.
fn header(key: Key, cols: &[Col]) -> String {
    line(key.0, cols, |col| col.0.to_string())
}

/// The printed line of the rows `l`.
fn body(key: Key, cols: &[Col], l: &[Row]) -> String {
    line(&(key.1)(&l[0]), cols, |col| (col.2)(l))
}

/// The one pivot: measure `cells`, `n` configurations to the printed line,
/// and print each line as soon as it is measured (the top of the scaling
/// sweep takes minutes).
fn table(key: Key, cols: &[Col], n: usize, cells: &[Cell]) -> Vec<Row> {
    println!("{}", header(key, cols));
    let mut rows = Vec::new();
    for cells in cells.chunks(n) {
        let l: Vec<Row> = cells.iter().map(measure).collect();
        println!("{}", body(key, cols, &l));
        rows.extend(l);
    }
    rows
}

/// A table the harness writes to `BENCH_<table>.json`: which cells it
/// measures and how its lines print.
pub struct Figure {
    /// The rows' `table` field, and the file's name.
    pub table: &'static str,
    /// The key column.
    pub key: Key,
    /// The columns, the paper column last where the table has claims.
    pub cols: &'static [Col],
    /// Rows to a printed line.
    pub n: usize,
    /// The cells the committed file holds, in order, given its first
    /// row's processor count (the scaling sweep ignores it).
    pub cells: fn(usize) -> Result<Vec<Cell>, String>,
}

impl Figure {
    /// `rows` as printed: the header, then one line per `n` rows.
    pub fn layout(&self, rows: &[Row]) -> String {
        let lines = rows.chunks(self.n).map(|l| body(self.key, self.cols, l) + "\n");
        header(self.key, self.cols) + "\n" + &lines.collect::<String>()
    }

    /// Print the table while measuring `cells`, then its claims list.
    fn show(&self, cells: &[Cell]) -> Vec<Row> {
        let rows = table(self.key, self.cols, self.n, cells);
        print!("\n{}", claims::list(&claims::evaluate(self, &rows)));
        rows
    }
}

/// The key column of the per-app tables.
const BY_APP: Key = ("benchmark   ", |r| format!("{:<12}", r.cell.app));

const SC_MS: Col = ("SC (ms)", 12, |l| ms(l, "sc"));
const CUSTOM_MS: Col = ("custom (ms)", 14, |l| ms(l, "custom"));
const SPEEDUP: Col = ("speedup", 10, |l| ratio(l, "sc", "custom"));
const ADAPTIVE_MS: Col = ("adaptive (ms)", 14, |l| ms(l, "adaptive"));
const SWITCHES: Col = ("switches", 9, |l| by(l, "adaptive").out.counters.switches.to_string());

const FIG7A_COLS: [Col; 5] = [
    ("Ace (ms)", 12, |l| ms(l, "ace")),
    ("CRL (ms)", 12, |l| ms(l, "crl")),
    ("CRL/Ace", 10, |l| ratio(l, "crl", "ace")),
    ADAPTIVE_MS,
    ("paper", 12, |l| claims::column("fig7a", l)),
];

const FIG7B_COLS: [Col; 8] = [
    SC_MS,
    CUSTOM_MS,
    SPEEDUP,
    ADAPTIVE_MS,
    SWITCHES,
    ("custom wire/logical", 22, |l| {
        format!("{}/{}", by(l, "custom").out.wire_msgs, by(l, "custom").out.msgs)
    }),
    ("custom-nocoal (ms)", 19, |l| ms(l, "custom-nocoal")),
    ("paper", 30, |l| claims::column("fig7b", l)),
];

/// Table 4's columns: the four optimization levels (kernel-major cells,
/// [`OptLevel::ALL`](ace_lang::OptLevel::ALL) order), the hand kernel, and
/// how much slower the best level is than hand.
const TABLE4_COLS: [Col; 7] = [
    ("base", 9, |l| format!("{:.2}", l[0].ms())),
    ("LI", 9, |l| format!("{:.2}", l[1].ms())),
    ("LI+MC", 9, |l| format!("{:.2}", l[2].ms())),
    ("LI+MC+DC", 9, |l| format!("{:.2}", l[3].ms())),
    ("hand", 9, |l| ms(l, "hand")),
    ("best/hand", 10, |l| format!("{:.2}", l[3].ms() / by(l, "hand").ms())),
    ("paper", 38, |l| claims::column("table4", l)),
];

const SCALING_COLS: [Col; 5] = [SC_MS, CUSTOM_MS, SPEEDUP, ADAPTIVE_MS, SWITCHES];

/// Every table the harness writes, as the committed files hold it:
/// Figure 7a, Figure 7b and Table 4 at 8 ranks on the default inputs,
/// and the whole scaling sweep.
pub static FIGURES: [Figure; 4] = [
    Figure {
        table: "fig7a",
        key: BY_APP,
        cols: &FIG7A_COLS,
        n: 3,
        cells: |procs| Ok(grid(&APPS, &FIG7A, Input::Default, procs)),
    },
    Figure {
        table: "fig7b",
        key: BY_APP,
        cols: &FIG7B_COLS,
        n: 5,
        cells: |procs| Ok(grid(&APPS, &FIG7B, Input::Default, procs)),
    },
    Figure {
        table: "table4",
        key: ("kernel      ", |r| format!("{:<12}", r.cell.app)),
        cols: &TABLE4_COLS,
        n: 5,
        cells: |procs| table4_cells(procs).map_err(|e| e.to_string()),
    },
    Figure {
        table: "scaling",
        key: ("app       procs", |r| format!("{:<8} {:>6}", r.cell.app, r.cell.procs)),
        cols: &SCALING_COLS,
        n: 3,
        cells: |_| Ok(scaling_cells(&SCALING_APPS, 2, MAX_NODES)),
    },
];

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

/// The figure that writes `table`.
pub fn figure(table: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.table == table)
}

/// `ace-bench fig7a`.
pub fn fig7a(a: &Args) -> Result<(), String> {
    let (input, procs) = (a.input(), a.num("--procs", 8)?);
    println!("Figure 7a: Ace runtime vs CRL (SC protocol), {procs} procs");
    let rows = FIGURES[0].show(&grid(&APPS, &FIG7A, input, procs));
    println!("\n(simulated time on the CM-5-flavoured cost model; >1 means Ace is faster;");
    println!(" the adaptive column is Ace under the runtime protocol-selection engine)");
    write_json(a, "fig7a", &rows)?;
    write_trace(a, SC, procs)
}

/// `ace-bench fig7b`.
pub fn fig7b(a: &Args) -> Result<(), String> {
    let (input, procs) = (a.input(), a.num("--procs", 8)?);
    println!("Figure 7b: SC vs application-specific protocols in Ace, {procs} procs");
    let rows = FIGURES[1].show(&grid(&APPS, &FIG7B, input, procs));
    println!("\ncustom protocols: barnes=dynamic update, bsc=home-owned, em3d=static update,");
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
/// benchmark kernels, against hand-written runtime-system code: one line
/// per kernel (the cells are kernel-major: four levels, then hand).
pub fn table4(a: &Args) -> Result<(), String> {
    let procs = a.num("--procs", 8)?;
    let cells = table4_cells(procs).map_err(|e| e.to_string())?;
    println!("Table 4: compiler optimization effects ({procs} procs, simulated ms)");
    let rows = FIGURES[2].show(&cells);
    println!("\nverification, compiled at LI+MC+DC and hand:");
    for k in rows.chunks(5) {
        let (best, hand) = (&k[3].out, &k[4].out);
        println!("  {:<12} {:.6} {:.6}", k[0].cell.app, best.verification, hand.verification);
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
    let cols = [&SCALING_COLS[..], &walls].concat();
    let rows = table(FIGURES[3].key, &cols, 3, &scaling_cells(&apps, min, max));
    write_json(a, "scaling", &rows)
}

/// The sweep's cells, app-major: Figure 7b's first three configurations
/// (sc, custom, adaptive) at each power of two from `min` to `max`.
fn scaling_cells(apps: &[&'static str], min: usize, max: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &app in apps {
        let counts = std::iter::successors(Some(min.next_power_of_two()), |p| Some(p * 2));
        // Water's force phase is a wavefront of `2·owners − 1`
        // barrier-separated rounds per step, so its message count stays
        // quadratic in ranks however thin the input (3.2 M logical
        // messages at 1024); past 1024 the sweep would spend its host
        // time on those barriers.
        let ceiling = max.min(if app == "water" { 1024 } else { MAX_NODES });
        let counts = counts.take_while(|&p| p <= ceiling);
        cells.extend(counts.flat_map(|p| grid(&[app], &FIG7B[..3], Input::Weak, p)));
    }
    cells
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
        let rows = FIGURES[0].show(&grid(&APPS, &FIG7A, Input::Small, 4));
        assert_eq!(rows.len(), 15);
        for l in rows.chunks(3) {
            assert!(by(l, "ace").ms() > 0.0 && by(l, "crl").ms() > 0.0, "{}", l[0].cell.app);
            assert!(l.iter().all(|r| r.cell.app == l[0].cell.app), "cells are app-major");
        }
        let layout = FIGURES[0].layout(&rows);
        let table: Vec<&str> = layout.lines().collect();
        assert_eq!(table.len(), 6);
        assert!(table[0].ends_with("    CRL/Ace  adaptive (ms)        paper"), "{}", table[0]);
        let width = |l: &str| l.chars().count();
        assert!(table.iter().all(|l| width(l) == width(table[0])), "columns align: {table:#?}");
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
