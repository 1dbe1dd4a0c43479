//! The paper's claims about its evaluation (§5) and this repository's own
//! acceptance bars, as one table of data ([`CLAIMS`]); the one function
//! that holds a figure's rows to them ([`evaluate`]); and `ace-bench
//! report`, which reads the four committed `BENCH_*.json` files back, holds
//! them to the claims and rewrites EXPERIMENTS.md's marked blocks with the
//! rows laid out through the figures' own columns.
//!
//! A bound says how far a shape may erode, not how much noise to allow: a
//! row repeats exactly, and that a file still reproduces from the source
//! is CI's regenerate + `git diff --exit-code`. A claim that does not hold
//! on a line fails `report` unless the claim records, in one line, why the
//! line deviates; a recorded reason on a line where the claim holds fails
//! it too, so a deviation is dropped when it is mended. A paper claim's
//! bound is the paper's number: its range's ends where it gives a range,
//! and [`Bound::About`] where it gives a figure to one digit ("≈2").

use std::fmt;
use std::path::Path;

use ace_apps::runner::RunOutcome;
use ace_core::OpCounters;
use ace_lang::OptLevel;
use ace_trace::jsonlite::{self, Json};

use crate::args::{repo_root, Args};
use crate::cell::Row;
use crate::figures::{by, figure, Figure, FIGURES};

/// What a claim's measure must come to.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// Strictly less than.
    Below(f64),
    /// At most.
    AtMost(f64),
    /// At least.
    AtLeast(f64),
    /// Strictly more than.
    Above(f64),
    /// Within the closed range.
    Within(f64, f64),
    /// Exactly.
    Exactly(f64),
    /// The paper's "≈x": within a quarter of x either way.
    About(f64),
}

impl Bound {
    fn holds(self, x: f64) -> bool {
        match self {
            Bound::Below(b) => x < b,
            Bound::AtMost(b) => x <= b,
            Bound::AtLeast(b) => x >= b,
            Bound::Above(b) => x > b,
            Bound::Within(lo, hi) => (lo..=hi).contains(&x),
            Bound::Exactly(b) => x == b,
            Bound::About(b) => (b * 0.75..=b * 1.25).contains(&x),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bound::Below(b) => write!(f, "< {b}"),
            Bound::AtMost(b) => write!(f, "≤ {b}"),
            Bound::AtLeast(b) => write!(f, "≥ {b}"),
            Bound::Above(b) => write!(f, "> {b}"),
            Bound::Within(lo, hi) => write!(f, "in {lo}–{hi}"),
            Bound::Exactly(b) => write!(f, "= {b}"),
            Bound::About(b) => write!(f, "≈ {b} ±25 %"),
        }
    }
}

/// The lines of its figure a claim is held on.
#[derive(Debug, Clone, Copy)]
pub enum Lines {
    /// Each of these lines (apps, or Table 4's kernels).
    Each(&'static [&'static str]),
    /// Every line.
    Every,
    /// The figure as a whole, once.
    Table,
}

/// One claim: a measure over a figure's rows and the bound it must meet.
pub struct Claim {
    /// Its name: a failure starts with `[name]`.
    pub name: &'static str,
    /// The BENCH table it reads.
    pub table: &'static str,
    /// The lines it is held on.
    pub lines: Lines,
    /// What the measure is, as printed.
    pub what: &'static str,
    /// The measure, on one line's rows (the whole figure's for
    /// [`Lines::Table`]).
    pub measure: fn(&[Row]) -> f64,
    /// What the measure must come to.
    pub bound: Bound,
    /// The paper's words; empty for this repository's own acceptance bars.
    pub paper: &'static str,
    /// The lines where the claim does not hold, each with its reason.
    pub deviations: &'static [(&'static str, &'static str)],
}

fn sim(l: &[Row], config: &str) -> f64 {
    by(l, config).out.sim_ns as f64
}

fn level(l: &[Row], level: OptLevel) -> f64 {
    sim(l, level.label())
}

/// Figure 7b's per-app speedup of the custom protocols over SC.
fn speedup(l: &[Row]) -> f64 {
    sim(l, "sc") / sim(l, "custom")
}

/// Table 4's largest ratio of a level's time to the level before it.
fn slowest_step(l: &[Row]) -> f64 {
    let levels = OptLevel::ALL.map(|v| level(l, v));
    levels.windows(2).map(|w| w[1] / w[0]).fold(0.0, f64::max)
}

const BSC_LEVEL: &str =
    "bulk block transfer, which SC already does, carries BSC's traffic, so the \
     home-owned protocol has nothing left to save: it sends 1 290 messages to SC's 1 262";

const FAST_PATH: &str =
    "the in-state fast path charges the compiled kernel's leftover annotations \
     120 simulated ns a pair, so the hand kernel leads by about 2 %";

/// Every claim, figure by figure.
pub static CLAIMS: [Claim; 18] = [
    Claim {
        name: "ace-ahead",
        table: "fig7a",
        lines: Lines::Each(&["barnes", "em3d"]),
        what: "CRL / Ace",
        measure: |l| sim(l, "crl") / sim(l, "ace"),
        bound: Bound::AtLeast(1.1),
        paper: "Ace's SC protocol and \"more efficient mapping technique\" beat CRL on the \
                fine-grained Barnes-Hut and EM3D",
        deviations: &[],
    },
    Claim {
        name: "bsc-tie",
        table: "fig7a",
        lines: Lines::Each(&["bsc"]),
        what: "CRL / Ace",
        measure: |l| sim(l, "crl") / sim(l, "ace"),
        bound: Bound::Within(0.95, 1.05),
        paper: "on BSC \"the additional indirection in the dispatch of protocol calls in Ace \
                nullifies the effects of the runtime system optimizations\"",
        deviations: &[],
    },
    // Coalescing batches EM3D's update fan-out: far fewer wire envelopes,
    // and no more simulated time than with every message on its own.
    Claim {
        name: "coalescing-wire",
        table: "fig7b",
        lines: Lines::Each(&["em3d"]),
        what: "custom wire envelopes / custom-nocoal's",
        measure: |l| {
            by(l, "custom").out.wire_msgs as f64 / by(l, "custom-nocoal").out.wire_msgs as f64
        },
        bound: Bound::Below(0.8),
        paper: "",
        deviations: &[],
    },
    Claim {
        name: "coalescing-sim",
        table: "fig7b",
        lines: Lines::Each(&["em3d"]),
        what: "custom / custom-nocoal",
        measure: |l| sim(l, "custom") / sim(l, "custom-nocoal"),
        bound: Bound::Below(1.15),
        paper: "",
        deviations: &[],
    },
    Claim {
        name: "nocoal-exact",
        table: "fig7b",
        lines: Lines::Every,
        what: "custom-nocoal wire envelopes / messages",
        measure: |l| {
            let r = &by(l, "custom-nocoal").out;
            r.wire_msgs as f64 / r.msgs as f64
        },
        bound: Bound::Exactly(1.0),
        paper: "",
        deviations: &[],
    },
    // Where a static assignment wins big, the engine picking at run time
    // ties the best one with no hint.
    Claim {
        name: "adaptive-tie",
        table: "fig7b",
        lines: Lines::Each(&["em3d", "water"]),
        what: "adaptive / the better of SC and custom",
        measure: |l| sim(l, "adaptive") / sim(l, "sc").min(sim(l, "custom")),
        bound: Bound::AtMost(1.05),
        paper: "",
        deviations: &[],
    },
    Claim {
        name: "adaptive-switches",
        table: "fig7b",
        lines: Lines::Table,
        what: "protocol installs and switches over the adaptive rows",
        measure: |rows| {
            let adaptive = rows.iter().filter(|r| r.cell.config == "adaptive");
            adaptive.map(|r| r.out.counters.switches as f64).sum()
        },
        bound: Bound::Above(0.0),
        paper: "",
        deviations: &[],
    },
    Claim {
        name: "speedup-range",
        table: "fig7b",
        lines: Lines::Every,
        what: "SC / custom",
        measure: speedup,
        // The range's top is EM3D's, which `em3d-static` holds.
        bound: Bound::AtLeast(1.02),
        paper: "\"The speedups range from a factor of 1.02 to 5\"",
        deviations: &[("bsc", BSC_LEVEL)],
    },
    Claim {
        name: "speedup-average",
        table: "fig7b",
        lines: Lines::Table,
        what: "mean SC / custom",
        measure: |rows| {
            let lines = rows.chunk_by(|a, b| a.cell.app == b.cell.app);
            let speedups: Vec<f64> = lines.map(speedup).collect();
            speedups.iter().sum::<f64>() / speedups.len() as f64
        },
        bound: Bound::About(2.0),
        paper: "\"average speedup is approx. 2\"",
        deviations: &[(
            "fig7b",
            "TSP's fetch-and-add counter reads 4.1× (SC sends 1 699 messages to its 165) beside \
             EM3D's 5.2×, which lifts the mean of the five apps above 2",
        )],
    },
    Claim {
        name: "em3d-static",
        table: "fig7b",
        lines: Lines::Each(&["em3d"]),
        what: "SC / custom",
        measure: speedup,
        bound: Bound::About(5.0),
        paper: "EM3D under static update ≈5× SC (§3.3)",
        deviations: &[],
    },
    Claim {
        name: "bsc-marginal",
        table: "fig7b",
        lines: Lines::Each(&["bsc"]),
        what: "SC / custom",
        measure: speedup,
        // The paper's gain, and no more than a marginal one.
        bound: Bound::Within(1.02, 1.1),
        paper: "BSC's home-owned blocks gain marginally (1.02)",
        deviations: &[("bsc", BSC_LEVEL)],
    },
    Claim {
        name: "water-phases",
        table: "fig7b",
        lines: Lines::Each(&["water"]),
        what: "SC / custom",
        measure: speedup,
        bound: Bound::About(2.0),
        paper: "Water's phase protocols (null, then pipelined writes) ≈2× SC",
        deviations: &[(
            "water",
            "SC's force reduction writes each touched molecule once, in a wavefront over the \
             space barrier, which spares SC most of the exclusive-ownership misses the phase \
             protocols save",
        )],
    },
    // The compiler's ladder: no level meaningfully hurts, full
    // optimization does not lose to the base case, and the hand kernel
    // does not lose to the best compiled level.
    Claim {
        name: "level-step",
        table: "table4",
        lines: Lines::Every,
        what: "slowest level / the level before it",
        measure: slowest_step,
        bound: Bound::AtMost(1.25),
        paper: "",
        deviations: &[],
    },
    Claim {
        name: "levels-lower",
        table: "table4",
        lines: Lines::Every,
        what: "slowest level / the level before it",
        measure: slowest_step,
        bound: Bound::AtMost(1.0),
        paper: "each optimization lowers the time of every kernel",
        deviations: &[],
    },
    Claim {
        name: "full-vs-base",
        table: "table4",
        lines: Lines::Every,
        what: "LI+MC+DC / base",
        measure: |l| level(l, OptLevel::Direct) / level(l, OptLevel::O0),
        bound: Bound::AtMost(1.15),
        paper: "",
        deviations: &[],
    },
    Claim {
        name: "hand-vs-compiled",
        table: "table4",
        lines: Lines::Every,
        what: "hand / LI+MC+DC",
        measure: |l| sim(l, "hand") / level(l, OptLevel::Direct),
        bound: Bound::AtMost(1.25),
        paper: "",
        deviations: &[],
    },
    Claim {
        name: "hand-fastest",
        table: "table4",
        lines: Lines::Every,
        what: "LI+MC+DC / hand",
        measure: |l| level(l, OptLevel::Direct) / sim(l, "hand"),
        bound: Bound::Within(1.1, 1.3),
        paper: "\"the best compiler versions are 1.1–1.3 times slower than the runtime system \
                versions\"",
        deviations: &[
            (
                "Barnes-Hut",
                "compiled beats hand by 5.5 %: an SC home write no longer re-invalidates ranks \
                 an earlier one invalidated, which cut the compiled rows' messages, while the \
                 hand kernel, mapped to every body, pays more update fan-out",
            ),
            ("EM3D", FAST_PATH),
            ("TSP", FAST_PATH),
            (
                "WATER",
                "both kernels shed about 0.13 ms once a message alone in its envelope packs \
                 for nothing (LI+MC+DC 8.396 → 8.266 ms, hand 6.459 → 6.323 ms); the same \
                 saving is a larger share of the smaller hand time, which lifts the ratio \
                 from 1.300 to 1.307",
            ),
        ],
    },
    Claim {
        name: "bsc-li",
        table: "table4",
        lines: Lines::Each(&["BSC"]),
        what: "base / LI",
        measure: |l| level(l, OptLevel::O0) / level(l, OptLevel::Licm),
        bound: Bound::About(3.6),
        paper: "loop invariance's largest win is BSC's matrix-product loops, 20.39 → 5.60 s",
        deviations: &[],
    },
];

/// One claim held on one line (or on the whole figure).
pub struct Verdict {
    /// The claim.
    pub claim: &'static Claim,
    /// The line's key: its app or kernel, or the figure's table.
    pub line: &'static str,
    /// What the claim's measure came to there.
    pub value: f64,
}

impl Verdict {
    /// Whether the bound holds.
    pub fn holds(&self) -> bool {
        self.claim.bound.holds(self.value)
    }

    /// The reason the claim records for deviating on this line.
    pub fn reason(&self) -> Option<&'static str> {
        self.claim.deviations.iter().find(|(line, _)| *line == self.line).map(|&(_, why)| why)
    }
}

/// Every claim on `fig`, held on `rows` (line-major, `fig.n` rows to a
/// line): the one evaluation behind `report`, the figures' paper column
/// and the tests.
pub fn evaluate(fig: &Figure, rows: &[Row]) -> Vec<Verdict> {
    let lines: Vec<&[Row]> = rows.chunks(fig.n).collect();
    let mut verdicts = Vec::new();
    for claim in CLAIMS.iter().filter(|c| c.table == fig.table) {
        let on: Vec<(&'static str, &[Row])> = match claim.lines {
            Lines::Table => vec![(fig.table, rows)],
            Lines::Every => lines.iter().map(|l| (l[0].cell.app, *l)).collect(),
            Lines::Each(apps) => lines
                .iter()
                .filter(|l| apps.contains(&l[0].cell.app))
                .map(|l| (l[0].cell.app, *l))
                .collect(),
        };
        verdicts.extend(on.into_iter().map(|(line, l)| Verdict {
            claim,
            line,
            value: (claim.measure)(l),
        }));
    }
    verdicts
}

/// [`evaluate`], failing with every claim that does not hold on a line
/// where it records no reason, and every recorded reason on a line where
/// its claim holds.
pub fn check(fig: &Figure, rows: &[Row]) -> Result<Vec<Verdict>, String> {
    let verdicts = evaluate(fig, rows);
    let errors: Vec<String> = verdicts
        .iter()
        .filter_map(|v| {
            let (c, line, value) = (v.claim, v.line, v.value);
            match (v.holds(), v.reason()) {
                (false, None) => Some(format!(
                    "[{}] {line}: {} {value:.3}, not {} (no deviation recorded)",
                    c.name, c.what, c.bound
                )),
                (true, Some(_)) => Some(format!(
                    "[{}] {line}: {} {value:.3} holds; drop its recorded deviation",
                    c.name, c.what
                )),
                _ => None,
            }
        })
        .collect();
    if errors.is_empty() {
        Ok(verdicts)
    } else {
        Err(errors.join("\n"))
    }
}

fn mark(holds: bool) -> &'static str {
    if holds {
        "✓"
    } else {
        "✗"
    }
}

/// The paper column of `table`'s line `l`: each paper claim held on it,
/// marked; the claims list under the table says what each one is.
pub fn column(table: &str, l: &[Row]) -> String {
    let fig = figure(table).expect("a figure's own table");
    let on = evaluate(fig, l)
        .into_iter()
        .filter(|v| !v.claim.paper.is_empty() && !matches!(v.claim.lines, Lines::Table));
    let marks: Vec<String> = on.map(|v| format!("{} {}", mark(v.holds()), v.claim.name)).collect();
    if marks.is_empty() {
        "—".into()
    } else {
        marks.join(" ")
    }
}

/// The claims list printed under a figure: per claim, its mark, measure,
/// bound and value on each line, the paper's words and any deviation.
pub fn list(verdicts: &[Verdict]) -> String {
    let mut out = String::new();
    let mut rest = verdicts;
    while let Some(first) = rest.first() {
        let n = rest.iter().take_while(|v| std::ptr::eq(v.claim, first.claim)).count();
        let (same, tail) = rest.split_at(n);
        rest = tail;
        let c = first.claim;
        let values: Vec<String> = same
            .iter()
            .map(|v| format!("{} {:.3}{}", v.line, v.value, if v.holds() { "" } else { " ✗" }))
            .collect();
        let holds = same.iter().all(Verdict::holds);
        out += &format!(
            "{} [{}] {} {}: {}\n",
            mark(holds),
            c.name,
            c.what,
            c.bound,
            values.join(", ")
        );
        if !c.paper.is_empty() {
            out += &format!("    paper: {}\n", c.paper);
        }
        for v in same.iter().filter(|v| !v.holds()) {
            if let Some(why) = v.reason() {
                out += &format!("    {} deviates: {why}\n", v.line);
            }
        }
    }
    out
}

fn num(row: &Json, key: &str) -> Result<f64, String> {
    row.get(key).and_then(Json::as_f64).ok_or_else(|| format!("[schema] row lacks numeric `{key}`"))
}

fn text<'a>(row: &'a Json, key: &str) -> Result<&'a str, String> {
    row.get(key).and_then(Json::as_str).ok_or_else(|| format!("[schema] row lacks string `{key}`"))
}

/// One gate: `Err` names it unless `holds`.
fn gate(name: &str, holds: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("[{name}] {}", detail()))
    }
}

/// Read a `BENCH_*.json` document back into rows: the figure its rows'
/// `table` names (for a file named `BENCH_<table>.json`, the one the name
/// says), holding every cell that figure measures, in the order it
/// measures them, each with a positive time and no more wire envelopes
/// than messages. A row holds what the harness writes — `sim_ns`, `msgs`,
/// `wire_msgs`, `bytes` and the switch count — and nothing else.
pub fn load(path: &str, doc: &str) -> Result<(&'static Figure, Vec<Row>), String> {
    let root = jsonlite::parse(doc).map_err(|e| format!("[schema] {e}"))?;
    let rows = root.as_arr().ok_or("[schema] top level must be an array of rows")?;
    let table = text(rows.first().ok_or("[row-count] no rows")?, "table")?;
    let file = Path::new(path).file_name().and_then(|f| f.to_str()).unwrap_or(path);
    let named = file.strip_prefix("BENCH_").and_then(|f| f.strip_suffix(".json"));
    gate("table", named.is_none_or(|t| t == table), || format!("{file} holds `{table}` rows"))?;
    let fig = figure(table).ok_or_else(|| format!("[table] unknown table `{table}`"))?;
    let cells =
        (fig.cells)(num(&rows[0], "procs")? as usize).map_err(|e| format!("[schema] {e}"))?;
    gate("row-count", rows.len() == cells.len(), || {
        format!("{table}: {} rows, want {}", rows.len(), cells.len())
    })?;
    let rows = rows.iter().zip(cells).map(|(r, cell)| {
        gate("table", text(r, "table")? == table, || format!("a row outside `{table}`"))?;
        let (app, config, procs) = (text(r, "app")?, text(r, "config")?, num(r, "procs")?);
        gate(
            "schema",
            (app, config, procs as usize) == (cell.app, cell.config, cell.procs),
            || {
                format!(
                    "row {app}/{config}/{procs} where {table} measures {}/{}/{}",
                    cell.app, cell.config, cell.procs
                )
            },
        )?;
        let [sim_ns, msgs, wire_msgs, bytes, switches] =
            ["sim_ns", "msgs", "wire_msgs", "bytes", "switches"]
                .map(|k| num(r, k).map(|v| v as u64));
        let (sim_ns, msgs, wire_msgs) = (sim_ns?, msgs?, wire_msgs?);
        let who = format!("{app}/{config}");
        gate("positive", sim_ns > 0 && msgs > 0, || {
            format!("{who}: sim_ns {sim_ns}, msgs {msgs}")
        })?;
        gate("wire<=msgs", 0 < wire_msgs && wire_msgs <= msgs, || {
            format!("{who}: {wire_msgs} wire envelopes for {msgs} messages")
        })?;
        let counters = OpCounters { switches: switches?, ..OpCounters::default() };
        let out = RunOutcome {
            sim_ns,
            msgs,
            wire_msgs,
            bytes: bytes?,
            counters,
            ..RunOutcome::default()
        };
        Ok(Row { cell, out })
    });
    Ok((fig, rows.collect::<Result<_, String>>()?))
}

/// One file's EXPERIMENTS.md block: its rows laid out through its figure's
/// columns, then the figure's claims list. Fails as [`load`] and
/// [`check`] do.
pub fn render(path: &str, doc: &str) -> Result<String, String> {
    let (fig, rows) = load(path, doc)?;
    let verdicts = check(fig, &rows)?;
    let claims = list(&verdicts);
    let gap = if claims.is_empty() { "" } else { "\n" };
    Ok(format!("```text\n{}{gap}{claims}```\n", fig.layout(&rows)))
}

/// Replace what lies between `table`'s markers in `md` with `block`.
fn splice(md: &str, table: &str, block: &str) -> Result<String, String> {
    let (open, close) = (format!("<!-- report:{table} -->\n"), format!("<!-- /report:{table} -->"));
    let start = md
        .find(&open)
        .ok_or_else(|| format!("[schema] EXPERIMENTS.md has no `{}`", open.trim()))?;
    let start = start + open.len();
    let end = md[start..]
        .find(&close)
        .ok_or_else(|| format!("[schema] EXPERIMENTS.md has no `{close}`"))?;
    Ok(format!("{}{block}{}", &md[..start], &md[start + end..]))
}

/// `ace-bench report`: hold the four committed `BENCH_*.json` files to the
/// claims and rewrite EXPERIMENTS.md's marked blocks from them.
pub fn report(_: &Args) -> Result<(), String> {
    let root = repo_root();
    let read =
        |name: &str| std::fs::read_to_string(root.join(name)).map_err(|e| format!("{name}: {e}"));
    let mut md = read("EXPERIMENTS.md")?;
    for fig in &FIGURES {
        let name = format!("BENCH_{}.json", fig.table);
        let block = render(&name, &read(&name)?).map_err(|e| format!("{name}: {e}"))?;
        print!("{name}:\n{block}\n");
        md = splice(&md, fig.table, &block)?;
    }
    std::fs::write(root.join("EXPERIMENTS.md"), md)
        .map_err(|e| format!("cannot write EXPERIMENTS.md: {e}"))?;
    println!("rewrote the blocks of EXPERIMENTS.md");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    const FIG7A: &str = include_str!("../../../BENCH_fig7a.json");
    const FIG7B: &str = include_str!("../../../BENCH_fig7b.json");
    const TABLE4: &str = include_str!("../../../BENCH_table4.json");
    const SCALING: &str = include_str!("../../../BENCH_scaling.json");

    /// `doc` (a committed file) with `edit` applied to each row's outcome.
    fn edited(doc: &str, edit: impl Fn(&str, &str, &mut RunOutcome)) -> String {
        let (fig, mut rows) = load("rows.json", doc).unwrap();
        for r in &mut rows {
            edit(r.cell.app, r.cell.config, &mut r.out);
        }
        json::render(fig.table, &rows)
    }

    /// What `doc` holds for `app` under `config`.
    fn outcome(doc: &str, app: &str, config: &str) -> RunOutcome {
        let (_, rows) = load("rows.json", doc).unwrap();
        rows.into_iter().find(|r| r.cell.app == app && r.cell.config == config).unwrap().out
    }

    fn fig7b(edit: impl Fn(&str, &str, &mut RunOutcome)) -> Result<String, String> {
        render("rows.json", &edited(FIG7B, edit))
    }

    fn assert_gate(result: Result<String, String>, gate: &str) {
        let err = result.expect_err(gate);
        assert!(err.starts_with(&format!("[{gate}]")), "wanted gate [{gate}], got: {err}");
    }

    #[test]
    fn the_committed_files_render() {
        for (name, doc) in [
            ("BENCH_fig7a.json", FIG7A),
            ("BENCH_fig7b.json", FIG7B),
            ("BENCH_table4.json", TABLE4),
            ("BENCH_scaling.json", SCALING),
        ] {
            let block = render(name, doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(block.starts_with("```text\n") && block.ends_with("```\n"), "{block}");
        }
        // A file's rows render back to the file: load reads what json writes.
        let (fig, rows) = load("BENCH_fig7b.json", FIG7B).unwrap();
        assert_eq!(json::render(fig.table, &rows), FIG7B);
    }

    #[test]
    fn wrong_row_count_names_the_gate() {
        let drop_last = |doc: &str| {
            let (fig, rows) = load("rows.json", doc).unwrap();
            json::render(fig.table, &rows[..rows.len() - 1])
        };
        assert_gate(render("a.json", &drop_last(FIG7A)), "row-count");
        assert_gate(render("a.json", &drop_last(FIG7B)), "row-count");
        assert_gate(render("a.json", "[]"), "row-count");
        assert_gate(render("a.json", "{\"rows\": 3}"), "schema");
        // A row in the wrong place is not the cell the figure measures there.
        assert_gate(render("a.json", &FIG7B.replacen("\"sc\"", "\"custom\"", 1)), "schema");
    }

    #[test]
    fn a_file_must_hold_the_table_its_name_says_and_a_known_one() {
        // Well-formed fig7a rows in BENCH_fig7b.json would skip every fig7b claim.
        assert_gate(render("../BENCH_fig7b.json", FIG7A), "table");
        assert_gate(render("a.json", &FIG7A.replace("fig7a", "fig7c")), "table");
        let mixed = FIG7A.replacen("fig7a", "fig7b", 2).replacen("fig7b", "fig7a", 1);
        assert_gate(render("a.json", &mixed), "table");
    }

    #[test]
    fn wire_above_logical_names_the_gate() {
        let worse = |app: &str, c: &str, o: &mut RunOutcome| {
            if app == "tsp" && c == "sc" {
                o.wire_msgs = o.msgs + 1;
            }
        };
        assert_gate(fig7b(worse), "wire<=msgs");
        assert_gate(
            fig7b(|app, c, o| o.sim_ns *= !(app == "bsc" && c == "custom") as u64),
            "positive",
        );
    }

    #[test]
    fn em3d_coalescing_gates_name_themselves() {
        let nocoal_wire = outcome(FIG7B, "em3d", "custom-nocoal").wire_msgs;
        assert_gate(
            fig7b(|app, c, o| {
                if app == "em3d" && c == "custom" {
                    o.wire_msgs = nocoal_wire * 8 / 10 + 1;
                }
            }),
            "coalescing-wire",
        );
        // The custom run at 1.15x the uncoalesced one's simulated time.
        let custom = outcome(FIG7B, "em3d", "custom").sim_ns as f64;
        assert_gate(
            fig7b(|app, c, o| {
                if app == "em3d" && c == "custom-nocoal" {
                    o.sim_ns = (custom / 1.15) as u64;
                }
            }),
            "coalescing-sim",
        );
    }

    #[test]
    fn uncoalesced_run_must_send_one_envelope_per_message() {
        let edit = |app: &str, c: &str, o: &mut RunOutcome| {
            o.wire_msgs -= (app == "em3d" && c == "custom-nocoal") as u64
        };
        assert_gate(fig7b(edit), "nocoal-exact");
    }

    #[test]
    fn adaptive_gates_name_themselves() {
        let best = |app| outcome(FIG7B, app, "sc").sim_ns.min(outcome(FIG7B, app, "custom").sim_ns);
        for slow in ["em3d", "water"] {
            let best = best(slow);
            let edit = |app: &str, c: &str, o: &mut RunOutcome| {
                if app == slow && c == "adaptive" {
                    o.sim_ns = best * 1051 / 1000;
                }
            };
            assert_gate(fig7b(edit), "adaptive-tie");
            // 5 % over the best static assignment is still a tie.
            let edit = |app: &str, c: &str, o: &mut RunOutcome| {
                if app == slow && c == "adaptive" {
                    o.sim_ns = best * 105 / 100;
                }
            };
            assert!(fig7b(edit).is_ok());
        }
        // Other apps are not held to it.
        assert!(fig7b(|app, c, o| o.sim_ns *= 1 + (app == "tsp" && c == "adaptive") as u64).is_ok());
        assert_gate(fig7b(|_, _, o| o.counters.switches = 0), "adaptive-switches");
    }

    #[test]
    fn a_recorded_deviation_renders_and_passes_and_an_unrecorded_one_fails() {
        let block = render("BENCH_table4.json", TABLE4).unwrap();
        assert!(block.contains("✗ [hand-fastest]"), "{block}");
        assert!(block.contains("Barnes-Hut 0.945 ✗") && block.contains("Barnes-Hut deviates: "));
        // BSC's hand kernel as slow as its best compiled level: no reason recorded.
        let bsc_best = outcome(TABLE4, "BSC", OptLevel::Direct.label()).sim_ns;
        let slow_hand = edited(TABLE4, |app, c, o| {
            if app == "BSC" && c == "hand" {
                o.sim_ns = bsc_best + 1;
            }
        });
        assert_gate(render("a.json", &slow_hand), "hand-fastest");
        // Barnes' deviation mended: its reason is stale.
        let barnes_best = outcome(TABLE4, "Barnes-Hut", OptLevel::Direct.label()).sim_ns;
        let mended = edited(TABLE4, |app, c, o| {
            if app == "Barnes-Hut" && c == "hand" {
                o.sim_ns = barnes_best * 10 / 12;
            }
        });
        let err = render("a.json", &mended).unwrap_err();
        assert!(err.starts_with("[hand-fastest] Barnes-Hut:") && err.contains("drop its"), "{err}");
    }

    #[test]
    fn a_block_replaces_only_what_its_markers_hold() {
        let md = "a\n<!-- report:fig7a -->\nold\n<!-- /report:fig7a -->\nb\n";
        let out = splice(md, "fig7a", "new\n").unwrap();
        assert_eq!(out, "a\n<!-- report:fig7a -->\nnew\n<!-- /report:fig7a -->\nb\n");
        assert_eq!(splice(&out, "fig7a", "new\n").unwrap(), out);
        assert!(splice(md, "fig7b", "x").unwrap_err().starts_with("[schema]"));
    }
}
