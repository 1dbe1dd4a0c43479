//! The repo benchmark: two clocks, six workloads, a per-layer ladder and a
//! traced run at the `Dsm` boundary. See README.md for what each number is
//! for and BENCHMARK.json for the contract the driver holds it to.
//!
//! ```text
//! ace-benchmark run --workload <w> --seed <n> --seconds <s> --trace <0|1>
//! ace-benchmark all [--seed <n>[,<n>...]] [--seconds <s>] [--out <file>]
//! ace-benchmark layers
//! ace-benchmark trace --workload <w> [--seed <n>]
//! ace-benchmark compare <a.json> <b.json>
//! ```

mod calibrate;
mod compare;
mod layers;
mod pin;
mod report;
mod runner;
mod stats;
mod timed;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::RunRecord;

/// Marks the full record a `run` or `trace` child prints for `all` to collect.
const RECORD_PREFIX: &str = "record: ";

/// The benchmark's own directory: trace files and socket rendezvous files go
/// under its ignored `out/`, never outside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// This executable, for the children it runs as (`setup`, `calibrate`, and
/// the workload processes of `all`).
fn this_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))
}

/// Write `contents` to `path`, creating the directory it goes in.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn benchmark_json() -> Result<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read \"{v}\"")),
        }
    }

    fn workload(&self) -> Result<&str, String> {
        self.get("--workload").ok_or_else(|| "--workload is required".to_string())
    }
}

fn print_record(r: &RunRecord) {
    for m in &r.metrics {
        println!("{}", m.row());
    }
    println!("  ops_attempted {}  ops_failed {}  correct {}", r.attempted, r.failed, r.correct);
}

/// `run`: what the driver calls. `--trace 0` measures the end-to-end metrics
/// with tracing off; `--trace 1` is the traced run plus the layer ladder,
/// which together give every per-layer metric. The last line printed is the
/// driver's JSON object.
fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload()?;
    let seed = flags.parsed("--seed", 1u64)?;
    let seconds = flags.parsed("--seconds", 10.0f64)?;
    let record = match flags.parsed("--trace", 0u8)? {
        0 => runner::end_to_end(name, seed, seconds)?,
        1 => {
            let mut r = runner::traced(name, seed, &trace_file(name))?;
            r.metrics.extend(layers::run_all(&out_dir()));
            r
        }
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    print_record(&record);
    println!("{RECORD_PREFIX}{}", record.to_json());
    println!("{}", record.driver_line());
    Ok(true)
}

fn trace_file(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}.trace.json"))
}

/// `trace`: the traced run alone.
fn cmd_trace(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload()?;
    let file = trace_file(name);
    let record = runner::traced(name, flags.parsed("--seed", 1u64)?, &file)?;
    println!("{name}: traced run, spans in {}", file.display());
    print_record(&record);
    println!("{RECORD_PREFIX}{}", record.to_json());
    Ok(record.correct)
}

/// `layers`: the ladder alone.
fn cmd_layers() -> Result<bool, String> {
    println!(
        "per-layer ladder ({} micro / {} whole-app samples per rung)",
        layers::SAMPLES,
        layers::APP_SAMPLES
    );
    for m in layers::run_all(&out_dir()) {
        println!("{}", m.row());
    }
    Ok(true)
}

/// Run this executable as a child with `args`, echo its output, and return
/// the record it printed. Each workload gets a process of its own so that
/// peak memory and one-time initialisation belong to it alone.
fn child_record(args: &[&str]) -> Result<RunRecord, String> {
    let out = Command::new(this_exe()?)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start `{}`: {e}", args.join(" ")))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut record = None;
    for line in stdout.lines() {
        match line.strip_prefix(RECORD_PREFIX) {
            Some(json) => {
                record = Some(RunRecord::from_json(&ace_trace::jsonlite::parse(json)?)?);
            }
            // The driver's line is for the driver.
            None if line.starts_with("{\"correct\"") => {}
            None => println!("{line}"),
        }
    }
    if !out.status.success() {
        return Err(format!("`{}` failed: {}", args.join(" "), out.status));
    }
    record.ok_or_else(|| format!("`{}` printed no record", args.join(" ")))
}

/// `all`: every workload end to end and traced, on every seed given, then
/// the ladder; prints every metric and fails on any correctness mismatch.
fn cmd_all(flags: &Flags) -> Result<bool, String> {
    let seeds: Vec<u64> = flags
        .get("--seed")
        .unwrap_or("1")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("--seed: cannot read \"{s}\"")))
        .collect::<Result<_, _>>()?;
    let seconds = flags.parsed("--seconds", 10.0f64)?.to_string();
    let out = flags.get("--out").map_or_else(|| out_dir().join("result.json"), PathBuf::from);

    let mut records = Vec::new();
    for seed in seeds {
        let seed_arg = seed.to_string();
        for name in workloads::NAMES {
            println!("== {name}, seed {seed}: end to end ==");
            records.push(child_record(&[
                "run",
                "--workload",
                name,
                "--seed",
                &seed_arg,
                "--seconds",
                &seconds,
                "--trace",
                "0",
            ])?);
            println!("== {name}, seed {seed}: traced ==");
            records.push(child_record(&["trace", "--workload", name, "--seed", &seed_arg])?);
        }
        let sim = |w: &str| {
            records
                .iter()
                .find(|r| !r.traced && r.workload == w && r.seed == seed)
                .and_then(|r| r.metric("sim_ms"))
                .map(|m| m.summary.value)
        };
        if let (Some(sc), Some(update)) = (sim("em3d_sc"), sim("em3d_update")) {
            println!(
                "== seed {seed}: Fig 7b EM3D speedup = em3d_sc.sim_ms / em3d_update.sim_ms = {sc:.3} / {update:.3} = {:.2} ==",
                sc / update
            );
        }
    }
    println!("== per-layer ladder ==");
    let metrics = layers::run_all(&out_dir());
    let ladder = RunRecord {
        workload: "layers".into(),
        seed: 0,
        traced: true,
        correct: true,
        attempted: metrics.len() as u64,
        failed: 0,
        metrics,
    };
    print_record(&ladder);
    records.push(ladder);

    write_file(&out, &report::result_file(&records))?;
    println!("wrote {} records to {}", records.len(), out.display());
    let bad: Vec<String> = records
        .iter()
        .filter(|r| !r.correct)
        .map(|r| format!("{} seed {}", r.workload, r.seed))
        .collect();
    if !bad.is_empty() {
        println!("INCORRECT: {}", bad.join(", "));
    }
    Ok(bad.is_empty())
}

/// `compare a.json b.json`.
fn cmd_compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| report::parse_result_file(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (read(a)?, read(b)?);
    let rows = compare::compare(&a, &b, &compare::bounds(&benchmark_json()?)?)?;
    Ok(compare::print(&a, &b, &rows))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let sub = args.next().unwrap_or_default();
    let flags = Flags(args.collect());
    // `compare` measures nothing; everything else pins before any thread
    // exists (see pin.rs).
    if sub != "compare" && pin::pin_to_one_cpu().is_none() {
        eprintln!("ace-benchmark: could not pin to one CPU; wall times will be noisier");
    }
    let done = match sub.as_str() {
        "run" => cmd_run(&flags),
        "all" => cmd_all(&flags),
        "layers" => cmd_layers(),
        "trace" => cmd_trace(&flags),
        "compare" => cmd_compare(&flags.0),
        "calibrate" => calibrate::serve().map(|()| true),
        "setup" => flags
            .workload()
            .and_then(|w| runner::setup_once(w, flags.parsed("--seed", 1u64)?))
            .map(|()| true),
        _ => Err("usage: ace-benchmark run|all|layers|trace|compare ... (see README.md)".into()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ace-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
