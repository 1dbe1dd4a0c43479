//! `ace-bench`: the one harness binary behind the paper's evaluation (§5).
//!
//! ```text
//! ace-bench fig7a      [--small] [--paper] [--procs N] [--json [PATH]] [--trace PATH]
//! ace-bench fig7b      [--small] [--paper] [--procs N] [--json [PATH]] [--trace PATH]
//! ace-bench check      [APP,...] [--small] [--paper] [--procs N]
//! ace-bench table4     [--procs N] [--json [PATH]] [--trace PATH]
//! ace-bench scaling    [--app APP[,APP]] [--min N] [--max N] [--json [PATH]] [--smoke]
//! ace-bench ablation
//! ace-bench tracecheck [--procs N] [--out PATH] [--validate FILE...]
//! ace-bench report
//! ```
//!
//! * `fig7a`, `fig7b`, `table4`, `scaling` print the paper's tables
//!   (simulated ms; each cell runs once, and on x86-64 unix every run of
//!   it gives the same row), each figure's paper column and claims list
//!   under it; `--json` writes the rows to PATH, or bare to
//!   `BENCH_<table>.json` at the repo root, where CI regenerates them and
//!   runs `git diff --exit-code`; `--trace` re-runs EM3D traced and
//!   writes Chrome `trace_event` JSON for Perfetto.
//! * `check` prints the conformance-checker overhead table and fails on a
//!   violation or when a checked run's simulated time is not the
//!   unchecked run's.
//! * `report` holds the four committed `BENCH_*.json` files to the claims
//!   (`claims.rs`) and rewrites EXPERIMENTS.md's marked blocks from them;
//!   it fails on a malformed file or a claim that does not hold where no
//!   deviation is recorded.
//! * `scaling --smoke` and `tracecheck` are CI gates too: EM3D at 256
//!   nodes, and the trace layer (or, with `--validate`, already-written
//!   trace files).
//!
//! Exit status: 0 on success, 1 when a run or gate fails, 2 (with the
//! usage text on stderr) on an unknown subcommand or flag, a flag whose
//! value is missing, a stray positional argument or an empty FILE list.
//! The flags each subcommand accepts are one table in `args.rs`.

use std::process::ExitCode;

use ace_bench::args::{usage, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ace-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match (args.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ace-bench: {e}");
            ExitCode::from(1)
        }
    }
}
