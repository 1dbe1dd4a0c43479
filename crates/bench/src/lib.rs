//! The harness reproducing the paper's evaluation (§5), behind the one
//! `ace-bench` binary.
//!
//! * [`cell`] — the one measurement path: a figure is a list of cells
//!   `(app, config, what runs, input, procs, machine tweak)`, and
//!   `measure(cell)` turns a cell into a row.
//! * [`figures`] — Figure 7a (Ace vs CRL under the default protocol),
//!   Figure 7b (SC vs application-specific protocols in Ace), the
//!   conformance-checker overhead table, Table 4 and the processor-count
//!   scaling sweep, each as cells, a pivot into printed lines, and notes.
//! * [`json`] — the one row writer.
//! * [`verify`] — the CI gates over the written rows.
//! * [`acec`] — the Ace-C benchmark kernels and their hand-written
//!   runtime-system counterparts for the compiler evaluation (Table 4).
//! * [`ablation`], [`tracecheck`], [`args`] — the remaining subcommands
//!   and the one argument parser.
//!
//! Per-layer host-time measurements live in the repo benchmark
//! (`benchmark/`, `-- layers`).

// The Table 4 kernels transliterate the paper's C loops; explicit indexing is the idiom.
#![allow(clippy::needless_range_loop)]

pub mod ablation;
pub mod acec;
pub mod args;
pub mod cell;
pub mod figures;
pub mod json;
pub mod tracecheck;
pub mod verify;
