//! The one measurement path: a figure is a list of [`Cell`]s — an app
//! under one configuration on one machine — and [`measure`] turns a cell
//! into a [`Row`]. Every table the harness prints and every `BENCH_*.json`
//! row it writes comes through here.

use ace_apps::runner::{launch_ace_with, launch_crl_with, RunOutcome};
use ace_apps::{barnes, bsc, em3d, tsp, water, Dsm, Variant};
use ace_core::{CheckMode, CoalescePolicy, CostModel, MachineBuilder, Spmd, TraceConfig};
use ace_lang::OptLevel;

use crate::acec;

/// The five benchmarks, in the paper's order.
pub const APPS: [&str; 5] = ["barnes", "bsc", "em3d", "tsp", "water"];

/// The input a cell feeds its app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Fast inputs for CI-style runs.
    Small,
    /// Inputs near Table 3 (Barnes scaled to 1024 bodies so a laptop
    /// regenerates the figures in minutes; pass `--paper` for 16,384).
    Default,
    /// The full Table 3 inputs.
    Paper,
    /// Weak-scaled: work per node is constant, so the input grows with the
    /// cell's processor count (Barnes, EM3D and Water only).
    Weak,
}

/// What a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum What {
    /// The app on the Ace runtime under a protocol assignment.
    Ace(Variant),
    /// The same source on the CRL baseline (always the fixed SC protocol).
    Crl,
    /// The app's Table 4 kernel, compiled from Ace-C at one level.
    Compiled(OptLevel),
    /// The app's hand-written Table 4 kernel.
    Hand,
}

/// How a cell's machine departs from the figure default (cm5 costs, the
/// backend a builder that names none gets, coalescing on, no checker, no
/// trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tweak {
    /// The default machine.
    None,
    /// `CoalescePolicy::Off` on every node: one wire envelope per logical
    /// send.
    NoCoalesce,
    /// Network latency and per-byte cost scaled by this factor.
    Net(u64),
    /// The conformance checker in this mode.
    Check(CheckMode),
    /// Event tracing on; the row's outcome carries the trace.
    Traced,
}

/// One (app, configuration, machine) point of a figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Benchmark name (one of [`APPS`], or a Table 4 kernel name).
    pub app: &'static str,
    /// Configuration label within the table ("sc", "crl", "hand", ...).
    pub config: &'static str,
    /// What runs.
    pub what: What,
    /// On which input.
    pub input: Input,
    /// Simulated processor count.
    pub procs: usize,
    /// Machine tweak.
    pub tweak: Tweak,
}

/// `apps` x `configs`, app-major: the shape of every figure.
pub fn grid(
    apps: &[&'static str],
    configs: &[(&'static str, What, Tweak)],
    input: Input,
    procs: usize,
) -> Vec<Cell> {
    let cell = |app, &(config, what, tweak)| Cell { app, config, what, input, procs, tweak };
    apps.iter().flat_map(|&app| configs.iter().map(move |c| cell(app, c))).collect()
}

fn em3d_params(input: Input, procs: usize) -> em3d::Params {
    let paper = em3d::Params::paper();
    match input {
        Input::Small => em3d::Params::small(),
        Input::Default => {
            em3d::Params { e_nodes: 400, h_nodes: 400, degree: 6, steps: 20, ..paper }
        }
        Input::Paper => paper,
        Input::Weak => em3d::Params {
            e_nodes: 2 * procs,
            h_nodes: 2 * procs,
            degree: 3,
            steps: 2,
            hoist_maps: true,
            ..paper
        },
    }
}

fn barnes_params(input: Input, procs: usize) -> barnes::Params {
    match input {
        Input::Small => barnes::Params::small(),
        Input::Default => barnes::Params { bodies: 1024, steps: 2, theta: 1.0, seed: 3 },
        Input::Paper => barnes::Params::paper(),
        // One body per rank: Barnes' per-body force cost already grows
        // with the total body count, so this is the thinnest input
        // where every rank still owns tree work.
        Input::Weak => barnes::Params { bodies: procs, steps: 1, theta: 1.0, seed: 3 },
    }
}

fn water_params(input: Input, procs: usize) -> water::Params {
    match input {
        Input::Small => water::Params::small(),
        Input::Default => water::Params { molecules: 96, steps: 2, seed: 23 },
        Input::Paper => water::Params::paper(),
        // Capped at the paper's full 512-molecule input: the pair
        // phase is quadratic in molecules, so past 256 ranks the
        // sweep strong-scales the paper input instead.
        Input::Weak => water::Params { molecules: (2 * procs).min(512), steps: 1, seed: 23 },
    }
}

fn bsc_params(input: Input) -> bsc::Params {
    match input {
        Input::Small => bsc::Params::small(),
        Input::Default => bsc::Params { nblocks: 12, block: 16, band: 4, seed: 5 },
        Input::Paper => bsc::Params::paper(),
        Input::Weak => panic!("bsc has no weak-scaled input"),
    }
}

fn tsp_params(input: Input) -> tsp::Params {
    match input {
        Input::Small => tsp::Params::small(),
        Input::Default => tsp::Params { cities: 10, seed: 11 },
        Input::Paper => tsp::Params::paper(),
        Input::Weak => panic!("tsp has no weak-scaled input"),
    }
}

impl Cell {
    /// The one app -> (inputs, kernel) table, on whichever runtime `d` is.
    fn kernel<D: Dsm>(&self, d: &D, v: Variant) -> f64 {
        let (input, procs) = (self.input, self.procs);
        match self.app {
            "em3d" => em3d::run(d, &em3d_params(input, procs), v),
            "barnes" => barnes::run(d, &barnes_params(input, procs), v),
            "water" => water::run(d, &water_params(input, procs), v),
            "bsc" => bsc::run(d, &bsc_params(input), v),
            "tsp" => tsp::run(d, &tsp_params(input), v),
            other => panic!("unknown app {other}"),
        }
    }

    /// The cell's machine: cm5 costs, `procs` nodes, its tweak applied.
    pub fn machine(&self) -> MachineBuilder {
        let b = Spmd::builder().nprocs(self.procs).cost(CostModel::cm5());
        match self.tweak {
            Tweak::None => b,
            Tweak::NoCoalesce => b.coalesce(CoalescePolicy::Off),
            Tweak::Net(scale) => b.cost(CostModel::cm5_net_scaled(scale)),
            Tweak::Check(mode) => b.check(mode),
            Tweak::Traced => b.trace(TraceConfig::on()),
        }
    }

    /// Run the cell once.
    pub fn run(&self) -> RunOutcome {
        match self.what {
            What::Ace(v) => launch_ace_with(self.machine(), |d| self.kernel(d, v)),
            What::Crl => launch_crl_with(self.machine(), |d| self.kernel(d, Variant::Sc)),
            What::Compiled(level) => acec::kernel(self.app).run_compiled(level, self.machine()),
            What::Hand => acec::kernel(self.app).run_hand(self.machine()),
        }
    }
}

/// One measured cell: what a table prints and a `BENCH_*.json` row holds.
#[derive(Debug, Clone)]
pub struct Row {
    /// The cell that was measured.
    pub cell: Cell,
    /// Its one run.
    pub out: RunOutcome,
}

impl Row {
    /// Simulated time in milliseconds, the unit all tables print.
    pub fn ms(&self) -> f64 {
        self.out.sim_ns as f64 / 1e6
    }
}

/// Run `cell`, once: on the machine a cell gets, every run of it is the
/// same run.
pub fn measure(cell: &Cell) -> Row {
    let out = cell.run();
    assert!(out.verification.is_finite(), "{cell:?}: lost its verification value");
    Row { cell: cell.clone(), out }
}
