//! The six workloads: input generation, one rep, the reference rep.
//!
//! Every rep builds a fresh machine — `CostModel::cm5()`, the `Multiplexed`
//! backend with two worker slots (never more runnable threads than the
//! 2-core reference box has cores), in-process transport, tracing and checker
//! off unless asked — and runs the app to completion: a closed loop with one
//! client. The seed goes into the app's
//! `Params.seed`; the program sees only the inputs generated from it.
//!
//! A workload holds a pool of [`POOL`] inputs, not one. EM3D draws each edge's
//! owner at random, so the number of remote edges — and with it misses,
//! messages and simulated time — is binomial: one input per run put 2.7 % of
//! spread between seeds on `em3d_sc.sim_ms`, all of it input, none of it the
//! system's. Timed reps cycle through the pool and the run reports the pool's
//! mean, which cuts that spread by the square root of the pool size.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ace_apps::runner::{launch_ace_with, launch_crl_with, RunOutcome};
use ace_apps::{barnes, em3d, water, AceDsm, Dsm, Variant};
use ace_core::{
    run_ace_with, CheckMode, CostModel, ExecBackend, MachineBuilder, OpCounters, Spmd, SpmdResult,
};
use ace_lang::{compile, run_program, OptLevel, Program, SystemConfig};

use crate::timed::{ProcessSpan, RankTrace, TimedDsm};

/// Workload names, in the order `all` runs them and BENCHMARK.json lists them.
pub const NAMES: [&str; 6] =
    ["em3d_sc", "em3d_update", "barnes_map", "water_phases", "em3d_wide", "acec_vm"];

/// Inputs per workload per run, with seeds `seed * POOL + 0..`.
pub const POOL: usize = 8;

/// Worker slots of the multiplexed backend.
pub const WORKERS: usize = 2;

/// The five Ace-C programs of `acec_vm`, in Table 4's column order.
pub const PROGRAMS: [(&str, &str); 5] = [
    ("barnes", include_str!("../programs/barnes.ace")),
    ("bsc", include_str!("../programs/bsc.ace")),
    ("em3d", include_str!("../programs/em3d.ace")),
    ("tsp", include_str!("../programs/tsp.ace")),
    ("water", include_str!("../programs/water.ace")),
];

/// The machine every workload rep runs on.
pub fn machine(ranks: usize) -> MachineBuilder {
    Spmd::builder()
        .nprocs(ranks)
        .cost(CostModel::cm5())
        .backend(ExecBackend::Multiplexed)
        .workers(WORKERS)
}

/// EM3D at the fig7 `Scale::Default` size; `em3d_sc` and `em3d_update` share
/// it so the two differ in the protocol alone.
pub fn em3d_input(seed: u64) -> em3d::Params {
    em3d::Params {
        e_nodes: 400,
        h_nodes: 400,
        degree: 6,
        pct_remote: 20,
        steps: 20,
        seed,
        hoist_maps: false,
    }
}

/// Barnes-Hut at the fig7 `Scale::Default` size.
pub fn barnes_input(seed: u64) -> barnes::Params {
    barnes::Params { bodies: 1024, steps: 2, theta: 1.0, seed }
}

enum Input {
    Em3d(em3d::Params),
    Barnes(barnes::Params),
    Water(water::Params),
    /// Compiled at LI+MC+DC.
    Acec(Vec<Program>),
}

/// One workload with its inputs generated.
pub struct Workload {
    pub name: &'static str,
    pub ranks: usize,
    /// The protocol assignment the workload measures; the reference is
    /// always `Variant::Sc`.
    variant: Variant,
    /// [`POOL`] inputs, or the one set of compiled programs.
    inputs: Vec<Input>,
    pub seed: u64,
}

/// What one rep produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The app's verification value(s) as bits: compared bit-for-bit.
    pub verification: Vec<u64>,
    pub sim_ns: u64,
    pub wall: Duration,
    pub logical_msgs: u64,
    pub wire_msgs: u64,
    pub bytes: u64,
    pub counters: OpCounters,
    pub violations: u64,
}

impl Rep {
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }

    pub fn wall_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }

    /// Host nanoseconds per simulated event (annotation or logical message):
    /// the figure to compare when a model change moves event counts.
    pub fn host_ns_per_event(&self) -> f64 {
        let events = self.counters.total_annotations() + self.logical_msgs;
        self.wall.as_nanos() as f64 / events.max(1) as f64
    }

    fn from_outcome(o: RunOutcome) -> Rep {
        Rep {
            verification: vec![o.verification.to_bits()],
            sim_ns: o.sim_ns,
            wall: o.wall,
            logical_msgs: o.msgs,
            wire_msgs: o.wire_msgs,
            bytes: o.bytes,
            counters: o.counters,
            violations: o.violations,
        }
    }

    /// The same record from a raw machine run whose ranks returned
    /// `(verification, counters, extra)`; hands the extras back in rank order.
    fn from_spmd<T>(r: SpmdResult<(f64, OpCounters, T)>) -> (Rep, Vec<T>) {
        let mut counters = OpCounters::default();
        r.results.iter().for_each(|(_, c, _)| counters.merge(c));
        let rep = Rep {
            verification: vec![r.results[0].0.to_bits()],
            sim_ns: r.sim_ns,
            wall: r.wall,
            logical_msgs: r.stats.total_msgs(),
            wire_msgs: r.stats.total_wire_msgs(),
            bytes: r.stats.total_bytes(),
            counters,
            violations: r.stats.total_violations(),
        };
        (rep, r.results.into_iter().map(|(_, _, extra)| extra).collect())
    }

    /// Fold a sequence of machine runs (the five VM programs) into one rep.
    fn sum(parts: Vec<Rep>) -> Rep {
        let mut it = parts.into_iter();
        let mut total = it.next().expect("at least one part");
        for p in it {
            total.verification.extend(p.verification);
            total.sim_ns += p.sim_ns;
            total.wall += p.wall;
            total.logical_msgs += p.logical_msgs;
            total.wire_msgs += p.wire_msgs;
            total.bytes += p.bytes;
            total.counters.merge(&p.counters);
            total.violations += p.violations;
        }
        total
    }
}

/// Compile the five programs at `level`, with a span around each.
pub fn compile_programs(level: OptLevel, epoch: Instant) -> (Vec<Program>, Vec<ProcessSpan>) {
    let cfg = SystemConfig::builtin();
    let mut spans = Vec::new();
    let progs = PROGRAMS
        .iter()
        .map(|(name, src)| {
            let start_ns = epoch.elapsed().as_nanos() as u64;
            let prog = compile(src, &cfg, level)
                .unwrap_or_else(|e| panic!("programs/{name}.ace does not compile: {e}"));
            let end_ns = epoch.elapsed().as_nanos() as u64;
            spans.push(ProcessSpan { name: format!("compile:{name}"), start_ns, end_ns });
            prog
        })
        .collect();
    (progs, spans)
}

impl Workload {
    /// Generate the inputs of workload `name` from `seed` (for `acec_vm`:
    /// compile the programs, which take no input).
    ///
    /// # Errors
    ///
    /// When `name` is not one of [`NAMES`].
    pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
        let pool_of = |size: usize, input: &dyn Fn(u64) -> Input| -> Vec<Input> {
            (0..size as u64)
                .map(|j| input(seed.wrapping_mul(POOL as u64).wrapping_add(j)))
                .collect()
        };
        let pool = |input: &dyn Fn(u64) -> Input| pool_of(POOL, input);
        let (name, ranks, variant, inputs) = match name {
            "em3d_sc" => ("em3d_sc", 8, Variant::Sc, pool(&|s| Input::Em3d(em3d_input(s)))),
            "em3d_update" => {
                ("em3d_update", 8, Variant::Custom, pool(&|s| Input::Em3d(em3d_input(s))))
            }
            "barnes_map" => {
                ("barnes_map", 8, Variant::Custom, pool(&|s| Input::Barnes(barnes_input(s))))
            }
            "water_phases" => (
                "water_phases",
                8,
                Variant::Custom,
                pool(&|seed| Input::Water(water::Params { molecules: 96, steps: 2, seed })),
            ),
            // Weak-scaled as in the scaling sweep (two E and two H nodes per
            // rank, maps hoisted), but ten steps so the time loop, not
            // machine construction, is most of the rep. Half a pool: a rep
            // takes half a second, so eight inputs would get two or three
            // reps each — too few for a median worth the name — and
            // its simulated time barely differs between inputs (0.4 %).
            "em3d_wide" => (
                "em3d_wide",
                256,
                Variant::Sc,
                pool_of(POOL / 2, &|seed| {
                    Input::Em3d(em3d::Params {
                        e_nodes: 512,
                        h_nodes: 512,
                        degree: 3,
                        pct_remote: 20,
                        steps: 10,
                        seed,
                        hoist_maps: true,
                    })
                }),
            ),
            "acec_vm" => (
                "acec_vm",
                8,
                Variant::Custom,
                vec![Input::Acec(compile_programs(OptLevel::Direct, Instant::now()).0)],
            ),
            _ => return Err(format!("unknown workload \"{name}\"; the workloads are {NAMES:?}")),
        };
        Ok(Workload { name, ranks, variant, inputs, seed })
    }

    /// How many inputs the pool holds.
    pub fn inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the workload's own configuration is also its reference.
    pub fn is_own_reference(&self) -> bool {
        self.variant == Variant::Sc
    }

    /// Whether the apps behind this workload go through the `Dsm` trait (the
    /// Ace-C VM drives the runtime directly).
    pub fn is_dsm(&self) -> bool {
        !matches!(self.inputs[0], Input::Acec(_))
    }

    fn app<D: Dsm>(&self, input: usize, d: &D, v: Variant) -> f64 {
        match &self.inputs[input] {
            Input::Em3d(p) => em3d::run(d, p, v),
            Input::Barnes(p) => barnes::run(d, p, v),
            Input::Water(p) => water::run(d, p, v),
            Input::Acec(_) => unreachable!("the VM workload has no Dsm app"),
        }
    }

    fn run_vm(&self, progs: &[Program], check: CheckMode) -> Rep {
        let parts = progs
            .iter()
            .map(|prog| {
                Rep::from_outcome(launch_ace_with(machine(self.ranks).check(check), |d| {
                    run_program(d.rt(), prog).map_or(0.0, |v| v.as_f())
                }))
            })
            .collect();
        Rep::sum(parts)
    }

    fn run(&self, input: usize, v: Variant, check: CheckMode) -> Rep {
        match &self.inputs[input] {
            Input::Acec(progs) => self.run_vm(progs, check),
            _ => Rep::from_outcome(launch_ace_with(machine(self.ranks).check(check), |d| {
                self.app(input, d, v)
            })),
        }
    }

    /// One rep of the workload's own configuration on input `input`. `Err`
    /// carries the panic message of a rep that died (a node panic, or a typed
    /// `AceError` raised through one).
    pub fn rep(&self, input: usize) -> Result<Rep, String> {
        guarded(|| self.run(input, self.variant, CheckMode::Off))
    }

    /// The reference rep of input `input`: the same input under the default
    /// protocol everywhere. The reference of compiled code is the same source
    /// with no optimisation applied.
    pub fn reference(&self, input: usize) -> Result<Rep, String> {
        guarded(|| match &self.inputs[input] {
            Input::Acec(_) => {
                let unoptimised = compile_programs(OptLevel::O0, Instant::now()).0;
                self.run_vm(&unoptimised, CheckMode::Off)
            }
            _ => self.run(input, Variant::Sc, CheckMode::Off),
        })
    }

    /// One rep of the first input under `CheckMode::Fail`: the first
    /// conformance violation kills it. `acec_vm` is checked at LI+MC, the
    /// highest level the checker accepts today: at LI+MC+DC the compiler
    /// removes calls to null hooks, and the checker then sees the sections
    /// they would have closed left open (barnes, bsc and water record 90, 55
    /// and 156 violations under `CheckMode::Log`, with bit-identical results).
    pub fn checked_rep(&self) -> Result<Rep, String> {
        guarded(|| match &self.inputs[0] {
            Input::Acec(_) => {
                let merged = compile_programs(OptLevel::Merge, Instant::now()).0;
                self.run_vm(&merged, CheckMode::Fail)
            }
            _ => self.run(0, self.variant, CheckMode::Fail),
        })
    }

    /// A second reference of the first input on the CRL baseline, for the one
    /// workload whose layer table carries a CRL ratio.
    pub fn crl_reference(&self) -> Option<Result<Rep, String>> {
        match &self.inputs[0] {
            Input::Barnes(p) => Some(guarded(|| {
                Rep::from_outcome(launch_crl_with(machine(self.ranks), |d| {
                    barnes::run(d, p, Variant::Sc)
                }))
            })),
            _ => None,
        }
    }

    /// One rep of the first input through [`TimedDsm`]: the rep plus every
    /// rank's spans. The VM workload gets a root span around each
    /// `run_program` instead.
    pub fn traced_rep(&self, epoch: Instant) -> Result<(Rep, Vec<RankTrace>), String> {
        guarded(|| match &self.inputs[0] {
            Input::Acec(progs) => {
                let (parts, traces): (Vec<Rep>, Vec<Vec<RankTrace>>) = progs
                    .iter()
                    .map(|prog| {
                        Rep::from_spmd(run_ace_with(machine(self.ranks), |rt| {
                            let start = epoch.elapsed().as_nanos() as u64;
                            let v = run_program(rt, prog).map_or(0.0, |v| v.as_f());
                            let end = epoch.elapsed().as_nanos() as u64;
                            (v, rt.counters(), RankTrace::root_only(rt.rank(), start, end))
                        }))
                    })
                    .unzip();
                (Rep::sum(parts), traces.into_iter().flatten().collect())
            }
            _ => Rep::from_spmd(run_ace_with(machine(self.ranks), |rt| {
                let d = TimedDsm::new(AceDsm::new(rt), epoch);
                let v = self.app(0, &d, self.variant);
                (v, rt.counters(), d.finish())
            })),
        })
    }
}

fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic>".into())
    })
}
