//! Figure 7 computations: per-benchmark runs on both runtimes and under
//! both protocol assignments.

use ace_apps::runner::{launch_ace_with, launch_crl_with, RunOutcome};
use ace_apps::{barnes, bsc, em3d, tsp, water, Dsm, Variant};
use ace_core::{CheckMode, CostModel, MachineBuilder, Spmd, TraceConfig};

/// The five benchmarks, in the paper's order.
pub const APPS: [&str; 5] = ["barnes", "bsc", "em3d", "tsp", "water"];

/// Workload scale for the harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast inputs for CI-style runs.
    Small,
    /// Inputs near Table 3 (Barnes scaled to 2048 bodies so a laptop
    /// regenerates the figure in minutes; pass `--paper` for 16,384).
    Default,
    /// The full Table 3 inputs.
    Paper,
}

fn em3d_params(s: Scale) -> em3d::Params {
    match s {
        Scale::Small => em3d::Params::small(),
        Scale::Default => em3d::Params {
            e_nodes: 400,
            h_nodes: 400,
            degree: 6,
            pct_remote: 20,
            steps: 20,
            seed: 7,
            hoist_maps: false,
        },
        Scale::Paper => em3d::Params::paper(),
    }
}

fn barnes_params(s: Scale) -> barnes::Params {
    match s {
        Scale::Small => barnes::Params::small(),
        Scale::Default => barnes::Params { bodies: 1024, steps: 2, theta: 1.0, seed: 3 },
        Scale::Paper => barnes::Params::paper(),
    }
}

fn bsc_params(s: Scale) -> bsc::Params {
    match s {
        Scale::Small => bsc::Params::small(),
        Scale::Default => bsc::Params { nblocks: 12, block: 16, band: 4, seed: 5 },
        Scale::Paper => bsc::Params::paper(),
    }
}

fn tsp_params(s: Scale) -> tsp::Params {
    match s {
        Scale::Small => tsp::Params::small(),
        Scale::Default => tsp::Params { cities: 10, seed: 11 },
        Scale::Paper => tsp::Params::paper(),
    }
}

fn water_params(s: Scale) -> water::Params {
    match s {
        Scale::Small => water::Params::small(),
        Scale::Default => water::Params { molecules: 96, steps: 2, seed: 23 },
        Scale::Paper => water::Params::paper(),
    }
}

/// The standard machine for figure runs: cm5 costs, `nprocs` nodes.
pub fn fig_machine(nprocs: usize) -> MachineBuilder {
    Spmd::builder().nprocs(nprocs).cost(CostModel::cm5())
}

/// Run one benchmark on the Ace runtime.
pub fn run_ace_app(app: &str, scale: Scale, v: Variant, nprocs: usize) -> RunOutcome {
    run_ace_app_on(app, scale, v, fig_machine(nprocs))
}

/// Run one benchmark on the Ace runtime on a fully-configured machine
/// (tracing, watchdog, ...).
pub fn run_ace_app_on(app: &str, scale: Scale, v: Variant, builder: MachineBuilder) -> RunOutcome {
    run_ace_app_coalesce(app, scale, v, builder, true)
}

/// The one app → (inputs, kernel) table: run `app` at `scale` under `v`
/// on whichever runtime `d` is.
fn run_app<D: Dsm>(app: &str, scale: Scale, d: &D, v: Variant) -> f64 {
    match app {
        "em3d" => em3d::run(d, &em3d_params(scale), v),
        "barnes" => barnes::run(d, &barnes_params(scale), v),
        "bsc" => bsc::run(d, &bsc_params(scale), v),
        "tsp" => tsp::run(d, &tsp_params(scale), v),
        "water" => water::run(d, &water_params(scale), v),
        other => panic!("unknown app {other}"),
    }
}

/// Run one benchmark on the Ace runtime with the coalescing transport
/// forced on or off (`AceRt::set_coalescing`). The `-nocoal`
/// configurations in the figure tables come through here; everything else
/// uses the runtime default (on).
pub fn run_ace_app_coalesce(
    app: &str,
    scale: Scale,
    v: Variant,
    builder: MachineBuilder,
    coalesce: bool,
) -> RunOutcome {
    launch_ace_with(builder, |d| {
        if !coalesce {
            d.rt().set_coalescing(false);
        }
        run_app(app, scale, d, v)
    })
}

/// Run one benchmark on the CRL baseline (always the fixed SC protocol).
pub fn run_crl_app(app: &str, scale: Scale, nprocs: usize) -> RunOutcome {
    run_crl_app_on(app, scale, fig_machine(nprocs))
}

/// Run one benchmark on the CRL baseline on a fully-configured machine.
pub fn run_crl_app_on(app: &str, scale: Scale, builder: MachineBuilder) -> RunOutcome {
    launch_crl_with(builder, |d| run_app(app, scale, d, Variant::Sc))
}

/// Re-run one app traced and write its Chrome `trace_event` JSON to
/// `path` (loadable in Perfetto / `chrome://tracing`). Prints the
/// per-protocol summary table to stdout and returns the traced outcome.
pub fn write_trace(
    app: &str,
    scale: Scale,
    v: Variant,
    nprocs: usize,
    path: &std::path::Path,
) -> std::io::Result<RunOutcome> {
    let out = run_ace_app_on(app, scale, v, fig_machine(nprocs).trace(TraceConfig::on()));
    let trace = out.trace.as_ref().expect("traced run carries a trace");
    std::fs::write(path, trace.to_chrome_json())?;
    println!("\n== trace: {app} ({nprocs} procs) -> {} ==", path.display());
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
    Ok(out)
}

/// Accounting summary of one benchmark configuration over `runs`
/// repetitions. Logical message and byte counts are deterministic
/// (identical across repetitions); wall-clock keeps the minimum, the
/// usual low-noise estimator for perf tracking. Simulated time and the
/// wire-envelope count carry a little run-to-run jitter (which messages
/// share a coalesced envelope rides on wall-clock arrival order inside
/// waits), so both report the last repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct VariantStats {
    /// Simulated completion time, ns.
    pub sim_ns: u64,
    /// Best wall-clock duration over the repetitions, ns.
    pub wall_ns: u64,
    /// Total logical messages across all nodes.
    pub msgs: u64,
    /// Total wire envelopes across all nodes (`<= msgs`; the gap is what
    /// coalescing saved).
    pub wire_msgs: u64,
    /// Total payload bytes across all nodes.
    pub bytes: u64,
    /// Protocol switches committed across all nodes (`change_protocol`
    /// handovers plus adaptive-engine flush-point switches).
    pub switches: u64,
}

impl VariantStats {
    /// Simulated time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }
}

fn averaged(mut run: impl FnMut() -> RunOutcome, runs: usize) -> VariantStats {
    let mut out = VariantStats { wall_ns: u64::MAX, ..Default::default() };
    for _ in 0..runs.max(1) {
        let r = run();
        out.sim_ns = r.sim_ns;
        out.msgs = r.msgs;
        out.wire_msgs = r.wire_msgs;
        out.bytes = r.bytes;
        out.switches = r.counters.switches;
        out.wall_ns = out.wall_ns.min(r.wall.as_nanos() as u64);
    }
    out
}

/// One row of Figure 7a: Ace vs CRL, both under SC (averaged over `runs`
/// repetitions, like the paper's average of three runs).
pub struct Fig7aRow {
    /// Benchmark name.
    pub app: String,
    /// Ace simulated time, ms.
    pub ace_ms: f64,
    /// CRL simulated time, ms.
    pub crl_ms: f64,
    /// CRL/Ace ratio (> 1 means Ace is faster).
    pub ratio: f64,
    /// Full accounting for the Ace run.
    pub ace: VariantStats,
    /// Full accounting for the CRL run.
    pub crl: VariantStats,
    /// Full accounting for the Ace run under the adaptive engine (CRL has
    /// no counterpart; the row shows what runtime protocol selection does
    /// to the same-source comparison).
    pub adaptive: VariantStats,
}

/// Compute Figure 7a.
pub fn fig7a(scale: Scale, nprocs: usize, runs: usize) -> Vec<Fig7aRow> {
    APPS.iter()
        .map(|app| {
            let ace = averaged(|| run_ace_app(app, scale, Variant::Sc, nprocs), runs);
            let crl = averaged(|| run_crl_app(app, scale, nprocs), runs);
            let adaptive = averaged(|| run_ace_app(app, scale, Variant::Adaptive, nprocs), runs);
            Fig7aRow {
                app: app.to_string(),
                ace_ms: ace.sim_ms(),
                crl_ms: crl.sim_ms(),
                ratio: crl.sim_ms() / ace.sim_ms(),
                ace,
                crl,
                adaptive,
            }
        })
        .collect()
}

/// One row of Figure 7b: SC vs application-specific protocols in Ace,
/// each also run with the coalescing transport disabled so the tables
/// (and CI) can attribute how much of the win is message batching.
pub struct Fig7bRow {
    /// Benchmark name.
    pub app: String,
    /// SC simulated time, ms.
    pub sc_ms: f64,
    /// Custom-protocol simulated time, ms.
    pub custom_ms: f64,
    /// Speedup from the custom protocols.
    pub speedup: f64,
    /// Full accounting for the SC run.
    pub sc: VariantStats,
    /// Full accounting for the custom-protocol run.
    pub custom: VariantStats,
    /// SC with `set_coalescing(false)`.
    pub sc_nocoal: VariantStats,
    /// Custom protocols with `set_coalescing(false)`.
    pub custom_nocoal: VariantStats,
    /// Adaptive-engine simulated time, ms.
    pub adaptive_ms: f64,
    /// Full accounting for the adaptive run.
    pub adaptive: VariantStats,
}

/// One row of the conformance-checker overhead table: a benchmark run
/// check-off and check-on (`CheckMode::Fail`) on otherwise identical
/// machines. The vector-clock piggyback and the checker's bookkeeping
/// charge nothing to the cost model and the shutdown-time history gather
/// runs off the books, so the simulated-time column moves only by the
/// usual scheduling jitter; the wall-clock column and the history size
/// are where the real overhead shows.
pub struct CheckRow {
    /// Benchmark name.
    pub app: String,
    /// Protocol assignment the overhead was measured under.
    pub variant: Variant,
    /// Accounting with the checker off.
    pub off: VariantStats,
    /// Accounting with the checker on (`CheckMode::Fail`).
    pub on: VariantStats,
    /// Conformance violations counted in the checked runs (a completed
    /// `Fail` run implies 0 — the first violation panics).
    pub violations: u64,
    /// Section records the checker analysed at shutdown in one checked
    /// run, and the words they were encoded in.
    pub history: (u64, u64),
}

impl CheckRow {
    /// Simulated-time overhead of the checker, as a percentage.
    pub fn sim_overhead_pct(&self) -> f64 {
        (self.on.sim_ns as f64 / self.off.sim_ns as f64 - 1.0) * 100.0
    }

    /// Wall-clock overhead of the checker, as a percentage.
    pub fn wall_overhead_pct(&self) -> f64 {
        (self.on.wall_ns as f64 / self.off.wall_ns as f64 - 1.0) * 100.0
    }
}

/// Measure conformance-checker overhead for the named apps, all three
/// protocol assignments each — adaptive included, so every engine switch
/// sequence the benchmarks exercise is certified violation-free under
/// `CheckMode::Fail`.
pub fn check_overhead(apps: &[&str], scale: Scale, nprocs: usize, runs: usize) -> Vec<CheckRow> {
    let mut rows = Vec::new();
    for app in apps {
        for v in [Variant::Sc, Variant::Custom, Variant::Adaptive] {
            let off = averaged(|| run_ace_app(app, scale, v, nprocs), runs);
            let (mut violations, mut history) = (0, (0, 0));
            let on = averaged(
                || {
                    let r =
                        run_ace_app_on(app, scale, v, fig_machine(nprocs).check(CheckMode::Fail));
                    violations += r.violations;
                    history = (r.check_records, r.check_words);
                    r
                },
                runs,
            );
            rows.push(CheckRow { app: app.to_string(), variant: v, off, on, violations, history });
        }
    }
    rows
}

/// Compute Figure 7b.
pub fn fig7b(scale: Scale, nprocs: usize, runs: usize) -> Vec<Fig7bRow> {
    APPS.iter()
        .map(|app| {
            let coal = |v, on| {
                averaged(|| run_ace_app_coalesce(app, scale, v, fig_machine(nprocs), on), runs)
            };
            let sc = coal(Variant::Sc, true);
            let cu = coal(Variant::Custom, true);
            let ad = coal(Variant::Adaptive, true);
            let sc_nocoal = coal(Variant::Sc, false);
            let custom_nocoal = coal(Variant::Custom, false);
            Fig7bRow {
                app: app.to_string(),
                sc_ms: sc.sim_ms(),
                custom_ms: cu.sim_ms(),
                speedup: sc.sim_ms() / cu.sim_ms(),
                sc,
                custom: cu,
                sc_nocoal,
                custom_nocoal,
                adaptive_ms: ad.sim_ms(),
                adaptive: ad,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_small_has_expected_shape() {
        let rows = fig7a(Scale::Small, 4, 1);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.ace_ms > 0.0 && r.crl_ms > 0.0, "{}", r.app);
        }
    }

    #[test]
    fn em3d_region_cache_hit_rate_is_high() {
        // The EM3D compute loop touches a small per-node working set of
        // regions over and over; the inline lookup cache should absorb
        // nearly all of it.
        let out = run_ace_app("em3d", Scale::Small, Variant::Custom, 4);
        let rate = out.counters.region_cache_hit_rate().expect("EM3D performs region lookups");
        assert!(
            rate > 0.9,
            "EM3D should hit the inline region cache: rate {rate:.3} ({} hits / {} misses)",
            out.counters.region_cache_hits,
            out.counters.region_cache_misses
        );
    }

    #[test]
    fn fig7b_small_custom_never_much_slower() {
        let rows = fig7b(Scale::Small, 4, 1);
        for r in &rows {
            assert!(
                r.speedup > 0.7,
                "{}: custom protocols should not badly regress ({})",
                r.app,
                r.speedup
            );
        }
    }
}
