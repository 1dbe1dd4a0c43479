//! What one workload process does: the correctness gate, set-up timing, the
//! timed reps of the end-to-end run, and the traced run.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::calibrate::{Calibrator, REFERENCE_MS};
use crate::report::{Metric, RunRecord};
use crate::stats::median;
use crate::timed::{chrome_json, Kind, RankTrace};
use crate::workloads::{Rep, Workload};

/// Cold set-ups timed per run: at least the first number, and up to the
/// second while they fit in [`SETUP_BUDGET_S`] (a 40 ms workload affords
/// more samples than a 500 ms one).
const SETUPS: (usize, usize) = (5, 9);
const SETUP_BUDGET_S: f64 = 1.0;
/// A run measures at least this many reps however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Traced reps per traced run, each paired with an untraced one.
const TRACED_REPS: usize = 3;

/// The verifications every later rep must reproduce bit-for-bit, one per
/// input, and what the gate found wrong (nothing, on a correct system).
struct Gate {
    references: Vec<Vec<u64>>,
    problems: Vec<String>,
    seconds: f64,
}

/// Run the reference rep of each of the first `inputs` inputs (on the first
/// also the CRL reference, where there is one) and, for the full gate, one
/// rep under `CheckMode::Fail` plus — when the workload's own configuration is
/// not the reference — one warm-up rep of it. Nothing is hard-coded: the
/// reference is the same input under the default protocol (for `acec_vm`, the
/// same source compiled without optimisation), so any seed works.
fn gate(w: &Workload, inputs: usize, full: bool) -> Gate {
    let started = Instant::now();
    let mut problems = Vec::new();
    let references: Vec<Vec<u64>> = (0..inputs)
        .map(|j| {
            let rep = w.reference(j);
            problems.extend(faults(&format!("reference rep of input {j}"), rep.as_ref(), None));
            rep.map(|r| r.verification).unwrap_or_default()
        })
        .collect();
    let first = Some(references[0].as_slice());
    if let Some(crl) = w.crl_reference() {
        problems.extend(faults("CRL reference rep", crl.as_ref(), first));
    }
    if full {
        problems.extend(faults("checked rep", w.checked_rep().as_ref(), first));
        if !w.is_own_reference() {
            problems.extend(faults("warm-up rep", w.rep(0).as_ref(), first));
        }
    }
    Gate { references, problems, seconds: started.elapsed().as_secs_f64() }
}

/// What is wrong with `rep`, if anything: it died, it recorded conformance
/// violations, or its verification differs from `reference` in any bit.
fn faults(what: &str, rep: Result<&Rep, &String>, reference: Option<&[u64]>) -> Vec<String> {
    let rep = match rep {
        Ok(rep) => rep,
        Err(e) => return vec![format!("{what} died: {e}")],
    };
    let mut found = Vec::new();
    if let Some(reference) = reference.filter(|r| *r != rep.verification) {
        found.push(format!(
            "{what} verification {:x?} differs from the reference {reference:x?}",
            rep.verification
        ));
    }
    if rep.violations != 0 {
        found.push(format!("{what} recorded {} conformance violations", rep.violations));
    }
    found
}

/// `setup`: one cold set-up, in a process of its own — generate the inputs
/// (for `acec_vm`, compile the programs) and run the first rep.
pub fn setup_once(name: &str, seed: u64) -> Result<(), String> {
    let w = Workload::generate(name, seed)?;
    w.rep(0).map(|_| ())
}

/// Time cold set-ups, each from spawning a fresh process of this executable
/// to its exit, in reference seconds. In-process repeats would all be warm:
/// work a later change moves into one-time initialisation would show in
/// neither the timed reps nor here.
fn time_setups(name: &str, seed: u64, cal: &mut Calibrator) -> Result<Vec<f64>, String> {
    let exe = crate::this_exe()?;
    let budget = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUPS.0
        || (times.len() < SETUPS.1 && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let (spent, to_reference) = cal.around(|| {
            let started = Instant::now();
            let status = Command::new(&exe)
                .args(["setup", "--workload", name, "--seed", &seed.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start the set-up process: {e}"))?;
            if !status.success() {
                return Err(format!("the set-up process failed: {status}"));
            }
            Ok(started.elapsed().as_secs_f64())
        })?;
        times.push(spent? * to_reference);
    }
    Ok(times)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn report_problems(w: &Workload, problems: &[String]) {
    for p in problems {
        eprintln!("{} seed {}: {p}", w.name, w.seed);
    }
}

/// Pool samples taken on several inputs into one metric. Each sample is
/// rescaled so that its input's median lands on the mean of the inputs'
/// medians. The median of the result is then that mean — every input weighs
/// the same however many reps it got — and its IQR is run-to-run noise alone,
/// with the differences between inputs taken out.
fn pooled(samples: &[(usize, f64)]) -> Vec<f64> {
    let inputs = samples.iter().map(|&(j, _)| j + 1).max().unwrap_or(0);
    let medians: Vec<Option<f64>> = (0..inputs)
        .map(|j| {
            let of_j: Vec<f64> = samples.iter().filter(|s| s.0 == j).map(|s| s.1).collect();
            (!of_j.is_empty()).then(|| median(&of_j))
        })
        .collect();
    let seen: Vec<f64> = medians.iter().flatten().copied().collect();
    let value = seen.iter().sum::<f64>() / seen.len().max(1) as f64;
    samples
        .iter()
        .map(|&(j, x)| match medians[j] {
            Some(m) if m != 0.0 => x * value / m,
            _ => x,
        })
        .collect()
}

/// The end-to-end run: gate, set-up timing, then timed reps for `seconds`,
/// cycling through the input pool. Every rep is one operation.
pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> Result<RunRecord, String> {
    let w = Workload::generate(name, seed)?;
    let gate = gate(&w, w.inputs(), true);
    report_problems(&w, &gate.problems);
    let mut cal = Calibrator::start()?;
    let setups = time_setups(name, seed, &mut cal)?;

    let (mut sim, mut wall) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0u64);
    let started = Instant::now();
    // At least one full pass over the pool, however short `--seconds` is.
    while started.elapsed().as_secs_f64() < seconds || attempted < w.inputs().max(MIN_REPS) {
        let input = attempted % w.inputs();
        let (rep, to_reference) = cal.around(|| w.rep(input))?;
        attempted += 1;
        let faults = faults("timed rep", rep.as_ref(), Some(&gate.references[input]));
        match rep {
            Ok(r) if faults.is_empty() => {
                sim.push((input, r.sim_ms()));
                wall.push((input, r.wall_ms() * to_reference));
            }
            _ => {
                failed += 1;
                report_problems(&w, &faults);
            }
        }
    }
    if sim.is_empty() {
        return Err(format!("{name}: no timed rep succeeded"));
    }
    println!(
        "{name} seed {seed}: gate {:.2} s, {attempted} timed reps over {} inputs in {:.2} s on {} host \
         thread(s); calibration kernel {:.2} ms (median of {}, {:.2}-{:.2}; reference {REFERENCE_MS})",
        gate.seconds,
        w.inputs(),
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        median(&cal.taken),
        cal.taken.len(),
        cal.taken.iter().copied().fold(f64::INFINITY, f64::min),
        cal.taken.iter().copied().fold(0.0, f64::max),
    );
    Ok(RunRecord {
        workload: name.to_string(),
        seed,
        traced: false,
        correct: gate.problems.is_empty() && failed == 0,
        attempted: attempted as u64,
        failed,
        metrics: vec![
            Metric::of("sim_ms", "ms", &pooled(&sim)),
            // Host times are in reference milliseconds: see calibrate.rs.
            Metric::of("wall_ms", "ms", &pooled(&wall)),
            Metric::of("peak_rss_mb", "MiB", &[peak_rss_mb()?]),
            Metric::of("setup_s", "s", &setups),
        ],
    })
}

/// Span counts must equal the runtime's own operation counters: the wrapper
/// sees exactly the calls the runtime served.
fn span_count_problems(rep: &Rep, traces: &[RankTrace]) -> Vec<String> {
    let spans = |k: Kind| traces.iter().map(|t| t.count(k)).sum::<u64>();
    let c = &rep.counters;
    [
        ("start_read", spans(Kind::StartRead), c.start_reads),
        ("start_write", spans(Kind::StartWrite), c.start_writes),
        ("end_read + end_write", spans(Kind::EndRead) + spans(Kind::EndWrite), c.ends),
        ("map", spans(Kind::Map), c.map_hits + c.map_misses),
        ("unmap", spans(Kind::Unmap), c.unmaps),
    ]
    .iter()
    .filter(|(_, spans, counted)| spans != counted)
    .map(|(what, spans, counted)| format!("{spans} {what} spans but OpCounters counted {counted}"))
    .collect()
}

/// The traced run: [`TRACED_REPS`] reps through `TimedDsm`, each paired with
/// an untraced rep so that the difference is the tracing overhead. Returns
/// the per-layer metrics that depend on the workload; writes the spans as
/// Chrome JSON to `trace_file` when the run ends.
pub fn traced(name: &str, seed: u64, trace_file: &Path) -> Result<RunRecord, String> {
    let epoch = Instant::now();
    let w = Workload::generate(name, seed)?;
    // Ace-C compilation is outside every rep, so it gets spans of its own.
    let process_spans = if w.is_dsm() {
        Vec::new()
    } else {
        crate::workloads::compile_programs(ace_lang::OptLevel::Direct, epoch).1
    };
    let gate = gate(&w, 1, false);
    let reference = Some(gate.references[0].as_slice());
    let mut problems = gate.problems;

    let (mut plain, mut with_spans, mut traces) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    for _ in 0..TRACED_REPS {
        attempted += 2;
        let rep = w.rep(0);
        let faults_plain = faults("untraced rep", rep.as_ref(), reference);
        match rep {
            Ok(rep) if faults_plain.is_empty() => plain.push(rep),
            _ => failed += 1,
        }
        let rep = w.traced_rep(epoch);
        let faults_traced = faults("traced rep", rep.as_ref().map(|(r, _)| r), reference);
        match rep {
            Ok((rep, ranks)) if faults_traced.is_empty() => {
                if w.is_dsm() {
                    problems.extend(span_count_problems(&rep, &ranks));
                }
                with_spans.push(rep);
                traces.push(ranks);
            }
            _ => failed += 1,
        }
        problems.extend(faults_plain.into_iter().chain(faults_traced));
    }
    report_problems(&w, &problems);
    if plain.is_empty() || with_spans.is_empty() {
        return Err(format!("{name}: no traced pair succeeded"));
    }

    crate::write_file(trace_file, &chrome_json(&traces, &process_spans))?;

    let of = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let mut metrics = vec![
        Metric::of(
            "machine.node.logical_msgs",
            "count",
            &of(&with_spans, &|r| r.logical_msgs as f64),
        ),
        Metric::of("machine.node.wire_msgs", "count", &of(&with_spans, &|r| r.wire_msgs as f64)),
        Metric::of("machine.node.bytes", "B", &of(&with_spans, &|r| r.bytes as f64)),
        Metric::of(
            "machine.node.wire_per_logical",
            "ratio",
            &of(&with_spans, &|r| r.wire_msgs as f64 / r.logical_msgs.max(1) as f64),
        ),
        // Host time comes from the untraced reps: spans must not pay for it.
        Metric::of("machine.host_ns_per_event", "ns", &of(&plain, &Rep::host_ns_per_event)),
        Metric::of(
            "core.rt.fast_hit_rate",
            "ratio",
            &of(&with_spans, &|r| r.counters.fast_hit_rate().unwrap_or(0.0)),
        ),
        Metric::of(
            "core.rt.region_cache_hit_rate",
            "ratio",
            &of(&with_spans, &|r| r.counters.region_cache_hit_rate().unwrap_or(0.0)),
        ),
    ];
    let ms_over_ranks = |f: &dyn Fn(&RankTrace) -> u64| -> Vec<f64> {
        traces.iter().map(|ranks| ranks.iter().map(f).sum::<u64>() as f64 / 1e6).collect()
    };
    for kind in Kind::ALL {
        metrics.push(Metric::of(
            format!("core.rt.time.{}_ms", kind.name()),
            "ms",
            &ms_over_ranks(&|t| t.time_ns(kind)),
        ));
    }
    metrics.push(Metric::of("core.rt.time.app_ms", "ms", &ms_over_ranks(&RankTrace::app_self_ns)));
    let overhead: Vec<f64> = with_spans
        .iter()
        .zip(&plain)
        .map(|(t, p)| (t.wall.as_secs_f64() / p.wall.as_secs_f64() - 1.0) * 100.0)
        .collect();
    metrics.push(Metric::of("bench.span_overhead_pct", "%", &overhead));

    Ok(RunRecord {
        workload: name.to_string(),
        seed,
        traced: true,
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{iqr, median};

    #[test]
    fn pooling_weighs_inputs_equally_and_keeps_only_the_noise() {
        // Input 0 runs at 100, input 1 at 200; input 1 got more reps.
        let samples =
            [(0, 99.0), (0, 100.0), (0, 101.0), (1, 198.0), (1, 200.0), (1, 202.0), (1, 200.0)];
        let p = pooled(&samples);
        assert_eq!(median(&p), 150.0, "mean of the inputs' medians, not the reps' median");
        // 1 % of noise on each input stays 1 %; the 2x between inputs is gone.
        assert!(iqr(&p) / median(&p) < 0.03, "{p:?}");
        assert!(iqr(&samples.map(|s| s.1)) / 150.0 > 0.5);
    }

    #[test]
    fn pooling_one_input_changes_nothing() {
        let samples = [(0, 3.0), (0, 1.0), (0, 2.0)];
        assert_eq!(pooled(&samples), [3.0, 1.0, 2.0]);
        assert!(pooled(&[]).is_empty());
    }

    #[test]
    fn an_input_that_never_ran_is_left_out_of_the_mean() {
        assert_eq!(median(&pooled(&[(0, 10.0), (2, 30.0)])), 20.0);
    }
}
