//! `compare <a.json> <b.json>`: judge side B against side A.
//!
//! For every (workload, end-to-end metric) it prints better / worse /
//! unchanged / unresolved under the metric's bound from BENCHMARK.json, and
//! per workload each side's failed share. A side may hold several runs of a
//! workload (one per seed). Its value is the median of the runs' values; its
//! spread is the IQR of those values over their median — the statistic the
//! driver computes over its own runs. Below four runs quartiles are
//! extrapolations, so the spread is then the range of the values, and with a
//! single run the IQR of that run's samples. Both sides must have run the same seeds, because inputs —
//! and so simulated time — differ from seed to seed.

use std::collections::BTreeMap;

use ace_trace::jsonlite::Json;

use crate::report::RunRecord;
use crate::stats::{iqr, median, verdict, Verdict};

/// An end-to-end metric of BENCHMARK.json: its name and regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub bound: f64,
}

/// Read the `end_to_end` bounds out of BENCHMARK.json's text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = ace_trace::jsonlite::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks an \"end_to_end\" array")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no bound"))?;
            if m.get("better").and_then(Json::as_str) != Some("lower") {
                return Err(format!("metric {name}: compare handles lower-is-better metrics only"));
            }
            Ok(Bound { name: name.to_string(), bound })
        })
        .collect()
}

/// One side's view of one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

fn side(runs: &[&RunRecord], metric: &str) -> Option<Side> {
    let found: Vec<_> = runs.iter().filter_map(|r| r.metric(metric)).collect();
    if found.is_empty() {
        return None;
    }
    let values: Vec<f64> = found.iter().map(|m| m.summary.value).collect();
    let value = median(&values);
    let range = values.iter().copied().fold(0.0, f64::max)
        - values.iter().copied().fold(f64::INFINITY, f64::min);
    let spread = match found.as_slice() {
        [only] => only.summary.rel_iqr(),
        _ if value == 0.0 => 0.0,
        [_, _] | [_, _, _] => range / value.abs(),
        _ => iqr(&values) / value.abs(),
    };
    Some(Side { value, spread })
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    pub bound: f64,
    pub verdict: Verdict,
}

fn end_to_end_by_workload(records: &[RunRecord]) -> BTreeMap<&str, Vec<&RunRecord>> {
    let mut by: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in records.iter().filter(|r| !r.traced) {
        by.entry(&r.workload).or_default().push(r);
    }
    by
}

fn seeds(runs: &[&RunRecord]) -> Vec<u64> {
    let mut s: Vec<u64> = runs.iter().map(|r| r.seed).collect();
    s.sort_unstable();
    s
}

/// Compare side `b` against side `a`.
///
/// # Errors
///
/// When the two sides did not run the same workloads on the same seeds, or a
/// run lacks a bounded metric: such files do not answer the question.
pub fn compare(a: &[RunRecord], b: &[RunRecord], bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let (by_a, by_b) = (end_to_end_by_workload(a), end_to_end_by_workload(b));
    if by_a.keys().ne(by_b.keys()) {
        return Err(format!(
            "the sides ran different workloads: {:?} vs {:?}",
            by_a.keys().collect::<Vec<_>>(),
            by_b.keys().collect::<Vec<_>>()
        ));
    }
    let mut rows = Vec::new();
    for (workload, runs_a) in &by_a {
        let runs_b = &by_b[workload];
        if seeds(runs_a) != seeds(runs_b) {
            return Err(format!(
                "{workload}: the sides ran different seeds: {:?} vs {:?}",
                seeds(runs_a),
                seeds(runs_b)
            ));
        }
        for bound in bounds {
            let missing = || format!("{workload}: a side has no metric {}", bound.name);
            let sa = side(runs_a, &bound.name).ok_or_else(missing)?;
            let sb = side(runs_b, &bound.name).ok_or_else(missing)?;
            rows.push(Row {
                workload: workload.to_string(),
                metric: bound.name.clone(),
                a: sa,
                b: sb,
                bound: bound.bound,
                verdict: verdict(sa.value, sb.value, sa.spread.max(sb.spread), bound.bound),
            });
        }
    }
    Ok(rows)
}

/// `failed / attempted` over a side's end-to-end runs of one workload.
pub fn failed_share(records: &[RunRecord], workload: &str) -> f64 {
    let (failed, attempted) = records
        .iter()
        .filter(|r| !r.traced && r.workload == workload)
        .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// Print the comparison; `true` when nothing got worse and no side failed
/// its correctness gate.
pub fn print(a: &[RunRecord], b: &[RunRecord], rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "a", "b", "b/a-1", "bound", "spread"
    );
    let mut last = "";
    for r in rows {
        if r.workload != last && !last.is_empty() {
            println!();
        }
        last = &r.workload;
        println!(
            "{:<14} {:<12} {:>12.4} {:>12.4} {:>+7.2}% {:>6.1}% {:>7.2}%  {}",
            r.workload,
            r.metric,
            r.a.value,
            r.b.value,
            (r.b.value / r.a.value - 1.0) * 100.0,
            r.bound * 100.0,
            r.a.spread.max(r.b.spread) * 100.0,
            r.verdict.name()
        );
    }
    println!();
    let mut ok = rows.iter().all(|r| r.verdict != Verdict::Worse);
    let mut workloads: Vec<&str> = rows.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    for w in workloads {
        let (fa, fb) = (failed_share(a, w), failed_share(b, w));
        println!("{w:<14} failed share  a {:.4}  b {:.4}", fa, fb);
        ok &= fb <= fa;
    }
    for (label, side) in [("a", a), ("b", b)] {
        for r in side.iter().filter(|r| !r.correct) {
            println!("side {label}: {} seed {} failed its correctness gate", r.workload, r.seed);
            ok = false;
        }
    }
    for (name, count) in [
        ("worse", rows.iter().filter(|r| r.verdict == Verdict::Worse).count()),
        ("unresolved", rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count()),
    ] {
        println!("{count} {name}");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    fn run(workload: &str, seed: u64, sim: &[f64]) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            seed,
            traced: false,
            correct: true,
            attempted: sim.len() as u64,
            failed: 0,
            metrics: vec![Metric::of("sim_ms", "ms", sim)],
        }
    }

    fn sim_bound() -> Vec<Bound> {
        vec![Bound { name: "sim_ms".into(), bound: 0.03 }]
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "sim_ms", "unit": "ms", "better": "lower", "bound": 0.03},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let b = bounds(text).unwrap();
        assert_eq!(b[0], Bound { name: "sim_ms".into(), bound: 0.03 });
        assert_eq!(b[1].bound, 0.25);
        assert!(
            bounds(r#"{"end_to_end": [{"name": "x", "better": "higher", "bound": 0.1}]}"#).is_err()
        );
    }

    #[test]
    fn same_numbers_are_unchanged_and_a_slowdown_is_worse() {
        let a = vec![run("w", 1, &[100.0, 100.5, 101.0]), run("w", 2, &[101.0, 101.5, 102.0])];
        let same = compare(&a, &a, &sim_bound()).unwrap();
        assert_eq!(same.len(), 1);
        assert_eq!(same[0].verdict, Verdict::Unchanged);
        // Value is the median over the two seeds' medians.
        assert_eq!(same[0].a.value, 101.0);

        let slow = vec![run("w", 1, &[105.0, 105.5, 106.0]), run("w", 2, &[106.0, 106.5, 107.0])];
        assert_eq!(compare(&a, &slow, &sim_bound()).unwrap()[0].verdict, Verdict::Worse);
        assert_eq!(compare(&slow, &a, &sim_bound()).unwrap()[0].verdict, Verdict::Better);
    }

    #[test]
    fn a_noisy_run_on_either_side_leaves_the_pair_unresolved() {
        let a = vec![run("w", 1, &[100.0, 100.5, 101.0])];
        let noisy = vec![run("w", 1, &[90.0, 100.0, 110.0])];
        assert_eq!(compare(&a, &noisy, &sim_bound()).unwrap()[0].verdict, Verdict::Unresolved);
        assert_eq!(compare(&noisy, &a, &sim_bound()).unwrap()[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn with_several_runs_the_spread_is_between_runs_not_within_them() {
        // Each run is noisy inside, but the runs agree with each other.
        let noisy_inside = |seed| run("w", seed, &[90.0, 100.0, 110.0]);
        let a = vec![noisy_inside(1), noisy_inside(2), noisy_inside(3)];
        let rows = compare(&a, &a, &sim_bound()).unwrap();
        assert_eq!((rows[0].a.spread, rows[0].verdict), (0.0, Verdict::Unchanged));
        // Quiet inside, but the runs disagree by more than the bound: three
        // runs are judged by their range, four or more by their IQR.
        let mut b = vec![run("w", 1, &[100.0]), run("w", 2, &[102.0]), run("w", 3, &[104.0])];
        let rows = compare(&b, &b, &sim_bound()).unwrap();
        assert_eq!((rows[0].a.spread, rows[0].verdict), (4.0 / 102.0, Verdict::Unresolved));
        b.push(run("w", 4, &[106.0]));
        let rows = compare(&b, &b, &sim_bound()).unwrap();
        assert_eq!((rows[0].a.spread, rows[0].verdict), (5.0 / 103.0, Verdict::Unresolved));
    }

    #[test]
    fn mismatched_seeds_or_workloads_are_refused() {
        let a = vec![run("w", 1, &[1.0])];
        assert!(compare(&a, &[run("w", 2, &[1.0])], &sim_bound()).is_err());
        assert!(compare(&a, &[run("v", 1, &[1.0])], &sim_bound()).is_err());
        let traced = RunRecord { traced: true, ..run("w", 1, &[1.0]) };
        assert!(compare(&a, &[traced], &sim_bound()).is_err(), "traced runs are not end-to-end");
    }

    #[test]
    fn failed_share_pools_a_workloads_runs() {
        let mut r = run("w", 1, &[1.0, 2.0, 3.0, 4.0]);
        r.failed = 1;
        let side = vec![r, run("w", 2, &[1.0, 2.0, 3.0, 4.0]), run("v", 1, &[1.0])];
        assert_eq!(failed_share(&side, "w"), 0.125);
        assert_eq!(failed_share(&side, "v"), 0.0);
    }
}
