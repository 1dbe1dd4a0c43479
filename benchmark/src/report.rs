//! Records of what was measured, and their JSON form.
//!
//! Written by hand because the workspace builds offline (no serde); read back
//! with `ace_trace::jsonlite`.

use std::fmt::Write as _;

use ace_trace::jsonlite::Json;

use crate::stats::Summary;

/// One metric of one run: a summary of its samples and its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

impl Metric {
    pub fn of(name: impl Into<String>, unit: &str, samples: &[f64]) -> Metric {
        Metric { name: name.into(), unit: unit.to_string(), summary: Summary::of(samples) }
    }

    /// `name  value unit  IQR x (share)  n=y[  p90 z]`, the human-readable row.
    pub fn row(&self) -> String {
        let s = &self.summary;
        let mut row = format!(
            "  {:<44} {:>14.4} {:<6} IQR {:.4} ({:.2}%)  n={}",
            self.name,
            s.value,
            self.unit,
            s.iqr,
            s.rel_iqr() * 100.0,
            s.n
        );
        if let Some(p90) = s.p90 {
            let _ = write!(row, "  p90 {p90:.4}");
        }
        row
    }
}

/// One workload process: its end-to-end or per-layer metrics and its
/// operation counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The line the driver reads: `correct`, `attempted`, `failed` and each
    /// metric's gated value with its unit.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.summary.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record, one line, for result files.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let s = &m.summary;
                let p90 = s.p90.map_or(String::new(), |p| format!(", \"p90\": {}", num(p)));
                format!(
                    "{}: {{\"value\": {}, \"iqr\": {}, \"n\": {}{p90}, \"unit\": {}}}",
                    quote(&m.name),
                    num(s.value),
                    num(s.iqr),
                    s.n,
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            quote(&self.workload),
            self.seed,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse what [`RunRecord::to_json`] wrote.
    pub fn from_json(j: &Json) -> Result<RunRecord, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("record lacks \"{k}\""));
        let number = |k: &str| {
            field(k)?.as_f64().ok_or_else(|| format!("record field \"{k}\" is not a number"))
        };
        let flag = |k: &str| match field(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("record field \"{k}\" is not a boolean")),
        };
        let Json::Obj(metrics) = field("metrics")? else {
            return Err("record field \"metrics\" is not an object".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let part = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric {name} lacks a numeric \"{k}\""))
                };
                Ok(Metric {
                    name: name.clone(),
                    unit: m.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
                    summary: Summary {
                        value: part("value")?,
                        iqr: part("iqr")?,
                        n: part("n")? as usize,
                        p90: m.get("p90").and_then(Json::as_f64),
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunRecord {
            workload: field("workload")?
                .as_str()
                .ok_or("record field \"workload\" is not a string")?
                .to_string(),
            seed: number("seed")? as u64,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics,
        })
    }
}

/// A result file: every record of one `all` invocation.
pub fn result_file(records: &[RunRecord]) -> String {
    let rows: Vec<String> = records.iter().map(|r| format!("  {}", r.to_json())).collect();
    format!(
        "{{\"host_threads\": {}, \"records\": [\n{}\n]}}\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rows.join(",\n")
    )
}

/// Parse a result file back into its records.
pub fn parse_result_file(text: &str) -> Result<Vec<RunRecord>, String> {
    let doc = ace_trace::jsonlite::parse(text)?;
    doc.get("records")
        .and_then(Json::as_arr)
        .ok_or("result file lacks a \"records\" array")?
        .iter()
        .map(RunRecord::from_json)
        .collect()
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; JSON has no NaN or infinity, so a
/// measurement that produced one is written as `null` and fails parsing
/// loudly instead of being read as a value.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        let many: Vec<f64> = (1..=120).map(f64::from).collect();
        RunRecord {
            workload: "em3d_sc".into(),
            seed: 42,
            traced: false,
            correct: true,
            attempted: 120,
            failed: 0,
            metrics: vec![
                Metric::of("sim_ms", "ms", &many),
                Metric::of("setup_s", "s", &[0.25, 0.5, 0.125]),
            ],
        }
    }

    #[test]
    fn records_round_trip_through_a_result_file() {
        let mut recs = vec![record(), RunRecord { traced: true, seed: 7, ..record() }];
        // The parser does not keep key order: metrics come back by name.
        recs.iter_mut().for_each(|r| r.metrics.sort_by(|a, b| a.name.cmp(&b.name)));
        assert_eq!(parse_result_file(&result_file(&recs)).unwrap(), recs);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let doc = ace_trace::jsonlite::parse(&record().driver_line()).unwrap();
        let Json::Obj(top) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let sim = doc.get("metrics").and_then(|m| m.get("sim_ms")).unwrap();
        assert_eq!(sim.get("value").and_then(Json::as_f64), Some(60.5));
        assert_eq!(sim.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn non_finite_values_do_not_become_numbers() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }
}
