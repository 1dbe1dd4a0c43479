//! Machine-readable benchmark output: the one row writer.
//!
//! `--json [PATH]` writes one row per measured cell so successive PRs can
//! track the perf trajectory as `BENCH_*.json` files. A row holds nothing
//! the host decides (no wall time), so a file is a function of the source
//! tree and CI can regenerate it and `git diff --exit-code`. The format is a
//! plain JSON array of flat objects, one per line for easy diffing,
//! written by hand because the workspace builds offline (no serde);
//! `ace-bench verify` reads it back through `ace_trace::jsonlite`.

use std::fmt::Write as _;
use std::path::Path;

use ace_trace::jsonlite::escape;

use crate::cell::Row;

/// Render `table`'s rows as a JSON array.
pub fn render(table: &str, rows: &[Row]) -> String {
    let objects = rows.iter().map(|r| {
        let mut object = String::from("  {");
        for (key, text) in [("table", table), ("app", r.cell.app), ("config", r.cell.config)] {
            let _ = write!(object, "\"{key}\":\"{}\",", escape(text));
        }
        let numbers = [
            ("procs", r.cell.procs as u64),
            ("sim_ns", r.out.sim_ns),
            ("msgs", r.out.msgs),
            ("wire_msgs", r.out.wire_msgs),
            ("bytes", r.out.bytes),
            ("switches", r.out.counters.switches),
        ];
        let numbers = numbers.map(|(key, n)| format!("\"{key}\":{n}"));
        object + &numbers.join(",") + "}"
    });
    format!("[\n{}\n]\n", objects.collect::<Vec<_>>().join(",\n"))
}

/// Write `table`'s rows to `path`, replacing any existing file.
pub fn write(path: &Path, table: &str, rows: &[Row]) -> Result<(), String> {
    std::fs::write(path, render(table, rows))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {} rows to {}", rows.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{measure, Cell, Input, Tweak, What};
    use ace_trace::jsonlite;

    #[test]
    fn renders_flat_rows() {
        let what = What::Ace(ace_apps::Variant::Sc);
        let cell = |config| Cell {
            app: "bsc",
            config,
            what,
            input: Input::Small,
            procs: 2,
            tweak: Tweak::None,
        };
        let rows = [measure(&cell("sc")), measure(&cell("we\"ird"))];
        let s = render("fig7b", &rows);
        assert!(s.starts_with(
            "[\n  {\"table\":\"fig7b\",\"app\":\"bsc\",\"config\":\"sc\",\"procs\":2,"
        ));
        assert_eq!(s.matches('{').count(), 2);
        // What `verify` reads back is what was measured.
        let doc = jsonlite::parse(&s).expect("rows parse");
        let parsed = doc.as_arr().unwrap();
        let num =
            |i: usize, key: &str| parsed[i].get(key).and_then(jsonlite::Json::as_f64).unwrap();
        assert_eq!(parsed[1].get("config").unwrap().as_str(), Some("we\"ird"));
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(num(i, "sim_ns") as u64, r.out.sim_ns);
            assert_eq!(num(i, "msgs") as u64, r.out.msgs);
            assert_eq!(num(i, "wire_msgs") as u64, r.out.wire_msgs);
            assert_eq!(num(i, "bytes") as u64, r.out.bytes);
            assert_eq!(num(i, "switches") as u64, r.out.counters.switches);
        }
    }
}
