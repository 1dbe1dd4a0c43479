//! `ace-bench verify`: the gates CI holds `BENCH_*.json` rows to. Every
//! failure starts with the gate's `[name]`.
//!
//! These gates are claims about the system, not reproduction checks: the
//! `[coalescing-*]` factors (0.8x wire, 1.15x simulated time) say that
//! coalescing batches EM3D's update fan-out and does not cost time, and
//! `[adaptive-tie]` (1.05x) that the engine ties the best static
//! assignment. A factor is how far the claim may erode, not an allowance
//! for noise — a row repeats exactly — and that a file still reproduces
//! from the source is CI's regenerate + `git diff --exit-code`.

use std::path::Path;

use ace_trace::jsonlite::{self, Json};

/// The tables the harness writes and the rows each must have (0: any
/// number). fig7a: 5 apps x (ace, crl, adaptive). fig7b: 5 apps x (sc,
/// custom, sc-nocoal, custom-nocoal, adaptive). table4: 5 kernels x (4
/// levels, hand).
const TABLES: [(&str, usize); 4] = [("fig7a", 15), ("fig7b", 25), ("table4", 25), ("scaling", 0)];

fn num(row: &Json, key: &str) -> Result<f64, String> {
    row.get(key).and_then(Json::as_f64).ok_or_else(|| format!("[schema] row lacks numeric `{key}`"))
}

fn text<'a>(row: &'a Json, key: &str) -> Result<&'a str, String> {
    row.get(key).and_then(Json::as_str).ok_or_else(|| format!("[schema] row lacks string `{key}`"))
}

/// One gate: `Err` names it unless `holds`.
fn gate(name: &str, holds: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("[{name}] {}", detail()))
    }
}

/// `ace-bench verify FILE...` on one file's rows; `Ok` carries the lines
/// to print. A file named `BENCH_<table>.json` must hold that table.
pub fn verify(path: &str, doc: &str) -> Result<String, String> {
    let root = jsonlite::parse(doc).map_err(|e| format!("[schema] {e}"))?;
    let rows = root.as_arr().ok_or("[schema] top level must be an array of rows")?;
    let table = text(rows.first().ok_or("[row-count] no rows")?, "table")?;
    let file = Path::new(path).file_name().and_then(|f| f.to_str()).unwrap_or(path);
    let named = file.strip_prefix("BENCH_").and_then(|f| f.strip_suffix(".json"));
    gate("table", named.is_none_or(|t| t == table), || format!("{file} holds `{table}` rows"))?;
    let known = TABLES.iter().find(|(t, _)| *t == table);
    let &(_, want) = known.ok_or_else(|| format!("[table] unknown table `{table}`"))?;
    gate("row-count", want == 0 || rows.len() == want, || {
        format!("{table}: {} rows, want {want}", rows.len())
    })?;
    for r in rows {
        gate("table", text(r, "table")? == table, || format!("a row outside `{table}`"))?;
        let (sim, wire, msgs) = (num(r, "sim_ns")?, num(r, "wire_msgs")?, num(r, "msgs")?);
        let who = format!("{}/{}", text(r, "app")?, text(r, "config")?);
        gate("positive", sim > 0.0 && msgs > 0.0, || format!("{who}: sim_ns {sim}, msgs {msgs}"))?;
        gate("wire<=msgs", 0.0 < wire && wire <= msgs, || {
            format!("{who}: {wire} wire envelopes for {msgs} messages")
        })?;
    }
    let mut report = format!("{table}: {} rows ok\n", rows.len());
    if table == "fig7b" {
        report += &fig7b_gates(rows)?;
    }
    Ok(report)
}

fn fig7b_gates(rows: &[Json]) -> Result<String, String> {
    let get = |app: &str, config: &str, key: &str| {
        let row =
            rows.iter().find(|r| text(r, "app") == Ok(app) && text(r, "config") == Ok(config));
        num(row.ok_or_else(|| format!("[row-count] no {app}/{config} row"))?, key)
    };
    // Coalescing's acceptance bar: EM3D's update-protocol fan-out
    // coalesces, cutting wire messages sharply. A small input has little
    // to batch, so the gate bounds what coalescing may cost in simulated
    // time instead of demanding that it win; in the committed
    // default-scale BENCH_fig7b.json it wins outright (em3d custom
    // 54.2 ms vs 73.1 ms disabled).
    let coal = |key| get("em3d", "custom", key);
    let nocoal = |key| get("em3d", "custom-nocoal", key);
    let (wire, nocoal_wire) = (coal("wire_msgs")?, nocoal("wire_msgs")?);
    gate("coalescing-wire", wire < nocoal_wire * 0.8, || {
        format!("em3d custom: {wire} wire envelopes, not under 0.8x the uncoalesced {nocoal_wire}")
    })?;
    let (sim, nocoal_sim) = (coal("sim_ns")?, nocoal("sim_ns")?);
    gate("coalescing-sim", sim < nocoal_sim * 1.15, || {
        format!("em3d custom: {sim} ns, over 1.15x the uncoalesced {nocoal_sim} ns")
    })?;
    let nocoal_msgs = nocoal("msgs")?;
    gate("nocoal-exact", nocoal_wire == nocoal_msgs, || {
        format!("em3d custom-nocoal: {nocoal_wire} envelopes for {nocoal_msgs} messages")
    })?;
    let mut report =
        format!("em3d custom: coalescing saves {} wire messages\n", nocoal_wire - wire);
    // The adaptive engine's acceptance bar: on the two apps where a
    // static assignment wins big (EM3D's update protocols, Water's phase
    // protocols), the engine picking at runtime must tie the best static
    // assignment within 5% — no hand-written hint, same simulated time.
    // The engine also installs at least one protocol beyond the initial
    // handover somewhere in the suite.
    for app in ["em3d", "water"] {
        let best = get(app, "sc", "sim_ns")?.min(get(app, "custom", "sim_ns")?);
        let ad = get(app, "adaptive", "sim_ns")?;
        let line =
            format!("{app}: adaptive {ad} vs best static {best} ({:.3}x, gate 1.05)", ad / best);
        gate("adaptive-tie", ad <= best * 1.05, || line.clone())?;
        report += &(line + "\n");
    }
    let switched =
        |r: &Json| text(r, "config") == Ok("adaptive") && num(r, "switches").is_ok_and(|s| s > 0.0);
    gate("adaptive-switches", rows.iter().any(switched), || "no engine switches recorded".into())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A passing document for `table` with `configs` per app; `edit` may
    /// replace any row's `(sim_ns, msgs, wire_msgs, switches)`.
    fn doc(
        table: &str,
        configs: &[&str],
        edit: impl Fn(&str, &str, &mut (u64, u64, u64, u64)),
    ) -> String {
        let mut rows = Vec::new();
        for app in crate::cell::APPS {
            for config in configs {
                let nocoal = config.ends_with("-nocoal");
                let mut v =
                    (1000, 100, if nocoal { 100 } else { 60 }, (*config == "adaptive") as u64);
                edit(app, config, &mut v);
                rows.push(format!(
                    "{{\"table\":\"{table}\",\"app\":\"{app}\",\"config\":\"{config}\",\"procs\":4,\
                     \"sim_ns\":{},\"msgs\":{},\"wire_msgs\":{},\"bytes\":9,\"switches\":{}}}",
                    v.0, v.1, v.2, v.3
                ));
            }
        }
        format!("[{}]", rows.join(",\n"))
    }

    const FIG7A: [&str; 3] = ["ace", "crl", "adaptive"];
    const FIG7B: [&str; 5] = ["sc", "custom", "sc-nocoal", "custom-nocoal", "adaptive"];

    fn fig7b(edit: impl Fn(&str, &str, &mut (u64, u64, u64, u64))) -> Result<String, String> {
        verify("rows.json", &doc("fig7b", &FIG7B, edit))
    }

    fn assert_gate(result: Result<String, String>, gate: &str) {
        let err = result.expect_err(gate);
        assert!(err.starts_with(&format!("[{gate}]")), "wanted gate [{gate}], got: {err}");
    }

    #[test]
    fn well_formed_documents_pass() {
        let report = fig7b(|_, _, _| {}).unwrap();
        assert!(
            report.contains("fig7b: 25 rows ok") && report.contains("saves 40 wire"),
            "{report}"
        );
        let fig7a = doc("fig7a", &FIG7A, |_, _, _| {});
        assert!(verify("out/BENCH_fig7a.json", &fig7a).unwrap().contains("15 rows ok"));
        // Tables without a fixed shape only get the per-row accounting gates.
        assert!(verify("BENCH_scaling.json", &doc("scaling", &["sc"], |_, _, _| {})).is_ok());
    }

    #[test]
    fn wrong_row_count_names_the_gate() {
        assert_gate(verify("a.json", &doc("fig7a", &FIG7B, |_, _, _| {})), "row-count");
        assert_gate(verify("a.json", &doc("fig7b", &FIG7A, |_, _, _| {})), "row-count");
        assert_gate(verify("a.json", "[]"), "row-count");
        assert_gate(verify("a.json", "{\"rows\": 3}"), "schema");
    }

    #[test]
    fn a_file_must_hold_the_table_its_name_says_and_a_known_one() {
        // Well-formed fig7a rows in BENCH_fig7b.json would skip every fig7b gate.
        let fig7a = doc("fig7a", &FIG7A, |_, _, _| {});
        assert_gate(verify("../BENCH_fig7b.json", &fig7a), "table");
        assert_gate(verify("a.json", &doc("fig7c", &FIG7A, |_, _, _| {})), "table");
        let mixed = fig7a.replacen("fig7a", "fig7b", 2).replacen("fig7b", "fig7a", 1);
        assert_gate(verify("a.json", &mixed), "table");
    }

    #[test]
    fn wire_above_logical_names_the_gate() {
        assert_gate(
            fig7b(|app, c, v| v.2 += 100 * (app == "tsp" && c == "sc") as u64),
            "wire<=msgs",
        );
        assert_gate(fig7b(|app, c, v| v.0 *= !(app == "bsc" && c == "custom") as u64), "positive");
    }

    #[test]
    fn em3d_coalescing_gates_name_themselves() {
        let em3d = |c: &str, want: &str, app: &str| app == "em3d" && c == want;
        assert_gate(
            fig7b(|app, c, v| v.2 += 20 * em3d(c, "custom", app) as u64),
            "coalescing-wire",
        );
        assert_gate(
            fig7b(|app, c, v| v.0 += 150 * em3d(c, "custom", app) as u64),
            "coalescing-sim",
        );
    }

    #[test]
    fn uncoalesced_run_must_send_one_envelope_per_message() {
        let edit = |app: &str, c: &str, v: &mut (u64, u64, u64, u64)| {
            v.2 -= (app == "em3d" && c == "custom-nocoal") as u64
        };
        assert_gate(fig7b(edit), "nocoal-exact");
    }

    #[test]
    fn adaptive_gates_name_themselves() {
        for slow in ["em3d", "water"] {
            let edit = |app: &str, c: &str, v: &mut (u64, u64, u64, u64)| {
                v.0 += 51 * (app == slow && c == "adaptive") as u64
            };
            assert_gate(fig7b(edit), "adaptive-tie");
        }
        // 5 % over the best static assignment is still a tie; other apps are not gated.
        assert!(fig7b(|app, c, v| v.0 += 50 * (app == "water" && c == "adaptive") as u64).is_ok());
        assert!(fig7b(|app, c, v| v.0 += 500 * (app == "tsp" && c == "adaptive") as u64).is_ok());
        assert_gate(fig7b(|_, _, v| v.3 = 0), "adaptive-switches");
    }
}
