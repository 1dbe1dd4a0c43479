//! Figure/table harnesses reproducing the paper's evaluation (§5).
//!
//! * [`fig7`] — the runtime comparisons: Ace vs CRL under the default
//!   protocol (Figure 7a) and SC vs application-specific protocols in Ace
//!   (Figure 7b).
//! * [`acec`] — the Ace-C benchmark kernels and their hand-written
//!   runtime-system counterparts for the compiler evaluation (Table 4).
//!
//! Binaries `fig7a`, `fig7b`, `table4`, and `ablation` print the tables.
//! Per-layer host-time measurements live in the repo benchmark
//! (`benchmark/`, `-- layers`).

// The Table 4 kernels transliterate the paper's C loops; explicit indexing is the idiom.
#![allow(clippy::needless_range_loop)]

pub mod acec;
pub mod fig7;
pub mod json;

/// Simulated milliseconds, the unit all tables print.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Parse a comma-separated application list following `flag` in `args`.
///
/// Shared by the `scaling --app` and `fig7b --check` front-ends so list
/// handling stays identical: entries are split on commas, trimmed, and
/// empty entries dropped. When the flag is absent, or is immediately
/// followed by another `--option` instead of a value, `default` is
/// returned.
pub fn parse_apps(args: &[String], flag: &str, default: &[&str]) -> Vec<String> {
    let list = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .filter(|s| !s.starts_with("--"));
    match list {
        None => default.iter().map(|s| s.to_string()).collect(),
        Some(s) => s.split(',').map(|a| a.trim().to_string()).filter(|a| !a.is_empty()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_apps_splits_trims_and_drops_empties() {
        let args = argv(&["bench", "--app", " em3d, water ,,barnes"]);
        assert_eq!(parse_apps(&args, "--app", &["tsp"]), vec!["em3d", "water", "barnes"]);
    }

    #[test]
    fn parse_apps_falls_back_to_default() {
        assert_eq!(
            parse_apps(&argv(&["bench"]), "--app", &["em3d", "water"]),
            vec!["em3d", "water"]
        );
        // A bare flag directly followed by another option keeps the
        // default instead of eating the option as an app name.
        let args = argv(&["bench", "--check", "--runs"]);
        assert_eq!(parse_apps(&args, "--check", &["em3d"]), vec!["em3d"]);
    }
}
