//! The one argument parser behind every `ace-bench` subcommand.

use std::path::{Path, PathBuf};

use ace_core::Spmd;

use crate::cell::Input;
use crate::{ablation, claims, figures, tracecheck};

/// What a subcommand runs.
pub type Run = fn(&Args) -> Result<(), String>;

/// A flag and the placeholder naming its value: empty for a switch, `[X]`
/// for a value that may be left out, `X...` for one or more values (they
/// land in [`Args::files`]).
type Flag = (&'static str, &'static str);

const SMALL: Flag = ("--small", "");
const PAPER: Flag = ("--paper", "");
const PROCS: Flag = ("--procs", "N");
const JSON: Flag = ("--json", "[PATH]");
const TRACE: Flag = ("--trace", "PATH");
const APP: Flag = ("--app", "APP[,APP]");
const MIN: Flag = ("--min", "N");
const MAX: Flag = ("--max", "N");
const SMOKE: Flag = ("--smoke", "");
const OUT: Flag = ("--out", "PATH");
const VALIDATE: Flag = ("--validate", "FILE...");

/// Every subcommand: its name, the placeholder naming its positional
/// arguments (same grammar as a flag's value), the flags it accepts and
/// what it runs. The usage text is generated from this table.
const COMMANDS: [(&str, &str, &[Flag], Run); 8] = [
    ("fig7a", "", &[SMALL, PAPER, PROCS, JSON, TRACE], figures::fig7a),
    ("fig7b", "", &[SMALL, PAPER, PROCS, JSON, TRACE], figures::fig7b),
    ("check", "[APP,...]", &[SMALL, PAPER, PROCS], figures::check),
    ("table4", "", &[PROCS, JSON, TRACE], figures::table4),
    ("scaling", "", &[APP, MIN, MAX, JSON, SMOKE], figures::scaling),
    ("ablation", "", &[], ablation::ablation),
    ("tracecheck", "", &[PROCS, OUT, VALIDATE], tracecheck::tracecheck),
    ("report", "", &[], claims::report),
];

/// The usage text, printed (to stderr, exit status 2) with any parse error.
pub fn usage() -> String {
    let mut out = String::from("usage:\n");
    for (cmd, positional, flags, _) in COMMANDS {
        out += &format!("  ace-bench {cmd}");
        if !positional.is_empty() {
            out += &format!(" {positional}");
        }
        for (flag, value) in flags {
            let space = if value.is_empty() { "" } else { " " };
            out += &format!(" [{flag}{space}{value}]");
        }
        out.push('\n');
    }
    out + "bare --json writes BENCH_<table>.json at the repo root"
}

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    /// What the subcommand runs.
    pub run: Run,
    /// Positional arguments and the values of `X...` flags, in order.
    pub files: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `argv` (without the program name). A flag's value is the next
    /// argument unless that is itself an `--option`: then a `[X]` flag
    /// stands bare and any other valued flag is an error, as is a
    /// subcommand, flag or positional argument `COMMANDS` does not list,
    /// or a `FILE...` list left empty.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
        let &(_, positional, accepted, run) = COMMANDS
            .iter()
            .find(|(name, ..)| name == cmd)
            .ok_or_else(|| format!("unknown subcommand `{cmd}`"))?;
        let mut args = Args { run, files: Vec::new(), flags: Vec::new() };
        // What a bare argument is: a positional, or a value of the last `X...` flag.
        let mut bare = positional;
        let mut rest = rest.iter().peekable();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if bare.is_empty() {
                    return Err(format!("`{cmd}` takes no positional argument (`{arg}`)"));
                }
                args.files.push(arg.clone());
                continue;
            }
            let &(_, value) = accepted
                .iter()
                .find(|(flag, _)| flag == arg)
                .ok_or_else(|| format!("`{cmd}` has no flag `{arg}`"))?;
            let mut given = None;
            if value.ends_with("...") {
                bare = value;
            } else if !value.is_empty() {
                given = rest.next_if(|v| !v.starts_with("--")).cloned();
                if given.is_none() && !value.starts_with('[') {
                    return Err(format!("`{arg}` needs a value"));
                }
            }
            args.flags.push((arg.clone(), given));
        }
        if !bare.is_empty() && !bare.starts_with('[') && args.files.is_empty() {
            return Err(format!("`{cmd}` needs at least one of {bare}"));
        }
        Ok(args)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value given with `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The number given with `flag`, or `default` when the flag is absent.
    pub fn num(&self, flag: &str, default: usize) -> Result<usize, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("`{flag}` wants a number, got `{v}`")),
        }
    }

    /// `--procs` (or `default`), rejected before any cell runs unless a
    /// machine can have that many nodes.
    pub fn procs(&self, default: usize) -> Result<usize, String> {
        let procs = self.num("--procs", default)?;
        Spmd::builder().nprocs(procs).validate().map_err(|e| format!("--procs {procs}: {e}"))?;
        Ok(procs)
    }

    /// Hold every file to `check(path, contents)`: print what it reports,
    /// or fail with the first error under the file's name.
    pub fn each_file(
        &self,
        check: impl Fn(&str, &str) -> Result<String, String>,
    ) -> Result<(), String> {
        self.files.iter().try_for_each(|path| {
            let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            print!("{path}: {}", check(path, &doc).map_err(|e| format!("{path}: {e}"))?);
            Ok(())
        })
    }

    /// The `--small|--paper` ladder.
    pub fn input(&self) -> Input {
        if self.has("--paper") {
            Input::Paper
        } else if self.has("--small") {
            Input::Small
        } else {
            Input::Default
        }
    }

    /// Where `--json [PATH]` points: an explicit path wins; bare `--json`
    /// falls back to `default_name` at the repo root, where CI and
    /// `ace-bench report` expect the tracked `BENCH_*.json` files.
    pub fn json_path(&self, default_name: &str) -> Option<PathBuf> {
        self.has("--json").then(|| match self.value("--json") {
            Some(p) => PathBuf::from(p),
            None => repo_root().join(default_name),
        })
    }
}

/// The repository's root: where the tracked `BENCH_*.json` files and
/// EXPERIMENTS.md live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Resolve a comma-separated app list against `known`: entries are
/// trimmed, empty entries dropped, an absent list means `default`, and a
/// name outside `known` is an error.
pub fn parse_apps(
    list: Option<&str>,
    known: &[&'static str],
    default: &[&'static str],
) -> Result<Vec<&'static str>, String> {
    let Some(list) = list else { return Ok(default.to_vec()) };
    let names = list.split(',').map(str::trim).filter(|a| !a.is_empty());
    names
        .map(|a| {
            known.iter().copied().find(|k| *k == a).ok_or_else(|| format!("unknown app `{a}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(&s.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_apps_splits_trims_and_drops_empties() {
        let known = crate::cell::APPS;
        assert_eq!(
            parse_apps(Some(" em3d, water ,,barnes"), &known, &["tsp"]),
            Ok(vec!["em3d", "water", "barnes"])
        );
        assert!(parse_apps(Some("em3d,nosuch"), &known, &[]).unwrap_err().contains("nosuch"));
    }

    #[test]
    fn procs_outside_the_machine_range_fail_before_a_run() {
        for bad in ["0", "4097"] {
            let e = parse(&["fig7a", "--procs", bad]).unwrap().procs(8).unwrap_err();
            assert!(e.contains("at least 1 and at most 4096"), "{e}");
        }
        assert_eq!(parse(&["fig7b", "--procs", "4096"]).unwrap().procs(8), Ok(4096));
        assert_eq!(parse(&["check"]).unwrap().procs(8), Ok(8));
    }

    #[test]
    fn parse_apps_falls_back_to_default() {
        assert_eq!(
            parse_apps(None, &crate::cell::APPS, &["em3d", "water"]),
            Ok(vec!["em3d", "water"])
        );
        // A bare `check` directly followed by an option keeps the default
        // instead of eating the option as an app name.
        let a = parse(&["check", "--procs", "2"]).unwrap();
        assert_eq!(a.files, Vec::<String>::new());
        assert_eq!(a.num("--procs", 8), Ok(2));
    }

    #[test]
    fn bare_json_defaults_to_a_repo_root_file_for_every_table() {
        for cmd in ["fig7a", "fig7b", "table4", "scaling"] {
            let path = parse(&[cmd, "--json"]).unwrap().json_path("BENCH_x.json").unwrap();
            assert!(path.ends_with("../../BENCH_x.json"), "{cmd}: {path:?}");
        }
        let a = parse(&["table4", "--json", "out.json"]).unwrap();
        assert_eq!(a.json_path("BENCH_table4.json"), Some(PathBuf::from("out.json")));
        assert_eq!(parse(&["table4"]).unwrap().json_path("BENCH_table4.json"), None);
    }

    #[test]
    fn a_flag_never_eats_the_next_option_as_its_value() {
        // `--trace --json` used to write a trace file named `--json`.
        let err = parse(&["fig7b", "--trace", "--json"]).unwrap_err();
        assert!(err.contains("`--trace` needs a value"), "{err}");
        let a = parse(&["fig7b", "--json", "--procs", "4", "--small"]).unwrap();
        assert_eq!(a.value("--json"), None);
        assert!(a.has("--json") && a.has("--small"));
        assert_eq!(a.num("--procs", 8), Ok(4));
        assert_eq!(a.input(), Input::Small);
        assert!(parse(&["fig7a", "--procs", "many"]).unwrap().num("--procs", 8).is_err());
    }

    #[test]
    fn unknown_subcommands_flags_and_stray_arguments_are_errors() {
        assert!(parse(&[]).unwrap_err().contains("missing subcommand"));
        assert!(parse(&["fig7c"]).unwrap_err().contains("unknown subcommand `fig7c`"));
        assert!(parse(&["fig7a", "--smoke"]).unwrap_err().contains("no flag `--smoke`"));
        assert!(parse(&["fig7a", "em3d"]).unwrap_err().contains("no positional"));
        // ... where the same words are fine on the subcommands that take them.
        assert!(parse(&["scaling", "--smoke"]).unwrap().has("--smoke"));
        let a = parse(&["tracecheck", "--validate", "a.json", "b.json", "--procs", "2"]).unwrap();
        assert_eq!(a.files, ["a.json", "b.json"]);
        assert_eq!(a.num("--procs", 4), Ok(2));
    }

    #[test]
    fn file_lists_are_never_empty_and_never_ignored() {
        assert!(parse(&["tracecheck", "--validate"])
            .unwrap_err()
            .contains("at least one of FILE..."));
        // Without `--validate` a file would be silently ignored.
        assert!(parse(&["tracecheck", "a.json"]).unwrap_err().contains("no positional"));
        assert_eq!(parse(&["tracecheck", "--validate", "a.json"]).unwrap().files, ["a.json"]);
        assert!(parse(&["tracecheck"]).unwrap().files.is_empty());
        assert!(parse(&["report", "BENCH_fig7a.json"]).unwrap_err().contains("no positional"));
    }

    #[test]
    fn a_comma_list_is_one_value() {
        // `--app water` once landed in the file list, so the sweep ran
        // every app.
        let a = parse(&["scaling", "--app", "water", "--max", "4"]).unwrap();
        assert_eq!((a.value("--app"), a.files.len()), (Some("water"), 0));
        assert!(parse(&["scaling", "--app"]).unwrap_err().contains("`--app` needs a value"));
    }

    #[test]
    fn usage_lists_every_flag_with_its_value() {
        let text = usage();
        assert!(text.contains("  ace-bench table4 [--procs N] [--json [PATH]] [--trace PATH]\n"));
        assert!(
            text.contains("  ace-bench tracecheck [--procs N] [--out PATH] [--validate FILE...]")
        );
        assert!(text.contains("  ace-bench report\n"), "{text}");
        assert!(text.contains("[--small] [--paper]"), "{text}");
    }
}
