//! The system configuration file (Figure 1's output).
//!
//! The paper registers protocols with a Tcl script that writes a "system
//! configuration file ... used by the Ace compiler to determine the
//! protocols available and the names of the functions used by the
//! protocol". We keep the same information and a textual form close to
//! Figure 1:
//!
//! ```text
//! protocol Update {
//!     StartRead  null
//!     EndRead    null
//!     StartWrite defined
//!     EndWrite   defined
//!     Barrier    defined
//!     Lock       default
//!     Unlock     default
//!     Optimizable yes
//! }
//! ```
//!
//! [`SystemConfig::builtin`] generates the file from the live protocol
//! registry, then parses it back — so the compiler consumes exactly the
//! declared metadata, as in the paper's toolchain.

use std::collections::HashMap;

use ace_core::Actions;
use ace_protocols::registry::{all_protocols, ProtocolInfo};
use ace_protocols::ProtoSpec;

/// The configuration points of a protocol block, in the order the file
/// lists them, each with the action it declares.
pub const POINTS: [(&str, Actions); 8] = [
    ("Map", Actions::MAP),
    ("StartRead", Actions::START_READ),
    ("EndRead", Actions::END_READ),
    ("StartWrite", Actions::START_WRITE),
    ("EndWrite", Actions::END_WRITE),
    ("Barrier", Actions::BARRIER),
    ("Lock", Actions::LOCK),
    ("Unlock", Actions::UNLOCK),
];

/// Compiler-visible registration record for one protocol.
#[derive(Debug, Clone)]
pub struct ProtoEntry {
    /// The protocol selector.
    pub spec: ProtoSpec,
    /// Whether the compiler may move/merge its calls.
    pub optimizable: bool,
    /// Hooks declared null.
    pub null_actions: Actions,
}

/// The parsed system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    entries: HashMap<String, ProtoEntry>,
}

impl SystemConfig {
    /// Render a configuration file for the given registry entries.
    pub fn render(infos: &[ProtocolInfo]) -> String {
        let mut out = String::new();
        for info in infos {
            out.push_str(&format!("protocol {} {{\n", info.name));
            for (point, action) in POINTS {
                let decl = if info.null_actions.contains(action) { "null" } else { "defined" };
                out.push_str(&format!("    {point:<10} {decl}\n"));
            }
            let yn = if info.optimizable { "yes" } else { "no" };
            out.push_str(&format!("    Optimizable {yn}\n}}\n"));
        }
        out
    }

    /// Parse a configuration file.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown protocol name, and one quoting the
    /// line for a second block of one protocol or a malformed line: an
    /// unknown point, a missing value or a word after it, a point value
    /// other than `null`, `defined` or `default`, or an `Optimizable` other
    /// than `yes` or `no`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = HashMap::new();
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        while let Some(line) = lines.next() {
            let Some(rest) = line.strip_prefix("protocol ") else {
                return Err(format!("expected 'protocol NAME {{', found '{line}'"));
            };
            let name = rest.trim_end_matches('{').trim().to_string();
            let spec = ProtoSpec::by_name(&name)
                .ok_or_else(|| format!("unknown protocol '{name}' in configuration"))?;
            if entries.contains_key(&name) {
                return Err(format!("a second block for protocol {name}: '{line}'"));
            }
            let mut null_actions = Actions::empty();
            let mut optimizable = false;
            loop {
                let Some(body) = lines.next() else {
                    return Err(format!("unterminated protocol block for {name}"));
                };
                if body == "}" {
                    break;
                }
                let bad = |what: &str| Err(format!("{what} in protocol {name}: '{body}'"));
                let mut it = body.split_whitespace();
                let (Some(key), Some(val), None) = (it.next(), it.next(), it.next()) else {
                    return bad("expected a point and one value");
                };
                if key == "Optimizable" {
                    match val {
                        "yes" => optimizable = true,
                        "no" => optimizable = false,
                        _ => return bad("Optimizable is 'yes' or 'no'"),
                    }
                    continue;
                }
                let Some((_, action)) = POINTS.iter().find(|(point, _)| *point == key) else {
                    return bad("unknown point");
                };
                match val {
                    "null" => null_actions = null_actions.union(*action),
                    "defined" | "default" => {}
                    _ => return bad("a point is 'null', 'defined' or 'default'"),
                }
            }
            entries.insert(name, ProtoEntry { spec, optimizable, null_actions });
        }
        Ok(SystemConfig { entries })
    }

    /// The configuration generated from the live registry — what the
    /// benchmarks compile against.
    pub fn builtin() -> Self {
        Self::parse(&Self::render(&all_protocols())).expect("builtin registry renders validly")
    }

    /// Look up a protocol by registered name.
    pub fn get(&self, name: &str) -> Option<&ProtoEntry> {
        self.entries.get(name)
    }

    /// Look up by spec.
    pub fn by_spec(&self, spec: ProtoSpec) -> Option<&ProtoEntry> {
        self.entries.values().find(|e| e.spec == spec)
    }

    /// Whether `spec` is registered optimizable.
    pub fn optimizable(&self, spec: ProtoSpec) -> bool {
        self.by_spec(spec).map(|e| e.optimizable).unwrap_or(false)
    }

    /// Null-action mask for `spec`.
    pub fn null_actions(&self, spec: ProtoSpec) -> Actions {
        self.by_spec(spec).map(|e| e.null_actions).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_round_trips() {
        let cfg = SystemConfig::builtin();
        assert!(!cfg.optimizable(ProtoSpec::Sc));
        assert!(cfg.optimizable(ProtoSpec::StaticUpdate));
        assert!(cfg.null_actions(ProtoSpec::StaticUpdate).contains(Actions::START_READ));
        assert!(cfg.get("SC").is_some());
        assert!(cfg.get("Nope").is_none());
    }

    #[test]
    fn parse_rejects_unknown_protocol() {
        assert!(SystemConfig::parse("protocol Bogus {\n}\n").is_err());
    }

    #[test]
    fn parse_rejects_unknown_point() {
        let r = SystemConfig::parse("protocol SC {\nFlurb null\n}\n");
        assert!(r.is_err());
    }

    /// `parse`'s error for `text`, which must quote `line`.
    fn rejected(text: &str, line: &str) {
        let err = SystemConfig::parse(text).expect_err(text);
        assert!(err.contains(&format!("'{line}'")), "{err}");
    }

    #[test]
    fn parse_rejects_a_point_value_other_than_null_defined_or_default() {
        rejected("protocol SC {\nStartRead nul\n}\n", "StartRead nul");
        rejected("protocol SC {\nStartRead\n}\n", "StartRead");
    }

    #[test]
    fn parse_rejects_an_optimizable_other_than_yes_or_no() {
        rejected("protocol Update {\nOptimizable maybe\n}\n", "Optimizable maybe");
    }

    #[test]
    fn parse_rejects_words_after_the_value() {
        rejected("protocol SC {\nEndRead null defined\n}\n", "EndRead null defined");
        rejected("protocol SC {\nOptimizable no thanks\n}\n", "Optimizable no thanks");
    }

    #[test]
    fn parse_rejects_a_second_block_for_one_protocol() {
        rejected("protocol SC {\n}\nprotocol SC {\n}\n", "protocol SC {");
    }

    #[test]
    fn figure1_style_entry() {
        let cfg = SystemConfig::parse(
            "protocol Update {\nStartRead null\nEndRead null\nLock default\nOptimizable yes\n}\n",
        )
        .unwrap();
        let e = cfg.get("Update").unwrap();
        assert!(e.optimizable);
        assert!(e.null_actions.contains(Actions::START_READ));
        assert!(!e.null_actions.contains(Actions::END_WRITE));
    }
}
