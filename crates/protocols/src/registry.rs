//! Protocol registry: the analogue of the paper's registration script.
//!
//! In the paper (Figure 1), a protocol designer registers a protocol by
//! running a Tcl script that records the protocol's name, which access and
//! synchronization points it handles, and whether its calls may be
//! optimized; the compiler reads the generated system configuration file.
//! Here the same information is a Rust table: [`ProtoSpec`] names a
//! protocol (plus any parameters), [`make`] instantiates it, and
//! [`ProtocolInfo`]/[`all_protocols`] expose the registration metadata the
//! Ace-C compiler consumes.

use std::rc::Rc;

use ace_core::{Actions, GrantSet, Protocol};

use crate::{
    AdaptiveEngine, AdaptiveSpec, DynamicUpdate, FetchAddCounter, HomeOwned, NullProtocol,
    PipelinedWrite, SeqInvalidate,
};

/// A serializable protocol selector, used by applications to request
/// protocols per space and by the Ace-C compiler's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtoSpec {
    /// Sequentially-consistent invalidation (the default).
    Sc,
    /// Dynamic update.
    DynUpdate,
    /// Static update (barrier-time pushes).
    StaticUpdate,
    /// Null protocol.
    Null,
    /// Migratory single-copy: SC whose reads take the exclusive copy.
    Migratory,
    /// Pipelined delta writes.
    Pipelined,
    /// Home-owned bulk regions.
    HomeOwned,
    /// Fetch-and-add counter with the given stride.
    FetchAdd(u64),
    /// Adaptive meta-protocol over a candidate set of the above.
    Adaptive(AdaptiveSpec),
}

impl ProtoSpec {
    /// The registered protocol name (what `Ace_ChangeProtocol` strings
    /// and the compiler configuration refer to).
    pub fn name(self) -> &'static str {
        match self {
            ProtoSpec::Sc => "SC",
            ProtoSpec::DynUpdate => "Update",
            ProtoSpec::StaticUpdate => "StaticUpdate",
            ProtoSpec::Null => "Null",
            ProtoSpec::Migratory => "Migratory",
            ProtoSpec::Pipelined => "Pipelined",
            ProtoSpec::HomeOwned => "HomeOwned",
            ProtoSpec::FetchAdd(_) => "FetchAdd",
            ProtoSpec::Adaptive(_) => "Adaptive",
        }
    }

    /// Parse a registered protocol name.
    pub fn by_name(name: &str) -> Option<ProtoSpec> {
        Some(match name {
            "SC" => ProtoSpec::Sc,
            "Update" => ProtoSpec::DynUpdate,
            "StaticUpdate" => ProtoSpec::StaticUpdate,
            "Null" => ProtoSpec::Null,
            "Migratory" => ProtoSpec::Migratory,
            "Pipelined" => ProtoSpec::Pipelined,
            "HomeOwned" => ProtoSpec::HomeOwned,
            "FetchAdd" => ProtoSpec::FetchAdd(1),
            "Adaptive" => ProtoSpec::Adaptive(AdaptiveSpec::default_set()),
            _ => return None,
        })
    }
}

/// Instantiate a protocol object for one space on the calling node.
pub fn make(spec: ProtoSpec) -> Rc<dyn Protocol> {
    match spec {
        ProtoSpec::Sc => Rc::new(SeqInvalidate::new()),
        ProtoSpec::DynUpdate => Rc::new(DynamicUpdate::new()),
        ProtoSpec::StaticUpdate => Rc::new(DynamicUpdate::at_barrier()),
        ProtoSpec::Null => Rc::new(NullProtocol::new()),
        ProtoSpec::Migratory => Rc::new(SeqInvalidate::migratory()),
        ProtoSpec::Pipelined => Rc::new(PipelinedWrite::new()),
        ProtoSpec::HomeOwned => Rc::new(HomeOwned::new()),
        ProtoSpec::FetchAdd(stride) => Rc::new(FetchAddCounter::with_stride(stride)),
        ProtoSpec::Adaptive(spec) => Rc::new(AdaptiveEngine::new(spec)),
    }
}

/// Registration metadata for one protocol (one line of the paper's system
/// configuration file).
#[derive(Debug, Clone)]
pub struct ProtocolInfo {
    /// Registered name.
    pub name: &'static str,
    /// The selector that instantiates it.
    pub spec: ProtoSpec,
    /// Whether the compiler may move/merge this protocol's calls.
    pub optimizable: bool,
    /// Hooks that are null (candidates for direct-dispatch removal).
    pub null_actions: Actions,
    /// Which concurrent cross-node section combinations the protocol
    /// grants (the conformance checker's ground truth).
    pub grants: GrantSet,
}

/// The full registry, in registration order.
pub fn all_protocols() -> Vec<ProtocolInfo> {
    [
        ProtoSpec::Sc,
        ProtoSpec::DynUpdate,
        ProtoSpec::StaticUpdate,
        ProtoSpec::Null,
        ProtoSpec::Migratory,
        ProtoSpec::Pipelined,
        ProtoSpec::HomeOwned,
        ProtoSpec::FetchAdd(1),
        ProtoSpec::Adaptive(AdaptiveSpec::default_set()),
    ]
    .into_iter()
    .map(|spec| {
        let p = make(spec);
        ProtocolInfo {
            name: spec.name(),
            spec,
            optimizable: p.optimizable(),
            null_actions: p.null_actions(),
            grants: p.grants(),
        }
    })
    .collect()
}

/// Look up registration metadata by name.
pub fn info(name: &str) -> Option<ProtocolInfo> {
    all_protocols().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in all_protocols() {
            assert_eq!(ProtoSpec::by_name(p.name).map(|s| s.name()), Some(p.name));
            assert_eq!(make(p.spec).name(), p.name);
        }
    }

    #[test]
    fn default_protocol_is_not_optimizable() {
        assert!(!info("SC").unwrap().optimizable);
        assert!(info("Update").unwrap().optimizable);
        assert!(info("Null").unwrap().optimizable);
    }

    #[test]
    fn static_update_declares_null_access_hooks() {
        let i = info("StaticUpdate").unwrap();
        assert!(i.null_actions.contains(Actions::START_READ));
        assert!(i.null_actions.contains(Actions::END_READ));
        assert!(!i.null_actions.contains(Actions::END_WRITE));
    }

    #[test]
    fn grant_table_matches_protocol_disciplines() {
        let g = |n: &str| info(n).unwrap().grants;
        assert_eq!(g("SC"), GrantSet::exclusive());
        assert_eq!(g("Migratory"), GrantSet::exclusive());
        assert_eq!(g("Null"), GrantSet::concurrent());
        assert_eq!(g("FetchAdd"), GrantSet::concurrent());
        assert_eq!(g("Update"), GrantSet::concurrent());
        assert_eq!(g("Pipelined"), GrantSet::concurrent());
        assert_eq!(g("StaticUpdate"), GrantSet { write_write: false, read_write: true });
        assert_eq!(g("HomeOwned"), GrantSet { write_write: false, read_write: true });
    }

    #[test]
    fn adaptive_registers_and_delegates_grants_to_its_start_candidate() {
        let i = info("Adaptive").unwrap();
        // Never optimizable: reordering across a potential switch point
        // is unsafe, and the engine's grants start at SC's (exclusive)
        // because delegation tracks the inner protocol.
        assert!(!i.optimizable);
        assert_eq!(i.grants, GrantSet::exclusive());
        assert_eq!(i.null_actions, Actions::empty());
        match i.spec {
            ProtoSpec::Adaptive(s) => assert!(s.is_adaptive()),
            other => panic!("wrong spec: {other:?}"),
        }
    }

    #[test]
    fn unknown_name_rejected() {
        assert!(ProtoSpec::by_name("Bogus").is_none());
        assert!(info("Bogus").is_none());
    }
}
