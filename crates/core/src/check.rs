//! `ace-check`: the runtime access-control conformance layer.
//!
//! When a machine is built with [`CheckMode::Log`] or [`CheckMode::Fail`]
//! (see `MachineBuilder::check`), every node carries a `Checker` that
//! validates the paper's annotation contract *as the protocol actually
//! granted it*:
//!
//! * data accesses must happen inside an open access section of the right
//!   kind (the release-build teeth behind the debug-only asserts in
//!   [`crate::AceRt::with`] / [`crate::AceRt::with_mut`]),
//! * access sections must open/close/nest correctly and be empty when the
//!   node's program exits, and
//! * two nodes must not hold vector-clock-concurrent sections on one
//!   region in a combination the protocol's [`GrantSet`] never grants
//!   (write+write, or write+read).
//!
//! The cross-node check works by recording completed sections together
//! with vector-clock snapshots. Clocks are maintained by the substrate
//! and piggybacked on message envelopes (`Envelope::vc`), so any two
//! sections separated by a message chain — a coherence grant, a barrier
//! epoch — are causally ordered and never reported. (A barrier's chain
//! runs up the combining tree and back down: every arrival and release
//! envelope carries its sender's clock, so happens-before crosses the
//! tree edge by edge, with no single node that every rank talks to.) At
//! shutdown every node's section history is gathered at node 0, which
//! runs the pairwise analysis. Checker metadata is metrologically
//! invisible: vector clocks add no bytes or virtual-time charges, so a
//! checked run reports the same simulated time as an unchecked one (wall
//! clock differs; see DESIGN.md §12).
//!
//! Violations become structured [`AceError::Conformance`] values and
//! `EventKind::Violation` trace events. `Log` records and keeps going;
//! `Fail` panics on the first violation with the rendered report.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use ace_machine::{CheckMode, EventKind, Node, NO_REGION};

use crate::error::{AceError, ConformanceKind, SectionRecord};
use crate::ids::RegionId;
use crate::msg::AceMsg;
use crate::protocol::GrantSet;

/// An access section currently open on this node.
struct OpenSection {
    /// Virtual time the outermost open completed.
    open_t: u64,
    /// Vector clock just after the outermost open completed.
    open_vc: Arc<[u64]>,
    /// Protocol governing the region's space at open time.
    proto: &'static str,
    /// That protocol's declared concurrency grants.
    grants: GrantSet,
}

/// Words per encoded section record on the wire: five header words plus
/// two vector clocks of `nprocs` words each.
fn record_stride(nprocs: usize) -> usize {
    5 + 2 * nprocs
}

/// Per-node conformance state. Constructed unconditionally by the runtime
/// but inert (every entry point returns immediately) under
/// [`CheckMode::Off`].
pub(crate) struct Checker {
    mode: CheckMode,
    /// Open outermost sections, keyed by (region bits, is-write).
    open: RefCell<HashMap<(u64, bool), OpenSection>>,
    /// Completed sections that can participate in a cross-node conflict
    /// (sections whose every overlap is granted are filtered at close).
    history: RefCell<Vec<(SectionRecord, GrantSet)>>,
    /// Violations recorded on this node (including, on node 0, the
    /// cross-node conflicts found at shutdown).
    violations: RefCell<Vec<AceError>>,
    /// Idempotence guard for the shutdown analysis: `AceRt::shutdown` can
    /// run twice (once by the program, once by the `run_ace` wrapper) and
    /// the gather/analysis must happen exactly once.
    analyzed: Cell<bool>,
}

impl Checker {
    pub(crate) fn new(mode: CheckMode) -> Self {
        Checker {
            mode,
            open: RefCell::new(HashMap::new()),
            history: RefCell::new(Vec::new()),
            violations: RefCell::new(Vec::new()),
            analyzed: Cell::new(false),
        }
    }

    /// Whether any checking is active. Callers gate every per-access call
    /// on this so `Off` costs one branch.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// Record a violation: structured error, trace event, node counter —
    /// then panic under [`CheckMode::Fail`].
    pub(crate) fn report(&self, node: &Node<AceMsg>, err: AceError) {
        let region = match &err {
            AceError::Conformance { region, .. } => region.0,
            _ => NO_REGION,
        };
        let sink = node.trace_sink();
        if sink.enabled() {
            sink.emit(
                node.now(),
                EventKind::Violation { region, what: err.to_string().into_boxed_str() },
            );
        }
        node.note_violation();
        self.violations.borrow_mut().push(err.clone());
        if self.mode == CheckMode::Fail {
            panic!("{err}");
        }
    }

    /// Snapshot of every violation recorded on this node so far.
    pub(crate) fn violations(&self) -> Vec<AceError> {
        self.violations.borrow().clone()
    }

    /// An outermost section just opened (its start hook has completed and
    /// the section counter went 0 → 1). Ticking the clock *after* the hook
    /// means the open is causally after whatever grant messages the hook
    /// exchanged — a peer that merged those messages opens "later".
    pub(crate) fn on_open(
        &self,
        node: &Node<AceMsg>,
        region: RegionId,
        write: bool,
        proto: &'static str,
        grants: GrantSet,
    ) {
        let open_vc = node.vc_tick();
        self.open
            .borrow_mut()
            .insert((region.0, write), OpenSection { open_t: node.now(), open_vc, proto, grants });
    }

    /// An outermost section is about to close (counter hit zero, end hook
    /// not yet dispatched). Ticking *before* the hook means whatever
    /// write-back or release messages the hook sends carry a clock that
    /// dominates the close — a peer that merged them opens strictly after
    /// this section in vector-clock order.
    pub(crate) fn on_close(&self, node: &Node<AceMsg>, region: RegionId, write: bool) {
        let Some(open) = self.open.borrow_mut().remove(&(region.0, write)) else {
            return;
        };
        let close_vc = node.vc_tick();
        let g = open.grants;
        // Sections whose every possible overlap is granted can never be
        // the subject of a conflict report; skip recording them so the
        // shutdown exchange stays proportional to what can actually
        // conflict. Read/read never conflicts, so a read section matters
        // only when read+write is ungranted; a write section matters
        // unless both write+write and read+write are granted.
        let recordable = if write { !(g.write_write && g.read_write) } else { !g.read_write };
        if recordable {
            self.history.borrow_mut().push((
                SectionRecord {
                    region,
                    rank: node.rank(),
                    write,
                    proto: open.proto.to_string(),
                    open_t: open.open_t,
                    close_t: node.now(),
                    open_vc: open.open_vc.to_vec(),
                    close_vc: close_vc.to_vec(),
                },
                g,
            ));
        }
    }

    /// Whether the shutdown analysis already ran (sets the guard on first
    /// call). All nodes call this the same number of times in SPMD order,
    /// so the collective gather below it stays aligned.
    pub(crate) fn begin_analysis(&self) -> bool {
        !self.analyzed.replace(true)
    }

    /// Node-exit sweep: every section still open is a leak.
    pub(crate) fn sweep_open(&self, node: &Node<AceMsg>) {
        let mut leaked: Vec<((u64, bool), OpenSection)> = self.open.borrow_mut().drain().collect();
        leaked.sort_by_key(|((bits, write), _)| (*bits, *write));
        for ((bits, write), sec) in leaked {
            self.report(
                node,
                AceError::Conformance {
                    region: RegionId(bits),
                    rank: node.rank(),
                    kind: ConformanceKind::SectionLeftOpen { write, opened_at: sec.open_t },
                },
            );
        }
    }

    /// Flatten this node's section history for the shutdown gather.
    pub(crate) fn encode_history(&self, nprocs: usize) -> Vec<u64> {
        let hist = self.history.borrow();
        let mut out = Vec::with_capacity(hist.len() * record_stride(nprocs));
        for (r, g) in hist.iter() {
            out.push(r.region.0);
            let mut packed = r.rank as u64;
            packed |= (r.write as u64) << 8;
            packed |= (g.write_write as u64) << 9;
            packed |= (g.read_write as u64) << 10;
            out.push(packed);
            out.push(r.open_t);
            out.push(r.close_t);
            let mut name8 = [0u8; 8];
            for (i, &b) in r.proto.as_bytes().iter().take(8).enumerate() {
                name8[i] = b;
            }
            out.push(u64::from_le_bytes(name8));
            debug_assert_eq!(r.open_vc.len(), nprocs);
            out.extend_from_slice(&r.open_vc);
            out.extend_from_slice(&r.close_vc);
        }
        out
    }

    /// Node-0 side of the shutdown exchange: decode every rank's history
    /// and report each vector-clock-concurrent, ungranted pair.
    pub(crate) fn analyze(&self, node: &Node<AceMsg>, all: &[Arc<[u64]>]) {
        let nprocs = node.nprocs();
        let mut by_region: HashMap<u64, Vec<(SectionRecord, GrantSet)>> = HashMap::new();
        for words in all {
            for rec in words.chunks_exact(record_stride(nprocs)) {
                let (r, g) = decode_record(rec, nprocs);
                by_region.entry(r.region.0).or_default().push((r, g));
            }
        }
        let mut regions: Vec<u64> = by_region.keys().copied().collect();
        regions.sort_unstable();
        for bits in regions {
            let recs = &by_region[&bits];
            for (i, j) in find_conflicts(recs) {
                self.report(
                    node,
                    AceError::Conformance {
                        region: RegionId(bits),
                        rank: recs[i].0.rank,
                        kind: ConformanceKind::ConflictingSections {
                            a: Box::new(recs[i].0.clone()),
                            b: Box::new(recs[j].0.clone()),
                        },
                    },
                );
            }
        }
    }
}

/// Decode one wire record (see [`Checker::encode_history`]).
fn decode_record(rec: &[u64], nprocs: usize) -> (SectionRecord, GrantSet) {
    let region = RegionId(rec[0]);
    let packed = rec[1];
    let rank = (packed & 0xff) as usize;
    let write = packed & (1 << 8) != 0;
    let grants =
        GrantSet { write_write: packed & (1 << 9) != 0, read_write: packed & (1 << 10) != 0 };
    let name8 = rec[4].to_le_bytes();
    let len = name8.iter().position(|&b| b == 0).unwrap_or(8);
    let proto = String::from_utf8_lossy(&name8[..len]).into_owned();
    (
        SectionRecord {
            region,
            rank,
            write,
            proto,
            open_t: rec[2],
            close_t: rec[3],
            open_vc: rec[5..5 + nprocs].to_vec(),
            close_vc: rec[5 + nprocs..5 + 2 * nprocs].to_vec(),
        },
        grants,
    )
}

/// Pairwise conflict scan over one region's records: returns index pairs
/// `(i, j)` with `i < j` that are cross-rank, in an ungranted
/// combination, and vector-clock concurrent.
fn find_conflicts(recs: &[(SectionRecord, GrantSet)]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..recs.len() {
        for j in (i + 1)..recs.len() {
            let (a, ga) = &recs[i];
            let (b, gb) = &recs[j];
            if a.rank == b.rank || (!a.write && !b.write) {
                continue;
            }
            let permitted = if a.write && b.write {
                ga.write_write && gb.write_write
            } else {
                ga.read_write && gb.read_write
            };
            if permitted {
                continue;
            }
            // Concurrent iff neither happened-before the other: B's open
            // does not know A's close, and A's open does not know B's.
            let concurrent =
                b.open_vc[a.rank] < a.close_vc[a.rank] && a.open_vc[b.rank] < b.close_vc[b.rank];
            if concurrent {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        rank: usize,
        write: bool,
        open_vc: Vec<u64>,
        close_vc: Vec<u64>,
        g: GrantSet,
    ) -> (SectionRecord, GrantSet) {
        (
            SectionRecord {
                region: RegionId(7),
                rank,
                write,
                proto: "sc".into(),
                open_t: 0,
                close_t: 10,
                open_vc,
                close_vc,
            },
            g,
        )
    }

    #[test]
    fn record_wire_round_trip() {
        let (r, g) = rec(3, true, vec![1, 2], vec![5, 2], GrantSet::exclusive());
        let mut r = r;
        r.proto = "migratory".into(); // truncates to 8 bytes on the wire
        let checker = Checker::new(CheckMode::Log);
        checker.history.borrow_mut().push((r.clone(), g));
        let words = checker.encode_history(2);
        assert_eq!(words.len(), record_stride(2));
        let (d, dg) = decode_record(&words, 2);
        assert_eq!(dg, g);
        assert_eq!(d.region, r.region);
        assert_eq!(d.rank, 3);
        assert!(d.write);
        assert_eq!(d.proto, "migrator", "name truncated to eight bytes");
        assert_eq!(d.open_vc, r.open_vc);
        assert_eq!(d.close_vc, r.close_vc);
    }

    #[test]
    fn concurrent_ungranted_writes_conflict() {
        let ex = GrantSet::exclusive();
        // Neither node's open clock knows the other's close: concurrent.
        let recs = vec![
            rec(0, true, vec![1, 0], vec![3, 0], ex),
            rec(1, true, vec![0, 1], vec![0, 3], ex),
        ];
        assert_eq!(find_conflicts(&recs), vec![(0, 1)]);
    }

    #[test]
    fn causally_ordered_sections_do_not_conflict() {
        let ex = GrantSet::exclusive();
        // Node 1 opened after merging node 0's close (open_vc[0] >= 3).
        let recs = vec![
            rec(0, true, vec![1, 0], vec![3, 0], ex),
            rec(1, true, vec![3, 1], vec![3, 3], ex),
        ];
        assert!(find_conflicts(&recs).is_empty());
    }

    #[test]
    fn granted_overlaps_and_read_read_are_legal() {
        let conc = GrantSet::concurrent();
        let recs = vec![
            rec(0, true, vec![1, 0], vec![3, 0], conc),
            rec(1, true, vec![0, 1], vec![0, 3], conc),
        ];
        assert!(find_conflicts(&recs).is_empty(), "write+write granted");
        let ex = GrantSet::exclusive();
        let recs = vec![
            rec(0, false, vec![1, 0], vec![3, 0], ex),
            rec(1, false, vec![0, 1], vec![0, 3], ex),
        ];
        assert!(find_conflicts(&recs).is_empty(), "read+read never conflicts");
        let recs = vec![
            rec(0, false, vec![1, 0], vec![3, 0], ex),
            rec(1, true, vec![0, 1], vec![0, 3], ex),
        ];
        assert_eq!(find_conflicts(&recs), vec![(0, 1)], "read+write under exclusive grants");
    }

    #[test]
    fn same_rank_pairs_are_skipped() {
        let ex = GrantSet::exclusive();
        let recs = vec![
            rec(0, true, vec![1, 0], vec![3, 0], ex),
            rec(0, true, vec![4, 0], vec![6, 0], ex),
        ];
        assert!(find_conflicts(&recs).is_empty());
    }
}
