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
//! The cross-node check records each completed section that *can*
//! conflict, with what the verdict reads of the node's vector clock
//! ([`ace_machine::VClock`]): the whole clock just after the open, and the
//! one tick of the own lane at the close. Section `a` happened before
//! section `b` exactly when `b`'s open clock has reached `a`'s close tick
//! in `a`'s lane. Clocks are maintained by the substrate and piggybacked
//! on message envelopes (`Envelope::vc`), so any two sections separated
//! by a message chain — a coherence grant, a barrier epoch — are causally
//! ordered and never reported. (A barrier's chain runs up the combining
//! tree and back down: every arrival and release envelope carries its
//! sender's clock, so happens-before crosses the tree edge by edge, with
//! no single node that every rank talks to.)
//!
//! A record is a run of words in one flat per-node history, the node's
//! *chunk* of records closed since its last barrier arrival:
//!
//! ```text
//! [region, rank | flags << 32 | pairs << 40, open_t, close_t, proto8,
//!  close_tick, open_own, (lane, value) × pairs]
//! ```
//!
//! `open_own` and the pairs are the open clock in the substrate's sparse
//! encoding: a lane at the start of `open_own`'s barrier epoch — every
//! rank this node has heard nothing from since its last barrier — is left
//! out, so a record's size follows who talked to whom, not the machine
//! size. A record whose pairs equal the last ones stored in its chunk
//! stores none and sets a flag instead (until a node hears something new
//! from a peer, every section it opens has the same pairs), so a run of
//! such records costs seven words each. A chunk still decodes on its own: its first
//! record with pairs stores them. At every barrier arrival a node moves
//! its chunk into a [`SectionBatch`] on its `BarArrive`, and the root of
//! the barrier tree scans each passage's records in place before it
//! releases the passage, building a [`SectionRecord`] only for the two
//! halves of a pair it reports. Read/read never conflicts, so it gathers
//! and pairs only the records on regions that some record it holds
//! writes. It keeps a window of earlier batches only while a section that
//! may overlap them is still open, so a checked run holds one passage of
//! history, not the whole run's.
//!
//! Checking is metrologically invisible. Vector clocks and batches add no
//! bytes, no messages and no virtual-time charges: a checked run reports
//! the simulated time, message counts and byte counts of the unchecked
//! one (wall clock and memory differ; see DESIGN.md §12).
//!
//! Violations become structured [`AceError::Conformance`] values and
//! `EventKind::Violation` trace events. `Log` records and keeps going;
//! `Fail` panics on the first violation with the rendered report.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use ace_machine::{CheckMode, EventKind, Node, SparseClock, NO_REGION};

use crate::error::{AceError, ConformanceKind, SectionRecord};
use crate::ids::RegionId;
use crate::msg::{AceMsg, SectionBatch};
use crate::protocol::GrantSet;

/// An access section currently open on this node.
struct OpenSection {
    /// Virtual time the outermost open completed.
    open_t: u64,
    /// The vector clock just after the outermost open completed — own
    /// lane, then the other lanes as sparse `(lane, value)` pairs — for a
    /// section that can take part in a conflict. `None` for one whose
    /// every overlap the protocol grants: it is never recorded, so its
    /// open and close are not clock events either.
    open_clock: Option<(u64, Vec<u64>)>,
    /// Protocol governing the region's space at open time.
    proto: &'static str,
    /// That protocol's declared concurrency grants.
    grants: GrantSet,
    /// Barriers this node had arrived at when the section opened.
    passage: u64,
}

/// Words of a record before its sparse open clock.
const HEADER_WORDS: usize = 7;
/// Bit positions in a record's second word, above the 32-bit rank.
const WRITE_BIT: u32 = 32;
const WRITE_WRITE_BIT: u32 = 33;
const READ_WRITE_BIT: u32 = 34;
/// The record's open clock has the pairs last stored in its chunk, and
/// none follow its header.
const SAME_PAIRS_BIT: u32 = 35;
const PAIRS_SHIFT: u32 = 40;

/// One node's records since its last barrier arrival, back to back, and
/// where in them the open-clock pairs last stored lie.
#[derive(Default)]
struct Chunk {
    words: Vec<u64>,
    last_pairs: std::ops::Range<usize>,
}

/// A section at the moment it closes: everything a record holds.
struct Closed<'a> {
    region: RegionId,
    rank: usize,
    write: bool,
    grants: GrantSet,
    proto: &'a str,
    open_t: u64,
    close_t: u64,
    /// The open clock: own lane, then the sparse pairs.
    open_own: u64,
    open_pairs: &'a [u64],
    /// The own lane at the close.
    close_tick: u64,
}

impl Closed<'_> {
    /// Append the record to a chunk, with its pairs only when they differ
    /// from the last ones stored there.
    fn push(&self, chunk: &mut Chunk) {
        debug_assert!(self.rank <= u32::MAX as usize && self.open_pairs.len().is_multiple_of(2));
        let mut name8 = [0u8; 8];
        for (d, &b) in name8.iter_mut().zip(self.proto.as_bytes()) {
            *d = b;
        }
        let same = !self.open_pairs.is_empty()
            && chunk.words[chunk.last_pairs.clone()] == *self.open_pairs;
        let stored = if same { 0 } else { self.open_pairs.len() };
        chunk.words.extend([
            self.region.0,
            self.rank as u64
                | (self.write as u64) << WRITE_BIT
                | (self.grants.write_write as u64) << WRITE_WRITE_BIT
                | (self.grants.read_write as u64) << READ_WRITE_BIT
                | (same as u64) << SAME_PAIRS_BIT
                | (stored as u64 / 2) << PAIRS_SHIFT,
            self.open_t,
            self.close_t,
            u64::from_le_bytes(name8),
            self.close_tick,
            self.open_own,
        ]);
        if !same {
            chunk.last_pairs = chunk.words.len()..chunk.words.len() + stored;
            chunk.words.extend_from_slice(self.open_pairs);
        }
    }
}

/// One record, borrowed from the chunk it was gathered in: its header,
/// and its open clock's pairs (its own, or the last stored before it).
#[derive(Clone, Copy)]
struct Record<'a> {
    head: &'a [u64],
    pairs: &'a [u64],
}

impl<'a> Record<'a> {
    /// Every record of one chunk, in the order they closed.
    fn all(mut words: &'a [u64]) -> impl Iterator<Item = Record<'a>> {
        let mut last: &[u64] = &[];
        std::iter::from_fn(move || {
            (!words.is_empty()).then(|| {
                let (head, rest) = words.split_at(HEADER_WORDS);
                let (pairs, rest) = rest.split_at(2 * (head[1] >> PAIRS_SHIFT) as usize);
                if head[1] & (1 << SAME_PAIRS_BIT) == 0 {
                    last = pairs;
                }
                words = rest;
                Record { head, pairs: last }
            })
        })
    }

    fn region(&self) -> u64 {
        self.head[0]
    }

    fn rank(&self) -> usize {
        (self.head[1] & u64::from(u32::MAX)) as usize
    }

    fn flag(&self, bit: u32) -> bool {
        self.head[1] & (1 << bit) != 0
    }

    fn write(&self) -> bool {
        self.flag(WRITE_BIT)
    }

    fn grants(&self) -> GrantSet {
        GrantSet { write_write: self.flag(WRITE_WRITE_BIT), read_write: self.flag(READ_WRITE_BIT) }
    }

    fn close_tick(&self) -> u64 {
        self.head[5]
    }

    fn open_clock(&self) -> SparseClock<'a> {
        SparseClock { rank: self.rank(), own: self.head[6], pairs: self.pairs }
    }

    /// The record as the report carries it.
    fn materialize(&self, nprocs: usize) -> SectionRecord {
        let name8 = self.head[4].to_le_bytes();
        let len = name8.iter().position(|&b| b == 0).unwrap_or(8);
        SectionRecord {
            region: RegionId(self.region()),
            rank: self.rank(),
            write: self.write(),
            proto: String::from_utf8_lossy(&name8[..len]).into_owned(),
            open_t: self.head[2],
            close_t: self.head[3],
            open_vc: self.open_clock().to_dense(nprocs),
            close_tick: self.close_tick(),
        }
    }
}

/// Whether a section can be the subject of a conflict report. One whose
/// every possible overlap is granted cannot, and is not recorded, so the
/// batches stay proportional to what can actually conflict.
/// Read/read never conflicts, so a read section matters only when
/// read+write is ungranted; a write section matters unless both
/// write+write and read+write are granted.
fn recordable(write: bool, grants: GrantSet) -> bool {
    if write {
        !(grants.write_write && grants.read_write)
    } else {
        !grants.read_write
    }
}

/// Per-node conformance state. Constructed unconditionally by the runtime
/// but inert (every entry point returns immediately) under
/// [`CheckMode::Off`].
pub(crate) struct Checker {
    mode: CheckMode,
    /// Open outermost sections, keyed by (region bits, is-write).
    open: RefCell<HashMap<(u64, bool), OpenSection>>,
    /// Sections closed since this node's last barrier arrival that can
    /// participate in a cross-node conflict (sections whose every overlap
    /// is granted are filtered at open), as one encoded chunk.
    history: RefCell<Chunk>,
    /// Barriers this node has arrived at.
    passage: Cell<u64>,
    /// On the barrier tree's root: earlier passages' batches that a
    /// section still open may conflict with.
    window: RefCell<Window>,
    /// Violations recorded on this node (including, on node 0, the
    /// cross-node conflicts found at each barrier passage).
    violations: RefCell<Vec<AceError>>,
}

impl Checker {
    pub(crate) fn new(mode: CheckMode) -> Self {
        Checker {
            mode,
            open: RefCell::new(HashMap::new()),
            history: RefCell::default(),
            passage: Cell::new(0),
            window: RefCell::default(),
            violations: RefCell::new(Vec::new()),
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
        let open_clock = recordable(write, grants).then(|| {
            let own = node.vc_tick();
            let mut pairs = Vec::new();
            node.vc_push_sparse(&mut pairs);
            (own, pairs)
        });
        self.open.borrow_mut().insert(
            (region.0, write),
            OpenSection {
                open_t: node.now(),
                open_clock,
                proto,
                grants,
                passage: self.passage.get(),
            },
        );
    }

    /// An outermost section is about to close (counter hit zero, end hook
    /// not yet dispatched). Ticking *before* the hook means whatever
    /// write-back or release messages the hook sends carry a clock that
    /// has reached the close tick — a peer that merged them opens strictly
    /// after this section in vector-clock order.
    pub(crate) fn on_close(&self, node: &Node<AceMsg>, region: RegionId, write: bool) {
        let Some(open) = self.open.borrow_mut().remove(&(region.0, write)) else {
            return;
        };
        let Some((open_own, open_pairs)) = open.open_clock else {
            return;
        };
        Closed {
            region,
            rank: node.rank(),
            write,
            grants: open.grants,
            proto: open.proto,
            open_t: open.open_t,
            close_t: node.now(),
            open_own,
            open_pairs: &open_pairs,
            close_tick: node.vc_tick(),
        }
        .push(&mut self.history.borrow_mut());
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

    /// This node is arriving at a barrier: hand its records over for the
    /// passage's batch (their size goes on the node's stats), with the
    /// passage its oldest open recordable section opened at.
    pub(crate) fn take_batch(&self, node: &Node<AceMsg>) -> Box<SectionBatch> {
        let words = self.history.take().words;
        node.note_check_history(Record::all(&words).count() as u64, words.len() as u64);
        let open = self.open.borrow();
        let recordable = open.values().filter(|o| o.open_clock.is_some());
        let oldest = recordable.map(|o| o.passage).min().unwrap_or(u64::MAX);
        self.passage.set(self.passage.get() + 1);
        Box::new(SectionBatch { oldest, chunks: vec![words] })
    }

    /// Root side of a barrier passage, before its release: report every
    /// vector-clock-concurrent, ungranted pair with a half among the
    /// passage's records.
    pub(crate) fn scan_passage(&self, node: &Node<AceMsg>, batch: SectionBatch) {
        let closed_in = self.passage.get() - 1;
        self.window.borrow_mut().scan(closed_in, batch, |a, b| {
            self.report(
                node,
                AceError::Conformance {
                    region: RegionId(a.region()),
                    rank: a.rank(),
                    kind: ConformanceKind::ConflictingSections {
                        a: Box::new(a.materialize(node.nprocs())),
                        b: Box::new(b.materialize(node.nprocs())),
                    },
                },
            );
        });
    }
}

/// The root's retained batches, oldest first, each under the passage its
/// records closed in (the number of barriers their nodes had arrived at).
#[derive(Default)]
struct Window(Vec<(u64, Vec<Vec<u64>>)>);

impl Window {
    /// Call `found` on each conflicting pair with a half in `batch`, the
    /// records that closed in passage `closed_in` (so each pair is judged
    /// once; the older or else lower-ranked half first). Then keep what a
    /// later record may conflict with: a section that opens after this
    /// barrier is ordered after every record it carried (the release
    /// carries the root's clock, which merged every arrival), so only a
    /// section open now can overlap them — keep the batches from
    /// `batch.oldest` on, none when no section spans the barrier.
    ///
    /// Read/read never conflicts, so only records on a region that some
    /// record here writes are gathered at all.
    fn scan(&mut self, closed_in: u64, batch: SectionBatch, mut found: impl FnMut(Record, Record)) {
        let records = || {
            let old = self.0.iter().map(|(_, chunks)| (false, chunks));
            old.chain([(true, &batch.chunks)]).flat_map(|(fresh, chunks)| {
                chunks.iter().flat_map(|c| Record::all(c)).map(move |r| (fresh, r))
            })
        };
        let mut written: Vec<u64> =
            records().filter(|(_, r)| r.write()).map(|(_, r)| r.region()).collect();
        written.sort_unstable();
        written.dedup();
        let mut all: Vec<_> =
            records().filter(|(_, r)| written.binary_search(&r.region()).is_ok()).collect();
        // Stable: a rank's records stay in the order they closed.
        all.sort_by_key(|(fresh, r)| (r.region(), *fresh, r.rank()));
        let mut group = Vec::new();
        for region in all.chunk_by(|a, b| a.1.region() == b.1.region()) {
            group.clear();
            group.extend(region.iter().map(|&(_, r)| r));
            let from = region.partition_point(|(fresh, _)| !fresh);
            for (i, j) in find_conflicts(&group, from) {
                found(group[i], group[j]);
            }
        }
        self.0.push((closed_in, batch.chunks));
        self.0.retain(|(c, _)| *c >= batch.oldest);
    }
}

/// Pairwise conflict scan over one region's records: returns index pairs
/// `(i, j)` with `i < j` and `from <= j` that are cross-rank, in an
/// ungranted combination, and vector-clock concurrent.
fn find_conflicts(recs: &[Record], from: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..recs.len() {
        for j in (i + 1).max(from)..recs.len() {
            let (a, b) = (&recs[i], &recs[j]);
            if a.rank() == b.rank() || (!a.write() && !b.write()) {
                continue;
            }
            let (ga, gb) = (a.grants(), b.grants());
            let permitted = if a.write() && b.write() {
                ga.write_write && gb.write_write
            } else {
                ga.read_write && gb.read_write
            };
            if permitted {
                continue;
            }
            // Concurrent iff neither happened-before the other: B's open
            // does not know A's close, and A's open does not know B's.
            let concurrent = b.open_clock().lane(a.rank()) < a.close_tick()
                && a.open_clock().lane(b.rank()) < b.close_tick();
            if concurrent {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};
    use std::sync::Arc;

    use ace_machine::VClock;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// Append a record on region 7 whose open clock is the dense `open_vc`
    /// and whose close ticked the own lane to `close_tick`.
    fn push_rec(
        chunk: &mut Chunk,
        rank: usize,
        write: bool,
        open_vc: &[u64],
        close_tick: u64,
        g: GrantSet,
    ) {
        let mut clock = VClock::new(rank, open_vc.len());
        clock.merge(open_vc);
        let mut open_pairs = Vec::new();
        clock.push_sparse(&mut open_pairs);
        Closed {
            region: RegionId(7),
            rank,
            write,
            grants: g,
            proto: "sc",
            open_t: 0,
            close_t: 10,
            open_own: open_vc[rank],
            open_pairs: &open_pairs,
            close_tick,
        }
        .push(chunk);
    }

    /// One such record, as a chunk of its own.
    fn rec(rank: usize, write: bool, open_vc: &[u64], close_tick: u64, g: GrantSet) -> Vec<u64> {
        let mut chunk = Chunk::default();
        push_rec(&mut chunk, rank, write, open_vc, close_tick, g);
        chunk.words
    }

    fn first(words: &[u64]) -> Record<'_> {
        Record::all(words).next().unwrap()
    }

    fn conflicts(history: &[Vec<u64>]) -> Vec<(usize, usize)> {
        let recs: Vec<Record> = history.iter().map(|w| first(w)).collect();
        find_conflicts(&recs, 0)
    }

    #[test]
    fn record_round_trip() {
        let e1 = 1u64 << 32;
        let open_vc = [e1 + 9, e1, e1, e1 + 2, e1];
        let mut chunk = Chunk::default();
        Closed {
            region: RegionId(7),
            rank: 3,
            write: true,
            grants: GrantSet::exclusive(),
            proto: "migratory", // truncates to 8 bytes
            open_t: 5,
            close_t: 10,
            open_own: open_vc[3],
            open_pairs: &[0, e1 + 9],
            close_tick: e1 + 3,
        }
        .push(&mut chunk);
        let first_len = chunk.words.len();
        push_rec(&mut chunk, 1, false, &[0, 1], 2, GrantSet::concurrent());

        assert_eq!(first_len, HEADER_WORDS + 2, "one lane off the epoch default: one pair");
        let recs: Vec<Record> = Record::all(&chunk.words).collect();
        assert_eq!(recs.len(), 2, "records of different lengths walk back to back");
        let d = recs[0].materialize(5);
        assert_eq!(recs[0].grants(), GrantSet::exclusive());
        assert_eq!(d.region, RegionId(7));
        assert_eq!(d.rank, 3);
        assert!(d.write);
        assert_eq!(d.proto, "migrator", "name truncated to eight bytes");
        assert_eq!((d.open_t, d.close_t), (5, 10));
        assert_eq!(d.open_vc, open_vc);
        assert_eq!(d.close_tick, e1 + 3);
        let d = recs[1].materialize(2);
        assert_eq!((d.rank, d.write, d.open_vc, d.close_tick), (1, false, vec![0, 1], 2));
        assert_eq!(recs[1].grants(), GrantSet::concurrent());
    }

    #[test]
    fn ranks_past_255_do_not_alias_the_flags() {
        // Rank 256 was the write flag in the first layout, and 300 read
        // back as 44.
        let n = 400;
        let mut open = vec![0; n];
        open[300] = 1;
        let r = rec(300, false, &open, 2, GrantSet::exclusive());
        let r = first(&r);
        assert_eq!((r.rank(), r.write()), (300, false));
        open[300] = 0;
        open[256] = 1;
        let w = rec(256, true, &open, 2, GrantSet::exclusive());
        let w = first(&w);
        assert_eq!((w.rank(), w.write()), (256, true));
        assert_eq!(find_conflicts(&[r, w], 0), vec![(0, 1)]);
    }

    #[test]
    fn a_shared_open_clock_is_stored_once() {
        let e1 = 1u64 << 32;
        let shared = [e1 + 4, e1 + 7, e1, e1 + 2];
        let other = [e1 + 5, e1 + 7, e1, e1 + 2];
        let ex = GrantSet::exclusive();
        let mut chunk = Chunk::default();
        for tick in [8, 9, 10] {
            push_rec(&mut chunk, 1, tick % 2 == 0, &shared, e1 + tick, ex);
        }
        let once = 3 * HEADER_WORDS + 4;
        assert_eq!(
            chunk.words.len(),
            once,
            "two pairs after the first header, none after the rest"
        );
        push_rec(&mut chunk, 1, true, &other, e1 + 11, ex);
        push_rec(&mut chunk, 1, true, &other, e1 + 12, ex);
        assert_eq!(chunk.words.len(), once + 2 * HEADER_WORDS + 4, "a new clock is stored again");

        // The next chunk starts afresh: its first record carries its pairs.
        let mut next = Chunk::default();
        push_rec(&mut next, 1, false, &other, e1 + 13, ex);
        assert_eq!(next.words.len(), HEADER_WORDS + 4);
        let dense = |words: &[u64]| -> Vec<Vec<u64>> {
            Record::all(words).map(|r| r.materialize(4).open_vc).collect()
        };
        let want = [&shared, &shared, &shared, &other, &other].map(|c| c.to_vec());
        assert_eq!(dense(&chunk.words), want);
        assert_eq!(dense(&next.words), [other.to_vec()], "decoded with no predecessor");
    }

    #[test]
    fn concurrent_ungranted_writes_conflict() {
        let ex = GrantSet::exclusive();
        // Neither node's open clock knows the other's close: concurrent.
        let recs = [rec(0, true, &[1, 0], 3, ex), rec(1, true, &[0, 1], 3, ex)];
        assert_eq!(conflicts(&recs), vec![(0, 1)]);
    }

    #[test]
    fn causally_ordered_sections_do_not_conflict() {
        let ex = GrantSet::exclusive();
        // Node 1 opened after merging node 0's close (open_vc[0] >= 3).
        let recs = [rec(0, true, &[1, 0], 3, ex), rec(1, true, &[3, 1], 3, ex)];
        assert!(conflicts(&recs).is_empty());
    }

    #[test]
    fn granted_overlaps_and_read_read_are_legal() {
        let conc = GrantSet::concurrent();
        let recs = [rec(0, true, &[1, 0], 3, conc), rec(1, true, &[0, 1], 3, conc)];
        assert!(conflicts(&recs).is_empty(), "write+write granted");
        let ex = GrantSet::exclusive();
        let recs = [rec(0, false, &[1, 0], 3, ex), rec(1, false, &[0, 1], 3, ex)];
        assert!(conflicts(&recs).is_empty(), "read+read never conflicts");
        let recs = [rec(0, false, &[1, 0], 3, ex), rec(1, true, &[0, 1], 3, ex)];
        assert_eq!(conflicts(&recs), vec![(0, 1)], "read+write under exclusive grants");
    }

    #[test]
    fn same_rank_pairs_are_skipped() {
        let ex = GrantSet::exclusive();
        let recs = [rec(0, true, &[1, 0], 3, ex), rec(0, true, &[4, 0], 6, ex)];
        assert!(conflicts(&recs).is_empty());
    }

    /// The representation and the verdict this module first shipped with:
    /// a clock that ticks at every send, receive and section event, and a
    /// record holding two dense clocks. Kept as the reference the sparse
    /// records are tested against.
    mod oracle {
        use super::GrantSet;

        pub struct DenseClock {
            pub rank: usize,
            pub lanes: Vec<u64>,
        }

        impl DenseClock {
            /// A send, a section open or a section close.
            pub fn tick(&mut self) -> Vec<u64> {
                self.lanes[self.rank] += 1;
                self.lanes.clone()
            }

            /// A receive.
            pub fn merge(&mut self, other: &[u64]) {
                for (mine, theirs) in self.lanes.iter_mut().zip(other) {
                    *mine = (*mine).max(*theirs);
                }
                self.lanes[self.rank] += 1;
            }
        }

        pub struct DenseRecord {
            pub rank: usize,
            pub write: bool,
            pub open_vc: Vec<u64>,
            pub close_vc: Vec<u64>,
        }

        pub fn find_conflicts(recs: &[(&DenseRecord, GrantSet)]) -> Vec<(usize, usize)> {
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
                    let concurrent = b.open_vc[a.rank] < a.close_vc[a.rank]
                        && a.open_vc[b.rank] < b.close_vc[b.rank];
                    if concurrent {
                        out.push((i, j));
                    }
                }
            }
            out
        }
    }

    #[derive(Clone, Copy)]
    enum Op {
        Send(usize),
        Open(u64, bool),
        Close(u64, bool),
        Barrier,
    }

    #[derive(Clone, Copy)]
    enum Kind {
        App,
        Arrive(u64),
        Release(u64),
    }

    struct Msg {
        kind: Kind,
        new_vc: Arc<[u64]>,
        old_vc: Vec<u64>,
    }

    /// An outermost section open on a model rank.
    struct ModelOpen {
        depth: usize,
        /// As [`OpenSection::open_clock`], plus the dense clock it encodes.
        new: Option<(u64, Vec<u64>, Vec<u64>)>,
        old_vc: Vec<u64>,
        /// As [`OpenSection::passage`].
        passage: u64,
    }

    struct ModelRank {
        new: VClock,
        old: oracle::DenseClock,
        program: VecDeque<Op>,
        open: HashMap<(u64, bool), ModelOpen>,
        /// Barriers entered, and the one being waited in.
        passages: u64,
        waiting: bool,
        arrived: HashMap<u64, usize>,
        /// Records closed since the last arrival, as [`Checker::history`].
        chunk: Chunk,
        /// Per record: the dense clock its open clock was taken from.
        opened_at: Vec<Vec<u64>>,
        dense: Vec<(u64, oracle::DenseRecord)>,
        /// Every chunk an arrival shipped, in order, and per shipped
        /// record the passage whose batch carried it.
        shipped: Vec<Vec<u64>>,
        shipped_in: Vec<u64>,
    }

    impl ModelRank {
        /// As [`Checker::take_batch`], into the batch of the passage
        /// whose records are those closed since the last arrival.
        fn ship(&mut self, batch: &mut SectionBatch) {
            let recordable = self.open.values().filter(|o| o.new.is_some());
            let oldest = recordable.map(|o| o.passage).min().unwrap_or(u64::MAX);
            batch.oldest = batch.oldest.min(oldest);
            let chunk = std::mem::take(&mut self.chunk).words;
            batch.chunks.push(chunk.clone());
            self.shipped.push(chunk);
            self.shipped_in.resize(self.opened_at.len(), self.passages);
        }
    }

    /// What one schedule exercised.
    #[derive(Default)]
    struct Seen {
        candidates: usize,
        conflicts: usize,
        open_across_barrier: usize,
        peer_a_passage_ahead: usize,
        silent_rank: usize,
        /// Conflicts the window scan found between two passages' records.
        through_window: usize,
        /// Of those, conflicts on a region no record of the newer passage
        /// writes.
        retained_write_only: usize,
        /// Records whose open clock shares the pairs stored before it.
        shared_clock: usize,
        /// Regions with records, none of them a write.
        read_only_region: usize,
    }

    fn children(r: usize, n: usize) -> impl Iterator<Item = usize> {
        (2 * r + 1..=2 * r + 2).filter(move |&c| c < n)
    }

    /// A random program: sends, barriers (the same number on every rank)
    /// and nested / overlapping sections, every one closed by the end.
    fn program(rng: &mut StdRng, rank: usize, n: usize, barriers: usize) -> Vec<Op> {
        // One rank in four holds no section at all.
        let silent = rng.gen_bool(0.25);
        let mut ops = Vec::new();
        let mut depth: HashMap<(u64, bool), usize> = HashMap::new();
        for _ in 0..rng.gen_range(6..30) {
            let held: Vec<(u64, bool)> = depth.keys().copied().collect();
            match rng.gen_range(0..10) {
                0..=2 => ops.push(Op::Send((rank + rng.gen_range(1..n)) % n)),
                3..=6 if !silent => {
                    let key = (rng.gen_range(0..3u64), rng.gen_bool(0.5));
                    *depth.entry(key).or_insert(0) += 1;
                    ops.push(Op::Open(key.0, key.1));
                }
                7..=9 if !held.is_empty() => {
                    let key = held[rng.gen_range(0..held.len())];
                    let d = depth.get_mut(&key).unwrap();
                    *d -= 1;
                    if *d == 0 {
                        depth.remove(&key);
                    }
                    ops.push(Op::Close(key.0, key.1));
                }
                _ => {}
            }
        }
        for _ in 0..barriers {
            ops.insert(rng.gen_range(0..ops.len() + 1), Op::Barrier);
        }
        for (key, d) in depth {
            ops.extend(std::iter::repeat_n(Op::Close(key.0, key.1), d));
        }
        ops
    }

    /// Run one seeded schedule through both representations and compare
    /// the pairs they report.
    fn differential(seed: u64, seen: &mut Seen) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..7);
        let barriers = rng.gen_range(0..4);
        let grant_sets = [
            GrantSet::exclusive(),
            GrantSet::concurrent(),
            GrantSet { write_write: false, read_write: true },
        ];
        let grants: Vec<GrantSet> = (0..3).map(|_| grant_sets[rng.gen_range(0..3usize)]).collect();
        let mut ranks: Vec<ModelRank> = (0..n)
            .map(|r| ModelRank {
                new: VClock::new(r, n),
                old: oracle::DenseClock { rank: r, lanes: vec![0; n] },
                program: program(rng, r, n, barriers).into(),
                open: HashMap::new(),
                passages: 0,
                waiting: false,
                arrived: HashMap::new(),
                chunk: Chunk::default(),
                opened_at: Vec::new(),
                dense: Vec::new(),
                shipped: Vec::new(),
                shipped_in: Vec::new(),
            })
            .collect();
        // One batch per passage, and one for what closed after the last.
        let mut batches: Vec<SectionBatch> =
            (0..=barriers).map(|_| SectionBatch { oldest: u64::MAX, chunks: Vec::new() }).collect();
        // Per-pair FIFO channels, `chan[dst][src]`.
        let mut chan: Vec<Vec<VecDeque<Msg>>> =
            (0..n).map(|_| (0..n).map(|_| VecDeque::new()).collect()).collect();

        fn send(
            ranks: &mut [ModelRank],
            chan: &mut [Vec<VecDeque<Msg>>],
            src: usize,
            dst: usize,
            kind: Kind,
        ) {
            let r = &mut ranks[src];
            chan[dst][src].push_back(Msg { kind, new_vc: r.new.stamp(), old_vc: r.old.tick() });
        }
        // The combining tree of `AceRt::barrier_tag`, binary here.
        fn arrive(ranks: &mut [ModelRank], chan: &mut [Vec<VecDeque<Msg>>], r: usize, epoch: u64) {
            let n = ranks.len();
            let count = ranks[r].arrived.entry(epoch).or_insert(0);
            *count += 1;
            if *count == 1 + children(r, n).count() {
                match r.checked_sub(1) {
                    Some(up) => send(ranks, chan, r, up / 2, Kind::Arrive(epoch)),
                    None => release(ranks, chan, r, epoch),
                }
            }
        }
        fn release(ranks: &mut [ModelRank], chan: &mut [Vec<VecDeque<Msg>>], r: usize, epoch: u64) {
            for c in children(r, ranks.len()) {
                send(ranks, chan, r, c, Kind::Release(epoch));
            }
            assert!(ranks[r].waiting && ranks[r].passages == epoch);
            ranks[r].waiting = false;
        }

        loop {
            let ready: Vec<usize> = (0..n)
                .filter(|&r| {
                    chan[r].iter().any(|q| !q.is_empty())
                        || (!ranks[r].waiting && !ranks[r].program.is_empty())
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            let r = ready[rng.gen_range(0..ready.len())];
            let inbound: Vec<usize> = (0..n).filter(|&s| !chan[r][s].is_empty()).collect();
            let can_run = !ranks[r].waiting && !ranks[r].program.is_empty();
            if !inbound.is_empty() && (!can_run || rng.gen_bool(0.5)) {
                let src = inbound[rng.gen_range(0..inbound.len())];
                let m = chan[r][src].pop_front().unwrap();
                let me = &mut ranks[r];
                if m.new_vc[src] >> 32 > me.new.lanes()[r] >> 32 {
                    seen.peer_a_passage_ahead += 1;
                }
                me.new.merge(&m.new_vc);
                me.old.merge(&m.old_vc);
                match m.kind {
                    Kind::App => {}
                    Kind::Arrive(epoch) => arrive(&mut ranks, &mut chan, r, epoch),
                    Kind::Release(epoch) => release(&mut ranks, &mut chan, r, epoch),
                }
                continue;
            }
            let me = &mut ranks[r];
            match me.program.pop_front().unwrap() {
                Op::Send(dst) => send(&mut ranks, &mut chan, r, dst, Kind::App),
                Op::Barrier => {
                    if me.open.values().any(|o| o.new.is_some()) {
                        seen.open_across_barrier += 1;
                    }
                    me.ship(&mut batches[me.passages as usize]);
                    me.passages += 1;
                    me.waiting = true;
                    me.new.enter_barrier();
                    let epoch = me.passages;
                    arrive(&mut ranks, &mut chan, r, epoch);
                }
                Op::Open(region, write) => {
                    if let Some(o) = me.open.get_mut(&(region, write)) {
                        o.depth += 1;
                        continue;
                    }
                    // As `Checker::on_open`.
                    let new = recordable(write, grants[region as usize]).then(|| {
                        let own = me.new.tick();
                        let mut pairs = Vec::new();
                        me.new.push_sparse(&mut pairs);
                        (own, pairs, me.new.lanes().to_vec())
                    });
                    let (old_vc, passage) = (me.old.tick(), me.passages);
                    me.open.insert((region, write), ModelOpen { depth: 1, new, old_vc, passage });
                }
                Op::Close(region, write) => {
                    let o = me.open.get_mut(&(region, write)).unwrap();
                    o.depth -= 1;
                    if o.depth > 0 {
                        continue;
                    }
                    let o = me.open.remove(&(region, write)).unwrap();
                    let close_vc = me.old.tick();
                    // As `Checker::on_close`.
                    let Some((open_own, open_pairs, dense)) = o.new else { continue };
                    let seq = me.opened_at.len() as u64;
                    Closed {
                        region: RegionId(region),
                        rank: r,
                        write,
                        grants: grants[region as usize],
                        proto: "model",
                        open_t: seq,
                        close_t: seq,
                        open_own,
                        open_pairs: &open_pairs,
                        close_tick: me.new.tick(),
                    }
                    .push(&mut me.chunk);
                    me.opened_at.push(dense);
                    me.dense.push((
                        region,
                        oracle::DenseRecord { rank: r, write, open_vc: o.old_vc, close_vc },
                    ));
                }
            }
        }
        assert!(ranks.iter().all(|r| !r.waiting && r.passages == barriers as u64), "seed {seed}");
        for r in &mut ranks {
            r.ship(&mut batches[barriers]);
        }
        if ranks.iter().any(|r| r.opened_at.is_empty())
            && ranks.iter().any(|r| !r.opened_at.is_empty())
        {
            seen.silent_rank += 1;
        }

        // A section is named by its rank and its index in that rank's
        // history; both sides record the same sections in the same order.
        // Each chunk decodes on its own, as the root reads it.
        type Name = (usize, u64);
        let (mut new_pairs, mut old_pairs) = (BTreeSet::<(Name, Name)>::new(), BTreeSet::new());
        for region in 0..3u64 {
            let recs: Vec<Record> = ranks
                .iter()
                .flat_map(|r| r.shipped.iter().flat_map(|c| Record::all(c)))
                .filter(|rec| rec.region() == region)
                .collect();
            seen.shared_clock += recs.iter().filter(|rec| rec.flag(SAME_PAIRS_BIT)).count();
            if !recs.is_empty() && recs.iter().all(|rec| !rec.write()) {
                seen.read_only_region += 1;
            }
            let names: Vec<Name> = recs
                .iter()
                .map(|rec| {
                    let SectionRecord { rank, open_t: seq, open_vc, .. } = rec.materialize(n);
                    assert_eq!(
                        open_vc, ranks[rank].opened_at[seq as usize],
                        "seed {seed}: lossless"
                    );
                    (rank, seq)
                })
                .collect();
            new_pairs
                .extend(find_conflicts(&recs, 0).into_iter().map(|(i, j)| (names[i], names[j])));

            let (dense_names, dense): (Vec<Name>, Vec<_>) = ranks
                .iter()
                .flat_map(|r| r.dense.iter().enumerate())
                .filter(|(_, (reg, _))| *reg == region)
                .map(|(seq, (_, rec))| ((rec.rank, seq as u64), (rec, grants[region as usize])))
                .unzip();
            assert_eq!(names, dense_names, "seed {seed}");
            old_pairs.extend(
                oracle::find_conflicts(&dense).into_iter().map(|(i, j)| (names[i], names[j])),
            );
            for (i, (a, g)) in dense.iter().enumerate() {
                seen.candidates += dense[i + 1..]
                    .iter()
                    .filter(|(b, _)| {
                        a.rank != b.rank
                            && (a.write || b.write)
                            && !(if a.write && b.write { g.write_write } else { g.read_write })
                    })
                    .count();
            }
        }
        assert_eq!(new_pairs, old_pairs, "seed {seed}: {n} ranks, {barriers} barriers");
        seen.conflicts += new_pairs.len();

        // The same records streamed: each passage's batch scanned at the
        // root against the window, as `Checker::scan_passage` does.
        let mut window = Window::default();
        let mut streamed = BTreeSet::new();
        for (closed_in, batch) in batches.into_iter().enumerate() {
            let fresh_written: BTreeSet<u64> = (batch.chunks.iter())
                .flat_map(|c| Record::all(c))
                .filter_map(|rec| rec.write().then_some(rec.region()))
                .collect();
            window.scan(closed_in as u64, batch, |a, b| {
                let region = a.region();
                let [a, b] = [a, b].map(|rec| (rec.rank(), rec.head[2]));
                let shipped_in = |(rank, seq): Name| ranks[rank].shipped_in[seq as usize];
                assert_eq!(shipped_in(b), closed_in as u64, "seed {seed}: a pair has a new half");
                if shipped_in(a) != shipped_in(b) {
                    seen.through_window += 1;
                    if !fresh_written.contains(&region) {
                        seen.retained_write_only += 1;
                    }
                }
                let pair = if a < b { (a, b) } else { (b, a) };
                assert!(streamed.insert(pair), "seed {seed}: {pair:?} judged twice");
            });
        }
        assert!(window.0.is_empty(), "seed {seed}: nothing stays open past the end");
        assert_eq!(streamed, new_pairs, "seed {seed}: {n} ranks, {barriers} barriers, streamed");
    }

    #[test]
    fn sparse_records_report_the_pairs_the_dense_ones_did() {
        let mut seen = Seen::default();
        for seed in 0..1000 {
            differential(seed, &mut seen);
        }
        // Both verdicts occur, and so does each edge the barrier epochs add.
        assert!(0 < seen.conflicts && seen.conflicts < seen.candidates);
        assert!(seen.open_across_barrier > 0, "a section held open across a barrier");
        assert!(seen.peer_a_passage_ahead > 0, "a message from a peer one passage ahead");
        assert!(seen.silent_rank > 0, "a rank that contributes no record");
        assert!(seen.through_window > 0, "a conflict with a section held open across a barrier");
        // Only regions someone writes are scanned: one written only by a
        // retained record still is, and a read-only one changes nothing.
        assert!(seen.retained_write_only > 0, "a fresh read against a retained write");
        assert!(seen.read_only_region > 0, "a region only read");
        assert!(seen.shared_clock > 0, "a record that stores no pairs of its own");
        eprintln!(
            "{} conflicts, {} through the window ({} on a region written only before), \
             {} read-only regions, {} records sharing a clock",
            seen.conflicts,
            seen.through_window,
            seen.retained_write_only,
            seen.read_only_region,
            seen.shared_clock,
        );
    }
}
