//! The adaptive meta-protocol: pick the protocol from observed sharing.
//!
//! The paper's position is that the *programmer* names the right protocol
//! per data structure (§2.2); this engine closes the loop for programs
//! whose sharing pattern is unknown until runtime, or drifts across
//! phases. [`AdaptiveEngine`] wraps one of the eight static protocols as
//! an interchangeable *inner* protocol, samples per-space sharing signals
//! on the slow path (remote misses, upgrades, write/read mix, home
//! fan-out), aggregates them machine-wide over the barrier the space
//! executes anyway, and switches the space between candidates at those
//! barriers — the flush points where the PR-3 fast-mask handover is
//! already defined.
//!
//! # Coherent switching with zero extra messages
//!
//! Every node stages its interval profile with
//! [`ace_core::AceRt::stage_bar_profile`]; the words ride the `BarArrive`
//! the barrier sends anyway, each node of the barrier's combining tree
//! sums its subtree's element-wise into the one arrival it passes up, and
//! the root's total rides every `BarRelease`. After the barrier all nodes hold
//! the *identical* machine-wide sum and run the identical deterministic
//! [`decide`] on it — so they reach the same verdict by construction, and
//! the switch itself is a collective that needs no arbitration round.
//! Two profile words are coherence proofs, not signals: the engine's
//! switch epoch and current-candidate bit must aggregate to exactly
//! `nprocs ×` the local value (debug-asserted).
//!
//! The switch *is* `change_protocol`'s §3.1 handover — the same runtime
//! routine, [`ace_core::AceRt::handover`], with "swap the inner protocol"
//! in place of "rebind the space": old protocol flushes every region to
//! base state → drain outstanding → machine barrier → swap inner, bump the
//! wire-visible switch epoch → `adopt` (the runtime re-caches every
//! region's fast mask from the new protocol) → machine barrier.
//!
//! # What it costs
//!
//! Nothing on the fast path: fast-mask hits bypass protocol dispatch
//! entirely, so the engine's sampling only runs on accesses that were
//! already paying for a hook. Sampling itself is a few `Cell` increments,
//! and the profile exchange is metrologically invisible (the barrier
//! messages charge their fixed size with or without it).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ace_core::{AceRt, Actions, GrantSet, ProtoMsg, Protocol, RegionEntry, SpaceEntry};

use crate::registry::{make, ProtoSpec};
use crate::states::{R_INVALID, R_SHARED};

/// Candidate-set configuration for one adaptive space: which protocols
/// the engine may select, where it starts, and whether it storms.
///
/// Candidates are a bitmask of [`AdaptiveSpec::SC`] and friends. A
/// single-bit set *pins* the engine: it delegates every hook to that
/// protocol and never profiles or switches — the harness for proving the
/// engine itself is free (pinned adaptive must be indistinguishable from
/// the static protocol in data and logical traffic).
///
/// [`AdaptiveSpec::NULL`] and [`AdaptiveSpec::FETCH_ADD`] are accepted
/// only pinned. Null is the trap candidate: under it every access is a
/// fast-path hit and no data moves, so the engine would see zero signals
/// while coherence silently rots. FetchAdd redefines `lock` itself (a
/// fetch-and-add, not a mutex), so crossing to or from it changes program
/// meaning, not just cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdaptiveSpec {
    /// Bitmask of candidate protocols.
    pub candidates: u8,
    /// The single candidate bit the space starts on.
    pub initial: u8,
    /// Storm mode: ignore the cost model and rotate round-robin through
    /// the candidate set at every profiled barrier. A stress harness for
    /// the handover machinery, not a policy.
    pub storm: bool,
}

impl AdaptiveSpec {
    /// Sequentially-consistent invalidation ([`crate::SeqInvalidate`]).
    pub const SC: u8 = 1 << 0;
    /// Dynamic update ([`crate::DynamicUpdate`]).
    pub const DYN_UPDATE: u8 = 1 << 1;
    /// Static update ([`crate::DynamicUpdate`] pushing at the barrier).
    pub const STATIC_UPDATE: u8 = 1 << 2;
    /// Migratory single-copy ([`crate::SeqInvalidate`] with exclusive reads).
    pub const MIGRATORY: u8 = 1 << 3;
    /// Null protocol ([`crate::NullProtocol`]) — pinned only.
    pub const NULL: u8 = 1 << 4;
    /// Pipelined delta writes ([`crate::PipelinedWrite`]).
    pub const PIPELINED: u8 = 1 << 5;
    /// Home-owned bulk regions (the [`crate::PipelinedWrite`] that
    /// [`crate::make`] builds for [`crate::ProtoSpec::HomeOwned`]).
    pub const HOME_OWNED: u8 = 1 << 6;
    /// Fetch-and-add counter (the [`crate::NullProtocol`] that
    /// [`crate::make`] builds for [`crate::ProtoSpec::FetchAdd`]) — pinned
    /// only.
    pub const FETCH_ADD: u8 = 1 << 7;

    /// The free-running default: the candidates that share the section
    /// programming model and move data (everything except the pinned-only
    /// Null and FetchAdd, and except HomeOwned, whose home-only-writes
    /// assertion a generic program cannot be assumed to honour).
    pub fn default_set() -> Self {
        AdaptiveSpec::new(
            Self::SC | Self::DYN_UPDATE | Self::STATIC_UPDATE | Self::MIGRATORY | Self::PIPELINED,
        )
    }

    /// An engine free to pick among `candidates`, starting from SC when
    /// present (else the lowest bit). It may act on the very first profiled
    /// interval: the 25% hysteresis bar in `decide` is what damps
    /// oscillation; a dwell would only delay the first (usually decisive)
    /// switch, and on barrier-dense apps those extra intervals under the
    /// wrong protocol are the dominant cost of adapting at all.
    pub fn new(candidates: u8) -> Self {
        assert!(candidates != 0, "adaptive spec needs at least one candidate");
        let initial =
            if candidates & Self::SC != 0 { Self::SC } else { 1 << candidates.trailing_zeros() };
        AdaptiveSpec { candidates, initial, storm: false }
    }

    /// An engine pinned to a single protocol: pure delegation, no
    /// profiling, no switches.
    pub fn pinned(bit: u8) -> Self {
        assert_eq!(bit.count_ones(), 1, "pin takes exactly one candidate bit");
        AdaptiveSpec { candidates: bit, initial: bit, storm: false }
    }

    /// Override the starting candidate.
    pub fn starting_at(mut self, bit: u8) -> Self {
        assert!(self.candidates & bit != 0 && bit.count_ones() == 1);
        self.initial = bit;
        self
    }

    /// Does nothing: an engine may switch at every profiled barrier, so
    /// there is no dwell to set. Kept only because the repo benchmark
    /// (`benchmark/`, read-only to a change here) calls it; ROADMAP's
    /// *Carried* benchmark-only housekeeping PR deletes both.
    pub fn with_dwell(self, _dwell: u8) -> Self {
        self
    }

    /// Turn on storm mode (see [`AdaptiveSpec::storm`]).
    pub fn storming(mut self) -> Self {
        self.storm = true;
        self
    }

    /// Whether the engine may actually switch (two or more candidates).
    pub fn is_adaptive(self) -> bool {
        self.candidates.count_ones() >= 2
    }

    /// The static [`ProtoSpec`] a candidate bit names.
    pub fn spec_for(bit: u8) -> ProtoSpec {
        match bit {
            Self::SC => ProtoSpec::Sc,
            Self::DYN_UPDATE => ProtoSpec::DynUpdate,
            Self::STATIC_UPDATE => ProtoSpec::StaticUpdate,
            Self::MIGRATORY => ProtoSpec::Migratory,
            Self::NULL => ProtoSpec::Null,
            Self::PIPELINED => ProtoSpec::Pipelined,
            Self::HOME_OWNED => ProtoSpec::HomeOwned,
            Self::FETCH_ADD => ProtoSpec::FetchAdd,
            other => panic!("not a single candidate bit: {other:#x}"),
        }
    }
}

// ---------------------------------------------------------------------
// The sharing profile: one word per signal, element-wise summable.
// ---------------------------------------------------------------------

/// Engine switch epoch (coherence check word: `sum == nprocs × local`).
const P_EPOCH: usize = 0;
/// Current candidate bit (second coherence check word).
const P_CUR: usize = 1;
/// Slow-path `start_read`s that found the non-home copy invalid.
const P_RMISS: usize = 2;
/// Slow-path `start_write`s that found the non-home copy invalid or
/// merely shared (an upgrade).
const P_WMISS: usize = 3;
/// All slow-path `start_read`s.
const P_READS: usize = 4;
/// All slow-path `start_write`s.
const P_WRITES: usize = 5;
/// Lock hook invocations.
const P_LOCKS: usize = 6;
/// Home fan-out: subscriber links, summed over home regions with sharers.
const P_FAN: usize = 7;
/// Home regions with at least one sharer.
const P_NSH: usize = 8;
const P_LEN: usize = 9;

/// The machine-wide sharing signals of one barrier interval, unpacked
/// from the summed profile vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct Signals {
    /// Remote read misses (invalid copy → blocking fetch).
    pub rmiss: u64,
    /// Remote write misses + upgrades (→ blocking fetch / invalidation).
    pub wmiss: u64,
    /// Slow-path reads.
    pub reads: u64,
    /// Slow-path writes.
    pub writes: u64,
    /// Lock acquisitions.
    pub locks: u64,
    /// Subscriber links across home regions (sharer-set sizes summed).
    pub fan: u64,
    /// Home regions with a non-empty sharer set.
    pub shared_regions: u64,
    /// Whether the *current* protocol's write hooks are null (declared in
    /// its registration) — the profiler then never sees write volume, and
    /// an observed zero must not be read as "nobody writes". Set by
    /// [`decide`] from the incumbent candidate, not carried in the wire
    /// profile (every node derives it identically).
    pub writes_blind: bool,
}

impl Signals {
    fn from_profile(a: &[u64]) -> Signals {
        let w = |i: usize| a.get(i).copied().unwrap_or(0);
        Signals {
            rmiss: w(P_RMISS),
            wmiss: w(P_WMISS),
            reads: w(P_READS),
            writes: w(P_WRITES),
            locks: w(P_LOCKS),
            fan: w(P_FAN),
            shared_regions: w(P_NSH),
            writes_blind: false,
        }
    }

    /// Total interval activity — below a floor, the engine refuses to
    /// conclude anything (an idle interval looks like every protocol is
    /// free).
    pub fn activity(&self) -> u64 {
        self.rmiss + self.wmiss + self.reads + self.writes + self.locks + self.fan
    }
}

/// Predicted interval cost of running `bit` over the observed signals, in
/// latency-weighted message units: a blocking round trip costs 3 (two
/// messages plus an exposed stall), an overlapped push-with-ack 2, a
/// pipelined one-way message 1. `u64::MAX` marks a candidate the cost
/// model refuses to select free-running.
///
/// The read-demand proxy is `max(rmiss, fan)`: under an invalidation
/// protocol the re-fetch misses *are* the demand, while under an update
/// protocol misses vanish precisely because pushes serve them — the
/// subscriber links then measure what invalidation would have re-fetched.
/// Without the proxy the engine would oscillate: each family's steady
/// state hides the cost the other family would pay.
pub fn estimate(bit: u8, g: &Signals) -> u64 {
    let demand = g.rmiss.max(g.fan);
    let avg_fan = if g.shared_regions > 0 { g.fan.div_ceil(g.shared_regions) } else { 0 };
    // Remote writes break protocols whose discipline assumes home-only
    // writers; weight them out rather than forbidding outright so a
    // stray interval cannot wedge the model.
    const FORBID: u64 = 100_000;
    match bit {
        // Invalidation: every demand unit re-fetches (3), every write
        // miss pays a fetch plus an invalidation round, and the
        // directory invalidates every standing link on a home write.
        AdaptiveSpec::SC => 3 * demand + 4 * g.wmiss + g.fan + 3 * g.locks,
        // Per-write pushes to every subscriber (overlapped, 2 per link),
        // plus join upkeep. When the incumbent hides writes from the
        // profiler (`writes_blind`), the push term is floored at `fan`: an
        // interval whose dirty regions cost the incumbent one barrier push
        // per subscriber link costs immediate per-write pushes at least as
        // much, and without the floor StaticUpdate's null write hooks
        // would make dynamic update look free exactly when it is not.
        AdaptiveSpec::DYN_UPDATE => {
            let pushes = g.writes * avg_fan;
            let pushes = if g.writes_blind { pushes.max(g.fan) } else { pushes };
            2 * pushes + 2 * g.shared_regions + 3 * g.locks
        }
        // One overlapped push per link per barrier, regardless of how
        // many times the region was written (the dirty-list sweep is
        // local); remote writes unsupported.
        AdaptiveSpec::STATIC_UPDATE => 2 * g.fan + FORBID * g.wmiss + 3 * g.locks,
        // Three-hop migration per miss; standing sharers mean the single
        // copy is being fought over.
        AdaptiveSpec::MIGRATORY => 3 * (g.rmiss + g.wmiss) + 2 * g.fan + 3 * g.locks,
        // Reads still re-fetch per interval; writes become one-way
        // deltas drained at the barrier.
        AdaptiveSpec::PIPELINED => 3 * demand + g.wmiss + 3 * g.locks,
        // Bulk pulls with no directory upkeep; any remote write violates
        // the home-owned assertion.
        AdaptiveSpec::HOME_OWNED => 3 * demand + FORBID * g.wmiss + 3 * g.locks,
        // Pinned-only candidates never win a free-running decision.
        AdaptiveSpec::NULL | AdaptiveSpec::FETCH_ADD => u64::MAX,
        other => panic!("not a single candidate bit: {other:#x}"),
    }
}

/// Whether `bit`'s protocol declares its `start_write` hook null: the
/// engine's slow-path profiler then never observes writes while `bit` is
/// the incumbent (the runtime skips null hooks), so write-derived signals
/// are structurally zero rather than evidence.
fn writes_hidden(bit: u8) -> bool {
    make(AdaptiveSpec::spec_for(bit)).null_actions().contains(Actions::START_WRITE)
}

/// Pick the cheapest candidate in `candidates` for `g`, preferring `cur`
/// on ties and requiring a ≥25% predicted win to leave it (hysteresis:
/// the switch itself costs a flush sweep and two machine barriers).
pub fn decide(candidates: u8, cur: u8, g: &Signals) -> u8 {
    let g = &Signals { writes_blind: writes_hidden(cur), ..*g };
    let cur_cost = estimate(cur, g);
    let mut best = cur;
    let mut best_cost = cur_cost;
    let mut bits = candidates;
    while bits != 0 {
        let bit = bits & bits.wrapping_neg();
        bits &= bits - 1;
        if bit == cur {
            continue;
        }
        let c = estimate(bit, g);
        if c < best_cost {
            best = bit;
            best_cost = c;
        }
    }
    if best != cur && (cur_cost == u64::MAX || best_cost * 4 <= cur_cost * 3) {
        best
    } else {
        cur
    }
}

/// The adaptive meta-protocol (see the module docs).
pub struct AdaptiveEngine {
    spec: AdaptiveSpec,
    inner: RefCell<Rc<dyn Protocol>>,
    /// Current candidate bit.
    cur: Cell<u8>,
    /// Switches this engine committed (the space's share of the node's
    /// wire-visible switch epoch).
    epoch: Cell<u64>,
    // Interval signal accumulators, drained into the staged profile at
    // each barrier. Slow-path only: fast-mask hits never reach the
    // engine, which is exactly why sampling is free at steady state.
    rmiss: Cell<u64>,
    wmiss: Cell<u64>,
    reads: Cell<u64>,
    writes: Cell<u64>,
    locks: Cell<u64>,
}

impl AdaptiveEngine {
    /// Build an engine from its candidate-set configuration.
    pub fn new(spec: AdaptiveSpec) -> Self {
        assert!(
            spec.candidates & spec.initial == spec.initial && spec.initial.count_ones() == 1,
            "initial must be a single candidate bit"
        );
        if spec.is_adaptive() {
            assert!(
                spec.candidates & (AdaptiveSpec::NULL | AdaptiveSpec::FETCH_ADD) == 0,
                "Null and FetchAdd are pinned-only candidates"
            );
        }
        AdaptiveEngine {
            spec,
            inner: RefCell::new(make(AdaptiveSpec::spec_for(spec.initial))),
            cur: Cell::new(spec.initial),
            epoch: Cell::new(0),
            rmiss: Cell::new(0),
            wmiss: Cell::new(0),
            reads: Cell::new(0),
            writes: Cell::new(0),
            locks: Cell::new(0),
        }
    }

    /// Clone out the inner protocol, for the barrier and the switch, where
    /// `switch_to` replaces it. Every other hook
    /// delegates through a shared borrow: none blocks across a switch.
    fn inner(&self) -> Rc<dyn Protocol> {
        self.inner.borrow().clone()
    }

    fn profiling(&self) -> bool {
        self.spec.is_adaptive()
    }

    /// Commit a switch to `next`: the runtime's handover with "swap the
    /// inner protocol" as the install step, so the space's protocol
    /// identity (the engine) is unchanged. All nodes enter together (they
    /// decided on identical aggregates), so the flush drain and the two
    /// machine barriers align.
    fn switch_to(&self, rt: &AceRt, s: &SpaceEntry, next: u8) {
        let new = make(AdaptiveSpec::spec_for(next));
        rt.handover(s, &*self.inner(), &*new, || {
            *self.inner.borrow_mut() = Rc::clone(&new);
            self.cur.set(next);
            self.epoch.set(self.epoch.get() + 1);
        });
    }

    /// Storm mode's rotation: the next candidate bit above `cur`,
    /// wrapping — deterministic, so all nodes rotate in lockstep.
    fn next_round_robin(&self) -> u8 {
        let cur = self.cur.get();
        let higher = self.spec.candidates & !(cur | cur.wrapping_sub(1));
        let pool = if higher != 0 { higher } else { self.spec.candidates };
        1 << pool.trailing_zeros()
    }

    fn on_aggregate(&self, rt: &AceRt, s: &SpaceEntry, a: &[u64]) {
        let n = rt.nprocs() as u64;
        debug_assert_eq!(a[P_EPOCH], self.epoch.get() * n, "adaptive engines out of lockstep");
        debug_assert_eq!(a[P_CUR], self.cur.get() as u64 * n, "candidate disagreement");
        let g = Signals::from_profile(a);
        let next = if self.spec.storm {
            self.next_round_robin()
        } else {
            // An idle interval is evidence of nothing; demand a signal
            // per node before trusting the model.
            if g.activity() < n {
                return;
            }
            decide(self.spec.candidates, self.cur.get(), &g)
        };
        if next != self.cur.get() {
            self.switch_to(rt, s, next);
        }
    }

    #[inline]
    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }
}

impl Protocol for AdaptiveEngine {
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn op_name(&self, op: u16) -> &'static str {
        self.inner.borrow().op_name(op)
    }

    // Reordering calls across a potential switch point is never safe.
    fn optimizable(&self) -> bool {
        false
    }

    // The checker samples grants at section open; sections never span the
    // barrier where the inner protocol changes, so delegating keeps the
    // grant set exact per interval.
    fn grants(&self) -> GrantSet {
        self.inner.borrow().grants()
    }

    fn fast_mask(&self, rt: &AceRt, e: &RegionEntry) -> Actions {
        self.inner.borrow().fast_mask(rt, e)
    }

    fn on_map(&self, rt: &AceRt, e: &RegionEntry) {
        self.inner.borrow().on_map(rt, e);
    }

    fn start_read(&self, rt: &AceRt, e: &RegionEntry) {
        if self.profiling() {
            Self::bump(&self.reads);
            if !e.is_home_of(rt.rank()) && e.st.get() == R_INVALID {
                Self::bump(&self.rmiss);
            }
        }
        self.inner.borrow().start_read(rt, e);
    }

    fn end_read(&self, rt: &AceRt, e: &RegionEntry) {
        self.inner.borrow().end_read(rt, e);
    }

    fn start_write(&self, rt: &AceRt, e: &RegionEntry) {
        if self.profiling() {
            Self::bump(&self.writes);
            if !e.is_home_of(rt.rank()) {
                let st = e.st.get();
                if st == R_INVALID || st == R_SHARED {
                    Self::bump(&self.wmiss);
                }
            }
        }
        self.inner.borrow().start_write(rt, e);
    }

    fn end_write(&self, rt: &AceRt, e: &RegionEntry) {
        self.inner.borrow().end_write(rt, e);
    }

    fn barrier(&self, rt: &AceRt, s: &SpaceEntry) {
        if !self.profiling() {
            self.inner().barrier(rt, s);
            return;
        }
        let mut prof = vec![0u64; P_LEN];
        prof[P_EPOCH] = self.epoch.get();
        prof[P_CUR] = self.cur.get() as u64;
        prof[P_RMISS] = self.rmiss.take();
        prof[P_WMISS] = self.wmiss.take();
        prof[P_READS] = self.reads.take();
        prof[P_WRITES] = self.writes.take();
        prof[P_LOCKS] = self.locks.take();
        for e in rt.regions_of_space(s.id) {
            if e.is_home_of(rt.rank()) {
                let links = e.sharers.iter().count() as u64;
                if links > 0 {
                    prof[P_FAN] += links;
                    prof[P_NSH] += 1;
                }
            }
        }
        rt.stage_bar_profile(s.id, prof);
        self.inner().barrier(rt, s);
        if let Some(agg) = rt.take_bar_aggregate(s.id) {
            self.on_aggregate(rt, s, &agg);
        }
    }

    fn lock(&self, rt: &AceRt, e: &RegionEntry) {
        if self.profiling() {
            Self::bump(&self.locks);
        }
        self.inner.borrow().lock(rt, e);
    }

    fn unlock(&self, rt: &AceRt, e: &RegionEntry) {
        self.inner.borrow().unlock(rt, e);
    }

    fn handle(&self, rt: &AceRt, e: &RegionEntry, msg: ProtoMsg, src: usize) {
        self.inner.borrow().handle(rt, e, msg, src);
    }

    fn flush(&self, rt: &AceRt, e: &RegionEntry) {
        self.inner.borrow().flush(rt, e);
    }

    fn adopt(&self, rt: &AceRt, e: &RegionEntry) {
        self.inner.borrow().adopt(rt, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{run_ace, run_ace_with, CheckMode, CostModel, RegionId, Spmd};

    // ---------------- cost-model units ----------------

    #[test]
    fn static_update_wins_the_producer_consumer_pattern() {
        // EM3D-shaped interval: home-only writes, every boundary value
        // re-missed by its consumers each step, stable fan.
        let g = Signals {
            rmiss: 400,
            wmiss: 0,
            reads: 500,
            writes: 200,
            locks: 0,
            fan: 400,
            shared_regions: 200,
            ..Default::default()
        };
        let set = AdaptiveSpec::SC | AdaptiveSpec::STATIC_UPDATE | AdaptiveSpec::DYN_UPDATE;
        assert_eq!(decide(set, AdaptiveSpec::SC, &g), AdaptiveSpec::STATIC_UPDATE);
        // ... and once there it stays: misses vanish, links remain, and
        // the proxy prices SC at what it would re-fetch.
        let steady = Signals { rmiss: 0, fan: 400, shared_regions: 200, writes: 200, ..g };
        assert_eq!(decide(set, AdaptiveSpec::STATIC_UPDATE, &steady), AdaptiveSpec::STATIC_UPDATE);
    }

    #[test]
    fn pipelined_wins_mixed_remote_writes() {
        // Water-shaped interval: heavy remote read+write mix.
        let g = Signals {
            rmiss: 300,
            wmiss: 300,
            reads: 400,
            writes: 400,
            locks: 0,
            fan: 100,
            shared_regions: 50,
            ..Default::default()
        };
        let set = AdaptiveSpec::SC | AdaptiveSpec::PIPELINED;
        assert_eq!(decide(set, AdaptiveSpec::SC, &g), AdaptiveSpec::PIPELINED);
        assert_eq!(decide(set, AdaptiveSpec::PIPELINED, &g), AdaptiveSpec::PIPELINED);
    }

    #[test]
    fn home_owned_wins_read_only_consumers() {
        let g = Signals {
            rmiss: 200,
            wmiss: 0,
            reads: 300,
            writes: 50,
            locks: 0,
            fan: 200,
            shared_regions: 10,
            ..Default::default()
        };
        let set = AdaptiveSpec::SC | AdaptiveSpec::HOME_OWNED;
        assert_eq!(decide(set, AdaptiveSpec::SC, &g), AdaptiveSpec::HOME_OWNED);
        // A single remote write prices HomeOwned out immediately.
        let bad = Signals { wmiss: 1, ..g };
        assert_eq!(decide(set, AdaptiveSpec::HOME_OWNED, &bad), AdaptiveSpec::SC);
    }

    #[test]
    fn quiet_intervals_and_small_wins_do_not_switch() {
        let quiet = Signals::default();
        let set = AdaptiveSpec::SC | AdaptiveSpec::STATIC_UPDATE;
        // Zero activity gives every candidate cost 0; ties keep the
        // incumbent.
        assert_eq!(decide(set, AdaptiveSpec::SC, &quiet), AdaptiveSpec::SC);
        // A ~10% predicted win (SC 400 vs DynUpdate 360 message units)
        // is below the 25% hysteresis bar: the switch itself costs a
        // flush sweep and two machine barriers.
        let mild =
            Signals { rmiss: 100, reads: 100, writes: 80, fan: 100, shared_regions: 100, ..quiet };
        assert_eq!(
            decide(AdaptiveSpec::SC | AdaptiveSpec::DYN_UPDATE, AdaptiveSpec::SC, &mild),
            AdaptiveSpec::SC
        );
    }

    #[test]
    fn pinned_only_candidates_never_win_free_running() {
        let g = Signals { locks: 1000, ..Signals::default() };
        // Even a pure lock workload cannot elect FetchAdd via decide();
        // it must be pinned.
        assert_eq!(
            decide(AdaptiveSpec::SC | AdaptiveSpec::MIGRATORY, AdaptiveSpec::SC, &g),
            AdaptiveSpec::SC
        );
        assert_eq!(estimate(AdaptiveSpec::FETCH_ADD, &g), u64::MAX);
        assert_eq!(estimate(AdaptiveSpec::NULL, &g), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "pinned-only")]
    fn free_running_null_is_rejected_at_construction() {
        AdaptiveEngine::new(AdaptiveSpec::new(AdaptiveSpec::SC | AdaptiveSpec::NULL));
    }

    // ---------------- engine integration ----------------

    fn adaptive(spec: AdaptiveSpec) -> Rc<dyn Protocol> {
        Rc::new(AdaptiveEngine::new(spec))
    }

    fn setup(rt: &AceRt, spec: AdaptiveSpec, words: usize) -> (ace_core::SpaceId, RegionId) {
        crate::shared_region(rt, adaptive(spec), words)
    }

    #[test]
    fn engine_switches_producer_consumer_space_to_static_update() {
        // Node 0 writes, everyone re-reads each step: the canonical
        // invalidate-vs-update case. The engine must move off SC and the
        // data must stay exact through the switch.
        let r = run_ace(4, CostModel::free(), |rt| {
            let spec = AdaptiveSpec::new(AdaptiveSpec::SC | AdaptiveSpec::STATIC_UPDATE);
            let (s, rid) = setup(rt, spec, 4);
            let mut last = 0;
            for i in 0..12u64 {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = i + 1);
                    rt.end_write(rid);
                }
                rt.barrier(s);
                rt.start_read(rid);
                last = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                assert_eq!(last, i + 1);
                rt.barrier(s);
            }
            (last, rt.counters().switches, rt.node().switch_epoch())
        });
        for &(last, switches, epoch) in &r.results {
            assert_eq!(last, 12);
            assert!(switches >= 1, "engine never switched");
            assert_eq!(switches, epoch, "every switch bumps the wire epoch");
        }
        // All nodes committed the same number of switches.
        let counts: Vec<u64> = r.results.iter().map(|t| t.1).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "switch counts diverge: {counts:?}");
    }

    #[test]
    fn pinned_engine_matches_static_protocol_exactly() {
        // The engine pinned to SC must be indistinguishable from SC in
        // results, data digests, and logical message counts.
        let program = |rt: &AceRt, rid: RegionId, s: ace_core::SpaceId| {
            let mut acc = 0;
            for i in 0..6u64 {
                if rt.rank() as u64 == i % 3 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] += i);
                    rt.end_write(rid);
                }
                rt.barrier(s);
                rt.start_read(rid);
                acc += rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                rt.barrier(s);
            }
            acc
        };
        let run = |pinned: bool| {
            run_ace(3, CostModel::free(), move |rt| {
                let proto: Rc<dyn Protocol> = if pinned {
                    adaptive(AdaptiveSpec::pinned(AdaptiveSpec::SC))
                } else {
                    make(ProtoSpec::Sc)
                };
                let (s, rid) = crate::shared_region(rt, proto, 2);
                let acc = program(rt, rid, s);
                (acc, rt.data_digest(), rt.counters().logical_msgs, rt.counters().switches)
            })
        };
        let a = run(true);
        let b = run(false);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn storm_mode_rotates_through_candidates_without_corruption() {
        // Forced switches every profiled barrier, cycling SC → Static →
        // Pipelined → SC...; the shared value must survive every handover.
        let r = run_ace(4, CostModel::free(), |rt| {
            let spec = AdaptiveSpec::new(
                AdaptiveSpec::SC | AdaptiveSpec::STATIC_UPDATE | AdaptiveSpec::PIPELINED,
            )
            .storming();
            let (s, rid) = setup(rt, spec, 2);
            for i in 0..9u64 {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = (i + 1) * 10);
                    rt.end_write(rid);
                }
                rt.barrier(s);
                rt.start_read(rid);
                let v = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                assert_eq!(v, (i + 1) * 10, "stale data after a storm switch");
                rt.barrier(s);
            }
            rt.counters().switches
        });
        // 18 profiled barriers: a switch at every other barrier at least
        // (the rotation always moves).
        for &s in &r.results {
            assert!(s >= 6, "storm produced too few switches: {s}");
        }
    }

    #[test]
    fn free_running_engine_is_violation_free_under_check_fail() {
        // The checker's grant sets follow the inner protocol across
        // switches; a clean program must stay clean while the engine
        // moves between exclusive (SC) and concurrent (Static) grants.
        let builder = Spmd::builder().nprocs(3).cost(CostModel::free()).check(CheckMode::Fail);
        let r = run_ace_with(builder, |rt| {
            let spec = AdaptiveSpec::new(AdaptiveSpec::SC | AdaptiveSpec::STATIC_UPDATE);
            let (s, rid) = setup(rt, spec, 1);
            for i in 0..10u64 {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = i);
                    rt.end_write(rid);
                }
                rt.barrier(s);
                rt.start_read(rid);
                let _ = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                rt.barrier(s);
            }
            rt.counters().switches
        });
        assert_eq!(r.stats.total_violations(), 0);
        assert!(r.results.iter().all(|&s| s >= 1));
    }
}
