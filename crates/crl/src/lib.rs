//! CRL baseline: a fixed-protocol region-based software DSM.
//!
//! This crate reproduces the comparison system of the paper's §5.1: CRL
//! (Johnson, Kaashoek & Wallach, SOSP '95), "an efficient all-software
//! distributed shared memory". CRL's programming model is the same
//! region-based one as Ace's — `rgn_create` / `rgn_map` / `rgn_unmap` /
//! `rgn_start_op` / `rgn_end_op` — but with two structural differences the
//! paper measures:
//!
//! * **one fixed protocol**: the sequentially-consistent invalidation
//!   protocol, called *monomorphically* (no space lookup, no indirect
//!   dispatch). On coarse-grained apps this is where CRL holds its own:
//!   "the additional indirection in the dispatch of protocol calls in Ace
//!   nullifies the effects of the runtime system optimizations" (§5.1);
//! * **a heavier mapping path**: CRL 1.0 keeps a bounded *unmapped-region
//!   cache* (URC). Every `rgn_map` pays a URC scan plus a second-level
//!   table probe (`crl_map_extra` in the cost model, on top of the base
//!   lookup); URC evictions flush the region's coherence state home and
//!   drop the local copy, so re-maps of evicted regions re-fetch metadata.
//!   Ace's "more efficient mapping technique" (§5.1) is the leaner path in
//!   `ace-core`.
//!
//! The coherence state machine itself is shared with
//! [`ace_protocols::SeqInvalidate`] — both systems run the same MSI
//! protocol in the Figure 7a experiment, which is exactly the paper's
//! setup ("both systems run a sequentially consistent invalidation-based
//! protocol").

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use ace_core::msg::AceMsg;
use ace_core::{AceRt, CostModel, MachineBuilder, Node, Pod, RegionId, Resolve, Spmd, SpmdResult};
use ace_protocols::SeqInvalidate;

/// Default capacity of the unmapped-region cache (CRL 1.0's default).
pub const DEFAULT_URC_CAPACITY: usize = 4096;

/// The per-node CRL runtime.
pub struct CrlRt<'n> {
    rt: AceRt<'n>,
    proto: Rc<SeqInvalidate>,
    space: ace_core::SpaceId,
    /// Unmapped-region cache as a lazy-deletion LRU. Membership (and each
    /// member's current insertion stamp) lives in the hash map, so `map`
    /// revalidates a cached region in O(1) instead of scanning the queue.
    /// The queue keeps recency order; entries whose stamp no longer matches
    /// the map are stale (the region was re-mapped since) and are skipped
    /// during overflow sweeps, and dropped whenever the queue passes twice
    /// the capacity. URC size = `urc_members.len()`.
    urc_members: RefCell<HashMap<RegionId, u64>>,
    urc_order: RefCell<VecDeque<(u64, RegionId)>>,
    urc_stamp: Cell<u64>,
    urc_capacity: usize,
}

impl<'n> CrlRt<'n> {
    /// Wrap a substrate node in a CRL runtime with the default URC size.
    pub fn new(node: &'n Node<AceMsg>) -> Self {
        Self::with_urc_capacity(node, DEFAULT_URC_CAPACITY)
    }

    /// Wrap a substrate node, with an explicit URC capacity (the eviction
    /// ablation sweeps this).
    pub fn with_urc_capacity(node: &'n Node<AceMsg>, urc_capacity: usize) -> Self {
        let rt = AceRt::new(node);
        let proto = Rc::new(SeqInvalidate::new());
        let space = rt.new_space(proto.clone());
        CrlRt {
            rt,
            proto,
            space,
            urc_members: RefCell::new(HashMap::new()),
            urc_order: RefCell::new(VecDeque::new()),
            urc_stamp: Cell::new(0),
            urc_capacity,
        }
    }

    /// The underlying runtime: rank, collectives, charges and counters,
    /// which CRL does no differently from Ace.
    pub fn inner(&self) -> &AceRt<'n> {
        &self.rt
    }

    /// `rgn_create`: allocate a region of `count` elements of `T`; the
    /// caller becomes home.
    pub fn create<T: Pod>(&self, count: usize) -> RegionId {
        self.rt.gmalloc::<T>(self.space, count)
    }

    /// `rgn_create` in raw words.
    pub fn create_words(&self, words: usize) -> RegionId {
        self.rt.gmalloc_words(self.space, words)
    }

    /// `rgn_map`: translate a region id to a local mapping. Pays the URC
    /// scan and second-level probe that CRL's two-level mapping does.
    pub fn map(&self, r: RegionId) {
        let cost = self.rt.node().cost();
        self.rt.node().charge(cost.map_lookup + cost.crl_map_extra);
        // A URC hit revalidates the cached mapping: O(1) map removal; the
        // region's queue entry goes stale and is skipped at overflow time.
        // (The simulated charge above is unchanged — the fast path buys
        // real wall-clock time, not virtual time.)
        self.urc_members.borrow_mut().remove(&r);
        let e = self.rt.ensure_entry(r);
        e.mapped.set(e.mapped.get() + 1);
    }

    /// `rgn_unmap`: drop the mapping; the region enters the URC and may be
    /// evicted (flushing its coherence state home) when the URC overflows.
    pub fn unmap(&self, r: RegionId) {
        self.rt.unmap(r);
        let e = self.rt.entry(r);
        if e.mapped.get() == 0 && !e.is_home_of(self.rt.rank()) {
            let stamp = self.urc_stamp.get();
            self.urc_stamp.set(stamp + 1);
            // A re-unmapped region gets a fresh stamp: its old queue entry
            // (if any) goes stale and the region's recency is renewed.
            self.urc_members.borrow_mut().insert(r, stamp);
            self.urc_order.borrow_mut().push_back((stamp, r));
            while self.urc_members.borrow().len() > self.urc_capacity {
                let (stamp, victim) =
                    self.urc_order.borrow_mut().pop_front().expect("members ⊆ order queue");
                let live = self.urc_members.borrow().get(&victim) == Some(&stamp);
                if live {
                    self.urc_members.borrow_mut().remove(&victim);
                    self.rt.evict(victim);
                }
            }
            // A region re-unmapped while cached leaves a stale entry behind,
            // so the queue grows with the unmaps, not with the cache. Drop
            // the stale entries once the queue passes twice the capacity:
            // amortised O(1), and the live entries keep their order.
            if self.urc_order.borrow().len() > 2 * self.urc_capacity {
                let members = self.urc_members.borrow();
                self.urc_order.borrow_mut().retain(|(stamp, r)| members.get(r) == Some(stamp));
            }
        }
    }

    /// `rgn_start_read`.
    pub fn start_read(&self, r: RegionId) {
        self.rt.start_read_direct(r, &*self.proto);
    }

    /// `rgn_end_read`.
    pub fn end_read(&self, r: RegionId) {
        self.rt.end_read_direct(r, &*self.proto);
    }

    /// `rgn_start_write`.
    pub fn start_write(&self, r: RegionId) {
        self.rt.start_write_direct(r, &*self.proto);
    }

    /// `rgn_end_write`.
    pub fn end_write(&self, r: RegionId) {
        self.rt.end_write_direct(r, &*self.proto);
    }

    /// One read section: `rgn_start_read`, `f` over the data as a `&[T]`,
    /// `rgn_end_read`, on one region lookup. SC declares no access hook
    /// null, so both hooks run.
    #[inline]
    pub fn read<T: Pod, R>(&self, r: RegionId, f: impl FnOnce(&[T]) -> R) -> R {
        self.rt.read(r, Resolve::Static(&*self.proto), f)
    }

    /// One write section, as [`CrlRt::read`] is one read section.
    #[inline]
    pub fn write<T: Pod, R>(&self, r: RegionId, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.rt.write(r, Resolve::Static(&*self.proto), f)
    }

    /// `rgn_barrier`: the global barrier.
    pub fn barrier(&self) {
        self.rt.barrier(self.space);
    }

    /// Region lock (home-queued FIFO, the same primitive Ace's default
    /// protocol provides, so the §5.1 comparison is apples-to-apples).
    pub fn lock(&self, r: RegionId) {
        self.rt.lock_direct(r, &*self.proto);
    }

    /// Region unlock.
    pub fn unlock(&self, r: RegionId) {
        self.rt.unlock_direct(r, &*self.proto);
    }
}

/// Run an SPMD CRL program on `nprocs` simulated processors.
pub fn run_crl<R, F>(nprocs: usize, cost: CostModel, f: F) -> SpmdResult<R>
where
    R: Send,
    F: Fn(&CrlRt) -> R + Sync,
{
    run_crl_with(Spmd::builder().nprocs(nprocs).cost(cost), f)
}

/// Run an SPMD CRL program on a fully-configured [`MachineBuilder`]
/// (tracing, watchdog, transport).
pub fn run_crl_with<R, F>(builder: MachineBuilder, f: F) -> SpmdResult<R>
where
    R: Send,
    F: Fn(&CrlRt) -> R + Sync,
{
    builder.run(|node| {
        let crl = CrlRt::new(node);
        let r = f(&crl);
        crl.inner().shutdown();
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_region(crl: &CrlRt, words: usize) -> RegionId {
        let rid = if crl.inner().rank() == 0 {
            RegionId(crl.inner().bcast(0, &[crl.create_words(words).0])[0])
        } else {
            RegionId(crl.inner().bcast(0, &[])[0])
        };
        crl.map(rid);
        rid
    }

    #[test]
    fn coherent_read_after_write() {
        let r = run_crl(3, CostModel::free(), |crl| {
            let rid = shared_region(crl, 2);
            if crl.inner().rank() == 1 {
                crl.write::<u64, _>(rid, |d| d[0] = 88);
            }
            crl.barrier();
            crl.read::<u64, _>(rid, |d| d[0])
        });
        assert_eq!(r.results, vec![88, 88, 88]);
    }

    #[test]
    fn map_costs_more_than_ace() {
        let cost = CostModel::cm5();
        let crl_time = run_crl(1, cost.clone(), |crl| {
            let rid = crl.create_words(1);
            let t0 = crl.inner().node().now();
            for _ in 0..100 {
                crl.map(rid);
                crl.unmap(rid);
            }
            crl.inner().node().now() - t0
        });
        let ace_time = ace_core::run_ace(1, cost, |rt| {
            let s = rt.new_space(Rc::new(SeqInvalidate::new()));
            let rid = rt.gmalloc_words(s, 1);
            let t0 = rt.node().now();
            for _ in 0..100 {
                rt.map(rid);
                rt.unmap(rid);
            }
            rt.node().now() - t0
        });
        assert!(
            crl_time.results[0] > ace_time.results[0],
            "CRL mapping should be costlier: crl={} ace={}",
            crl_time.results[0],
            ace_time.results[0]
        );
    }

    #[test]
    fn urc_eviction_flushes_and_remaps() {
        let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run(|node| {
            let crl = CrlRt::with_urc_capacity(node, 2);
            let ids: Vec<RegionId> = if crl.inner().rank() == 0 {
                let ids: Vec<u64> = (0..4).map(|_| crl.create_words(1).0).collect();
                crl.inner().bcast(0, &ids).iter().map(|&x| RegionId(x)).collect()
            } else {
                crl.inner().bcast(0, &[]).iter().map(|&x| RegionId(x)).collect()
            };
            if crl.inner().rank() == 0 {
                for (i, &rid) in ids.iter().enumerate() {
                    crl.map(rid);
                    crl.write::<u64, _>(rid, |d| d[0] = i as u64 + 1);
                    crl.unmap(rid);
                }
            }
            crl.barrier();
            let mut got = Vec::new();
            if crl.inner().rank() == 1 {
                // Map/read/unmap all four regions twice: capacity 2 forces
                // evictions, and re-maps must still see correct data.
                for _ in 0..2 {
                    for &rid in &ids {
                        crl.map(rid);
                        got.push(crl.read::<u64, _>(rid, |d| d[0]));
                        crl.unmap(rid);
                    }
                }
            }
            crl.barrier();
            let misses = crl.inner().counters().map_misses;
            crl.inner().shutdown();
            (got, misses)
        });
        let (got, misses) = &r.results[1];
        assert_eq!(got, &[1, 2, 3, 4, 1, 2, 3, 4]);
        // Evictions force metadata re-fetches on the second sweep.
        assert!(*misses > 4, "URC evictions should cause re-miss, got {misses}");
    }

    #[test]
    fn urc_remap_renews_recency() {
        // Re-mapping a URC-resident region must renew its LRU position:
        // the stale queue entry is skipped at overflow time and a fresher
        // region survives eviction in its place.
        let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run(|node| {
            let crl = CrlRt::with_urc_capacity(node, 2);
            let ids: Vec<RegionId> = if crl.inner().rank() == 0 {
                let ids: Vec<u64> = (0..3).map(|_| crl.create_words(1).0).collect();
                crl.inner().bcast(0, &ids).iter().map(|&x| RegionId(x)).collect()
            } else {
                crl.inner().bcast(0, &[]).iter().map(|&x| RegionId(x)).collect()
            };
            let present = if crl.inner().rank() == 1 {
                let (a, b, c) = (ids[0], ids[1], ids[2]);
                crl.map(a);
                crl.unmap(a); // urc: [a]
                crl.map(b);
                crl.unmap(b); // urc: [a, b]
                crl.map(a); // revalidates a; its old queue slot goes stale
                crl.unmap(a); // urc: [b, a]
                crl.map(c);
                crl.unmap(c); // overflow: b is the oldest live entry
                ids.iter().map(|&x| crl.inner().lookup(x).is_some()).collect()
            } else {
                vec![true; 3]
            };
            crl.barrier();
            crl.inner().shutdown();
            present
        });
        assert_eq!(
            r.results[1],
            vec![true, false, true],
            "b should be evicted; a's recency was renewed by the re-map"
        );
    }

    #[test]
    fn urc_queue_stays_within_twice_the_capacity() {
        // Every unmap of a cached region pushes a queue entry and leaves the
        // previous one stale; the queue must not grow with the unmaps.
        let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run(|node| {
            let crl = CrlRt::with_urc_capacity(node, 4);
            let rid = if crl.inner().rank() == 0 { vec![crl.create_words(1).0] } else { vec![] };
            let rid = RegionId(crl.inner().bcast(0, &rid)[0]);
            let mut longest = 0;
            if crl.inner().rank() == 1 {
                for _ in 0..100 {
                    crl.map(rid);
                    crl.start_read(rid);
                    crl.end_read(rid);
                    crl.unmap(rid);
                    longest = longest.max(crl.urc_order.borrow().len());
                }
            }
            crl.barrier();
            crl.inner().shutdown();
            longest
        });
        assert!(r.results[1] <= 8, "queue reached {} entries", r.results[1]);
    }

    #[test]
    fn lock_serializes_increments() {
        let n = 4;
        const PER: u64 = 10;
        let r = run_crl(n, CostModel::free(), |crl| {
            let rid = shared_region(crl, 1);
            for _ in 0..PER {
                crl.lock(rid);
                crl.write::<u64, _>(rid, |d| d[0] += 1);
                crl.unlock(rid);
            }
            crl.barrier();
            crl.read::<u64, _>(rid, |d| d[0])
        });
        assert_eq!(r.results, vec![PER * n as u64; 4]);
    }

    #[test]
    fn direct_calls_not_dispatched() {
        // A home read pair in the quiescent state is absorbed by the
        // region's fast mask — the CRL-style in-state fast path. With the
        // mask disabled, the same accesses fall back to direct (but still
        // never dispatched) hook calls.
        let r = run_crl(1, CostModel::free(), |crl| {
            let rid = crl.create_words(1);
            crl.map(rid);
            crl.start_read(rid);
            crl.end_read(rid);
            let fast = crl.inner().counters();
            crl.inner().set_fast_paths(false);
            crl.start_read(rid);
            crl.end_read(rid);
            let slow = crl.inner().counters();
            (fast.fast_hits, fast.direct, slow.fast_hits, slow.direct, slow.dispatched)
        });
        assert_eq!(r.results[0], (2, 0, 2, 2, 0));
    }
}
