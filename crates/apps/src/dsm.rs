//! The runtime-agnostic DSM interface the benchmarks are written against.
//!
//! `Dsm` is the intersection of the Ace and CRL programming models: the
//! region annotation set, synchronization, and collective id exchange.
//! Protocol management (`new_space` / `change_protocol`) is part of the
//! trait so one application source supports both systems; on CRL those
//! calls are inert, exactly as porting the paper's apps to CRL erased the
//! space annotations.

use std::sync::Arc;

use ace_core::{AceRt, Pod, RegionId, Resolve, SpaceId};
use ace_crl::CrlRt;
use ace_protocols::{make, ProtoSpec};

/// Region-based DSM operations shared by Ace and CRL.
pub trait Dsm {
    /// This node's rank.
    fn rank(&self) -> usize;
    /// Number of nodes.
    fn nprocs(&self) -> usize;

    /// Create a space bound to `spec` (Ace) or return a dummy (CRL).
    fn new_space(&self, spec: ProtoSpec) -> u32;
    /// Change a space's protocol (Ace) or do nothing (CRL). Collective.
    fn change_protocol(&self, space: u32, spec: ProtoSpec);

    /// Allocate a region of `words` 8-byte words from `space`.
    fn gmalloc_words(&self, space: u32, words: usize) -> u64;
    /// Allocate a region sized for `count` `T`s from `space`.
    fn gmalloc<T: Pod>(&self, space: u32, count: usize) -> u64 {
        self.gmalloc_words(space, ace_core::pod::words_for::<T>(count).max(1))
    }

    /// Map a region.
    fn map(&self, r: u64);
    /// Unmap a region.
    fn unmap(&self, r: u64);
    /// Open a read section.
    fn start_read(&self, r: u64);
    /// Close a read section.
    fn end_read(&self, r: u64);
    /// Open a write section.
    fn start_write(&self, r: u64);
    /// Close a write section.
    fn end_write(&self, r: u64);

    /// Typed read access (inside a section).
    fn with<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R;
    /// Typed write access (inside a write section).
    fn with_mut<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R;

    /// One read section: `start_read`, then `f` over the data, then `end_read`.
    /// `f` runs while the data is borrowed: it must not open a section on `r`.
    /// [`AceDsm`] and [`CrlDsm`] override it with [`AceRt::read`] /
    /// [`CrlRt::read`], which do the three on one region lookup.
    #[inline]
    fn read<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R {
        self.start_read(r);
        let out = self.with(r, f);
        self.end_read(r);
        out
    }
    /// One write section: `start_write`, then `f` over the data, then `end_write`.
    /// `f` runs while the data is borrowed: it must not open a section on `r`.
    /// [`AceDsm`] and [`CrlDsm`] override it with [`AceRt::write`] /
    /// [`CrlRt::write`] (one region lookup).
    #[inline]
    fn write<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.start_write(r);
        let out = self.with_mut(r, f);
        self.end_write(r);
        out
    }

    /// Barrier with the semantics of `space`'s protocol (global on CRL).
    fn barrier(&self, space: u32);
    /// Region lock.
    fn lock(&self, r: u64);
    /// Region unlock.
    fn unlock(&self, r: u64);

    /// Broadcast words from `root`. Collective. The payload is shared
    /// zero-copy with the wire messages.
    fn bcast(&self, root: usize, vals: &[u64]) -> Arc<[u64]>;
    /// Gather every node's words at `root` (rank-ordered; `Some` only at
    /// the root). Collective.
    fn gather(&self, root: usize, vals: &[u64]) -> Option<Vec<Arc<[u64]>>>;
    /// All-reduce one u64. Collective.
    fn allreduce_u64(&self, val: u64, op: fn(u64, u64) -> u64) -> u64;
    /// All-reduce one f64. Collective.
    fn allreduce_f64(&self, val: f64, op: fn(f64, f64) -> f64) -> f64;

    /// Charge floating-point work to the virtual clock.
    fn charge_flops(&self, n: u64);
    /// Charge memory-access work to the virtual clock.
    fn charge_mem(&self, n: u64);
}

/// The Ace implementation of [`Dsm`].
pub struct AceDsm<'a, 'n> {
    rt: &'a AceRt<'n>,
}

impl<'a, 'n> AceDsm<'a, 'n> {
    /// Wrap an Ace runtime.
    pub fn new(rt: &'a AceRt<'n>) -> Self {
        AceDsm { rt }
    }

    /// The wrapped runtime.
    pub fn rt(&self) -> &'a AceRt<'n> {
        self.rt
    }
}

impl Dsm for AceDsm<'_, '_> {
    fn rank(&self) -> usize {
        self.rt.rank()
    }
    fn nprocs(&self) -> usize {
        self.rt.nprocs()
    }
    fn new_space(&self, spec: ProtoSpec) -> u32 {
        self.rt.new_space(make(spec)).0
    }
    fn change_protocol(&self, space: u32, spec: ProtoSpec) {
        self.rt.change_protocol(SpaceId(space), make(spec));
    }
    fn gmalloc_words(&self, space: u32, words: usize) -> u64 {
        self.rt.gmalloc_words(SpaceId(space), words).0
    }
    fn map(&self, r: u64) {
        self.rt.map(RegionId(r));
    }
    fn unmap(&self, r: u64) {
        self.rt.unmap(RegionId(r));
    }
    fn start_read(&self, r: u64) {
        self.rt.start_read(RegionId(r));
    }
    fn end_read(&self, r: u64) {
        self.rt.end_read(RegionId(r));
    }
    fn start_write(&self, r: u64) {
        self.rt.start_write(RegionId(r));
    }
    fn end_write(&self, r: u64) {
        self.rt.end_write(RegionId(r));
    }
    fn with<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R {
        self.rt.with(RegionId(r), f)
    }
    fn with_mut<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.rt.with_mut(RegionId(r), f)
    }
    #[inline]
    fn read<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R {
        self.rt.read(RegionId(r), Resolve::Space, f)
    }
    #[inline]
    fn write<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.rt.write(RegionId(r), Resolve::Space, f)
    }
    fn barrier(&self, space: u32) {
        self.rt.barrier(SpaceId(space));
    }
    fn lock(&self, r: u64) {
        self.rt.lock(RegionId(r));
    }
    fn unlock(&self, r: u64) {
        self.rt.unlock(RegionId(r));
    }
    fn bcast(&self, root: usize, vals: &[u64]) -> Arc<[u64]> {
        self.rt.bcast(root, vals)
    }
    fn gather(&self, root: usize, vals: &[u64]) -> Option<Vec<Arc<[u64]>>> {
        self.rt.gather(root, vals)
    }
    fn allreduce_u64(&self, val: u64, op: fn(u64, u64) -> u64) -> u64 {
        self.rt.allreduce_u64(val, op)
    }
    fn allreduce_f64(&self, val: f64, op: fn(f64, f64) -> f64) -> f64 {
        self.rt.allreduce_f64(val, op)
    }
    fn charge_flops(&self, n: u64) {
        self.rt.charge_flops(n);
    }
    fn charge_mem(&self, n: u64) {
        self.rt.charge_mem(n);
    }
}

/// The CRL implementation of [`Dsm`]. Space/protocol calls are inert.
pub struct CrlDsm<'a, 'n> {
    crl: &'a CrlRt<'n>,
}

impl<'a, 'n> CrlDsm<'a, 'n> {
    /// Wrap a CRL runtime.
    pub fn new(crl: &'a CrlRt<'n>) -> Self {
        CrlDsm { crl }
    }

    /// The wrapped runtime.
    pub fn crl(&self) -> &'a CrlRt<'n> {
        self.crl
    }
}

impl Dsm for CrlDsm<'_, '_> {
    fn rank(&self) -> usize {
        self.crl.inner().rank()
    }
    fn nprocs(&self) -> usize {
        self.crl.inner().nprocs()
    }
    fn new_space(&self, _spec: ProtoSpec) -> u32 {
        0 // CRL has one fixed protocol and no spaces
    }
    fn change_protocol(&self, _space: u32, _spec: ProtoSpec) {}
    fn gmalloc_words(&self, _space: u32, words: usize) -> u64 {
        self.crl.create_words(words).0
    }
    fn map(&self, r: u64) {
        self.crl.map(RegionId(r));
    }
    fn unmap(&self, r: u64) {
        self.crl.unmap(RegionId(r));
    }
    fn start_read(&self, r: u64) {
        self.crl.start_read(RegionId(r));
    }
    fn end_read(&self, r: u64) {
        self.crl.end_read(RegionId(r));
    }
    fn start_write(&self, r: u64) {
        self.crl.start_write(RegionId(r));
    }
    fn end_write(&self, r: u64) {
        self.crl.end_write(RegionId(r));
    }
    fn with<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R {
        self.crl.inner().with(RegionId(r), f)
    }
    fn with_mut<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.crl.inner().with_mut(RegionId(r), f)
    }
    fn read<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R {
        self.crl.read(RegionId(r), f)
    }
    fn write<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.crl.write(RegionId(r), f)
    }
    fn barrier(&self, _space: u32) {
        self.crl.barrier();
    }
    fn lock(&self, r: u64) {
        self.crl.lock(RegionId(r));
    }
    fn unlock(&self, r: u64) {
        self.crl.unlock(RegionId(r));
    }
    fn bcast(&self, root: usize, vals: &[u64]) -> Arc<[u64]> {
        self.crl.inner().bcast(root, vals)
    }
    fn gather(&self, root: usize, vals: &[u64]) -> Option<Vec<Arc<[u64]>>> {
        self.crl.inner().gather(root, vals)
    }
    fn allreduce_u64(&self, val: u64, op: fn(u64, u64) -> u64) -> u64 {
        self.crl.inner().allreduce_u64(val, op)
    }
    fn allreduce_f64(&self, val: f64, op: fn(f64, f64) -> f64) -> f64 {
        self.crl.inner().allreduce_f64(val, op)
    }
    fn charge_flops(&self, n: u64) {
        self.crl.inner().charge_flops(n);
    }
    fn charge_mem(&self, n: u64) {
        self.crl.inner().charge_mem(n);
    }
}

/// Every node's bootstrap id list, exchanged machine-wide: one shared
/// flat buffer plus an offset table, so an n-node exchange ships (and
/// stores) O(total ids) once instead of n separate `Arc` payloads per
/// node.
///
/// Layout of `data`: words `0..=n` are offsets into the flat id area
/// (relative to its start, so `rank(r)` is the subslice between offsets
/// `r` and `r+1`), followed by the ids of rank 0, rank 1, ... rank n-1.
#[derive(Clone)]
pub struct IdMap {
    data: Arc<[u64]>,
    n: usize,
}

impl IdMap {
    /// Number of ranks in the exchange.
    pub fn nprocs(&self) -> usize {
        self.n
    }

    /// The ids rank `r` contributed.
    pub fn rank(&self, r: usize) -> &[u64] {
        let base = self.n + 1;
        let (lo, hi) = (self.data[r] as usize, self.data[r + 1] as usize);
        &self.data[base + lo..base + hi]
    }

    /// Iterate every rank's id slice, in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.n).map(|r| self.rank(r))
    }
}

/// Distribute each node's id list to everyone: node `k`'s `ids` land in
/// slot `k` of the returned [`IdMap`]. A common setup step for the apps
/// (the analogue of storing `address_t`s into shared bootstrap
/// structures).
///
/// Runs as gather-at-0 + one broadcast — `2(n-1)` messages machine-wide
/// instead of the `n(n-1)` of every rank broadcasting its own list, and
/// every node ends up aliasing one shared buffer instead of holding `n`
/// payloads. At 4096 nodes that is the difference between setup being
/// O(n) and O(n²) in both messages and memory.
pub fn exchange_ids<D: Dsm>(d: &D, ids: &[u64]) -> IdMap {
    let n = d.nprocs();
    let packed = match d.gather(0, ids) {
        Some(per_rank) => {
            // Root: offsets first (n+1 words, relative to the flat id
            // area), then everyone's ids concatenated in rank order.
            let total: usize = per_rank.iter().map(|v| v.len()).sum();
            let mut packed = Vec::with_capacity(n + 1 + total);
            let mut off = 0u64;
            packed.push(0);
            for v in &per_rank {
                off += v.len() as u64;
                packed.push(off);
            }
            for v in &per_rank {
                packed.extend_from_slice(v);
            }
            d.bcast(0, &packed)
        }
        None => d.bcast(0, &[]),
    };
    IdMap { data: packed, n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{run_ace, CostModel, OpCounters};
    use ace_crl::run_crl;

    /// A tiny kernel exercising every trait method, used to check the two
    /// adapters agree. `counters` reads the wrapped runtime's counters, so
    /// the kernel can check that `read` and `write` each open one section
    /// and close it.
    fn kernel<D: Dsm>(d: &D, counters: impl Fn() -> OpCounters) -> u64 {
        // (start_reads, start_writes, ends) while `f` runs.
        let sections = |f: &mut dyn FnMut()| {
            let a = counters();
            f();
            let b = counters();
            (b.start_reads - a.start_reads, b.start_writes - a.start_writes, b.ends - a.ends)
        };
        let s = d.new_space(ProtoSpec::Sc);
        let mine = d.gmalloc::<u64>(s, 4);
        let all = exchange_ids(d, &[mine]);
        assert_eq!(all.nprocs(), d.nprocs());
        assert_eq!(all.rank(d.rank()), &[mine]);
        for ids in all.iter() {
            d.map(ids[0]);
        }
        // One unpaired section keeps the required methods covered.
        d.start_write(mine);
        d.with_mut::<u64, _>(mine, |v| v[0] = d.rank() as u64 + 1);
        d.end_write(mine);
        d.barrier(s);
        let mut sum = 0;
        for r in 0..all.nprocs() {
            let id = all.rank(r)[0];
            assert_eq!(sections(&mut || sum += d.read::<u64, _>(id, |v| v[0])), (1, 0, 1));
        }
        d.barrier(s);
        assert_eq!(sections(&mut || d.write::<u64, _>(mine, |v| v[1] = sum)), (0, 1, 1));
        d.allreduce_u64(sum, |a, b| a.max(b))
    }

    #[test]
    fn adapters_agree() {
        let n = 3;
        let want = (1..=n as u64).sum::<u64>();
        let a = run_ace(n, CostModel::free(), |rt| kernel(&AceDsm::new(rt), || rt.counters()));
        let c = run_crl(n, CostModel::free(), |crl| {
            kernel(&CrlDsm::new(crl), || crl.inner().counters())
        });
        assert_eq!(a.results, vec![want; n]);
        assert_eq!(c.results, vec![want; n]);
    }
}
