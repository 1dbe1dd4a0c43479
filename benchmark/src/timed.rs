//! `TimedDsm`: spans at the `Dsm` boundary, recorded from outside the program.
//!
//! The apps are generic over [`Dsm`], so wrapping the runtime's adapter times
//! every call an app makes into the runtime without touching an app or the
//! runtime. One wrapper lives on each simulated node (it is built inside the
//! node's closure), so recording needs no synchronisation.
//!
//! A span is (kind, rank, region or space, start, end); its parent is always
//! the rank's `app` span of the enclosing rep, because the apps make no `Dsm`
//! call from inside another. Spans shorter than [`FOLD_BELOW_NS`] — fast-mask
//! hits, cached maps — are too many to keep and too short to read on a
//! timeline: they fold into a count, a sum and a log2 histogram per (rank,
//! kind). Longer ones (misses, barriers, flushes) are kept whole.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ace_apps::Dsm;
use ace_core::Pod;
use ace_protocols::ProtoSpec;

/// Spans shorter than this fold into per-(rank, kind) aggregates.
pub const FOLD_BELOW_NS: u64 = 1_000;

/// The `Dsm` call kinds that get a span. Everything else an app does —
/// compute, `with`/`with_mut` bodies, allocation, cost charges — is the
/// `app` span's self time. No workload takes region locks, so `lock` and
/// `unlock` are delegated untimed as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Map,
    Unmap,
    StartRead,
    EndRead,
    StartWrite,
    EndWrite,
    Barrier,
    ChangeProtocol,
    Collective,
}

impl Kind {
    pub const ALL: [Kind; 9] = [
        Kind::Map,
        Kind::Unmap,
        Kind::StartRead,
        Kind::EndRead,
        Kind::StartWrite,
        Kind::EndWrite,
        Kind::Barrier,
        Kind::ChangeProtocol,
        Kind::Collective,
    ];

    /// Name used in metric names (`core.rt.time.<name>_ms`) and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Map => "map",
            Kind::Unmap => "unmap",
            Kind::StartRead => "start_read",
            Kind::EndRead => "end_read",
            Kind::StartWrite => "start_write",
            Kind::EndWrite => "end_write",
            Kind::Barrier => "barrier",
            Kind::ChangeProtocol => "change_protocol",
            Kind::Collective => "collective",
        }
    }
}

/// One span kept whole.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Region id, space id, or collective root.
    pub arg: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate of the spans of one (rank, kind) that were too short to keep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Folded {
    pub count: u64,
    pub sum_ns: u64,
    /// `hist[b]` counts spans with `2^(b-1) <= ns < 2^b` (`hist[0]`: 0 ns).
    pub hist: [u64; 11],
}

/// Everything one rank recorded during one rep.
#[derive(Debug, Clone)]
pub struct RankTrace {
    pub rank: usize,
    /// The rank's root span: the app closure from entry to return.
    pub app_start_ns: u64,
    pub app_end_ns: u64,
    pub long: Vec<Span>,
    pub folded: [Folded; Kind::ALL.len()],
}

impl RankTrace {
    /// An `app` root span with no children (the Ace-C VM's `run_program`).
    pub fn root_only(rank: usize, start_ns: u64, end_ns: u64) -> Self {
        RankTrace {
            rank,
            app_start_ns: start_ns,
            app_end_ns: end_ns,
            long: Vec::new(),
            folded: Default::default(),
        }
    }

    /// Number of spans of `kind`, kept or folded.
    pub fn count(&self, kind: Kind) -> u64 {
        self.folded[kind as usize].count
            + self.long.iter().filter(|s| s.kind == kind).count() as u64
    }

    /// Total duration of the spans of `kind`. Spans do not nest, so this is
    /// also the kind's self time.
    pub fn time_ns(&self, kind: Kind) -> u64 {
        self.folded[kind as usize].sum_ns
            + self
                .long
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.end_ns - s.start_ns)
                .sum::<u64>()
    }

    /// The root span's self time: its duration minus what its children cover.
    pub fn app_self_ns(&self) -> u64 {
        let children: u64 = Kind::ALL.iter().map(|&k| self.time_ns(k)).sum();
        (self.app_end_ns - self.app_start_ns).saturating_sub(children)
    }
}

/// A [`Dsm`] that delegates to `inner` and records a span per call.
pub struct TimedDsm<D> {
    inner: D,
    epoch: Instant,
    rec: RefCell<RankTrace>,
}

impl<D: Dsm> TimedDsm<D> {
    /// Wrap `inner`; span times count from `epoch`, which every rank of
    /// every rep shares so one timeline holds them all. Opens the root span.
    pub fn new(inner: D, epoch: Instant) -> Self {
        let now = epoch.elapsed().as_nanos() as u64;
        let rec = RefCell::new(RankTrace::root_only(inner.rank(), now, now));
        TimedDsm { inner, epoch, rec }
    }

    /// Close the root span and hand back what this rank recorded.
    pub fn finish(self) -> RankTrace {
        let mut t = self.rec.into_inner();
        t.app_end_ns = self.epoch.elapsed().as_nanos() as u64;
        t
    }

    #[inline]
    fn timed<R>(&self, kind: Kind, arg: u64, f: impl FnOnce(&D) -> R) -> R {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f(&self.inner);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let ns = end_ns - start_ns;
        let mut rec = self.rec.borrow_mut();
        if ns < FOLD_BELOW_NS {
            let f = &mut rec.folded[kind as usize];
            f.count += 1;
            f.sum_ns += ns;
            f.hist[(u64::BITS - ns.leading_zeros()) as usize] += 1;
        } else {
            rec.long.push(Span { kind, arg, start_ns, end_ns });
        }
        r
    }
}

impl<D: Dsm> Dsm for TimedDsm<D> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn new_space(&self, spec: ProtoSpec) -> u32 {
        self.inner.new_space(spec)
    }
    fn change_protocol(&self, space: u32, spec: ProtoSpec) {
        self.timed(Kind::ChangeProtocol, space.into(), |d| d.change_protocol(space, spec));
    }
    fn gmalloc_words(&self, space: u32, words: usize) -> u64 {
        self.inner.gmalloc_words(space, words)
    }
    fn map(&self, r: u64) {
        self.timed(Kind::Map, r, |d| d.map(r));
    }
    fn unmap(&self, r: u64) {
        self.timed(Kind::Unmap, r, |d| d.unmap(r));
    }
    fn start_read(&self, r: u64) {
        self.timed(Kind::StartRead, r, |d| d.start_read(r));
    }
    fn end_read(&self, r: u64) {
        self.timed(Kind::EndRead, r, |d| d.end_read(r));
    }
    fn start_write(&self, r: u64) {
        self.timed(Kind::StartWrite, r, |d| d.start_write(r));
    }
    fn end_write(&self, r: u64) {
        self.timed(Kind::EndWrite, r, |d| d.end_write(r));
    }
    fn with<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R {
        self.inner.with(r, f)
    }
    fn with_mut<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.inner.with_mut(r, f)
    }
    fn barrier(&self, space: u32) {
        self.timed(Kind::Barrier, space.into(), |d| d.barrier(space));
    }
    fn lock(&self, r: u64) {
        self.inner.lock(r);
    }
    fn unlock(&self, r: u64) {
        self.inner.unlock(r);
    }
    fn bcast(&self, root: usize, vals: &[u64]) -> Arc<[u64]> {
        self.timed(Kind::Collective, root as u64, |d| d.bcast(root, vals))
    }
    fn gather(&self, root: usize, vals: &[u64]) -> Option<Vec<Arc<[u64]>>> {
        self.timed(Kind::Collective, root as u64, |d| d.gather(root, vals))
    }
    fn allreduce_u64(&self, val: u64, op: fn(u64, u64) -> u64) -> u64 {
        self.timed(Kind::Collective, 0, |d| d.allreduce_u64(val, op))
    }
    fn allreduce_f64(&self, val: f64, op: fn(f64, f64) -> f64) -> f64 {
        self.timed(Kind::Collective, 0, |d| d.allreduce_f64(val, op))
    }
    fn charge_flops(&self, n: u64) {
        self.inner.charge_flops(n);
    }
    fn charge_mem(&self, n: u64) {
        self.inner.charge_mem(n);
    }
}

/// A span outside any rep (Ace-C compilation).
#[derive(Debug, Clone)]
pub struct ProcessSpan {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Render reps as Chrome `trace_event` JSON: one process per rep, one thread
/// per rank, an `X` event per kept span under the rank's `app` root, and one
/// `folded` event per (rank, kind) carrying the aggregate of the short ones.
pub fn chrome_json(reps: &[Vec<RankTrace>], process: &[ProcessSpan]) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut event = |out: &mut String, body: std::fmt::Arguments<'_>| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = out.write_fmt(body);
    };
    for p in process {
        event(
            &mut out,
            format_args!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3}}}",
                p.name,
                us(p.start_ns),
                us(p.end_ns - p.start_ns)
            ),
        );
    }
    for (rep, ranks) in reps.iter().enumerate() {
        let pid = rep + 1;
        event(
            &mut out,
            format_args!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"rep {rep}\"}}}}"
            ),
        );
        for t in ranks {
            let tid = t.rank;
            event(
                &mut out,
                format_args!(
                    "{{\"name\":\"app\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_ns\":{}}}}}",
                    us(t.app_start_ns),
                    us(t.app_end_ns - t.app_start_ns),
                    t.app_self_ns()
                ),
            );
            for s in &t.long {
                event(
                    &mut out,
                    format_args!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"arg\":{},\"parent\":\"app\"}}}}",
                        s.kind.name(),
                        us(s.start_ns),
                        us(s.end_ns - s.start_ns),
                        s.arg
                    ),
                );
            }
            for kind in Kind::ALL {
                let f = &t.folded[kind as usize];
                if f.count == 0 {
                    continue;
                }
                let hist: Vec<String> = f.hist.iter().map(u64::to_string).collect();
                event(
                    &mut out,
                    format_args!(
                        "{{\"name\":\"folded:{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"args\":{{\"count\":{},\"sum_ns\":{},\"log2_ns_hist\":[{}]}}}}",
                        kind.name(),
                        us(t.app_end_ns),
                        f.count,
                        f.sum_ns,
                        hist.join(",")
                    ),
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_apps::AceDsm;
    use ace_core::{run_ace, CostModel};

    fn kernel<D: Dsm>(d: &D) -> f64 {
        let s = d.new_space(ProtoSpec::Sc);
        let r = d.gmalloc::<f64>(s, 1);
        d.map(r);
        d.start_write(r);
        d.with_mut::<f64, _>(r, |v| v[0] = 2.0);
        d.end_write(r);
        for _ in 0..10 {
            d.start_read(r);
            d.end_read(r);
        }
        d.unmap(r);
        d.barrier(s);
        d.allreduce_f64(1.0, |a, b| a + b)
    }

    fn trace_kernel() -> Vec<RankTrace> {
        let epoch = Instant::now();
        run_ace(2, CostModel::free(), |rt| {
            let d = TimedDsm::new(AceDsm::new(rt), epoch);
            assert_eq!(kernel(&d), 2.0);
            d.finish()
        })
        .results
    }

    #[test]
    fn every_call_is_counted_once_kept_or_folded() {
        for t in trace_kernel() {
            assert_eq!(t.count(Kind::Map), 1);
            assert_eq!(t.count(Kind::Unmap), 1);
            assert_eq!(t.count(Kind::StartWrite), 1);
            assert_eq!(t.count(Kind::EndWrite), 1);
            assert_eq!(t.count(Kind::StartRead), 10);
            assert_eq!(t.count(Kind::EndRead), 10);
            assert_eq!(t.count(Kind::Barrier), 1);
            assert_eq!(t.count(Kind::Collective), 1);
            assert_eq!(t.count(Kind::ChangeProtocol), 0);
            for s in &t.long {
                assert!(s.end_ns - s.start_ns >= FOLD_BELOW_NS);
                assert!(s.start_ns >= t.app_start_ns && s.end_ns <= t.app_end_ns);
            }
            let folded: u64 = t.folded.iter().map(|f| f.count).sum();
            let hist: u64 = t.folded.iter().flat_map(|f| f.hist).sum();
            assert_eq!(folded, hist, "every folded span lands in one histogram bucket");
        }
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        for t in trace_kernel() {
            let kinds: u64 = Kind::ALL.iter().map(|&k| t.time_ns(k)).sum();
            assert_eq!(kinds + t.app_self_ns(), t.app_end_ns - t.app_start_ns);
        }
    }

    #[test]
    fn chrome_export_is_well_formed_json() {
        let reps = vec![trace_kernel(), trace_kernel()];
        let process = [ProcessSpan { name: "compile".into(), start_ns: 0, end_ns: 5_000 }];
        let doc = ace_trace::jsonlite::parse(&chrome_json(&reps, &process)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
        let named = |n: &str| {
            events.iter().filter(|e| e.get("name").and_then(|v| v.as_str()) == Some(n)).count()
        };
        assert_eq!(named("app"), 4, "one root span per rank per rep");
        assert_eq!(named("compile"), 1);
        assert_eq!(named("process_name"), 2);
    }
}
