//! Launch helpers: run a benchmark kernel on either runtime and collect a
//! uniform outcome record for the harnesses.

use std::collections::BTreeMap;
use std::time::Duration;

use ace_core::{run_ace_with, AceRt, CostModel, MachineBuilder, MachineTrace, OpCounters, Spmd};
use ace_crl::run_crl_with;

use crate::dsm::{AceDsm, CrlDsm};

/// Everything a harness needs from one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// The app's deterministic verification value (node 0's copy).
    pub verification: f64,
    /// Simulated completion time in nanoseconds.
    pub sim_ns: u64,
    /// Wall-clock duration of the simulation.
    pub wall: Duration,
    /// Total logical messages across all nodes (one per `send` call).
    pub msgs: u64,
    /// Total wire envelopes across all nodes; `<= msgs`, with the gap
    /// being the sends that coalescing batched into shared envelopes.
    pub wire_msgs: u64,
    /// Total payload bytes across all nodes.
    pub bytes: u64,
    /// Total blocking receives that parked a node thread, and how many of
    /// them ended by timeout rather than by a wake-up (host-side counts:
    /// they vary run to run and never enter simulated time).
    pub parks: u64,
    /// See [`RunOutcome::parks`].
    pub park_timeouts: u64,
    /// Machine-wide aggregated operation counters.
    pub counters: OpCounters,
    /// The most barrier messages any one node sent plus received
    /// ([`OpCounters::bar_msgs`] before the sum: what the busiest node of
    /// the barrier tree pays, where `counters` holds what the machine does).
    pub bar_msgs_busiest: u64,
    /// Total conformance violations recorded across all nodes (always 0
    /// unless the run was launched with a [`ace_core::CheckMode`]).
    pub violations: u64,
    /// Section records the conformance checker recorded, and the words
    /// they were encoded in, across all nodes: what the barrier arrivals
    /// carried to node 0, which scans each passage's records before
    /// releasing it (both 0 unless the run was checked).
    pub check_records: u64,
    /// See [`RunOutcome::check_records`].
    pub check_words: u64,
    /// Merged event trace, when the run was launched with tracing on.
    pub trace: Option<MachineTrace>,
}

impl RunOutcome {
    /// Simulated time in milliseconds (the unit the tables print).
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }
}

/// What an equivalence suite compares between two launches of one
/// workload: the outcome plus every rank's [`AceRt::data_digest`], taken
/// after a machine barrier so each digest sees the settled final state.
#[derive(Debug, Clone)]
pub struct Observed {
    /// The run's outcome record.
    pub outcome: RunOutcome,
    /// Per-rank digest of the home regions' contents, in rank order.
    pub digests: Vec<u64>,
}

/// What an equivalence suite's axis may change between two runs of one
/// program, and [`Observed::assert_equivalent`] therefore leaves out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// How logical messages group into wire envelopes
    /// ([`OpCounters::wire_msgs`]): coalescing, the execution backend, an
    /// engine in front of a protocol.
    Wire,
    /// Wire grouping and the header bytes a transport charges per envelope
    /// (in-process against socket): every byte total.
    Transport,
    /// Which hook calls the fast mask absorbed: fast hits and maps that ran
    /// no hook against dispatched and direct calls.
    FastPath,
}

impl Observed {
    /// Protocol tag -> (logical messages, payload bytes), read from the
    /// trace of a traced launch.
    pub fn per_tag(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let trace = self.outcome.trace.as_ref().expect("per_tag needs a traced launch");
        trace.summary().tags.iter().map(|t| (t.tag, (t.logical, t.bytes))).collect()
    }

    /// Assert that `other` ran the program `self` ran, as far as `axis`
    /// lets two runs differ: the same verification bits, per-rank digests,
    /// logical messages and payload bytes, per-tag logical counts and
    /// bytes (when the runs were traced), counters but those `axis`
    /// changes, no conformance violation, and no more wire envelopes than
    /// logical messages on either side. A failure names `ctx`.
    pub fn assert_equivalent(&self, other: &Observed, axis: Axis, ctx: &str) {
        let (a, b) = (&self.outcome, &other.outcome);
        assert_eq!(a.verification.to_bits(), b.verification.to_bits(), "{ctx}: verification value");
        assert_eq!(self.digests, other.digests, "{ctx}: per-node region digests");
        assert_eq!(a.msgs, b.msgs, "{ctx}: total logical message count");
        let bytes = axis != Axis::Transport;
        if bytes {
            assert_eq!(a.bytes, b.bytes, "{ctx}: total payload bytes");
        }
        if a.trace.is_some() || b.trace.is_some() {
            let tags = |o: &Observed| {
                let tags = o.per_tag().into_iter();
                tags.map(|(tag, (n, by))| (tag, n, by * bytes as u64)).collect::<Vec<_>>()
            };
            assert_eq!(tags(self), tags(other), "{ctx}: per-tag logical counts and bytes");
        }
        let strip = |c: &OpCounters| match axis {
            Axis::Wire | Axis::Transport => OpCounters { wire_msgs: 0, ..c.clone() },
            Axis::FastPath => {
                OpCounters { dispatched: 0, direct: 0, fast_hits: 0, fast_maps: 0, ..c.clone() }
            }
        };
        assert_eq!(strip(&a.counters), strip(&b.counters), "{ctx}: counters");
        assert_eq!((a.violations, b.violations), (0, 0), "{ctx}: conformance violations");
        for o in [a, b] {
            assert!(
                o.wire_msgs <= o.msgs,
                "{ctx}: coalescing can only merge envelopes (wire={} logical={})",
                o.wire_msgs,
                o.msgs
            );
        }
    }
}

/// Run `f` on the Ace runtime and collect the outcome.
pub fn launch_ace<F>(nprocs: usize, cost: CostModel, f: F) -> RunOutcome
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    launch_ace_with(Spmd::builder().nprocs(nprocs).cost(cost), f)
}

/// Run `f` on the Ace runtime with a fully-configured machine (tracing,
/// watchdog, transport).
pub fn launch_ace_with<F>(builder: MachineBuilder, f: F) -> RunOutcome
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    collect(run_ace_with(builder, |rt| (f(&AceDsm::new(rt)), 0, rt.counters()))).outcome
}

/// The one observing launch: run `kernel` on the Ace runtime after `prep`
/// has set the runtime up (the fast-path escape hatch), then
/// rendezvous and digest every rank's home regions.
pub fn observe<P, F>(builder: MachineBuilder, prep: P, kernel: F) -> Observed
where
    P: Fn(&AceRt) + Sync,
    F: Fn(&AceDsm) -> f64 + Sync,
{
    collect(run_ace_with(builder, |rt| {
        prep(rt);
        let v = kernel(&AceDsm::new(rt));
        rt.machine_barrier();
        (v, rt.data_digest(), rt.counters())
    }))
}

/// Run `f` on the CRL baseline and collect the outcome.
pub fn launch_crl<F>(nprocs: usize, cost: CostModel, f: F) -> RunOutcome
where
    F: Fn(&CrlDsm) -> f64 + Sync,
{
    launch_crl_with(Spmd::builder().nprocs(nprocs).cost(cost), f)
}

/// Run `f` on the CRL baseline with a fully-configured machine.
pub fn launch_crl_with<F>(builder: MachineBuilder, f: F) -> RunOutcome
where
    F: Fn(&CrlDsm) -> f64 + Sync,
{
    collect(run_crl_with(builder, |crl| (f(&CrlDsm::new(crl)), 0, crl.counters()))).outcome
}

/// Fold per-rank `(verification, digest, counters)` results into the record.
fn collect(r: ace_core::SpmdResult<(f64, u64, OpCounters)>) -> Observed {
    let mut counters = OpCounters::default();
    for (_, _, c) in &r.results {
        counters.merge(c);
    }
    let (check_records, check_words) = r.stats.total_check_history();
    let outcome = RunOutcome {
        verification: r.results[0].0,
        sim_ns: r.sim_ns,
        wall: r.wall,
        msgs: r.stats.total_msgs(),
        wire_msgs: r.stats.total_wire_msgs(),
        bytes: r.stats.total_bytes(),
        parks: r.stats.total_parks(),
        park_timeouts: r.stats.total_park_timeouts(),
        counters,
        bar_msgs_busiest: r.results.iter().map(|(_, _, c)| c.bar_msgs).max().unwrap_or(0),
        violations: r.stats.total_violations(),
        check_records,
        check_words,
        trace: r.trace,
    };
    Observed { outcome, digests: r.results.iter().map(|(_, d, _)| *d).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::Dsm;
    use ace_core::TraceConfig;

    /// [`observe`] on the CRL baseline (which has no escape hatches to prepare).
    fn observe_crl<F>(builder: MachineBuilder, kernel: F) -> Observed
    where
        F: Fn(&CrlDsm) -> f64 + Sync,
    {
        collect(run_crl_with(builder, |crl| {
            let v = kernel(&CrlDsm::new(crl));
            crl.inner().machine_barrier();
            (v, crl.inner().data_digest(), crl.counters())
        }))
    }

    #[test]
    fn outcomes_carry_stats() {
        let out = launch_ace(2, CostModel::cm5(), |d| {
            let s = d.new_space(ace_protocols::ProtoSpec::Sc);
            d.barrier(s);
            42.0
        });
        assert_eq!(out.verification, 42.0);
        assert!(out.msgs > 0, "barrier exchanges messages");
        assert!(out.sim_ns > 0);
        assert_eq!(out.counters.barriers, 2);
        assert!(out.trace.is_none(), "tracing is off by default");
    }

    #[test]
    fn traced_launch_carries_trace() {
        let b = Spmd::builder().nprocs(2).cost(CostModel::cm5()).trace(TraceConfig::on());
        let out = launch_ace_with(b, |d| {
            let s = d.new_space(ace_protocols::ProtoSpec::Sc);
            d.barrier(s);
            1.0
        });
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.send_count(), out.wire_msgs, "one Send event per wire envelope");
        assert_eq!(trace.logical_send_count(), out.msgs);
        assert!(out.wire_msgs <= out.msgs);
        assert!(trace.event_count() > 0);
    }

    #[test]
    fn observed_ace_and_crl_agree_on_small_em3d() {
        let p = crate::em3d::Params::small();
        let b = || Spmd::builder().nprocs(4).cost(CostModel::cm5());
        let kernel = crate::Variant::Sc;
        let ace =
            observe(b().trace(TraceConfig::on()), |_| {}, |d| crate::em3d::run(d, &p, kernel));
        let crl = observe_crl(b(), |d| crate::em3d::run(d, &p, kernel));
        assert_eq!(ace.outcome.verification.to_bits(), crl.outcome.verification.to_bits());
        assert_eq!(ace.digests.len(), 4);
        assert_eq!(ace.digests, crl.digests, "same source, same final memory image");
        assert!(crl.outcome.trace.is_none(), "a trace is present iff it was requested");
        let tags = ace.per_tag();
        assert_eq!(tags.values().map(|t| t.0).sum::<u64>(), ace.outcome.msgs);
    }
}
