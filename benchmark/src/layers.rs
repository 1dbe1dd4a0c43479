//! The per-layer ladder: one rung per step a request crosses, each a plain
//! timed loop over public functions of the layer it names.
//!
//! The micro rungs are ports (copies) of the Criterion targets `hotpath`,
//! `sendpath`, `schedpath`, `adaptpath`, `layers` and `micro` in
//! `crates/bench`: same loops, but timed inside the node closure so machine
//! construction is not in the figure, [`SAMPLES`] samples each, reported as
//! median and IQR. The whole-app rungs (ratios and overheads over a complete
//! run) take [`APP_SAMPLES`] samples, because each sample is a whole run.
//!
//! Micro rungs run on the `Threads` backend with `CostModel::free()` unless a
//! rung says otherwise: the free model leaves only host work in the loop.
//! Rungs that report what the cost model charges (`*_sim_*`) run under
//! `cm5()`. Like the workloads, everything here runs pinned to one CPU (see
//! `pin.rs`), so a hop is a local context switch, not a cross-CPU wake-up.

use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use ace_apps::runner::{launch_ace_with, launch_crl_with};
use ace_apps::{barnes, em3d, Variant};
use ace_core::{
    run_ace, run_ace_with, AceMsg, AceRt, CheckMode, CoalescePolicy, CostModel, Envelope,
    ExecBackend, ProtoMsg, Protocol, RegionId, SocketCfg, Spmd, SpmdResult, TraceConfig,
    TransportKind,
};
use ace_crl::run_crl;
use ace_lang::OptLevel;
use ace_machine::{WireCodec, WireReader};
use ace_protocols::adaptive::{decide, Signals};
use ace_protocols::{make, AdaptiveEngine, AdaptiveSpec, NullProtocol, ProtoSpec, SeqInvalidate};

use crate::report::Metric;
use crate::workloads::{self, machine};

/// Samples per micro rung.
pub const SAMPLES: usize = 15;
/// Samples per whole-app rung.
pub const APP_SAMPLES: usize = 3;

/// What rank 0 of a finished machine returned.
fn rank0<T>(r: SpmdResult<T>) -> T {
    r.results.into_iter().next().expect("a machine has a rank 0")
}

fn ns_per(op_count: usize, t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / op_count as f64
}

/// `SAMPLES` timings of `batch`, each divided by the `ops` it performs.
fn sample_ns(ops: usize, mut batch: impl FnMut()) -> Vec<f64> {
    batch(); // warm caches and lazy state
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            batch();
            ns_per(ops, t)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// machine.node
// ---------------------------------------------------------------------------

/// Host ns per `Node::send` on the sender, under one coalescing policy.
fn send_ns(policy: CoalescePolicy) -> Vec<f64> {
    const SENDS: usize = 20_000;
    (0..SAMPLES)
        .map(|_| {
            let r = Spmd::builder()
                .nprocs(2)
                .cost(CostModel::free())
                .coalesce(policy)
                .run::<u64, _, _>(|node| {
                    if node.rank() == 0 {
                        let t = Instant::now();
                        for i in 0..SENDS as u64 {
                            node.send(1, i + 1);
                        }
                        node.flush_coalesced();
                        ns_per(SENDS, t)
                    } else {
                        let seen = Cell::new(0usize);
                        node.poll_until(
                            "all sends",
                            |_, _| seen.set(seen.get() + 1),
                            || seen.get() == SENDS,
                        );
                        0.0
                    }
                });
            r.results[0]
        })
        .collect()
}

/// Host ns per envelope drained from a backlog of 30 k: the receiver starts
/// only once the sender has queued everything, so it times the drain alone.
fn drain_ns() -> Vec<f64> {
    const FLOOD: usize = 30_000;
    (0..SAMPLES)
        .map(|_| {
            let queued = AtomicBool::new(false);
            let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..FLOOD as u64 {
                        node.send(1, i);
                    }
                    queued.store(true, Ordering::SeqCst);
                    0.0
                } else {
                    while !queued.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    let seen = Cell::new(0usize);
                    let t = Instant::now();
                    node.poll_until(
                        "flood",
                        |_, _| seen.set(seen.get() + 1),
                        || seen.get() == FLOOD,
                    );
                    ns_per(FLOOD, t)
                }
            });
            r.results[1]
        })
        .collect()
}

// ---------------------------------------------------------------------------
// machine.transport and machine.sched
// ---------------------------------------------------------------------------

/// Round-trip microseconds of a 2-rank ping-pong: every hop blocks, so each
/// pays one pass through the transport and the backend's blocking path.
fn ping_pong_rtt_us(backend: ExecBackend, transport: TransportKind, rounds: usize) -> Vec<f64> {
    let samples = SAMPLES;
    let total = rounds * (samples + 1);
    let r = Spmd::builder()
        .nprocs(2)
        .cost(CostModel::free())
        .backend(backend)
        .workers(workloads::WORKERS)
        .transport(transport)
        .run::<u64, _, _>(|node| {
            let wait_one = || {
                let seen = Cell::new(false);
                node.poll_until("pong", |_, _| seen.set(true), || seen.get());
            };
            if node.rank() == 0 {
                let mut out = Vec::with_capacity(samples);
                for s in 0..=samples {
                    let t = Instant::now();
                    for i in 0..rounds as u64 {
                        node.send(1, i + 1);
                        wait_one();
                    }
                    if s > 0 {
                        out.push(ns_per(rounds, t) / 1e3);
                    }
                }
                out
            } else {
                for i in 0..total as u64 {
                    wait_one();
                    node.send(0, i + 1);
                }
                Vec::new()
            }
        });
    rank0(r)
}

/// Host ns to encode and decode one envelope carrying an 8-word `AceMsg`.
fn codec_ns() -> Vec<f64> {
    const OPS: usize = 10_000;
    let env = Envelope {
        src: 3,
        send_time: 123_456_789,
        vc: None,
        sw: 0,
        bytes: 12 + 64 + ace_machine::HEADER_BYTES,
        msg: AceMsg::Proto(ProtoMsg {
            region: RegionId(0x0003_0000_0000_0042),
            op: 2,
            from: 3,
            arg: 7,
            data: Some((0..8u64).collect()),
        }),
    };
    let mut buf = Vec::with_capacity(256);
    sample_ns(OPS, || {
        for _ in 0..OPS {
            buf.clear();
            black_box(&env).encode(&mut buf);
            let back = Envelope::<AceMsg>::decode(&mut WireReader::new(&buf)).expect("round trip");
            black_box(back);
        }
    })
}

/// Host microseconds per node to build, run and tear down a 256-rank
/// multiplexed machine whose program is empty.
fn spawn_us_per_node() -> Vec<f64> {
    const RANKS: usize = 256;
    let run =
        || machine(RANKS).run::<u64, _, _>(|_| ()).wall.as_nanos() as f64 / 1e3 / RANKS as f64;
    run();
    (0..SAMPLES).map(|_| run()).collect()
}

// ---------------------------------------------------------------------------
// core.rt
// ---------------------------------------------------------------------------

const PAIRS: usize = 20_000;

/// How a read pair reaches the protocol.
#[derive(Clone, Copy, PartialEq)]
enum Rung {
    /// Absorbed by the per-region fast mask.
    Fast,
    /// Fast paths off: dispatched through the space.
    Dispatch,
    /// Fast paths off: called on a known protocol (compiler direct dispatch).
    Direct,
}

fn read_pairs(rt: &AceRt, rung: Rung) -> (RegionId, Rc<SeqInvalidate>) {
    rt.set_fast_paths(rung == Rung::Fast);
    let proto = Rc::new(SeqInvalidate::new());
    let s = rt.new_space(proto.clone());
    let r = rt.gmalloc::<u64>(s, 8);
    rt.map(r);
    (r, proto)
}

fn pair_loop(rt: &AceRt, rung: Rung, r: RegionId, proto: &dyn Protocol) {
    for _ in 0..PAIRS {
        if rung == Rung::Direct {
            rt.start_read_direct(black_box(r), proto);
            rt.end_read_direct(r, proto);
        } else {
            rt.start_read(black_box(r));
            rt.end_read(r);
        }
    }
}

/// Host ns per `start_read`/`end_read` pair on a quiescent home region.
fn ann_ns(rung: Rung) -> Vec<f64> {
    rank0(run_ace(1, CostModel::free(), |rt| {
        let (r, proto) = read_pairs(rt, rung);
        sample_ns(PAIRS, || pair_loop(rt, rung, r, &*proto))
    }))
}

/// Simulated ns the same pair is charged under `cm5()`. The cost model is
/// deterministic here (one rank, no messages), so one sample is exact.
fn ann_sim_ns(rung: Rung) -> Vec<f64> {
    rank0(run_ace(1, CostModel::cm5(), |rt| {
        let (r, proto) = read_pairs(rt, rung);
        let before = rt.node().now();
        pair_loop(rt, rung, r, &*proto);
        vec![(rt.node().now() - before) as f64 / PAIRS as f64]
    }))
}

/// Host ns per `map`/`unmap` pair of an already-known region.
fn map_pair_ns() -> Vec<f64> {
    const OPS: usize = 10_000;
    rank0(run_ace(1, CostModel::free(), |rt| {
        let s = rt.new_space(Rc::new(NullProtocol::new()));
        let r = rt.gmalloc::<u64>(s, 1);
        sample_ns(OPS, || {
            for _ in 0..OPS {
                rt.map(black_box(r));
                rt.unmap(r);
            }
        })
    }))
}

/// Host ns per region-table lookup over a working set that fits the inline
/// cache.
fn lookup_ns() -> Vec<f64> {
    const OPS: usize = 20_000;
    rank0(run_ace(1, CostModel::free(), |rt| {
        let s = rt.new_space(Rc::new(NullProtocol::new()));
        let regions: Vec<RegionId> = (0..64).map(|_| rt.gmalloc::<u64>(s, 8)).collect();
        sample_ns(OPS, || {
            for i in 0..OPS {
                black_box(rt.lookup(black_box(regions[i % regions.len()])));
            }
        })
    }))
}

/// Per-barrier host and simulated microseconds at `ranks` ranks, seen from
/// node 0 (the coordinator every arrival funnels through), on the workload
/// machine. One sample is `per_sample` barriers.
fn barrier_us(ranks: usize, per_sample: usize) -> (Vec<f64>, Vec<f64>) {
    let r = run_ace_with(machine(ranks), |rt| {
        let s = rt.new_space(make(ProtoSpec::Sc));
        rt.barrier(s);
        let mut wall = Vec::with_capacity(SAMPLES);
        let mut sim = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let (t, before) = (Instant::now(), rt.node().now());
            for _ in 0..per_sample {
                rt.barrier(s);
            }
            wall.push(ns_per(per_sample, t) / 1e3);
            sim.push((rt.node().now() - before) as f64 / per_sample as f64 / 1e3);
        }
        (wall, sim)
    });
    rank0(r)
}

// ---------------------------------------------------------------------------
// crl
// ---------------------------------------------------------------------------

fn crl_read_pair_ns() -> Vec<f64> {
    rank0(run_crl(1, CostModel::free(), |crl| {
        let r = crl.create::<u64>(8);
        crl.map(r);
        sample_ns(PAIRS, || {
            for _ in 0..PAIRS {
                crl.start_read(black_box(r));
                crl.end_read(r);
            }
        })
    }))
}

fn crl_map_pair_ns() -> Vec<f64> {
    const OPS: usize = 10_000;
    rank0(run_crl(1, CostModel::free(), |crl| {
        let r = crl.create::<u64>(1);
        sample_ns(OPS, || {
            for _ in 0..OPS {
                crl.map(black_box(r));
                crl.unmap(r);
            }
        })
    }))
}

// ---------------------------------------------------------------------------
// protocols
// ---------------------------------------------------------------------------

/// The six protocols with a cycle rung, and the rank that writes. The home
/// (rank 0) writes and rank 1 reads, except under `pipelined`, whose deltas
/// flow from a remote writer to the home.
const CYCLE_PROTOCOLS: [(&str, ProtoSpec, usize); 6] = [
    ("seq_inv", ProtoSpec::Sc, 0),
    ("dyn_update", ProtoSpec::DynUpdate, 0),
    ("static_update", ProtoSpec::StaticUpdate, 0),
    ("migratory", ProtoSpec::Migratory, 0),
    ("home_owned", ProtoSpec::HomeOwned, 0),
    ("pipelined", ProtoSpec::Pipelined, 1),
];

/// One write → barrier → read on the other rank → barrier cycle, ×1000 under
/// `cm5()`: host µs, simulated µs and logical messages per cycle.
fn protocol_cycle(spec: ProtoSpec, writer: usize) -> [Vec<f64>; 3] {
    const PER_SAMPLE: usize = 50;
    const CYCLES: usize = PER_SAMPLE * (SAMPLES + 5);
    let r = run_ace_with(Spmd::builder().nprocs(2).cost(CostModel::cm5()), |rt| {
        let s = rt.new_space(make(spec));
        let rid = if rt.rank() == 0 {
            RegionId(rt.bcast(0, &[rt.gmalloc::<f64>(s, 8).0])[0])
        } else {
            RegionId(rt.bcast(0, &[])[0])
        };
        rt.map(rid);
        let cycle = |i: usize| {
            if rt.rank() == writer {
                rt.start_write(rid);
                rt.with_mut::<f64, _>(rid, |d| d[0] = i as f64);
                rt.end_write(rid);
            }
            rt.barrier(s);
            if rt.rank() != writer {
                rt.start_read(rid);
                black_box(rt.with::<f64, _>(rid, |d| d[0]));
                rt.end_read(rid);
            }
            rt.barrier(s);
        };
        (0..PER_SAMPLE).for_each(cycle); // subscriptions, first fetches
        let msgs_before = rt.node().stats().logical_msgs;
        let mut wall = Vec::new();
        let mut sim = Vec::new();
        for sample in 1..CYCLES / PER_SAMPLE {
            let (t, before) = (Instant::now(), rt.node().now());
            (sample * PER_SAMPLE..(sample + 1) * PER_SAMPLE).for_each(cycle);
            wall.push(ns_per(PER_SAMPLE, t) / 1e3);
            sim.push((rt.node().now() - before) as f64 / PER_SAMPLE as f64 / 1e3);
        }
        let sent = rt.node().stats().logical_msgs - msgs_before;
        rt.unmap(rid);
        (wall, sim, sent)
    });
    let sent: u64 = r.results.iter().map(|(_, _, m)| m).sum();
    let (wall, sim, _) = rank0(r);
    [wall, sim, vec![sent as f64 / (CYCLES - PER_SAMPLE) as f64]]
}

/// Host ns per call of the adaptive engine's public `decide`.
fn decide_ns() -> Vec<f64> {
    const OPS: usize = 20_000;
    let cands = AdaptiveSpec::SC | AdaptiveSpec::DYN_UPDATE | AdaptiveSpec::STATIC_UPDATE;
    let g = Signals {
        rmiss: 400,
        wmiss: 0,
        reads: 4_000,
        writes: 800,
        fan: 900,
        shared_regions: 300,
        ..Signals::default()
    };
    sample_ns(OPS, || {
        for _ in 0..OPS {
            black_box(decide(black_box(cands), AdaptiveSpec::SC, black_box(&g)));
        }
    })
}

/// Extra host ns per barrier when the adaptive engine stages and aggregates
/// a profile on it (a quiet workload, so the engine never switches).
fn adaptive_barrier_overhead_ns() -> Vec<f64> {
    const BARRIERS: usize = 500;
    const PER_BAR: usize = 8;
    let run = |proto: fn() -> Rc<dyn Protocol>| {
        rank0(run_ace(1, CostModel::free(), move |rt| {
            let s = rt.new_space(proto());
            let r = rt.gmalloc::<u64>(s, 8);
            rt.map(r);
            sample_ns(BARRIERS, || {
                for _ in 0..BARRIERS {
                    for _ in 0..PER_BAR {
                        rt.start_read(black_box(r));
                        rt.end_read(r);
                    }
                    rt.barrier(s);
                }
            })
        }))
    };
    let sc = run(|| Rc::new(SeqInvalidate::new()));
    let ad = run(|| {
        Rc::new(AdaptiveEngine::new(AdaptiveSpec::new(AdaptiveSpec::SC | AdaptiveSpec::DYN_UPDATE)))
    });
    ad.iter().zip(&sc).map(|(a, s)| a - s).collect()
}

/// Host µs per coherent flush-point switch: a storm-mode engine that hands
/// over at every barrier, against the same workload pinned to one candidate.
fn adaptive_switch_us() -> Vec<f64> {
    const STEPS: usize = 50;
    let run = |spec: AdaptiveSpec| {
        let r = run_ace(2, CostModel::free(), move |rt| {
            let s = rt.new_space(Rc::new(AdaptiveEngine::new(spec)));
            let r = rt.gmalloc::<u64>(s, 8);
            rt.map(r);
            let t = Instant::now();
            for i in 0..STEPS {
                if rt.rank() == 0 {
                    rt.start_write(r);
                    rt.with_mut::<u64, _>(r, |d| d[0] = i as u64);
                    rt.end_write(r);
                }
                rt.barrier(s);
                rt.start_read(r);
                black_box(rt.with::<u64, _>(r, |d| d[0]));
                rt.end_read(r);
                rt.barrier(s);
            }
            (t.elapsed().as_nanos() as f64 / 1e3, rt.counters().switches)
        });
        r.results[0]
    };
    let storm =
        AdaptiveSpec::new(AdaptiveSpec::SC | AdaptiveSpec::DYN_UPDATE).with_dwell(1).storming();
    (0..SAMPLES)
        .map(|_| {
            let (pinned_us, _) = run(AdaptiveSpec::pinned(AdaptiveSpec::SC));
            let (storm_us, switches) = run(storm);
            (storm_us - pinned_us) / switches.max(1) as f64
        })
        .collect()
}

// ---------------------------------------------------------------------------
// whole-app rungs
// ---------------------------------------------------------------------------

/// The `em3d_sc` input cut to five steps: the whole-app rungs need its
/// sharing pattern, not its length, and three of them run it nine times.
fn em3d_short() -> em3d::Params {
    em3d::Params { steps: 5, ..workloads::em3d_input(7) }
}

fn pct_over(on: f64, off: f64) -> f64 {
    (on / off - 1.0) * 100.0
}

/// `sim_skew_pct` (how far simulated time rides host scheduling: free-running
/// `Threads` against the two-slot `Multiplexed` machine) and
/// `check.sim_overhead_pct` (`CheckMode::Fail` against off), from the same
/// unchecked multiplexed runs.
fn em3d_skew_and_check() -> (Vec<f64>, Vec<f64>) {
    let p = em3d_short();
    let sim = |b: ace_core::MachineBuilder| {
        launch_ace_with(b, |d| em3d::run(d, &p, Variant::Sc)).sim_ns as f64
    };
    let threads = Spmd::builder().nprocs(8).cost(CostModel::cm5());
    (0..APP_SAMPLES)
        .map(|_| {
            let mux = sim(machine(8));
            (
                pct_over(sim(threads.clone()), mux).abs(),
                pct_over(sim(machine(8).check(CheckMode::Fail)), mux),
            )
        })
        .unzip()
}

/// CRL / Ace-SC simulated time on Barnes-Hut (Figure 7a's ratio), at a
/// quarter of the `barnes_map` input so a sample pair stays under a second.
fn crl_sim_ratio_barnes() -> Vec<f64> {
    let p = barnes::Params { bodies: 256, steps: 1, ..workloads::barnes_input(3) };
    (0..APP_SAMPLES)
        .map(|_| {
            let crl = launch_crl_with(machine(8), |d| barnes::run(d, &p, Variant::Sc)).sim_ns;
            let ace = launch_ace_with(machine(8), |d| barnes::run(d, &p, Variant::Sc)).sim_ns;
            crl as f64 / ace as f64
        })
        .collect()
}

/// Simulated time of EM3D when the adaptive engine starts at SC and has to
/// discover the update protocol, over the hand-picked static update.
fn adaptive_discover_ratio() -> Vec<f64> {
    let p = workloads::em3d_input(7);
    let sim = |proto| launch_ace_with(machine(8), |d| em3d::run_with(d, &p, proto)).sim_ns as f64;
    (0..APP_SAMPLES)
        .map(|_| {
            sim(em3d::Em3dProto::AdaptiveFrom(AdaptiveSpec::SC)) / sim(em3d::Em3dProto::Static)
        })
        .collect()
}

/// Host-time cost of the runtime's own event trace (`TraceConfig::on()`)
/// on `em3d_update`.
fn trace_sink_overhead_pct() -> Vec<f64> {
    let p = workloads::em3d_input(7);
    let wall = |trace| {
        launch_ace_with(machine(8).trace(trace), |d| em3d::run(d, &p, Variant::Custom))
            .wall
            .as_nanos() as f64
    };
    wall(TraceConfig::off());
    (0..APP_SAMPLES).map(|_| pct_over(wall(TraceConfig::on()), wall(TraceConfig::off()))).collect()
}

/// The `ace-lang` rungs: compile time of the five programs, VM host time per
/// annotation executed, and each program's simulated time.
fn lang_layers(push: &mut impl FnMut(&str, &str, Vec<f64>)) {
    let compile_ms = (0..APP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(workloads::compile_programs(OptLevel::Direct, t));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    push("lang.compile_ms", "ms", compile_ms);

    let (progs, _) = workloads::compile_programs(OptLevel::Direct, Instant::now());
    let mut per_ann = Vec::new();
    let mut sims: Vec<Vec<f64>> = vec![Vec::new(); progs.len()];
    for _ in 0..APP_SAMPLES {
        let (mut wall_ns, mut anns) = (0u128, 0u64);
        for (prog, sim) in progs.iter().zip(&mut sims) {
            let run = launch_ace_with(machine(8), |d| {
                ace_lang::run_program(d.rt(), prog).map_or(0.0, |v| v.as_f())
            });
            wall_ns += run.wall.as_nanos();
            anns += run.counters.total_annotations();
            sim.push(run.sim_ms());
        }
        per_ann.push(wall_ns as f64 / anns.max(1) as f64);
    }
    push("lang.vm.ns_per_annotation", "ns", per_ann);
    for ((name, _), sim) in workloads::PROGRAMS.iter().zip(sims) {
        push(&format!("lang.vm.sim_ms.{name}"), "ms", sim);
    }
}

/// A Unix-socket rendezvous path under `dir`, relative to the working
/// directory when it can be (socket paths are capped near 100 bytes).
fn socket_path(dir: &Path) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = format!("rdv.{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed));
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| dir.to_path_buf());
    dir.join(name)
}

/// Run every rung: the per-layer metrics of BENCHMARK.json that do not depend
/// on the workload. `scratch` is where the socket rung may create its
/// rendezvous files (removed when its machine shuts down).
pub fn run_all(scratch: &Path) -> Vec<Metric> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &str, samples: Vec<f64>| {
        out.push(Metric::of(name, unit, &samples));
    };

    push("machine.node.send_ns.off", "ns", send_ns(CoalescePolicy::Off));
    push("machine.node.send_ns.thr8", "ns", send_ns(CoalescePolicy::Threshold(8)));
    push("machine.node.send_ns.flush_on_wait", "ns", send_ns(CoalescePolicy::FlushOnWait));
    push("machine.node.drain_ns", "ns", drain_ns());

    // One ping-pong per (backend, transport); the in-process round trip on
    // `Threads` is two scheduler hops, so it feeds both of those rungs.
    let inproc = ping_pong_rtt_us(ExecBackend::Threads, TransportKind::InProc, 200);
    push("machine.sched.hop_us.threads", "us", inproc.iter().map(|rtt| rtt / 2.0).collect());
    push("machine.transport.inproc_rtt_us", "us", inproc);
    let mux = ping_pong_rtt_us(ExecBackend::Multiplexed, TransportKind::InProc, 200);
    push("machine.sched.hop_us.mux", "us", mux.iter().map(|rtt| rtt / 2.0).collect());
    std::fs::create_dir_all(scratch).expect("create the benchmark's out directory");
    let socket = TransportKind::Socket(SocketCfg::unix(socket_path(scratch)));
    let socket_rtt = ping_pong_rtt_us(ExecBackend::Threads, socket, 100);
    push("machine.transport.socket_rtt_us", "us", socket_rtt);
    push("machine.transport.codec_ns", "ns", codec_ns());
    push("machine.sched.spawn_us_per_node", "us", spawn_us_per_node());

    for (rung, name) in
        [(Rung::Fast, "fast"), (Rung::Dispatch, "dispatch"), (Rung::Direct, "direct")]
    {
        push(&format!("core.rt.ann_{name}_ns"), "ns", ann_ns(rung));
        push(&format!("core.rt.ann_{name}_sim_ns"), "ns", ann_sim_ns(rung));
    }
    push("core.rt.map_pair_ns", "ns", map_pair_ns());
    push("core.rt.lookup_ns", "ns", lookup_ns());
    for (ranks, per_sample) in [(8, 20), (256, 1)] {
        let (wall, sim) = barrier_us(ranks, per_sample);
        push(&format!("core.rt.barrier_us.{ranks}"), "us", wall);
        push(&format!("core.rt.barrier_sim_us.{ranks}"), "us", sim);
    }

    let (skew, check) = em3d_skew_and_check();
    push("machine.sched.sim_skew_pct", "%", skew);
    push("core.check.sim_overhead_pct", "%", check);

    push("crl.read_pair_ns", "ns", crl_read_pair_ns());
    push("crl.map_pair_ns", "ns", crl_map_pair_ns());
    push("crl.sim_ratio.barnes", "ratio", crl_sim_ratio_barnes());

    for (name, spec, writer) in CYCLE_PROTOCOLS {
        let [wall, sim, msgs] = protocol_cycle(spec, writer);
        push(&format!("protocols.{name}.cycle_us"), "us", wall);
        push(&format!("protocols.{name}.cycle_sim_us"), "us", sim);
        push(&format!("protocols.{name}.cycle_msgs"), "count", msgs);
    }
    push("protocols.adaptive.decide_ns", "ns", decide_ns());
    push("protocols.adaptive.barrier_overhead_ns", "ns", adaptive_barrier_overhead_ns());
    push("protocols.adaptive.switch_us", "us", adaptive_switch_us());
    push("protocols.adaptive.discover_ratio", "ratio", adaptive_discover_ratio());

    push("trace.sink_overhead_pct", "%", trace_sink_overhead_pct());
    lang_layers(&mut push);
    // How long the ladder took: watch it against the driver's time cap.
    push("bench.layers_s", "s", vec![started.elapsed().as_secs_f64()]);
    out
}
