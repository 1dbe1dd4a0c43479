//! The event-driven blocking receive, checked on counts rather than
//! timings: a blocked node parks once and is woken once — by a delivery,
//! by a peer's failure, or by its watchdog deadline — on every execution
//! backend and transport.
//!
//! The `wake_*` tests are the lost-wake-up stress; CI runs them twenty
//! times in release so a once-in-fifty race shows up as a red job.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use ace_apps::runner::launch_ace_with;
use ace_apps::{em3d, Variant};
use ace_machine::{CostModel, ExecBackend, MachineBuilder, Node, Spmd, TransportKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Machines here are wide or timing-sensitive; they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn mux() -> MachineBuilder {
    Spmd::builder().backend(ExecBackend::Multiplexed)
}

fn threads() -> MachineBuilder {
    Spmd::builder().backend(ExecBackend::Threads)
}

// ---------------------------------------------------------------------------
// lost-wake-up stress
// ---------------------------------------------------------------------------

const ROUNDS: usize = 12;

/// The whole machine's send plan, identical on every rank: in round `k`
/// rank `src` sends to `plan[k][src]` in order. Destinations are uniform
/// over all ranks including `src` itself.
fn send_plan(seed: u64, n: usize) -> Vec<Vec<Vec<usize>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ROUNDS)
        .map(|_| {
            (0..n)
                .map(|_| (0..rng.gen_range(0..7usize)).map(|_| rng.gen_range(0..n)).collect())
                .collect()
        })
        .collect()
}

/// Random all-to-all traffic with random self-blocking. Each round a rank
/// fires its planned sends — stopping after any self-send to block until
/// that message has come back round — then blocks until every message the
/// plan addresses to it this round has arrived. A send never waits on a
/// receipt of the same round, so the only way to hang is a lost wake-up,
/// which the 5 s watchdog turns into a failure. The handler checks
/// per-pair FIFO with exactly-once delivery: from each source, sequence
/// numbers arrive as 0, 1, 2, … with none skipped or repeated.
fn all_to_all(builder: MachineBuilder, n: usize, seed: u64) {
    let plan = send_plan(seed, n);
    let r = builder
        .nprocs(n)
        .cost(CostModel::free())
        .watchdog(Duration::from_secs(5))
        .run::<u64, _, _>(|node| {
            let me = node.rank();
            let next_seq = RefCell::new(vec![0u32; n]); // per destination
            let want_seq = RefCell::new(vec![0u32; n]); // per source
            let got_in_round = RefCell::new(vec![0usize; ROUNDS]);
            let handle = |_: &Node<u64>, env: ace_machine::Envelope<u64>| {
                let (round, seq) = ((env.msg >> 32) as usize, env.msg as u32);
                let want = &mut want_seq.borrow_mut()[env.src];
                assert_eq!(seq, *want, "rank {me}: from {}: FIFO / exactly-once broken", env.src);
                *want += 1;
                got_in_round.borrow_mut()[round] += 1;
            };
            for (k, round) in plan.iter().enumerate() {
                for &dst in &round[me] {
                    let seq = {
                        let mut next = next_seq.borrow_mut();
                        next[dst] += 1;
                        next[dst] - 1
                    };
                    node.send(dst, (k as u64) << 32 | seq as u64);
                    if dst == me {
                        node.poll_until("own message", handle, || want_seq.borrow()[me] > seq);
                    }
                }
                let due = round.iter().flatten().filter(|&&d| d == me).count();
                node.poll_until("this round's messages", handle, || {
                    got_in_round.borrow()[k] == due
                });
            }
            want_seq.into_inner()
        });
    for (dst, got) in r.results.iter().enumerate() {
        for (src, &count) in got.iter().enumerate() {
            let sent = plan.iter().flat_map(|round| &round[src]).filter(|&&d| d == dst).count();
            assert_eq!(count as usize, sent, "messages {src} -> {dst}");
        }
    }
    assert_eq!(r.stats.total_park_timeouts(), 0, "a wake-up was lost and the deadline stood in");
    assert!(
        r.stats.total_parks() <= r.stats.total_wire_msgs(),
        "{} parks for {} wire envelopes: some park was woken for nothing",
        r.stats.total_parks(),
        r.stats.total_wire_msgs()
    );
}

#[test]
fn wake_stress_threads() {
    let _g = serial();
    for seed in 0..4 {
        all_to_all(threads(), 64, seed);
    }
}

#[test]
fn wake_stress_multiplexed() {
    let _g = serial();
    for seed in 0..4 {
        all_to_all(mux(), 64, seed);
    }
}

#[test]
fn wake_stress_socket_loopback() {
    // Sockets cap the mesh and reject `Multiplexed`, so: 8 ranks, threads.
    let _g = serial();
    for seed in 0..4 {
        all_to_all(Spmd::builder().transport(TransportKind::socket_loopback()), 8, seed);
    }
}

// ---------------------------------------------------------------------------
// one park per hop on a real application
// ---------------------------------------------------------------------------

#[test]
fn em3d_parks_at_most_once_per_envelope_and_never_times_out() {
    let _g = serial();
    let p = em3d::Params {
        e_nodes: 128,
        h_nodes: 128,
        degree: 3,
        pct_remote: 20,
        steps: 4,
        seed: 11,
        hoist_maps: true,
    };
    let out =
        launch_ace_with(mux().nprocs(64).cost(CostModel::cm5()), |d| em3d::run(d, &p, Variant::Sc));
    assert_eq!(out.park_timeouts, 0, "a blocked rank woke by timer, not by message");
    assert!(out.parks > 0, "test premise: ranks block at misses and barriers");
    // Every park ends with one delivered wire envelope, and every envelope
    // sent is received before the final barrier lets anyone leave.
    assert!(out.parks <= out.wire_msgs, "{} parks, {} wire envelopes", out.parks, out.wire_msgs);
}

// ---------------------------------------------------------------------------
// peer death reaches a long-parked rank at once
// ---------------------------------------------------------------------------

/// Rank 1 panics after rank 0 has been parked for over a second — past
/// where the old idle back-off had reached its 20 ms ceiling. Rank 0's
/// own panic must name rank 1 with its message, within 250 ms of it.
fn long_parked_rank_learns_of_a_death(builder: MachineBuilder) {
    let died_at: OnceLock<Instant> = OnceLock::new();
    let noticed: OnceLock<(Instant, String)> = OnceLock::new();
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        builder.nprocs(2).cost(CostModel::free()).run::<u64, _, _>(|node| {
            if node.rank() == 1 {
                std::thread::sleep(Duration::from_millis(1100));
                died_at.set(Instant::now()).unwrap();
                panic!("boom");
            }
            let wait = std::panic::catch_unwind(AssertUnwindSafe(|| {
                node.poll_until("a message that never comes", |_, _| {}, || false);
            }));
            let e = wait.expect_err("the wait cannot succeed");
            let msg = e.downcast_ref::<String>().cloned().unwrap_or_default();
            noticed.set((Instant::now(), msg)).unwrap();
            std::panic::resume_unwind(e);
        })
    }));
    assert!(run.is_err(), "the run must propagate the panic");
    let (at, msg) = noticed.get().expect("rank 0 panicked out of its wait");
    let latency = at.duration_since(*died_at.get().expect("rank 1 died"));
    assert!(msg.contains("node 1 died: boom"), "rank 0 must name the root cause: {msg}");
    assert!(latency < Duration::from_millis(250), "death took {latency:?} to reach a parked rank");
}

#[test]
fn peer_death_wakes_a_long_parked_rank_threads() {
    let _g = serial();
    long_parked_rank_learns_of_a_death(threads());
}

#[test]
fn peer_death_wakes_a_long_parked_rank_multiplexed() {
    let _g = serial();
    long_parked_rank_learns_of_a_death(mux());
}

#[test]
fn peer_death_wakes_a_long_parked_rank_over_sockets() {
    let _g = serial();
    long_parked_rank_learns_of_a_death(Spmd::builder().transport(TransportKind::socket_loopback()));
}

// ---------------------------------------------------------------------------
// the watchdog is the park's deadline, and a deadlock does not wait for it
// ---------------------------------------------------------------------------

/// Run `f` on `builder`'s machine, which must fail; return the panic it
/// propagated and how long the whole run took.
fn failing_run(builder: MachineBuilder, f: impl Fn(&Node<u64>) + Sync) -> (String, Duration) {
    let t0 = Instant::now();
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        builder.cost(CostModel::free()).run::<u64, _, _>(f);
    }));
    let took = t0.elapsed();
    let e = run.expect_err("the run must fail");
    (e.downcast_ref::<String>().cloned().unwrap_or_default(), took)
}

#[test]
fn watchdog_trips_on_time_on_threads() {
    let _g = serial();
    let wd = Duration::from_millis(50);
    let (msg, took) = failing_run(threads().nprocs(1).watchdog(wd), |node| {
        let wait = std::panic::catch_unwind(AssertUnwindSafe(|| {
            node.poll_until("never", |_, _| {}, || false);
        }));
        assert_eq!(node.stats().parks, 1, "one park, ended by its deadline");
        assert_eq!(node.stats().park_timeouts, 1);
        std::panic::resume_unwind(wait.expect_err("the wait cannot succeed"));
    });
    assert!(msg.contains("wedged waiting for: never"), "{msg}");
    assert!(took >= wd && took <= 3 * wd, "50 ms watchdog fired after {took:?}");
}

#[test]
fn a_wait_fed_forever_but_never_satisfied_ends_at_the_watchdog_on_both_backends() {
    // Two ranks bounce a message for ever while each waits for something
    // else: neither is ever idle for long, neither wait can end, and no
    // executor can call it a deadlock. The deadline covers the whole wait.
    let _g = serial();
    let wd = Duration::from_millis(50);
    for builder in [threads(), mux()] {
        let (msg, took) = failing_run(builder.nprocs(2).watchdog(wd), |node| {
            if node.rank() == 0 {
                node.send(1, 0);
            }
            node.poll_until("godot", |n, env| n.send(env.src, env.msg + 1), || false);
        });
        assert!(msg.contains("wedged waiting for: godot"), "{msg}");
        assert!(took >= wd && took <= 10 * wd, "50 ms watchdog fired after {took:?}");
    }
}

#[test]
fn a_multiplexed_deadlock_is_reported_at_once() {
    // Three ranks each wait for a message nobody sends. Under the default
    // 30 s watchdog the executor sees that nothing is runnable and fails
    // the first of them, naming its wait; its peers fail fast behind it.
    let _g = serial();
    let stuck = |node: &Node<u64>| node.poll_until("a letter from nobody", |_, _| {}, || false);
    let (msg, took) = failing_run(mux().nprocs(3), stuck);
    assert!(
        msg.contains("node 0 panicked: node 0 wedged waiting for: a letter from nobody"),
        "{msg}"
    );
    assert!(took < Duration::from_secs(1), "a deadlock took {took:?} to report");
    // Kernel threads can always be woken from outside, so there the same
    // program still runs into its (shortened) watchdog.
    let wd = Duration::from_millis(50);
    let (msg, took) = failing_run(threads().nprocs(3).watchdog(wd), stuck);
    assert!(msg.contains("wedged waiting for: a letter from nobody"), "{msg}");
    assert!(took >= wd, "the watchdog fired after {took:?}");
}
