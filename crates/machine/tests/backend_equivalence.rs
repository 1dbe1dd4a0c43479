//! Machine-level checks that the multiplexed backend preserves the
//! substrate's contracts at scale: 255 senders racing one inbox are
//! delivered in per-source FIFO order and in the same order every run,
//! failure detection still names the culprit promptly when nodes share
//! one thread, and a machine at the 4096-node ceiling constructs and
//! tears down.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ace_machine::{CostModel, ExecBackend, Spmd};

/// The tests here map hundreds-to-thousands of node stacks each, so
/// they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn racing_senders_pop_in_fifo_order_and_the_same_order_every_run() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 255 senders race two messages each at node 0, which only starts
    // popping after everything has arrived (it starts first and parks;
    // its wake-up queues behind every sender's start). The backlog is
    // four drain bursts deep; nothing but the executor's order decides
    // what node 0 pops, so two runs must agree.
    let n = 256usize;
    let run = || {
        let r = Spmd::builder()
            .nprocs(n)
            .cost(CostModel::cm5())
            .backend(ExecBackend::Multiplexed)
            .run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                let order = std::cell::RefCell::new(Vec::new());
                let want = (n - 1) * 2;
                node.poll_until(
                    "all raced msgs",
                    |_, env| order.borrow_mut().push((env.src, env.msg)),
                    || order.borrow().len() == want,
                );
                order.into_inner()
            } else {
                node.send(0, node.rank() as u64 * 10 + 1);
                node.send(0, node.rank() as u64 * 10 + 2);
                Vec::new()
            }
        });
        r.results[0].clone()
    };
    let a = run();
    assert_eq!(a, run(), "two runs of one program must pop in the same order");
    for src in 1..n {
        let msgs: Vec<u64> = a.iter().filter(|(s, _)| *s == src).map(|(_, m)| *m).collect();
        assert_eq!(
            msgs,
            vec![src as u64 * 10 + 1, src as u64 * 10 + 2],
            "per-source FIFO must be preserved"
        );
    }
}

#[test]
#[should_panic(expected = "node 1 panicked: boom")]
fn peer_death_is_detected_under_multiplexing() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Node 1 crashes while node 0 is suspended in a receive wait and six
    // more have yet to start. The failure board's wake-up has to put the
    // waiter back on the executor's queue: the death must be noticed at
    // once — nowhere near the watchdog — and the propagated panic must
    // name the crashing node (first writer on the board), not the
    // innocent waiter.
    let start = Instant::now();
    let r = std::panic::catch_unwind(|| {
        Spmd::builder()
            .nprocs(8)
            .cost(CostModel::free())
            .backend(ExecBackend::Multiplexed)
            .run::<u64, _, _>(|node| {
                if node.rank() == 1 {
                    panic!("boom");
                }
                node.poll_until("a message that never comes", |_, _| {}, || false);
            })
    });
    assert!(r.is_err());
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "peer death took {:?} to detect; watchdog should not be involved",
        start.elapsed()
    );
    std::panic::resume_unwind(r.unwrap_err());
}

#[test]
fn machine_at_the_node_ceiling_constructs_and_runs() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The full 4096-node machine: shared routing table, per-node state,
    // and 4096 fiber stacks, all at the MAX_NODES ceiling. Each node
    // passes a token around a ring so every mailbox is delivered into and
    // every node but the last is suspended and woken at least once.
    let n = ace_machine::MAX_NODES;
    let r = Spmd::builder()
        .nprocs(n)
        .cost(CostModel::free())
        .backend(ExecBackend::Multiplexed)
        .run::<u64, _, _>(|node| {
            let next = (node.rank() + 1) % n;
            node.send(next, node.rank() as u64);
            let got = std::cell::Cell::new(u64::MAX);
            node.poll_until("ring token", |_, env| got.set(env.msg), || got.get() != u64::MAX);
            got.get()
        });
    for (rank, &got) in r.results.iter().enumerate() {
        assert_eq!(got as usize, (rank + n - 1) % n, "ring token came from the wrong rank");
    }
}
