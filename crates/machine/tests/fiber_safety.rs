//! What a fiber does to the process when it goes wrong, and what a
//! machine of them leaves behind when it goes right: each test re-runs
//! this binary on itself alone, as a child marked by an environment
//! variable, and judges the child by how it ended.

#![cfg(all(target_arch = "x86_64", unix))]

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use ace_machine::{CostModel, ExecBackend, MachineBuilder, Node, Spmd};

const CHILD: &str = "ACE_FIBER_SAFETY_CHILD";

fn in_child() -> bool {
    std::env::var_os(CHILD).is_some()
}

/// Run `test` (a test of this file, by name) in a process of its own
/// with [`CHILD`] set, and return how it ended. A child still running
/// after a minute is killed and fails the caller: a hang is a verdict.
fn child(test: &str) -> Output {
    let mut child = Command::new(std::env::current_exe().expect("the test binary's own path"))
        .args([test, "--exact", "--test-threads=1", "--nocapture"])
        .env(CHILD, "1")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the child test process");
    let t0 = Instant::now();
    while child.try_wait().expect("poll the child").is_none() {
        if t0.elapsed() > Duration::from_secs(60) {
            child.kill().expect("kill the hung child");
            panic!("{test}: the child hung");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect the child")
}

fn mux(nprocs: usize) -> MachineBuilder {
    Spmd::builder().nprocs(nprocs).cost(CostModel::free()).backend(ExecBackend::Multiplexed)
}

#[inline(never)]
fn recurse(depth: u64) -> u64 {
    let pad = black_box([depth; 64]);
    if black_box(depth) == u64::MAX {
        return 0;
    }
    recurse(depth + 1) + pad[7]
}

/// Die in `child`: a 2-rank machine whose rank 1 recurses without bound,
/// after `warm_ups` machines of 2 have pooled their stacks for it.
fn overflow_after(warm_ups: usize, test: &str) {
    if in_child() {
        for _ in 0..warm_ups {
            mux(2).run::<u64, _, _>(|_| 0);
        }
        mux(2).run::<u64, _, _>(|node| if node.rank() == 1 { recurse(0) } else { 0 });
        return;
    }
    let out = child(test);
    let signal = out.status.signal();
    assert!(
        matches!(signal, Some(11 | 7)),
        "unbounded recursion on a fiber must die by SIGSEGV (or SIGBUS), not {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fiber_overflow_dies_on_the_guard_page() {
    overflow_after(0, "fiber_overflow_dies_on_the_guard_page");
}

#[test]
fn fiber_overflow_on_a_reused_stack_dies_on_the_guard_page() {
    overflow_after(1, "fiber_overflow_on_a_reused_stack_dies_on_the_guard_page");
}

/// Suspends its fiber when dropped — what no `Drop` may do.
struct ParkOnDrop<'a>(&'a Node<u64>);

impl Drop for ParkOnDrop<'_> {
    fn drop(&mut self) {
        self.0.poll_until("a wake-up, from inside an unwind", |_, _| {}, || false);
    }
}

#[test]
fn fiber_suspend_while_unwinding_aborts() {
    if in_child() {
        mux(2).run::<u64, _, _>(|node| {
            let _parks = ParkOnDrop(node);
            panic!("the first panic");
        });
        return;
    }
    let out = child("fiber_suspend_while_unwinding_aborts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.signal(), Some(6), "expected SIGABRT, got {:?}:\n{stderr}", out.status);
    assert!(stderr.contains("a fiber must not suspend while it unwinds"), "{stderr}");
}

#[cfg(target_os = "linux")]
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmSize:")).expect("a VmSize line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmSize in kiB")
}

/// Minor page faults this process has taken: field 10 of `/proc/self/stat`.
#[cfg(target_os = "linux")]
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 is the command in parentheses, which may hold spaces.
    let rest = &stat[stat.rfind(')').expect("a (comm) field") + 1..];
    rest.split_whitespace().nth(7).and_then(|f| f.parse().ok()).expect("minflt, field 10")
}

/// `n` ranks pass a token round the ring twice. Returns the address
/// space the process held as rank 0 started, every stack mapped.
#[cfg(target_os = "linux")]
fn ring_twice(n: usize) -> u64 {
    let r = mux(n).run::<u64, _, _>(|node| {
        let me = node.rank();
        let held = std::cell::Cell::new(0u64);
        let vm_size = if me == 0 { vm_size_kib() } else { 0 };
        if me == 0 {
            node.send(1, 1);
        }
        for _lap in 0..2 {
            node.poll_until("the token", |_, env| held.set(env.msg), || held.get() != 0);
            if held.get() < 2 * n as u64 {
                node.send((me + 1) % n, held.get() + 1);
            }
            held.set(0);
        }
        vm_size
    });
    r.results[0]
}

#[cfg(target_os = "linux")]
#[test]
fn fiber_stacks_are_reused_then_released() {
    if !in_child() {
        let out = child("fiber_stacks_are_reused_then_released");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        return;
    }
    const N: usize = 4096;
    const SLACK_KIB: u64 = 4 * 1024;
    const STACK_KIB: u64 = (4096 + (1 << 20)) / 1024;
    let on_a_thread = |rings: usize| {
        let rings = move || {
            for _ in 0..rings {
                ring_twice(N);
            }
        };
        std::thread::spawn(rings).join().expect("the rings' thread");
    };
    // A thread's allocator arena outlives it, free for the next thread to
    // take: the baseline is read with one in place, at its working size.
    on_a_thread(1);
    let start = vm_size_kib();
    // A thread's stacks go when it does, whatever machines it ran.
    on_a_thread(2);
    let joined = vm_size_kib();
    assert!(
        joined.abs_diff(start) < SLACK_KIB,
        "VmSize {start} -> {joined} kiB across a joined thread"
    );
    // The second machine runs on the first one's stacks: nothing is
    // mapped again, and nothing is left behind.
    ring_twice(N);
    let before = vm_size_kib();
    let during = ring_twice(N);
    let after = vm_size_kib();
    assert!(before > start + N as u64 * 1024, "premise: {N} one-MiB stacks stay pooled");
    assert!(
        during.abs_diff(before) < SLACK_KIB && after.abs_diff(before) < SLACK_KIB,
        "VmSize {before} -> {during} -> {after} kiB"
    );
    // A smaller machine keeps only its own stacks.
    mux(1).run::<u64, _, _>(|_| 0);
    let trimmed = vm_size_kib();
    assert!(trimmed < start + SLACK_KIB + STACK_KIB, "VmSize {start} -> {trimmed} kiB");
}

#[cfg(target_os = "linux")]
#[test]
fn fiber_stacks_of_a_warm_machine_take_no_page_faults() {
    if !in_child() {
        let out = child("fiber_stacks_of_a_warm_machine_take_no_page_faults");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        return;
    }
    const N: usize = 256;
    ring_twice(N);
    let before = minor_faults();
    ring_twice(N);
    let faults = minor_faults() - before;
    // A stack mapped afresh faults in at least its top page: N of them.
    assert!(faults <= 16, "a warm {N}-rank machine took {faults} minor faults");
}
