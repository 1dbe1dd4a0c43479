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

#[test]
fn fiber_overflow_dies_on_the_guard_page() {
    if in_child() {
        mux(2).run::<u64, _, _>(|node| if node.rank() == 1 { recurse(0) } else { 0 });
        return;
    }
    let out = child("fiber_overflow_dies_on_the_guard_page");
    let signal = out.status.signal();
    assert!(
        matches!(signal, Some(11 | 7)),
        "unbounded recursion on a fiber must die by SIGSEGV (or SIGBUS), not {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Blocks when dropped — what no `Drop` in the workspace may do.
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

/// 4096 ranks pass a token round the ring twice. Returns the address
/// space the process held as rank 0 started, every stack mapped.
#[cfg(target_os = "linux")]
fn ring_twice() -> u64 {
    const N: usize = 4096;
    let r = mux(N).run::<u64, _, _>(|node| {
        let me = node.rank();
        let held = std::cell::Cell::new(0u64);
        let vm_size = if me == 0 { vm_size_kib() } else { 0 };
        if me == 0 {
            node.send(1, 1);
        }
        for _lap in 0..2 {
            node.poll_until("the token", |_, env| held.set(env.msg), || held.get() != 0);
            if held.get() < 2 * N as u64 {
                node.send((me + 1) % N, held.get() + 1);
            }
            held.set(0);
        }
        vm_size
    });
    r.results[0]
}

#[cfg(target_os = "linux")]
#[test]
fn fiber_stacks_are_unmapped_when_the_machine_is_done() {
    if !in_child() {
        let out = child("fiber_stacks_are_unmapped_when_the_machine_is_done");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        return;
    }
    // The first machine grows the heap to its working size; the second
    // must leave the address space where it found it.
    ring_twice();
    let before = vm_size_kib();
    let during = ring_twice();
    let after = vm_size_kib();
    assert!(during > before + 4096 * 1024, "premise: 4096 one-MiB stacks were mapped");
    // A leaked guard page per fiber would be 16 MiB.
    assert!(after < before + 4 * 1024, "VmSize {before} -> {during} -> {after} kiB");
}
