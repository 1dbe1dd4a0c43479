//! Pin the process to one CPU.
//!
//! The simulator hands control from node thread to node thread at every
//! message hop. On the 2-vCPU reference VM a hand-off that crosses CPUs costs
//! a wake-up IPI through the hypervisor, and that cost is bimodal: the same
//! `em3d_sc` rep takes 0.28 s for about a second after an idle spell and
//! 0.62 s from then on (30 consecutive runs: 0.28 0.27 0.28 0.27 0.48 0.60
//! 0.59 0.65 ...), a 2x swing no code change causes. Confined to one CPU
//! every hand-off is a local context switch and the same rep takes
//! 0.27 +/- 0.02 s run after run. So every measuring process pins itself
//! before it starts a thread; threads and child processes inherit the mask.
//! `wall_ms` is therefore single-core host time: a change whose gain is host
//! parallelism will not show in it.

/// Confine this process to the highest-numbered CPU it may run on (interrupts
/// tend to land on the lowest). Returns that CPU, or `None` where the
/// platform has no such call or refuses it; the run then proceeds unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the
    // `cpusetsize` bytes passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the `cpusetsize` bytes
    // passed, and the call only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
