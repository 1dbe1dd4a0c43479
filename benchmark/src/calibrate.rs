//! Host-interference calibration for the two host-time metrics.
//!
//! The reference box is a small VM on a shared host. For minutes at a time
//! other tenants slow everything that touches memory or switches threads, by
//! up to 40 %; an ALU loop does not notice (+0.7 %), so it is cache and memory
//! contention, not CPU speed. Raw host time then says more about the
//! neighbours than about the code: two sweeps of the same commit put
//! `em3d_wide.wall_ms` 25 % apart, the whole of the largest bound the driver
//! allows.
//!
//! What tracks the interference is a kernel with the simulator's own habits:
//! [`THREADS`] threads in a ring, each hop a channel wake-up, a context switch
//! and a few strided touches of the thread's private buffer. Probe on the
//! reference box, medians over 20-second windows, quiet window against the
//! noisiest one:
//!
//! | | quiet | noisy | |
//! |---|---|---|---|
//! | `em3d_update` rep | 40.3 ms | 57.2 ms | +42 % |
//! | `em3d_wide` rep | 547 ms | 728 ms | +33 % |
//! | ring kernel | 8.3 ms | 11.3 ms | +36 % |
//! | rep / kernel, `em3d_update` | 4.85 | 5.06 | +4 % |
//! | rep / kernel, `em3d_wide` | 66.7 | 63.8 | −4 % |
//!
//! So `wall_ms` and `setup_s` are reported in *reference milliseconds*: each
//! sample is scaled by [`REFERENCE_MS`] over the kernel's time measured just
//! before and just after it. The kernel is benchmark-owned and uses only the
//! standard library, so no change to the repository can move it.
//!
//! The kernel runs in a child process (`ace-benchmark calibrate`) so that its
//! threads and buffers are not in the measured process's scheduler queue or
//! peak memory.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Ring size: enough threads that their stacks, buffers and kernel-side state
/// spill out of the private caches, as the simulator's node threads do.
const THREADS: usize = 64;
/// Private buffer per ring thread, touched [`TOUCHES`] times per hop.
const BUFFER_BYTES: usize = 256 * 1024;
const TOUCHES: usize = 16;
/// Laps of the ring per measurement.
const LAPS: usize = 40;
/// A measurement younger than this is reused: short reps need not pay for a
/// fresh one each.
const FRESH_FOR: Duration = Duration::from_millis(50);

/// What one measurement takes on the reference box when nothing interferes.
/// Only a scale: it makes a normalised time read as milliseconds.
pub const REFERENCE_MS: f64 = 8.3;

/// The ring itself; lives in the `calibrate` child.
struct Ring {
    first: mpsc::Sender<u32>,
    back: mpsc::Receiver<u32>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Ring {
    fn new() -> Ring {
        let (back_tx, back) = mpsc::channel();
        // Built back to front: each thread forwards to the one made before it.
        let mut next = back_tx;
        let mut threads = Vec::with_capacity(THREADS);
        for _ in 0..THREADS {
            let (tx, rx) = mpsc::channel::<u32>();
            let forward = std::mem::replace(&mut next, tx);
            let spawned = std::thread::Builder::new().stack_size(256 * 1024).spawn(move || {
                let mut buffer = vec![1u8; BUFFER_BYTES];
                let mut at = 0;
                while let Ok(token) = rx.recv() {
                    for _ in 0..TOUCHES {
                        at = (at + 4099) % buffer.len();
                        buffer[at] = buffer[at].wrapping_add(token as u8);
                    }
                    if forward.send(token).is_err() {
                        break;
                    }
                }
                std::hint::black_box(&buffer);
            });
            threads.push(spawned.expect("spawn a calibration thread"));
        }
        Ring { first: next, back, threads }
    }

    /// Milliseconds for [`LAPS`] laps of the token round the ring.
    fn measure(&self) -> f64 {
        let started = Instant::now();
        for lap in 0..LAPS as u32 {
            self.first.send(lap).expect("the ring is alive");
            std::hint::black_box(self.back.recv().expect("the ring is alive"));
        }
        started.elapsed().as_secs_f64() * 1e3
    }

    fn shut_down(self) {
        drop(self.first);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// `calibrate`: serve measurements — one line out per line in — until the
/// parent closes the pipe.
pub fn serve() -> Result<(), String> {
    let ring = Ring::new();
    ring.measure(); // first touch of every stack and buffer
    let (stdin, mut stdout) = (std::io::stdin(), std::io::stdout());
    for line in stdin.lock().lines() {
        line.map_err(|e| format!("calibrate: cannot read the request: {e}"))?;
        writeln!(stdout, "{}", ring.measure())
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("calibrate: cannot answer: {e}"))?;
    }
    ring.shut_down();
    Ok(())
}

/// The measuring process's handle on its `calibrate` child. Dropping it
/// closes the pipe, which ends the child, and waits for it.
pub struct Calibrator {
    child: Child,
    answers: BufReader<ChildStdout>,
    last: Option<(Instant, f64)>,
    /// Every measurement taken, for the run's report.
    pub taken: Vec<f64>,
}

impl Calibrator {
    pub fn start() -> Result<Calibrator, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("calibrate")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the calibration process: {e}"))?;
        let answers = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Calibrator { child, answers, last: None, taken: Vec::new() })
    }

    /// The kernel's time now, in milliseconds (a measurement at most
    /// [`FRESH_FOR`] old counts as now).
    pub fn now_ms(&mut self) -> Result<f64, String> {
        if let Some((at, ms)) = self.last {
            if at.elapsed() < FRESH_FOR {
                return Ok(ms);
            }
        }
        let requests = self.child.stdin.as_mut().expect("stdin was piped");
        let mut line = String::new();
        writeln!(requests)
            .and_then(|()| requests.flush())
            .and_then(|()| self.answers.read_line(&mut line))
            .map_err(|e| format!("the calibration process went away: {e}"))?;
        let ms: f64 =
            line.trim().parse().map_err(|_| format!("calibration answered \"{}\"", line.trim()))?;
        self.last = Some((Instant::now(), ms));
        self.taken.push(ms);
        Ok(ms)
    }

    /// Run `f`, and return its result with the factor that turns host time
    /// spent inside it into reference time: [`REFERENCE_MS`] over the mean of
    /// the kernel's time just before and just after.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> Result<(T, f64), String> {
        let before = self.now_ms()?;
        let out = f();
        let after = self.now_ms()?;
        Ok((out, REFERENCE_MS / ((before + after) / 2.0)))
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // `wait` closes the child's stdin first; the child then leaves its
        // request loop and exits. Nothing useful can be done with an error.
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_token_visits_every_thread_and_the_ring_shuts_down() {
        let ring = Ring::new();
        assert_eq!(ring.threads.len(), THREADS);
        assert!(ring.measure() > 0.0);
        ring.shut_down(); // would hang if a thread did not see the hang-up
    }
}
