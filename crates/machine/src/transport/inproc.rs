//! The in-process backend: a shared table of mailboxes as the network.
//!
//! One [`Mailbox`] per destination rank in one shared read-only table (so
//! an `n`-node machine clones one `Arc` per node, not `n` senders), and
//! the machine-wide `FailBoard` for fail-fast peer-death detection. A
//! send is a push into the destination's mailbox, which also wakes the
//! destination if it is parked there. All latency and bandwidth semantics
//! live above this layer in the cost model; delivery itself is
//! instantaneous.

use std::sync::Arc;

use crate::envelope::Wire;
use crate::transport::{FailBoard, Mailbox, Transport};

/// One rank's endpoint on the in-process mesh: its rank, the shared
/// mailbox table, and the shared failure board.
pub struct InProcTransport<M> {
    rank: usize,
    boxes: Arc<Vec<Mailbox<M>>>,
    board: Arc<FailBoard>,
}

impl<M: Send + 'static> InProcTransport<M> {
    /// Build the full machine's endpoints at once: `nprocs` mailboxes in
    /// one shared table, one shared failure board that pokes all of them
    /// when a rank dies. Endpoint `i` is moved into rank `i`'s thread.
    pub(crate) fn mesh(nprocs: usize, board: &Arc<FailBoard>) -> Vec<InProcTransport<M>> {
        let boxes: Arc<Vec<Mailbox<M>>> = Arc::new((0..nprocs).map(|_| Mailbox::new()).collect());
        let all = Arc::clone(&boxes);
        board.on_failure(move || all.iter().for_each(Mailbox::poke));
        (0..nprocs)
            .map(|rank| InProcTransport {
                rank,
                boxes: Arc::clone(&boxes),
                board: Arc::clone(board),
            })
            .collect()
    }
}

impl<M> Transport<M> for InProcTransport<M> {
    fn send_wire(&self, dst: usize, wire: Wire<M>) {
        // A mailbox outlives its rank's thread (the table is shared), so
        // an envelope for a rank that already exited is simply never
        // read — the SPMD program violated its quiescence contract, and
        // losing the message is the faithful outcome (the wire goes dead).
        self.boxes[dst].push(wire);
    }

    fn mailbox(&self) -> &Mailbox<M> {
        &self.boxes[self.rank]
    }

    fn failed_rank(&self) -> isize {
        self.board.failed_rank()
    }

    fn failure_detail(&self) -> String {
        self.board.detail()
    }

    fn signal_failure(&self, rank: usize, msg: &str) {
        self.board.record(rank, msg.to_string());
    }

    fn shutdown(&self) {
        // Nothing to close in-process: the mailbox table is freed when
        // the last endpoint (and the board's wake-up hook) drops it.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::tests::one_part as env;
    use crate::envelope::Parts;
    use crate::sched::Parker;
    use crate::transport::WaitWireError;
    use std::time::{Duration, Instant};

    #[test]
    fn mesh_routes_per_pair_fifo() {
        let board = Arc::new(FailBoard::new());
        let eps = InProcTransport::<u64>::mesh(2, &board);
        eps[0].send_wire(1, env(0, 1));
        eps[0].send_wire(1, env(0, 2));
        eps[0].send_wire(0, env(0, 3)); // self-send loops back
        for (ep, want) in [(&eps[1], 1), (&eps[1], 2), (&eps[0], 3)] {
            let e = ep.mailbox().try_pop().expect("delivered");
            assert_eq!(e.msg, Parts::One(want, 8));
        }
        assert!(eps[1].mailbox().try_pop().is_none());
    }

    #[test]
    fn dead_wire_reported_after_a_peer_fails() {
        // Every endpoint holds the shared mailbox table, so a live mesh
        // never disconnects from the inside — in-process peer death
        // travels through the failure board instead. Pin the mapping: a
        // rank parked on its mailbox when a peer records a failure wakes
        // with `Dead`, and one that blocks afterwards never parks at all.
        let board = Arc::new(FailBoard::new());
        let mut eps = InProcTransport::<u64>::mesh(2, &board);
        let ep1 = eps.pop().unwrap();
        let far = Instant::now() + Duration::from_secs(30);
        let waiter = std::thread::spawn(move || {
            let parker = Parker::thread();
            let first = ep1.mailbox().park(&parker, far, || ep1.failed_rank() >= 0);
            let second = ep1.mailbox().park(&parker, far, || ep1.failed_rank() >= 0);
            (first.err(), second.err(), parker.park_counts())
        });
        // Whichever side of the park the failure lands on, the waiter
        // must come back promptly with `Dead` (the 30 s deadline would
        // fail the test by hanging it).
        eps[0].signal_failure(0, "boom");
        let (first, second, (parks, timeouts)) = waiter.join().unwrap();
        assert_eq!(first, Some(WaitWireError::Dead));
        assert_eq!(second, Some(WaitWireError::Dead));
        assert!(parks <= 1, "only the first wait may have parked");
        assert_eq!(timeouts, 0);
    }

    #[test]
    fn failure_board_is_shared_across_endpoints() {
        let board = Arc::new(FailBoard::new());
        let eps = InProcTransport::<u64>::mesh(3, &board);
        assert_eq!(eps[2].failed_rank(), -1);
        eps[0].signal_failure(0, "boom");
        assert_eq!(eps[2].failed_rank(), 0);
        assert_eq!(eps[1].failure_detail(), "boom");
    }
}
