//! The node drains its mailbox in bursts into a local inbox. Per-pair
//! FIFO must survive that: the mailbox delivers in send order per source
//! and the inbox is a queue.

use std::cell::RefCell;

use ace_machine::{CostModel, Spmd};

#[test]
fn per_pair_fifo_holds_under_batching() {
    // Several senders racing at the same receiver: cross-pair interleaving
    // is free to vary, but each pair's stream must arrive in send order
    // even when the drain pulls many messages per burst.
    const N: usize = 4;
    const PER: u64 = 300;
    let r = Spmd::builder().nprocs(N).cost(CostModel::free()).run::<u64, _, _>(|node| {
        if node.rank() == 0 {
            let seqs = RefCell::new(vec![Vec::new(); N]);
            node.poll_until(
                "all streams",
                |_, env| seqs.borrow_mut()[env.src].push(env.msg),
                || seqs.borrow().iter().skip(1).all(|s| s.len() == PER as usize),
            );
            seqs.into_inner()
        } else {
            for i in 0..PER {
                node.send(0, i);
            }
            Vec::new()
        }
    });
    for (src, seq) in r.results[0].iter().enumerate().skip(1) {
        assert_eq!(seq, &(0..PER).collect::<Vec<_>>(), "stream from node {src} reordered");
    }
}
