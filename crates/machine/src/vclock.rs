//! The per-node vector clock behind the conformance checker, and its
//! sparse barrier-relative encoding.
//!
//! **Tick discipline.** A lane counts only the events the checker orders:
//! a node ticks its own lane when an access section opens or closes
//! ([`VClock::tick`]), and nowhere else. Sends and receives do not tick.
//! That loses nothing: section `a` happened before section `b` exactly
//! when `b`'s open clock has reached `a`'s close tick in `a`'s lane, and a
//! lane value travels only by being stamped on a message and max-merged by
//! the receiver — so "has reached" already means "a message chain leads
//! from after the close to before the open". Ticking at sends and
//! receives only renumbers the lane; it cannot add or remove such a chain.
//!
//! **Epochs.** A lane is `epoch << 32 | ticks`. On arriving at a barrier a
//! node jumps its own lane to the next epoch with zero ticks
//! ([`VClock::enter_barrier`]). Every arrival and release of the barrier
//! tree carries its sender's clock, so a node released from passage `p`
//! holds at least `p << 32` in every lane — and exactly that in the lane
//! of every rank it has heard nothing newer from. Those lanes are the
//! *default* for a clock whose own lane is in epoch `p`, and
//! [`VClock::push_sparse`] leaves them out. The encoding is lossless
//! whatever the lanes hold (a lane that differs from the default is
//! written, whichever side of it it lies on); the barrier discipline is
//! only what makes it short.

use std::sync::Arc;

/// Bits of a lane below the barrier epoch: ticks since the last passage.
const TICK_BITS: u32 = 32;

/// The value an unwritten lane of a sparse clock stands for: the start of
/// the epoch the clock's own lane is in.
fn default_lane(own: u64) -> u64 {
    own >> TICK_BITS << TICK_BITS
}

/// One node's vector clock: a lane per rank.
#[derive(Debug, Clone)]
pub struct VClock {
    rank: usize,
    /// Every lane, indexed by rank. The clock is its own stamp: outgoing
    /// envelopes share this allocation, and a change copies it only while
    /// one of them still holds it.
    lanes: Arc<[u64]>,
}

impl VClock {
    /// The zero clock of `rank` on an `nprocs`-node machine.
    pub fn new(rank: usize, nprocs: usize) -> Self {
        debug_assert!(rank < nprocs);
        VClock { rank, lanes: std::iter::repeat_n(0, nprocs).collect() }
    }

    /// Every lane, indexed by rank.
    pub fn lanes(&self) -> &[u64] {
        &self.lanes
    }

    /// Count one checker event (a section open or close) on the own lane
    /// and return the lane's new value.
    pub fn tick(&mut self) -> u64 {
        let own = &mut Arc::make_mut(&mut self.lanes)[self.rank];
        *own += 1;
        debug_assert!(*own != default_lane(*own), "2^32 section events inside one barrier epoch");
        *own
    }

    /// Arrive at a barrier: the own lane jumps to the next epoch, zero
    /// ticks. Greater than every value the lane has held, so the jump is
    /// one more (unrecorded) event on it.
    pub fn enter_barrier(&mut self) {
        let own = &mut Arc::make_mut(&mut self.lanes)[self.rank];
        debug_assert!(*own >> TICK_BITS < u64::from(u32::MAX), "2^32 barrier passages");
        *own = default_lane(*own) + (1 << TICK_BITS);
    }

    /// Merge a peer's stamp: lane-wise maximum. A merge that raises no
    /// lane leaves the clock, and every stamp sharing it, as it was.
    pub fn merge(&mut self, other: &[u64]) {
        debug_assert_eq!(other.len(), self.lanes.len());
        let Some(first) = self.lanes.iter().zip(other).position(|(mine, theirs)| theirs > mine)
        else {
            return;
        };
        let lanes = &mut Arc::make_mut(&mut self.lanes)[first..];
        for (mine, &theirs) in lanes.iter_mut().zip(&other[first..]) {
            *mine = (*mine).max(theirs);
        }
    }

    /// The dense snapshot an outgoing envelope carries: the clock itself,
    /// shared. Sending is not a clock event, so it allocates nothing.
    pub fn stamp(&self) -> Arc<[u64]> {
        Arc::clone(&self.lanes)
    }

    /// Append the other ranks' lanes as `(lane, value)` word pairs, in
    /// lane order, leaving out every lane at the default for the own
    /// lane's epoch. Read back with [`SparseClock`].
    pub fn push_sparse(&self, out: &mut Vec<u64>) {
        let (own, from) = (self.lanes[self.rank], out.len());
        for (lane, &value) in self.lanes.iter().enumerate() {
            if lane != self.rank && value != default_lane(own) {
                out.extend([lane as u64, value]);
            }
        }
        debug_assert_eq!(
            SparseClock { rank: self.rank, own, pairs: &out[from..] }.to_dense(self.lanes.len()),
            *self.lanes,
            "a sparse clock decodes to the dense one it was taken from"
        );
    }
}

/// A borrowed clock in the encoding of [`VClock::push_sparse`].
#[derive(Debug, Clone, Copy)]
pub struct SparseClock<'a> {
    /// The rank whose clock this is.
    pub rank: usize,
    /// Its own lane.
    pub own: u64,
    /// The `(lane, value)` pairs [`VClock::push_sparse`] wrote.
    pub pairs: &'a [u64],
}

impl SparseClock<'_> {
    /// The value of one lane.
    pub fn lane(&self, lane: usize) -> u64 {
        if lane == self.rank {
            return self.own;
        }
        self.pairs
            .chunks_exact(2)
            .find(|p| p[0] == lane as u64)
            .map_or(default_lane(self.own), |p| p[1])
    }

    /// The dense clock this one encodes.
    pub fn to_dense(&self, nprocs: usize) -> Vec<u64> {
        let mut lanes = vec![default_lane(self.own); nprocs];
        lanes[self.rank] = self.own;
        for p in self.pairs.chunks_exact(2) {
            lanes[p[0] as usize] = p[1];
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(c: &VClock) -> Vec<u64> {
        let mut out = Vec::new();
        c.push_sparse(&mut out);
        out
    }

    fn round_trip(c: &VClock) {
        let pairs = sparse(c);
        let s = SparseClock { rank: c.rank, own: c.lanes[c.rank], pairs: &pairs };
        assert_eq!(s.to_dense(c.lanes.len()), *c.lanes);
        for lane in 0..c.lanes.len() {
            assert_eq!(s.lane(lane), c.lanes[lane]);
        }
    }

    #[test]
    fn only_section_events_and_barriers_move_the_own_lane() {
        let mut a = VClock::new(0, 3);
        let mut b = VClock::new(1, 3);
        assert_eq!(a.tick(), 1);
        let s = a.stamp();
        b.merge(&s);
        assert_eq!(b.lanes(), [1, 0, 0], "a receive merges and does not tick");
        assert_eq!(a.lanes(), [1, 0, 0], "a send stamps and does not tick");
        a.enter_barrier();
        assert_eq!(a.lanes()[0], 1 << 32);
        a.tick();
        a.enter_barrier();
        assert_eq!(a.lanes()[0], 2 << 32);
    }

    #[test]
    fn stamp_is_shared_until_the_clock_changes() {
        let mut a = VClock::new(0, 2);
        let s1 = a.stamp();
        assert!(Arc::ptr_eq(&s1, &a.stamp()), "unchanged clock: one allocation");
        a.merge(&[0, 0]);
        assert!(Arc::ptr_eq(&s1, &a.stamp()), "a merge that raises nothing keeps it");
        a.merge(&[0, 5]);
        let s2 = a.stamp();
        assert_eq!(&*s2, &[0, 5]);
        a.tick();
        assert_eq!(&*a.stamp(), &[1, 5]);
    }

    #[test]
    fn a_stamp_keeps_its_lanes_when_the_clock_moves_on() {
        let mut a = VClock::new(1, 3);
        let before_tick = a.stamp();
        a.tick();
        let before_barrier = a.stamp();
        a.enter_barrier();
        let before_merge = a.stamp();
        a.merge(&[4, 0, 9]);
        assert_eq!(&*before_tick, &[0, 0, 0]);
        assert_eq!(&*before_barrier, &[0, 1, 0]);
        assert_eq!(&*before_merge, &[0, 1 << 32, 0]);
        assert_eq!(a.lanes(), [4, 1 << 32, 9]);
        let after = a.stamp();
        a.merge(&[4, 0, 9]);
        assert!(Arc::ptr_eq(&after, &a.stamp()), "a merge that raises nothing copies nothing");
    }

    #[test]
    fn lanes_at_the_epoch_default_are_left_out() {
        // After passage 1 every lane is 1 << 32; rank 2 then ticked and was
        // heard from, rank 3 is already one passage ahead.
        let e1 = 1u64 << 32;
        let mut c = VClock::new(0, 5);
        c.enter_barrier();
        c.merge(&[0, e1, e1 + 4, 2 * e1, e1]);
        c.tick();
        assert_eq!(sparse(&c), [2, e1 + 4, 3, 2 * e1]);
        round_trip(&c);
    }

    #[test]
    fn a_lane_behind_the_default_is_written_too() {
        // Between arriving at a barrier and being released the own lane is
        // an epoch ahead of what the node knows of its peers.
        let mut c = VClock::new(1, 3);
        c.merge(&[7, 0, 0]);
        c.enter_barrier();
        assert_eq!(sparse(&c), [0, 7, 2, 0]);
        round_trip(&c);
    }
}
