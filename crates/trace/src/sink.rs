//! The per-node event sink: a preallocated ring buffer.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use crate::timeline::NodeTrace;
use crate::{EventKind, TraceConfig, TraceEvent};

/// A node-local event ring. Owned by exactly one simulated processor, so
/// interior mutability is `Cell`/`RefCell` — never shared across threads.
///
/// When tracing is disabled the sink holds no buffer at all and
/// [`TraceSink::emit`] is a single predictable branch; hot paths guard
/// any event-construction work behind [`TraceSink::enabled`] so the
/// disabled cost is exactly that branch.
pub struct TraceSink {
    enabled: bool,
    capacity: usize,
    events: RefCell<VecDeque<TraceEvent>>,
    dropped: Cell<u64>,
}

impl TraceSink {
    /// Build a sink from a configuration, preallocating the ring.
    pub fn new(cfg: &TraceConfig) -> Self {
        TraceSink {
            enabled: cfg.enabled,
            capacity: cfg.capacity,
            events: RefCell::new(if cfg.enabled {
                VecDeque::with_capacity(cfg.capacity)
            } else {
                VecDeque::new()
            }),
            dropped: Cell::new(0),
        }
    }

    /// A permanently-disabled sink.
    pub fn disabled() -> Self {
        Self::new(&TraceConfig::off())
    }

    /// Whether events are being recorded. Instrumentation points check
    /// this before building an [`EventKind`].
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one event at virtual time `t`. A full ring drops its oldest
    /// event (the tail of a run is the interesting part for diagnosis).
    #[inline]
    pub fn emit(&self, t: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let mut q = self.events.borrow_mut();
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        q.push_back(TraceEvent { t, kind });
    }

    /// Events dropped to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether no event has been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the buffer into a [`NodeTrace`] for merging. Called once per
    /// node when its program finishes.
    pub fn take(&self, rank: usize) -> NodeTrace {
        NodeTrace {
            rank,
            dropped: self.dropped.get(),
            events: self.events.borrow_mut().drain(..).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let s = TraceSink::disabled();
        assert!(!s.enabled());
        s.emit(5, EventKind::Block { what: "x".into() });
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let s = TraceSink::new(&TraceConfig::with_capacity(2));
        for t in 0..5u64 {
            s.emit(t, EventKind::Send { dst: 0, tag: "m", bytes: 8, subs: 1 });
        }
        assert_eq!(s.dropped(), 3);
        let nt = s.take(3);
        assert_eq!(nt.rank, 3);
        assert_eq!(nt.dropped, 3);
        assert_eq!(nt.events.iter().map(|e| e.t).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn take_drains() {
        let s = TraceSink::new(&TraceConfig::with_capacity(8));
        s.emit(1, EventKind::Block { what: "w".into() });
        assert_eq!(s.take(0).events.len(), 1);
        assert!(s.is_empty());
    }
}
