//! Mechanisms the home-based protocols share.
//!
//! Each is the same code in every protocol that uses it, up to an opcode,
//! a wait label and a state constant — which are the parameters here.
//! Nothing in this module branches on its caller: where two protocols
//! differ in more than that (who counts the miss, what a join records
//! afterwards), the difference stays at the call site.

use std::sync::Arc;

use ace_core::{AceRt, RegionEntry};

use crate::auxbits::{self, FLUSH_WAIT, WANTED};
use crate::states::R_INVALID;

/// Remote side of a miss: send `req` home and block until the reply moves
/// the entry from `waiting` to `granted`. `WANTED` covers the window in
/// which a grant and the yank that chases it can land in one poll batch
/// (see [`auxbits::WANTED`]); protocols that never yank ignore it.
pub(crate) fn fetch_copy(
    rt: &AceRt,
    e: &RegionEntry,
    req: u16,
    waiting: u32,
    granted: u32,
    what: &str,
) {
    auxbits::set(e, WANTED);
    e.st.set(waiting);
    rt.send_proto(e.id.home(), e.id, req, 0, None);
    rt.wait(what, || e.st.get() == granted);
    auxbits::clear(e, WANTED);
}

/// Remote side of `flush`: drop the copy, tell home with `op` — carrying
/// `data` when this node held the only valid copy — and block until home's
/// acknowledgement clears `FLUSH_WAIT` (every protocol's ack handler is
/// `auxbits::clear(e, FLUSH_WAIT)`).
pub(crate) fn leave_home(
    rt: &AceRt,
    e: &RegionEntry,
    op: u16,
    data: Option<Arc<[u64]>>,
    what: &str,
) {
    auxbits::set(e, FLUSH_WAIT);
    e.st.set(R_INVALID);
    rt.send_proto(e.id.home(), e.id, op, 0, data);
    rt.wait(what, || !auxbits::has(e, FLUSH_WAIT));
}

/// Drop this node's cached copy of `e`, and the twin diffed against it,
/// without telling anyone: for protocols that keep no directory.
pub(crate) fn drop_copy(e: &RegionEntry) {
    e.st.set(R_INVALID);
    if let Some(c) = e.cold() {
        c.twin.take();
    }
}
