//! The transport backend must be invisible to the program. Whether wire
//! envelopes move through in-process mailboxes (`TransportKind::InProc`)
//! or are framed by the codec and carried over real loopback sockets
//! between the node threads (`TransportKind::socket_loopback()`), the
//! machine executes the same logical computation: the substrate only
//! changes *how* an envelope travels, never what it says. So the same
//! workload on both transports has to agree on every logical observable —
//! the verification value, the per-node digest of every home region, the
//! logical message counts (total and per protocol tag), the annotation
//! counters, and the conformance checker's verdict.
//!
//! Two observables are deliberately excluded:
//!
//! * **wire-envelope grouping** — how many protocol replies coalesce
//!   between two blocking points depends on arrival timing, which the
//!   socket path perturbs at least as much as OS scheduling does; the
//!   wire count is only bounded by the logical count.
//! * **byte accounting** — the socket transport charges its own framing
//!   header ([`SOCKET_HEADER_BYTES`] = 38 bytes) where the in-process
//!   backend charges the simulated CM-5 header (20 bytes), so byte
//!   totals and the virtual clocks they feed legitimately differ. That
//!   is a *cost model* difference, not a behavioral one, and nothing
//!   logical may depend on it.

use ace_apps::runner::{observe, Axis, Observed};
use ace_apps::{em3d, water, AceDsm, Variant};
use ace_core::{CheckMode, CostModel, Spmd, TraceConfig, TransportKind};

/// A traced, checked run of `f` over `transport`.
fn run_app<F>(transport: TransportKind, nprocs: usize, f: F) -> Observed
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    let builder = Spmd::builder()
        .nprocs(nprocs)
        .cost(CostModel::cm5())
        .trace(TraceConfig::on())
        .check(CheckMode::Log)
        .transport(transport);
    observe(builder, |_| {}, f)
}

#[test]
fn em3d_transports_agree() {
    let p = em3d::Params {
        e_nodes: 64,
        h_nodes: 64,
        degree: 3,
        pct_remote: 25,
        steps: 2,
        seed: 11,
        hoist_maps: false,
    };
    for variant in [Variant::Sc, Variant::Custom] {
        let ip = run_app(TransportKind::InProc, 8, |d| em3d::run(d, &p, variant));
        let sk = run_app(TransportKind::socket_loopback(), 8, |d| em3d::run(d, &p, variant));
        ip.assert_equivalent(&sk, Axis::Transport, "em3d");
    }
}

#[test]
fn water_transports_agree() {
    let p = water::Params { molecules: 32, steps: 2, seed: 5 };
    for variant in [Variant::Sc, Variant::Custom] {
        let ip = run_app(TransportKind::InProc, 8, |d| water::run(d, &p, variant));
        let sk = run_app(TransportKind::socket_loopback(), 8, |d| water::run(d, &p, variant));
        ip.assert_equivalent(&sk, Axis::Transport, "water");
    }
}

#[test]
fn em3d_transports_agree_at_16_ranks() {
    // The upper end of the ISSUE's equivalence bar: 16 ranks means a
    // 120-connection full mesh over loopback, with the checker's vector
    // clocks riding every envelope through the codec.
    let p = em3d::Params {
        e_nodes: 64,
        h_nodes: 64,
        degree: 2,
        pct_remote: 20,
        steps: 1,
        seed: 3,
        hoist_maps: true,
    };
    let ip = run_app(TransportKind::InProc, 16, |d| em3d::run(d, &p, Variant::Custom));
    let sk = run_app(TransportKind::socket_loopback(), 16, |d| em3d::run(d, &p, Variant::Custom));
    ip.assert_equivalent(&sk, Axis::Transport, "em3d @ 16");
}
