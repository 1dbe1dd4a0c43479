//! Which runs coalesce. A machine's policy is the one its builder names,
//! else its message type's (`MsgSize::COALESCE`): `Threshold(8)` for the
//! Ace runtime's messages, which `CrlRt` shares. So Ace and CRL runs
//! coalesce unless their builder says `.coalesce(CoalescePolicy::Off)`,
//! and then they do not.

use ace_apps::runner::{launch_ace_with, launch_crl, launch_crl_with};
use ace_apps::{tsp, Variant};
use ace_core::{CoalescePolicy, CostModel, Spmd};

/// TSP's fig7a CRL row sends fewer wire envelopes than logical messages;
/// a test-sized run must too.
#[test]
fn a_crl_run_coalesces() {
    let p = tsp::Params::small();
    let out = launch_crl(4, CostModel::cm5(), |d| tsp::run(d, &p, Variant::Sc));
    assert!(
        out.wire_msgs < out.msgs,
        "{} wire envelopes for {} logical messages: the CRL run did not coalesce",
        out.wire_msgs,
        out.msgs
    );
}

/// A builder's `Off` holds on both runtimes: every logical send is its own
/// wire envelope.
#[test]
fn a_run_built_uncoalesced_sends_one_envelope_per_message() {
    let p = tsp::Params::small();
    let off = || Spmd::builder().nprocs(4).cost(CostModel::cm5()).coalesce(CoalescePolicy::Off);
    let ace = launch_ace_with(off(), |d| tsp::run(d, &p, Variant::Sc));
    let crl = launch_crl_with(off(), |d| tsp::run(d, &p, Variant::Sc));
    for (name, out) in [("ace", ace), ("crl", crl)] {
        assert!(out.msgs > 0, "{name}: the run sent nothing");
        assert_eq!(out.wire_msgs, out.msgs, "{name}: a builder's Off was overridden");
    }
}
