//! CRL runs coalesce. `CrlRt` builds its runtime with `AceRt::new`, which
//! puts the node on `DEFAULT_COALESCE`, and `run_crl_with` leaves that
//! policy alone; only a machine that never builds a runtime, or a cell that
//! sets `CoalescePolicy::Off` itself, sends uncoalesced.

use ace_apps::runner::launch_crl;
use ace_apps::{tsp, Variant};
use ace_core::CostModel;

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
