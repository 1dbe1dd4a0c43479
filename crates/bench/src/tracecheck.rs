//! `ace-bench tracecheck`, the CI gate for the trace layer: run one
//! traced Figure 7b cell (EM3D under its custom protocol), export Chrome
//! `trace_event` JSON, and validate it — schema-parses, virtual time is
//! monotone per track, and the message flow arrows match the machine's
//! send statistics. `--validate FILE...` instead holds already-written
//! trace files to the schema. Any violation fails the process.

use ace_apps::Variant;
use ace_core::validate_chrome_trace;

use crate::args::Args;
use crate::cell::{measure, Cell, Input, Tweak, What};

/// `ace-bench tracecheck`.
pub fn tracecheck(a: &Args) -> Result<(), String> {
    if a.has("--validate") {
        return a.each_file(|_, doc| match validate_chrome_trace(doc)?.events {
            0 => Err("no trace events".to_string()),
            events => Ok(format!("{events} events ok\n")),
        });
    }
    let (procs, what) = (a.procs(4)?, What::Ace(Variant::Custom));
    let (input, tweak) = (Input::Small, Tweak::Traced);
    let out = measure(&Cell { app: "em3d", config: "custom", what, input, procs, tweak }).out;
    let trace = out.trace.as_ref().expect("traced run carries a trace");
    let doc = trace.to_chrome_json();
    if let Some(path) = a.value("--out") {
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {} bytes to {path}", doc.len());
    }
    let check = validate_chrome_trace(&doc)?;
    println!(
        "trace ok: {} events across {} tracks, {} flow arrows",
        check.events, check.tracks, check.flows_matched
    );
    // The validator already rejects a dangling flow end outright; the
    // flow lines pin the exported counts too.
    let equal = [
        (check.tracks, procs as u64, "one track per node"),
        (trace.send_count(), out.wire_msgs, "one trace Send event per wire envelope"),
        (trace.logical_send_count(), out.msgs, "sub-message counts cover every logical send"),
        (check.flow_starts, out.wire_msgs, "one flow arrow start per wire envelope"),
        (check.flow_starts, check.flows_matched, "every flow start pairs with a flow finish"),
        (check.flow_ends, check.flows_matched, "no dangling flow end survives export"),
        (trace.nodes.iter().map(|n| n.dropped).sum(), 0, "no dropped events (ring too small)"),
    ];
    for (got, want, what) in equal {
        if got != want {
            return Err(format!("{what}: {got} != {want}"));
        }
    }
    if out.wire_msgs > out.msgs {
        return Err("coalescing can only merge envelopes".to_string());
    }
    if !trace.nodes.iter().all(|n| n.events.windows(2).all(|w| w[0].t <= w[1].t)) {
        return Err("a node's events are not virtual-time monotone".to_string());
    }
    println!(
        "tracecheck passed: {} logical messages in {} wire envelopes, {} procs",
        out.msgs, out.wire_msgs, procs
    );
    Ok(())
}
