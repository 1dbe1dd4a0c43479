//! Chrome `trace_event` JSON export and a small structural validator.
//!
//! The export targets the subset of the trace-event format that both
//! `chrome://tracing` and Perfetto load: one thread track per node
//! (`pid` 0, `tid` = rank), `B`/`E` duration slices for hooks and waits,
//! `i` instants for sends/recvs/state changes, and `s`/`f` flow pairs
//! drawing one arrow per message. Timestamps are virtual nanoseconds
//! rendered as fractional microseconds (the format's native unit).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::jsonlite::{self, escape, Json};
use crate::timeline::MachineTrace;
use crate::{EventKind, NO_REGION};

/// Virtual nanoseconds as the format's microsecond timestamps, exactly.
fn ts(t: u64) -> String {
    format!("{}.{:03}", t / 1000, t % 1000)
}

/// Render a region id for display: `r<home>.<seq>`, or `-` for
/// region-less events. (Raw u64 ids exceed JSON's exact-integer range.)
fn region_str(region: u64) -> String {
    if region == NO_REGION {
        "-".to_string()
    } else {
        format!("r{}.{}", region >> 48, region & ((1u64 << 48) - 1))
    }
}

impl MachineTrace {
    /// Export the merged trace as a Chrome `trace_event` JSON document.
    ///
    /// Message arrows are reconstructed at export time: each (src, dst)
    /// channel is FIFO, so recvs on a pair pair with sends in order. Ring
    /// eviction complicates this: the surviving Sends and Recvs of a pair
    /// are each a *suffix* of the pair's FIFO stream, and the suffixes
    /// need not start at the same message (a Send can be evicted while
    /// its matching Recv survives, or vice versa). The export therefore
    /// aligns each Recv against the surviving Send list by the sender
    /// timestamp the Recv carries (`sent_at`), skipping sends whose recvs
    /// were evicted and *suppressing* the flow-end of a recv whose send
    /// was evicted — a dangling `s` renders as nothing in viewers, but a
    /// dangling `f` draws an arrow from nowhere.
    pub fn to_chrome_json(&self) -> String {
        // Pass 1: surviving Send times per (src, dst), in emission order
        // (merged() preserves per-node order, so per-pair send order too).
        let mut pair_sends: HashMap<(u16, u16), Vec<u64>> = HashMap::new();
        for (rank, e) in self.merged() {
            if let EventKind::Send { dst, .. } = &e.kind {
                pair_sends.entry((rank as u16, *dst)).or_default().push(e.t);
            }
        }
        let mut out = String::with_capacity(64 * self.event_count() + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"ace simulated machine\"}}",
        );
        for n in &self.nodes {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"ts\":0,\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"node {}\"}}}}",
                n.rank, n.rank
            );
        }
        let mut send_k: HashMap<(usize, u16), u64> = HashMap::new();
        let mut recv_p: HashMap<(u16, u16), usize> = HashMap::new();
        for (rank, e) in self.merged() {
            let t = ts(e.t);
            match &e.kind {
                EventKind::Send { dst, tag, bytes, subs } => {
                    let k = send_k.entry((rank, *dst)).or_insert(0);
                    let id = (rank as u64) << 48 | (*dst as u64) << 32 | *k;
                    *k += 1;
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\"s\":\"t\",\
                         \"cat\":\"msg\",\"name\":\"send {tag}\",\
                         \"args\":{{\"dst\":{dst},\"bytes\":{bytes},\"subs\":{subs}}}}}"
                    );
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"s\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\
                         \"cat\":\"msg\",\"name\":\"{tag}\",\"id\":\"0x{id:016x}\"}}"
                    );
                }
                // Packing is a bookkeeping event: the flow arrow belongs
                // to the wire envelope, so the export draws nothing here.
                EventKind::Pack { .. } => {}
                EventKind::Recv { src, tag, bytes, sent_at, subs } => {
                    // Align against this pair's surviving sends: skip sends
                    // whose recvs were evicted, and draw the arrow only when
                    // this recv's sender timestamp matches a surviving send.
                    let pair = (*src, rank as u16);
                    let p = recv_p.entry(pair).or_insert(0);
                    if let Some(sends) = pair_sends.get(&pair) {
                        while *p < sends.len() && sends[*p] < *sent_at {
                            *p += 1;
                        }
                        if *p < sends.len() && sends[*p] == *sent_at {
                            let id = (*src as u64) << 48 | (rank as u64) << 32 | *p as u64;
                            *p += 1;
                            let _ = write!(
                                out,
                                ",\n{{\"ph\":\"f\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\
                                 \"bp\":\"e\",\"cat\":\"msg\",\"name\":\"{tag}\",\
                                 \"id\":\"0x{id:016x}\"}}"
                            );
                        }
                    }
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\"s\":\"t\",\
                         \"cat\":\"msg\",\"name\":\"recv {tag}\",\
                         \"args\":{{\"src\":{src},\"bytes\":{bytes},\"sent_at\":{sent_at},\
                         \"subs\":{subs}}}}}"
                    );
                }
                EventKind::HookEnter { hook, region, space, proto, detail }
                | EventKind::HookExit { hook, region, space, proto, detail } => {
                    let ph = if matches!(e.kind, EventKind::HookEnter { .. }) { "B" } else { "E" };
                    let label = if detail.is_empty() { hook.name() } else { detail };
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\
                         \"cat\":\"hook\",\"name\":\"{label}\",\
                         \"args\":{{\"region\":\"{}\",\"space\":{space},\"proto\":\"{proto}\"}}}}",
                        region_str(*region)
                    );
                }
                EventKind::State { region, from, to } => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\"s\":\"t\",\
                         \"cat\":\"state\",\"name\":\"state {} {from}->{to}\",\
                         \"args\":{{\"region\":\"{}\",\"from\":{from},\"to\":{to}}}}}",
                        region_str(*region),
                        region_str(*region)
                    );
                }
                EventKind::Switch { region, space, from, to, epoch } => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\"s\":\"t\",\
                         \"cat\":\"switch\",\"name\":\"switch {from}->{to}\",\
                         \"args\":{{\"region\":\"{}\",\"space\":{space},\"from\":\"{from}\",\
                         \"to\":\"{to}\",\"epoch\":{epoch}}}}}",
                        region_str(*region)
                    );
                }
                EventKind::Violation { region, what } => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\"s\":\"t\",\
                         \"cat\":\"violation\",\"name\":\"violation {}\",\
                         \"args\":{{\"region\":\"{}\",\"what\":\"{}\"}}}}",
                        region_str(*region),
                        region_str(*region),
                        escape(what)
                    );
                }
                EventKind::Block { what } => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"B\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\
                         \"cat\":\"wait\",\"name\":\"wait\",\"args\":{{\"what\":\"{}\"}}}}",
                        escape(what)
                    );
                }
                EventKind::Unblock { what } => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"E\",\"pid\":0,\"tid\":{rank},\"ts\":{t},\
                         \"cat\":\"wait\",\"name\":\"wait\",\"args\":{{\"what\":\"{}\"}}}}",
                        escape(what)
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What [`validate_chrome_trace`] measured about a structurally valid
/// trace document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeCheck {
    /// Non-metadata events.
    pub events: u64,
    /// Distinct (pid, tid) tracks seen on non-metadata events.
    pub tracks: u64,
    /// `B` slice-begin events.
    pub spans_opened: u64,
    /// `E` slice-end events.
    pub spans_closed: u64,
    /// `i` instant events.
    pub instants: u64,
    /// `s` flow-start events (one per traced message send).
    pub flow_starts: u64,
    /// `f` flow-end events (one per traced message recv whose matching
    /// send survived ring eviction).
    pub flow_ends: u64,
    /// Flow ids seen on both an `s` and an `f` event — rendered arrows.
    pub flows_matched: u64,
}

/// Structurally validate a Chrome `trace_event` JSON document.
///
/// Checks that the document parses, that `traceEvents` is an array of
/// objects each carrying `ph`/`pid`/`tid` (and a numeric `ts` on
/// non-metadata events), and that timestamps are monotone
/// non-decreasing per (pid, tid) track in array order. Returns counts
/// for the caller to cross-check against run statistics (e.g. flow
/// starts vs. messages sent).
pub fn validate_chrome_trace(doc: &str) -> Result<ChromeCheck, String> {
    let root = jsonlite::parse(doc)?;
    let events = match &root {
        Json::Arr(_) => &root,
        Json::Obj(_) => root.get("traceEvents").ok_or_else(|| "missing traceEvents".to_string())?,
        _ => return Err("top level must be an object or array".to_string()),
    };
    let events = events.as_arr().ok_or_else(|| "traceEvents must be an array".to_string())?;
    let mut check = ChromeCheck::default();
    let mut last_ts: HashMap<(i64, i64), f64> = HashMap::new();
    let mut starts: HashMap<String, u64> = HashMap::new();
    let mut ends: HashMap<String, u64> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph =
            e.get("ph").and_then(Json::as_str).ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid =
            e.get("pid").and_then(Json::as_f64).ok_or_else(|| format!("event {i}: missing pid"))?
                as i64;
        let tid =
            e.get("tid").and_then(Json::as_f64).ok_or_else(|| format!("event {i}: missing tid"))?
                as i64;
        if ph == "M" {
            continue;
        }
        let t =
            e.get("ts").and_then(Json::as_f64).ok_or_else(|| format!("event {i}: missing ts"))?;
        e.get("name").and_then(Json::as_str).ok_or_else(|| format!("event {i}: missing name"))?;
        let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        if t < *prev {
            return Err(format!(
                "event {i}: track ({pid},{tid}) time went backwards: {t} < {prev}"
            ));
        }
        *prev = t;
        check.events += 1;
        match ph {
            "B" => check.spans_opened += 1,
            "E" => check.spans_closed += 1,
            "i" | "I" => check.instants += 1,
            "s" | "f" => {
                let id = e
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: flow event missing id"))?;
                let bucket = if ph == "s" { &mut starts } else { &mut ends };
                *bucket.entry(id.to_string()).or_insert(0) += 1;
                if ph == "s" {
                    check.flow_starts += 1;
                } else {
                    check.flow_ends += 1;
                }
            }
            "X" | "C" | "b" | "e" | "n" | "t" => {}
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }
    check.tracks = last_ts.len() as u64;
    // A flow-start without a matching end renders as nothing, but a
    // flow-end without a start draws an arrow from nowhere: reject it.
    for (id, &n) in &ends {
        let s = starts.get(id).copied().unwrap_or(0);
        if n > s {
            return Err(format!(
                "dangling flow end: id {id} has {n} flow-ends but only {s} flow-starts"
            ));
        }
    }
    check.flows_matched =
        starts.iter().map(|(id, &n)| n.min(ends.get(id).copied().unwrap_or(0))).sum();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::NodeTrace;
    use crate::{EventKind as K, Hook, TraceEvent};

    fn ev(t: u64, kind: K) -> TraceEvent {
        TraceEvent { t, kind }
    }

    fn sample() -> MachineTrace {
        MachineTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    dropped: 0,
                    events: vec![
                        ev(
                            10,
                            K::HookEnter {
                                hook: Hook::StartRead,
                                region: (1u64 << 48) | 2,
                                space: 1,
                                proto: "sc",
                                detail: "",
                            },
                        ),
                        ev(20, K::Send { dst: 1, tag: "proto", bytes: 44, subs: 2 }),
                        ev(25, K::Block { what: "read data".into() }),
                        ev(90, K::Unblock { what: "read data".into() }),
                        ev(
                            95,
                            K::HookExit {
                                hook: Hook::StartRead,
                                region: (1u64 << 48) | 2,
                                space: 1,
                                proto: "sc",
                                detail: "",
                            },
                        ),
                    ],
                },
                NodeTrace {
                    rank: 1,
                    dropped: 0,
                    events: vec![
                        ev(60, K::Recv { src: 0, tag: "proto", bytes: 44, sent_at: 20, subs: 2 }),
                        ev(
                            61,
                            K::HookEnter {
                                hook: Hook::Handle,
                                region: (1u64 << 48) | 2,
                                space: 1,
                                proto: "sc",
                                detail: "RREQ",
                            },
                        ),
                        ev(62, K::State { region: (1u64 << 48) | 2, from: 0, to: 2 }),
                        ev(
                            70,
                            K::HookExit {
                                hook: Hook::Handle,
                                region: (1u64 << 48) | 2,
                                space: 1,
                                proto: "sc",
                                detail: "RREQ",
                            },
                        ),
                    ],
                },
            ],
        }
    }

    #[test]
    fn export_is_valid_and_flows_match() {
        let doc = sample().to_chrome_json();
        let check = validate_chrome_trace(&doc).unwrap();
        assert_eq!(check.tracks, 2);
        assert_eq!(check.flow_starts, 1);
        assert_eq!(check.flow_ends, 1);
        assert_eq!(check.flows_matched, 1);
        assert_eq!(check.spans_opened, 3, "start_read + wait + handle");
        assert_eq!(check.spans_closed, 3);
        assert!(doc.contains("\"name\":\"RREQ\"") || doc.contains("RREQ"));
    }

    #[test]
    fn evicted_send_suppresses_flow_end() {
        // Node 1's first recv carries sent_at=10, but the matching send was
        // evicted from node 0's ring (only the sends at t=20 and t=40
        // survive). The export must not emit a dangling `f` for it, while
        // still pairing the surviving sends with their recvs.
        let trace = MachineTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    dropped: 1,
                    events: vec![
                        ev(20, K::Send { dst: 1, tag: "proto", bytes: 24, subs: 1 }),
                        ev(40, K::Send { dst: 1, tag: "proto", bytes: 24, subs: 1 }),
                    ],
                },
                NodeTrace {
                    rank: 1,
                    dropped: 0,
                    events: vec![
                        ev(60, K::Recv { src: 0, tag: "proto", bytes: 24, sent_at: 10, subs: 1 }),
                        ev(70, K::Recv { src: 0, tag: "proto", bytes: 24, sent_at: 20, subs: 1 }),
                        ev(80, K::Recv { src: 0, tag: "proto", bytes: 24, sent_at: 40, subs: 1 }),
                    ],
                },
            ],
        };
        let check = validate_chrome_trace(&trace.to_chrome_json()).unwrap();
        assert_eq!(check.flow_starts, 2);
        assert_eq!(check.flow_ends, 2, "the orphaned recv draws no arrow");
        assert_eq!(check.flows_matched, 2);
        assert_eq!(check.instants, 5, "2 send + 3 recv instants: the orphan keeps its instant");
    }

    #[test]
    fn evicted_recv_skips_its_send() {
        // The recv matching node 0's first send was evicted from node 1's
        // ring; the surviving recv must pair with the *second* send, not
        // inherit the first one's flow id.
        let trace = MachineTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    dropped: 0,
                    events: vec![
                        ev(20, K::Send { dst: 1, tag: "proto", bytes: 24, subs: 1 }),
                        ev(40, K::Send { dst: 1, tag: "proto", bytes: 24, subs: 1 }),
                    ],
                },
                NodeTrace {
                    rank: 1,
                    dropped: 1,
                    events: vec![ev(
                        80,
                        K::Recv { src: 0, tag: "proto", bytes: 24, sent_at: 40, subs: 1 },
                    )],
                },
            ],
        };
        let doc = trace.to_chrome_json();
        let check = validate_chrome_trace(&doc).unwrap();
        assert_eq!(check.flow_starts, 2);
        assert_eq!(check.flow_ends, 1);
        assert_eq!(check.flows_matched, 1, "the surviving recv pairs with send #1");
    }

    #[test]
    fn violation_events_export_as_instants() {
        let trace = MachineTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                dropped: 0,
                events: vec![ev(
                    5,
                    K::Violation {
                        region: (1u64 << 48) | 2,
                        what: "conformance violation on r1.2".into(),
                    },
                )],
            }],
        };
        let doc = trace.to_chrome_json();
        let check = validate_chrome_trace(&doc).unwrap();
        assert_eq!(check.instants, 1);
        assert!(doc.contains("\"cat\":\"violation\""), "{doc}");
        assert!(doc.contains("conformance violation on r1.2"), "{doc}");
    }

    #[test]
    fn switch_events_export_as_instants() {
        let trace = MachineTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                dropped: 0,
                events: vec![ev(
                    7,
                    K::Switch {
                        region: crate::NO_REGION,
                        space: 2,
                        from: "SC",
                        to: "Pipelined",
                        epoch: 3,
                    },
                )],
            }],
        };
        let doc = trace.to_chrome_json();
        let check = validate_chrome_trace(&doc).unwrap();
        assert_eq!(check.instants, 1);
        assert!(doc.contains("\"cat\":\"switch\""), "{doc}");
        assert!(doc.contains("switch SC->Pipelined"), "{doc}");
        assert!(doc.contains("\"epoch\":3"), "{doc}");
    }

    #[test]
    fn validator_rejects_dangling_flow_end() {
        let doc = r#"{"traceEvents":[
            {"ph":"f","pid":0,"tid":0,"ts":5.0,"bp":"e","name":"m","id":"0x1"}
        ]}"#;
        let err = validate_chrome_trace(doc).unwrap_err();
        assert!(err.contains("dangling flow end"), "{err}");
    }

    #[test]
    fn validator_rejects_backwards_time() {
        let doc = r#"{"traceEvents":[
            {"ph":"i","pid":0,"tid":0,"ts":5.0,"s":"t","name":"a"},
            {"ph":"i","pid":0,"tid":0,"ts":4.0,"s":"t","name":"b"}
        ]}"#;
        let err = validate_chrome_trace(doc).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_fields() {
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"pid":0,"tid":0}]}"#).is_err());
        assert!(validate_chrome_trace(r#"{"notTraceEvents":[]}"#).is_err());
        assert!(validate_chrome_trace("[").is_err());
    }

    #[test]
    fn timestamps_render_as_fractional_micros() {
        assert_eq!(ts(0), "0.000");
        assert_eq!(ts(1500), "1.500");
        assert_eq!(ts(999), "0.999");
    }
}
