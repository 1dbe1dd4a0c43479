//! Wire messages of the Ace runtime.
//!
//! Bulk payloads travel as `Arc<[u64]>`: a fan-out of one payload to N
//! sharers is N refcount bumps, not N deep copies. The simulated network
//! still charges full payload bytes per message ([`MsgSize`] reports
//! `len * 8` exactly as it would for an owned buffer), so zero-copy is
//! purely a wall-clock optimization — simulated time, message counts, and
//! byte counts are unchanged.

use std::sync::Arc;

use ace_machine::transport::{put_words, CodecError, WireCodec, WireReader};
use ace_machine::{CoalescePolicy, MsgSize};

use crate::ids::{RegionId, SpaceId};

/// A protocol-level active message. The runtime routes it to the protocol
/// of the target region's space; the `op`/`arg` fields are interpreted by
/// the protocol alone, which is what lets new protocols define their own
/// wire protocols without touching the runtime (§2.4, extensibility).
#[derive(Debug)]
pub struct ProtoMsg {
    /// Target region.
    pub region: RegionId,
    /// Protocol-defined opcode.
    pub op: u16,
    /// The node on whose behalf this message was sent (for three-hop
    /// forwarding this differs from the envelope's `src`).
    pub from: u16,
    /// Protocol-defined scalar argument.
    pub arg: u64,
    /// Optional bulk payload (region data, deltas, ...), shared zero-copy
    /// with the sender; receivers that mutate must copy-on-write.
    pub data: Option<Arc<[u64]>>,
}

/// Everything that travels between Ace nodes.
#[derive(Debug)]
pub enum AceMsg {
    /// Protocol-defined message, dispatched through the region's space.
    Proto(ProtoMsg),
    /// First map of a region by a non-home node: ask home for metadata.
    MetaReq { region: RegionId },
    /// Home's answer: the region's space and size.
    MetaReply { region: RegionId, space: SpaceId, words: u64 },
    /// A whole subtree of the barrier's combining tree has arrived; sent
    /// to the subtree root's parent. `tag` distinguishes per-space barriers
    /// from the global machine barrier. `prof` is the subtree's summed
    /// sharing-profile contribution, if any (adaptive protocol engine):
    /// like the checker's vector clocks it is metrologically invisible —
    /// the barrier message still charges its fixed 12 bytes — because it
    /// models a few words folded into a packet the barrier sends anyway.
    BarArrive { tag: u32, epoch: u64, prof: Option<Arc<[u64]>> },
    /// Barrier release, fanned down the same tree from the root. `prof`
    /// carries the element-wise sum of every arrival's profile
    /// contribution when at least one node staged one (see
    /// [`AceMsg::BarArrive`]).
    BarRelease { tag: u32, epoch: u64, prof: Option<Arc<[u64]>> },
    /// Default region-lock request, queued FIFO at the region's home.
    LockReq { region: RegionId },
    /// Lock granted to the requester.
    LockGrant { region: RegionId },
    /// Lock released by the holder.
    LockRelease { region: RegionId },
    /// A sender's words for one collective: a broadcast root's payload
    /// (how the apps distribute root region ids after setup, like
    /// exchanging `address_t`s in the paper's apps), or one node's
    /// contribution to a gather at its root. `seq` numbers the collective.
    Collective { seq: u64, vals: Arc<[u64]> },
}

impl MsgSize for AceMsg {
    /// Threshold-8 bounds how long a logical message can linger in a
    /// buffer mid-phase (a full buffer goes out immediately) while still
    /// amortizing headers and latency across protocol fan-out; every
    /// blocking point flushes whatever is left.
    const COALESCE: CoalescePolicy = CoalescePolicy::Threshold(8);

    fn size_bytes(&self) -> usize {
        match self {
            AceMsg::Proto(p) => 12 + p.data.as_ref().map_or(0, |d| d.len() * 8),
            AceMsg::MetaReq { .. } => 8,
            AceMsg::MetaReply { .. } => 20,
            AceMsg::BarArrive { .. } | AceMsg::BarRelease { .. } => 12,
            AceMsg::LockReq { .. } | AceMsg::LockGrant { .. } | AceMsg::LockRelease { .. } => 8,
            AceMsg::Collective { vals, .. } => 8 + vals.len() * 8,
        }
    }

    fn tag(&self) -> &'static str {
        match self {
            AceMsg::Proto(_) => "proto",
            AceMsg::MetaReq { .. } => "meta_req",
            AceMsg::MetaReply { .. } => "meta_reply",
            AceMsg::BarArrive { .. } => "bar_arrive",
            AceMsg::BarRelease { .. } => "bar_release",
            AceMsg::LockReq { .. } => "lock_req",
            AceMsg::LockGrant { .. } => "lock_grant",
            AceMsg::LockRelease { .. } => "lock_release",
            AceMsg::Collective { .. } => "collective",
        }
    }
}

/// Wire tags for [`AceMsg`] variants (socket-transport framing).
const T_PROTO: u8 = 0;
const T_META_REQ: u8 = 1;
const T_META_REPLY: u8 = 2;
const T_BAR_ARRIVE: u8 = 3;
const T_BAR_RELEASE: u8 = 4;
const T_LOCK_REQ: u8 = 5;
const T_LOCK_GRANT: u8 = 6;
const T_LOCK_RELEASE: u8 = 7;
const T_COLLECTIVE: u8 = 8;

fn put_opt_words(out: &mut Vec<u8>, vals: &Option<Arc<[u64]>>) {
    match vals {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_words(out, v);
        }
    }
}

fn get_opt_words(r: &mut WireReader<'_>) -> Result<Option<Arc<[u64]>>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.words()?.into())),
        t => Err(CodecError::BadTag(t)),
    }
}

impl WireCodec for AceMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AceMsg::Proto(p) => {
                out.push(T_PROTO);
                p.region.0.encode(out);
                out.extend_from_slice(&p.op.to_le_bytes());
                out.extend_from_slice(&p.from.to_le_bytes());
                p.arg.encode(out);
                put_opt_words(out, &p.data);
            }
            AceMsg::MetaReq { region } => {
                out.push(T_META_REQ);
                region.0.encode(out);
            }
            AceMsg::MetaReply { region, space, words } => {
                out.push(T_META_REPLY);
                region.0.encode(out);
                out.extend_from_slice(&space.0.to_le_bytes());
                words.encode(out);
            }
            AceMsg::BarArrive { tag, epoch, prof } => {
                out.push(T_BAR_ARRIVE);
                out.extend_from_slice(&tag.to_le_bytes());
                epoch.encode(out);
                put_opt_words(out, prof);
            }
            AceMsg::BarRelease { tag, epoch, prof } => {
                out.push(T_BAR_RELEASE);
                out.extend_from_slice(&tag.to_le_bytes());
                epoch.encode(out);
                put_opt_words(out, prof);
            }
            AceMsg::LockReq { region } => {
                out.push(T_LOCK_REQ);
                region.0.encode(out);
            }
            AceMsg::LockGrant { region } => {
                out.push(T_LOCK_GRANT);
                region.0.encode(out);
            }
            AceMsg::LockRelease { region } => {
                out.push(T_LOCK_RELEASE);
                region.0.encode(out);
            }
            AceMsg::Collective { seq, vals } => {
                out.push(T_COLLECTIVE);
                seq.encode(out);
                put_words(out, vals);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            T_PROTO => AceMsg::Proto(ProtoMsg {
                region: RegionId(r.u64()?),
                op: r.u16()?,
                from: r.u16()?,
                arg: r.u64()?,
                data: get_opt_words(r)?,
            }),
            T_META_REQ => AceMsg::MetaReq { region: RegionId(r.u64()?) },
            T_META_REPLY => AceMsg::MetaReply {
                region: RegionId(r.u64()?),
                space: SpaceId(r.u32()?),
                words: r.u64()?,
            },
            T_BAR_ARRIVE => {
                AceMsg::BarArrive { tag: r.u32()?, epoch: r.u64()?, prof: get_opt_words(r)? }
            }
            T_BAR_RELEASE => {
                AceMsg::BarRelease { tag: r.u32()?, epoch: r.u64()?, prof: get_opt_words(r)? }
            }
            T_LOCK_REQ => AceMsg::LockReq { region: RegionId(r.u64()?) },
            T_LOCK_GRANT => AceMsg::LockGrant { region: RegionId(r.u64()?) },
            T_LOCK_RELEASE => AceMsg::LockRelease { region: RegionId(r.u64()?) },
            T_COLLECTIVE => AceMsg::Collective { seq: r.u64()?, vals: r.words()?.into() },
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_size_includes_payload() {
        let m = AceMsg::Proto(ProtoMsg {
            region: RegionId::new(0, 1),
            op: 3,
            from: 0,
            arg: 0,
            data: Some(Arc::from(vec![0u64; 10])),
        });
        assert_eq!(m.size_bytes(), 12 + 80);
        let m2 = AceMsg::Proto(ProtoMsg {
            region: RegionId::new(0, 1),
            op: 3,
            from: 0,
            arg: 0,
            data: None,
        });
        assert_eq!(m2.size_bytes(), 12);
    }

    #[test]
    fn collective_size_scales() {
        let m = AceMsg::Collective { seq: 0, vals: Arc::from(vec![1, 2, 3]) };
        assert_eq!(m.size_bytes(), 8 + 24);
    }

    #[test]
    fn shared_payload_charges_full_bytes_per_message() {
        // Zero-copy must not change bandwidth accounting: two messages
        // sharing one Arc payload still charge the payload twice.
        let payload: Arc<[u64]> = Arc::from(vec![0u64; 16]);
        let mk = || {
            AceMsg::Proto(ProtoMsg {
                region: RegionId::new(0, 1),
                op: 1,
                from: 0,
                arg: 0,
                data: Some(payload.clone()),
            })
        };
        assert_eq!(mk().size_bytes() + mk().size_bytes(), 2 * (12 + 128));
    }

    #[test]
    fn barrier_profile_is_metrologically_invisible() {
        // The sharing profile rides a message the barrier sends anyway;
        // like checker vector clocks it must not change byte accounting.
        let bare = AceMsg::BarArrive { tag: 1, epoch: 2, prof: None };
        let full = AceMsg::BarArrive { tag: 1, epoch: 2, prof: Some(Arc::from(vec![0u64; 8])) };
        assert_eq!(bare.size_bytes(), 12);
        assert_eq!(full.size_bytes(), bare.size_bytes());
        let rel = AceMsg::BarRelease { tag: 1, epoch: 2, prof: Some(Arc::from(vec![7u64])) };
        assert_eq!(rel.size_bytes(), 12);
    }

    #[test]
    fn every_variant_round_trips_the_wire_codec() {
        let msgs = vec![
            AceMsg::Proto(ProtoMsg {
                region: RegionId::new(3, 17),
                op: 9,
                from: 2,
                arg: 0xDEAD_BEEF,
                data: Some(Arc::from(vec![1u64, 2, 3])),
            }),
            AceMsg::Proto(ProtoMsg { region: RegionId::NULL, op: 0, from: 0, arg: 0, data: None }),
            AceMsg::MetaReq { region: RegionId::new(1, 5) },
            AceMsg::MetaReply { region: RegionId::new(1, 5), space: SpaceId(2), words: 64 },
            AceMsg::BarArrive { tag: 7, epoch: 3, prof: None },
            AceMsg::BarArrive { tag: 7, epoch: 3, prof: Some(Arc::from(vec![1u64, 0, 9])) },
            AceMsg::BarRelease { tag: 7, epoch: 3, prof: None },
            AceMsg::BarRelease { tag: u32::MAX, epoch: 1, prof: Some(Arc::from(vec![4u64])) },
            AceMsg::LockReq { region: RegionId::new(0, 1) },
            AceMsg::LockGrant { region: RegionId::new(0, 1) },
            AceMsg::LockRelease { region: RegionId::new(0, 1) },
            AceMsg::Collective { seq: 4, vals: Arc::from(vec![10u64, 20]) },
            AceMsg::Collective { seq: 5, vals: Arc::from(Vec::<u64>::new()) },
        ];
        for m in &msgs {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            let mut r = WireReader::new(&buf);
            let back = AceMsg::decode(&mut r).expect("decode");
            assert_eq!(r.remaining(), 0, "decode must consume the whole frame");
            // AceMsg carries Arc payloads, so compare via Debug plus the
            // accounting the rest of the stack relies on.
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
            assert_eq!(back.size_bytes(), m.size_bytes());
            assert_eq!(back.tag(), m.tag());
        }
    }

    #[test]
    fn truncated_ace_frames_are_rejected() {
        let m = AceMsg::MetaReply { region: RegionId::new(2, 9), space: SpaceId(1), words: 8 };
        let mut buf = Vec::new();
        m.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                AceMsg::decode(&mut WireReader::new(&buf[..cut])).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(matches!(
            AceMsg::decode(&mut WireReader::new(&[200u8])),
            Err(CodecError::BadTag(200))
        ));
    }
}
