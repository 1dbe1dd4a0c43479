//! Wire messages of the Ace runtime.
//!
//! A protocol payload travels as [`Words`]: a one-word region's word by
//! value inside the message, as a CM-5 active message carries it in the
//! packet, and anything larger as an `Arc<[u64]>`, so a fan-out of one
//! payload to N sharers is N word copies or N refcount bumps, never N deep
//! copies or an allocation per message. The simulated network still
//! charges full payload bytes per message ([`MsgSize`] reports `len * 8`
//! whichever way the words travel), and the socket codec writes the same
//! bytes for both, so this is purely a wall-clock optimization — simulated
//! time, message counts, and byte counts are unchanged. Barrier profiles
//! and collectives stay `Arc<[u64]>`.

use std::sync::Arc;

use ace_machine::transport::{put_words, CodecError, WireCodec, WireReader};
use ace_machine::{CoalescePolicy, MsgSize};

use crate::ids::{RegionId, SpaceId};
use crate::region::Words;

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
    /// Optional bulk payload (region data, deltas, ...): one word by
    /// value, more shared zero-copy with the sender; receivers mutate only
    /// through [`crate::RegionEntry::with_data_mut`].
    pub data: Option<Words>,
}

/// A barrier passage's conformance-checker records on their way up the
/// combining tree to the root, which scans them. Each tree node appends
/// its children's chunks to its own: no record is copied.
#[derive(Debug)]
pub struct SectionBatch {
    /// Barriers passed when the subtree's oldest still-open recordable
    /// section opened; `u64::MAX` when none is open.
    pub(crate) oldest: u64,
    /// One node's records per chunk, in the order that node closed them.
    pub(crate) chunks: Vec<Vec<u64>>,
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
    /// So is `batch`, the subtree's checker records under a check mode.
    BarArrive { tag: u32, epoch: u64, prof: Option<Arc<[u64]>>, batch: Option<Box<SectionBatch>> },
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

fn put_opt_words(out: &mut Vec<u8>, vals: Option<&[u64]>) {
    match vals {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_words(out, v);
        }
    }
}

fn get_opt_words<T: From<Vec<u64>>>(r: &mut WireReader<'_>) -> Result<Option<T>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.words()?.into())),
        t => Err(CodecError::BadTag(t)),
    }
}

fn put_batch(out: &mut Vec<u8>, batch: &Option<Box<SectionBatch>>) {
    out.push(batch.is_some() as u8);
    if let Some(b) = batch {
        b.oldest.encode(out);
        out.extend_from_slice(&(b.chunks.len() as u32).to_le_bytes());
        b.chunks.iter().for_each(|c| put_words(out, c));
    }
}

fn get_batch(r: &mut WireReader<'_>) -> Result<Option<Box<SectionBatch>>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let oldest = r.u64()?;
            // Not preallocated from the count: a corrupt one must not.
            let chunks = (0..r.u32()?).map(|_| r.words()).collect::<Result<_, _>>()?;
            Ok(Some(Box::new(SectionBatch { oldest, chunks })))
        }
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
                put_opt_words(out, p.data.as_deref());
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
            AceMsg::BarArrive { tag, epoch, prof, batch } => {
                out.push(T_BAR_ARRIVE);
                out.extend_from_slice(&tag.to_le_bytes());
                epoch.encode(out);
                put_opt_words(out, prof.as_deref());
                put_batch(out, batch);
            }
            AceMsg::BarRelease { tag, epoch, prof } => {
                out.push(T_BAR_RELEASE);
                out.extend_from_slice(&tag.to_le_bytes());
                epoch.encode(out);
                put_opt_words(out, prof.as_deref());
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
            T_BAR_ARRIVE => AceMsg::BarArrive {
                tag: r.u32()?,
                epoch: r.u64()?,
                prof: get_opt_words(r)?,
                batch: get_batch(r)?,
            },
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
            data: Some(Words::from(vec![0u64; 10])),
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
        let payload = Words::from(vec![0u64; 16]);
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
        let bare = AceMsg::BarArrive { tag: 1, epoch: 2, prof: None, batch: None };
        let full = AceMsg::BarArrive {
            tag: 1,
            epoch: 2,
            prof: Some(Arc::from(vec![0u64; 8])),
            batch: Some(Box::new(SectionBatch { oldest: 0, chunks: vec![vec![0; 16]] })),
        };
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
                data: Some(Words::from(vec![1u64, 2, 3])),
            }),
            AceMsg::Proto(ProtoMsg { region: RegionId::NULL, op: 0, from: 0, arg: 0, data: None }),
            AceMsg::MetaReq { region: RegionId::new(1, 5) },
            AceMsg::MetaReply { region: RegionId::new(1, 5), space: SpaceId(2), words: 64 },
            AceMsg::BarArrive { tag: 7, epoch: 3, prof: None, batch: None },
            AceMsg::BarArrive {
                tag: 7,
                epoch: 3,
                prof: Some(Arc::from(vec![1u64, 0, 9])),
                batch: None,
            },
            two_chunk_arrival(),
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
    fn a_one_word_payload_keeps_its_wire_bytes() {
        // Tag, region, op, from, arg, then the payload as it always went
        // out: a present-tag of 1 and a u32-counted word vector.
        let (region, op, from, arg, word) = (RegionId::new(3, 17), 9u16, 2u16, 0xBEEFu64, 42u64);
        let mut want = vec![T_PROTO];
        want.extend_from_slice(&region.0.to_le_bytes());
        want.extend_from_slice(&op.to_le_bytes());
        want.extend_from_slice(&from.to_le_bytes());
        want.extend_from_slice(&arg.to_le_bytes());
        want.push(1);
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&word.to_le_bytes());
        let m = AceMsg::Proto(ProtoMsg { region, op, from, arg, data: Some(Words::One(word)) });
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(buf, want);
        let mut r = WireReader::new(&buf);
        let Ok(AceMsg::Proto(back)) = AceMsg::decode(&mut r) else { panic!("decode") };
        assert!(matches!(back.data, Some(Words::One(42))), "one word decodes by value");
        assert_eq!(r.remaining(), 0);
        assert_eq!(AceMsg::Proto(back).size_bytes(), 12 + 8);

        // A multi-word payload round-trips shared, with the same framing.
        let many = Words::from(vec![7u64, 8, 9]);
        let m = AceMsg::Proto(ProtoMsg { region, op, from, arg, data: Some(many) });
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(buf.len(), want.len() + 16);
        let Ok(AceMsg::Proto(back)) = AceMsg::decode(&mut WireReader::new(&buf)) else {
            panic!("decode")
        };
        assert!(matches!(&back.data, Some(Words::Many(d)) if **d == [7, 8, 9]));
    }

    /// An arrival carrying a checker batch of two chunks, one empty.
    fn two_chunk_arrival() -> AceMsg {
        let chunks = vec![vec![7u64, 1 << 40, 3], Vec::new()];
        AceMsg::BarArrive {
            tag: 2,
            epoch: 5,
            prof: None,
            batch: Some(Box::new(SectionBatch { oldest: 4, chunks })),
        }
    }

    #[test]
    fn a_message_stays_48_bytes() {
        // The batch rides boxed, so a `None` costs every message nothing.
        assert_eq!(std::mem::size_of::<AceMsg>(), 48);
    }

    #[test]
    fn truncated_ace_frames_are_rejected() {
        let meta = AceMsg::MetaReply { region: RegionId::new(2, 9), space: SpaceId(1), words: 8 };
        for m in [meta, two_chunk_arrival()] {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            for cut in 0..buf.len() {
                assert!(
                    AceMsg::decode(&mut WireReader::new(&buf[..cut])).is_err(),
                    "{}: prefix of {cut} bytes must not decode",
                    m.tag()
                );
            }
        }
        assert!(matches!(
            AceMsg::decode(&mut WireReader::new(&[200u8])),
            Err(CodecError::BadTag(200))
        ));
    }
}
