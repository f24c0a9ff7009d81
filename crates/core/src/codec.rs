//! Binary wire codec for protocol messages.
//!
//! The threaded runtime moves [`Msg`] values through in-process channels,
//! but a real federation deployment crosses address spaces and machines.
//! This module provides a compact, hand-rolled, versioned binary encoding
//! for every protocol message — no external serialization framework, so
//! the wire format is fully specified here:
//!
//! * integers: unsigned LEB128 (varint);
//! * sequences: varint length prefix, then elements;
//! * messages: 1-byte format version, 1-byte discriminant, then fields in
//!   declaration order.
//!
//! Payload *content* is not part of the protocol (the engine only sees
//! sizes and tags), so [`AppPayload`] encodes as `(bytes, tag)`.

use crate::msg::{AppPayload, ClcReason, Msg, Piggyback};
use netsim::NodeId;
use std::sync::Arc;
use storage::varint::{self, put_ddv, put_u64, Cursor};
use storage::{LogId, SeqNum};

/// Wire-format version byte; bump on any incompatible change.
pub const WIRE_VERSION: u8 = 1;

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    Truncated,
    /// Unknown format version.
    BadVersion(u8),
    /// Unknown message discriminant.
    BadTag(u8),
    /// A varint ran over its maximum width.
    VarintOverflow,
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// Structurally well-formed input that violates a semantic invariant
    /// (duplicate delivery keys, non-monotone store entries, …).
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::VarintOverflow => write!(f, "varint overflow"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            DecodeError::Invalid(what) => write!(f, "invalid content: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<varint::Error> for DecodeError {
    fn from(e: varint::Error) -> Self {
        match e {
            varint::Error::Truncated => DecodeError::Truncated,
            varint::Error::Overflow => DecodeError::VarintOverflow,
        }
    }
}

// ---- primitives -----------------------------------------------------------

/// A complete value must have consumed its whole input.
pub(crate) fn expect_end(cur: &Cursor<'_>) -> Result<(), DecodeError> {
    match cur.remaining() {
        0 => Ok(()),
        n => Err(DecodeError::TrailingBytes(n)),
    }
}

fn put_bool(buf: &mut Vec<u8>, b: bool) {
    buf.push(b as u8);
}

fn get_bool(cur: &mut Cursor<'_>) -> Result<bool, DecodeError> {
    Ok(cur.u8()? != 0)
}

pub(crate) fn put_node(buf: &mut Vec<u8>, n: NodeId) {
    put_u64(buf, n.cluster.0 as u64);
    put_u64(buf, n.rank as u64);
}

pub(crate) fn get_node(cur: &mut Cursor<'_>) -> Result<NodeId, DecodeError> {
    let cluster = cur.u64()? as u16;
    let rank = cur.u64()? as u32;
    Ok(NodeId::new(cluster, rank))
}

fn put_payload(buf: &mut Vec<u8>, p: AppPayload) {
    put_u64(buf, p.bytes);
    put_u64(buf, p.tag);
}

fn get_payload(cur: &mut Cursor<'_>) -> Result<AppPayload, DecodeError> {
    Ok(AppPayload {
        bytes: cur.u64()?,
        tag: cur.u64()?,
    })
}

fn put_piggyback(buf: &mut Vec<u8>, p: &Piggyback) {
    match p {
        Piggyback::Sn(sn) => {
            buf.push(0);
            put_u64(buf, sn.0);
        }
        Piggyback::Ddv(ddv) => {
            buf.push(1);
            put_ddv(buf, ddv);
        }
    }
}

fn get_piggyback(cur: &mut Cursor<'_>) -> Result<Piggyback, DecodeError> {
    match cur.u8()? {
        0 => Ok(Piggyback::Sn(SeqNum(cur.u64()?))),
        1 => Ok(Piggyback::Ddv(Arc::new(cur.ddv()?))),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn put_reason(buf: &mut Vec<u8>, r: &ClcReason) {
    match r {
        ClcReason::Timer => buf.push(0),
        ClcReason::Forced(p, cluster) => {
            buf.push(1);
            put_piggyback(buf, p);
            put_u64(buf, *cluster as u64);
        }
    }
}

fn get_reason(cur: &mut Cursor<'_>) -> Result<ClcReason, DecodeError> {
    match cur.u8()? {
        0 => Ok(ClcReason::Timer),
        1 => {
            let p = get_piggyback(cur)?;
            let cluster = cur.u64()? as usize;
            Ok(ClcReason::Forced(p, cluster))
        }
        t => Err(DecodeError::BadTag(t)),
    }
}

// ---- messages --------------------------------------------------------------

const T_CLC_INIT: u8 = 1;
const T_CLC_REQUEST: u8 = 2;
const T_FRAG_REPLICA: u8 = 3;
const T_FRAG_STORED: u8 = 4;
const T_CLC_ACK: u8 = 5;
const T_CLC_COMMIT: u8 = 6;
const T_APP_INTRA: u8 = 7;
const T_APP_INTER: u8 = 8;
const T_INTER_ACK: u8 = 9;
const T_ROLLBACK_ORDER: u8 = 10;
const T_ROLLBACK_ALERT: u8 = 11;
const T_ALERT_LOCAL: u8 = 12;
const T_GC_COLLECT: u8 = 13;
const T_GC_DDV_LIST: u8 = 14;
const T_GC_PRUNE: u8 = 15;
const T_RELIABLE: u8 = 16;
const T_XPORT_ACK: u8 = 17;

/// Encode a message into a fresh buffer.
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.push(WIRE_VERSION);
    match msg {
        Msg::ClcInit { reason, epoch } => {
            buf.push(T_CLC_INIT);
            put_reason(&mut buf, reason);
            put_u64(&mut buf, *epoch);
        }
        Msg::ClcRequest { round, epoch } => {
            buf.push(T_CLC_REQUEST);
            put_u64(&mut buf, *round);
            put_u64(&mut buf, *epoch);
        }
        Msg::FragmentReplica {
            round,
            owner,
            epoch,
        } => {
            buf.push(T_FRAG_REPLICA);
            put_u64(&mut buf, *round);
            put_u64(&mut buf, *owner as u64);
            put_u64(&mut buf, *epoch);
        }
        Msg::FragmentStored {
            round,
            holder,
            epoch,
        } => {
            buf.push(T_FRAG_STORED);
            put_u64(&mut buf, *round);
            put_u64(&mut buf, *holder as u64);
            put_u64(&mut buf, *epoch);
        }
        Msg::ClcAck { round, rank, epoch } => {
            buf.push(T_CLC_ACK);
            put_u64(&mut buf, *round);
            put_u64(&mut buf, *rank as u64);
            put_u64(&mut buf, *epoch);
        }
        Msg::ClcCommit {
            round,
            sn,
            ddv,
            forced,
            epoch,
        } => {
            buf.push(T_CLC_COMMIT);
            put_u64(&mut buf, *round);
            put_u64(&mut buf, sn.0);
            put_ddv(&mut buf, ddv);
            put_bool(&mut buf, *forced);
            put_u64(&mut buf, *epoch);
        }
        Msg::AppIntra {
            payload,
            sent_at_sn,
        } => {
            buf.push(T_APP_INTRA);
            put_payload(&mut buf, *payload);
            put_u64(&mut buf, sent_at_sn.0);
        }
        Msg::AppInter {
            payload,
            piggyback,
            log_id,
            resend,
            sender_epoch,
        } => {
            buf.push(T_APP_INTER);
            put_payload(&mut buf, *payload);
            put_piggyback(&mut buf, piggyback);
            put_u64(&mut buf, log_id.0);
            put_bool(&mut buf, *resend);
            put_u64(&mut buf, *sender_epoch);
        }
        Msg::InterAck {
            log_id,
            receiver_sn,
        } => {
            buf.push(T_INTER_ACK);
            put_u64(&mut buf, log_id.0);
            put_u64(&mut buf, receiver_sn.0);
        }
        Msg::RollbackOrder {
            restore_sn,
            epoch,
            new_coordinator,
        } => {
            buf.push(T_ROLLBACK_ORDER);
            put_u64(&mut buf, restore_sn.0);
            put_u64(&mut buf, *epoch);
            put_u64(&mut buf, *new_coordinator as u64);
        }
        Msg::RollbackAlert {
            origin,
            sn,
            origin_epoch,
        } => {
            buf.push(T_ROLLBACK_ALERT);
            put_u64(&mut buf, *origin as u64);
            put_u64(&mut buf, sn.0);
            put_u64(&mut buf, *origin_epoch);
        }
        Msg::AlertLocal {
            origin,
            sn,
            origin_epoch,
        } => {
            buf.push(T_ALERT_LOCAL);
            put_u64(&mut buf, *origin as u64);
            put_u64(&mut buf, sn.0);
            put_u64(&mut buf, *origin_epoch);
        }
        Msg::GcCollect => buf.push(T_GC_COLLECT),
        Msg::GcDdvList { cluster, list } => {
            buf.push(T_GC_DDV_LIST);
            put_u64(&mut buf, *cluster as u64);
            put_u64(&mut buf, list.len() as u64);
            for (sn, ddv) in list {
                put_u64(&mut buf, sn.0);
                put_ddv(&mut buf, ddv);
            }
        }
        Msg::GcPrune { min_sns } => {
            buf.push(T_GC_PRUNE);
            put_u64(&mut buf, min_sns.len() as u64);
            for sn in min_sns {
                put_u64(&mut buf, sn.0);
            }
        }
        Msg::Reliable { seq, inner } => {
            debug_assert!(
                !matches!(**inner, Msg::Reliable { .. }),
                "transport envelopes never nest"
            );
            buf.push(T_RELIABLE);
            put_u64(&mut buf, *seq);
            let body = encode(inner);
            put_u64(&mut buf, body.len() as u64);
            buf.extend_from_slice(&body);
        }
        Msg::XportAck { seq } => {
            buf.push(T_XPORT_ACK);
            put_u64(&mut buf, *seq);
        }
    }
    buf
}

/// Decode one message; the whole input must be consumed.
pub fn decode(buf: &[u8]) -> Result<Msg, DecodeError> {
    let mut cur = Cursor::new(buf);
    let version = cur.u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let msg = match cur.u8()? {
        T_CLC_INIT => Msg::ClcInit {
            reason: get_reason(&mut cur)?,
            epoch: cur.u64()?,
        },
        T_CLC_REQUEST => Msg::ClcRequest {
            round: cur.u64()?,
            epoch: cur.u64()?,
        },
        T_FRAG_REPLICA => Msg::FragmentReplica {
            round: cur.u64()?,
            owner: cur.u64()? as u32,
            epoch: cur.u64()?,
        },
        T_FRAG_STORED => Msg::FragmentStored {
            round: cur.u64()?,
            holder: cur.u64()? as u32,
            epoch: cur.u64()?,
        },
        T_CLC_ACK => Msg::ClcAck {
            round: cur.u64()?,
            rank: cur.u64()? as u32,
            epoch: cur.u64()?,
        },
        T_CLC_COMMIT => Msg::ClcCommit {
            round: cur.u64()?,
            sn: SeqNum(cur.u64()?),
            ddv: Arc::new(cur.ddv()?),
            forced: get_bool(&mut cur)?,
            epoch: cur.u64()?,
        },
        T_APP_INTRA => Msg::AppIntra {
            payload: get_payload(&mut cur)?,
            sent_at_sn: SeqNum(cur.u64()?),
        },
        T_APP_INTER => Msg::AppInter {
            payload: get_payload(&mut cur)?,
            piggyback: get_piggyback(&mut cur)?,
            log_id: LogId(cur.u64()?),
            resend: get_bool(&mut cur)?,
            sender_epoch: cur.u64()?,
        },
        T_INTER_ACK => Msg::InterAck {
            log_id: LogId(cur.u64()?),
            receiver_sn: SeqNum(cur.u64()?),
        },
        T_ROLLBACK_ORDER => Msg::RollbackOrder {
            restore_sn: SeqNum(cur.u64()?),
            epoch: cur.u64()?,
            new_coordinator: cur.u64()? as u32,
        },
        T_ROLLBACK_ALERT => Msg::RollbackAlert {
            origin: cur.u64()? as usize,
            sn: SeqNum(cur.u64()?),
            origin_epoch: cur.u64()?,
        },
        T_ALERT_LOCAL => Msg::AlertLocal {
            origin: cur.u64()? as usize,
            sn: SeqNum(cur.u64()?),
            origin_epoch: cur.u64()?,
        },
        T_GC_COLLECT => Msg::GcCollect,
        T_GC_DDV_LIST => {
            let cluster = cur.u64()? as usize;
            // An item is an SN and a DDV's count, at the least.
            let n = cur.count(2)?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                let sn = SeqNum(cur.u64()?);
                list.push((sn, Arc::new(cur.ddv()?)));
            }
            Msg::GcDdvList { cluster, list }
        }
        T_GC_PRUNE => {
            let n = cur.count(1)?;
            let mut min_sns = Vec::with_capacity(n);
            for _ in 0..n {
                min_sns.push(SeqNum(cur.u64()?));
            }
            Msg::GcPrune { min_sns }
        }
        T_RELIABLE => {
            let seq = cur.u64()?;
            let inner = decode(cur.bytes()?)?;
            // The transport never nests envelopes; rejecting nesting also
            // bounds decode recursion to one level on adversarial input.
            if matches!(inner, Msg::Reliable { .. }) {
                return Err(DecodeError::Invalid("nested reliable envelope"));
            }
            Msg::Reliable {
                seq,
                inner: Box::new(inner),
            }
        }
        T_XPORT_ACK => Msg::XportAck { seq: cur.u64()? },
        t => return Err(DecodeError::BadTag(t)),
    };
    expect_end(&cur)?;
    Ok(msg)
}

/// Encode a routed envelope `(from, to, msg)` — the unit a transport
/// actually ships.
pub fn encode_envelope(from: NodeId, to: NodeId, msg: &Msg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(40);
    buf.push(WIRE_VERSION);
    put_node(&mut buf, from);
    put_node(&mut buf, to);
    let body = encode(msg);
    put_u64(&mut buf, body.len() as u64);
    buf.extend_from_slice(&body);
    buf
}

/// Decode a routed envelope.
pub fn decode_envelope(buf: &[u8]) -> Result<(NodeId, NodeId, Msg), DecodeError> {
    let mut cur = Cursor::new(buf);
    let version = cur.u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let from = get_node(&mut cur)?;
    let to = get_node(&mut cur)?;
    let body = cur.bytes()?;
    expect_end(&cur)?;
    let msg = decode(body)?;
    Ok((from, to, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::Ddv;

    fn samples() -> Vec<Msg> {
        let ddv = Ddv::from_entries(vec![SeqNum(1), SeqNum(0), SeqNum(300)]);
        vec![
            Msg::ClcInit {
                reason: ClcReason::Timer,
                epoch: 0,
            },
            Msg::ClcInit {
                reason: ClcReason::Forced(Piggyback::Sn(SeqNum(5)), 2),
                epoch: 3,
            },
            Msg::ClcInit {
                reason: ClcReason::Forced(Piggyback::Ddv(Arc::new(ddv.clone())), 1),
                epoch: u64::MAX,
            },
            Msg::ClcRequest { round: 9, epoch: 1 },
            Msg::FragmentReplica {
                round: 9,
                owner: 4,
                epoch: 1,
            },
            Msg::FragmentStored {
                round: 9,
                holder: 5,
                epoch: 1,
            },
            Msg::ClcAck {
                round: 1 << 40,
                rank: u32::MAX,
                epoch: 2,
            },
            Msg::ClcCommit {
                round: 10,
                sn: SeqNum(11),
                ddv: Arc::new(ddv.clone()),
                forced: true,
                epoch: 0,
            },
            Msg::AppIntra {
                payload: AppPayload {
                    bytes: 4096,
                    tag: 77,
                },
                sent_at_sn: SeqNum(3),
            },
            Msg::AppInter {
                payload: AppPayload { bytes: 1, tag: 0 },
                piggyback: Piggyback::Ddv(Arc::new(ddv.clone())),
                log_id: LogId(128),
                resend: true,
                sender_epoch: 6,
            },
            Msg::InterAck {
                log_id: LogId(0),
                receiver_sn: SeqNum(2),
            },
            Msg::RollbackOrder {
                restore_sn: SeqNum(4),
                epoch: 7,
                new_coordinator: 0,
            },
            Msg::RollbackAlert {
                origin: 2,
                sn: SeqNum(9),
                origin_epoch: 1,
            },
            Msg::AlertLocal {
                origin: 0,
                sn: SeqNum(1),
                origin_epoch: 1,
            },
            Msg::GcCollect,
            Msg::GcDdvList {
                cluster: 1,
                list: vec![
                    (SeqNum(1), Arc::new(ddv.clone())),
                    (SeqNum(2), Arc::new(Ddv::zeros(3))),
                ],
            },
            Msg::GcPrune {
                min_sns: vec![SeqNum(3), SeqNum(1), SeqNum(0)],
            },
            Msg::Reliable {
                seq: 1 << 50,
                inner: Box::new(Msg::AppInter {
                    payload: AppPayload { bytes: 9, tag: 4 },
                    piggyback: Piggyback::Sn(SeqNum(2)),
                    log_id: LogId(3),
                    resend: false,
                    sender_epoch: 0,
                }),
            },
            Msg::Reliable {
                seq: 0,
                inner: Box::new(Msg::GcCollect),
            },
            Msg::XportAck { seq: 12345 },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        for msg in samples() {
            let wire = encode(&msg);
            let back = decode(&wire).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn envelopes_round_trip() {
        let from = NodeId::new(2, 31);
        let to = NodeId::new(0, 0);
        for msg in samples() {
            let wire = encode_envelope(from, to, &msg);
            let (f, t, m) = decode_envelope(&wire).unwrap();
            assert_eq!((f, t), (from, to));
            assert_eq!(m, msg);
        }
    }

    #[test]
    fn varints_are_compact() {
        let small = encode(&Msg::GcCollect);
        assert_eq!(small.len(), 2, "version + tag only");
        let ack = encode(&Msg::InterAck {
            log_id: LogId(5),
            receiver_sn: SeqNum(3),
        });
        assert_eq!(ack.len(), 4);
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        for msg in samples() {
            let wire = encode(&msg);
            for cut in 0..wire.len() {
                let r = decode(&wire[..cut]);
                assert!(
                    r.is_err(),
                    "truncated at {cut}/{} decoded to {r:?} for {msg:?}",
                    wire.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = encode(&Msg::GcCollect);
        wire.push(0);
        assert_eq!(decode(&wire), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = encode(&Msg::GcCollect);
        wire[0] = 99;
        assert_eq!(decode(&wire), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn nested_reliable_envelope_rejected() {
        // Hand-build the nesting the encoder forbids: Reliable{Reliable{..}}.
        let inner = encode(&Msg::Reliable {
            seq: 1,
            inner: Box::new(Msg::GcCollect),
        });
        let mut wire = vec![WIRE_VERSION, T_RELIABLE, 2];
        put_u64(&mut wire, inner.len() as u64);
        wire.extend_from_slice(&inner);
        assert_eq!(
            decode(&wire),
            Err(DecodeError::Invalid("nested reliable envelope"))
        );
    }

    #[test]
    fn bad_tag_rejected() {
        let wire = vec![WIRE_VERSION, 200];
        assert_eq!(decode(&wire), Err(DecodeError::BadTag(200)));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            let wire = encode(&Msg::XportAck { seq: v });
            assert_eq!(decode(&wire), Ok(Msg::XportAck { seq: v }));
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let mut wire = vec![WIRE_VERSION, T_XPORT_ACK];
        wire.extend_from_slice(&[0x80u8; 11]);
        assert_eq!(decode(&wire), Err(DecodeError::VarintOverflow));
    }

    /// Lengths and counts no bytes back are truncation — never an
    /// overflowing `pos + len` (a debug-build panic before PR 17) nor a
    /// reservation sized from the count.
    #[test]
    fn crafted_lengths_and_counts_are_truncated() {
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        // Reliable { seq: 0, inner: u64::MAX bytes }.
        let mut reliable = vec![WIRE_VERSION, T_RELIABLE, 0];
        reliable.extend_from_slice(&huge);
        assert_eq!(decode(&reliable), Err(DecodeError::Truncated));
        // An envelope whose body claims u64::MAX bytes.
        let mut envelope = vec![WIRE_VERSION, 0, 0, 0, 0];
        envelope.extend_from_slice(&huge);
        assert_eq!(decode_envelope(&envelope), Err(DecodeError::Truncated));
        // 2^28 list items, DDV entries and prune bounds over nothing.
        let count = [0x80, 0x80, 0x80, 0x80, 0x01];
        for head in [
            &[WIRE_VERSION, T_GC_DDV_LIST, 0][..],
            &[WIRE_VERSION, T_GC_PRUNE],
            &[WIRE_VERSION, T_CLC_COMMIT, 0, 0],
        ] {
            let wire = [head, &count[..]].concat();
            assert_eq!(decode(&wire), Err(DecodeError::Truncated));
        }
    }
}
