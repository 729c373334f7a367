//! Compact binary wire codec.
//!
//! The `put_*` functions are the one description of the wire layout: a
//! [`BytesMut`] sink gets the bytes, a private meter counts the bytes and
//! authenticators every `wire_len`/`authenticator_count` reports. Combined
//! signatures are padded to their modeled format size (a real 96-byte BLS
//! signature or `t × 64` bytes of ECDSA signatures carry more entropy than
//! our simulated aggregates, so the encoder pads with zeros to keep byte
//! counts faithful).

use crate::block::{Block, BlockId, BlockKind, BlockMeta, Justify, ParentLink};
use crate::ids::{Height, ReplicaId, View};
use crate::message::{Decide, Message, MsgBody, Proposal, VcCert, ViewChange, Vote};
use crate::qc::{Phase, Qc, QcSeed};
use crate::transaction::{Batch, BatchId, Transaction};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use marlin_crypto::{
    CombinedSig, Digest, PartialSig, QcFormat, Signature, SignerBitmap, SIGNATURE_LEN,
};
use std::fmt;

/// Hard ceiling on a single wire frame, checked before any decoding.
///
/// Bytes are untrusted: a malicious or corrupt peer controls every
/// length prefix, so no field may size an allocation beyond what the
/// received buffer can actually back. The ceiling comfortably fits the
/// paper's largest proposal (two 16k-transaction blocks at ~174 wire
/// bytes each is ~5.6 MiB un-shadowed) while bounding what one frame
/// can make a replica allocate.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Errors produced by [`decode_message`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd,
    /// An enum tag byte had no meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Trailing bytes remained after the message.
    TrailingBytes(usize),
    /// A length prefix exceeded its bound (the frame ceiling, or more
    /// than the remaining buffer could possibly back). Raised *before*
    /// any allocation is sized from the untrusted value.
    FieldTooLarge {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length/count.
        len: usize,
        /// The largest value the remaining input could support.
        max: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of buffer"),
            DecodeError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            DecodeError::FieldTooLarge { what, len, max } => {
                write!(f, "{what} length {len} exceeds bound {max}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

/// Encodes a message into its wire form. With `shadow` enabled, the
/// second block of a two-block proposal sharing the first's payload is
/// serialized without its operations (the shadow-block optimisation).
pub fn encode_message(msg: &Message, shadow: bool) -> Bytes {
    let mut buf = BytesMut::with_capacity(msg.wire_len(shadow));
    put_message(&mut buf, msg, shadow);
    buf.freeze()
}

/// Decodes a message previously produced by [`encode_message`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the buffer is truncated, malformed,
/// oversized (see [`MAX_FRAME_LEN`]), or has trailing bytes. Never
/// panics and never allocates more than the input length can back, on
/// any byte string.
///
/// Every non-empty transaction payload of the result is a slice of
/// `frame`, not a copy: nothing is allocated per transaction, and the
/// message keeps `frame`'s storage alive while any payload of it lives.
pub fn decode_message(frame: &Bytes) -> Result<Message> {
    if frame.len() > MAX_FRAME_LEN {
        return Err(DecodeError::FieldTooLarge {
            what: "frame",
            len: frame.len(),
            max: MAX_FRAME_LEN,
        });
    }
    let mut buf = &frame[..];
    let msg = get_message(frame, &mut buf)?;
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes(buf.len()));
    }
    Ok(msg)
}

// ---------------------------------------------------------------- put --

/// A sink the encoder writes into: raw bytes, plus two hooks whose
/// defaults are what a writer does and which a counting sink overrides.
/// Every `put_*` is generic over it and monomorphised, so writing a
/// [`BytesMut`] costs what it did before the meter shared the encoder.
pub trait Wire: BufMut {
    /// Writes a transaction batch (count prefix, then each transaction).
    fn batch(&mut self, batch: &Batch) {
        self.put_u32_le(batch.len() as u32);
        for tx in batch.iter() {
            self.put_u64_le(tx.id);
            self.put_u32_le(tx.client);
            self.put_u32_le(tx.payload.len() as u32);
            self.put_u64_le(tx.submitted_at_ns);
            self.put_slice(&tx.payload);
        }
    }

    /// Notes that `n` authenticators (the paper's metric, Section III)
    /// were just written.
    fn authenticators(&mut self, _n: usize) {}
}

impl Wire for BytesMut {}

/// The counting sink: what the encoder would write, without writing it.
#[derive(Default)]
pub(crate) struct Meter {
    pub(crate) bytes: usize,
    pub(crate) authenticators: usize,
}

impl BufMut for Meter {
    fn put_slice(&mut self, slice: &[u8]) {
        self.bytes += slice.len();
    }

    fn put_bytes(&mut self, _val: u8, count: usize) {
        self.bytes += count;
    }
}

impl Wire for Meter {
    /// A batch's memoised length — the one cache of the wire layout.
    fn batch(&mut self, batch: &Batch) {
        self.bytes += batch.wire_len();
    }

    fn authenticators(&mut self, n: usize) {
        self.authenticators += n;
    }
}

/// Runs `put` into a fresh [`Meter`].
pub(crate) fn measure(put: impl FnOnce(&mut Meter)) -> Meter {
    let mut meter = Meter::default();
    put(&mut meter);
    meter
}

pub(crate) fn put_message<W: Wire>(buf: &mut W, msg: &Message, shadow: bool) {
    buf.put_u32_le(msg.from.0);
    buf.put_u64_le(msg.view.0);
    match &msg.body {
        MsgBody::Proposal(p) => {
            buf.put_u8(0);
            put_proposal(buf, p, shadow);
        }
        MsgBody::Vote(v) => {
            buf.put_u8(1);
            put_vote(buf, v);
        }
        MsgBody::ViewChange(vc) => {
            buf.put_u8(2);
            put_view_change(buf, vc);
        }
        MsgBody::Decide(d) => {
            buf.put_u8(3);
            put_qc(buf, &d.commit_qc);
        }
        MsgBody::FetchRequest { block } => {
            buf.put_u8(4);
            put_digest(buf, &block.digest());
        }
        MsgBody::FetchResponse {
            block,
            virtual_parent,
        } => {
            buf.put_u8(5);
            put_block(buf, block, true);
            match virtual_parent {
                Some(pid) => {
                    buf.put_u8(1);
                    put_digest(buf, &pid.digest());
                }
                None => {
                    buf.put_u8(0);
                    buf.put_slice(&[0u8; 32]);
                }
            }
        }
        MsgBody::CatchUpRequest { last_committed } => {
            buf.put_u8(6);
            buf.put_u64_le(last_committed.0);
        }
        MsgBody::CatchUpResponse { commit_qc } => {
            buf.put_u8(7);
            match commit_qc {
                None => buf.put_u8(0),
                Some(qc) => {
                    buf.put_u8(1);
                    put_qc(buf, qc);
                }
            }
        }
        MsgBody::SnapshotRequest => {
            buf.put_u8(8);
        }
        MsgBody::SnapshotResponse { snapshot } => {
            buf.put_u8(9);
            match snapshot {
                None => buf.put_u8(0),
                Some((block, qc)) => {
                    buf.put_u8(1);
                    put_block(buf, block, true);
                    put_qc(buf, qc);
                }
            }
        }
        MsgBody::BlockRangeRequest {
            from_height,
            to_height,
        } => {
            buf.put_u8(10);
            buf.put_u64_le(from_height.0);
            buf.put_u64_le(to_height.0);
        }
        MsgBody::BlockRangeResponse {
            from_height,
            blocks,
        } => {
            buf.put_u8(11);
            buf.put_u64_le(from_height.0);
            buf.put_u16_le(blocks.len() as u16);
            for b in blocks {
                put_block(buf, b, true);
            }
        }
        MsgBody::PayloadPush { digest, batch } => {
            buf.put_u8(12);
            put_digest(buf, &digest.digest());
            buf.batch(batch);
        }
        MsgBody::PayloadAck { digest } => {
            buf.put_u8(13);
            put_digest(buf, &digest.digest());
        }
        MsgBody::PayloadRequest { digest } => {
            buf.put_u8(14);
            put_digest(buf, &digest.digest());
        }
        MsgBody::PayloadResponse { digest, batch } => {
            buf.put_u8(15);
            put_digest(buf, &digest.digest());
            match batch {
                None => buf.put_u8(0),
                Some(b) => {
                    buf.put_u8(1);
                    buf.batch(b);
                }
            }
        }
        MsgBody::DigestProposal { digest, justify } => {
            buf.put_u8(16);
            put_digest(buf, &digest.digest());
            put_justify(buf, justify);
        }
    }
}

fn put_proposal<W: Wire>(buf: &mut W, p: &Proposal, shadow: bool) {
    put_phase(buf, p.phase);
    let dedup = shadow && p.blocks.len() == 2 && p.blocks[0].payload() == p.blocks[1].payload();
    let count_byte = p.blocks.len() as u8 | if dedup { 0x80 } else { 0 };
    buf.put_u8(count_byte);
    for (i, b) in p.blocks.iter().enumerate() {
        put_block(buf, b, !(dedup && i == 1));
    }
    put_justify(buf, &p.justify);
    buf.put_u16_le(p.vc_proof.len() as u16);
    for cert in &p.vc_proof {
        buf.put_u32_le(cert.from.0);
        put_qc(buf, &cert.high_qc);
        buf.put_slice(&cert.sig.to_bytes());
        buf.authenticators(1);
    }
}

fn put_vote<W: Wire>(buf: &mut W, v: &Vote) {
    put_seed(buf, &v.seed);
    put_parsig(buf, &v.parsig);
    match &v.locked_qc {
        None => buf.put_u8(0),
        Some(qc) => {
            buf.put_u8(1);
            put_qc(buf, qc);
        }
    }
}

fn put_view_change<W: Wire>(buf: &mut W, vc: &ViewChange) {
    put_block_meta(buf, &vc.last_voted);
    put_justify(buf, &vc.high_qc);
    put_parsig(buf, &vc.parsig);
    match &vc.cert {
        None => buf.put_u8(0),
        Some(sig) => {
            buf.put_u8(1);
            buf.put_slice(&sig.to_bytes());
            buf.authenticators(1);
        }
    }
}

fn put_block<W: Wire>(buf: &mut W, b: &Block, with_payload: bool) {
    match b.parent() {
        ParentLink::Hash(id) => {
            buf.put_u8(1);
            put_digest(buf, &id.digest());
        }
        ParentLink::Nil => {
            buf.put_u8(0);
            buf.put_slice(&[0u8; 32]);
        }
    }
    buf.put_u64_le(b.pview().0);
    buf.put_u64_le(b.view().0);
    buf.put_u64_le(b.height().0);
    put_justify(buf, b.justify());
    if with_payload {
        buf.batch(b.payload());
    }
}

/// Serializes a [`BlockMeta`] (a fixed 58 bytes). Public so
/// durable-state layers (e.g. the consensus safety journal) can reuse
/// the wire encoding for their record payloads.
pub fn put_block_meta<W: Wire>(buf: &mut W, m: &BlockMeta) {
    put_digest(buf, &m.id.digest());
    buf.put_u64_le(m.view.0);
    buf.put_u64_le(m.height.0);
    buf.put_u64_le(m.pview.0);
    put_kind(buf, m.kind);
    buf.put_u8(m.rank_boost as u8);
}

/// Serializes a [`Justify`] (1 tag byte plus its QCs). Public for
/// durable-state record payloads.
pub fn put_justify<W: Wire>(buf: &mut W, j: &Justify) {
    match j {
        Justify::None => buf.put_u8(0),
        Justify::One(qc) => {
            buf.put_u8(1);
            put_qc(buf, qc);
        }
        Justify::Two(qc, vc) => {
            buf.put_u8(2);
            put_qc(buf, qc);
            put_qc(buf, vc);
        }
    }
}

/// Serializes a [`Qc`] ([`Qc::wire_len`] bytes carrying
/// [`Qc::authenticator_count`]). Public for durable-state records.
pub fn put_qc<W: Wire>(buf: &mut W, qc: &Qc) {
    put_seed(buf, qc.seed());
    put_combined_sig(buf, qc.sig());
    buf.authenticators(qc.authenticator_count());
}

/// Serializes a full [`Block`] (payload included) in its wire form.
/// Public for durable-state record payloads (snapshot anchors).
pub fn put_block_full<W: Wire>(buf: &mut W, b: &Block) {
    put_block(buf, b, true);
}

fn put_seed<W: Wire>(buf: &mut W, s: &QcSeed) {
    put_phase(buf, s.phase);
    buf.put_u64_le(s.view.0);
    put_digest(buf, &s.block.digest());
    buf.put_u64_le(s.height.0);
    buf.put_u64_le(s.block_view.0);
    buf.put_u64_le(s.pview.0);
    put_kind(buf, s.block_kind);
}

fn put_combined_sig<W: Wire>(buf: &mut W, sig: &CombinedSig) {
    let total = sig.wire_len();
    match sig.format() {
        QcFormat::SigGroup => buf.put_u8(0),
        QcFormat::Threshold => buf.put_u8(1),
    }
    buf.put_u128_le(sig.signers().to_bits());
    put_digest(buf, &sig.agg());
    // Pad to the modeled wire size of the real signature material.
    buf.put_bytes(0, total - CombinedSig::MIN_WIRE_LEN);
}

fn put_parsig<W: Wire>(buf: &mut W, p: &PartialSig) {
    buf.put_u64_le(p.signer() as u64);
    put_digest(buf, &p.tag());
    // Pad the 32-byte tag to a conventional 64-byte signature.
    buf.put_bytes(0, PartialSig::WIRE_LEN - 8 - 32);
    buf.authenticators(1);
}

fn put_phase<W: Wire>(buf: &mut W, p: Phase) {
    buf.put_u8(match p {
        Phase::PrePrepare => 0,
        Phase::Prepare => 1,
        Phase::PreCommit => 2,
        Phase::Commit => 3,
    });
}

fn put_kind<W: Wire>(buf: &mut W, k: BlockKind) {
    buf.put_u8(match k {
        BlockKind::Normal => 0,
        BlockKind::Virtual => 1,
    });
}

fn put_digest<W: Wire>(buf: &mut W, d: &Digest) {
    buf.put_slice(d.as_bytes());
}

// ---------------------------------------------------------------- get --

/// Validates an untrusted element count before it sizes an allocation:
/// each element occupies at least `min_item` wire bytes, so any count
/// whose minimum encoding exceeds the remaining buffer is a lie.
fn bounded_count(buf: &&[u8], count: usize, min_item: usize, what: &'static str) -> Result<usize> {
    let max = buf.len() / min_item.max(1);
    if count > max {
        return Err(DecodeError::FieldTooLarge {
            what,
            len: count,
            max,
        });
    }
    Ok(count)
}

fn need(buf: &&[u8], n: usize) -> Result<()> {
    if buf.len() < n {
        Err(DecodeError::UnexpectedEnd)
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    need(buf, 2)?;
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn get_u128(buf: &mut &[u8]) -> Result<u128> {
    need(buf, 16)?;
    Ok(buf.get_u128_le())
}

fn get_digest(buf: &mut &[u8]) -> Result<Digest> {
    need(buf, 32)?;
    let mut bytes = [0u8; 32];
    buf.copy_to_slice(&mut bytes);
    Ok(Digest::from_bytes(bytes))
}

fn get_message(frame: &Bytes, buf: &mut &[u8]) -> Result<Message> {
    let from = ReplicaId(get_u32(buf)?);
    let view = View(get_u64(buf)?);
    let tag = get_u8(buf)?;
    let body = match tag {
        0 => MsgBody::Proposal(get_proposal(frame, buf)?),
        1 => MsgBody::Vote(get_vote(buf)?),
        2 => MsgBody::ViewChange(get_view_change(buf)?),
        3 => MsgBody::Decide(Decide {
            commit_qc: get_qc(buf)?,
        }),
        4 => MsgBody::FetchRequest {
            block: BlockId::from_digest(get_digest(buf)?),
        },
        5 => {
            let block = get_block(frame, buf, None)?;
            let has_parent = get_u8(buf)?;
            let digest = get_digest(buf)?;
            let virtual_parent = match has_parent {
                0 => None,
                1 => Some(BlockId::from_digest(digest)),
                t => {
                    return Err(DecodeError::BadTag {
                        what: "FetchResponse.virtual_parent",
                        tag: t,
                    })
                }
            };
            MsgBody::FetchResponse {
                block,
                virtual_parent,
            }
        }
        6 => MsgBody::CatchUpRequest {
            last_committed: Height(get_u64(buf)?),
        },
        7 => MsgBody::CatchUpResponse {
            commit_qc: match get_u8(buf)? {
                0 => None,
                1 => Some(get_qc(buf)?),
                t => {
                    return Err(DecodeError::BadTag {
                        what: "CatchUpResponse.commit_qc",
                        tag: t,
                    })
                }
            },
        },
        8 => MsgBody::SnapshotRequest,
        9 => MsgBody::SnapshotResponse {
            snapshot: match get_u8(buf)? {
                0 => None,
                1 => {
                    let block = get_block(frame, buf, None)?;
                    let qc = get_qc(buf)?;
                    Some((block, qc))
                }
                t => {
                    return Err(DecodeError::BadTag {
                        what: "SnapshotResponse.snapshot",
                        tag: t,
                    })
                }
            },
        },
        10 => MsgBody::BlockRangeRequest {
            from_height: Height(get_u64(buf)?),
            to_height: Height(get_u64(buf)?),
        },
        11 => {
            let from_height = Height(get_u64(buf)?);
            let count = get_u16(buf)? as usize;
            // A block occupies at least what genesis does: its fixed
            // header, an empty justify and an empty batch.
            let min = Block::genesis().wire_len();
            let count = bounded_count(buf, count, min, "BlockRangeResponse.blocks")?;
            let mut blocks = Vec::with_capacity(count);
            for _ in 0..count {
                blocks.push(get_block(frame, buf, None)?);
            }
            MsgBody::BlockRangeResponse {
                from_height,
                blocks,
            }
        }
        12 => MsgBody::PayloadPush {
            digest: BatchId::from_digest(get_digest(buf)?),
            batch: get_batch(frame, buf)?,
        },
        13 => MsgBody::PayloadAck {
            digest: BatchId::from_digest(get_digest(buf)?),
        },
        14 => MsgBody::PayloadRequest {
            digest: BatchId::from_digest(get_digest(buf)?),
        },
        15 => MsgBody::PayloadResponse {
            digest: BatchId::from_digest(get_digest(buf)?),
            batch: match get_u8(buf)? {
                0 => None,
                1 => Some(get_batch(frame, buf)?),
                t => {
                    return Err(DecodeError::BadTag {
                        what: "PayloadResponse.batch",
                        tag: t,
                    })
                }
            },
        },
        16 => MsgBody::DigestProposal {
            digest: BatchId::from_digest(get_digest(buf)?),
            justify: get_justify(buf)?,
        },
        t => {
            return Err(DecodeError::BadTag {
                what: "MsgBody",
                tag: t,
            })
        }
    };
    Ok(Message { from, view, body })
}

fn get_proposal(frame: &Bytes, buf: &mut &[u8]) -> Result<Proposal> {
    let phase = get_phase(buf)?;
    let count_byte = get_u8(buf)?;
    let dedup = count_byte & 0x80 != 0;
    let count = (count_byte & 0x7f) as usize;
    if count > 2 {
        return Err(DecodeError::BadTag {
            what: "Proposal.blocks",
            tag: count_byte,
        });
    }
    let mut blocks: Vec<Block> = Vec::with_capacity(count);
    for i in 0..count {
        let shared = (dedup && i == 1).then(|| blocks[0].payload().clone());
        blocks.push(get_block(frame, buf, shared)?);
    }
    let justify = get_justify(buf)?;
    let proof_len = get_u16(buf)? as usize;
    // Each cert carries at least a replica id and a full signature.
    let proof_len = bounded_count(buf, proof_len, 4 + SIGNATURE_LEN, "Proposal.vc_proof")?;
    let mut vc_proof = Vec::with_capacity(proof_len);
    for _ in 0..proof_len {
        let from = ReplicaId(get_u32(buf)?);
        let high_qc = get_qc(buf)?;
        need(buf, SIGNATURE_LEN)?;
        let mut sig_bytes = [0u8; SIGNATURE_LEN];
        buf.copy_to_slice(&mut sig_bytes);
        vc_proof.push(VcCert {
            from,
            high_qc,
            sig: Signature::from_bytes(sig_bytes),
        });
    }
    Ok(Proposal {
        phase,
        blocks,
        justify,
        vc_proof,
    })
}

fn get_vote(buf: &mut &[u8]) -> Result<Vote> {
    let seed = get_seed(buf)?;
    let parsig = get_parsig(buf)?;
    let locked_qc = match get_u8(buf)? {
        0 => None,
        1 => Some(get_qc(buf)?),
        t => {
            return Err(DecodeError::BadTag {
                what: "Vote.locked_qc",
                tag: t,
            })
        }
    };
    Ok(Vote {
        seed,
        parsig,
        locked_qc,
    })
}

fn get_view_change(buf: &mut &[u8]) -> Result<ViewChange> {
    let last_voted = get_block_meta(buf)?;
    let high_qc = get_justify(buf)?;
    let parsig = get_parsig(buf)?;
    let cert = match get_u8(buf)? {
        0 => None,
        1 => {
            need(buf, SIGNATURE_LEN)?;
            let mut bytes = [0u8; SIGNATURE_LEN];
            buf.copy_to_slice(&mut bytes);
            Some(Signature::from_bytes(bytes))
        }
        t => {
            return Err(DecodeError::BadTag {
                what: "ViewChange.cert",
                tag: t,
            })
        }
    };
    Ok(ViewChange {
        last_voted,
        high_qc,
        parsig,
        cert,
    })
}

/// `shared_payload` carries the first shadow block's batch when decoding
/// the payload-less second block of a deduplicated proposal.
fn get_block(frame: &Bytes, buf: &mut &[u8], shared_payload: Option<Batch>) -> Result<Block> {
    let parent_tag = get_u8(buf)?;
    let parent_digest = get_digest(buf)?;
    let pview = View(get_u64(buf)?);
    let view = View(get_u64(buf)?);
    let height = Height(get_u64(buf)?);
    let justify = get_justify(buf)?;
    let payload = match shared_payload {
        Some(p) => p,
        None => get_batch(frame, buf)?,
    };
    let block = match parent_tag {
        1 => Block::new_normal(
            BlockId::from_digest(parent_digest),
            pview,
            view,
            height,
            payload,
            justify,
        ),
        0 => {
            if view == View::GENESIS && height == Height::GENESIS {
                Block::genesis()
            } else {
                Block::new_virtual(pview, view, height, payload, justify)
            }
        }
        t => {
            return Err(DecodeError::BadTag {
                what: "ParentLink",
                tag: t,
            })
        }
    };
    Ok(block)
}

/// Payloads come out as slices of `frame`, which `buf` must be walking.
fn get_batch(frame: &Bytes, buf: &mut &[u8]) -> Result<Batch> {
    let count = get_u32(buf)? as usize;
    let count = bounded_count(buf, count, Transaction::HEADER_LEN, "Batch.count")?;
    let mut txs = Vec::with_capacity(count);
    for _ in 0..count {
        let id = get_u64(buf)?;
        let client = get_u32(buf)?;
        let len = get_u32(buf)? as usize;
        let submitted_at_ns = get_u64(buf)?;
        need(buf, len)?;
        let payload = frame.slice_ref(&buf[..len]);
        buf.advance(len);
        txs.push(Transaction::new(id, client, payload, submitted_at_ns));
    }
    Ok(Batch::new(txs))
}

/// Deserializes a [`BlockMeta`] written by [`put_block_meta`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on a truncated or malformed buffer.
pub fn get_block_meta(buf: &mut &[u8]) -> Result<BlockMeta> {
    Ok(BlockMeta {
        id: BlockId::from_digest(get_digest(buf)?),
        view: View(get_u64(buf)?),
        height: Height(get_u64(buf)?),
        pview: View(get_u64(buf)?),
        kind: get_kind(buf)?,
        rank_boost: get_u8(buf)? != 0,
    })
}

/// Deserializes a [`Justify`] written by [`put_justify`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on a truncated or malformed buffer.
pub fn get_justify(buf: &mut &[u8]) -> Result<Justify> {
    match get_u8(buf)? {
        0 => Ok(Justify::None),
        1 => Ok(Justify::One(get_qc(buf)?)),
        2 => Ok(Justify::Two(get_qc(buf)?, get_qc(buf)?)),
        t => Err(DecodeError::BadTag {
            what: "Justify",
            tag: t,
        }),
    }
}

/// Deserializes a [`Qc`] written by [`put_qc`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on a truncated or malformed buffer.
pub fn get_qc(buf: &mut &[u8]) -> Result<Qc> {
    let seed = get_seed(buf)?;
    let sig = get_combined_sig(buf)?;
    Ok(Qc::new(seed, sig))
}

/// Deserializes a full [`Block`] written by [`put_block_full`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on a truncated or malformed buffer.
pub fn get_block_full(buf: &mut &[u8]) -> Result<Block> {
    // Stored bytes have no refcounted frame behind them: copy them into
    // one, once, and decode that like any wire frame.
    let frame = Bytes::copy_from_slice(buf);
    let mut rest = &frame[..];
    let block = get_block(&frame, &mut rest, None);
    buf.advance(frame.len() - rest.len());
    block
}

fn get_seed(buf: &mut &[u8]) -> Result<QcSeed> {
    Ok(QcSeed {
        phase: get_phase(buf)?,
        view: View(get_u64(buf)?),
        block: BlockId::from_digest(get_digest(buf)?),
        height: Height(get_u64(buf)?),
        block_view: View(get_u64(buf)?),
        pview: View(get_u64(buf)?),
        block_kind: get_kind(buf)?,
    })
}

fn get_combined_sig(buf: &mut &[u8]) -> Result<CombinedSig> {
    let format = match get_u8(buf)? {
        0 => QcFormat::SigGroup,
        1 => QcFormat::Threshold,
        t => {
            return Err(DecodeError::BadTag {
                what: "QcFormat",
                tag: t,
            })
        }
    };
    let bitmap = SignerBitmap::from_bits(get_u128(buf)?);
    let agg = get_digest(buf)?;
    let sig = CombinedSig::from_parts(format, bitmap, agg);
    let pad = sig.wire_len() - CombinedSig::MIN_WIRE_LEN;
    need(buf, pad)?;
    buf.advance(pad);
    Ok(sig)
}

fn get_parsig(buf: &mut &[u8]) -> Result<PartialSig> {
    let signer = get_u64(buf)? as usize;
    let tag = get_digest(buf)?;
    let pad = PartialSig::WIRE_LEN - 8 - 32;
    need(buf, pad)?;
    buf.advance(pad);
    Ok(PartialSig::from_parts(signer, tag))
}

fn get_phase(buf: &mut &[u8]) -> Result<Phase> {
    match get_u8(buf)? {
        0 => Ok(Phase::PrePrepare),
        1 => Ok(Phase::Prepare),
        2 => Ok(Phase::PreCommit),
        3 => Ok(Phase::Commit),
        t => Err(DecodeError::BadTag {
            what: "Phase",
            tag: t,
        }),
    }
}

fn get_kind(buf: &mut &[u8]) -> Result<BlockKind> {
    match get_u8(buf)? {
        0 => Ok(BlockKind::Normal),
        1 => Ok(BlockKind::Virtual),
        t => Err(DecodeError::BadTag {
            what: "BlockKind",
            tag: t,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_crypto::KeyStore;

    fn keys() -> KeyStore {
        KeyStore::generate(4, 1, 11)
    }

    fn make_qc(keys: &KeyStore, phase: Phase, view: u64, format: QcFormat) -> Qc {
        let seed = QcSeed {
            phase,
            view: View(view),
            block: BlockId::from_digest(marlin_crypto::sha256(&[view as u8])),
            height: Height(view),
            block_view: View(view),
            pview: View(view.saturating_sub(1)),
            block_kind: BlockKind::Normal,
        };
        let partials: Vec<_> = (0..3)
            .map(|i| keys.signer(i).sign_partial(&seed.signing_bytes()))
            .collect();
        Qc::combine(seed, &partials, keys, format).unwrap()
    }

    fn tx(id: u64, len: usize) -> Transaction {
        Transaction::new(id, 1, Bytes::from(vec![id as u8; len]), id * 10)
    }

    fn round_trip(msg: Message, shadow: bool) {
        let encoded = encode_message(&msg, shadow);
        assert_eq!(encoded.len(), msg.wire_len(shadow), "length model broken");
        let decoded = decode_message(&encoded).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn fetch_request_round_trip() {
        round_trip(
            Message::new(
                ReplicaId(2),
                View(4),
                MsgBody::FetchRequest {
                    block: BlockId::GENESIS,
                },
            ),
            false,
        );
    }

    #[test]
    fn vote_round_trip_with_and_without_lock() {
        let ks = keys();
        let qc = make_qc(&ks, Phase::Prepare, 2, QcFormat::Threshold);
        let seed = QcSeed {
            phase: Phase::PrePrepare,
            ..*qc.seed()
        };
        let parsig = ks.signer(1).sign_partial(&seed.signing_bytes());
        for locked in [None, Some(qc)] {
            round_trip(
                Message::new(
                    ReplicaId(1),
                    View(3),
                    MsgBody::Vote(Vote {
                        seed,
                        parsig,
                        locked_qc: locked,
                    }),
                ),
                false,
            );
        }
    }

    #[test]
    fn view_change_round_trip_all_justify_shapes() {
        let ks = keys();
        let qc = make_qc(&ks, Phase::Prepare, 2, QcFormat::SigGroup);
        let pre = make_qc(&ks, Phase::PrePrepare, 2, QcFormat::Threshold);
        let meta = BlockMeta::genesis();
        let parsig = ks.signer(0).sign_partial(b"vc");
        for high_qc in [Justify::None, Justify::One(qc), Justify::Two(pre, qc)] {
            round_trip(
                Message::new(
                    ReplicaId(0),
                    View(3),
                    MsgBody::ViewChange(ViewChange {
                        last_voted: meta,
                        high_qc,
                        parsig,
                        cert: None,
                    }),
                ),
                false,
            );
        }
    }

    #[test]
    fn proposal_round_trip_one_block() {
        let ks = keys();
        let g = Block::genesis();
        let qc = Qc::genesis(g.id());
        let b = Block::new_normal(
            g.id(),
            g.view(),
            View(1),
            g.height().next(),
            Batch::new(vec![tx(1, 150), tx(2, 0)]),
            Justify::One(qc),
        );
        round_trip(
            Message::new(
                ReplicaId(1),
                View(1),
                MsgBody::Proposal(Proposal {
                    phase: Phase::Prepare,
                    blocks: vec![b],
                    justify: Justify::One(make_qc(&ks, Phase::Prepare, 1, QcFormat::Threshold)),
                    vc_proof: Vec::new(),
                }),
            ),
            false,
        );
    }

    #[test]
    fn block_ids_survive_the_wire() {
        // A decoder recomputes every id from the decoded fields, so a
        // sender and a receiver that disagreed on the id preimage would
        // vote for different blocks. Normal, virtual and shadow (payload
        // shared on the wire) blocks, payloads from empty to larger than
        // the id hasher's staging buffer, one- and two-QC justifies.
        let g = Block::genesis();
        let qc = Qc::genesis(g.id());
        let payload = Batch::new(vec![tx(1, 150), tx(2, 0), tx(3, 9000), tx(4, 1)]);
        let normal = Block::new_normal(
            g.id(),
            g.view(),
            View(3),
            g.height().next(),
            payload.clone(),
            Justify::One(qc),
        );
        let virt = Block::new_virtual(
            g.view(),
            View(3),
            g.height().plus(2),
            payload,
            Justify::Two(qc, qc),
        );
        let empty = Block::new_normal(
            normal.id(),
            normal.view(),
            View(3),
            normal.height().next(),
            Batch::empty(),
            Justify::None,
        );
        for blocks in [vec![normal.clone()], vec![empty], vec![normal, virt]] {
            let ids: Vec<BlockId> = blocks.iter().map(Block::id).collect();
            let msg = Message::new(
                ReplicaId(0),
                View(3),
                MsgBody::Proposal(Proposal {
                    phase: Phase::PrePrepare,
                    blocks,
                    justify: Justify::One(qc),
                    vc_proof: Vec::new(),
                }),
            );
            for shadow in [false, true] {
                let dec = decode_message(&encode_message(&msg, shadow)).unwrap();
                let MsgBody::Proposal(p) = &dec.body else {
                    panic!("decoded a different message class");
                };
                let got: Vec<BlockId> = p.blocks.iter().map(Block::id).collect();
                assert_eq!(got, ids, "shadow={shadow}");
            }
        }
    }

    #[test]
    fn shadow_proposal_round_trip_preserves_blocks() {
        let g = Block::genesis();
        let payload = Batch::new(vec![tx(1, 150)]);
        let qc = Qc::genesis(g.id());
        let b1 = Block::new_normal(
            g.id(),
            g.view(),
            View(2),
            g.height().next(),
            payload.clone(),
            Justify::One(qc),
        );
        let b2 = Block::new_virtual(
            g.view(),
            View(2),
            g.height().plus(2),
            payload,
            Justify::One(qc),
        );
        let msg = Message::new(
            ReplicaId(2),
            View(2),
            MsgBody::Proposal(Proposal {
                phase: Phase::PrePrepare,
                blocks: vec![b1.clone(), b2.clone()],
                justify: Justify::One(qc),
                vc_proof: Vec::new(),
            }),
        );
        for shadow in [false, true] {
            let enc = encode_message(&msg, shadow);
            assert_eq!(enc.len(), msg.wire_len(shadow));
            let dec = decode_message(&enc).unwrap();
            assert_eq!(dec, msg, "shadow={shadow}");
            // Decoded ids must match (payload reconstruction is faithful).
            if let MsgBody::Proposal(p) = &dec.body {
                assert_eq!(p.blocks[0].id(), b1.id());
                assert_eq!(p.blocks[1].id(), b2.id());
            }
        }
    }

    #[test]
    fn jolteon_proof_round_trip() {
        let ks = keys();
        let qc = make_qc(&ks, Phase::Prepare, 3, QcFormat::Threshold);
        let certs: Vec<VcCert> = (0..3)
            .map(|i| {
                let bytes = VcCert::signing_bytes(ReplicaId(i), View(4), &qc);
                VcCert {
                    from: ReplicaId(i),
                    high_qc: qc,
                    sig: ks.signer(i as usize).sign(&bytes),
                }
            })
            .collect();
        round_trip(
            Message::new(
                ReplicaId(0),
                View(4),
                MsgBody::Proposal(Proposal {
                    phase: Phase::Prepare,
                    blocks: Vec::new(),
                    justify: Justify::One(qc),
                    vc_proof: certs,
                }),
            ),
            false,
        );
    }

    #[test]
    fn decide_and_fetch_response_round_trip() {
        let ks = keys();
        let qc = make_qc(&ks, Phase::Commit, 5, QcFormat::SigGroup);
        round_trip(
            Message::new(
                ReplicaId(0),
                View(5),
                MsgBody::Decide(Decide { commit_qc: qc }),
            ),
            false,
        );
        let g = Block::genesis();
        round_trip(
            Message::new(
                ReplicaId(0),
                View(5),
                MsgBody::FetchResponse {
                    block: g,
                    virtual_parent: Some(BlockId::GENESIS),
                },
            ),
            false,
        );
    }

    #[test]
    fn catch_up_round_trips() {
        let ks = keys();
        let qc = make_qc(&ks, Phase::Commit, 6, QcFormat::Threshold);
        round_trip(
            Message::new(
                ReplicaId(2),
                View(6),
                MsgBody::CatchUpRequest {
                    last_committed: Height(17),
                },
            ),
            false,
        );
        for commit_qc in [None, Some(qc)] {
            round_trip(
                Message::new(
                    ReplicaId(1),
                    View(6),
                    MsgBody::CatchUpResponse { commit_qc },
                ),
                false,
            );
        }
    }

    #[test]
    fn sync_messages_round_trip() {
        let ks = keys();
        let qc = make_qc(&ks, Phase::Commit, 9, QcFormat::Threshold);
        round_trip(
            Message::new(ReplicaId(3), View(9), MsgBody::SnapshotRequest),
            false,
        );
        let g = Block::genesis();
        let anchor = Block::new_normal(
            g.id(),
            g.view(),
            View(9),
            g.height().next(),
            Batch::new(vec![tx(1, 40)]),
            Justify::One(Qc::genesis(g.id())),
        );
        for snapshot in [None, Some((anchor.clone(), qc))] {
            round_trip(
                Message::new(
                    ReplicaId(0),
                    View(9),
                    MsgBody::SnapshotResponse { snapshot },
                ),
                false,
            );
        }
        round_trip(
            Message::new(
                ReplicaId(2),
                View(9),
                MsgBody::BlockRangeRequest {
                    from_height: Height(100),
                    to_height: Height(131),
                },
            ),
            false,
        );
        for blocks in [
            vec![],
            vec![anchor.clone()],
            vec![anchor.clone(), g.clone()],
        ] {
            round_trip(
                Message::new(
                    ReplicaId(1),
                    View(9),
                    MsgBody::BlockRangeResponse {
                        from_height: Height(100),
                        blocks,
                    },
                ),
                false,
            );
        }
    }

    #[test]
    fn payload_messages_round_trip() {
        let ks = keys();
        let batch = Batch::new(vec![tx(1, 150), tx(2, 0), tx(3, 33)]);
        let digest = batch.digest();
        round_trip(
            Message::new(
                ReplicaId(2),
                View(7),
                MsgBody::PayloadPush {
                    digest,
                    batch: batch.clone(),
                },
            ),
            false,
        );
        round_trip(
            Message::new(ReplicaId(0), View(7), MsgBody::PayloadAck { digest }),
            false,
        );
        round_trip(
            Message::new(ReplicaId(1), View(8), MsgBody::PayloadRequest { digest }),
            false,
        );
        for batch in [None, Some(batch)] {
            round_trip(
                Message::new(
                    ReplicaId(3),
                    View(8),
                    MsgBody::PayloadResponse { digest, batch },
                ),
                false,
            );
        }
        for justify in [
            Justify::One(Qc::genesis(BlockId::GENESIS)),
            Justify::One(make_qc(&ks, Phase::Prepare, 7, QcFormat::Threshold)),
        ] {
            round_trip(
                Message::new(
                    ReplicaId(2),
                    View(8),
                    MsgBody::DigestProposal { digest, justify },
                ),
                false,
            );
        }
    }

    #[test]
    fn payload_push_lying_count_rejected() {
        // A batch count claiming more transactions than the buffer can
        // back must fail before sizing an allocation.
        let batch = Batch::new(vec![tx(1, 10)]);
        let msg = Message::new(
            ReplicaId(1),
            View(2),
            MsgBody::PayloadPush {
                digest: batch.digest(),
                batch,
            },
        );
        let mut enc = encode_message(&msg, false).to_vec();
        // Batch count sits right after the 13-byte header + 32-byte digest.
        let count_at = 13 + 32;
        enc[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_message(&enc.into()),
            Err(DecodeError::FieldTooLarge { .. })
        ));
    }

    #[test]
    fn payload_message_decode_never_panics() {
        // Deterministic mutation fuzz over the new wire tags: every
        // truncation and byte flip must decode to Ok or a clean error.
        let ks = keys();
        let batch = Batch::new(vec![tx(1, 150), tx(2, 7)]);
        let digest = batch.digest();
        let bodies = vec![
            MsgBody::PayloadPush {
                digest,
                batch: batch.clone(),
            },
            MsgBody::PayloadAck { digest },
            MsgBody::PayloadRequest { digest },
            MsgBody::PayloadResponse {
                digest,
                batch: Some(batch),
            },
            MsgBody::DigestProposal {
                digest,
                justify: Justify::One(make_qc(&ks, Phase::Prepare, 3, QcFormat::SigGroup)),
            },
        ];
        let mut rng: u64 = 0x9e3779b97f4a7c15;
        for body in bodies {
            let enc = encode_message(&Message::new(ReplicaId(1), View(3), body), false);
            for cut in 0..enc.len() {
                let _ = decode_message(&enc.slice(..cut));
            }
            for _ in 0..256 {
                let mut mutated = enc.to_vec();
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let at = (rng >> 33) as usize % mutated.len();
                mutated[at] ^= (rng >> 17) as u8 | 1;
                let _ = decode_message(&mutated.into());
            }
        }
    }

    #[test]
    fn block_range_response_lying_count_rejected() {
        // A count prefix claiming more blocks than the buffer can back
        // must fail before sizing an allocation.
        let msg = Message::new(
            ReplicaId(1),
            View(2),
            MsgBody::BlockRangeResponse {
                from_height: Height(5),
                blocks: Vec::new(),
            },
        );
        let mut enc = encode_message(&msg, false).to_vec();
        let count_at = enc.len() - 2;
        enc[count_at] = 0xff;
        enc[count_at + 1] = 0xff;
        assert!(matches!(
            decode_message(&enc.into()),
            Err(DecodeError::FieldTooLarge { .. })
        ));
    }

    #[test]
    fn genesis_block_round_trips_as_genesis() {
        let msg = Message::new(
            ReplicaId(0),
            View(0),
            MsgBody::FetchResponse {
                block: Block::genesis(),
                virtual_parent: None,
            },
        );
        let dec = decode_message(&encode_message(&msg, false)).unwrap();
        if let MsgBody::FetchResponse { block, .. } = dec.body {
            assert!(block.is_genesis());
            assert_eq!(block.id(), BlockId::GENESIS);
        } else {
            panic!("wrong body");
        }
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let ks = keys();
        let qc = make_qc(&ks, Phase::Commit, 5, QcFormat::Threshold);
        let msg = Message::new(
            ReplicaId(0),
            View(5),
            MsgBody::Decide(Decide { commit_qc: qc }),
        );
        let enc = encode_message(&msg, false);
        for cut in [0, 1, 12, 13, 20, enc.len() - 1] {
            assert!(decode_message(&enc.slice(..cut)).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_tags_error_cleanly() {
        let msg = Message::new(
            ReplicaId(0),
            View(1),
            MsgBody::FetchRequest {
                block: BlockId::GENESIS,
            },
        );
        let mut enc = encode_message(&msg, false).to_vec();
        enc[12] = 99; // body tag
        assert_eq!(
            decode_message(&enc.into()),
            Err(DecodeError::BadTag {
                what: "MsgBody",
                tag: 99
            })
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let msg = Message::new(
            ReplicaId(0),
            View(1),
            MsgBody::FetchRequest {
                block: BlockId::GENESIS,
            },
        );
        let mut enc = encode_message(&msg, false).to_vec();
        enc.push(0);
        assert_eq!(
            decode_message(&enc.into()),
            Err(DecodeError::TrailingBytes(1))
        );
    }
}
