//! Compact binary wire codec.
//!
//! Every wire type has one [`Codec`] impl, its two halves side by side:
//! `put` writes into a [`Wire`] sink, `get` reads from a [`Decoder`].
//! Field walks and tag tables get both halves from one list through
//! [`codec!`](crate::codec!); the rest are hand-written pairs, each with
//! its reason. A private meter runs the same `put` to count the bytes
//! and authenticators every `wire_len`/`authenticator_count` reports.
//! Combined signatures are padded to their modeled format size (a real
//! 96-byte BLS signature or `t × 64` bytes of ECDSA signatures carry more
//! entropy than our simulated aggregates).

use crate::block::{Block, BlockId, BlockKind, BlockMeta, Justify};
use crate::ids::{Height, ReplicaId, View};
use crate::message::{Decide, Message, MsgBody, Proposal, VcCert, ViewChange, Vote};
use crate::qc::{Phase, Qc, QcSeed};
use crate::transaction::{Batch, BatchId, Transaction};
use bytes::{BufMut, Bytes, BytesMut};
use marlin_crypto::{
    CombinedSig, Digest, PartialSig, QcFormat, Signature, SignerBitmap, SIGNATURE_LEN,
};
use std::fmt;

/// Hard ceiling on a single wire frame, checked before any decoding: it
/// fits the paper's largest proposal (two 16k-transaction blocks at ~174
/// wire bytes each is ~5.6 MiB un-shadowed) while bounding what one
/// untrusted frame can make a replica allocate.
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
    /// A length or count above what the frame can back (checked before
    /// it sizes an allocation), or a frame or a view above its ceiling.
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

/// The result of a decode.
pub type Result<T> = std::result::Result<T, DecodeError>;

fn bad_tag<T>(what: &'static str, tag: u8) -> Result<T> {
    Err(DecodeError::BadTag { what, tag })
}

fn too_large<T>(what: &'static str, len: impl TryInto<usize>, max: usize) -> Result<T> {
    let len = len.try_into().unwrap_or(usize::MAX);
    Err(DecodeError::FieldTooLarge { what, len, max })
}

/// Encodes a message into its wire form. With `shadow` enabled, the
/// second block of a two-block proposal sharing the first's payload is
/// serialized without its operations (the shadow-block optimisation).
pub fn encode_message(msg: &Message, shadow: bool) -> Bytes {
    let buf = BytesMut::with_capacity(msg.wire_len(shadow));
    let mut frame = Frame { buf, shadow };
    msg.put(&mut frame);
    frame.buf.freeze()
}

/// Decodes a message previously produced by [`encode_message`].
///
/// # Errors
///
/// A [`DecodeError`] if the buffer is truncated, malformed, oversized
/// (see [`MAX_FRAME_LEN`]) or has trailing bytes. Never panics and never
/// allocates more than the input can back, on any byte string. Every
/// non-empty payload of the result is a slice of `frame`, not a copy.
pub fn decode_message(frame: &Bytes) -> Result<Message> {
    decode(frame)
}

/// Encodes `value` into a fresh buffer: the form durable records take.
pub fn encode(value: &impl Codec) -> BytesMut {
    let mut buf = BytesMut::new();
    value.put(&mut buf);
    buf
}

/// Decodes one whole `T` from `frame`, under the same bounds and errors
/// as [`decode_message`].
pub fn decode<T: Codec>(frame: &Bytes) -> Result<T> {
    let mut d = Decoder::new(frame)?;
    let value = T::get(&mut d)?;
    d.finish()?;
    Ok(value)
}

/// A type's wire layout: both halves of it, side by side.
pub trait Codec: Sized {
    /// Writes the value.
    fn put<W: Wire>(&self, w: &mut W);
    /// Reads a value written by [`Codec::put`].
    fn get(d: &mut Decoder<'_>) -> Result<Self>;
}

/// A sink the encoder writes into: raw bytes, plus hooks whose defaults
/// are what a plain writer does. `put` is monomorphised per sink, so a
/// [`BytesMut`] pays nothing for sharing the encoder with the meter.
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

    /// Whether a two-block proposal whose blocks share one payload
    /// writes it once (the shadow-block optimisation, Section IV-D).
    fn shadow(&self) -> bool {
        false
    }
}

impl Wire for BytesMut {}

/// A message being written: its bytes, and whether a two-block proposal
/// takes its shadow form.
struct Frame {
    buf: BytesMut,
    shadow: bool,
}

impl BufMut for Frame {
    fn put_slice(&mut self, slice: &[u8]) {
        self.buf.put_slice(slice);
    }
    fn put_bytes(&mut self, val: u8, count: usize) {
        self.buf.put_bytes(val, count);
    }
}

impl Wire for Frame {
    fn shadow(&self) -> bool {
        self.shadow
    }
}

/// The counting sink: what the encoder would write, without writing it.
#[derive(Default)]
pub(crate) struct Meter {
    pub(crate) bytes: usize,
    pub(crate) authenticators: usize,
    shadow: bool,
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
    fn shadow(&self) -> bool {
        self.shadow
    }
}

/// What encoding `value` writes, counted.
pub(crate) fn measure(value: &impl Codec, shadow: bool) -> Meter {
    let mut meter = Meter {
        shadow,
        ..Meter::default()
    };
    value.put(&mut meter);
    meter
}

/// A cursor over one frame: the frame, and the part of it not yet
/// read. It owns every decode bound — the frame ceiling, the end of
/// input, counts checked before they size an allocation, trailing bytes
/// — and hands out payloads as slices of the frame.
pub struct Decoder<'a> {
    frame: &'a Bytes,
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// A decoder at the start of `frame`, if it fits [`MAX_FRAME_LEN`].
    pub(crate) fn new(frame: &'a Bytes) -> Result<Self> {
        if frame.len() > MAX_FRAME_LEN {
            return too_large("frame", frame.len(), MAX_FRAME_LEN);
        }
        Ok(Decoder { frame, rest: frame })
    }

    /// The next `n` bytes, or `UnexpectedEnd` (before any allocation).
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes.
    #[inline]
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// The next `len` bytes as a slice of the frame, sharing its storage.
    #[inline]
    pub(crate) fn slice(&mut self, len: usize) -> Result<Bytes> {
        let start = self.frame.len() - self.rest.len();
        self.take(len)?;
        Ok(self.frame.slice(start..start + len))
    }

    /// `count` elements of at least `min_item` bytes each, refused if
    /// the rest of the frame cannot back them.
    pub(crate) fn count(&self, count: usize, min_item: usize, what: &'static str) -> Result<usize> {
        match self.rest.len() / min_item.max(1) {
            max if count > max => too_large(what, count, max),
            _ => Ok(count),
        }
    }

    /// Ends the decode, refusing unread bytes.
    pub(crate) fn finish(self) -> Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

/// Writes both halves of [`Codec`] for a type from one list:
/// `struct T { a, b }` (or `{ 0 }` for a newtype) walks its fields;
/// `enum T { 0 => A, 1 => B(x, y: Via), 2 => C { a, b: Via } }` writes
/// the tag byte, then the variant's fields, and refuses any other tag
/// with [`DecodeError::BadTag`] naming `T`. A field `b: Via` is not a walk:
/// it goes through the hand-written pair `Via::put(&b, w)`/`Via::get(d)`.
/// `get` is `#[inline]`: the walks are small and not generic, and without
/// the hint decoding a vote crossed codegen units and took 1.4× as long.
#[macro_export]
macro_rules! codec {
    (struct $ty:ident { $($f:tt),* $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn put<W: $crate::codec::Wire>(&self, w: &mut W) {
                $($crate::codec::Codec::put(&self.$f, w);)*
            }
            #[inline]
            fn get(d: &mut $crate::codec::Decoder<'_>) -> $crate::codec::Result<Self> {
                Ok($ty { $($f: $crate::codec::Codec::get(d)?,)* })
            }
        }
    };
    (enum $ty:ident {
        $($tag:literal => $var:ident $(($($t:ident $(: $tvia:ty)?),*))? $({ $($f:ident $(: $via:ty)?),* })?),*
        $(,)?
    }) => {
        impl $crate::codec::Codec for $ty {
            fn put<W: $crate::codec::Wire>(&self, w: &mut W) {
                match self {
                    $($ty::$var $(($($t),*))? $({ $($f),* })? => {
                        w.put_u8($tag);
                        $($($crate::codec!(@put w, $t $(, $tvia)?);)*)?
                        $($($crate::codec!(@put w, $f $(, $via)?);)*)?
                    })*
                }
            }
            #[inline]
            fn get(d: &mut $crate::codec::Decoder<'_>) -> $crate::codec::Result<Self> {
                Ok(match <u8 as $crate::codec::Codec>::get(d)? {
                    $($tag => {
                        $($(let $t = $crate::codec!(@get d $(, $tvia)?);)*)?
                        $($(let $f = $crate::codec!(@get d $(, $via)?);)*)?
                        $ty::$var $(($($t),*))? $({ $($f),* })?
                    })*
                    tag => return Err($crate::codec::DecodeError::BadTag { what: stringify!($ty), tag }),
                })
            }
        }
    };
    (@put $w:ident, $x:expr) => { $crate::codec::Codec::put($x, $w) };
    (@put $w:ident, $x:expr, $via:ty) => { <$via>::put($x, $w) };
    (@get $d:ident) => { $crate::codec::Codec::get($d)? };
    (@get $d:ident, $via:ty) => { <$via>::get($d)? };
}

codec!(struct ReplicaId { 0 });
codec!(struct Height { 0 });
codec!(struct BlockId { 0 });
codec!(struct BatchId { 0 });
codec!(enum Phase { 0 => PrePrepare, 1 => Prepare, 2 => PreCommit, 3 => Commit });
codec!(enum BlockKind { 0 => Normal, 1 => Virtual });
codec!(enum QcFormat { 0 => SigGroup, 1 => Threshold });
codec!(enum Justify { 0 => None, 1 => One(qc), 2 => Two(qc, vc) });
codec!(struct QcSeed { phase, view, block, height, block_view, pview, block_kind });
codec!(struct BlockMeta { id, view, height, pview, kind, rank_boost });
codec!(struct Vote { seed, parsig, locked_qc });
codec!(struct ViewChange { last_voted, high_qc, parsig, cert });
codec!(struct VcCert { from, high_qc, sig });
codec!(struct Decide { commit_qc });
codec!(struct Message { from, view, body });
codec!(enum MsgBody {
    0 => Proposal(p),
    1 => Vote(v),
    2 => ViewChange(vc),
    3 => Decide(x),
    4 => FetchRequest { block },
    5 => FetchResponse { block, virtual_parent: FixedParent },
    6 => CatchUpRequest { last_committed },
    7 => CatchUpResponse { commit_qc },
    8 => SnapshotRequest,
    9 => SnapshotResponse { snapshot },
    10 => BlockRangeRequest { from_height, to_height },
    11 => BlockRangeResponse { from_height, blocks: BlockRange },
    12 => PayloadPush { digest, batch },
    13 => PayloadAck { digest },
    14 => PayloadRequest { digest },
    15 => PayloadResponse { digest, batch },
    16 => DigestProposal { digest, justify },
});

macro_rules! little_endian {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn put<W: Wire>(&self, w: &mut W) {
                w.put_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(d: &mut Decoder<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(d.array()?))
            }
        }
    )*};
}

little_endian!(u8, u16, u32, u64, u128);

/// One byte; any non-zero byte reads as `true`.
impl Codec for bool {
    fn put<W: Wire>(&self, w: &mut W) {
        (*self as u8).put(w);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(u8::get(d)? != 0)
    }
}

impl Codec for Digest {
    fn put<W: Wire>(&self, w: &mut W) {
        w.put_slice(self.as_bytes());
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(Digest::from_bytes(d.array()?))
    }
}

/// A `u64`, refused above [`View::MAX`] wherever it is read: in a frame
/// header, a QC seed, a block, or a journal record on replay (a replica
/// never enters, so never journals, a view above it).
impl Codec for View {
    fn put<W: Wire>(&self, w: &mut W) {
        self.0.put(w);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        match u64::get(d)? {
            v if v <= View::MAX.0 => Ok(View(v)),
            v => too_large("View", v, View::MAX.0 as usize),
        }
    }
}

/// Tag 0, or tag 1 and the value.
impl<T: Codec> Codec for Option<T> {
    fn put<W: Wire>(&self, w: &mut W) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => T::get(d).map(Some),
            tag => bad_tag("Option", tag),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put<W: Wire>(&self, w: &mut W) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// 64 signature bytes, one authenticator.
impl Codec for Signature {
    fn put<W: Wire>(&self, w: &mut W) {
        w.put_slice(&self.to_bytes());
        w.authenticators(1);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(Signature::from_bytes(d.array()?))
    }
}

/// Signer and tag padded to a 64-byte signature; one authenticator.
impl Codec for PartialSig {
    fn put<W: Wire>(&self, w: &mut W) {
        (self.signer() as u64).put(w);
        self.tag().put(w);
        w.put_bytes(0, PartialSig::WIRE_LEN - 40);
        w.authenticators(1);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        let (signer, tag) = (u64::get(d)? as usize, Digest::get(d)?);
        d.take(PartialSig::WIRE_LEN - 40)?;
        Ok(PartialSig::from_parts(signer, tag))
    }
}

/// Format, signers and aggregate, padded to the format's modeled size;
/// the enclosing [`Qc`] counts its authenticators.
impl Codec for CombinedSig {
    fn put<W: Wire>(&self, w: &mut W) {
        self.format().put(w);
        self.signers().to_bits().put(w);
        self.agg().put(w);
        w.put_bytes(0, self.wire_len() - CombinedSig::MIN_WIRE_LEN);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        let (format, signers) = (QcFormat::get(d)?, SignerBitmap::from_bits(u128::get(d)?));
        let sig = CombinedSig::from_parts(format, signers, Digest::get(d)?);
        d.take(sig.wire_len() - CombinedSig::MIN_WIRE_LEN)?;
        Ok(sig)
    }
}

/// Seed and signature, counted as [`Qc::authenticator_count`] says.
impl Codec for Qc {
    fn put<W: Wire>(&self, w: &mut W) {
        self.seed().put(w);
        self.sig().put(w);
        w.authenticators(self.authenticator_count());
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(Qc::new(QcSeed::get(d)?, CombinedSig::get(d)?))
    }
}

/// Writes through [`Wire::batch`], so the meter reads the memoised
/// length; reads each payload as a slice of the frame.
impl Codec for Batch {
    fn put<W: Wire>(&self, w: &mut W) {
        w.batch(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        let count = u32::get(d)? as usize;
        let count = d.count(count, Transaction::HEADER_LEN, "Batch.count")?;
        let mut txs = Vec::with_capacity(count);
        for _ in 0..count {
            let (id, client, len) = (u64::get(d)?, u32::get(d)?, u32::get(d)?);
            let at = u64::get(d)?;
            txs.push(Transaction::new(id, client, d.slice(len as usize)?, at));
        }
        Ok(Batch::new(txs))
    }
}

/// The id is not on the wire: the decoder recomputes it from the
/// fields, which is what makes a peer's block the one it names.
impl Codec for Block {
    fn put<W: Wire>(&self, w: &mut W) {
        self.write(w, true);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        Block::read(d, None)
    }
}

impl Block {
    /// The block's wire form; a shadow block's (`payload` false) stops
    /// before the payload.
    fn write<W: Wire>(&self, w: &mut W, payload: bool) {
        FixedParent::put(&self.parent_id(), w);
        self.pview().put(w);
        self.view().put(w);
        self.height().put(w);
        self.justify().put(w);
        if payload {
            self.payload().put(w);
        }
    }

    /// Reads a block; a shadow block's payload is `shared`, not read.
    fn read(d: &mut Decoder<'_>, shared: Option<Batch>) -> Result<Block> {
        let parent = FixedParent::get(d)?;
        let (pview, view, height) = (View::get(d)?, View::get(d)?, Height::get(d)?);
        let justify = Justify::get(d)?;
        let payload = shared.map_or_else(|| Batch::get(d), Ok)?;
        Ok(match parent {
            Some(p) => Block::new_normal(p, pview, view, height, payload, justify),
            None if view == View::GENESIS && height == Height::GENESIS => Block::genesis(),
            None => Block::new_virtual(pview, view, height, payload, justify),
        })
    }
}

/// The block count's high bit marks a shadow pair: the second block
/// shares the first one's payload, written once (see [`Wire::shadow`]).
impl Codec for Proposal {
    fn put<W: Wire>(&self, w: &mut W) {
        let b = &self.blocks;
        let shadow = w.shadow() && b.len() == 2 && b[0].payload() == b[1].payload();
        self.phase.put(w);
        (b.len() as u8 | if shadow { 0x80 } else { 0 }).put(w);
        for (i, block) in b.iter().enumerate() {
            block.write(w, !(shadow && i == 1));
        }
        self.justify.put(w);
        (self.vc_proof.len() as u16).put(w);
        self.vc_proof.iter().for_each(|cert| cert.put(w));
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self> {
        let phase = Phase::get(d)?;
        let count = u8::get(d)?;
        if count & 0x7f > 2 {
            return bad_tag("Proposal.blocks", count);
        }
        let mut blocks: Vec<Block> = Vec::with_capacity((count & 0x7f) as usize);
        for i in 0..count & 0x7f {
            let shared = (count & 0x80 != 0 && i == 1).then(|| blocks[0].payload().clone());
            blocks.push(Block::read(d, shared)?);
        }
        let justify = Justify::get(d)?;
        let proofs = u16::get(d)? as usize;
        // Each cert carries at least a replica id and a full signature.
        let proofs = d.count(proofs, 4 + SIGNATURE_LEN, "Proposal.vc_proof")?;
        let vc_proof = (0..proofs).map(|_| VcCert::get(d)).collect::<Result<_>>()?;
        Ok(Proposal {
            phase,
            blocks,
            justify,
            vc_proof,
        })
    }
}

/// A block's parent link, and `FetchResponse.virtual_parent`: a tag,
/// then always 32 bytes, the zero digest for ⊥.
struct FixedParent;

impl FixedParent {
    fn put<W: Wire>(parent: &Option<BlockId>, w: &mut W) {
        parent.is_some().put(w);
        parent.map_or(Digest::ZERO, |p| p.0).put(w);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Option<BlockId>> {
        let (tag, id) = (u8::get(d)?, BlockId::get(d)?);
        match tag {
            0 => Ok(None),
            1 => Ok(Some(id)),
            tag => bad_tag("ParentLink", tag),
        }
    }
}

/// `BlockRangeResponse.blocks`: a `u16` count, bounded before it sizes
/// the vector, then the blocks.
struct BlockRange;

impl BlockRange {
    fn put<W: Wire>(blocks: &[Block], w: &mut W) {
        (blocks.len() as u16).put(w);
        blocks.iter().for_each(|b| b.put(w));
    }
    fn get(d: &mut Decoder<'_>) -> Result<Vec<Block>> {
        let count = u16::get(d)? as usize;
        // A block occupies at least what genesis does: its fixed
        // header, an empty justify and an empty batch.
        let min = Block::genesis().wire_len();
        let count = d.count(count, min, "BlockRangeResponse.blocks")?;
        (0..count).map(|_| Block::get(d)).collect()
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
