//! Decode-never-panics fuzzing: `decode_message` must treat its input
//! as hostile. Arbitrary byte strings, bit-flipped and truncated valid
//! frames, and hand-crafted length bombs must all return a clean
//! `DecodeError` — no panic, and no allocation sized beyond what the
//! received bytes can back ([`MAX_FRAME_LEN`] at the outside). Every
//! input is decoded both as a `Bytes` of its own and as a slice at a
//! non-zero offset of a larger one, which is how payloads see a frame.

use bytes::Bytes;
use marlin_crypto::sha256;
use marlin_types::codec::{decode_message, encode_message, DecodeError, MAX_FRAME_LEN};
use marlin_types::{
    Batch, Block, BlockId, Height, Justify, Message, MsgBody, Phase, Proposal, ReplicaId,
    Transaction, View,
};
use proptest::prelude::*;

/// A small but structurally rich valid frame: a one-block proposal
/// carrying a three-transaction batch.
fn sample_frame() -> Vec<u8> {
    let txs = vec![
        Transaction::new(1, 7, Bytes::from_static(b"pay alice"), 10),
        Transaction::new(2, 7, Bytes::from_static(b"pay bob"), 20),
        Transaction::new(3, 9, Bytes::from_static(b""), 30),
    ];
    let block = Block::new_normal(
        BlockId::from_digest(sha256(b"parent")),
        View(1),
        View(2),
        Height(2),
        Batch::new(txs),
        Justify::None,
    );
    let msg = Message {
        from: ReplicaId(1),
        view: View(2),
        body: MsgBody::Proposal(Proposal {
            phase: Phase::Prepare,
            blocks: vec![block],
            justify: Justify::None,
            vc_proof: Vec::new(),
        }),
    };
    encode_message(&msg, false).to_vec()
}

/// Valid frames for each sync wire message: a populated snapshot
/// response (block + QC) and a two-block range response, plus the two
/// request shapes.
fn sync_frames() -> Vec<Vec<u8>> {
    let block = |h: u64| {
        Block::new_normal(
            BlockId::from_digest(sha256(b"parent")),
            View(1),
            View(2),
            Height(h),
            Batch::new(vec![Transaction::new(1, 7, Bytes::from_static(b"tx"), 10)]),
            Justify::None,
        )
    };
    let qc = marlin_types::Qc::genesis(block(4).id());
    let bodies = vec![
        MsgBody::SnapshotRequest,
        MsgBody::SnapshotResponse {
            snapshot: Some((block(4), qc)),
        },
        MsgBody::SnapshotResponse { snapshot: None },
        MsgBody::BlockRangeRequest {
            from_height: Height(3),
            to_height: Height(19),
        },
        MsgBody::BlockRangeResponse {
            from_height: Height(3),
            blocks: vec![block(3), block(4)],
        },
    ];
    bodies
        .into_iter()
        .map(|body| encode_message(&Message::new(ReplicaId(2), View(2), body), false).to_vec())
        .collect()
}

/// Decodes `bytes` as a frame of its own and as a slice at a non-zero
/// offset of a larger buffer (with bytes after it, too) — the decoder
/// must never look outside the view it was given, so both must agree.
fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
    let whole = decode_message(&Bytes::copy_from_slice(bytes));
    let mut outer = vec![0xA5u8; 7];
    outer.extend_from_slice(bytes);
    outer.extend_from_slice(&[0x5A; 5]);
    let embedded = decode_message(&Bytes::from(outer).slice(7..7 + bytes.len()));
    assert_eq!(whole, embedded);
    whole
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary garbage never panics.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Corrupting any one byte of any sync-message frame never panics;
    /// truncating it anywhere never panics either.
    #[test]
    fn mangled_sync_frames_never_panic(
        which in 0usize..5,
        pos in any::<usize>(),
        bit in 0u8..8,
        cut in any::<usize>(),
    ) {
        let mut frame = sync_frames().swap_remove(which);
        let _ = decode(&frame[..cut % (frame.len() + 1)]);
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        let _ = decode(&frame);
    }

    /// Corrupting any one byte of a valid frame never panics; flipped
    /// length prefixes must fail cleanly, not over-allocate.
    #[test]
    fn flipped_valid_frames_never_panic(pos in any::<usize>(), bit in 0u8..8) {
        let mut frame = sample_frame();
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        let _ = decode(&frame);
    }

    /// Truncating a valid frame at any point never panics.
    #[test]
    fn truncated_valid_frames_never_panic(cut in any::<usize>()) {
        let frame = sample_frame();
        let _ = decode(&frame[..cut % (frame.len() + 1)]);
    }
}

#[test]
fn oversized_frame_rejected_before_decoding() {
    let bytes = Bytes::from(vec![0u8; MAX_FRAME_LEN + 1]);
    assert_eq!(
        decode_message(&bytes),
        Err(DecodeError::FieldTooLarge {
            what: "frame",
            len: MAX_FRAME_LEN + 1,
            max: MAX_FRAME_LEN,
        })
    );
}

/// A frame whose batch header claims `u32::MAX` transactions with no
/// bytes behind them: must be rejected by the count bound, not fed to
/// `Vec::with_capacity`.
#[test]
fn batch_count_bomb_rejected() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&1u32.to_le_bytes()); // from
    frame.extend_from_slice(&2u64.to_le_bytes()); // view
    frame.push(5); // FetchResponse → block → batch
    frame.push(1); // ParentLink::Normal
    frame.extend_from_slice(&[0u8; 32]); // parent digest
    frame.extend_from_slice(&1u64.to_le_bytes()); // pview
    frame.extend_from_slice(&2u64.to_le_bytes()); // view
    frame.extend_from_slice(&2u64.to_le_bytes()); // height
    frame.push(0); // Justify::None
    frame.extend_from_slice(&u32::MAX.to_le_bytes()); // tx count bomb
    match decode(&frame) {
        Err(DecodeError::FieldTooLarge { what, len, .. }) => {
            assert_eq!(what, "Batch.count");
            assert_eq!(len, u32::MAX as usize);
        }
        other => panic!("expected FieldTooLarge, got {other:?}"),
    }
}

/// A `PayloadPush` frame whose batch — the last field, so its bytes end
/// the frame — claims `count` transactions and holds `txs`.
fn push_frame(count: u32, txs: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&1u32.to_le_bytes()); // from
    frame.extend_from_slice(&2u64.to_le_bytes()); // view
    frame.push(12); // PayloadPush
    frame.extend_from_slice(&[0u8; 32]); // digest
    frame.extend_from_slice(&count.to_le_bytes());
    frame.extend_from_slice(txs);
    frame
}

/// A transaction's wire header claiming a `len`-byte payload.
fn tx_header(len: u32) -> Vec<u8> {
    let mut header = 7u64.to_le_bytes().to_vec(); // id
    header.extend_from_slice(&3u32.to_le_bytes()); // client
    header.extend_from_slice(&len.to_le_bytes());
    header.extend_from_slice(&9u64.to_le_bytes()); // submitted_at_ns
    header
}

/// Two transactions claimed, enough bytes for the count bound (two
/// headers' worth), but the second header stops after 10 of its 24
/// bytes: the walk ends there.
#[test]
fn batch_header_cut_short() {
    let mut txs = tx_header(30);
    txs.extend_from_slice(&[0xAB; 30]);
    let second = tx_header(0);
    txs.extend_from_slice(&second[..10]);
    assert_eq!(
        decode(&push_frame(2, &txs)),
        Err(DecodeError::UnexpectedEnd)
    );
    txs.extend_from_slice(&second[10..]);
    assert!(decode(&push_frame(2, &txs)).is_ok());
}

/// The last payload claims one byte more than the frame holds.
#[test]
fn batch_last_payload_one_byte_past_the_frame() {
    let mut txs = tx_header(5);
    txs.extend_from_slice(&[1; 5]);
    txs.extend_from_slice(&tx_header(31));
    txs.extend_from_slice(&[0xAB; 30]);
    assert_eq!(
        decode(&push_frame(2, &txs)),
        Err(DecodeError::UnexpectedEnd)
    );
    txs.push(0xAB);
    assert!(decode(&push_frame(2, &txs)).is_ok());
}

/// A `u32::MAX` payload length is refused by the walk's bound, not
/// sliced or allocated.
#[test]
fn batch_payload_length_u32_max() {
    let mut txs = tx_header(u32::MAX);
    txs.extend_from_slice(&[0xAB; 64]);
    assert_eq!(
        decode(&push_frame(1, &txs)),
        Err(DecodeError::UnexpectedEnd)
    );
}

/// A proposal claiming a `u16::MAX`-certificate view-change proof with
/// an empty tail: rejected by the per-item lower bound.
#[test]
fn vc_proof_count_bomb_rejected() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&1u32.to_le_bytes()); // from
    frame.extend_from_slice(&2u64.to_le_bytes()); // view
    frame.push(0); // Proposal
    frame.push(1); // Phase::Prepare
    frame.push(0); // zero blocks
    frame.push(0); // Justify::None
    frame.extend_from_slice(&u16::MAX.to_le_bytes()); // vc_proof bomb
    match decode(&frame) {
        Err(DecodeError::FieldTooLarge { what, len, .. }) => {
            assert_eq!(what, "Proposal.vc_proof");
            assert_eq!(len, u16::MAX as usize);
        }
        other => panic!("expected FieldTooLarge, got {other:?}"),
    }
}

/// A `BlockRangeResponse` claiming `u16::MAX` blocks with an empty
/// tail: the per-block minimum wire length must reject the count
/// before any allocation happens.
#[test]
fn block_range_count_bomb_rejected() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&1u32.to_le_bytes()); // from
    frame.extend_from_slice(&2u64.to_le_bytes()); // view
    frame.push(11); // BlockRangeResponse
    frame.extend_from_slice(&3u64.to_le_bytes()); // from_height
    frame.extend_from_slice(&u16::MAX.to_le_bytes()); // block count bomb
    match decode(&frame) {
        Err(DecodeError::FieldTooLarge { what, len, .. }) => {
            assert_eq!(what, "BlockRangeResponse.blocks");
            assert_eq!(len, u16::MAX as usize);
        }
        other => panic!("expected FieldTooLarge, got {other:?}"),
    }
}

/// The bounds must not reject honest frames: the samples round-trip.
#[test]
fn sample_frame_still_round_trips() {
    let frame = sample_frame();
    let msg = decode(&frame).expect("valid frame decodes");
    assert_eq!(encode_message(&msg, false).to_vec(), frame);
    for frame in sync_frames() {
        let msg = decode(&frame).expect("valid sync frame decodes");
        assert_eq!(encode_message(&msg, false).to_vec(), frame);
    }
}
