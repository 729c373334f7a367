//! Property tests for the zero-copy invariants. Fan-out: batch clones
//! are refcount bumps, the shadow-block wire model matches the real
//! codec byte for byte, and decoding a shadow pair reconstructs a
//! shared payload allocation rather than two copies. Receive: every
//! payload a decode yields is a slice of the frame it was given.

use bytes::Bytes;
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{
    Batch, Block, Height, Justify, Message, MsgBody, Phase, Proposal, Qc, ReplicaId, Transaction,
    View,
};
use proptest::prelude::*;
use std::ops::Range;

prop_compose! {
    fn arb_tx()(
        id in any::<u64>(),
        client in 0u32..64,
        len in 0usize..300,
        ts in any::<u64>(),
        fill in any::<u8>(),
    ) -> Transaction {
        Transaction::new(id, client, Bytes::from(vec![fill; len]), ts)
    }
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    prop::collection::vec(arb_tx(), 0..8).prop_map(Batch::new)
}

/// A two-proposal PRE-PREPARE whose blocks carry the same payload — the
/// shape the shadow-block optimisation (Section IV-D) deduplicates.
fn shadow_proposal(payload: Batch, view: u64) -> Message {
    let g = Block::genesis();
    let b1 = Block::new_normal(
        g.id(),
        g.view(),
        View(view),
        g.height().next(),
        payload.clone(),
        Justify::One(Qc::genesis(g.id())),
    );
    let b2 = Block::new_virtual(
        g.view(),
        View(view),
        g.height().plus(2),
        payload,
        Justify::One(Qc::genesis(g.id())),
    );
    let prop = Proposal {
        phase: Phase::PrePrepare,
        blocks: vec![b1, b2],
        justify: Justify::None,
        vc_proof: Vec::new(),
    };
    Message::new(ReplicaId(0), View(view), MsgBody::Proposal(prop))
}

/// Every batch a message carries, in wire order (a shadow pair's one
/// batch twice).
fn batches(msg: &Message) -> Vec<&Batch> {
    match &msg.body {
        MsgBody::Proposal(p) => p.blocks.iter().map(Block::payload).collect(),
        MsgBody::FetchResponse { block, .. } => vec![block.payload()],
        MsgBody::SnapshotResponse {
            snapshot: Some((block, _)),
        } => vec![block.payload()],
        MsgBody::BlockRangeResponse { blocks, .. } => blocks.iter().map(Block::payload).collect(),
        MsgBody::PayloadPush { batch, .. } => vec![batch],
        MsgBody::PayloadResponse {
            batch: Some(batch), ..
        } => vec![batch],
        _ => Vec::new(),
    }
}

/// Every message shape that carries transactions, around `payload`:
/// normal and virtual blocks, a shadow pair, and bare batches.
fn carriers(payload: Batch, view: u64) -> Vec<Message> {
    let shadow = shadow_proposal(payload.clone(), view);
    let MsgBody::Proposal(p) = &shadow.body else {
        unreachable!()
    };
    let (normal, virt) = (p.blocks[0].clone(), p.blocks[1].clone());
    let bodies = vec![
        MsgBody::Proposal(Proposal {
            phase: Phase::Prepare,
            blocks: vec![normal.clone()],
            justify: Justify::None,
            vc_proof: Vec::new(),
        }),
        MsgBody::FetchResponse {
            block: virt.clone(),
            virtual_parent: Some(normal.id()),
        },
        MsgBody::SnapshotResponse {
            snapshot: Some((normal.clone(), Qc::genesis(normal.id()))),
        },
        MsgBody::BlockRangeResponse {
            from_height: normal.height(),
            blocks: vec![normal, virt],
        },
        MsgBody::PayloadPush {
            digest: payload.digest(),
            batch: payload.clone(),
        },
        MsgBody::PayloadResponse {
            digest: payload.digest(),
            batch: Some(payload),
        },
    ];
    let mut out = vec![shadow];
    out.extend(
        bodies
            .into_iter()
            .map(|body| Message::new(ReplicaId(1), View(view), body)),
    );
    out
}

fn span(bytes: &[u8]) -> Range<usize> {
    let range = bytes.as_ptr_range();
    range.start as usize..range.end as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Decoding copies no payload: whatever carries the batch, shadowed
    /// or not, wherever the frame sits in a larger buffer, every decoded
    /// non-empty payload is a view into the frame (its address range
    /// inside the frame's, its storage the frame's), laid out in wire
    /// order without overlap; decoding again shares the same bytes; and
    /// the result equals what was encoded, block ids included.
    #[test]
    fn decoded_payloads_are_slices_of_the_frame(
        payload in arb_batch(),
        view in 2u64..40,
        shadow in any::<bool>(),
        lead in 0usize..64,
    ) {
        for msg in carriers(payload, view) {
            let wire = encode_message(&msg, shadow);
            let mut outer = vec![0xEEu8; lead];
            outer.extend_from_slice(&wire);
            outer.extend_from_slice(&[0xEE; 3]);
            let frame = Bytes::from(outer).slice(lead..lead + wire.len());
            let decodes = [0; 3].map(|_| decode_message(&frame).unwrap());
            let spans = decodes.each_ref().map(|decoded| {
                batches(decoded)
                    .into_iter()
                    .flat_map(Batch::iter)
                    .filter(|tx| !tx.payload.is_empty())
                    .map(|tx| {
                        assert!(Bytes::ptr_eq(&tx.to_transaction().payload, &frame));
                        span(tx.payload)
                    })
                    .collect::<Vec<_>>()
            });
            // Inside the frame, one after another in wire order (a
            // shadow block repeats its twin's), and the same bytes on
            // every decode.
            let mut end = span(&frame).start;
            let mut seen = Vec::new();
            for at in &spans[0] {
                if !seen.contains(at) {
                    prop_assert!(end <= at.start && at.end <= span(&frame).end);
                    end = at.end;
                    seen.push(at.clone());
                }
            }
            prop_assert!(spans[1] == spans[0] && spans[2] == spans[0]);
            prop_assert_eq!(&decodes[0], &msg);
            if let (MsgBody::Proposal(got), MsgBody::Proposal(sent)) = (&decodes[0].body, &msg.body) {
                for (got, sent) in got.blocks.iter().zip(&sent.blocks) {
                    prop_assert_eq!(got.id(), sent.id());
                    prop_assert_eq!(got.kind(), sent.kind());
                }
            }
        }
    }

    /// Cloning a batch shares the backing bytes (`Batch::ptr_eq`) —
    /// what makes per-recipient broadcast cost O(1) — and the clone is
    /// indistinguishable from the original.
    #[test]
    fn batch_clone_is_refcount_bump(batch in arb_batch()) {
        let clone = batch.clone();
        prop_assert!(batch.ptr_eq(&clone));
        prop_assert_eq!(&batch, &clone);
        prop_assert_eq!(batch.wire_len(), clone.wire_len());
        // And so does cloning a block built around it.
        let g = Block::genesis();
        let block = Block::new_normal(
            g.id(), g.view(), View(1), Height(1), batch, Justify::None,
        );
        prop_assert!(block.payload().ptr_eq(block.clone().payload()));
    }

    /// The modeled wire length of a shadow pair matches the codec's real
    /// encoding byte for byte, with the optimisation on and off, and the
    /// saving is exactly the second block's payload bytes.
    #[test]
    fn shadow_wire_model_matches_codec(payload in arb_batch(), view in 2u64..40) {
        let msg = shadow_proposal(payload, view);
        let with = encode_message(&msg, true);
        let without = encode_message(&msg, false);
        prop_assert_eq!(with.len(), msg.wire_len(true));
        prop_assert_eq!(without.len(), msg.wire_len(false));
        let MsgBody::Proposal(p) = &msg.body else { unreachable!() };
        prop_assert_eq!(without.len() - with.len(), p.blocks[1].payload().wire_len());
        prop_assert_eq!(&decode_message(&with).unwrap(), &msg);
        prop_assert_eq!(&decode_message(&without).unwrap(), &msg);
    }

    /// Decoding a deduplicated shadow pair reconstructs one shared
    /// payload allocation, not two copies.
    #[test]
    fn decoded_shadow_pair_shares_payload(payload in arb_batch(), view in 2u64..40) {
        let msg = shadow_proposal(payload, view);
        let decoded = decode_message(&encode_message(&msg, true)).unwrap();
        let MsgBody::Proposal(p) = &decoded.body else { unreachable!() };
        prop_assert!(p.blocks[0].payload().ptr_eq(p.blocks[1].payload()));
    }
}
